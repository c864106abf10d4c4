"""Bounded in-actor caches — the reference's ST6 cache family
(``Collections/LRUCache.cs`` / ``LFUCache.cs`` — behavior observed at
``LRUCacheTests.cs`` / ``LFUCacheTests.cs``; no code copied).

Used by :class:`~fulltextsearch_ray.pipelines.query.IndexSearcher` for
decoded posting lists: LRU (default — query streams with temporal
locality) or LFU (skewed workloads where a hot-term working set should
survive scan bursts); an LRU also bounds its open parquet files.
Plain dict/OrderedDict machinery; these sit in front of parquet reads,
not in a per-row hot loop.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Hashable, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_MISSING = object()


class LRUCache(Generic[K, V]):
    """Least-recently-used eviction; ``get`` refreshes recency."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._d: OrderedDict[K, V] = OrderedDict()

    def get(self, key: K, default=None):
        hit = self._d.get(key, _MISSING)
        if hit is _MISSING:
            return default
        self._d.move_to_end(key)
        return hit

    def get_or_load(self, key: K, load: Callable[[K], V]) -> V:
        """The cached value, or ``load(key)`` stored on a miss."""
        hit = self._d.get(key, _MISSING)
        if hit is _MISSING:
            hit = load(key)
            self.put(key, hit)
        else:
            self._d.move_to_end(key)
        return hit

    def put(self, key: K, value: V) -> None:
        self._d[key] = value
        self._d.move_to_end(key)
        if len(self._d) > self.capacity:
            self._d.popitem(last=False)

    def __len__(self) -> int:
        return len(self._d)

    def __contains__(self, key: K) -> bool:
        return key in self._d


class LFUCache(Generic[K, V]):
    """Least-frequently-used eviction, ties broken least-recently-used
    (the reference acceptance semantics: Put counts as a use; replacing
    a key's value bumps its frequency)."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._vals: dict[K, V] = {}
        self._freq: dict[K, int] = {}
        self._buckets: dict[int, OrderedDict[K, None]] = {}
        self._min_freq = 0

    def _touch(self, key: K) -> None:
        f = self._freq[key]
        bucket = self._buckets[f]
        del bucket[key]
        if not bucket:
            del self._buckets[f]
            if self._min_freq == f:
                self._min_freq = f + 1
        self._freq[key] = f + 1
        self._buckets.setdefault(f + 1, OrderedDict())[key] = None

    def get(self, key: K, default=None):
        if key not in self._vals:
            return default
        self._touch(key)
        return self._vals[key]

    def put(self, key: K, value: V) -> None:
        if key in self._vals:
            self._vals[key] = value
            self._touch(key)
            return
        if len(self._vals) >= self.capacity:
            victims = self._buckets[self._min_freq]
            victim, _ = victims.popitem(last=False)
            if not victims:
                del self._buckets[self._min_freq]
            del self._vals[victim]
            del self._freq[victim]
        self._vals[key] = value
        self._freq[key] = 1
        self._buckets.setdefault(1, OrderedDict())[key] = None
        self._min_freq = 1

    def __len__(self) -> int:
        return len(self._vals)

    def __contains__(self, key: K) -> bool:
        return key in self._vals


def make_cache(policy: str, capacity: int):
    if policy == "lru":
        return LRUCache(capacity)
    if policy == "lfu":
        return LFUCache(capacity)
    raise ValueError(f"unknown cache policy {policy!r} (expected 'lru' or 'lfu')")
