"""ST6 cache family: LRU + LFU (reference LRUCacheTests/LFUCacheTests
semantics) and the searcher cache_policy seam."""

import pytest

from fulltextsearch_ray.state.caches import LFUCache, LRUCache, make_cache


def test_lfu_reference_acceptance():
    # ported expectations (LFUCacheTests.cs Acceptance)
    lfu = LFUCache(2)
    lfu.put(3, 1)
    lfu.put(2, 1)
    lfu.put(2, 2)  # replace key 2 (bumps its frequency)
    lfu.put(4, 4)  # evicts key 3 (lowest frequency)
    assert 3 not in lfu
    assert lfu.get(4) == 4
    assert lfu.get(2) == 2


def test_lfu_ties_evict_least_recent():
    lfu = LFUCache(2)
    lfu.put("a", 1)
    lfu.put("b", 2)  # both freq 1; "a" is older
    lfu.put("c", 3)
    assert "a" not in lfu and lfu.get("b") == 2 and lfu.get("c") == 3


def test_lru_eviction_and_refresh():
    lru = LRUCache(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # refreshes "a"
    lru.put("c", 3)  # evicts "b" (least recent)
    assert "b" not in lru and "a" in lru and "c" in lru
    assert lru.get("missing", "dflt") == "dflt"


def test_lru_get_or_load_loads_once_and_refreshes():
    loads = []

    def load(k):
        loads.append(k)
        return k.upper()

    lru = LRUCache(2)
    assert lru.get_or_load("a", load) == "A"
    assert lru.get_or_load("b", load) == "B"
    assert lru.get_or_load("a", load) == "A"  # hit: refreshes "a"
    assert loads == ["a", "b"]
    lru.get_or_load("c", load)  # evicts "b" (least recent)
    assert "b" not in lru and "a" in lru and "c" in lru


def test_make_cache_validates():
    with pytest.raises(ValueError, match="policy"):
        make_cache("mru", 4)
    with pytest.raises(ValueError, match="capacity"):
        LFUCache(0)


def test_searcher_lfu_policy_matches_lru(ray_session, tmp_path):
    import pyarrow as pa
    import ray.data

    from fulltextsearch_ray.pipelines.build import build_index
    from fulltextsearch_ray.pipelines.query import IndexSearcher

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                ["apple banana apple", "banana cherry", "apple cherry date"], pa.string()
            ),
        }
    )
    idx = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(tbl), idx, text_col="text", doc_id_col="doc_id")
    a = IndexSearcher(idx)  # default lru
    b = IndexSearcher(idx, cache_policy="lfu", cache_blocks=2)
    for q in ("WORD(apple)", "WORD(banana)", "WORD(cherry)", "WORD(apple)"):
        assert a.search_to_string(q) == b.search_to_string(q)
    assert a.bm25_topk("apple cherry").equals(b.bm25_topk("apple cherry"))
