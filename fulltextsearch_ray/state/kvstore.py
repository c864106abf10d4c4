"""Persistent id→bytes metadata stores: B-tree, hash table, list.

Closes the ST3-ST5 non-goal with REAL on-disk structures: the
reference ships three interchangeable ``IMetadataStorage`` backends
(``IndexTypes/IMetadataStorage.cs:3-8``; ``PersistentMetadataBtree`` /
``PersistentMetadataHashTable`` / ``PersistentMetadataList`` over
``Collections/BtreePersistent.cs`` order-32, ``PersistentHashTable.cs``,
``PersistentList.cs`` — behavior observed, no code copied; byte layouts
here are this repo's own).  The parquet ``docs_meta`` table remains the
DEFAULT serving path (SURVEY §1.5 mapping — columnar, distributed);
these stores are the single-file point-lookup variants for a
reference-parity deployment: ``save(id, data)`` / ``get(id)`` with
update-in-place semantics, durable across reopen.

All three share one file discipline: a fixed header, structure nodes
and value records appended and addressed by absolute offset, in-place
header/pointer patches — no compaction pass is ever required to read.
Superseded values leak file space until rebuilt (the reference's
persistent collections behave the same way); these are metadata-sized
stores, not the corpus path.
"""

from __future__ import annotations

import bisect
import io
import os
import struct

__all__ = [
    "PersistentBtree",
    "PersistentHashTable",
    "PersistentList",
    "open_metadata_store",
    "METADATA_STORE_KINDS",
]

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")


class _FileStore:
    """Shared open/append/patch plumbing over one binary file."""

    MAGIC = b"????"
    HEADER_EXTRA = 0  # subclass payload bytes after the magic

    def __init__(self, path: str, durable: bool = False):
        self.path = path
        self.durable = durable
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        self._f = open(path, "r+b" if not fresh else "w+b")
        if fresh:
            self._f.write(self.MAGIC)
            self._init_header()
            self._f.flush()
        else:
            magic = self._f.read(len(self.MAGIC))
            if magic != self.MAGIC:
                raise ValueError(f"{path}: bad magic {magic!r} (want {self.MAGIC!r})")
            self._load_header()

    # subclasses: _init_header (write extra header), _load_header (read it)

    def _append(self, payload: bytes) -> int:
        self._f.seek(0, io.SEEK_END)
        off = self._f.tell()
        self._f.write(payload)
        return off

    def _read_at(self, off: int, n: int) -> bytes:
        self._f.seek(off)
        return self._f.read(n)

    def _write_at(self, off: int, payload: bytes) -> None:
        self._f.seek(off)
        self._f.write(payload)

    def flush(self) -> None:
        self._f.flush()

    def _barrier(self) -> None:
        """Write barrier before a pointer patch.  flush() orders the
        append ahead of the patch for PROCESS-crash scenarios (both hit
        the page cache in order; the appended bytes exist when the
        pointer lands).  It is NOT a power-loss guarantee — the kernel
        may write the pointer page first; open the store with
        ``durable=True`` to fsync here (per-save cost) when that
        matters.  Either way ``_read_exact`` turns a dangling pointer
        into a descriptive corrupt-store error, never a struct.error."""
        self._f.flush()
        if self.durable:
            os.fsync(self._f.fileno())

    def close(self) -> None:
        self._f.flush()
        if self.durable:
            os.fsync(self._f.fileno())
        self._f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _read_exact(self, off: int, n: int, what: str) -> bytes:
        """Bounds-validated read: a short read means a pointer ran past
        the data actually on disk (torn write / crash between a record
        append and its pointer patch) — raise a descriptive corruption
        error instead of letting struct.error surface downstream."""
        raw = self._read_at(off, n)
        if len(raw) != n:
            raise ValueError(
                f"{self.path}: corrupt store — {what} at offset {off} "
                f"runs past end of file ({len(raw)}/{n} bytes)"
            )
        return raw

    # value records: [u32 len][bytes]
    def _append_value(self, data: bytes) -> int:
        return self._append(_U32.pack(len(data)) + data)

    def _read_value(self, off: int) -> bytes:
        n = _U32.unpack(self._read_exact(off, 4, "value length"))[0]
        return self._read_exact(off + 4, n, "value record")


class PersistentBtree(_FileStore):
    """Order-``order`` B-tree keyed by uint64, values = byte strings
    (reference ``BtreePersistent`` order 32).

    Node record: [u8 leaf][u16 n][n × u64 key][n × u64 vptr]
    [(n+1) × u64 child] (children only for internal nodes).  Nodes are
    fixed-size for their order, so a split rewrites at most three
    nodes; the root pointer lives in the header and is patched on
    height growth.  Lookup reads O(log_order n) nodes through a small
    node cache."""

    MAGIC = b"RBT1"

    # bound on cached decoded nodes — enforced on BOTH read and write
    # paths (a write-only bulk load would otherwise cache every node
    # ever written and grow O(total nodes))
    CACHE_NODES = 256

    def __init__(self, path: str, order: int = 32, durable: bool = False):
        self._order = order
        super().__init__(path, durable=durable)
        self._cache: dict[int, tuple] = {}

    # header after magic: [u32 order][u64 root]
    def _init_header(self) -> None:
        self._f.write(_U32.pack(self._order))
        self._root = 0  # 0 = empty tree (offset 0 is the header itself)
        self._f.write(_U64.pack(self._root))

    def _load_header(self) -> None:
        self._order = _U32.unpack(self._f.read(4))[0]
        self._root = _U64.unpack(self._f.read(8))[0]

    def _patch_root(self, off: int) -> None:
        # barrier the node/value appends BEFORE the root pointer patch
        # (see _barrier for exactly what this does and does not promise)
        self._barrier()
        self._root = off
        self._write_at(len(self.MAGIC) + 4, _U64.pack(off))

    # -- node encode/decode (fixed size per order) --------------------------

    def _node_size(self) -> int:
        m = 2 * self._order  # max keys
        return 1 + 2 + m * 8 + m * 8 + (m + 1) * 8

    def _write_node(self, off: "int | None", leaf: bool, keys, vals, kids) -> int:
        m = 2 * self._order
        buf = bytearray()
        buf.append(1 if leaf else 0)
        buf += struct.pack("<H", len(keys))
        for arr, width in ((keys, m), (vals, m), (kids, m + 1)):
            padded = list(arr) + [0] * (width - len(arr))
            buf += struct.pack(f"<{width}Q", *padded)
        if off is None:
            off = self._append(bytes(buf))
        else:
            self._write_at(off, bytes(buf))
        self._cache_put(off, (leaf, list(keys), list(vals), list(kids)))
        return off

    def _cache_put(self, off: int, node: tuple) -> None:
        if len(self._cache) >= self.CACHE_NODES:
            self._cache.clear()
        self._cache[off] = node

    def _read_node(self, off: int):
        hit = self._cache.get(off)
        if hit is not None:
            return hit
        m = 2 * self._order
        raw = self._read_exact(off, self._node_size(), "btree node")
        leaf = bool(raw[0])
        n = struct.unpack_from("<H", raw, 1)[0]
        pos = 3
        keys = list(struct.unpack_from(f"<{m}Q", raw, pos)[:n]); pos += m * 8
        vals = list(struct.unpack_from(f"<{m}Q", raw, pos)[:n]); pos += m * 8
        kids = list(struct.unpack_from(f"<{m + 1}Q", raw, pos)[: 0 if leaf else n + 1])
        node = (leaf, keys, vals, kids)
        self._cache_put(off, node)
        return node

    # -- public API ---------------------------------------------------------

    def get(self, key: int) -> "bytes | None":
        if self._root == 0:
            return None
        off = self._root
        while True:
            leaf, keys, vals, kids = self._read_node(off)
            i = bisect.bisect_left(keys, key)
            if i < len(keys) and keys[i] == key:
                return self._read_value(vals[i])
            if leaf:
                return None
            off = kids[i]

    def save(self, key: int, data: bytes) -> None:
        _check_u64_key(key)
        vptr = self._append_value(data)
        if self._root == 0:
            root = self._write_node(None, True, [key], [vptr], [])
            self._patch_root(root)
            return
        _replaced, split = self._upsert(self._root, key, vptr)
        if split is not None:
            mid_key, mid_val, left, right = split
            root = self._write_node(None, False, [mid_key], [mid_val], [left, right])
            self._patch_root(root)

    def _upsert(self, off: int, key: int, vptr: int):
        """ONE root-to-leaf descent that replaces in place when the key
        exists and inserts otherwise (a prior version descended twice —
        a _replace probe then a fresh _insert — doubling node reads per
        new-key save).  Returns (replaced, split) where split is None
        or (mid_key, mid_val, left_off, right_off)."""
        leaf, keys, vals, kids = self._read_node(off)
        i = bisect.bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            vals = list(vals)
            vals[i] = vptr
            self._write_node(off, leaf, keys, vals, kids)
            return True, None
        keys, vals, kids = list(keys), list(vals), list(kids)
        if leaf:
            keys.insert(i, key)
            vals.insert(i, vptr)
        else:
            replaced, split = self._upsert(kids[i], key, vptr)
            if replaced or split is None:
                return replaced, None
            mid_key, mid_val, left, right = split
            keys.insert(i, mid_key)
            vals.insert(i, mid_val)
            kids[i] = left
            kids.insert(i + 1, right)
        m = 2 * self._order
        if len(keys) <= m:
            if not leaf and split is not None:
                # this in-place rewrite publishes pointers to freshly
                # appended children — same barrier contract as
                # _patch_root (rare: one per split propagation)
                self._barrier()
            self._write_node(off, leaf, keys, vals, kids)
            return False, None
        # Split around the median.  BOTH halves are APPENDED as new
        # nodes — the original node at `off` stays intact on disk until
        # the parent (or root) pointer swings to the new children.
        # Reusing `off` for the left half overwrote the live node with
        # keys[:h] BEFORE any pointer landed: a crash in that window
        # made every committed right-half key unreachable on reopen,
        # violating the store's append-before-patch discipline.
        h = len(keys) // 2
        mid_key, mid_val = keys[h], vals[h]
        left = self._write_node(
            None, leaf, keys[:h], vals[:h], kids[: h + 1] if not leaf else []
        )
        right = self._write_node(
            None, leaf, keys[h + 1 :], vals[h + 1 :], kids[h + 1 :] if not leaf else []
        )
        return False, (mid_key, mid_val, left, right)


class PersistentHashTable(_FileStore):
    """Fixed-directory chained hash table (reference
    ``PersistentHashTable.cs``): a bucket directory of u64 chain heads
    after the header; records [u64 next][u64 key][u32 len][bytes]
    prepend to their chain, so the NEWEST record for a key is found
    first — updates need no rewrite."""

    MAGIC = b"RHT1"

    def __init__(self, path: str, n_buckets: int = 4096, durable: bool = False):
        self._n_buckets = n_buckets
        super().__init__(path, durable=durable)

    def _init_header(self) -> None:
        self._f.write(_U32.pack(self._n_buckets))
        self._dir_off = self._f.tell()
        self._f.write(b"\x00" * (8 * self._n_buckets))

    def _load_header(self) -> None:
        self._n_buckets = _U32.unpack(self._f.read(4))[0]
        self._dir_off = self._f.tell()

    def _bucket(self, key: int) -> int:
        # 64-bit mix (splitmix64 finalizer) → directory slot
        h = (key + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return (h ^ (h >> 31)) % self._n_buckets

    def _head_off(self, key: int) -> int:
        return self._dir_off + 8 * self._bucket(key)

    def get(self, key: int) -> "bytes | None":
        off = _U64.unpack(self._read_exact(self._head_off(key), 8, "chain head"))[0]
        while off:
            nxt, k = struct.unpack("<QQ", self._read_exact(off, 16, "chain record header"))
            if k == key:
                return self._read_value(off + 16)
            off = nxt
        return None

    def save(self, key: int, data: bytes) -> None:
        _check_u64_key(key)
        head_off = self._head_off(key)
        old = _U64.unpack(self._read_at(head_off, 8))[0]
        rec = _U64.pack(old) + _U64.pack(key) + _U32.pack(len(data)) + data
        off = self._append(rec)
        # barrier the record append before patching the chain head (same
        # ordering discipline as the B-tree root patch; see _barrier)
        self._barrier()
        self._write_at(head_off, _U64.pack(off))


class PersistentList(_FileStore):
    """Dense id→value slot file (reference ``PersistentList.cs``): the
    slot region holds one u64 value pointer per id (0 = unset) and
    doubles in place when an id overflows it; values append to the same
    file.  O(1) lookups for the dense doc-id space the builder
    assigns."""

    MAGIC = b"RPL1"

    # header after magic: [u64 capacity][u64 slots_off] — the slot
    # region moves to the file tail when it doubles, so its offset is
    # persisted, not derived.

    def _init_header(self) -> None:
        self._capacity = 1024
        self._f.write(_U64.pack(self._capacity))
        slots_off = self._f.tell() + 8
        self._f.write(_U64.pack(slots_off))
        self._f.write(b"\x00" * (8 * self._capacity))
        self._slots_off = slots_off

    def _load_header(self) -> None:
        self._capacity = _U64.unpack(self._f.read(8))[0]
        self._slots_off = _U64.unpack(self._f.read(8))[0]

    def _grow(self, need: int) -> None:
        """Copy live slots into a fresh, larger slot region at the file
        tail (values are offset-addressed, so they never move)."""
        new_cap = self._capacity
        while new_cap <= need:
            new_cap *= 2
        slots = self._read_at(self._slots_off, 8 * self._capacity)
        new_off = self._append(slots + b"\x00" * (8 * (new_cap - self._capacity)))
        self._barrier()  # new slot region ordered before the header points at it
        self._capacity = new_cap
        self._slots_off = new_off
        self._write_at(len(self.MAGIC), _U64.pack(new_cap) + _U64.pack(new_off))

    def get(self, key: int) -> "bytes | None":
        if key < 0 or key >= self._capacity:
            return None
        off = _U64.unpack(self._read_exact(self._slots_off + 8 * key, 8, "slot"))[0]
        return self._read_value(off) if off else None

    def save(self, key: int, data: bytes) -> None:
        if key < 0:
            raise ValueError("PersistentList ids must be >= 0")
        if key >= 1 << 32:
            # the slot region is 8 bytes per id up to the max id: a
            # sparse 64-bit id would ask for a terabyte file.  The
            # builder's doc ids are dense; sparse id spaces belong in
            # the btree/hash stores.
            raise ValueError(
                "PersistentList requires dense ids (< 2^32); use the "
                "btree or hash store for sparse id spaces"
            )
        if key >= self._capacity:
            self._grow(key)
        vptr = self._append_value(data)
        self._barrier()  # record ordered before its slot pointer lands
        self._write_at(self._slots_off + 8 * key, _U64.pack(vptr))


def _check_u64_key(key: int) -> None:
    """Uniform key-range check for the u64-keyed stores, raised BEFORE
    any bytes are appended (a struct.error mid-save used to leak the
    already-written value record and read differently per backend)."""
    if key < 0 or key >= 1 << 64:
        raise ValueError(f"store keys must be uint64, got {key}")


METADATA_STORE_KINDS = {
    # reference factory ids (PersistentMetadataFactory.cs)
    "btree": PersistentBtree,
    "hash": PersistentHashTable,
    "list": PersistentList,
}


def open_metadata_store(path: str, kind: str, durable: bool = False):
    """Factory mirroring the reference's ``PersistentMetadataFactory``
    (ids BTree / HashTable / List).  ``durable=True`` fsyncs before
    every pointer patch (power-loss ordering, per-save cost)."""
    try:
        cls = METADATA_STORE_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown metadata store kind {kind!r} (one of {sorted(METADATA_STORE_KINDS)})"
        ) from None
    return cls(path, durable=durable)


def store_path(index_dir: str, kind: str) -> str:
    return os.path.join(index_dir, f"meta_store_{kind}.bin")


def build_store_from_index(index_dir: str, kind: str, path: "str | None" = None) -> dict:
    """Materialize an index's per-doc metadata (docs_meta, falling back
    to extra docs columns — same precedence as
    ``IndexSearcher.get_metadata_many``) into a persistent point-lookup
    store.  Values are JSON objects of the metadata columns.  Returns
    {path, kind, n_docs}.

    This is the reference-parity serving shape (one ``IMetadataStorage``
    file per index); the parquet tables remain the distributed source
    of truth — rebuilding after new sessions just reruns this."""
    import json

    import pyarrow.parquet as pq

    from .index import load_meta, parquet_files, segment_dir

    path = path or store_path(index_dir, kind)
    # Build into a temp file and os.replace at the end: building in
    # place after deleting the old store meant a crash mid-build left a
    # valid-looking but PARTIAL store (opens cleanly, get() returns
    # None for the missing docs) with the previous good one already
    # destroyed.  The FST sidecar uses the same tmp+replace discipline.
    tmp = path + ".tmp"
    if os.path.exists(tmp):
        os.remove(tmp)
    segments = list(load_meta(index_dir).segments)
    core = {"doc_id", "doc_len", "sha256"}
    n = 0
    with open_metadata_store(tmp, kind) as st:
        seen: set[int] = set()
        for seg in segments:
            base = segment_dir(index_dir, seg)
            # read per FILE, as IndexSearcher.get_metadata_many does: a
            # compacted segment can mix docs_meta files of different
            # schemas (sessions with different meta_cols), and a
            # directory read takes the schema of the first file only
            files = [
                f for sub in ("docs_meta", "docs")
                for f in parquet_files(os.path.join(base, sub))
            ]
            for f in files:
                t = pq.read_table(f)
                meta_cols = [c for c in t.column_names if c not in core]
                ids = t["doc_id"].to_pylist()
                # one to_pylist per COLUMN (per-cell ChunkedArray
                # indexing walks chunk offsets and boxes a scalar for
                # every (doc, col) — dominates multi-million-doc loads)
                col_vals = {c: t[c].to_pylist() for c in meta_cols}
                for j, did in enumerate(ids):
                    did = int(did)
                    if did in seen:
                        continue  # docs_meta (richer) already covered it
                    seen.add(did)
                    st.save(did, json.dumps(
                        {c: col_vals[c][j] for c in meta_cols}, default=str,
                        sort_keys=True,
                    ).encode())
                    n += 1
        st.flush()
    os.replace(tmp, path)
    # Coverage stamp (the FST sidecar's staleness device): records
    # which segments this store was built over, so a reader can detect
    # a store that predates an incremental session instead of silently
    # returning None for every new doc.
    stamp_tmp = path + ".json.tmp"
    with open(stamp_tmp, "w") as f:
        json.dump({"kind": kind, "segments": segments, "n_docs": n}, f)
    os.replace(stamp_tmp, path + ".json")
    return {"path": path, "kind": kind, "n_docs": n}


def store_is_stale(index_dir: str, kind: str, path: "str | None" = None) -> "bool | None":
    """True when the store's coverage stamp names a different segment
    list than the index's current meta — i.e. the store predates an
    incremental build or compaction and must be rebuilt.  None when no
    stamp exists (legacy store: staleness unknowable)."""
    import json

    from .index import load_meta

    path = path or store_path(index_dir, kind)
    try:
        with open(path + ".json") as f:
            stamp = json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        return None
    return list(stamp.get("segments", [])) != list(load_meta(index_dir).segments)
