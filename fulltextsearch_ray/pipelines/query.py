"""Query evaluation: Boolean/phrase/pattern search + BM25 top-k.

``IndexSearcher`` is the warm per-worker query state (the analog of the
reference's open index: dictionary + posting readers + header,
``PersistentIndex.cs:19-72``): it loads the term catalog and doc-length
table once, then serves queries by fetching + decoding posting records
on demand (one positional read of the term's payload bytes at its
catalog address, decoded in one varint pass; LRU caches of the decoded
results).

Semantics reproduce the reference exactly (goldens ported in
tests/test_search_golden.py):

* WORD/WILD/EDIT expand over the catalog in sorted term order and union
  their posting streams with duplicates preserved (OrQuery/OrMultiQuery);
* OR merges child streams, duplicates preserved;
* SEQ is the n-way positional adjacency intersection over WORD args;
* AND (surface extension — parsed but unimplemented in the reference,
  ``FullTextQueryCompiler.cs``) intersects at doc level and emits the
  children's occurrences within the surviving docs, in global order.

BM25 (new layer, SURVEY.md §7.0.3): Robertson idf
``ln((N-df+0.5)/(df+0.5)+1)``, k1=1.2, b=0.75, tf per (doc, field=all),
dl from the docs table, deterministic tie-break (score desc, doc asc).

For distributed query serving, ``SearcherStage`` wraps IndexSearcher as
an actor-pool ``map_batches`` class: the index loads once per actor
(``__init__``), batches of query strings score in ``__call__``.
"""

from __future__ import annotations

import itertools
import logging
import os
from collections import OrderedDict
from functools import lru_cache

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..matchers import expand_pattern
from ..occurrences import (
    Matches,
    MixedMatches,
    OccurrenceList,
    and_docs,
    empty_occurrences,
    format_matches,
    lex_sort,
    or_merge,
    phrase_chains,
)
from ..parser import (
    AstQuery,
    EditQuery,
    FunctionQuery,
    TermQueryAst,
    WildQuery,
    WordQuery,
    parse_query,
)
from ..state.caches import LRUCache, make_cache
from ..state.index import load_manifest, load_meta, segment_dir
from ..state.payloads import ADDRESS_COLS, TermPostings, decode_record

logger = logging.getLogger(__name__)

K1 = 1.2
B = 0.75

# catalog stats columns a searcher loads (the payload address follows)
CATALOG_COLS = ["term", "df", "cf", "max_tf", "df_docs"]


def _bm25_idf(N: float, df):
    """Robertson–Spärck-Jones idf with +1 smoothing — the ONE idf
    definition every scorer and the MaxScore bound share (forked
    copies would silently break the pruned==exhaustive invariant)."""
    return np.log((N - df + 0.5) / (df + 0.5) + 1.0)


def _bm25_contrib(idf, tf, dl, avgdl):
    """One term's per-doc BM25 contribution.  ``dl=0`` yields the
    dl→0 supremum over document lengths (the MaxScore bound shape)."""
    return idf * (tf * (K1 + 1.0)) / (tf + K1 * (1.0 - B + B * dl / avgdl))


def _group_doc_tokens(docs: np.ndarray, tokens: np.ndarray, widths: np.ndarray) -> pa.Table:
    """(doc_id, n_matches, token_ids:list) from doc-sorted parallel
    match arrays — each match covers ``width`` consecutive token ids
    (grouped arange explode + one ListArray build, no Python loop).
    Shared by :meth:`IndexSearcher.search_docs` (all fields merged) and
    :meth:`IndexSearcher.search_field_tokens` (one field)."""
    if len(docs) == 0:
        return pa.table(
            {
                "doc_id": pa.array([], pa.uint64()),
                "n_matches": pa.array([], pa.int64()),
                "token_ids": pa.array([], pa.list_(pa.int64())),
            }
        )
    change = np.empty(len(docs), dtype=bool)
    change[0] = True
    np.not_equal(docs[1:], docs[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    counts = np.diff(np.r_[starts, len(docs)])
    toks = tokens.astype(np.int64)
    total = int(widths.sum())
    run_starts = np.cumsum(widths) - widths
    flat = np.repeat(toks, widths) + (np.arange(total, dtype=np.int64) - np.repeat(run_starts, widths))
    toks_per_doc = np.add.reduceat(widths, starts) if len(starts) else np.empty(0, dtype=np.int64)
    offsets = np.zeros(len(starts) + 1, dtype=np.int64)
    np.cumsum(toks_per_doc, out=offsets[1:])
    if total <= np.iinfo(np.int32).max:
        tok_col = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), pa.array(flat, pa.int64())
        )
    else:  # >2^31 matched tokens in one result: 64-bit offsets
        tok_col = pa.LargeListArray.from_arrays(
            pa.array(offsets, pa.int64()), pa.array(flat, pa.int64())
        )
    return pa.table(
        {
            "doc_id": pa.array(docs[starts], pa.uint64()),
            "n_matches": pa.array(counts.astype(np.int64)),
            "token_ids": tok_col,
        }
    )


def _sum_by_doc(docs: np.ndarray, vals: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """(unique sorted docs, per-doc sums) over parallel arrays — the
    merge-by-doc kernel shared by the exhaustive and pruned BM25 paths
    (one definition keeps the pruned==exhaustive invariant unforkable)."""
    if len(docs) < 2 or (docs[1:] > docs[:-1]).all():
        return docs, vals  # already unique and sorted: nothing to sum
    o = np.argsort(docs, kind="stable")
    docs, vals = docs[o], vals[o]
    uniq, idx = np.unique(docs, return_index=True)
    return uniq, np.add.reduceat(vals, idx) if len(idx) else vals[:0]


# files one searcher keeps open (parquet footers of the paged tables
# parsed once per file, not per lookup; payload blobs); the LRU bound
# caps its descriptors
OPEN_FILES = 256


class _OpenBlob:
    """A payload blob's file descriptor, closed when the handle cache
    drops its last reference."""

    fd = -1

    def __init__(self, path: str):
        self.fd = os.open(path, os.O_RDONLY)

    def __del__(self):
        if self.fd >= 0:
            os.close(self.fd)


class PostingFileReader:
    """Posting reads from payload blobs, through a bounded cache of open
    files (nothing opens until the first lookup): :meth:`read_range` is
    THE posting lookup, one ``os.pread`` of a term's payload bytes at
    its catalog address.

    ``files_opened`` counts blob opens, ``payload_reads`` /
    ``payload_bytes`` the positional reads, so the I/O of a lookup is
    observable without a profiler."""

    def __init__(self, handles: LRUCache | None = None):
        self._handles = LRUCache(OPEN_FILES) if handles is None else handles
        self.files_opened = 0
        self.payload_reads = 0
        self.payload_bytes = 0

    def _open_blob(self, path: str) -> _OpenBlob:
        self.files_opened += 1
        return _OpenBlob(path)

    @staticmethod
    def _read(blob: _OpenBlob, offset: int, length: int) -> bytes:
        return os.pread(blob.fd, length, offset)

    def read_range(self, path: str, offset: int, length: int, term: str) -> bytes:
        """``length`` bytes of a payload blob at ``offset``; a short
        read (truncated blob, address past EOF) raises ValueError."""
        buf = self._read(self._handles.get_or_load(path, self._open_blob), offset, length)
        self.payload_reads += 1
        self.payload_bytes += len(buf)
        if len(buf) != length:
            raise ValueError(
                f"{path}: payload of term {term!r} at [{offset}, {offset + length}) "
                f"runs past the end of the file (read {len(buf)} bytes)"
            )
        return buf


class PostingMemoryReader(PostingFileReader):
    """Posting reads from payload blobs held in memory (name → blob
    bytes): :meth:`read_range` slices a blob where the file reader
    calls ``pread``, with the same counters and short-read error."""

    def __init__(self, blobs: dict[str, bytes]):
        super().__init__()
        self._blobs = blobs

    def _open_blob(self, path: str) -> bytes:
        self.files_opened += 1
        return self._blobs[path]

    @staticmethod
    def _read(blob: bytes, offset: int, length: int) -> bytes:
        return blob[offset : offset + length]


def _stab(mins: list, maxs: list, cummax: list, key) -> list[int]:
    """Indices, ascending, of the ranges ``[mins[j], maxs[j]]`` (sorted
    by min) that contain ``key``.  Ranges may overlap arbitrarily, so
    the walk left from the bisect hit goes on while the prefix max
    ``cummax[j]`` of ``maxs`` still reaches the key: a narrow range
    after a wide one must not end it."""
    import bisect

    out = []
    j = bisect.bisect_right(mins, key) - 1
    while j >= 0 and cummax[j] >= key:
        if maxs[j] >= key:
            out.append(j)
        j -= 1
    out.reverse()
    return out


def _file_ranges(rows: list, base: str) -> tuple[list[int], list[int], list[str]]:
    """``(mins, maxs, paths)`` of ``[relpath, min_doc, max_doc]`` rows
    sorted by min (the manifest's ``forward_ranges`` shape), paths
    under ``base``."""
    return ([int(r[1]) for r in rows], [int(r[2]) for r in rows],
            [os.path.join(base, r[0]) for r in rows])


def _files_by_range(ranges: tuple, ids) -> dict[str, list[int]]:
    """``ids`` grouped by every file whose doc range holds them;
    ``ranges`` is ``(mins, maxs, paths)``, one entry per file, sorted by
    min, and the ranges may overlap (:func:`_stab`)."""
    mins, maxs, paths = ranges
    cummax = list(itertools.accumulate(maxs, max))
    out: dict[str, list[int]] = {}
    for d in ids:
        for j in _stab(mins, maxs, cummax, d):
            out.setdefault(paths[j], []).append(d)
    return out


class LazyRowGroupTable:
    """Row-group-paged access to a sorted parquet table (catalog or
    docs): only [key_min, key_max] per row group is held in memory;
    row groups load on demand into a small LRU.

    This is the multi-billion-term/doc scale path: a searcher actor's
    resident state is O(row_groups) pointers + the LRU budget, not the
    table.  ``groups`` maps each file to its row groups' ``[key_min,
    key_max, n_rows]``, as the manifest's footer stats hold them
    (``SegmentManifest.catalog_stats`` / ``docs_stats``), so building
    the table opens no file.  The key column must be the FIRST column
    and globally sorted across files (both the catalog and the docs
    table are written that way)."""

    def __init__(
        self,
        groups: "dict[str, list]",
        columns: list[str],
        cache_groups: int = 64,
        handles: LRUCache | None = None,
    ):
        self.columns = columns
        # open files, shared with the searcher's posting reader
        self._handles = LRUCache(OPEN_FILES) if handles is None else handles
        self.loads = 0  # row-group reads served (cache misses) — lets
        # tests assert pruning (loads ≪ len(runs)) without instrumenting
        # (key_min, key_max, file, rg)
        self.runs: list[tuple] = [
            (mn, mx, f, rg) for f, rgs in groups.items() for rg, (mn, mx, _rows) in enumerate(rgs)
        ]
        self.runs.sort(key=lambda r: (r[0], r[1]))
        self._mins = [r[0] for r in self.runs]
        self._maxs = [r[1] for r in self.runs]
        # running max of maxs: runs from DIFFERENT segments may overlap
        # arbitrarily (multi-session custom doc ids), see _stab
        self._cummax = list(itertools.accumulate(self._maxs, max))
        self._cache: OrderedDict[tuple, pa.Table] = OrderedDict()
        self._cache_groups = cache_groups

    def __len__(self) -> int:
        return len(self.runs)

    def load(self, i: int) -> pa.Table:
        _mn, _mx, f, rg = self.runs[i]
        key = (f, rg)
        hit = self._cache.get(key)
        if hit is not None:
            self._cache.move_to_end(key)
            return hit
        t = self._handles.get_or_load(f, pq.ParquetFile).read_row_group(rg, columns=self.columns)
        self.loads += 1
        self._cache[key] = t
        if len(self._cache) > self._cache_groups:
            self._cache.popitem(last=False)
        return t

    def covering(self, key) -> list[int]:
        """Row-group indices whose [min, max] contains ``key`` —
        correct for OVERLAPPING runs (:func:`_stab`)."""
        return _stab(self._mins, self._maxs, self._cummax, key)

    def range_indices(self, lo, hi=None) -> list[int]:
        """Row groups intersecting [lo, hi) (hi=None → to the end)."""
        import bisect

        # first candidate: prefix max is non-decreasing, so binary
        # search replaces the old O(runs) front scan
        start = bisect.bisect_left(self._cummax, lo)
        out = []
        for j in range(start, len(self.runs)):
            if hi is not None and self._mins[j] >= hi:
                break
            if self._maxs[j] >= lo:
                out.append(j)
        return out


class IndexSearcher:
    """Warm query state over a persistent index directory, or over an
    index held in memory (:meth:`from_tables`).

    Below ``catalog_budget_rows`` / ``doclen_budget_rows`` the term
    catalog and doc-length table load eagerly into numpy (fastest, the
    default at bench scale); past either budget the searcher switches
    to row-group-paged access (:class:`LazyRowGroupTable`) so an actor
    opens a multi-billion-term index within a fixed memory budget.

    It serves an index of ``FORMAT_VERSION`` only (an index of another
    number raises ValueError naming ``compact_index``, which rewrites
    it), so it assumes that format: postings are read only through the
    payload-blob address of each catalog row, the catalog and docs
    files and their row groups come from the segment manifests (a
    listed segment without a readable manifest raises ValueError), and
    every forward-store file has field ids."""

    def __init__(
        self,
        index_dir: str,
        cache_blocks: int = 4096,
        catalog_budget_rows: int = 2_000_000,
        doclen_budget_rows: int = 50_000_000,
        cache_policy: str = "lru",
        term_dict: str = "parquet",
        cache_postings: int = 64,
    ):
        self.index_dir = index_dir
        self.meta = load_meta(index_dir)
        self.segments = list(self.meta.segments)

        manifests: dict = {}
        for seg in self.segments:
            try:
                manifests[seg] = load_manifest(index_dir, seg)
            except (OSError, TypeError, ValueError) as e:
                raise ValueError(
                    f"index {index_dir}: segment {seg} has no readable manifest ({e})"
                ) from None
        # smallest posting-block budget any segment was written with:
        # gates the tight MaxScore tf bound in _term_upper_bound (a
        # mid-entry block split is impossible while max_tf ≤ block_cf/2)
        self._min_block_cf = min((m.block_cf for m in manifests.values()), default=0)

        # the files and row groups of each segment's catalog and docs
        # table come from the already-read manifest JSON: no directory
        # listing and no footer fetch
        seg_cat_groups: dict[str, dict] = {}
        docs_groups: dict = {}
        cat_rows = doc_rows = 0
        for seg, man in manifests.items():
            segp = segment_dir(index_dir, seg)
            seg_cat_groups[seg] = {
                os.path.join(segp, rel): man.catalog_stats[rel]["row_groups"]
                for rel in sorted(man.catalog_stats)
            }
            docs_groups.update(
                (os.path.join(segp, rel), man.docs_stats[rel]["row_groups"])
                for rel in sorted(man.docs_stats)
            )
            cat_rows += sum(info["num_rows"] for info in man.catalog_stats.values())
            doc_rows += sum(info["num_rows"] for info in man.docs_stats.values())

        # one bounded set of open parquet files for the paged tables and
        # the posting reader; nothing is opened here
        handles = LRUCache(OPEN_FILES)
        cats = doc_lens = self._lazy_cats = self._lazy_lens = None
        if cat_rows <= catalog_budget_rows:
            cats = {}
            for seg, groups in seg_cat_groups.items():
                t = pq.read_table(list(groups), columns=CATALOG_COLS + ADDRESS_COLS)
                cats[seg] = t.sort_by("term") if len(groups) > 1 else t
        else:
            # one paged catalog PER SEGMENT (each is term-sorted; totals
            # sum across segments at lookup time)
            self._lazy_cats = [
                LazyRowGroupTable(seg_cat_groups[seg], CATALOG_COLS + ADDRESS_COLS, handles=handles)
                for seg in self.segments
            ]
        if doc_rows <= doclen_budget_rows:
            doc_lens = [pq.read_table(f, columns=["doc_id", "doc_len"]) for f in docs_groups]
        else:
            self._lazy_lens = LazyRowGroupTable(docs_groups, ["doc_id", "doc_len"], handles=handles)
        self._open(
            PostingFileReader(handles), cats, doc_lens,
            {seg: segment_dir(index_dir, seg) for seg in self.segments},
            cache_policy, cache_blocks, cache_postings,
        )
        for seg, man in manifests.items():
            if man.forward_ranges:
                self._fwd_ranges[seg] = _file_ranges(man.forward_ranges, segment_dir(index_dir, seg))

        # opt-in FST term dictionary (reference PersistentDictionaryFst;
        # parquet catalog stays the default — SURVEY §1.5): pattern
        # expansion runs as dictionary ∩ automaton over the byte image.
        if term_dict == "fst":
            from ..state.fst_store import (
                build_fst_from_terms,
                iter_index_terms,
                load_fst_sidecar,
            )

            fst = load_fst_sidecar(index_dir, self.segments)
            if fst is None:
                # no (fresh) sidecar: stream the sorted catalogs into an
                # in-memory image — works in lazy mode too (the build
                # never holds the vocabulary, only the FST register)
                fst = build_fst_from_terms(iter_index_terms(index_dir, self.segments))
            self._fst = fst
        elif term_dict != "parquet":
            raise ValueError(f"term_dict must be 'parquet' or 'fst': {term_dict!r}")

        # lazy-mode pattern acceleration: with the paged catalog, an
        # EDIT (or leading-wildcard WILD) expansion would page EVERY
        # catalog row group — O(vocabulary) I/O per query at a
        # multi-billion-term index.  If a FRESH FST sidecar exists
        # (built over exactly the current segments), auto-use it for
        # WILD/EDIT expansion: the dictionary∩automaton walk prunes by
        # construction (reference FST/TST walks do the same —
        # ``Automata/FST.cs:1004-1063``, behavior observed, no code
        # copied).  The parquet catalogs remain the source for stats
        # and posting lookups; a stale/absent sidecar falls back to the
        # paged scan, so this is purely an accelerator.  Loaded LAZILY
        # on the first WILD/EDIT expansion: a wide actor pool serving
        # pure WORD/BM25 traffic never reads the O(vocabulary) image,
        # keeping lazy mode's fixed cold-start memory promise.
        self._auto_fst_pending = self._fst is None and self._lazy_cats is not None

    @classmethod
    def from_tables(
        cls, meta, catalogs: list[pa.Table], docs: list[pa.Table], blobs: dict[str, bytes],
        block_cf: int,
    ) -> "IndexSearcher":
        """A searcher over one segment, ``"mem"``, held in memory
        (``build_in_memory``): its catalog tables, whose rows address
        the ``blobs`` by name (``file``) and hold disjoint terms, and
        its ``docs`` tables.  ``block_cf`` is the posting-block budget
        it was written with."""
        self = cls.__new__(cls)
        self.index_dir, self.meta, self.segments = None, meta, ["mem"]
        self._min_block_cf = block_cf
        self._lazy_cats = self._lazy_lens = None
        cols = CATALOG_COLS + ADDRESS_COLS
        cat = pa.concat_tables([t.select(cols) for t in catalogs]).sort_by("term")
        self._open(PostingMemoryReader(blobs), {"mem": cat}, docs, {"mem": ""})
        return self

    def _open(
        self, reader, cats, doc_lens, seg_paths, cache_policy="lru", cache_blocks=4096,
        cache_postings=64,
    ) -> None:
        """The query state over loaded tables, shared by both
        constructors.  ``cats`` maps each segment to its term-sorted
        catalog rows, whose addresses name the blobs ``reader`` serves
        as ``file`` joined to ``seg_paths[seg]`` (None: the paged
        catalogs); ``doc_lens`` is (doc_id, doc_len) tables (None: the
        paged docs table).  The forward store and the FST dictionary
        start absent."""
        self.posting_reader = reader
        self._addrs: dict = {}
        self.terms = self._terms_np = None
        if cats is not None:
            # merged catalog across segments: term → (df, cf) totals;
            # terms kept as ONE sorted arrow column for matcher kernels.
            if cats:
                agg = (
                    pa.concat_tables([t.select(CATALOG_COLS) for t in cats.values()])
                    .group_by("term")
                    .aggregate([("df", "sum"), ("cf", "sum"), ("max_tf", "max"), ("df_docs", "sum")])
                    .sort_by("term")
                )
                self.terms = agg["term"].combine_chunks()
                self._df, self._cf, self._max_tf, self._df_docs = (
                    np.asarray(agg[c].to_numpy(zero_copy_only=False))
                    for c in ("df_sum", "cf_sum", "max_tf_max", "df_docs_sum")
                )
            else:  # no segment
                self.terms = pa.array([], type=pa.string())
                self._df = self._cf = self._max_tf = self._df_docs = np.empty(0, dtype=np.int64)
            # numpy view of the sorted term column: O(log vocab) binary
            # search instead of O(vocab) pc.index scans per query term
            self._terms_np = np.asarray(self.terms.to_pylist(), dtype=object)
            # per-segment payload addresses, one sorted array each (the
            # merged catalog above holds cross-segment totals only); a
            # single segment's terms ARE the merged column
            for seg, a in cats.items():
                terms = (
                    self._terms_np if len(cats) == 1
                    else np.asarray(a["term"].to_pylist(), dtype=object)
                )
                files = a["file"].combine_chunks().dictionary_encode()
                self._addrs[seg] = (
                    terms,
                    np.asarray(files.indices.to_numpy(zero_copy_only=False)),
                    *(np.asarray(a[c].to_numpy(), dtype=np.int64) for c in ADDRESS_COLS[1:]),
                    [os.path.join(seg_paths[seg], rel) for rel in files.dictionary.to_pylist()],
                )
        # doc lengths for BM25 (doc_id-indexed lookup arrays)
        self._dl_docs = self._dl_lens = None
        if doc_lens is not None:
            ids, lens = (
                np.concatenate([np.empty(0, dt)] + [np.asarray(t[c], dtype=dt) for t in doc_lens])
                for c, dt in (("doc_id", np.uint64), ("doc_len", np.float64))
            )
            o = np.argsort(ids, kind="stable")
            self._dl_docs, self._dl_lens = ids[o], lens[o]
        self._fwd_ranges: dict[str, tuple[list[int], list[int], list[str]]] = {}
        # (segment, docs_meta | docs) → the same, scanned on first use
        self._meta_ranges: dict[tuple[str, str], tuple[list[int], list[int], list[str]]] = {}
        # posting caches (state/caches.py): full positions for the
        # phrase/boolean paths, sized apart from the BM25 (docs, tfs) one
        self._cache = make_cache(cache_policy, cache_postings)
        self._cache_entries = make_cache(cache_policy, cache_blocks)
        self._fst = self._auto_fst = None
        self._auto_fst_pending = False

    # -- statistics ---------------------------------------------------------

    @property
    def num_docs(self) -> int:
        return self.meta.num_docs

    @property
    def avgdl(self) -> float:
        return self.meta.avgdl

    def _term_index(self, term: str) -> int:
        """Binary search on the sorted merged term column; -1 if absent.
        Eager mode only (lazy mode uses :meth:`_term_row`)."""
        i = int(np.searchsorted(self._terms_np, term))
        if i < len(self._terms_np) and self._terms_np[i] == term:
            return i
        return -1

    def _term_row(self, term: str) -> "tuple[int, int, int, int] | None":
        """(df_docs, cf, max_tf, df) for a term summed across segments,
        or None if absent — served from the eager arrays or the paged
        catalog row groups."""
        if self._lazy_cats is None:
            i = self._term_index(term)
            if i < 0:
                return None
            return int(self._df_docs[i]), int(self._cf[i]), int(self._max_tf[i]), int(self._df[i])
        dfd = cf = mtf = df = 0
        found = False
        for cat in self._lazy_cats:
            for t, j in self._lazy_find(cat, term):
                found = True
                df += int(t["df"][j].as_py())
                cf += int(t["cf"][j].as_py())
                mtf = max(mtf, int(t["max_tf"][j].as_py()))
                dfd += int(t["df_docs"][j].as_py())
        return (dfd, cf, mtf, df) if found else None

    @staticmethod
    def _lazy_find(cat: "LazyRowGroupTable", term: str):
        """(row group table, row) of every paged-catalog row of ``term``."""
        for gi in cat.covering(term):
            t = cat.load(gi)
            # binary search on the sorted Arrow column directly (no
            # per-lookup list copy; the row-group LRU keeps t warm)
            col = t["term"]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            lo, hi = 0, len(col)
            while lo < hi:
                mid = (lo + hi) // 2
                if col[mid].as_py() < term:
                    lo = mid + 1
                else:
                    hi = mid
            if lo < len(col) and col[lo].as_py() == term:
                yield t, lo

    def _term_address(self, i: int, term: str) -> "tuple[str, int, int, int] | None":
        """(blob path, offset, bm25_len, len) of ``term`` in segment
        ``self.segments[i]``, or None if the segment lacks it —
        the eager per-segment address arrays, or the paged catalog row
        group that :meth:`_term_row` loads."""
        seg = self.segments[i]
        if self._lazy_cats is None:
            terms, files, offs, bm25, lens, paths = self._addrs[seg]
            j = int(np.searchsorted(terms, term))
            if j == len(terms) or terms[j] != term:
                return None
            return paths[files[j]], int(offs[j]), int(bm25[j]), int(lens[j])
        for t, j in self._lazy_find(self._lazy_cats[i], term):
            return (
                os.path.join(segment_dir(self.index_dir, seg), t["file"][j].as_py()),
                *(int(t[c][j].as_py()) for c in ADDRESS_COLS[1:]),
            )
        return None

    def term_stats(self, term: str) -> tuple[int, int]:
        """(df, cf) for a term, summed across segments; (0, 0) if absent.
        df is the unique-document frequency (catalog ``df_docs``)."""
        row = self._term_row(term)
        if row is None:
            return (0, 0)
        return row[0], row[1]

    def term_stats_dataset(self) -> "ray.data.Dataset":
        """Streaming (term, df, cf) over the whole vocabulary — the
        scale-mode twin of iterating ``self.terms`` (which only exists
        in eager mode): the catalog parquet is read as a Ray dataset,
        so a multi-billion-term index enumerates its terms without ever
        materializing the vocabulary in one process.  Cross-segment
        totals come from one ``partition_apply`` keyed on the term's
        md5, one Arrow ``group_by`` per partition (skipped for
        single-segment indexes — a segment catalog is already one row
        per term).  The reference analog is ``Visit``-based printing
        (``FullTextIndexExtensions.cs:7-17``), which also streams."""
        import ray.data

        from ..functions.common import default_partitions, md5_u64_batch, partition_apply

        schema = pa.schema([("term", pa.string()), ("df", pa.int64()), ("cf", pa.int64())])

        def norm(b: pa.Table) -> pa.Table:
            return pa.table(
                {"term": b["term"], "df": b["df_docs"].cast(pa.int64()), "cf": b["cf"].cast(pa.int64())}
            )

        def totals(t: pa.Table) -> pa.Table:
            agg = t.group_by("term").aggregate([("df", "sum"), ("cf", "sum")])
            return pa.table({"term": agg["term"], "df": agg["df_sum"], "cf": agg["cf_sum"]})

        parts = []
        for seg in self.segments:
            d = os.path.join(segment_dir(self.index_dir, seg), "catalog")
            parts.append(
                ray.data.read_parquet(
                    pq.ParquetDataset(d).files, columns=["term", "cf", "df_docs"]
                ).map_batches(norm, batch_format="pyarrow")
            )
        if not parts:
            return ray.data.from_arrow(schema.empty_table())
        if len(parts) == 1:
            return parts[0]
        return partition_apply(
            [(parts[0].union(*parts[1:]), lambda t: md5_u64_batch(t["term"]), schema)],
            default_partitions(), totals, schema,
        )

    def top_terms(self, k: int = 20, *, stats: "dict | None" = None) -> pa.Table:
        """Top-k terms by collection frequency (tie: term asc) via a
        TREE REDUCE over the catalog dataset: a streaming per-block
        top-k combiner shrinks every partial block to ≤ k rows, blocks
        merge through a fan-in task tree, and the driver gathers
        O(fanin · k) rows — never the vocabulary and never the
        all-to-all shuffle a full distributed sort would pay for k=20
        over 10^9 terms.  Associativity holds because
        ``term_stats_dataset`` emits each term exactly once (segment
        totals are pre-merged by its group stage).  ``stats['driver_rows']``
        records the gathered row count for the scale test."""
        from ..functions.similarity import _tree_reduce_tables

        def topk_combine(batch: pa.Table) -> pa.Table:
            return batch.sort_by(
                [("cf", "descending"), ("term", "ascending")]
            ).slice(0, k)

        out = _tree_reduce_tables(
            self.term_stats_dataset(), topk_combine, stats=stats
        )
        if out is None:
            out = pa.table({"term": pa.array([], pa.string()),
                            "df": pa.array([], pa.int64()), "cf": pa.array([], pa.int64())})
        return out.select(["term", "df", "cf"])

    # -- dictionary ---------------------------------------------------------

    def _expand(self, ast: "TermQueryAst") -> list[str]:
        """Pattern expansion over the dictionary — the eager sorted
        column, or (lazy mode) only the catalog row groups the pattern
        can touch: WORD → covering group, WILD → prefix range of
        groups, EDIT → pruned FST walk when a fresh sidecar exists
        (``_auto_fst``), else a paged full scan (inherent to edit
        distance over a flat sorted dictionary)."""
        if self._fst is not None:
            # dictionary ∩ automaton over the FST byte image (reference
            # PersistentDictionaryFst.GetTerms); same sorted term order
            # as the column kernels.
            from ..dfa import matcher_for

            if isinstance(ast, WordQuery):
                return [ast.value] if ast.value in self._fst else []
            return list(self._fst.match(matcher_for(ast)))
        if self._lazy_cats is None:
            return expand_pattern(ast, self.terms, self._terms_np)
        from ..matchers import prefix_upper_bound, wildcard_prefix

        if isinstance(ast, WordQuery):
            return [ast.value] if self._term_row(ast.value) is not None else []
        if self._auto_fst_pending:
            # one-shot: check for a fresh sidecar only when a pattern
            # query actually arrives (absence is also cached)
            from ..state.fst_store import load_fst_sidecar as _load_sidecar

            self._auto_fst = _load_sidecar(self.index_dir, self.segments)
            self._auto_fst_pending = False
            if self._auto_fst is None:
                # once per searcher (the pending flag never re-arms):
                # e.g. the library compact_index leaves the sidecar
                # stale, and every EDIT then pages the whole catalog
                logger.warning(
                    "index %s: no fresh FST sidecar for the current segments; "
                    "lazy WILD/EDIT expansion falls back to paged catalog scans "
                    "(rebuild it with build_fst_sidecar or `fst-build`)",
                    self.index_dir,
                )
        if self._auto_fst is not None:
            # fresh sidecar present: pruned dictionary∩automaton walk
            # instead of paging catalog row groups (the EDIT path below
            # otherwise scans the whole vocabulary)
            from ..dfa import matcher_for

            return list(self._auto_fst.match(matcher_for(ast)))
        out: set[str] = set()
        if isinstance(ast, WildQuery):
            prefix = wildcard_prefix(ast.value)
            hi_key = prefix_upper_bound(prefix) if prefix else None
            for cat in self._lazy_cats:
                idxs = cat.range_indices(prefix, hi_key) if prefix else range(len(cat))
                for gi in idxs:
                    t = cat.load(gi)
                    out.update(expand_pattern(ast, t["term"].combine_chunks()))
        else:  # EDIT: length-banded scan, one row group at a time
            for cat in self._lazy_cats:
                for gi in range(len(cat)):
                    t = cat.load(gi)
                    out.update(expand_pattern(ast, t["term"].combine_chunks()))
        return sorted(out)

    def lookup(self, pattern: str) -> list[str]:
        """Pattern → matching terms in sorted order (the `lookup` verb,
        ``ConsoleUtil/Program.cs:208-226``)."""
        ast = parse_query(pattern)
        if not isinstance(ast, TermQueryAst):
            raise ValueError("lookup expects WORD/WILD/EDIT pattern")
        return self._expand(ast)

    # -- posting fetch ------------------------------------------------------

    def _term_postings(self, term: str, with_positions: bool) -> list[TermPostings]:
        """A term's decoded postings, one :class:`TermPostings` per
        segment holding it, in segment order: the term's payload record
        read at its catalog address — header + docs + tfs, or with
        positions the whole record — in one ``pread``, and decoded in
        one varint pass (:func:`decode_record`)."""
        out = []
        for i in range(len(self.segments)):
            addr = self._term_address(i, term)
            if addr is None:
                continue
            path, off, bm25_len, length = addr
            buf = self.posting_reader.read_range(path, off, length if with_positions else bm25_len, term)
            out.append(decode_record(buf, with_positions, path, term))
        return out

    def get_postings(self, term: str) -> OccurrenceList:
        """Full decoded occurrence list of a term, global (d,f,t) order."""
        hit = self._cache.get(term)
        if hit is not None:
            return hit
        parts = [p.occurrences for p in self._term_postings(term, True)]
        if not parts:
            occ = empty_occurrences()
        else:
            occ = lex_sort(OccurrenceList(*(np.concatenate([p[i] for p in parts]) for i in range(3))))
        self._cache.put(term, occ)
        return occ

    def get_doc_tfs(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids, tfs) per doc for BM25 — reads and decodes the
        header, docs and tfs only, never the fields or position payloads
        (the scoring fast path): one ``pread`` and one varint pass per
        segment."""
        hit = self._cache_entries.get(term)
        if hit is not None:
            return hit
        parts = self._term_postings(term, False)
        if not parts:
            out = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64))
        else:
            # multi-field/block duplicates: aggregate tf per doc
            out = _sum_by_doc(
                np.concatenate([p.docs for p in parts]), np.concatenate([p.tfs for p in parts])
            )
        self._cache_entries.put(term, out)
        return out

    # -- forward store (positions) ------------------------------------------

    @property
    def has_forward(self) -> bool:
        return bool(self._fwd_ranges)

    def get_positions_field_many(
        self, doc_ids
    ) -> dict[tuple[int, int], tuple[list[int], list[int]]]:
        """(doc_id, field_id) → (token char offsets, lengths) from the
        forward store — the reference's per-(doc, field) PosIndex
        surface (65-bit ``P`` keys, ``PersistentIndex.cs:145-151``).
        Point lookups: ids are grouped by covering file (a stab of the
        per-file doc ranges, :func:`_stab`) and each file is read ONCE
        with a doc_id filter — non-matching documents are never read,
        and nothing is tokenized.  Every file whose range holds a doc is
        read: a build's files may overlap (dataset-path batches arrive
        in any doc order), and a Ray compaction may split one doc's
        field rows across two adjacent files."""
        if not self._fwd_ranges:
            raise ValueError("index was built without store_forward=True")
        wanted = sorted({int(d) for d in doc_ids})
        by_file: dict[str, list[int]] = {}
        for ranges in self._fwd_ranges.values():
            by_file.update(_files_by_range(ranges, wanted))
        out: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        for path, ids in by_file.items():
            t = pq.read_table(path, filters=[("doc_id", "in", ids)])
            fids = t["field_id"].to_pylist()
            dids = t["doc_id"].to_pylist()
            offs = t["offsets"].to_pylist()
            lens = t["lengths"].to_pylist()
            for row in range(t.num_rows):
                out[(int(dids[row]), int(fids[row]))] = (offs[row], lens[row])
        return out

    def get_positions_many(self, doc_ids) -> dict[int, tuple[list[int], list[int]]]:
        """doc_id → (offsets, lengths) of the DEFAULT field (1) — the
        single-field convenience over :meth:`get_positions_field_many`."""
        per = self.get_positions_field_many(doc_ids)
        return {d: v for (d, f), v in per.items() if f == 1}

    def get_positions(self, doc_id: int) -> tuple[list[int], list[int]]:
        got = self.get_positions_many([doc_id])
        if int(doc_id) not in got:
            raise KeyError(f"doc {doc_id} not in forward store")
        return got[int(doc_id)]

    # -- per-doc metadata (reference IMetadataStorage / metadata verb) ------

    def get_metadata_many(self, doc_ids) -> dict[int, dict]:
        """doc_id → metadata dict (every stored doc column beyond the
        core doc_len/sha256) — the reference's fetch-metadata-by-doc-id
        surface (``IMetadataStorage.cs:3-8``, ``Program.cs:332-341``).
        Point lookups with a doc_id filter, in the files whose footer
        doc range holds an id (read once per searcher); prefers the
        richer ``docs_meta`` table (written when the index was built
        with ``meta_cols``), falling back to extra columns in ``docs``."""
        from .build import _scan_doc_ranges

        wanted = sorted({int(d) for d in doc_ids})
        out: dict[int, dict] = {}
        core = {"doc_id", "doc_len", "sha256"}
        for seg in self.segments:
            base = segment_dir(self.index_dir, seg)
            # consult BOTH tables: docs_meta first (richer), then docs
            # for ids it does not cover — a compacted segment can hold
            # docs_meta rows for only a subset of its documents (built
            # from a mix of meta and meta-less sessions)
            for sub in ("docs_meta", "docs"):
                remaining = [w for w in wanted if w not in out]
                if not remaining:
                    break
                if (seg, sub) not in self._meta_ranges:
                    self._meta_ranges[seg, sub] = _file_ranges(
                        _scan_doc_ranges(os.path.join(base, sub), base), base
                    )
                # read per FILE, not per directory: a compacted segment
                # mixes files of DIFFERENT schemas in one docs_meta dir
                # (meta and meta-less source sessions), and a directory
                # read infers the schema from the first fragment only —
                # columns present only in later files were silently
                # dropped.  Rows are doc-keyed and disjoint across
                # files, so per-file dicts merge losslessly.
                for f, ids in _files_by_range(self._meta_ranges[seg, sub], remaining).items():
                    t = pq.read_table(f, filters=[("doc_id", "in", ids)])
                    meta_cols = [c for c in t.column_names if c not in core]
                    for j, did in enumerate(t["doc_id"].to_pylist()):
                        out[int(did)] = {c: t[c][j].as_py() for c in meta_cols}
        return out

    def get_metadata(self, doc_id: int) -> dict:
        got = self.get_metadata_many([doc_id])
        if int(doc_id) not in got:
            raise KeyError(f"doc {doc_id} not in index")
        return got[int(doc_id)]

    # -- query algebra ------------------------------------------------------

    def evaluate(self, query: str | AstQuery) -> Matches:
        ast = parse_query(query) if isinstance(query, str) else query
        return self._eval(ast)

    def _eval(self, ast: AstQuery) -> Matches:
        if isinstance(ast, TermQueryAst):
            terms = self._expand(ast)
            occ = or_merge([self.get_postings(t) for t in terms])
            return Matches(occ.docs, occ.fields, occ.tokens, 1)
        if isinstance(ast, FunctionQuery):
            if ast.name == "OR":
                subs = [self._eval(a) for a in ast.args]
                if all(isinstance(m, Matches) and m.width == 1 for m in subs):
                    occ = or_merge([OccurrenceList(m.docs, m.fields, m.tokens) for m in subs])
                    return Matches(occ.docs, occ.fields, occ.tokens, 1)
                # mixed widths (OR over SEQ children): MatchComparer order
                from ..occurrences import or_merge_mixed

                return or_merge_mixed(subs)
            if ast.name == "SEQ":
                if not all(isinstance(a, WordQuery) for a in ast.args):
                    raise ValueError("Unexpected query take in phrase")  # reference behavior
                lists = []
                for a in ast.args:
                    m = self._eval(a)
                    lists.append(OccurrenceList(m.docs, m.fields, m.tokens))
                return phrase_chains(lists)
            if ast.name == "AND":
                subs = [self._eval(a) for a in ast.args]
                docs = and_docs([OccurrenceList(m.docs, m.fields, m.tokens) for m in subs])
                kept = []
                for m in subs:
                    mask = np.isin(m.docs, docs)
                    if isinstance(m, MixedMatches):
                        kept.append(MixedMatches(m.docs[mask], m.fields[mask], m.tokens[mask], m.widths[mask]))
                    else:
                        kept.append(Matches(m.docs[mask], m.fields[mask], m.tokens[mask], m.width))
                from ..occurrences import or_merge_mixed

                if all(isinstance(m, Matches) and m.width == 1 for m in kept):
                    occ = or_merge([OccurrenceList(m.docs, m.fields, m.tokens) for m in kept])
                    return Matches(occ.docs, occ.fields, occ.tokens, 1)
                return or_merge_mixed(kept)
            raise ValueError(f"Function {ast.name} is not supported")
        raise TypeError(f"unsupported ast {ast!r}")

    def search_to_string(self, query: str) -> str:
        """Conformance output — reference ``ExecuteToString`` format."""
        return format_matches(self.evaluate(query))

    def search_table(self, query: str) -> pa.Table:
        m = self.evaluate(query)
        return pa.table(
            {
                "doc_id": pa.array(m.docs, type=pa.uint64()),
                "field_id": pa.array(m.fields, type=pa.uint64()),
                "token_id": pa.array(m.tokens, type=pa.uint64()),
            }
        )

    def search_docs(self, query: str) -> pa.Table:
        """The reference's search-driver output shape (Q8,
        ``ConsoleUtil/Program.cs:240-295``): matches grouped by doc —
        (doc_id, n_matches, token_ids:list) in doc order.  Join this
        with the source table + ``functions.highlight`` for annotated
        display."""
        m = self.evaluate(query)
        if len(m.docs) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.uint64()),
                    "n_matches": pa.array([], pa.int64()),
                    "token_ids": pa.array([], pa.list_(pa.int64())),
                }
            )
        # matches stream in (doc, field, token) order already
        widths = (
            m.widths.astype(np.int64)
            if isinstance(m, MixedMatches)
            else np.full(len(m.docs), m.width, dtype=np.int64)
        )
        return _group_doc_tokens(m.docs, m.tokens, widths)

    def search_field_tokens(self, query: str, field: int = 1) -> pa.Table:
        """Like :meth:`search_docs` but restricted to matches in ONE
        field.  Token ids are per-(doc, FIELD) word positions, so the
        merged-field search_docs shape would annotate another field's
        ordinals onto this field's text — this is the hit contract the
        highlight stage needs (annotating one source column = one
        field)."""
        m = self.evaluate(query)
        if len(m.docs) == 0:
            return _group_doc_tokens(
                np.empty(0, np.uint64), np.empty(0, np.uint64), np.empty(0, np.int64)
            )
        widths = (
            m.widths.astype(np.int64)
            if isinstance(m, MixedMatches)
            else np.full(len(m.docs), m.width, dtype=np.int64)
        )
        keep = m.fields == np.uint64(field)
        return _group_doc_tokens(m.docs[keep], m.tokens[keep], widths[keep])

    # -- BM25 ---------------------------------------------------------------

    def _doc_lens(self, doc_ids: np.ndarray) -> np.ndarray:
        """Per-doc lengths for (sorted) doc ids — eager arrays or paged
        docs-table row groups (each covering group loads once, LRU).

        Every looked-up id is VERIFIED against the docs table: a doc
        present in postings but absent from docs is an inconsistent
        index, and silently scoring it with a neighbor's length (the
        old unchecked searchsorted) corrupts BM25 without an error."""
        if self._lazy_lens is None:
            if not len(self._dl_docs):
                if len(doc_ids):
                    raise ValueError("docs table is empty but postings have docs")
                return np.empty(0, dtype=np.float64)
            idx = np.searchsorted(self._dl_docs, doc_ids)
            idx = np.minimum(idx, len(self._dl_docs) - 1)
            bad = self._dl_docs[idx] != doc_ids
            if bad.any():
                raise ValueError(
                    f"doc ids missing from docs table: {doc_ids[bad][:5].tolist()}"
                )
            return self._dl_lens[idx]
        import bisect as _bisect

        out = np.zeros(len(doc_ids), dtype=np.float64)
        lens = self._lazy_lens
        lo = 0
        while lo < len(doc_ids):
            d0 = int(doc_ids[lo])
            groups = lens.covering(d0)
            if not groups:
                raise ValueError(f"doc id missing from docs table: {d0}")
            # the covering set of d0 is a SUPERSET of every doc's true
            # groups up to the next distinct run min (no run can start
            # inside the slice), so the slice resolves entirely from
            # these groups — ids that don't match any are truly absent
            k = _bisect.bisect_right(lens._mins, d0)
            hi = (
                int(np.searchsorted(doc_ids, lens._mins[k], side="left"))
                if k < len(lens._mins)
                else len(doc_ids)
            )
            hi = max(hi, lo + 1)
            sl = doc_ids[lo:hi]
            res = np.zeros(hi - lo, dtype=np.float64)
            done = np.zeros(hi - lo, dtype=bool)
            for gi in reversed(groups):
                t = lens.load(gi)
                g_docs = np.asarray(t["doc_id"].to_numpy(zero_copy_only=False), dtype=np.uint64)
                g_lens = np.asarray(t["doc_len"].to_numpy(zero_copy_only=False), dtype=np.float64)
                if not len(g_docs):
                    continue
                idx = np.minimum(np.searchsorted(g_docs, sl), len(g_docs) - 1)
                ok = (~done) & (g_docs[idx] == sl)
                res[ok] = g_lens[idx[ok]]
                done |= ok
                if done.all():
                    break
            if not done.all():
                raise ValueError(
                    f"doc ids missing from docs table: {sl[~done][:5].tolist()}"
                )
            out[lo:hi] = res
            lo = hi
        return out

    def bm25_scores(self, terms: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids, scores) for OR-mode BM25 over the given terms.

        Contributions accumulate per doc in sorted doc order with
        float64 math — the fixed summation order that makes scores
        reproducible at any partition count (SURVEY.md §7.2).
        """
        N = float(self.num_docs)
        avgdl = self.avgdl or 1.0
        all_docs: list[np.ndarray] = []
        all_contrib: list[np.ndarray] = []
        for term in terms:
            docs, tfs = self.get_doc_tfs(term)
            if len(docs) == 0:
                continue
            # unique-doc df from the catalog: the ONE df definition both
            # the exhaustive and MaxScore-pruned paths share (a catalog
            # entry-df would double-count multi-field docs).
            df = float(self.term_stats(term)[0]) or float(len(docs))
            contrib = _bm25_contrib(
                _bm25_idf(N, df), tfs.astype(np.float64), self._doc_lens(docs), avgdl
            )
            all_docs.append(docs)
            all_contrib.append(contrib)
        if not all_docs:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64)
        return _sum_by_doc(np.concatenate(all_docs), np.concatenate(all_contrib))

    def _term_upper_bound(self, term: str) -> float:
        """MaxScore upper bound of one term's per-doc contribution:
        idf × bound(max_tf) with the dl→0 denominator bound — uses only
        catalog metadata (df_docs, max_tf), no posting decode.

        The catalog's max_tf is per-(doc, FIELD) entry while scoring
        sums a doc's tf across fields, so the tf bound is
        max_tf × num_fields (a doc has at most num_fields entries per
        term; the contribution is monotone in tf, so this stays a
        valid upper bound — without the factor a tf split across two
        fields exceeds the "bound" and the prune can drop a true
        top-k doc)."""
        row = self._term_row(term)
        if row is None:
            return 0.0
        df, mtf = float(row[0]), float(row[2])
        N = float(self.num_docs)
        idf = float(_bm25_idf(N, df))
        # max_tf is per catalog ENTRY; a doc's scored tf sums its
        # entries, so max_tf×num_fields bounds it ONLY while no entry
        # was mid-entry-split across posting blocks (stages/invert.py
        # fallback when one entry exceeds block_cf).  A split leaves a
        # piece with tf > block_cf/2, so max_tf ≤ block_cf/2 proves
        # the term split-free; above it use the tf→∞ supremum (K1+1),
        # which is valid for ANY tf and within f(block_cf/2)/(K1+1) ≈
        # 1e-5 of the tight bound exactly where it replaces it.
        if 2.0 * mtf > self._min_block_cf:
            return idf * (K1 + 1.0)
        return float(_bm25_contrib(idf, mtf * float(self.meta.num_fields), 0.0, 1.0))

    def _term_floor(self, term: str) -> float:
        """Most NEGATIVE per-doc contribution a term can make: 0 for
        idf ≥ 0, else idf·(K1+1) (the tf→∞/dl→0 extreme).  Negative
        idf arises when a term's df_docs exceeds N — a doc split
        mid-entry across posting blocks counts in each block's
        n_docs, so a one-doc index of ``"hot " * 20`` at block_cf=8
        gives hot df_docs 3 with N = 1; it breaks
        MaxScore's scores-only-grow premise — an accumulated doc's
        FINAL score can sit below its score at prune time, so the
        prune must budget for the drop (see bm25_topk_pruned)."""
        row = self._term_row(term)
        if row is None:
            return 0.0
        idf = float(_bm25_idf(float(self.num_docs), float(row[0])))
        return min(0.0, idf * (K1 + 1.0))

    def bm25_topk_pruned(self, terms: list[str], k: int = 10) -> pa.Table:
        """MAXSCORE-style pruned top-k (term-at-a-time).

        Terms are processed in DECREASING upper-bound order; once the
        sum of remaining terms' upper bounds cannot displace the
        current k-th score, remaining terms can only refine docs
        already seen — their entries are kept only from blocks whose
        [first_doc, last_doc] range intersects the candidate set
        (block-max skipping via the per-block metadata, the analog
        of the reference's ``LowerBound`` block bisection,
        ``PostingListVarIntDeltaReader.cs:163-222``).

        Exact: produces the same top-k as :meth:`bm25_topk`.
        """
        ubs = [(self._term_upper_bound(t), t) for t in terms]
        ubs.sort(key=lambda x: (-x[0], x[1]))
        N = float(self.num_docs)
        avgdl = self.avgdl or 1.0
        acc_docs = np.empty(0, dtype=np.uint64)
        acc_scores = np.empty(0, dtype=np.float64)
        # Negative-idf terms (an over-counted df_docs exceeding N) break two
        # MaxScore premises at once.  (1) An unseen doc need not
        # CONTAIN a remaining term, so a NEGATIVE upper bound must
        # count 0 — not its negative value — in the unseen-doc budget.
        # (2) Scores no longer only grow: an accumulated doc's FINAL
        # score can fall below its score at prune time by as much as
        # the remaining terms' negative floors, so the prune compares
        # against kth + rem_floor (a lower bound of the final kth),
        # not kth itself.
        remaining = sum(max(u, 0.0) for u, _ in ubs)
        floors = [self._term_floor(t) for _, t in ubs]  # parallel list:
        # a term duplicated in the query carries its floor per instance
        rem_floor = sum(floors)  # ≤ 0
        candidates_only = False
        for i, (ub, term) in enumerate(ubs):
            remaining -= max(ub, 0.0)
            rem_floor -= floors[i]
            docs, tfs = self.get_doc_tfs_pruned(
                term, None if not candidates_only else acc_docs
            )
            if len(docs):
                df = float(self.term_stats(term)[0]) or float(len(docs))
                contrib = _bm25_contrib(
                    _bm25_idf(N, df), tfs.astype(np.float64), self._doc_lens(docs), avgdl
                )
                # merge into accumulator (sorted by doc)
                acc_docs, acc_scores = _sum_by_doc(
                    np.concatenate([acc_docs, docs]),
                    np.concatenate([acc_scores, contrib]),
                )
            if not candidates_only and len(acc_docs) > k:
                kth = np.partition(acc_scores, len(acc_scores) - k)[len(acc_scores) - k]
                if remaining < kth + rem_floor:
                    candidates_only = True  # no unseen doc can reach top-k
        order = np.lexsort((acc_docs, -acc_scores))[:k]
        return pa.table(
            {
                "doc_id": pa.array(acc_docs[order], type=pa.uint64()),
                "score": pa.array(acc_scores[order], type=pa.float64()),
            }
        )

    def get_doc_tfs_pruned(self, term: str, candidates: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """(docs, tfs) for a term; when ``candidates`` is given, only the
        candidates' entries, looked for only in blocks whose doc range
        intersects the candidate set."""
        if candidates is None:
            return self.get_doc_tfs(term)
        docs_parts, tf_parts = [], []
        for p in self._term_postings(term, False):
            lo = np.searchsorted(candidates, p.firsts, side="left")
            hi = np.searchsorted(candidates, p.lasts, side="right")
            keep = hi > lo  # block-max skip: no candidate in range
            if not keep.any():
                continue
            mask = np.repeat(keep, p.dfs)
            mask[mask] = np.isin(p.docs[mask], candidates)
            docs_parts.append(p.docs[mask])
            tf_parts.append(p.tfs[mask])
        if not docs_parts:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64)
        return _sum_by_doc(np.concatenate(docs_parts), np.concatenate(tf_parts))

    def bm25_topk(self, query: str | list[str], k: int = 10, mode: str = "or") -> pa.Table:
        """Top-k docs by BM25. ``query`` is a raw text (tokenized with
        the index tokenizer) or an explicit term list.  mode='and'
        restricts to docs containing every term (conjunctive)."""
        if isinstance(query, str):
            from ..tokenizer import tokenize

            terms = tokenize(query)
        else:
            terms = list(query)
        docs, scores = self.bm25_scores(terms)
        if mode == "and" and len(docs):
            lists = []
            for t in terms:
                td, _ = self.get_doc_tfs(t)
                lists.append(OccurrenceList(td, td, td))
            keep = and_docs(lists)
            mask = np.isin(docs, keep)
            docs, scores = docs[mask], scores[mask]
        if len(docs) > 4 * k and k > 0:
            # prune to the k-th-largest score threshold, KEEPING all
            # boundary ties so the deterministic tie-break below stays
            # exact (no arbitrary argpartition boundary cut).
            thresh = np.partition(scores, len(scores) - k)[len(scores) - k]
            mask = scores >= thresh
            docs, scores = docs[mask], scores[mask]
        # deterministic tie-break: (score desc, doc_id asc)
        order = np.lexsort((docs, -scores))[:k]
        return pa.table(
            {
                "doc_id": pa.array(docs[order], type=pa.uint64()),
                "score": pa.array(scores[order], type=pa.float64()),
            }
        )


def dump_postings_dataset(index_dir: str) -> "ray.data.Dataset":
    """Distributed conformance dump (the reference `print` verb,
    ``ConsoleUtil/Program.cs:228-238``): every occurrence as a row
    (term, doc_id, field_id, token_id) — a map_batches decode over the
    whole posting rows of every segment, no driver-side loop."""
    from ..stages.invert import decode_occurrences
    from .build import read_postings_dataset

    def decode_rows(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return pa.table(
                {"term": pa.array([], pa.string()), "doc_id": pa.array([], pa.int64()),
                 "field_id": pa.array([], pa.int64()), "token_id": pa.array([], pa.int64())}
            )
        # ALL blocks of the batch decode in one varint pass per column
        od, of, ot = decode_occurrences(batch)
        cf = np.asarray(batch["cf"].to_numpy(zero_copy_only=False))
        terms = batch["term"].take(pa.array(np.repeat(np.arange(batch.num_rows), cf)))
        return pa.table(
            {
                "term": terms,
                "doc_id": pa.array(od.astype(np.int64)),
                "field_id": pa.array(of.astype(np.int64)),
                "token_id": pa.array(ot.astype(np.int64)),
            }
        )

    return read_postings_dataset(index_dir, load_meta(index_dir).segments).map_batches(
        decode_rows, batch_format="pyarrow"
    )


@lru_cache(maxsize=8)
def _get_searcher_cached(index_dir: str, _meta_fp: tuple) -> IndexSearcher:
    return IndexSearcher(index_dir)


def get_searcher(index_dir: str) -> IndexSearcher:
    """Process-local searcher cache (one warm searcher per index).

    Keyed on meta.json's (mtime_ns, size) fingerprint, not the path
    alone: every build/compact rewrites meta.json via os.replace, so an
    in-process rebuild invalidates the cache instead of the stale
    searcher silently omitting new docs (incremental build) or crashing
    on deleted segment dirs (compaction)."""
    from ..state.index import META_FILE

    st = os.stat(os.path.join(index_dir, META_FILE))
    return _get_searcher_cached(index_dir, (st.st_mtime_ns, st.st_size))


class SearcherStage:
    """Actor-pool query stage: batches of query strings → top-k tables.

    Use: ``queries_ds.map_batches(SearcherStage, fn_constructor_args=(index_dir,),
    batch_format="pyarrow", concurrency=(1, N), batch_size=B)`` — the
    index opens once per actor (``batch_format="pyarrow"`` is required:
    __call__ consumes an Arrow table).
    """

    def __init__(self, index_dir: str, k: int = 10, mode: str = "or"):
        self.searcher = IndexSearcher(index_dir)
        self.k = k
        self.mode = mode

    def __call__(self, batch: pa.Table) -> pa.Table:
        tops = [
            self.searcher.bm25_topk(q, k=self.k, mode=self.mode)
            for q in batch["query"].to_pylist()
        ]
        counts = np.array([t.num_rows for t in tops], dtype=np.int64)
        # per output row: index of its query in the batch, 1-based rank
        row_query = np.repeat(np.arange(len(tops), dtype=np.int64), counts)
        starts = np.cumsum(counts) - counts
        ranks = np.arange(len(row_query), dtype=np.int64) - np.repeat(starts, counts) + 1
        if tops:
            hits = pa.concat_tables(tops).combine_chunks()
            docs, scores = hits["doc_id"], hits["score"]
        else:
            docs, scores = pa.array([], pa.uint64()), pa.array([], pa.float64())
        return pa.table(
            {
                # explicit types: an all-OOV batch yields zero rows and
                # an inferred empty column is null-typed, which fails
                # schema unification against non-empty blocks downstream
                "query_id": batch["query_id"].take(pa.array(row_query)),
                "rank": pa.array(ranks.astype(np.int32), type=pa.int32()),
                "doc_id": docs.cast(pa.uint64()),
                "score": scores.cast(pa.float64()),
            }
        )
