"""Persistent index layout: segments, catalogs, manifests, meta.

Replaces the reference's five fixed files per index directory
(``IndexTypes/Persistent/PersistentIndex.cs:10-16`` — header,
dictionary, posting lists, fields, positions/text) with a
Parquet-native, *segmented* layout designed for distributed builds and
per-partition resume:

    index_dir/
      meta.json                      # header: format, doc counts, segments
      segments/<seg>/
        manifest.json                # per-segment lineage + counters
        docs/*.parquet               # doc_id, doc_len, sha256 (doc_id-sorted)
        payloads/*.bin               # per sort partition: every term's
                                     #   payload bytes at one address
        catalog/*.parquet            # term, df, cf, n_blocks, address (sorted)

The header's ``version`` is the index format, :data:`FORMAT_VERSION`,
checked each time an index is opened, as the reference checks its
header's type (``PersistentIndex.cs:45-72``).  :func:`load_meta`
refuses any other number, so every reader (the searcher, an
incremental build, the dump) serves this format only: a searcher reads
a term's postings only through the address in its catalog row, and
builds its paged tables from the manifest's footer stats.
``compact_index`` is the one reader of an older index (segments written
before payload blobs, manifests without footer stats or block budget,
headers without a field count, forward stores without field ids): it
rewrites the index in this format, once.

Each build session writes a NEW segment (append-only), mirroring the
reference's incremental-session model where repeated terms chain a new
posting list onto the old one (``PersistentBuilder.cs:69-80``,
``PostingListWriter.cs:114-159``): here the "chain" is simply the
per-segment posting rows for the same term, merged at query time in
segment order.  The manifest carries the same counters the reference's
``IndexBuilderStatistics`` exposes (terms, occurrences) plus lineage.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field

import pyarrow as pa

# The in-memory run schema: the rows the invert emits and the term
# shuffle merges, and the whole posting rows compaction and the dump
# read back from catalog + blob.  ``bucket`` is -1 on doc-stats
# sentinel rows and 0 on posting rows.  No segment file has this
# schema; segments written before payload blobs kept it as a postings
# parquet file.
POSTINGS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("bucket", pa.int32()),
        ("block_id", pa.int32()),
        ("first_doc", pa.uint64()),
        ("last_doc", pa.uint64()),
        ("df", pa.int64()),
        ("cf", pa.int64()),
        ("max_tf", pa.int64()),
        # distinct docs in the block; catalog sum(n_docs) = unique-doc
        # df — the BM25 idf input.  Blocks chunk at DOC boundaries so a
        # doc never spans two blocks; sole exception: a single doc
        # larger than block_cf (then that term's summed df over-counts
        # by one per split).
        ("n_docs", pa.int64()),
        ("docs", pa.binary()),
        ("fields", pa.binary()),
        ("tfs", pa.binary()),
        ("positions", pa.binary()),
    ]
)

META_FILE = "meta.json"
SEGMENTS_DIR = "segments"

# The index format every reader assumes; an index of any other number
# is refused until ``compact_index`` rewrites it.  2: payload blobs, and
# manifests with footer stats and block budget, a header with a field
# count, forward stores with field ids.
FORMAT_VERSION = 2


@dataclass
class SegmentManifest:
    name: str
    num_docs: int = 0
    num_terms: int = 0
    num_occurrences: int = 0
    total_tokens: int = 0
    min_doc_id: int = 0
    max_doc_id: int = 0
    input_lineage: list[str] = field(default_factory=list)
    created_at: float = 0.0
    complete: bool = False
    # sorted disjoint [relpath, doc_min, doc_max] per forward-store
    # file (present when the segment was built with store_forward)
    forward_ranges: list = field(default_factory=list)
    # per-file parquet footer stats for the catalog / docs tables:
    # relpath → {"num_rows": N, "columns": [...], "row_groups":
    # [[key_min, key_max, n_rows], ...]} (no entry for a 0-row group).
    # A cold searcher actor builds its (lazy) tables from this ONE
    # manifest JSON read instead of fetching one parquet footer per
    # file — at thousands of files × wide actor pools on network
    # storage, the footer round-trips dominate cold start.
    catalog_stats: dict = field(default_factory=dict)
    docs_stats: dict = field(default_factory=dict)
    # posting-block occurrence budget the segment was written with.
    # The MaxScore prune needs it: a mid-entry block split is only
    # possible when a term's catalog max_tf exceeds block_cf/2, so
    # below that threshold max_tf×num_fields is a provably sound
    # per-doc tf bound.
    block_cf: int = 0


@dataclass
class IndexMeta:
    """The index header — analog of ``index-info.pms``
    (``PersistentIndexInfo.cs:22-51``): persists ``next_doc_id`` across
    incremental sessions plus corpus-level BM25 statistics."""

    version: int = FORMAT_VERSION
    next_doc_id: int = 1
    num_docs: int = 0
    total_tokens: int = 0
    segments: list[str] = field(default_factory=list)
    max_token_size: int = 64
    created_at: float = 0.0
    modified_at: float = 0.0
    # max number of indexed FIELDS across sessions: scoring sums tf
    # across a doc's fields, so the MaxScore bound must scale the
    # catalog's per-(doc,field) max_tf by this.
    num_fields: int = 1

    @property
    def avgdl(self) -> float:
        return self.total_tokens / self.num_docs if self.num_docs else 0.0


def segment_dir(index_dir: str, name: str) -> str:
    return os.path.join(index_dir, SEGMENTS_DIR, name)


def parquet_files(dir_path: str, pattern: str = "*.parquet") -> list[str]:
    """The parquet (or ``pattern``) files under ``dir_path``, sorted;
    none when it is missing."""
    import glob

    return sorted(glob.glob(os.path.join(dir_path, "**", pattern), recursive=True))


def _read_meta(index_dir: str) -> IndexMeta:
    """The header as written, of this format or an older one: a
    ``version`` or ``num_fields`` key an older header lacks reads as 0
    (for ``num_fields``: the field count is unknown, and compaction
    recovers it)."""
    with open(os.path.join(index_dir, META_FILE)) as f:
        return IndexMeta(**{"version": 0, "num_fields": 0, **json.load(f)})


def load_meta(index_dir: str) -> IndexMeta:
    """The header of an index of this format; any other format number
    (or none) raises ValueError naming the migration."""
    meta = _read_meta(index_dir)
    if meta.version != FORMAT_VERSION:
        found = f"format {meta.version}" if meta.version else "no format number"
        raise ValueError(
            f"index {index_dir}: its {META_FILE} has {found}, not format {FORMAT_VERSION}; "
            "rewrite it once with compact_index (CLI: compact --index DIR)"
        )
    return meta


def save_meta(index_dir: str, meta: IndexMeta) -> None:
    meta.modified_at = time.time()
    os.makedirs(index_dir, exist_ok=True)
    tmp = os.path.join(index_dir, META_FILE + ".tmp")
    with open(tmp, "w") as f:
        json.dump(asdict(meta), f, indent=2)
    os.replace(tmp, os.path.join(index_dir, META_FILE))


def load_manifest(index_dir: str, name: str) -> SegmentManifest:
    with open(os.path.join(segment_dir(index_dir, name), "manifest.json")) as f:
        d = json.load(f)
    # keys that manifests written before payload blobs carry (the
    # postings run catalog and its bucket count): dropped, so
    # compact_index reads those manifests' counters
    for retired in ("file_ranges", "num_buckets"):
        d.pop(retired, None)
    return SegmentManifest(**d)


def save_manifest(index_dir: str, m: SegmentManifest) -> None:
    d = segment_dir(index_dir, m.name)
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, "manifest.json.tmp")
    with open(tmp, "w") as f:
        json.dump(asdict(m), f, indent=2)
    os.replace(tmp, os.path.join(d, "manifest.json"))


def segment_is_complete(index_dir: str, name: str) -> bool:
    """Checkpoint check: a segment whose manifest validates is skipped
    on resume (SURVEY.md §4.2 — the partition-granular analog of the
    reference's reopen-and-append model)."""
    try:
        return load_manifest(index_dir, name).complete
    except (FileNotFoundError, json.JSONDecodeError, TypeError):
        return False
