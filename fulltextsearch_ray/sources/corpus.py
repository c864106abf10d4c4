"""Corpus sources: schema normalization, deterministic doc ids, and a
deterministic synthetic source-code corpus generator.

The engine's native input (BASELINE.json ``input_hint``) is a Parquet
table of source-code rows ``(repo, path, commit, lang, content)``.  Any
table with a text column can be indexed; ``normalize_corpus`` maps it to
the canonical ``(doc_id, text, …meta)`` shape.

Deterministic doc ids (SURVEY.md §7.0.4): the reference assigns
``docID = arrival order starting at 1`` (atomic increment,
``FullTextIndexBuilder.cs:35,45,54``).  Under distributed, retry-prone
execution "arrival order" is not stable, so ids here are the GLOBAL
RANK of the sort key ``(repo, path, commit)`` — permutation-invariant
and retry-safe.  Implementation is a scalable two-stage ranking: range
partition by sampled key boundaries, count per range, driver prefix-sum
(#ranges values only), then per-range local rank + broadcast offset.
No full materialization on the driver.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions.common import partition_apply

KEY_SEP = "\x00\x01"
_NUL_ESCAPE = "\x00￿"


def _composite_key(batch: pa.Table, id_cols: list[str]) -> pa.Array:
    """Order-preserving INJECTIVE encoding of the id tuple: each
    component is CAST TO STRING first, so non-string id columns rank
    lexicographically ('10' < '2') — ids stay unique and deterministic
    (the hard contract) but doc_id order tracks the string form, not
    numeric order.  Each
    component escapes U+0000 → U+0000 U+FFFF, components join on
    U+0000 U+0001.  A bare-NUL join would let distinct tuples collide
    (('x\\x00y','z') vs ('x','y\\x00z')) and swap their rank-assigned
    doc ids across retries; with the escape, tuple comparison order is
    exactly preserved (separator < escaped NUL < every other char).
    Null id components are rejected loudly — inside Ray tasks they
    would otherwise surface as an opaque TypeError from a sort."""
    parts = []
    for c in id_cols:
        col = pc.cast(batch.column(c), pa.string())
        if col.null_count:
            raise ValueError(
                f"assign_doc_ids: id column {c!r} contains nulls — "
                "doc-id assignment needs non-null key components"
            )
        parts.append(pc.replace_substring(col, pattern="\x00", replacement=_NUL_ESCAPE))
    key = parts[0]
    for p in parts[1:]:
        key = pc.binary_join_element_wise(key, p, KEY_SEP)
    return key.combine_chunks() if isinstance(key, pa.ChunkedArray) else key


def sample_key_boundaries(ds: ray.data.Dataset, id_cols: list[str], num_ranges: int) -> list[str]:
    """Deterministic range boundaries: every batch contributes a fixed
    per-batch systematic sample of its sorted keys; the driver sorts the
    (small) sample and takes quantiles."""

    def sample_batch(batch: pa.Table) -> pa.Table:
        key = _composite_key(batch, id_cols)
        # UNSORTED stride sample: the driver sorts the pooled samples
        # anyway, so boundary quality is equivalent and each batch
        # skips an O(n log n) Python-object sort of all its keys
        step = max(len(key) // 32, 1)
        return pa.table({"k": key.take(pa.array(range(0, len(key), step)))})

    # projection pushdown: the sampling pass reads ONLY the key columns
    sample = ds.select_columns(id_cols).map_batches(sample_batch, batch_format="pyarrow")
    keys = sorted(r["k"] for r in sample.take_all())  # small: ≤64 per block
    if not keys or num_ranges <= 1:
        return []
    idx = np.linspace(0, len(keys) - 1, num_ranges + 1).astype(int)[1:-1]
    # dedupe while keeping order
    out: list[str] = []
    for i in idx:
        if not out or keys[i] != out[-1]:
            out.append(keys[i])
    return out


def assign_doc_ids(
    ds: ray.data.Dataset,
    id_cols: list[str],
    start_id: int = 1,
    num_ranges: int | None = None,
) -> ray.data.Dataset:
    """Add a ``doc_id`` column = start_id + global rank of (id_cols).

    Requires keys to be unique (they identify documents).  Two passes
    over the data, one small driver-side prefix sum, one range-partitioned
    shuffle (``common.partition_apply``) — the retry-safe re-expression
    of the reference's "enumeration order defines ids" contract.
    """
    if num_ranges is None:
        try:
            num_ranges = max(int(ds.num_blocks()), 1)
        except (NotImplementedError, AttributeError):
            num_ranges = 64
    boundaries = sample_key_boundaries(ds, id_cols, num_ranges)
    bounds_ref = ray.put(np.array(boundaries, dtype=object))

    def add_range(batch: pa.Table) -> pa.Table:
        b = ray.get(bounds_ref)
        key = _composite_key(batch, id_cols)
        keys = np.asarray(key.to_pylist(), dtype=object)
        rid = np.searchsorted(b, keys, side="right") if len(b) else np.zeros(len(keys), dtype=np.int64)
        return batch.append_column("_key", key).append_column(
            "_range", pa.array(rid.astype(np.int64))
        )

    # Materialize the keyed dataset ONCE (object store, spillable):
    # it feeds both the count pass and the rank shuffle — without this
    # the upstream read+key executes once per consumer.  At cluster
    # scale this would instead be a persisted intermediate parquet.
    with_range = ds.map_batches(add_range, batch_format="pyarrow").materialize()

    # per-range counts: map_batches partials + driver sum — no shuffle
    def count_batch(batch: pa.Table) -> pa.Table:
        rid, cnt = np.unique(
            np.asarray(batch["_range"].to_numpy(zero_copy_only=False)), return_counts=True
        )
        return pa.table({"_range": pa.array(rid), "n": pa.array(cnt)})

    counts: dict[int, int] = {}
    for r in with_range.select_columns(["_range"]).map_batches(count_batch, batch_format="pyarrow").take_all():
        counts[int(r["_range"])] = counts.get(int(r["_range"]), 0) + int(r["n"])
    offsets = np.zeros(len(boundaries) + 2, dtype=np.int64)
    for rid in range(len(boundaries) + 1):
        offsets[rid + 1] = offsets[rid] + counts.get(rid, 0)
    offsets_ref = ray.put(offsets)

    # pass 2: local rank within range + broadcast offset; one
    # partition per range (the range id is its own partition)
    def rank_group(group: pa.Table) -> pa.Table:
        offs = ray.get(offsets_ref)
        rid = int(group["_range"][0].as_py())
        keys = np.asarray(group["_key"].to_pylist(), dtype=object)
        order = np.argsort(keys, kind="stable")
        ks = keys[order]
        if len(ks) > 1:
            dup = ks[1:] == ks[:-1]
            if dup.any():
                # duplicate key tuples would receive run-order-dependent
                # doc ids (stable argsort ties break by block arrival
                # order) — SILENT nondeterminism across retries; the
                # uniqueness requirement is the documented contract
                bad = [k for k in np.unique(ks[1:][dup])[:3]]
                raise ValueError(
                    f"assign_doc_ids: duplicate id tuples (keys identify "
                    f"documents); first offenders: {bad}"
                )
        rank = np.empty(len(keys), dtype=np.int64)
        rank[order] = np.arange(len(keys))
        doc_id = (start_id + offs[rid] + rank).astype(np.uint64)
        out = group.append_column("doc_id", pa.array(doc_id, type=pa.uint64()))
        return out.drop_columns(["_key", "_range"])

    # no input rows: add_range never ran, and the input types the output
    sch = with_range.schema() or ds.schema(fetch_if_missing=True)
    base = [f for f in sch.base_schema if f.name not in ("_key", "_range")]
    in_schema = pa.schema(base + [("_key", pa.string()), ("_range", pa.int64())])
    out_schema = pa.schema(base + [("doc_id", pa.uint64())])
    return partition_apply(
        [(with_range, "_range", in_schema)], len(boundaries) + 1, rank_group, out_schema
    )


def corpus_file_items(path: str, start_id: int = 1) -> list[dict]:
    """File items ``{file, offset, bytes}`` for the fused read+invert
    path, from the sorted listing and the footers alone: positional
    doc-id offsets from the row counts, and each file's uncompressed
    bytes (:func:`~..functions.common.footer_bytes`).  A Ray caller
    makes them one block each (``override_num_blocks=len(items)``),
    otherwise ``from_items`` packs every item into a single block and
    the whole downstream pipeline collapses into ONE task."""
    import glob
    import os

    import pyarrow.parquet as pq

    from ..functions.common import footer_bytes

    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True))
    else:
        files = [path]
    if not files:
        raise FileNotFoundError(f"no parquet files under {path}")
    items, offset = [], start_id
    for f in files:
        md = pq.ParquetFile(f).metadata
        items.append({"file": f, "offset": offset, "bytes": footer_bytes(md)})
        offset += md.num_rows
    return items


def read_corpus_with_ids(
    path: str,
    columns: list[str] | None = None,
    start_id: int = 1,
) -> ray.data.Dataset:
    """Read a parquet corpus with POSITIONAL deterministic doc ids.

    ``doc_id = start_id + (rows in all preceding files) + row index``
    over the sorted file listing — the direct analog of the reference's
    "file enumeration order defines docIDs" (``Program.cs:327-362``),
    made retry-safe: ids depend only on the (sorted) file list and the
    parquet footers' row counts, which the driver reads WITHOUT a data
    pass.  One read task per file; no shuffle, no sampling.  Use
    ``assign_doc_ids`` instead when ids must be content-deterministic
    (sorted-key rank) rather than layout-deterministic.
    """
    import pyarrow.parquet as pq

    items = corpus_file_items(path, start_id=start_id)

    def read_file(batch: pa.Table) -> pa.Table:
        out = []
        for f, off in zip(batch["file"].to_pylist(), batch["offset"].to_pylist()):
            t = pq.read_table(f, columns=columns)
            if "doc_id" in t.column_names:
                raise ValueError(
                    f"read_corpus_with_ids: {f!r} already has a 'doc_id' "
                    "column — positional assignment would duplicate it; "
                    "use normalize_corpus(doc_id_col='doc_id') instead"
                )
            ids = pa.array(np.arange(off, off + t.num_rows, dtype=np.uint64), pa.uint64())
            out.append(t.append_column("doc_id", ids))
        return pa.concat_tables(out)

    return ray.data.from_items(items, override_num_blocks=len(items)).map_batches(
        read_file, batch_format="pyarrow", batch_size=1
    )


def normalize_corpus(
    ds: ray.data.Dataset,
    text_col: str,
    doc_id_col: str | None = None,
    id_cols: list[str] | None = None,
    start_id: int = 1,
) -> ray.data.Dataset:
    """Canonicalize any corpus to have a ``doc_id`` uint64 column."""
    if doc_id_col is not None:
        if doc_id_col != "doc_id":
            names = ds.schema().names
            if "doc_id" in names:
                # renaming would create a DUPLICATE doc_id column and
                # surface as an opaque KeyError deep inside a Ray task
                raise ValueError(
                    f"normalize_corpus: corpus already has a 'doc_id' column "
                    f"alongside doc_id_col={doc_id_col!r} — drop or rename one"
                )
            ds = ds.rename_columns({doc_id_col: "doc_id"})

        def canon_ids(b: pa.Table) -> pa.Table:
            col = b["doc_id"]
            if col.null_count:
                raise ValueError("normalize_corpus: doc_id column contains nulls")
            try:
                # safe cast: a negative / non-numeric id fails HERE with
                # a clear message, not as an opaque Arrow error (or a
                # silent 2^64 wrap) deep inside the invert stage
                cast = col.cast(pa.uint64())
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError) as e:
                raise ValueError(
                    f"normalize_corpus: doc_id column is not uint64-castable: {e}"
                ) from None
            return b.set_column(b.column_names.index("doc_id"), "doc_id", cast)

        return ds.map_batches(canon_ids, batch_format="pyarrow")
    if not id_cols:
        raise ValueError("need doc_id_col or id_cols for deterministic ids")
    return assign_doc_ids(ds, id_cols, start_id=start_id)


def sha256_hex(texts: list[str]) -> list[str]:
    return [hashlib.sha256((t or "").encode("utf-8")).hexdigest() for t in texts]


# ---------------------------------------------------------------------------
# Deterministic synthetic source-code corpus (FIXTURES.md §1)
# ---------------------------------------------------------------------------

_LANGS = ["py", "cs", "js", "go", "java", "txt"]
_KEYWORDS = [
    "def", "class", "return", "import", "public", "static", "void", "var",
    "function", "package", "interface", "struct", "импорт", "über",
    "self", "this", "new", "for", "while", "if", "else", "try", "except",
]
_IDENT_PARTS = [
    "index", "builder", "query", "parser", "token", "stream", "buffer",
    "cache", "merge", "block", "codec", "posting", "field", "doc", "term",
    "full-text", "read_write", "lower_bound", "max_size",
]


def _synth_identity(i: int) -> "tuple[str, str, str, str]":
    """(repo, path, commit, lang) identity of synthetic row ``i`` —
    THE single definition shared by the per-row and vectorized
    generators (a drifted copy would silently fork the two
    'reproducible everywhere' corpora for the same index)."""
    lang = _LANGS[i % len(_LANGS)]
    repo = f"org{i % 97}/repo{i % 13}"
    path = f"src/module_{i % 41}/file_{i}.{lang}"
    commit = hashlib.sha1(f"{repo}:{path}".encode()).hexdigest()
    return repo, path, commit, lang


def synth_code_row(i: int, *, heavy_term: str | None = None, heavy_every: int = 2) -> dict:
    """One deterministic source-code-like row (seeded by row index)."""
    rng = np.random.default_rng(42 + i)
    repo, path, commit, _lang = _synth_identity(i)
    n_lines = int(rng.integers(5, 40))
    lines = []
    for _ in range(n_lines):
        n_tok = int(rng.integers(3, 12))
        words = rng.choice(len(_KEYWORDS) + len(_IDENT_PARTS), size=n_tok)
        toks = [
            _KEYWORDS[w] if w < len(_KEYWORDS) else _IDENT_PARTS[w - len(_KEYWORDS)] + str(int(rng.integers(0, 30)))
            for w in words
        ]
        lines.append(" ".join(toks) + (";" if i % 2 else ""))
    if heavy_term is not None and i % heavy_every == 0:
        lines.append(f"{heavy_term} {heavy_term} {heavy_term}")
    return {
        "repo": repo,
        "path": path,
        "commit": commit,
        "lang": _LANGS[i % len(_LANGS)],
        "content": "\n".join(lines),
    }


def synth_code_corpus(n_rows: int, **kw) -> pa.Table:
    rows = [synth_code_row(i, **kw) for i in range(n_rows)]
    return pa.Table.from_pylist(rows)


def synth_code_batch(start: int, count: int, *, tokens_per_doc: int = 220, heavy_term: str | None = None, heavy_every: int = 2) -> pa.Table:
    """Vectorized deterministic batch of source-code-like rows.

    One RNG draw for the whole batch (seeded by ``start``), so
    generation is fast enough to build multi-GB bench corpora; content
    for a given (start, count, params) is reproducible everywhere.
    """
    rng = np.random.default_rng(100_000 + start)
    # long-tail vocabulary shaped like real source code: a hot core
    # (keywords + common identifiers) plus a large cold tail of unique
    # symbols per batch — so term cardinality grows with corpus size,
    # exercising catalog/merge behavior at realistic vocab scales.
    core = np.array(_KEYWORDS + [p + str(s) for p in _IDENT_PARTS for s in range(120)], dtype=object)
    tail = np.array([f"sym_{start}_{k:x}" for k in range(max(count // 2, 8))], dtype=object)
    n_tok = rng.integers(tokens_per_doc // 2, tokens_per_doc + tokens_per_doc // 2, size=count)
    total = int(n_tok.sum())
    pick_core = rng.integers(0, len(core), size=total)
    words = core[pick_core]
    is_tail = rng.random(total) < 0.04  # ~4% cold-tail symbols
    words[is_tail] = tail[rng.integers(0, len(tail), size=int(is_tail.sum()))]
    # newline every ~8 tokens for source-code shape
    seps = np.where(rng.random(total) < 0.125, "\n", " ")
    bounds = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(n_tok, out=bounds[1:])
    contents = []
    for r in range(count):
        lo, hi = bounds[r], bounds[r + 1]
        parts = [None] * (2 * (hi - lo))
        parts[0::2] = words[lo:hi]
        parts[1::2] = seps[lo:hi]
        text = "".join(parts[:-1])
        i = start + r
        if heavy_term is not None and i % heavy_every == 0:
            text += f"\n{heavy_term} {heavy_term} {heavy_term}"
        contents.append(text)
    idx = np.arange(start, start + count)
    ident = [_synth_identity(int(i)) for i in idx]
    return pa.table(
        {
            "repo": pa.array([t[0] for t in ident], pa.string()),
            "path": pa.array([t[1] for t in ident], pa.string()),
            "commit": pa.array([t[2] for t in ident], pa.string()),
            "lang": pa.array([t[3] for t in ident], pa.string()),
            "content": pa.array(contents, pa.string()),
        }
    )


def write_synth_corpus(path: str, n_rows: int, rows_per_file: int = 10_000, **kw) -> str:
    """Write the synthetic corpus as partitioned Parquet (driver-side,
    used by bench.py; deterministic, seeded; skips files that exist —
    the resumable-output shape).  A ``_params.json`` stamp records
    (n_rows, rows_per_file, kw): a later call with DIFFERENT params
    wipes and regenerates instead of silently resuming onto stale
    shards (the old check kept a 25k-row final shard when n_rows grew
    to 30k and returned a short corpus with no error)."""
    import json
    import os
    import shutil

    import pyarrow.parquet as pq

    params = {"n_rows": n_rows, "rows_per_file": rows_per_file,
              "kw": {k: kw[k] for k in sorted(kw)}}
    stamp = os.path.join(path, "_params.json")
    if os.path.isdir(path):
        prev = None
        if os.path.exists(stamp):
            with open(stamp) as f:
                prev = json.load(f)
        if prev != params:
            shutil.rmtree(path)
    os.makedirs(path, exist_ok=True)
    # stamp BEFORE the shard loop: an interrupted run then resumes via
    # the per-file exists skip on rerun (stamp-at-the-end made every
    # interruption wipe all finished shards — the "resumable" skip was
    # unreachable in practice); atomic per-shard writes keep a torn
    # last shard from being mistaken for a finished one
    if not os.path.exists(stamp):
        with open(stamp, "w") as f:
            json.dump(params, f)
    part = 0
    for start in range(0, n_rows, rows_per_file):
        fn = os.path.join(path, f"part-{part:05d}.parquet")
        if not os.path.exists(fn):
            tbl = synth_code_batch(start, min(rows_per_file, n_rows - start), **kw)
            tmp = fn + ".tmp"
            pq.write_table(tbl, tmp)
            os.replace(tmp, fn)
        part += 1
    return path
