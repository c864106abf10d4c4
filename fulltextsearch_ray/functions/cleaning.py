"""Corpus-cleaning operators: PII redaction and repetition statistics
(the Gopher-rule family), plus corpus-level bigram counts.

Everything runs on Arrow C++ kernels inside ``map_batches`` — regex
work uses ``pyarrow.compute``'s RE2 engine, the SAME engine DuckDB
uses, so the SQL oracles are bit-identical by construction, and there
is no per-row Python in any hot path.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..tokenizer import flat_tokens
from .common import md5_u64_batch, partition_apply, partitioned_sum, round6, sum_partial

# RE2-syntax patterns (no lookaround/backrefs — portable to DuckDB).
# Replacement order matters: emails first (their local part may contain
# digits), then IPs, then bare international phone numbers.
PII_PATTERNS: list[tuple[str, str, str]] = [
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ip", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    ("phone", r"\+\d{7,15}", "<PHONE>"),
]


def redact_pii_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Replace emails / IPv4s / international phone numbers with typed
    placeholder tags; per-doc match counts come along for filtering
    decisions downstream.

    COUNT SEMANTICS: n_email/n_ip/n_phone are matches against the RAW
    text, counted independently per pattern — NOT the number of tags
    inserted.  A phone-looking digit run inside an email address
    counts as both even though only <EMAIL> lands in clean_text (the
    replacement is ordered: emails first).  The SQL oracle mirrors
    exactly this; treat the counts as per-pattern signal strength, not
    a tag census."""
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    cols: dict[str, object] = {"doc_id": batch["doc_id"]}
    counts = {}
    for name, pattern, _tag in PII_PATTERNS:
        counts[name] = pc.count_substring_regex(text, pattern)
    for _name, pattern, tag in PII_PATTERNS:
        text = pc.replace_substring_regex(text, pattern, tag)
    cols["clean_text"] = text
    for name, _p, _t in PII_PATTERNS:
        cols[f"n_{name}"] = counts[name].cast(pa.int64())
    return pa.table(cols)


def adjacent_bigrams(toks, parent: np.ndarray) -> "tuple[pa.Array, np.ndarray]":
    """(bigrams, bigram_parent) of ADJACENT same-doc token pairs —
    the shared doc-aware bigram explode behind repetition stats and
    corpus bigram counts (one implementation; a drifted copy here
    silently forks the two operators' n-gram definitions)."""
    if len(parent) < 2:
        return pa.array([], pa.string()), np.array([], dtype=np.int64)
    adj = parent[1:] == parent[:-1]
    bg = pc.binary_join_element_wise(
        toks.slice(0, len(toks) - 1), toks.slice(1), " "
    ).filter(pa.array(adj))
    return bg, parent[:-1][adj]


def repetition_batch(
    batch: pa.Table, text_col: str = "text", line_sep: str = "\n"
) -> pa.Table:
    """Per-document repetition statistics (Gopher-style quality rules,
    Rae et al. 2021 §A1.1 — public paper, heuristic definitions only):

    - ``dup_line_frac``    1 − distinct lines / lines
    - ``dup_line_char_frac``  chars inside lines occurring >1× / all line chars
    - ``top_bigram_frac``  occurrences of the most frequent token
      bigram / all bigrams (0 when a doc has <2 tokens)
    """
    n_docs = batch.num_rows
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    text = pc.fill_null(text, "")  # null text = empty doc, like flat_tokens

    # --- line duplication: group (doc, line) once, reduce with bincount
    lines = pc.split_pattern(text, line_sep)
    parent = np.repeat(np.arange(n_docs), np.asarray(pc.list_value_length(lines)))
    flat = pc.list_flatten(lines)
    grp = (
        pa.table({"p": pa.array(parent), "line": flat})
        .group_by(["p", "line"])
        .aggregate([("line", "count")])
    )
    gp = np.asarray(grp["p"].to_numpy(zero_copy_only=False))
    gc = np.asarray(grp["line_count"].to_numpy(zero_copy_only=False), dtype=np.int64)
    glen = np.asarray(pc.utf8_length(grp["line"]).to_numpy(zero_copy_only=False), dtype=np.int64)
    n_lines = np.bincount(gp, weights=gc, minlength=n_docs)
    n_distinct = np.bincount(gp, minlength=n_docs)
    tot_chars = np.bincount(gp, weights=gc * glen, minlength=n_docs)
    dup_chars = np.bincount(gp, weights=np.where(gc > 1, gc * glen, 0), minlength=n_docs)
    dup_line_frac = np.where(n_lines > 0, 1.0 - n_distinct / np.maximum(n_lines, 1), 0.0)
    dup_char_frac = np.where(tot_chars > 0, dup_chars / np.maximum(tot_chars, 1), 0.0)

    # --- top bigram fraction: adjacent-token join inside each doc
    toks, tparent, _ = flat_tokens(text)
    bg, bparent = adjacent_bigrams(toks, tparent)
    top = np.zeros(n_docs)
    totb = np.bincount(bparent, minlength=n_docs).astype(np.int64)
    if len(bparent):
        bgrp = (
            pa.table({"p": pa.array(bparent), "bg": bg})
            .group_by(["p", "bg"])
            .aggregate([("bg", "count")])
        )
        bp = np.asarray(bgrp["p"].to_numpy(zero_copy_only=False))
        bc = np.asarray(bgrp["bg_count"].to_numpy(zero_copy_only=False), dtype=np.int64)
        np.maximum.at(top, bp, bc)
    top_bigram_frac = np.where(totb > 0, top / np.maximum(totb, 1), 0.0)

    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "dup_line_frac": pa.array(round6(dup_line_frac)),
            "dup_line_char_frac": pa.array(round6(dup_char_frac)),
            "top_bigram_frac": pa.array(round6(top_bigram_frac)),
        }
    )


def contamination_check(
    ds: ray.data.Dataset,
    bench_texts,
    *,
    n: int = 3,
    text_col: str = "text",
    concurrency: int | None = None,
) -> ray.data.Dataset:
    """Benchmark-contamination scoring — the eval-leak check a training
    pipeline runs before shipping a corpus: the fraction of each
    document's word-n-gram shingles that appear in a benchmark shingle
    set.  The benchmark is the small side by definition (eval suites
    are KBs to MBs, the corpus is the 100-TB side): it is shingled once
    up front and broadcast ONCE via ``ray.put``; membership is one
    Arrow ``is_in`` kernel per batch.  A plain task UDF that fetches the
    set from the object store, so no actor outlives the dataset holding
    a CPU; ``concurrency`` caps concurrent tasks."""
    from .dedup import shingle_batch

    sh, _ = shingle_batch(pa.array(list(bench_texts), pa.string()), n)
    bench_ref = ray.put(pc.unique(sh))

    def score(batch: pa.Table) -> pa.Table:
        n_docs = batch.num_rows
        sh, dix = shingle_batch(batch[text_col], n)
        tot = np.bincount(dix, minlength=n_docs).astype(np.int64)
        hits = np.zeros(n_docs)
        if len(sh):
            m = np.asarray(
                pc.is_in(sh, value_set=ray.get(bench_ref)).to_numpy(zero_copy_only=False)
            )
            hits = np.bincount(dix[m], minlength=n_docs)
        frac = np.where(tot > 0, hits / np.maximum(tot, 1), 0.0)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_shingles": pa.array(tot),
                "contamination": pa.array(round6(frac)),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow", concurrency=concurrency)


def top_bigrams(ds: ray.data.Dataset, k: int = 20, text_col: str = "text") -> ray.data.Dataset:
    """Corpus-level top-k token bigrams — partial counts inside
    ``map_batches`` (combiner) keyed by ``md5(bigram)``, ONE
    :func:`common.partitioned_sum` (an Arrow group_by per hash
    partition, never a Ray reduce per distinct bigram) keeping each
    partition's top k, then one task merging those; deterministic
    (count desc, bigram asc) tie-break.  The n-gram-statistics building
    block for contamination checks and boilerplate mining."""

    def partial(batch: pa.Table) -> pa.Table:
        toks, parent, _ = flat_tokens(batch[text_col])
        bg, _bparent = adjacent_bigrams(toks, parent)
        grp = pa.table({"bigram": bg}).group_by("bigram").aggregate([("bigram", "count")])
        keys = grp["bigram"].combine_chunks()
        return sum_partial("bigram", keys, "n", grp["bigram_count"], md5_u64_batch(keys))

    def top(t: pa.Table) -> pa.Table:
        return t.sort_by([("n", "descending"), ("bigram", "ascending")]).slice(0, k)

    schema = pa.schema([("bigram", pa.string()), ("n", pa.int64())])
    tops = partitioned_sum(
        ds.map_batches(partial, batch_format="pyarrow"), schema.field("bigram"), "n", finish=top
    )
    return partition_apply([(tops, lambda t: np.zeros(t.num_rows, np.int64), schema)], 1, top, schema)
