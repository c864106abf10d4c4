"""ingest: the write path alone.

One cycle = build_index over the seeded corpus shards, a delta segment
whose docs all carry one stop word (the hot-term merge), then
compact_index.  The traced run adds a single-process replay of the
build on the same shards through the stage functions the build runs
(read → tokenize → invert → merge → write), so the Ray-side remainder
of build_index (scheduling, the term sort shuffle, catalog, manifest)
is the build's wall time minus the replay's spans.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from fulltextsearch_ray import tokenizer
from fulltextsearch_ray.pipelines.build import build_index, compact_index
from fulltextsearch_ray.pipelines.query import IndexSearcher
from fulltextsearch_ray.stages.invert import DEFAULT_BLOCK_CF, invert_batch_fn, merge_runs_batch
from fulltextsearch_ray.state.index import load_manifest, load_meta, segment_dir

from . import inputs, oracle
from .harness import CpuClock, dir_bytes, median

N_DOCS, SHARDS, DELTA_DOCS, PROBES = 4000, 8, 400, 20
MIN_CYCLES = 3
NUM_BUCKETS = 64  # build_index default


def _files_bytes(index_dir: str, sub: str) -> int:
    return sum(os.path.getsize(f) for f in glob.glob(
        os.path.join(index_dir, "segments", "*", sub, "**", "*.parquet"), recursive=True))


def _probe(index_dir: str, probes: list[str]) -> list:
    s = IndexSearcher(index_dir)
    return [list(zip(*(s.bm25_topk(q, k=10)[c].to_pylist() for c in ("doc_id", "score")))) for q in probes]


class _Reference:
    """What a correct build of the corpus must contain (untimed)."""

    def __init__(self, corpus: pa.Table):
        texts = corpus["content"].to_pylist()
        self.sha = [hashlib.sha256(t.encode("utf-8")).hexdigest() for t in texts]
        self.doc_len = [len(oracle.tokenize(t)) for t in texts]
        self.occurrences = sum(self.doc_len)
        self.engine_occurrences = int(tokenizer.token_counts(corpus["content"]).sum())

    def check(self, out, index_dir: str) -> None:
        seg = load_meta(index_dir).segments[-1]
        docs = pq.read_table(os.path.join(segment_dir(index_dir, seg), "docs")).sort_by("doc_id")
        occ = load_manifest(index_dir, seg).num_occurrences
        rows_ok = (
            docs["doc_id"].to_pylist() == list(range(1, len(self.sha) + 1))
            and docs["sha256"].to_pylist() == self.sha
            and docs["doc_len"].to_pylist() == self.doc_len
        )
        out.check(
            rows_ok and occ == self.occurrences == self.engine_occurrences,
            f"build: docs table matches source rows: {rows_ok}; occurrences {occ}, "
            f"token counts {self.engine_occurrences}, reference {self.occurrences}",
        )


def _cycle(ctx, k: int, corpus_dir: str, delta_dir: str, inp, ref: _Reference, traced: bool) -> dict | None:
    out = ctx.outcome
    span = ctx.tracer.span if traced else (lambda _name: contextlib.nullcontext())
    idx = os.path.join(ctx.work, f"index-{k}")
    rec: dict = {}

    def timed(key, what, fn, *args, **kw):
        cpu = CpuClock()
        t0 = time.perf_counter()
        with span(key):
            res = out.run(what, fn, *args, **kw)
        rec[key] = time.perf_counter() - t0
        rec[key + "_cpu"] = cpu.elapsed()
        return res

    if timed("build", "build_index", build_index, corpus_dir, idx, text_col="content", overwrite=True) is None:
        return None
    ref.check(out, idx)
    rec["index_bytes"] = _files_bytes(idx, "")
    rec["postings_bytes"] = _files_bytes(idx, "postings")
    rec["catalog_bytes"] = _files_bytes(idx, "catalog")
    meta = timed("delta", "delta build_index", build_index, delta_dir, idx, text_col="content")
    if meta is None:
        return None
    out.check(meta.num_docs == N_DOCS + DELTA_DOCS and len(meta.segments) == 2, "delta segment not added")
    before = _probe(idx, inp.probes)
    meta = timed("compact", "compact_index", compact_index, idx)
    if meta is None:
        return None
    same = _probe(idx, inp.probes) == before
    out.check(len(meta.segments) == 1 and same,
              f"compaction: {len(meta.segments)} segments left, BM25 probe results unchanged: {same}")
    rec["compact_bytes"] = dir_bytes(segment_dir(idx, meta.segments[0]))
    shutil.rmtree(idx)
    rec["total"] = rec["build"] + rec["delta"] + rec["compact"]
    rec["cpu"] = rec["build_cpu"] + rec["delta_cpu"] + rec["compact_cpu"]
    return rec


def run(ctx, name: str) -> None:
    inp = inputs.ingest_inputs(ctx.seed, N_DOCS, SHARDS, DELTA_DOCS, PROBES)
    corpus_dir = os.path.join(ctx.work, "corpus")
    delta_dir = os.path.join(ctx.work, "delta")
    files = inputs.write_shards(inp.corpus, corpus_dir, SHARDS)
    inputs.write_shards(inp.delta, delta_dir, 1)
    ref = _Reference(inp.corpus)
    input_bytes = int(pc.sum(pc.binary_length(inp.corpus["content"])).as_py())
    ctx.inputs.update(docs=N_DOCS, shards=SHARDS, delta_docs=DELTA_DOCS,
                      input_bytes=input_bytes, occurrences=ref.occurrences, heavy_term=inp.heavy_term)

    ctx.phase("inputs")
    # set-up: a warm-up build of the corpus
    ctx.set_up(lambda rep: build_index(
        corpus_dir, os.path.join(ctx.work, f"warm-{rep}"), text_col="content", overwrite=True))

    cycles, busy = [], 0.0
    while len(cycles) < MIN_CYCLES or busy < ctx.seconds:
        rec = _cycle(ctx, len(cycles), corpus_dir, delta_dir, inp, ref, traced=False)
        if rec is None:
            break
        cycles.append(rec)
        busy += rec["total"]
    ctx.phase("cycles")
    if not cycles:
        return

    def med(key):
        return median([c[key] for c in cycles])

    ctx.e2e.update(
        p50_cpu_ms=med("build_cpu") * 1e3,
        cpu_ms_per_unit=med("cpu") * 1e3 / (N_DOCS + DELTA_DOCS),
    )
    ctx.detail.update(
        build_docs_per_s=N_DOCS / med("build"), delta_build_s=med("delta"), compact_s=med("compact"),
        ingest_cpu_s=med("cpu"), index_bytes_per_input_byte=cycles[0]["index_bytes"] / input_bytes,
        cycles=len(cycles),
    )
    L = ctx.layers
    L["pipelines.build.cpu_s"] = med("build_cpu")
    L["pipelines.build.delta_cpu_s"] = med("delta_cpu")
    L["pipelines.build.compact_cpu_s"] = med("compact_cpu")
    L["state.postings_bytes"] = cycles[0]["postings_bytes"]
    L["state.catalog_bytes"] = cycles[0]["catalog_bytes"]
    L["pipelines.build.compact_bytes_rewritten"] = cycles[0]["compact_bytes"]

    if ctx.trace:
        traced = _cycle(ctx, len(cycles), corpus_dir, delta_dir, inp, ref, traced=True)
        if traced is not None:
            L["trace.overhead_ratio"] = traced["total"] / med("total")
        _replay(ctx, files, med("build"))


def _replay(ctx, files: list[str], build_s: float) -> None:
    """The build's per-shard stage calls, in this process, with spans."""
    tr = ctx.tracer
    runs, nbytes, off = [], 0, 1
    with tr.request("replay", 0):
        for f in files:
            with tr.span("read"):
                t = pq.read_table(f, columns=["content"])
            t = t.append_column("doc_id", pa.array(np.arange(off, off + t.num_rows, dtype=np.uint64)))
            off += t.num_rows
            nbytes += int(pc.sum(pc.binary_length(t["content"])).as_py())
            with tr.span("tokenize"):
                tokenizer.tokenize_batch(t["content"])
            with tr.span("invert"):
                runs.append(invert_batch_fn(
                    t, text_col="content", text_cols=None, doc_id_col="doc_id",
                    num_buckets=NUM_BUCKETS, block_cf=DEFAULT_BLOCK_CF, emit_docstats=True,
                ))
        shuffle_in = pa.concat_tables(runs)
        with tr.span("sort"):
            srt = shuffle_in.sort_by("term")
        with tr.span("merge"):
            merged = merge_runs_batch(srt, block_cf=DEFAULT_BLOCK_CF)
        with tr.span("write"):
            pq.write_table(merged, os.path.join(ctx.work, "replay-postings.parquet"), row_group_size=4096)
    s = tr.summary()

    def tot(span):
        return s.get(("replay", span), {}).get("total_s", 0.0)

    L = ctx.layers
    L["sources.read_s"] = tot("read")
    L["tokenizer.tokenize_s"] = tot("tokenize")
    L["tokenizer.mb_per_s"] = nbytes / 1e6 / tot("tokenize") if tot("tokenize") else 0.0
    L["stages.invert_s"] = tot("invert") - tot("tokenize")
    L["stages.merge_s"] = tot("merge")
    L["pipelines.build.write_s"] = tot("write")
    # the replay's own tokenize span is extra: invert tokenizes internally
    L["pipelines.build.ray_s"] = build_s - sum(tot(x) for x in ("read", "invert", "merge", "write"))
    L["stages.run_rows"] = shuffle_in.num_rows
    L["stages.posting_blocks"] = int(pc.sum(pc.not_equal(merged["bucket"], -1)).as_py())
