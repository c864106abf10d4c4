"""curate: the training-data operators of ``functions/`` on a corpus with
planted exact and near copies.

One chain = exact_dedup → minhash_lsh_pairs → canonical_docs (on the
MinHash pairs), plus ngram_jaccard_pairs and cut_dup_spans, each run to
completion.  Every planted exact copy must be grouped by exact_dedup,
paired by both pair operators, dropped by canonical_docs and cut away
entirely by cut_dup_spans; every near copy must be paired by the exact
n-gram Jaccard operator.
"""

from __future__ import annotations

import contextlib
import time

import pyarrow as pa
import ray
import ray.data

from fulltextsearch_ray.functions.components import canonical_docs
from fulltextsearch_ray.functions.dedup import exact_dedup, minhash_lsh_pairs, ngram_jaccard_pairs
from fulltextsearch_ray.functions.spans import cut_dup_spans

from . import inputs, oracle
from .harness import CpuClock, median

N_DOCS, TOKENS_PER_DOC, PLANTED_SHARE = 100, 120, 0.1
WARM_DOCS = 30
MIN_CHAINS = 3
OPS = ("exact", "minhash", "canonical", "ngram", "cut")
LAYER = {
    "exact": "functions.dedup.exact_s",
    "minhash": "functions.dedup.minhash_s",
    "canonical": "functions.components.canonical_s",
    "ngram": "functions.dedup.ngram_s",
    "cut": "functions.spans.cut_s",
}


def _no_span(_name):
    return contextlib.nullcontext()


def _collect(ds: ray.data.Dataset) -> pa.Table:
    parts = ray.get(ds.to_arrow_refs())
    return pa.concat_tables(parts) if parts else pa.table({})


def _chain(ds: ray.data.Dataset, n_rows: int, out, span) -> tuple[dict, dict]:
    """Run the five operators; returns (seconds per op, outputs)."""
    secs, res = {}, {}

    def step(key, fn):
        t0 = time.perf_counter()
        with span(key):
            res[key] = out.run(key, fn)
        secs[key] = time.perf_counter() - t0

    step("exact", lambda: _collect(exact_dedup(ds)))
    pairs = {}

    def minhash():
        pairs["ds"] = minhash_lsh_pairs(ds, n_rows=n_rows).materialize()
        return _collect(pairs["ds"])

    step("minhash", minhash)
    if "ds" in pairs:
        step("canonical", lambda: _collect(canonical_docs(ds, pairs["ds"])))
    step("ngram", lambda: _collect(ngram_jaccard_pairs(ds)))
    step("cut", lambda: _collect(cut_dup_spans(ds)))
    return secs, res


def _check(out, res: dict, inp: inputs.CurateInputs, n_tokens: dict) -> None:
    """One check per operator that ran: every planted exact copy must be
    grouped, paired, dropped and cut away; every near copy paired by the
    exact n-gram Jaccard operator."""
    def rows(key, *cols):
        t = res[key]
        return list(zip(*(t[c].to_pylist() for c in cols))) if t.num_rows else []

    exact = [(min(a, b), max(a, b)) for a, b in inp.exact]
    near = [(min(a, b), max(a, b)) for a, b in inp.near]
    checks = {}
    if res.get("exact") is not None:
        copies = dict(rows("exact", "doc_id", "n_copies"))
        checks["exact_dedup"] = [p for p in exact if copies.get(p[0], 0) < 2 or p[1] in copies]
    if res.get("minhash") is not None:
        found = set(rows("minhash", "a", "b"))
        checks["minhash_lsh_pairs"] = [p for p in exact if p not in found]
    if res.get("canonical") is not None:
        kept = {d for (d,) in rows("canonical", "doc_id")}
        checks["canonical_docs"] = [p for p in exact if p[0] not in kept or p[1] in kept]
    if res.get("ngram") is not None:
        found = set(rows("ngram", "a", "b"))
        checks["ngram_jaccard_pairs"] = [p for p in exact + near if p not in found]
    if res.get("cut") is not None:
        removed = dict(rows("cut", "doc_id", "n_removed"))
        checks["cut_dup_spans"] = [p for p in exact if any(removed.get(d) != n_tokens[d] for d in p)]
    for op, missed in checks.items():
        out.check(not missed, f"{op} mishandled planted copies {missed[:5]}")


def run(ctx, name: str) -> None:
    out = ctx.outcome
    inp = inputs.curate_inputs(ctx.seed, N_DOCS, TOKENS_PER_DOC, PLANTED_SHARE)
    n = inp.table.num_rows
    n_tokens = {d: len(oracle.tokenize(t)) for d, t in zip(
        inp.table["doc_id"].to_pylist(), inp.table["text"].to_pylist())}
    ctx.inputs.update(docs=n, source_docs=N_DOCS, exact_copies=len(inp.exact),
                      near_copies=len(inp.near), tokens=sum(n_tokens.values()))

    ctx.phase("inputs")
    # set-up: put the docs in the object store and warm every operator on
    # the first rows
    def set_up(_rep):
        docs = ray.data.from_arrow(inp.table).materialize()
        _chain(docs.limit(WARM_DOCS).materialize(), WARM_DOCS, out, _no_span)
        return docs

    ds = ctx.set_up(set_up)

    chains, busy = [], 0.0
    while len(chains) < MIN_CHAINS or busy < ctx.seconds:
        cpu = CpuClock()
        secs, res = _chain(ds, n, out, _no_span)
        rec = dict(secs, total=sum(secs.values()), cpu=cpu.elapsed())
        _check(out, res, inp, n_tokens)
        chains.append(rec)
        busy += rec["total"]
        if len(res) < len(OPS) or any(v is None for v in res.values()):
            break
    ctx.phase("chains")

    def med(key):
        return median([c.get(key, 0.0) for c in chains])

    ctx.e2e.update(p50_cpu_ms=med("cpu") * 1e3, cpu_ms_per_unit=med("cpu") * 1e3 / n)
    ctx.detail.update(curate_docs_per_s=n / med("total"), chains=len(chains))
    for key, layer in LAYER.items():
        ctx.layers[layer] = med(key)
    if res.get("minhash") is not None:
        ctx.layers["functions.dedup.minhash_pairs"] = res["minhash"].num_rows
    if res.get("ngram") is not None:
        ctx.layers["functions.dedup.ngram_pairs"] = res["ngram"].num_rows
    if res.get("cut") is not None:
        ctx.layers["functions.spans.removed_tokens"] = sum(res["cut"]["n_removed"].to_pylist())
    if ctx.trace:
        with ctx.tracer.request("chain", 0):
            secs, res = _chain(ds, n, out, ctx.tracer.span)
        _check(out, res, inp, n_tokens)
        ctx.layers["trace.overhead_ratio"] = sum(secs.values()) / med("total")
