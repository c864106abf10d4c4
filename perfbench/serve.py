"""serve-hot and serve-cold: one closed-loop client alternating a BM25
top-10 query and a query-language query.

Both workloads share one corpus and index; only the query stream
differs (see ``inputs.hot_streams`` / ``inputs.cold_streams``).  The
traced run adds the SearcherStage actor pool over the first BM25
queries of the stream, and replays further queries of the stream
through the same public calls with timing wrappers around each layer's
entry point.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from fulltextsearch_ray import codecs, tokenizer
from fulltextsearch_ray.parser import EditQuery, WildQuery
from fulltextsearch_ray.pipelines import query as query_mod
from fulltextsearch_ray.pipelines.build import build_index
from fulltextsearch_ray.pipelines.query import IndexSearcher, SearcherStage
from fulltextsearch_ray.state import caches

from . import inputs, oracle
from .harness import median, pct

N_DOCS, CHUNK, SHARDS = 1400, 2, 8
TOP_K = 10
MIN_SAMPLES = 1000      # per query type: p99 then has 10 samples beyond it
STREAM = 4000           # queries generated per type
POOL_BATCH = 32
POOL_QUERIES = {"serve-hot": 256, "serve-cold": 128}
TRACED = 400            # queries per type in the traced pass
CHECK_EVERY = 7         # every 7th answer is checked against the reference
MAX_LOOKUP_CHECKS = 12  # distinct WILD/EDIT patterns whose term sets are checked


def _topk_pairs(t: pa.Table) -> list[tuple[int, float]]:
    return list(zip(t["doc_id"].to_pylist(), t["score"].to_pylist()))


def _warm_up(searcher: IndexSearcher, head: list[str], hot: inputs.QueryStreams) -> None:
    """Fill the BM25 entry cache with the head terms and the positions
    cache with every term the hot language mix touches."""
    searcher.bm25_topk(" ".join(head), k=TOP_K)
    for t in sorted(hot.pattern_terms):
        searcher.get_postings(t)


def _expected_lang(ref: oracle.BruteIndex, kind: str, args: tuple):
    """(docs, positions, width) the reference gives for one query."""
    if kind == "WORD":
        return (*ref.word(args[0]), 1)
    if kind == "AND":
        return (*ref.and_(*args), 1)
    if kind == "SEQ":
        return (*ref.seq(*args), 2)
    terms = ref.wild_terms(args[0]) if kind == "WILD" else ref.edit_terms(*args)
    occ = [ref.occurrences(t) for t in terms]
    d = np.concatenate([o[0] for o in occ]) if occ else np.empty(0, np.int64)
    p = np.concatenate([o[1] for o in occ]) if occ else np.empty(0, np.int64)
    o = np.lexsort((p, d))
    return d[o], p[o], 1


def _same_matches(m, want) -> bool:
    d, p, width = want
    return (
        m.width == width
        and np.array_equal(np.asarray(m.docs, dtype=np.int64), d)
        and np.array_equal(np.asarray(m.tokens, dtype=np.int64), p)
        and bool(np.all(np.asarray(m.fields) == 1))
    )


class TimedSearcherStage(SearcherStage):
    """SearcherStage that attaches to its result rows the process id and
    the start time of each call, so pool throughput can be taken inside
    the actors rather than from when Ray hands results back."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        out = super().__call__(batch)
        return out.append_column("pid", pa.array(np.full(out.num_rows, os.getpid()))).append_column(
            "t0", pa.array(np.full(out.num_rows, t0)))


def _pool(ctx, index_dir: str, warm: list[str], measured: list[str], answers_b: dict) -> float:
    """Run warm + measured queries through the actor pool.  Each actor's
    steady rate is one batch per median interval between the starts of
    its consecutive measured calls (the interval includes Ray's gap
    between calls); pool throughput is the sum over actors.  Actor
    start-up and cache warm-up fall in the warm prefix."""
    n_warm = len(warm)
    qt = pa.table({
        "query_id": pa.array(np.arange(n_warm + len(measured)), pa.int64()),
        "query": pa.array(warm + measured, pa.string()),
    })
    # one block per batch, so each stage call sees exactly one batch
    blocks = [qt.slice(j, POOL_BATCH) for j in range(0, qt.num_rows, POOL_BATCH)]
    ds = ray.data.from_arrow(blocks).map_batches(
        TimedSearcherStage, fn_constructor_args=(index_dir,), batch_format="pyarrow",
        concurrency=ctx.nproc, batch_size=POOL_BATCH,
    )
    rows = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow", batch_size=None)))
    timed = rows.filter(pc.greater_equal(rows["query_id"], n_warm))
    starts: dict[int, set] = {}
    for pid, t0 in zip(timed["pid"].to_pylist(), timed["t0"].to_pylist()):
        starts.setdefault(pid, set()).add(t0)
    qps = 0.0
    for ts in starts.values():
        if len(ts) > 1:
            qps += POOL_BATCH / median(np.diff(sorted(ts)))
    ctx.outcome.attempt(len(measured))
    by_q: dict = {}
    for qid, d, sc in zip(*(timed[c].to_pylist() for c in ("query_id", "doc_id", "score"))):
        by_q.setdefault(qid, []).append((d, sc))
    for j in range(len(measured)):
        want = answers_b.get(j)
        if not isinstance(want, Exception):
            ctx.outcome.check(by_q.get(n_warm + j, []) == _topk_pairs(want), f"pool != single client #{j}")
    ctx.detail.update(pool_qps=qps, pool_queries=len(measured))
    return qps


def run(ctx, name: str) -> None:
    cold = name == "serve-cold"
    out = ctx.outcome
    table = inputs.serve_corpus(ctx.seed, N_DOCS, CHUNK)
    corpus_dir = os.path.join(ctx.work, "corpus")
    inputs.write_shards(table, corpus_dir, SHARDS)
    ref = oracle.BruteIndex(table["content"].to_pylist())
    ctx.phase("inputs")
    hot = inputs.hot_streams(ctx.seed, ref, STREAM)
    streams = inputs.cold_streams(ctx.seed, ref, STREAM) if cold else hot
    head = sorted({t for q in hot.bm25 for t in q.split()})
    ctx.inputs.update(
        docs=N_DOCS, input_bytes=sum(len(t.encode()) for t in table["content"].to_pylist()),
        terms=len(ref.vocab), tail_terms=sum(t.startswith("sym_") for t in ref.vocab),
        head_terms=len(head), hot_lang_terms=len(hot.pattern_terms),
    )

    # -- set-up: build the index, open a searcher and warm it ---------------
    opens = []

    def set_up(rep):
        index_dir = os.path.join(ctx.work, f"index-{rep}")
        build_index(corpus_dir, index_dir, text_col="content", overwrite=True)
        t0 = time.perf_counter()
        searcher = IndexSearcher(index_dir)
        opens.append(time.perf_counter() - t0)
        _warm_up(searcher, head, hot)
        return index_dir, searcher

    index_dir, searcher = ctx.set_up(set_up)
    ctx.layers["pipelines.query.searcher_open_s"] = median(opens)

    # -- closed loop, one client: BM25 then a language query, repeated -----
    lat_b, lat_l, answers_b, answers_l, errors, cpu_b = [], [], {}, {}, [], []
    busy, i = 0.0, 0
    # all query work runs in this process (Arrow's threads included), so
    # process CPU time is the client's CPU cost
    cpu0 = time.process_time()
    while i < STREAM and (i < MIN_SAMPLES or busy < ctx.seconds):
        q, lq = streams.bm25[i], streams.lang[i][0]
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            res = searcher.bm25_topk(q, k=TOP_K)
        except Exception as exc:  # counted, the loop goes on
            res = exc
        t1 = time.perf_counter()
        cpu_b.append(time.process_time() - c0)
        try:
            m = searcher.evaluate(lq)
        except Exception as exc:
            m = exc
        t2 = time.perf_counter()
        lat_b.append(t1 - t0)
        lat_l.append(t2 - t1)
        busy += t2 - t0
        if i % CHECK_EVERY == 0 or i < POOL_QUERIES[name]:
            answers_b[i] = res
        if i % CHECK_EVERY == 0:
            answers_l[i] = m
        for kind, got in (("bm25", res), ("lang", m)):
            if isinstance(got, Exception):
                errors.append(f"{kind} #{i}: {got!r}")
        i += 1
    loop_cpu = time.process_time() - cpu0
    n = i
    ctx.phase("loop")
    out.attempt(2 * n)
    for e in errors:
        out.fail(e)

    lat_b_ms, lat_l_ms = np.array(lat_b) * 1e3, np.array(lat_l) * 1e3
    ctx.e2e.update(p50_cpu_ms=pct(cpu_b, 50) * 1e3, cpu_ms_per_unit=loop_cpu * 1e3 / (2 * n))
    ctx.detail.update(
        bm25_p50_ms=pct(lat_b_ms, 50), bm25_p99_ms=pct(lat_b_ms, 99),
        lang_p50_ms=pct(lat_l_ms, 50), lang_p99_ms=pct(lat_l_ms, 99),
        bm25_samples=n, lang_samples=n,
    )
    _check(out, ref, searcher, streams, answers_b, answers_l)
    ctx.phase("checks")
    if ctx.trace:
        # the pool's throughput varies too much between runs on a shared
        # host to bound, so it is measured with the other diagnostics
        warm = [" ".join(head[j:j + 3]) for j in range(0, len(head), 3)]
        warm += warm[: -len(warm) % POOL_BATCH]
        measured = streams.bm25[:POOL_QUERIES[name]]
        qps = _pool(ctx, index_dir, warm, measured, answers_b)
        ctx.phase("pool")
        _traced(ctx, searcher, streams, n, lat_b, lat_l)
        _stage_in_process(ctx, index_dir, warm, measured, qps)
        ctx.phase("traced")


def _check(out, ref, searcher, streams, answers_b: dict, answers_l: dict) -> None:
    """Sampled answers against the brute-force reference (untimed)."""
    for j, res in answers_b.items():
        if isinstance(res, Exception) or j % CHECK_EVERY:
            continue
        terms = [t[: oracle.MAX_TERM] for t in oracle.tokenize(streams.bm25[j])]
        got = _topk_pairs(res)
        out.check(oracle.same_topk(got, ref.bm25_scores(terms), TOP_K), f"bm25 #{j} {streams.bm25[j]!r}")
        pruned = _topk_pairs(out.run("bm25_topk_pruned", searcher.bm25_topk_pruned, terms, k=TOP_K))
        out.check(
            [d for d, _ in pruned] == [d for d, _ in got]
            and all(abs(a - b) <= 1e-9 * max(1.0, abs(a)) for (_, a), (_, b) in zip(pruned, got)),
            f"bm25_topk_pruned != bm25_topk #{j}",
        )
    lookups = {}
    for j, m in answers_l.items():
        if isinstance(m, Exception):
            continue
        q, kind, args = streams.lang[j]
        out.check(_same_matches(m, _expected_lang(ref, kind, args)), f"lang #{j} {q}")
        if kind in ("WILD", "EDIT") and len(lookups) < MAX_LOOKUP_CHECKS:
            lookups[q] = ref.wild_terms(args[0]) if kind == "WILD" else ref.edit_terms(*args)
    for q, want in lookups.items():
        out.check(out.run("lookup", searcher.lookup, q) == want, f"lookup {q}")


def _traced(ctx, searcher: IndexSearcher, streams, start: int, lat_b, lat_l) -> None:
    """Further queries of the stream with a span around every layer call."""
    tr = ctx.tracer

    def on_read(t, table, _args):
        t.count(f"{t.kind}.reads")
        t.count(f"{t.kind}.bytes", table.nbytes)

    def on_fetch(t, res, _args):
        t.count(f"{t.kind}.postings", len(res[0]))

    def on_expand(t, terms, args):
        if isinstance(args[0], (WildQuery, EditQuery)):
            t.count(f"{t.kind}.patterns")
            t.count(f"{t.kind}.expanded", len(terms))

    def on_cache(t, hit, args):
        which = "entry" if args[0] is searcher._cache_entries else "positions"
        t.count(f"{t.kind}.{which}.{'hit' if hit is not None else 'miss'}")

    patches = [
        (tokenizer, "tokenize", "tokenize", None),
        (IndexSearcher, "term_stats", "catalog", None),
        (IndexSearcher, "get_doc_tfs", "fetch", on_fetch),
        (IndexSearcher, "get_postings", "fetch_positions", None),
        (IndexSearcher, "bm25_scores", "score", None),
        (codecs, "decode_posting_columns", "decode", None),
        (pq, "read_table", "parquet_read", on_read),
        (query_mod, "parse_query", "parse", None),
        (query_mod, "expand_pattern", "expand", on_expand),
        (caches.LRUCache, "get", "cache_get", on_cache),
    ]
    n = min(TRACED, STREAM - start)
    walls = []
    with contextlib.ExitStack() as stack:
        for owner, attr, span, cb in patches:
            stack.enter_context(tr.patch(owner, attr, span, cb))
        for j in range(start, start + n):
            q = streams.bm25[j]
            terms = [t[: oracle.MAX_TERM] for t in oracle.tokenize(q)]
            tr.count("bm25.terms", len(terms))
            t0 = time.perf_counter()
            with tr.request("bm25", j):
                searcher.bm25_topk(q, k=TOP_K)
            with tr.request("lang", j):
                searcher.evaluate(streams.lang[j][0])
            walls.append(time.perf_counter() - t0)
            with tr.request("maxscore", j):
                searcher.bm25_topk_pruned(terms, k=TOP_K)
    s, c = tr.summary(), tr.counters

    def tot(kind, span):
        return s.get((kind, span), {}).get("total_s", 0.0)

    def own(kind, span):
        return s.get((kind, span), {}).get("self_s", 0.0)

    def ratio(kind, which):
        hit, miss = c.get(f"{kind}.{which}.hit", 0), c.get(f"{kind}.{which}.miss", 0)
        return hit / (hit + miss) if hit + miss else 0.0

    us = 1e6 / n
    bm25_us = tot("bm25", "bm25") * us
    L = ctx.layers
    L["tokenizer.query_us"] = tot("bm25", "tokenize") * us
    L["pipelines.query.bm25_us"] = bm25_us
    L["tokenizer.query_share"] = L["tokenizer.query_us"] / bm25_us if bm25_us else 0.0
    L["pipelines.query.terms_per_query"] = c.get("bm25.terms", 0) / n
    L["pipelines.query.catalog_us"] = tot("bm25", "catalog") * us
    L["pipelines.query.fetch_us"] = (tot("bm25", "fetch") - tot("bm25", "decode")) * us
    L["codecs.decode_us"] = tot("bm25", "decode") * us
    L["pipelines.query.parquet_reads_per_query"] = c.get("bm25.reads", 0) / n
    L["pipelines.query.bytes_read_per_query"] = c.get("bm25.bytes", 0) / n
    L["state.cache_hit_ratio"] = ratio("bm25", "entry")
    L["state.positions_cache_hit_ratio"] = ratio("lang", "positions")
    L["pipelines.query.score_us"] = own("bm25", "score") * us
    L["pipelines.query.postings_scored_per_query"] = c.get("bm25.postings", 0) / n
    L["pipelines.query.topk_us"] = own("bm25", "bm25") * us
    L["pipelines.query.maxscore_us"] = tot("maxscore", "maxscore") * us
    L["parser.parse_us"] = tot("lang", "parse") * us
    L["occurrences.algebra_us"] = own("lang", "lang") * us
    L["matchers.expand_us"] = tot("lang", "expand") * us
    L["matchers.terms_expanded_per_query"] = (
        c.get("lang.expanded", 0) / c["lang.patterns"] if c.get("lang.patterns") else 0.0
    )
    untraced = median(np.add(lat_b, lat_l))
    L["trace.overhead_ratio"] = median(walls) / untraced if untraced else 0.0


def _stage_in_process(ctx, index_dir: str, warm: list[str], measured: list[str], qps: float) -> None:
    """SearcherStage.__call__ in this process on the pool's batches: the
    stage's own cost per query; the rest of 1/qps is Ray's."""
    stage = SearcherStage(index_dir)

    def batch(qs, first):
        return pa.table({"query_id": pa.array(np.arange(first, first + len(qs)), pa.int64()),
                         "query": pa.array(qs, pa.string())})

    for j in range(0, len(warm), POOL_BATCH):
        stage(batch(warm[j:j + POOL_BATCH], j))
    t0 = time.perf_counter()
    for j in range(0, len(measured), POOL_BATCH):
        stage(batch(measured[j:j + POOL_BATCH], len(warm) + j))
    stage_us = (time.perf_counter() - t0) * 1e6 / len(measured)
    ctx.layers["pipelines.query.stage_batch_us_per_query"] = stage_us
    ctx.layers["pipelines.query.pool_ray_us_per_query"] = 1e6 / qps - stage_us if qps else 0.0
