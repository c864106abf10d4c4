"""Benchmark harness — prints ONE JSON line for the driver.

Sections of the default (no-flag) run:
  build    — inverted-index build over the deterministic synthetic
             source-code corpus (docs/s, occurrences/s), best of two.
  docs     — index build over the sf dir's ``documents.parquet``.
  query    — BM25 top-10 p50/p99 warm latency over 200 generated
             queries + distributed SearcherStage pool throughput.
  ops      — representative training-data operators at the sf dir.
  skew     — hot-term build + degenerate-MinHash-bucket + 30%-dup
             spans/cut probes (both budget regimes).

``--phase {build,query,skew}`` runs one section standalone (docs/ops
only run in the full default pass).

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1), RAY_GRAFT_CPUS
(default 32), GRAFT_BENCH_DOCS (synthetic corpus rows, default
50000; the skew phase uses its own 20000-doc default unless the
variable is set explicitly).

``--scaling`` runs the build phase in FRESH processes at num_cpus =
2, 8 and 32 on the same input (paired rounds, host probes per round;
headline = MEDIAN paired 2→8 efficiency); ``--scaling-pairs`` runs the
tight alternating 2↔8 protocol at 100k docs.  Both are the sandbox
evidence protocol for the two-cluster-size criterion (BASELINE.md).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

# Bench protocol version, stamped into every JSON line so cross-round
# comparisons know when numbers are incomparable by construction:
#   1 — rounds 1-3: BM25 latency measured cold (first loop both warmed
#       and measured), pool qps over a single 200-query set (actor
#       cold-start dominated).
#   2 — round 4+: BM25 latency after an untimed warm-up pass; pool qps
#       over a GRAFT_POOL_MULT× multiset (steady-state serving).
#   3 — round 5+: adds the spans/cut skew probe (skew phase); the
#       hot-term skew build probe becomes warm-up + ABBA balanced
#       ordering with per-variant medians (the v2 single-pass ratio
#       measured ordering/cold-window, not code — see BASELINE.md
#       round-5 adjudication).
PROTOCOL_VERSION = 3


def _init_ray(num_cpus: int):
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False)


def bench_build(num_cpus: int, n_docs: int) -> dict:
    import ray.data

    from fulltextsearch_ray.pipelines.build import build_index
    from fulltextsearch_ray.sources.corpus import write_synth_corpus
    from fulltextsearch_ray.state.index import load_manifest, load_meta

    # enough files that block-level parallelism never caps the pool
    # (one read task / invert block bundle per file)
    rows_per_file = max(min(n_docs // 128, 10_000), 500)
    corpus = write_synth_corpus(
        f"/tmp/ftsray_bench/corpus-{n_docs}", n_docs, rows_per_file=rows_per_file
    )
    idx = f"/tmp/ftsray_bench/idx-{n_docs}-{num_cpus}-{time.time_ns()}"
    t0 = time.perf_counter()
    meta = build_index(
        corpus,
        idx,
        text_col="content",
        overwrite=True,
    )
    dt = time.perf_counter() - t0
    man = load_manifest(idx, meta.segments[-1])
    return {
        "sec": round(dt, 3),
        "docs": meta.num_docs,
        "docs_per_sec": round(meta.num_docs / dt, 1),
        "occurrences": man.num_occurrences,
        "occ_per_sec": round(man.num_occurrences / dt, 0),
        "index_dir": idx,
    }


def bench_docs_table(sf_dir: str) -> dict:
    import ray.data

    from fulltextsearch_ray.pipelines.build import build_index

    idx = f"/tmp/ftsray_bench/docs-idx-{time.time_ns()}"
    t0 = time.perf_counter()
    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    meta = build_index(ds, idx, text_col="text", doc_id_col="doc_id", overwrite=True)
    dt = time.perf_counter() - t0
    return {"sec": round(dt, 3), "docs": meta.num_docs, "index_dir": idx}


def _query_set(searcher, n: int = 200) -> list[str]:
    rng = np.random.default_rng(7)
    if searcher.terms is not None:
        # the searcher's term column is already sorted — slice, don't
        # materialize + re-sort the whole vocabulary
        top = searcher.terms.slice(0, 500).to_pylist()
    else:  # lazy paged-catalog mode exposes no terms array
        top = [r["term"] for r in searcher.term_stats_dataset().take(500)]
    out = []
    for _ in range(n):
        k = int(rng.integers(1, 4))
        out.append(" ".join(rng.choice(top, size=k, replace=False)))
    return out

def bench_query(index_dir: str, num_cpus: int) -> dict:
    import pyarrow as pa
    import ray.data

    from fulltextsearch_ray.pipelines.query import IndexSearcher, SearcherStage

    s = IndexSearcher(index_dir)
    qs = _query_set(s)
    # warm the posting cache with one UNTIMED pass, then measure — the
    # old single loop both warmed and measured, so p99 was dominated by
    # cold first-touch posting reads
    for q in qs:
        s.bm25_topk(q, k=10)
    lat = []
    for q in qs:
        t0 = time.perf_counter()
        s.bm25_topk(q, k=10)
        lat.append(time.perf_counter() - t0)
    lat_ms = np.array(lat) * 1000
    # distributed: queries as a Dataset through the actor-pool stage.
    # A GRAFT_POOL_MULT× multiset of the query set streams through so
    # the per-actor index-open cost amortizes and pool_qps measures
    # steady-state serving throughput, not actor cold-start (200
    # queries over a fresh 4-actor pool spent ~half the wall time
    # opening searchers).  Autoscaling (1, N) pool per the AllToAll
    # deadlock note in pipelines/query.py.
    mult = int(os.environ.get("GRAFT_POOL_MULT", "16"))
    n_q = len(qs) * mult
    qt = pa.table(
        {
            "query_id": pa.array(range(n_q), pa.int64()),
            "query": pa.array(qs * mult, pa.string()),
        }
    )
    t0 = time.perf_counter()
    n_out = (
        ray.data.from_arrow(qt)
        .map_batches(
            SearcherStage,
            fn_constructor_args=(index_dir,),
            batch_format="pyarrow",
            concurrency=(1, min(8, num_cpus)),
            batch_size=32,
        )
        .count()
    )
    pool_dt = time.perf_counter() - t0
    return {
        "p50_ms": round(float(np.percentile(lat_ms, 50)), 2),
        "p99_ms": round(float(np.percentile(lat_ms, 99)), 2),
        "queries": len(qs),
        "pool_queries": n_q,
        "pool_sec": round(pool_dt, 3),
        "pool_qps": round(n_q / pool_dt, 1),
        "rows_out": n_out,
    }


def bench_ops(sf_dir: str) -> dict:
    """Per-op wall time, BEST of ``GRAFT_OPS_REPEATS`` runs (default 2).

    This host's throughput fluctuates ~2-5x over minutes (lazy page
    provisioning + noisy neighbours — BASELINE.md caveats); a single
    sample routinely blames an op for a slow host phase.  Best-of-N
    keeps cross-round comparisons meaningful."""
    import __ray_entry__ as e

    names = [
        "dedup_exact", "dedup_minhash_lsh", "dedup_simhash", "dedup_simhash_neardup",
        "dedup_ngram_jaccard", "neardup_components", "embed_neardup",
        "dup_spans", "cut_dup_spans",
        "ann_cosine", "ann_lsh", "ann_ivf", "embed_project",
        "lang_id", "quality_score", "fingerprint",
        "split_hash", "pack_sequences", "redact_pii", "repetition", "top_bigrams",
        "events_window", "events_session", "events_hopping",
    ]
    repeats = max(int(os.environ.get("GRAFT_OPS_REPEATS", "2")), 1)
    qs = e.queries()
    out = {}
    errors = {}
    for name in names:
        best = None
        try:
            for _ in range(repeats):
                t0 = time.perf_counter()
                r = qs[name](sf_dir)
                # hasattr covers the no-count()-method case; a bare
                # except AttributeError here would ALSO swallow remote UDF
                # AttributeErrors (Ray re-raises task errors as subclasses
                # of the original type) and record a failed op as fast
                if hasattr(r, "count") and not isinstance(r, (int, float)):
                    r.count()
                dt = time.perf_counter() - t0
                best = dt if best is None else min(best, dt)
        except Exception as exc:  # noqa: BLE001 — isolate per op
            # One broken op must not suppress the round's ENTIRE bench
            # JSON line; record the failure loudly (null time + errors
            # field) and keep timing the other ops.
            print(f"bench op {name} FAILED: {exc!r}", file=sys.stderr)
            errors[name] = repr(exc)[:300]
            out[name] = None
            continue
        out[name] = round(best, 3)
    if errors:
        out["_errors"] = errors
    return out


def bench_skew(n_docs: int = 20000) -> dict:
    """Skew probe (BASELINE.md planned workload #3): (a) a stop-word-
    heavy corpus — every doc carries extra copies of one hot term, so
    one groupby key sees ~n_docs compressed runs — must build within
    ~1.5x of the normal corpus (the hot-term metadata-only merge path);
    (b) a degenerate MinHash-LSH bucket — 30% of docs share identical
    text, putting thousands of docs in one bucket per band — must stay
    near the normal op time (the capped pair emit logs + skips instead
    of an O(g^2) explode)."""
    import pyarrow as pa
    import ray.data

    from fulltextsearch_ray.functions.dedup import minhash_lsh_pairs
    from fulltextsearch_ray.pipelines.build import build_index
    from fulltextsearch_ray.sources.corpus import write_synth_corpus

    rows_per_file = max(min(n_docs // 32, 10_000), 500)
    out = {}
    # --- (a) stop-word-heavy build vs normal build, same size ---
    normal = write_synth_corpus(
        f"/tmp/ftsray_bench/skew-normal-{n_docs}", n_docs, rows_per_file=rows_per_file
    )
    skewed = write_synth_corpus(
        f"/tmp/ftsray_bench/skew-hot-{n_docs}", n_docs, rows_per_file=rows_per_file,
        heavy_term="hotstopword", heavy_every=1,
    )
    # PAIRED-RATIO protocol (v3): one discarded warm-up build, then 3
    # adjacent (skewed, normal) pairs with the order alternating per
    # pair; the headline ratio is the MEDIAN of the per-pair ratios
    # (each pair's two builds run back-to-back, so a host window flip
    # biases at most one pair).  The v1/v2 single-pass protocol
    # (normal then skewed, no warm-up) measured ordering + whichever
    # window the second build drew: round-4's 0.68 "inversion"
    # reproduced under normal-first ordering and disappeared (0.99-1.1)
    # under warm interleaved ordering on the same code — adjudication
    # in BASELINE.md round-5 section.
    def _timed_build(corpus, name: str) -> float:
        idx = f"/tmp/ftsray_bench/skew-idx-{name}-{time.time_ns()}"
        t0 = time.perf_counter()
        meta = build_index(corpus, idx, text_col="content", overwrite=True)
        return round(meta.num_docs / (time.perf_counter() - t0), 1)

    _timed_build(normal, "warmup")
    samples: dict[str, list[float]] = {"normal": [], "skewed": []}
    ratios = []
    for i in range(3):
        order = ("skewed", "normal") if i % 2 == 0 else ("normal", "skewed")
        pair = {}
        for name in order:
            pair[name] = _timed_build(skewed if name == "skewed" else normal, name)
            samples[name].append(pair[name])
        ratios.append(pair["skewed"] / pair["normal"])
    med = lambda xs: sorted(xs)[len(xs) // 2]
    out["build_normal_docs_per_sec"] = round(med(samples["normal"]), 1)
    out["build_skewed_docs_per_sec"] = round(med(samples["skewed"]), 1)
    out["build_skew_ratio"] = round(med(ratios), 3)
    out["build_skew_pair_ratios"] = [round(r, 3) for r in ratios]
    # --- (b) degenerate LSH bucket: 30% identical docs ---
    import pyarrow.parquet as pq

    dup_path = f"/tmp/ftsray_bench/skew-dup-v2-{n_docs}.parquet"
    if not os.path.exists(dup_path):
        # 30% of docs share ONE text (a single giant LSH bucket in every
        # band); the rest are unique so the probe isolates the capped
        # bucket-skip path rather than legitimate pair volume
        texts = [
            "common boilerplate header license text all rights reserved"
            if i % 10 < 3
            else f"unique document {i} alpha{i} beta{i * 7} gamma{i * 13} delta{i * 31} "
                 f"epsilon{i * 43} zeta{i * 57}"
            for i in range(n_docs)
        ]
        pq.write_table(
            pa.table({"doc_id": pa.array(range(n_docs), pa.int64()),
                      "text": pa.array(texts, pa.string())}),
            dup_path,
        )
    ds = ray.data.read_parquet(dup_path)
    t0 = time.perf_counter()
    minhash_lsh_pairs(ds, num_perm=64, bands=16, threshold=0.5).count()
    out["minhash_degenerate_bucket_sec"] = round(time.perf_counter() - t0, 3)
    # --- (c) spans/cut on the same 30%-duplicated corpus (protocol v3):
    # every copy of the shared text marks the same window hashes, so the
    # duplicated-hash set is tiny but EVERY duplicated doc rebuilds.
    # Run both size regimes: the default and the shared gather budget
    # forced to -1 (the distributed semi-join / co-group rebuild a
    # 100 TB corpus always takes) so the scale path has a recorded number.
    from fulltextsearch_ray.functions import common
    from fulltextsearch_ray.functions.spans import cut_dup_spans, dup_spans

    t0 = time.perf_counter()
    dup_spans(ds, gram_len=4, min_count=2).count()
    out["spans_degenerate_sec"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    cut_dup_spans(ds, gram_len=4, min_count=2).count()
    out["cut_spans_degenerate_sec"] = round(time.perf_counter() - t0, 3)
    budget, common.GATHER_BYTES = common.GATHER_BYTES, -1
    try:
        t0 = time.perf_counter()
        cut_dup_spans(ds, gram_len=4, min_count=2).count()
        out["cut_spans_degenerate_budget0_sec"] = round(time.perf_counter() - t0, 3)
    finally:
        common.GATHER_BYTES = budget
    return out


def _probe_once() -> float:
    import hashlib

    data = (b"the quick brown fox jumps over the lazy dog " * 1000)
    t0 = time.perf_counter()
    n = 0
    while time.perf_counter() - t0 < 0.5:
        hashlib.sha256(data).digest()
        data.split()
        n += 1
    return round(n / (time.perf_counter() - t0), 1)


def _host_speed_probe() -> float:
    """~1s single-thread probe of the host's current speed (relative
    units, higher = faster): hash + tokenize-ish work over a fixed
    buffer.  Recorded per scaling round so a slow host window is
    visible in the output instead of silently skewing a ratio."""
    return _probe_once()


def _host_parallel_probe(workers: int = 8) -> float:
    """Aggregate throughput of ``workers`` PROCESSES running the probe
    concurrently.  The failure mode this catches: the single-thread
    probe reads normal while multi-worker throughput has collapsed
    (noisy neighbours stealing memory bandwidth / host CPU), observed
    as ops running 3-10x slow with probe ≈ 4,400 either side."""
    import concurrent.futures as cf

    with cf.ProcessPoolExecutor(max_workers=workers) as ex:
        vals = list(ex.map(_run_probe_child, range(workers)))
    return round(sum(vals), 1)


def _run_probe_child(_i: int) -> float:
    return _probe_once()


class _RayCpuSampler:
    """Background /proc sampler: total CPU-seconds consumed by every
    Ray-related process (driver, raylet, GCS, workers, plasma) during
    a window.  `num_cpus` is only a SCHEDULING token — this measures
    how many real cores an N-cpu level actually burns, so paired
    scaling ratios can be core-normalized instead of hand-waved.
    Per-pid CPU is tracked monotonically; processes that exit keep
    their last observed total (undercounts at most one sample
    interval per process)."""

    _PATTERNS = (b"ray::", b"raylet", b"default_worker", b"gcs_server",
                 b"plasma", b"bench.py")

    def __init__(self, interval: float = 0.25):
        import threading

        self.interval = interval
        self.totals: dict[str, float] = {}
        self._stop = threading.Event()
        self._self = str(os.getpid())
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        tick = os.sysconf("SC_CLK_TCK")
        while not self._stop.wait(self.interval):
            for pid in os.listdir("/proc"):
                if not pid.isdigit() or pid == self._self:
                    continue
                try:
                    with open(f"/proc/{pid}/cmdline", "rb") as f:
                        cmd = f.read()
                    if not any(pat in cmd for pat in self._PATTERNS):
                        continue
                    with open(f"/proc/{pid}/stat") as f:
                        parts = f.read().rsplit(") ", 1)[1].split()
                    cpu = (int(parts[11]) + int(parts[12])) / tick  # utime+stime
                except (OSError, IndexError, ValueError):
                    # a worker exiting mid-read yields '' or a torn
                    # line — skip the pid; an uncaught parse error here
                    # killed the daemon thread and silently corrupted
                    # every cores_N / core-normalized metric after it
                    continue
                key = f"{pid}"
                if cpu > self.totals.get(key, 0.0):
                    self.totals[key] = cpu

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=2)

    def total(self) -> float:
        return sum(self.totals.values())


def _child_build_dps(cpus: int, n_docs: int, argv_prefix: "list[str] | None" = None) -> float:
    """Run `bench.py --phase build` in a fresh process and return its
    docs/s (``argv_prefix`` e.g. ``["taskset", "-c", "0-1"]`` for the
    pinned protocol — ONE implementation of the child-build contract).
    Raises with the child's stderr tail on ANY failure — a crashed
    child used to surface as an opaque IndexError on an empty stdout,
    discarding hours of completed rounds and the diagnosis."""
    env = dict(os.environ)
    env["RAY_GRAFT_CPUS"] = str(cpus)
    env["GRAFT_BENCH_DOCS"] = str(n_docs)
    argv = list(argv_prefix or []) + [
        sys.executable, os.path.abspath(__file__), "--phase", "build"
    ]
    p = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=3600)
    lines = [l for l in p.stdout.strip().splitlines() if l.startswith("{")]
    if p.returncode != 0 or not lines:
        raise RuntimeError(
            f"child build at {cpus} cpus failed (rc={p.returncode}); "
            f"stderr tail: {p.stderr[-800:]}"
        )
    return json.loads(lines[-1])["queries"]["build_docs_per_sec"]


def run_scaling(n_docs: int, repeats: int = 3) -> dict:
    """Fresh-process build bench at num_cpus = 2, 8 and 32 on the same
    input; reports N→4N efficiency for (2→8) and (8→32).

    ESTIMATOR: per-round PAIRED ratios.  This host's throughput drifts
    ~2x over minutes (lazy page provisioning + noisy neighbours —
    BASELINE.md caveats), and taking the max of each level
    independently across rounds lets one fast 2-cpu window deflate the
    ratio (round-3 measured 0.61-0.65 that way, vs 0.80+ in rounds
    1-2).  Within one round the three levels run back-to-back, so the
    round's own ratio largely cancels host speed; the HEADLINE is the
    MEDIAN paired round (best-paired can exceed 1.0 whenever the 2-cpu
    level draws a slow window — equally drift, opposite sign), with
    the per-round table + host-speed probes emitted alongside for
    adjudication.

    CPU PINNING: each level's whole process tree (driver, raylet,
    object store, workers) is pinned with ``taskset -c 0-(N-1)`` when
    available.  ``ray.init(num_cpus=N)`` alone is only a scheduling
    token — a "2-cpu" run otherwise burns ~4-5 real cores on Ray's
    control plane, inflating the low-N baseline and capping the
    MEASURABLE 2→8 ratio well below the true software scaling (with
    perfect scaling and ~3 overhead cores, 10/(4·5) ≈ 0.5).  Pinning
    makes each level a faithful simulation of an N-core cluster node,
    which is exactly what the two-cluster-size criterion asks this
    sandbox to evidence.  Set GRAFT_SCALING_PIN=0 to disable.

    The HEADLINE efficiency is 2→8: beyond ~8 concurrent workers this
    single box saturates its one memory bus for the string-heavy
    tokenize stage (a 16-way microbenchmark of the pure batch function
    tops out at ~5x serial), which a real multi-node cluster — where
    4x nodes bring 4x memory bandwidth — does not.  Both ratios are
    reported so the 8→32 single-box number stays visible.
    """
    import shutil as _shutil

    # pinning measured WORSE on this host (control plane + workers
    # thrash inside the small cpuset; a taskset-0-31 "no-op" even
    # halved throughput in one window) — keep it opt-in for
    # adjudication runs, default to the historical unpinned protocol
    pin = os.environ.get("GRAFT_SCALING_PIN", "0") == "1" and _shutil.which("taskset")
    rounds: list[dict] = []
    for i in range(repeats):
        r: dict = {
            "probe": _host_speed_probe(),
            "probe8": _host_parallel_probe(),
            "pinned": bool(pin),
        }
        for cpus in (2, 8, 32):
            prefix = ["taskset", "-c", f"0-{cpus - 1}"] if pin else None
            r[f"dps_{cpus}"] = _child_build_dps(cpus, n_docs, argv_prefix=prefix)
        r["eff_2_8"] = round(r["dps_8"] / (4 * r["dps_2"]), 3) if r["dps_2"] else 0.0
        r["eff_8_32"] = round(r["dps_32"] / (4 * r["dps_8"]), 3) if r["dps_8"] else 0.0
        rounds.append(r)
        print(json.dumps({"scaling_round": i, **r}), file=sys.stderr)
    def median(xs):
        xs = sorted(xs)
        m = len(xs) // 2
        return round(xs[m] if len(xs) % 2 else (xs[m - 1] + xs[m]) / 2, 3)

    best_pair = max(rounds, key=lambda r: r["eff_2_8"])
    med_2_8 = median(r["eff_2_8"] for r in rounds)
    med_8_32 = median(r["eff_8_32"] for r in rounds)
    # HEADLINE = median paired round: on a host whose speed swings 3x
    # WITHIN a round, best-paired can exceed 1.0 (2-level slow window)
    # just as easily as a deflated round reads 0.4 — the median is the
    # robust, non-gameable summary; the full per-round table ships
    # alongside for adjudication.
    return {
        "docs": n_docs,
        "docs_per_sec_2cpus": best_pair["dps_2"],
        "docs_per_sec_8cpus": best_pair["dps_8"],
        "docs_per_sec_32cpus": best_pair["dps_32"],
        "scaling_efficiency_2_to_8": med_2_8,
        "scaling_efficiency_8_to_32": med_8_32,
        "scaling_efficiency_2_to_8_best_paired": best_pair["eff_2_8"],
        "scaling_efficiency": med_2_8,
        "rounds": rounds,
    }


def run_scaling_pairs(n_docs: int = 100_000, pairs: int = 5) -> dict:
    """TIGHT-PAIRS scaling protocol: alternate fresh-process builds at
    2 and 8 cpus, ``pairs`` times, on a ``n_docs`` corpus.

    Rationale vs :func:`run_scaling`: this host's effective speed
    flips on a ~minutes timescale, so the 200k-doc protocol's levels
    (1-4 min each) often straddle a window flip and the paired ratio
    measures the flip, not the software.  Smaller levels (~30-90 s)
    fit inside one window; the corpus's larger fixed-cost share biases
    every ratio DOWN (overhead costs the faster level proportionally
    more), so a ≥0.8 reading here is a CONSERVATIVE pass.  Both probes
    are recorded per pair for adjudication."""
    rounds = []
    for i in range(pairs):
        r: dict = {"probe": _host_speed_probe(), "probe8": _host_parallel_probe()}
        for cpus in (2, 8):
            t0 = time.perf_counter()
            with _RayCpuSampler() as smp:
                r[f"dps_{cpus}"] = _child_build_dps(cpus, n_docs)
            wall = time.perf_counter() - t0
            r[f"cores_{cpus}"] = round(smp.total() / wall, 2)
            # raw CPU-seconds: per-doc CPU (cpu / docs) compares levels
            # without the wall-average dilution from init/setup phases
            r[f"cpu_s_{cpus}"] = round(smp.total(), 1)
        r["eff_2_8"] = round(r["dps_8"] / (4 * r["dps_2"]), 3) if r["dps_2"] else 0.0
        # per-real-core throughput ratio: measured cores replace the
        # nominal 4x, evidencing the num_cpus-is-a-token structural
        # floor with data instead of argument
        if r["cores_2"] and r["cores_8"] and r["dps_2"]:
            r["eff_core_norm"] = round(
                (r["dps_8"] / r["cores_8"]) / (r["dps_2"] / r["cores_2"]), 3
            )
        rounds.append(r)
        print(json.dumps({"scaling_pair": i, **r}), file=sys.stderr)
    effs = sorted(r["eff_2_8"] for r in rounds)
    m = len(effs) // 2
    med = round(effs[m] if len(effs) % 2 else (effs[m - 1] + effs[m]) / 2, 3)
    best = max(rounds, key=lambda r: r["eff_2_8"])
    return {
        "docs": n_docs,
        "pairs": rounds,
        "scaling_efficiency_2_to_8": med,
        "scaling_efficiency_2_to_8_best_paired": best["eff_2_8"],
        "scaling_efficiency": med,
    }


def main():
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    n_docs = int(os.environ.get("GRAFT_BENCH_DOCS", "50000"))
    args = sys.argv[1:]

    if "--scaling-pairs" in args:
        out = run_scaling_pairs(
            n_docs if "GRAFT_BENCH_DOCS" in os.environ else 100_000,
            pairs=int(os.environ.get("GRAFT_SCALING_REPEATS", "5")),
        )
        print(json.dumps({"metric": "scaling_efficiency", "value": out["scaling_efficiency"],
                          "unit": "ratio", "queries": out, "sf": sf_dir, "num_cpus": [2, 8],
                          "protocol_version": PROTOCOL_VERSION}))
        return

    if "--scaling" in args:
        # scaling protocol corpus: 200k docs unless overridden — at the
        # 50k default the run is fixed-cost-dominated and under-reports
        # every ratio (see BASELINE.md caveats)
        if "GRAFT_BENCH_DOCS" not in os.environ:
            n_docs = 200_000
        out = run_scaling(n_docs, repeats=int(os.environ.get("GRAFT_SCALING_REPEATS", "2")))
        print(json.dumps({"metric": "scaling_efficiency", "value": out["scaling_efficiency"],
                          "unit": "ratio", "queries": out, "sf": sf_dir,
                          "num_cpus": [2, 8, 32], "protocol_version": PROTOCOL_VERSION}))
        return

    phase = None
    if "--phase" in args:
        phase = args[args.index("--phase") + 1]
        if phase not in ("build", "query", "skew"):
            # an unknown phase used to run NOTHING and print a vacuous
            # zero-op metrics line with exit 0
            print(f"unknown --phase {phase!r} (one of: build, query, skew)", file=sys.stderr)
            sys.exit(2)

    import ray

    _init_ray(num_cpus)
    t_start = time.perf_counter()
    q: dict = {}

    if phase in (None, "build"):
        b = bench_build(num_cpus, n_docs)
        if phase is None:
            # headline number: best of two runs (host throughput
            # fluctuates ~2x over minutes — see BASELINE.md caveats)
            b2 = bench_build(num_cpus, n_docs)
            b = b if b["docs_per_sec"] >= b2["docs_per_sec"] else b2
        q["build_sec"] = b["sec"]
        q["build_docs_per_sec"] = b["docs_per_sec"]
        q["build_occ_per_sec"] = b["occ_per_sec"]
        build_idx = b["index_dir"]
    if phase in (None, "query"):
        if phase == "query":
            b = bench_build(num_cpus, n_docs)
            build_idx = b["index_dir"]
        qq = bench_query(build_idx, num_cpus)
        q["bm25_p50_ms"] = qq["p50_ms"]
        q["bm25_p99_ms"] = qq["p99_ms"]
        q["bm25_pool_qps"] = qq["pool_qps"]
    if phase == "skew":
        for k, v in bench_skew(
            int(os.environ["GRAFT_BENCH_DOCS"]) if "GRAFT_BENCH_DOCS" in os.environ else 20000
        ).items():
            q[f"skew_{k}"] = v
    if phase is None:
        d = bench_docs_table(sf_dir)
        q["docs_table_sec"] = d["sec"]
        for k, v in bench_ops(sf_dir).items():
            q["op_errors" if k == "_errors" else f"op_{k}_sec"] = v
        for k, v in bench_skew(
            int(os.environ["GRAFT_BENCH_DOCS"]) if "GRAFT_BENCH_DOCS" in os.environ else 20000
        ).items():
            q[f"skew_{k}"] = v

    total = round(time.perf_counter() - t_start, 3)
    print(json.dumps({
        "metric": "e2e_bench_sec",
        "value": total,
        "unit": "sec",
        "queries": q,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "protocol_version": PROTOCOL_VERSION,
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
