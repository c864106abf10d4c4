"""ray-fulltext benchmark: one command, one seed, four workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root (the engine is imported from there).

Workloads, and why each exists:

* ``ingest``     — the write path alone: build_index over a synthetic
  source-code corpus, a delta segment whose docs all carry one stop
  word (the hot-term merge), then compact_index.  No query work.
* ``serve-hot``  — BM25 top-10 and query-language traffic over high-df
  head terms that all fit both posting caches after warm-up: the
  tokenizer, scoring and top-k dominate; posting I/O is absent.
* ``serve-cold`` — the same query mix over long-tail terms, cycling
  through more distinct terms than the 4,096-entry BM25 cache: catalog
  lookup, parquet fetch and decode dominate.
* ``curate``     — exact_dedup → minhash_lsh_pairs → canonical_docs plus
  ngram_jaccard_pairs and cut_dup_spans over a corpus with planted exact
  and near copies: the only workload that runs ``functions/``.

Load comes from this one process: a closed loop, one client, with Ray
started at ``num_cpus = nproc``.  Every workload checks its outputs
against index-independent references; oracle time is outside every
timed region.  A run measures for at least ``--seconds`` and until the
workload's minimum sample counts are met.

Standard output: a stamp line (host, Ray version, input sizes, the
workload's named detail metrics), then, as the last line, the result
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end set, with ``--trace 1`` the
per-layer set (see ``perfbench/metrics.py``); spans of a traced run are
written to ``.perfbench/traces/``.  Exit status 2 means the engine could
not be imported from the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback

ROOT = os.getcwd()
WORKLOADS = ("ingest", "serve-hot", "serve-cold", "curate")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, ROOT)
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    try:
        import fulltextsearch_ray  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: the engine is not importable from {ROOT}: {exc}", file=sys.stderr)
        return 2

    import ray

    from perfbench import harness, metrics
    from perfbench.workloads import Context, run_workload

    state = os.path.join(ROOT, ".perfbench")
    work = os.path.join(state, f"work-{os.getpid()}")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    # temporary files of this process and its children stay in the checkout
    for var in ("TMPDIR", "RAY_TMPDIR"):
        os.environ[var] = os.path.join(work, "tmp")
    ctx = Context(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace), work=work,
        nproc=harness.nproc(),
    )
    try:
        with harness.PeakRss() as rss:
            with harness.RaySession(ROOT, os.path.join(ROOT, ".pbr"), ctx.nproc) as session:
                ctx.layers["ray.init_s"] = session.init_s
                ctx.phase("ray_init")
                run_workload(args.workload, ctx)
                ctx.phase("workload_end")
            ctx.phase("ray_shutdown")
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = ctx.outcome
    ctx.e2e["peak_rss_mb"] = rss.peak_mb
    ctx.e2e["success_rate"] = 1.0 - out.failed / max(out.attempted, 1)
    ctx.detail["peak_rss_mb"] = rss.peak_mb
    ctx.detail["error_rate"] = out.failed / max(out.attempted, 1)
    if ctx.trace:
        ctx.tracer.dump(os.path.join(state, "traces", f"{args.workload}-seed{args.seed}.jsonl"))
    chosen = metrics.PER_LAYER if ctx.trace else metrics.E2E
    values = ctx.layers if ctx.trace else ctx.e2e
    for note in out.notes:
        print(f"perfbench: failed: {note}", file=sys.stderr)
    print(json.dumps({"perfbench": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": ctx.nproc, "ray": ray.__version__, "inputs": ctx.inputs,
        "detail": {k: {"value": v, "unit": metrics.DETAIL.get(k, "count")} for k, v in ctx.detail.items()},
        "phases_s": ctx.phases, "failures": out.notes,
    }}))
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": float(values.get(k, 0.0)), "unit": u} for k, u in chosen.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
