"""Interleaved A/B of the hot-term skew build probe across two code
versions (VERDICT r4 "What's wrong #1": skew_build_skew_ratio read 0.68
in r4 vs 1.32 in r3 — adjudicate whether the r4 build speedups really
cost the hot-term path relative ground, or the two single-sample
readings straddled host windows).

Child mode (run in a FRESH process per measurement so each build gets
its own Ray session):

    python scripts/skew_ab.py --child <repo_path> <variant>   # normal|skewed

prints one JSON line {"docs_per_sec": ...}.

Driver mode (default): alternates r3-code and current-code children
within each round — (r3 normal, r3 skewed, cur normal, cur skewed)
back-to-back — so host drift largely cancels inside a round, exactly
the methodology BASELINE.md uses for the build A/Bs.

    python scripts/skew_ab.py [r3_worktree_path] [rounds]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

N_DOCS = 20_000


def child(repo: str, variant: str) -> None:
    sys.path.insert(0, repo)
    import ray

    ray.init(
        address="local",
        num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
        include_dashboard=False,
    )
    from fulltextsearch_ray.pipelines.build import build_index
    from fulltextsearch_ray.sources.corpus import write_synth_corpus

    rows_per_file = max(min(N_DOCS // 32, 10_000), 500)
    tag = os.path.basename(repo.rstrip("/"))
    kw = {} if variant == "normal" else {"heavy_term": "hotstopword", "heavy_every": 1}
    corpus = write_synth_corpus(
        f"/tmp/ftsray_ab/{tag}-{variant}-{N_DOCS}", N_DOCS, rows_per_file=rows_per_file, **kw
    )
    idx = f"/tmp/ftsray_ab/idx-{tag}-{variant}-{time.time_ns()}"
    t0 = time.perf_counter()
    meta = build_index(corpus, idx, text_col="content", overwrite=True)
    dps = meta.num_docs / (time.perf_counter() - t0)
    print(json.dumps({"docs_per_sec": round(dps, 1)}))
    ray.shutdown()


def run_child(repo: str, variant: str) -> float:
    p = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", repo, variant],
        capture_output=True,
        text=True,
        timeout=1800,
        cwd=repo,
    )
    lines = [l for l in p.stdout.strip().splitlines() if l.startswith("{")]
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"child {repo} {variant} failed: {p.stderr[-500:]}")
    return json.loads(lines[-1])["docs_per_sec"]


def probe() -> float:
    import hashlib

    data = b"the quick brown fox jumps over the lazy dog " * 1000
    t0 = time.perf_counter()
    n = 0
    while time.perf_counter() - t0 < 0.5:
        hashlib.sha256(data).digest()
        data.split()
        n += 1
    return round(n / (time.perf_counter() - t0), 1)


def main() -> None:
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        child(sys.argv[2], sys.argv[3])
        return
    r3 = sys.argv[1] if len(sys.argv) > 1 else "/tmp/ftsray_r3"
    rounds = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    cur = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = []
    for i in range(rounds):
        r: dict = {"round": i, "probe": probe()}
        for repo, tag in ((r3, "r3"), (cur, "cur")):
            for variant in ("normal", "skewed"):
                r[f"{tag}_{variant}"] = run_child(repo, variant)
        r["r3_ratio"] = round(r["r3_skewed"] / r["r3_normal"], 3)
        r["cur_ratio"] = round(r["cur_skewed"] / r["cur_normal"], 3)
        # cross-version, same-round (host cancels): how much faster is
        # current code on each corpus?
        r["speedup_normal"] = round(r["cur_normal"] / r["r3_normal"], 2)
        r["speedup_skewed"] = round(r["cur_skewed"] / r["r3_skewed"], 2)
        out.append(r)
        print(json.dumps(r), flush=True)
    med = lambda xs: sorted(xs)[len(xs) // 2]
    print(
        json.dumps(
            {
                "summary": {
                    "rounds": rounds,
                    "median_r3_ratio": med([r["r3_ratio"] for r in out]),
                    "median_cur_ratio": med([r["cur_ratio"] for r in out]),
                    "median_speedup_normal": med([r["speedup_normal"] for r in out]),
                    "median_speedup_skewed": med([r["speedup_skewed"] for r in out]),
                }
            }
        ),
        flush=True,
    )


if __name__ == "__main__":
    main()
