"""Interleaved parent/change A/B of the gated benchmark over two checkouts.

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in a FRESH process, with the checkout as its working
directory, so each side runs its own engine and its own benchmark code.
Pair i runs both sides on seed ``seed + i``, back to back; the parent
goes first in even pairs and the change in odd ones, so a drift of the
host over the pair falls on each side equally often.

    python scripts/perfbench_ab.py PARENT CHANGE --workload ingest \\
        [--pairs 10] [--seed 601] [--seconds 5]

It prints one line per run as it finishes, then one line per end-to-end
metric of ``BENCHMARK.json`` in the form CHANGES.md records:

    `cpu_ms_per_unit` 0.147 [0.143, 0.151] → 0.114 (−22.4%, 8/8)

the parent's median [its quartiles] → the change's median (the change
in percent, the pairs the change won).  A pair counts only where both
runs exit 0 with a result line.  A run that exits non-zero is recorded
with the tail of its stderr (a run past ``TIMEOUT_S`` seconds is
stopped and recorded the same way), and the script goes on.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
TIMEOUT_S = 900


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: ``{"rc", "metrics", "nproc", "correct", "stderr"}``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=TIMEOUT_S)
        rc, out, err = p.returncode, p.stdout, p.stderr
    except subprocess.TimeoutExpired as e:
        rc, out, err = "timeout", e.stdout or "", e.stderr or ""
        out, err = (s.decode(errors="replace") if isinstance(s, bytes) else s for s in (out, err))
    rec = {"rc": rc, "metrics": None, "nproc": None, "correct": None, "stderr": err[-1500:]}
    for line in out.splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "perfbench" in obj:
            rec["nproc"] = obj["perfbench"].get("nproc")
        elif "metrics" in obj and rc == 0:
            rec["metrics"] = {k: v["value"] for k, v in obj["metrics"].items()}
            rec["correct"] = obj.get("correct")
    return rec


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def summary(pairs: list[dict], metrics: list[dict]) -> list[str]:
    """One CHANGES.md-style line per metric over the pairs both of whose runs succeeded."""
    ok = [p for p in pairs if all(p[s]["metrics"] is not None for s in SIDES)]
    lines = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [p["parent"]["metrics"][name] for p in ok]
        b = [p["change"]["metrics"][name] for p in ok]
        if not ok:
            lines.append(f"`{name}`: no pair with both runs done")
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        q1, q3 = quartiles(a)
        won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        pct = f"{(mb - ma) / ma * 100:+.1f}%".replace("-", "−") if ma else "n/a"
        lines.append(f"`{name}` {ma:.4g} [{q1:.4g}, {q3:.4g}] → {mb:.4g} ({pct}, {won}/{len(ok)})")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=601, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=5)
    args = ap.parse_args(argv)
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            rec = pair[side] = run_once(checkouts[side], args.workload, seed, args.seconds)
            head = f"pair {i + 1}/{args.pairs} seed {seed} {side}: nproc {rec['nproc']}"
            if rec["metrics"] is None:
                print(f"{head} FAILED rc={rec['rc']}\n  stderr tail: {rec['stderr'][-600:]!r}", flush=True)
            else:
                vals = ", ".join(f"{m['name']} {rec['metrics'][m['name']]:.4g}" for m in metrics)
                print(f"{head} correct={rec['correct']} {vals}", flush=True)
        pairs.append(pair)

    nprocs = sorted({p[s]["nproc"] for p in pairs for s in SIDES if p[s]["nproc"] is not None})
    failed = [(p["seed"], s, p[s]["rc"]) for p in pairs for s in SIDES if p[s]["metrics"] is None]
    print(f"\n{args.workload}, {args.pairs} pairs (seeds {args.seed}–{args.seed + args.pairs - 1}), "
          f"order alternating, --seconds {args.seconds:g} --trace 0, nproc {nprocs}; "
          f"median [parent IQR] parent → change (pairs the change won)")
    for line in summary(pairs, metrics):
        print("  " + line)
    if failed:
        print(f"  failed runs (seed, side, rc): {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
