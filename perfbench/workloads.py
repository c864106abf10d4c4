"""Run context shared by the workloads, and the workload dispatch."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .harness import CpuClock, Outcome, Tracer, median

SETUP_REPS = 3


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    work: str
    nproc: int
    outcome: Outcome = field(default_factory=Outcome)
    tracer: Tracer = field(default_factory=Tracer)
    e2e: dict = field(default_factory=dict)       # end-to-end metric values
    layers: dict = field(default_factory=dict)    # per-layer metric values
    detail: dict = field(default_factory=dict)    # the workload's named metrics
    inputs: dict = field(default_factory=dict)    # input sizes stamped into the output
    phases: dict = field(default_factory=dict)    # wall seconds per phase of the run
    _mark: float = field(default_factory=time.perf_counter)

    def set_up(self, step):
        """Run the workload's set-up ``step(rep)`` SETUP_REPS times and
        return the last result.  ``setup_s`` is the median CPU time of the
        process tree over one repetition (wall time drifts too much on a
        shared host to bound); the median wall time goes to the stamp."""
        cpu_s, wall_s, last = [], [], None
        for rep in range(SETUP_REPS):
            cpu, t0 = CpuClock(), time.perf_counter()
            last = step(rep)
            wall_s.append(time.perf_counter() - t0)
            cpu_s.append(cpu.elapsed())
        self.e2e["setup_s"] = self.detail["setup_s"] = median(cpu_s)
        self.detail["setup_wall_s"] = median(wall_s)
        self.phase("setup")
        return last

    def phase(self, name: str) -> None:
        """Record the wall time since the previous phase ended."""
        now = time.perf_counter()
        self.phases[name] = now - self._mark
        self._mark = now


def run_workload(name: str, ctx: Context) -> None:
    if name == "ingest":
        from .ingest import run
    elif name == "curate":
        from .curate import run
    else:
        from .serve import run
    run(ctx, name)
