"""Measurement plumbing shared by the workloads: the Ray session, a
/proc process-tree sampler, an in-memory span tracer, outcome counting
and small statistics helpers.

Nothing here knows about a particular workload.  The tracer instruments
the engine from the outside only: it swaps a public function for a
timing wrapper for the duration of a ``with`` block, in the benchmark
process, and restores it afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

import numpy as np

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store, which
# adds about 63 bytes to the temp dir.
_SOCKET_PATH_MAX = 107
_RAY_SOCKET_SUFFIX = 64


def nproc() -> int:
    """CPU count as the ``nproc`` tool reports it (honours affinity and
    ``OMP_NUM_THREADS``), which is what the Ray session is sized to."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10)
        return max(int(out.stdout.strip()), 1)
    except (OSError, ValueError, subprocess.SubprocessError):
        return max(len(os.sched_getaffinity(0)), 1)


# ---------------------------------------------------------------------------
# process tree: CPU seconds and resident memory of this process + children
# ---------------------------------------------------------------------------


def _read_stat(pid: int) -> "list[str] | None":
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(") ", 1)[1].split()
    except (OSError, IndexError):
        return None


def tree_pids(root: int | None = None) -> list[int]:
    """``root`` (default: this process) and all its live descendants."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        st = _read_stat(int(name))
        if st is None:
            continue
        children.setdefault(int(st[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def tree_cpu_s() -> float:
    """utime+stime of every live process in the tree, plus the times of
    children they have already reaped (cutime+cstime) — so a Ray worker
    that exited between two snapshots is still counted, via its parent."""
    total = 0
    for pid in tree_pids():
        st = _read_stat(pid)
        if st is not None:
            total += int(st[11]) + int(st[12]) + int(st[13]) + int(st[14])
    return total / _CLK_TCK


def tree_rss_mb(pids: list[int]) -> float:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1])
        except (OSError, IndexError, ValueError):
            continue
    return total * _PAGE / 2**20


class PeakRss:
    """Background sampler of the process tree's summed resident set.
    The tree is re-listed once a second; RSS is read four times a second."""

    def __init__(self, interval: float = 0.25, relist_every: int = 4):
        self.interval = interval
        self.relist_every = relist_every
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="peak-rss", daemon=True)

    def _run(self) -> None:
        pids: list[int] = []
        tick = 0
        while True:
            if tick % self.relist_every == 0:
                pids = tree_pids()
            tick += 1
            self.peak_mb = max(self.peak_mb, tree_rss_mb(pids))
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


class CpuClock:
    """CPU-seconds of the process tree over a window (snapshot deltas)."""

    def __init__(self):
        self.start = tree_cpu_s()

    def elapsed(self) -> float:
        return tree_cpu_s() - self.start


# ---------------------------------------------------------------------------
# Ray session
# ---------------------------------------------------------------------------


class RaySession:
    """Local Ray started at ``num_cpus = nproc``, no dashboard, no usage
    stats, with its object store files and (when the socket paths fit)
    its temp dir inside ``state_dir``, which is removed on exit.
    Stopping waits until every process the session started has exited."""

    def __init__(self, root: str, state_dir: str, num_cpus: int):
        self.root = root
        self.state_dir = state_dir
        self.num_cpus = num_cpus
        self.init_s = 0.0

    def __enter__(self) -> "RaySession":
        os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
        os.environ["RAY_DISABLE_IMPORT_WARNING"] = "1"
        # Ray workers import the engine (and this package) from the checkout
        paths = [self.root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
        import ray
        import ray.data

        # object store files live in the checkout too, not in /dev/shm
        kw = {"_plasma_directory": os.path.join(self.state_dir, "plasma")}
        os.makedirs(kw["_plasma_directory"], exist_ok=True)
        if len(self.state_dir) + _RAY_SOCKET_SUFFIX <= _SOCKET_PATH_MAX:
            kw["_temp_dir"] = self.state_dir
        else:
            print(f"perfbench: checkout path too long for Ray sockets under {self.state_dir}; "
                  "using Ray's default temp dir", file=sys.stderr)
        t0 = time.perf_counter()
        ray.init(
            address="local",
            num_cpus=self.num_cpus,
            include_dashboard=False,
            log_to_driver=False,
            object_store_memory=512 * 2**20,
            **kw,
        )
        self.init_s = time.perf_counter() - t0
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        return self

    def __exit__(self, *exc) -> None:
        import ray

        started = set(tree_pids()) - {os.getpid()}
        ray.shutdown()

        def alive() -> list[int]:
            return [p for p in started if (st := _read_stat(p)) is not None and st[0] != "Z"]

        for grace in (30, 5):
            deadline = time.monotonic() + grace
            while alive() and time.monotonic() < deadline:
                time.sleep(0.2)
            for p in alive():
                with contextlib.suppress(OSError):
                    os.kill(p, signal.SIGKILL)
        # reap any zombie children left to us
        with contextlib.suppress(ChildProcessError):
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        shutil.rmtree(self.state_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans: (id, parent, kind, request, name, start, end).

    ``request(kind, rid)`` opens a root span for one request; spans opened
    inside it inherit the kind and request id.  ``patch`` swaps a public
    function for a wrapper that records a span around each call.  Spans
    are kept in memory and written out by ``dump`` when the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._kind = ""
        self._rid = -1
        self.counters: dict[str, float] = {}

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, self._kind, self._rid, name, time.perf_counter(), 0.0])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][6] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    @contextlib.contextmanager
    def request(self, kind: str, rid: int):
        prev = (self._kind, self._rid)
        self._kind, self._rid = kind, rid
        try:
            with self.span(kind):
                yield
        finally:
            self._kind, self._rid = prev

    @property
    def kind(self) -> str:
        """Kind of the request being traced ('' outside any request)."""
        return self._kind

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    @contextlib.contextmanager
    def patch(self, owner, attr: str, name: str, on_result=None):
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                out = orig(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, out, args)
            return out

        setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            setattr(owner, attr, orig)

    def summary(self) -> dict:
        """(kind, name) → {"n", "total_s", "self_s"}; self time is the
        span's duration minus the time its child spans cover."""
        child = np.zeros(len(self.spans))
        for sid, parent, _k, _r, _n, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for sid, _p, kind, _r, name, t0, t1 in self.spans:
            d = out.setdefault((kind, name), {"n": 0, "total_s": 0.0, "self_s": 0.0})
            d["n"] += 1
            d["total_s"] += t1 - t0
            d["self_s"] += (t1 - t0) - child[sid]
        return out

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for sid, parent, kind, rid, name, t0, t1 in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "kind": kind, "request": rid,
                                    "name": name, "start": t0, "end": t1}) + "\n")


# ---------------------------------------------------------------------------
# outcomes and statistics
# ---------------------------------------------------------------------------


class Outcome:
    """Operations attempted and failed (exceptions plus wrong answers)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(what)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.fail(what)
        return ok

    def run(self, what: str, fn, *args, **kwargs):
        """Call ``fn``; an exception counts as one failed operation."""
        self.attempt()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the benchmark keeps going and reports it
            self.fail(f"{what}: {exc!r}")
            return None


def median(xs) -> float:
    return float(np.median(np.asarray(xs, dtype=float))) if len(xs) else 0.0


def pct(xs, q: float) -> float:
    return float(np.percentile(np.asarray(xs, dtype=float), q)) if len(xs) else 0.0


def dir_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(base, f))
    return total
