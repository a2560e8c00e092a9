"""Shared plumbing of the benchmark: metrics, statistics, memory, fingerprint.

Every workload module builds a :class:`Outcome` and hands it back to
``run.py``, which prints it.  Nothing here imports :mod:`repro`, so the
runner can report a missing source tree before touching it.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space of a run (registries, span dumps); inside the checkout and
#: listed in the root ``.gitignore``.
WORK = os.path.join(HERE, "_work")
FIXTURE = os.path.join(HERE, "buffer_model.json")

#: Set-up is repeated this many times per run and reported as the median.
SETUP_REPEATS = 7

#: Median :meth:`Yardstick.sample` time on a 2-vCPU Xeon VM (2.0 GHz
#: nominal) in its fast state: the machine speed CPU-bound timings are
#: scaled to.
YARDSTICK_REFERENCE_S = 0.015

now = time.perf_counter


@dataclass
class Outcome:
    """What one workload run reports.

    ``metrics`` maps a metric name to ``(value, unit)``.  ``checks`` names
    every correctness check with its verdict; any False makes the run
    incorrect.  ``detail`` is printed on the line before the result (sample
    counts, raw populations) for whoever reads the log.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    #: The traced run's :class:`tracing.Spans`, written out by the runner.
    spans: object = None

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, name: str, ok: bool) -> bool:
        self.checks[name] = bool(self.checks.get(name, True) and ok)
        return bool(ok)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def median(values) -> float:
    values = np.asarray(list(values), dtype=float)
    return float(np.median(values)) if values.size else 0.0


def percentile(values, q: float) -> float:
    values = np.asarray(list(values), dtype=float)
    return float(np.percentile(values, q)) if values.size else 0.0


class Yardstick:
    """Measures the machine's current speed at small dense linear algebra.

    On a shared two-core VM the same CPU-bound pass runs 1.6x slower for
    minutes at a time while neighbours are busy, and a fixed dense-solve
    loop slows by the same factor (59% against 61% over one such stretch),
    so the ratio of the two stays put where neither does.  Sampled between
    the timed operations it scales, :meth:`scale` converts their wall time
    to seconds at :data:`YARDSTICK_REFERENCE_S` machine speed.  The loop is
    the benchmark's own code, so no change to the program can move it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        self.rhs = rng.standard_normal((40, 3))
        self.samples: list[float] = []

    def sample(self) -> float:
        start = now()
        for k in range(300):
            np.linalg.solve(self.matrix + 1e-3 * k * np.eye(40), self.rhs)
        self.samples.append(now() - start)
        return self.samples[-1]

    def scale(self) -> float:
        """Factor that turns a wall time measured alongside the samples into
        reference-speed seconds."""
        return YARDSTICK_REFERENCE_S / median(self.samples)

    @staticmethod
    def factor(before: float, after: float) -> float:
        """:meth:`scale` of one operation, from the samples taken just
        before and just after it: the machine's speed shifts within a run,
        so each operation is scaled by its own."""
        return 2.0 * YARDSTICK_REFERENCE_S / (before + after)


def success_rate(attempted: int, failed: int) -> float:
    """``1 - error_rate``; the complement keeps the metric away from zero."""
    return 1.0 - failed / attempted if attempted else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child.

    ``RUSAGE_CHILDREN`` reports the largest ``ru_maxrss`` among children that
    have been waited for, so call this after every child is joined.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0        # Linux reports KiB


def cpu_seconds() -> float:
    """CPU seconds (user + system) used so far by this process and its live
    ``multiprocessing`` children (the shard workers), read from ``/proc``
    because ``RUSAGE_CHILDREN`` only counts children already reaped."""
    import multiprocessing

    own = os.times()
    total = own.user + own.system
    tick = os.sysconf("SC_CLK_TCK")
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / tick   # utime, stime
    return total


def cpu_jiffies() -> tuple[int, int]:
    """``(steal, total)`` CPU time of the whole machine so far, in clock
    ticks, from ``/proc/stat``: the share of it stolen by the hypervisor
    over a run says how busy the machine's neighbours kept its host."""
    with open("/proc/stat") as fh:
        ticks = [int(x) for x in fh.readline().split()[1:9]]
    return ticks[7], sum(ticks)


def child_pids() -> list[int]:
    """Processes whose parent is this one, running or not yet reaped."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:                  # ended while listing
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The shard workers are joined by ``ModelServer.close``, but creating a
    shared-memory segment also starts ``multiprocessing``'s resource
    tracker, which only ends once this process has exited and is then left
    to whoever adopts it.  It is stopped here, as is anything else still a
    child of this process: ``SIGTERM``, then ``SIGKILL`` after ``timeout``.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()                  # closes its pipe, then waits for it
    deadline = now() + timeout
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in child_pids():
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        while child_pids() and now() < deadline:
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            time.sleep(0.01)
        deadline = now() + timeout


def fingerprint() -> dict:
    """The machine a result came from."""
    import scipy

    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
            "machine": platform.machine()}


def work_dir(tag: str) -> str:
    """A fresh per-run directory under :data:`WORK`."""
    path = os.path.join(WORK, f"{tag}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def timed_child(code: str, timeout: float = 120.0) -> float:
    """Wall seconds of a fresh interpreter running ``code`` against ``src``.

    Import cost can only be paid once per process, so set-up that consists
    of imports is repeated in children.  The child is waited for before this
    returns (``subprocess.run``), also when it fails.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    start = now()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    elapsed = now() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return elapsed


def load_fixture() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


def dump(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh)
