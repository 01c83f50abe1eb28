"""Arithmetic the benchmark reports with: tail ranks, span self time, the
protocol projection, the host-speed scale and the environment record.

Kept free of the gnbg package so the self-tests can check it in isolation.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
from pathlib import Path
from time import perf_counter

import numpy as np

# The paper's protocol: 24 functions x 3 optimizers, 31 runs of 500k FE each.
PROTOCOL_RUNS = 31
PROTOCOL_BUDGET = 500_000
US_PER_HOUR = 3.6e9

# A tail is reported at the highest percentile that still has this many
# samples beyond it.
TAIL_BEYOND = 10


def tail_rank(n: int) -> int:
    """1-based rank of the highest percentile with ``TAIL_BEYOND`` samples
    ranked above it, among ``n`` samples."""
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    return n - TAIL_BEYOND


def tail(values) -> tuple[float, int, int]:
    """(value, rank, count) of the tail sample; the percentile is rank/count."""
    ordered = sorted(values)
    rank = tail_rank(len(ordered))
    return ordered[rank - 1], rank, len(ordered)


def median(values) -> float:
    return float(statistics.median(values))


def ratio(num: float, den: float) -> float:
    """num/den, with 0 for an empty denominator (a layer the workload never calls)."""
    return num / den if den else 0.0


def protocol_core_h(us_per_fe: dict) -> float:
    """Projected core-hours of running every (problem, optimizer) pair in
    ``us_per_fe`` for the full protocol: sum of us/FE x 31 x 500,000."""
    return sum(us_per_fe.values()) * PROTOCOL_RUNS * PROTOCOL_BUDGET / US_PER_HOUR


# Host speed.  A shared VM runs the same code up to 1.8x slower in phases of
# 5 s to minutes, often longer than a run, so a unit's best time over the
# rounds of a run cannot hide them.  Each round therefore times a fixed
# reference loop, which does not touch gnbg, between its units, and scales
# each unit's time by REFERENCE_S / (the loop's median time within
# PROBE_WINDOW_S of the unit): the figures read as seconds on a host where
# the loop takes REFERENCE_S.  The loop mixes small numpy calls with
# interpreter work, as gnbg's evaluation and optimizer loops do, so it
# slows down with them.
REFERENCE_S = 2e-3
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 1.0
_PROBE_RNG = np.random.default_rng(0)
_PROBE_M = _PROBE_RNG.standard_normal((30, 30))
_PROBE_X = _PROBE_RNG.standard_normal(30)


def reference_loop() -> float:
    x, acc = _PROBE_X, 0.0
    for _ in range(200):
        y = _PROBE_M @ x
        acc += float(np.sqrt(np.abs(y)).sum()) ** 0.5
        x = y / np.linalg.norm(y)
    return acc


class SpeedProbe:
    """Times ``reference_loop`` at most once every ``PROBE_EVERY_S`` seconds."""

    def __init__(self):
        self.starts: list[float] = []
        self.samples: list[float] = []

    def poll(self) -> None:
        if not self.starts or perf_counter() - self.starts[-1] >= PROBE_EVERY_S:
            a = perf_counter()
            reference_loop()
            self.samples.append(perf_counter() - a)
            self.starts.append(a)

    def scale(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Reference seconds per host second between ``start`` and ``end``:
        from the samples within ``PROBE_WINDOW_S`` of that interval, or all."""
        near = [
            s for t, s in zip(self.starts, self.samples)
            if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S
        ]
        return REFERENCE_S / median(near)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other.  ``parent`` is -1 for a root span.
    """
    dur = end - start
    covered = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(covered, parent[nested], dur[nested])
    return dur - covered


def _git_commit(root: Path) -> str:
    # A checkout without its own .git (an export, or one placed inside
    # another repository) must not report some enclosing repository's commit.
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"
    except (KeyError, TypeError):
        return "unknown"


def environment(root: Path, seed: int, blas_threads: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads_cap": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }
