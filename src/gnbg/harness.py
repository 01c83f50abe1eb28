"""Experiment protocol: repeated seeded runs, success accounting, and
aggregation into table-shaped reports.  Milestone errors are read off each
run's history.

Runs are embarrassingly parallel; each owns its evaluator and RNG, and the
aggregation order is fixed by run index so reports are deterministic no
matter how many workers execute them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .core import BudgetedEvaluator, ProblemInstance
from .optimizers import (
    DEFAULT_THRESHOLD,
    OptimizerConfig,
    RunResult,
    check_threshold,
    run_optimizer,
)

DEFAULT_RUNS = 31
DEFAULT_BUDGET = 500_000
DEFAULT_MILESTONES = (100_000, 250_000, 500_000)


@dataclass(frozen=True)
class ExperimentSpec:
    """One aggregated experiment: an instance, an optimizer, and a protocol.
    Run i uses the seed ``optimizer.seed + i``.  ``milestones`` defaults to
    the protocol's ``DEFAULT_MILESTONES`` that fit the budget, or the budget
    alone when none does."""

    instance: ProblemInstance
    optimizer: OptimizerConfig
    runs: int = DEFAULT_RUNS
    budget: int = DEFAULT_BUDGET
    milestones: tuple[int, ...] | None = None
    threshold: float = DEFAULT_THRESHOLD
    knob: float | str | None = None

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        check_threshold(self.threshold)
        fitting = tuple(m for m in DEFAULT_MILESTONES if m <= self.budget) or (self.budget,)
        ms = fitting if self.milestones is None else tuple(int(m) for m in self.milestones)
        if any(m < 1 for m in ms):
            raise ValueError("milestones must be >= 1")
        if any(m > self.budget for m in ms):
            raise ValueError("milestones must not exceed the budget")
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError("milestones must be strictly increasing")
        object.__setattr__(self, "milestones", ms)


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregate over all runs of one ExperimentSpec."""

    knob: float | str | None
    runs: int
    milestones: tuple[int, ...]
    mean_errors: dict[int, float]
    std_errors: dict[int, float]
    mean_fe_success: float | None
    success_rate: float
    run_results: tuple[RunResult, ...] = field(repr=False)


def _one_run(spec: ExperimentSpec, run_index: int) -> RunResult:
    evaluator = BudgetedEvaluator(spec.instance, spec.budget)
    cfg = replace(spec.optimizer, seed=spec.optimizer.seed + run_index)
    return run_optimizer(evaluator, cfg, spec.threshold)


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentReport:
    """Execute all runs of one spec and aggregate: ``sweep([spec], workers)[0]``.

    Error is best value found minus the known optimum value.  Milestone
    statistics use the sample (n-1) standard deviation; mean FE-to-success
    averages successful runs only and is None when none succeed.
    """
    return sweep([spec], workers)[0]


def sweep(specs: list[ExperimentSpec], workers: int = 1) -> list[ExperimentReport]:
    """One report per spec, in spec order.  All runs of all specs share one
    process pool; results come back in (spec, run) order whatever the
    worker count."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = [(spec, i) for spec in specs for i in range(spec.runs)]
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # costly; only when a run needs it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_one_run, *zip(*tasks)))
    else:
        results = [_one_run(spec, i) for spec, i in tasks]
    runs = iter(results)
    return [aggregate(spec, tuple(islice(runs, spec.runs))) for spec in specs]


def _statistic(stat, errs: np.ndarray) -> float:
    """``stat(errs)``; where finite errors overflow it, ``stat`` of the errors
    divided by a power of two at least as large as the largest (exact), then
    multiplied back.  An inf error still gives inf or NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = stat(errs)
        if not np.isfinite(value) and np.all(np.isfinite(errs)):
            exponent = np.frexp(np.max(np.abs(errs)))[1]
            value = np.ldexp(stat(np.ldexp(errs, -exponent)), exponent)
    return float(value)


def aggregate(spec: ExperimentSpec, results: tuple[RunResult, ...]) -> ExperimentReport:
    mean_errors, std_errors = {}, {}
    for m in spec.milestones:
        errs = np.array([r.error_at(m) for r in results])
        mean_errors[m] = _statistic(np.mean, errs)
        std_errors[m] = _statistic(lambda e: np.std(e, ddof=1), errs) if len(errs) > 1 else 0.0
    fes = [r.fe_to_success for r in results if r.success]
    return ExperimentReport(
        knob=spec.knob,
        runs=spec.runs,
        milestones=spec.milestones,
        mean_errors=mean_errors,
        std_errors=std_errors,
        mean_fe_success=float(np.mean(fes)) if fes else None,
        success_rate=100.0 * len(fes) / len(results),
        run_results=results,
    )
