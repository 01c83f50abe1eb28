"""Baseline derivative-free minimizers: pattern search, constriction-factor
PSO, and DE/rand/1/bin.

``run_optimizer`` is the one way to run a baseline: it looks ``cfg.kind``
up in ``SEARCHES``, the table of the three searches.  Each search is a
private generator of row batches: it yields the rows to evaluate next and
is sent back the values of the rows charged.  One loop, ``_run``, drives
every search: it charges each batch and alone decides when a run ends.

Every optimizer is charged one FE per candidate, in the order a one-point
loop would evaluate them; candidates evaluated speculatively past the point
where a run's course changes are neither charged nor recorded.  All keep
candidates inside the box by clamping, stop as soon as the best error
reaches the success threshold, and are bit-reproducible for a fixed seed.

A run's ``RunResult`` keeps its staircase, ``history``: the (fe, error)
pair of each improvement.  Its FE to success and its error after any FE
count are read off that staircase.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import inf

import numpy as np

from .core import BudgetedEvaluator

DEFAULT_THRESHOLD = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    """Which baseline (a key of ``SEARCHES``), its seed and population.
    Each baseline's fixed parameters are module constants, named in the
    docstring of its search."""

    kind: str = "ps"
    seed: int = 0
    population: int = 100

    def __post_init__(self):
        if self.kind not in SEARCHES:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.population < 1:
            raise ValueError(f"population must be >= 1, got {self.population}")
        if self.kind == "de" and self.population < 4:
            raise ValueError(f"population must be >= 4 for DE, got {self.population}")


@dataclass(frozen=True)
class RunResult:
    """Outcome of one optimizer run on one budgeted evaluator.
    ``best_position`` is None when the run saw no finite value; ``history``
    is the evaluator's (fe, error) pair at each improvement."""

    best_value: float
    best_position: np.ndarray | None = field(repr=False)
    best_error: float
    fe_used: int
    success: bool
    history: tuple[tuple[int, float], ...] = field(repr=False)

    @property
    def fe_to_success(self) -> int | None:
        # a run stops at the FE that reaches the threshold, its last improvement
        return self.history[-1][0] if self.success else None

    def error_at(self, fe: int) -> float:
        """Best error after ``fe`` evaluations; inf before the first."""
        k = bisect_right(self.history, (fe, inf))
        return self.history[k - 1][1] if k else inf


def _run(search, evaluator: BudgetedEvaluator, cfg, threshold) -> RunResult:
    """Drive ``search(instance, cfg, rng)``: charge each ``(rows,
    stop_below)`` batch it yields and send it the values of the rows
    charged, until the best error reaches the threshold or the budget is
    used up.  A budget-truncated batch ends the run before it is sent."""
    steps = search(evaluator.instance, cfg, np.random.default_rng(cfg.seed))
    rows, stop_below = next(steps)
    while evaluator.fe_used < evaluator.max_fe:
        values = evaluator.batch(rows, threshold, stop_below)
        if evaluator.best_error <= threshold or evaluator.fe_used == evaluator.max_fe:
            break
        rows, stop_below = steps.send(values)
    return _finish(evaluator, threshold)


def _finish(evaluator, threshold) -> RunResult:
    return RunResult(
        best_value=evaluator.best_value,
        best_position=evaluator.best_position,
        best_error=evaluator.best_error,
        fe_used=evaluator.fe_used,
        success=evaluator.best_error <= threshold,
        history=tuple(evaluator.history),
    )


INITIAL_MESH_FRACTION = 0.1
EXPAND = 2.0
CONTRACT = 0.5


def _pattern_search_rows(instance, cfg: OptimizerConfig, rng: np.random.Generator):
    """Coordinate-direction pattern search with an adaptive mesh.

    Polls the 2d directions +-e_i in a freshly randomized order each
    iteration, moves on the first improvement, contracts the mesh by CONTRACT
    after a fully failed poll and re-expands it by EXPAND (capped at the
    initial INITIAL_MESH_FRACTION of the box width) after a success.  A
    poll's points are evaluated in blocks of d // 2 (at least one; the whole
    poll for a single component), up to the block holding the first
    improvement; FEs are charged in poll order up to it only.
    """
    lower, upper = instance.bounds
    d = instance.dim
    initial_mesh = INITIAL_MESH_FRACTION * (upper - lower)
    mesh = initial_mesh.copy()
    rows = np.arange(2 * d)
    # rows of a single component cost so little next to a kernel call that a
    # whole poll is cheaper than the extra calls of charging it in blocks
    block = 2 * d if len(instance.components) == 1 else max(1, d // 2)
    x = rng.uniform(lower, upper)
    fx = float((yield x[None, :], None)[0])
    while True:
        # poll k moves axis order[k] // 2 by +mesh (even order[k]) or -mesh
        # (odd).  x is inside the box, so only the moved coordinate is clamped,
        # maximum then minimum, as np.clip takes them.
        order = rng.permutation(2 * d)
        axis = order // 2
        moved = x[axis] + np.column_stack((mesh, -mesh)).ravel()[order]
        np.minimum(np.maximum(moved, lower[axis], out=moved), upper[axis], out=moved)
        polls = np.repeat(x[None, :], 2 * d, axis=0)
        polls[rows, axis] = moved
        for start in range(0, 2 * d, block):
            values = yield polls[start : start + block], fx
            if values[-1] < fx:
                x, fx = polls[start + len(values) - 1], float(values[-1])
                mesh = np.minimum(mesh * EXPAND, initial_mesh)
                break
        else:
            mesh = mesh * CONTRACT


C1 = 2.05
C2 = 2.05
CHI = 0.729843788


def _pso_rows(instance, cfg: OptimizerConfig, rng: np.random.Generator):
    """Constriction-factor PSO (Clerc & Kennedy, 2002), global-star neighborhood.

    v <- CHI * (v + C1 r1 (pbest - x) + C2 r2 (gbest - x)), element-wise
    uniform r1, r2.  Uniform init in the box, zero initial velocity, no
    velocity clamp; positions are clamped to the box; gbest moves as soon as
    a particle beats it.  The initial swarm is one batch; each sweep is
    evaluated from the current particle to its end in one batch, charged up
    to the first particle that beats gbest, and resumed after it.
    """
    lower, upper = instance.bounds
    d = instance.dim
    n = cfg.population
    pos = rng.uniform(lower, upper, size=(n, d))
    vel = np.zeros((n, d))
    pbest = pos.copy()
    pbest_val = yield pos, None
    g = int(np.argmin(pbest_val))
    while True:
        r1, r2 = rng.uniform(size=(n, 2, d)).transpose(1, 0, 2)
        own = vel + C1 * r1 * (pbest - pos)  # no gbest; rows i.. hold until they move
        i = 0
        while i < n:
            # particles i.. all follow pbest[g]; charging stops at the
            # first one that beats it, the only one that moves g
            v = CHI * (own[i:] + C2 * r2[i:] * (pbest[g] - pos[i:]))
            x = np.clip(pos[i:] + v, lower, upper)
            values = yield x, pbest_val[g]
            j = i + len(values)
            vel[i:j], pos[i:j] = v[: j - i], x[: j - i]
            new_g = j - 1 if values[-1] < pbest_val[g] else g
            better = i + np.flatnonzero(values < pbest_val[i:j])
            pbest_val[better], pbest[better] = values[better - i], pos[better]
            g, i = new_g, j


F_WEIGHT = 0.5
CR = 0.9


def _de_draws(rng: np.random.Generator, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """One generation's draws, as ``_de_rows`` documents them: each target's
    donors (r1, r2, r3) and its crossover mask."""
    keys = rng.random((n, n - 1))
    targets = np.arange(n)
    # the three smallest keys in key order, one argmin pass each: a chosen
    # key is overwritten by 2.0, above every key in [0, 1)
    r = np.empty((n, 3), dtype=np.intp)
    for j in range(3):
        r[:, j] = keys.argmin(axis=1)
        keys[targets, r[:, j]] = 2.0
    donors = r + (r >= targets[:, None])  # shift past the target
    cross = rng.random((n, d)) < CR
    cross[targets, rng.integers(d, size=n)] = True
    return donors, cross


def _de_rows(instance, cfg: OptimizerConfig, rng: np.random.Generator):
    """DE/rand/1/bin (Storn & Price, 1997) with synchronous generation update.

    Mutant = x_r1 + F_WEIGHT (x_r2 - x_r3) with distinct donors excluding
    the target; binomial crossover at rate CR with one forced coordinate;
    greedy one-to-one selection.  Each generation draws its randomness in
    three calls: an (n, n - 1) array of uniform keys, whose three smallest
    per row, ordered by key and shifted past the target, are (r1, r2, r3),
    so every ordered triple of distinct non-target indices is equally
    likely; an (n, d) uniform array, below CR where the trial takes the
    mutant; and n integers in [0, d), each target's forced coordinate.
    Each generation's trials are evaluated in one batch.
    """
    lower, upper = instance.bounds
    d = instance.dim
    n = cfg.population
    pop = rng.uniform(lower, upper, size=(n, d))
    values = yield pop, None
    while True:
        donors, cross = _de_draws(rng, n, d)
        r1, r2, r3 = donors.T
        mutants = pop[r1] + F_WEIGHT * (pop[r2] - pop[r3])
        trials = np.clip(np.where(cross, mutants, pop), lower, upper)
        trial_values = yield trials, None
        better = trial_values <= values
        values[better] = trial_values[better]
        pop[better] = trials[better]


# cfg.kind -> its search; the one list of the baselines
SEARCHES = {"ps": _pattern_search_rows, "pso": _pso_rows, "de": _de_rows}


def check_threshold(threshold: float) -> None:
    """Reject a success threshold that is not below inf: a run that sees no
    finite value would count as a success.  NaN is rejected too; -inf runs
    the whole budget."""
    if not threshold < inf:
        raise ValueError(f"threshold must be below inf, got {threshold}")


def run_optimizer(
    evaluator: BudgetedEvaluator,
    cfg: OptimizerConfig,
    threshold: float = DEFAULT_THRESHOLD,
) -> RunResult:
    """Run the baseline ``cfg.kind`` on ``evaluator`` until its best error
    reaches ``threshold`` or the budget is used up."""
    check_threshold(threshold)
    if cfg.kind == "pso" and cfg.population > evaluator.max_fe:
        raise ValueError(
            f"population {cfg.population} exceeds budget {evaluator.max_fe}"
        )
    return _run(SEARCHES[cfg.kind], evaluator, cfg, threshold)
