"""PSO sweeps evaluated speculatively in batches, against the per-particle loop.

The oracle below is the loop the batched sweep replaced: one FE per call,
and gbest updated after every particle.  The batched sweep must reproduce
it bit for bit: every ``RunResult`` field and the whole ``history``, at
budgets that end mid-sweep, at thresholds that stop a sweep part-way, and
for swarms of every size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnbg.core import BudgetedEvaluator, BudgetExhaustedError
from gnbg.generators import SUITE_SIZE, suite_instance
from gnbg.optimizers import DEFAULT_THRESHOLD, OptimizerConfig, _finish, pso
from test_kernel import charge_one, random_instances

MILESTONES = (100, 333)


class _Stop(Exception):
    pass


def oracle_pso(evaluator, cfg, threshold=DEFAULT_THRESHOLD, milestones=()):
    rng = np.random.default_rng(cfg.seed)
    lower, upper = evaluator.instance.bounds
    d = evaluator.instance.dim
    n = cfg.population

    def tracked(x):
        value = charge_one(evaluator, x)
        if evaluator.best_error <= threshold:
            raise _Stop
        return value

    pos = rng.uniform(lower, upper, size=(n, d))
    vel = np.zeros((n, d))
    pbest = pos.copy()
    try:
        pbest_val = np.array([tracked(x) for x in pos])
        g = int(np.argmin(pbest_val))
        while True:
            for i in range(n):
                r1 = rng.uniform(size=d)
                r2 = rng.uniform(size=d)
                vel[i] = 0.729843788 * (
                    vel[i]
                    + 2.05 * r1 * (pbest[i] - pos[i])
                    + 2.05 * r2 * (pbest[g] - pos[i])
                )
                pos[i] = np.clip(pos[i] + vel[i], lower, upper)
                value = tracked(pos[i])
                if value < pbest_val[i]:
                    pbest_val[i] = value
                    pbest[i] = pos[i].copy()
                    if value < pbest_val[g]:
                        g = i
    except (_Stop, BudgetExhaustedError):
        pass
    return _finish(evaluator, threshold, milestones)


def _record(optimizer, instance, budget, cfg, threshold, milestones):
    """Every RunResult field and the history, floats as exact hex."""
    ev = BudgetedEvaluator(instance, budget)
    r = optimizer(ev, cfg, threshold, milestones)
    return {
        "best_value": float(r.best_value).hex(),
        "best_error": float(r.best_error).hex(),
        "best_position": np.asarray(r.best_position, dtype=float).tobytes(),
        "fe_used": r.fe_used,
        "milestone_errors": {m: float(e).hex() for m, e in r.milestone_errors.items()},
        "fe_to_success": r.fe_to_success,
        "success": r.success,
        "history": [(fe, float(e).hex()) for fe, e in ev.history],
    }


def _assert_same(instance, budget, cfg, threshold=DEFAULT_THRESHOLD, milestones=()):
    args = (instance, budget, cfg, threshold, milestones)
    expected = _record(oracle_pso, *args)
    assert _record(pso, *args) == expected
    return expected


SUITE = range(1, SUITE_SIZE + 1)


@pytest.mark.parametrize("seed", (3, 7))
@pytest.mark.parametrize("budget", (333, 1000))
@pytest.mark.parametrize("k", SUITE)
def test_suite_runs_match_oracle(k, budget, seed):
    cfg = OptimizerConfig(kind="pso", seed=seed)
    _assert_same(suite_instance(k, 0), budget, cfg, milestones=MILESTONES)


@pytest.mark.parametrize("population", (3, 4))
@pytest.mark.parametrize("seed", (3, 7))
@pytest.mark.parametrize("k", SUITE)
def test_small_swarms_match_oracle(k, seed, population):
    cfg = OptimizerConfig(kind="pso", seed=seed, population=population)
    _assert_same(suite_instance(k, 0), 333, cfg, milestones=MILESTONES)


@pytest.mark.parametrize("population", (4, 100))
@pytest.mark.parametrize("k", SUITE)
def test_threshold_stop_mid_sweep_matches_oracle(k, population):
    """The threshold is the error of an improvement that is neither the
    first nor the last particle of its sweep, so the run must stop there."""
    instance, budget = suite_instance(k, 0), 1000
    cfg = OptimizerConfig(kind="pso", seed=3, population=population)
    full = _record(pso, instance, budget, cfg, -np.inf, ())["history"]
    mid = [(fe, e) for fe, e in full if fe > population and 0 < (fe - 1) % population < population - 1]
    assert mid, "no improvement strictly inside a sweep"
    fe, error = mid[len(mid) // 2]
    stopped = _assert_same(instance, budget, cfg, float.fromhex(error), MILESTONES)
    assert stopped["fe_used"] == stopped["fe_to_success"] == fe


@settings(max_examples=100, deadline=None)
@given(
    random_instances(),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
    st.integers(0, 150),
    st.sampled_from([DEFAULT_THRESHOLD, 1.0, 1e2, 1e4]),
)
def test_random_instances_match_oracle(case, population, seed, extra, threshold):
    instance, _ = case
    cfg = OptimizerConfig(kind="pso", seed=seed, population=population)
    _assert_same(instance, population + extra, cfg, threshold, (population,))
