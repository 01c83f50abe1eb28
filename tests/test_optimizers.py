"""Tests for the three baseline minimizers and their accounting."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnbg import optimizers
from gnbg.core import (
    BOUND_LIMIT,
    BudgetedEvaluator,
    BudgetExhaustedError,
    Component,
    ProblemInstance,
)
from gnbg.generators import (
    SUITE_SIZE,
    ScenarioConfig,
    gen_linearity,
    gen_multicomponent,
    suite_instance,
)
from gnbg.optimizers import OptimizerConfig, run_optimizer
from gnbg.rotation import random_theta
from test_kernel import charge_one


def _quadratic_1d(center=3.0):
    comp = Component(np.array([center]), 0.0, np.array([1.0]))
    return ProblemInstance(1, np.array([-100.0]), np.array([100.0]), (comp,))


class TestOptimizerConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert optimizers.C1 == optimizers.C2 == 2.05
        assert optimizers.CHI == 0.729843788
        assert cfg.population == 100

    def test_fields_are_kind_seed_population(self):
        names = [f.name for f in dataclasses.fields(OptimizerConfig)]
        assert names == ["kind", "seed", "population"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(kind="annealing")

    def test_de_population_checked_at_construction(self):
        with pytest.raises(ValueError, match="population must be >= 4 for DE, got 3"):
            OptimizerConfig(kind="de", population=3)
        assert OptimizerConfig(kind="de", population=4).population == 4

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            OptimizerConfig(seed=-1)


class TestPatternSearch:
    def test_1d_quadratic_recovers_center(self):
        ev = BudgetedEvaluator(_quadratic_1d(), 10_000)
        result = run_optimizer(ev, OptimizerConfig(kind="ps", seed=0), threshold=0.0)
        assert abs(result.best_position[0] - 3.0) <= 1e-6

    def test_budget_one_returns_single_sample(self):
        ev = BudgetedEvaluator(_quadratic_1d(), 1)
        result = run_optimizer(ev, OptimizerConfig(kind="ps", seed=0))
        assert ev.fe_used == 1
        assert result.best_value == result.best_error  # optimum value is 0
        assert not result.success

    def test_history_is_monotone(self):
        ev = BudgetedEvaluator(gen_linearity(1.0), 5_000)
        run_optimizer(ev, OptimizerConfig(kind="ps", seed=1))
        errors = [e for _, e in ev.history]
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_stays_inside_box(self):
        ev = BudgetedEvaluator(_quadratic_1d(center=99.0), 2_000)
        result = run_optimizer(ev, OptimizerConfig(kind="ps", seed=2))
        assert -100.0 <= result.best_position[0] <= 100.0

    def test_determinism(self):
        results = []
        for _ in range(2):
            ev = BudgetedEvaluator(gen_linearity(1.0), 3_000)
            results.append(run_optimizer(ev, OptimizerConfig(kind="ps", seed=5)))
        assert results[0].best_value == results[1].best_value
        assert np.array_equal(results[0].best_position, results[1].best_position)
        assert results[0].fe_used == results[1].fe_used


class _Stop(Exception):
    pass


def oracle_pattern_search(evaluator, cfg, threshold):
    """Pattern search one point per FE, in poll order: the semantics that
    block-wise poll charging must reproduce."""
    rng = np.random.default_rng(cfg.seed)
    lower, upper = evaluator.instance.bounds
    d = evaluator.instance.dim

    def tracked(x):
        value = charge_one(evaluator, x)
        if evaluator.best_error <= threshold:
            raise _Stop
        return value

    initial_mesh = 0.1 * (upper - lower)
    mesh = initial_mesh.copy()
    try:
        x = rng.uniform(lower, upper)
        fx = tracked(x)
        while True:
            axis, sign = np.divmod(rng.permutation(2 * d), 2)
            polls = np.repeat(x[None, :], 2 * d, axis=0)
            polls[np.arange(2 * d), axis] += np.where(sign == 0, mesh[axis], -mesh[axis])
            for y in np.clip(polls, lower, upper):
                value = tracked(y)
                if value < fx:
                    x, fx = y, value
                    mesh = np.minimum(mesh * 2.0, initial_mesh)
                    break
            else:
                mesh = mesh * 0.5
    except (_Stop, BudgetExhaustedError):
        pass


def _run_state(ev):
    return ev.fe_used, float(ev.best_value).hex(), ev.best_position.tobytes(), ev.history


class TestPatternSearchPolls:
    @pytest.mark.parametrize("threshold", [1e-8, 50.0])
    @pytest.mark.parametrize("k", range(1, SUITE_SIZE + 1))
    def test_matches_point_by_point_polls(self, k, threshold):
        instance, cfg = suite_instance(k, 0), OptimizerConfig(kind="ps", seed=2)
        expected = BudgetedEvaluator(instance, 777)
        oracle_pattern_search(expected, cfg, threshold)
        ev = BudgetedEvaluator(instance, 777)
        run_optimizer(ev, cfg, threshold)
        assert _run_state(ev) == _run_state(expected)

    @pytest.mark.parametrize("k,rows", [(21, 15), (9, 60)], ids=["five-components", "one-component"])
    def test_poll_block_size(self, monkeypatch, k, rows):
        """d // 2 rows per call on a multi-component instance, the whole
        poll (2d rows) on a single component; d = 30 here."""
        instance = suite_instance(k, 0)
        ev = BudgetedEvaluator(instance, 2_000)
        sizes = []
        real = BudgetedEvaluator.batch

        def batch(self, X, *args, **kwargs):
            sizes.append(len(X))
            return real(self, X, *args, **kwargs)

        monkeypatch.setattr(BudgetedEvaluator, "batch", batch)
        run_optimizer(ev, OptimizerConfig(kind="ps", seed=0))
        assert sizes[0] == 1
        assert set(sizes[1:]) == {rows}


class TestPso:
    def test_1d_quadratic_small_swarm(self):
        ev = BudgetedEvaluator(_quadratic_1d(), 1_000)
        result = run_optimizer(ev, OptimizerConfig(kind="pso", seed=0, population=3))
        assert result.best_error <= 1e-8

    def test_init_consumes_population_evaluations(self):
        ev = BudgetedEvaluator(gen_linearity(1.0), 100)
        result = run_optimizer(ev, OptimizerConfig(kind="pso", seed=0, population=100))
        assert result.fe_used == 100

    def test_milestones_recorded(self):
        ev = BudgetedEvaluator(gen_linearity(1.0), 2_000)
        result = run_optimizer(ev, OptimizerConfig(kind="pso", seed=1))
        ms = [result.error_at(m) for m in (500, 1_000, 2_000)]
        assert ms[0] >= ms[1] >= ms[2]


_THREE_BUMPS_2D = gen_multicomponent(3, ScenarioConfig(dim=2))


class TestPopulationPastTheBudget:
    """A first batch larger than the budget is charged up to the budget and
    ends the run, as every batch the budget truncates does."""

    @pytest.mark.parametrize("kind", ["pso", "de"])
    def test_first_batch_is_charged_up_to_the_budget(self, kind):
        inst = _quadratic_1d()
        result = run_optimizer(BudgetedEvaluator(inst, 50),
                               OptimizerConfig(kind=kind, seed=0, population=100))
        assert result.fe_used == 50 and not result.success
        # the first 50 of the 100 initial positions, in draw order
        first = np.random.default_rng(0).uniform(inst.lower, inst.upper, size=(100, 1))[:50]
        errors = (first[:, 0] - 3.0) ** 2
        assert result.best_error == errors.min()
        assert result.best_position[0] == first[np.argmin(errors), 0]

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(optimizers.SEARCHES)), st.integers(1, 60), st.data())
    def test_any_population_runs_to_the_budget(self, kind, budget, data):
        """Any population from the kind's least to twice the budget: the run
        never raises and uses the whole budget unless it succeeds."""
        least = 4 if kind == "de" else 1
        population = data.draw(st.integers(least, max(least, 2 * budget)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        result = run_optimizer(BudgetedEvaluator(_THREE_BUMPS_2D, budget),
                               OptimizerConfig(kind=kind, seed=seed, population=population))
        assert result.fe_used <= budget
        assert result.fe_used == budget or result.success


class TestDe:
    def test_small_population_rejected(self):
        ev = BudgetedEvaluator(_quadratic_1d(), 100)
        with pytest.raises(ValueError):
            run_optimizer(ev, OptimizerConfig(kind="de", seed=0, population=3))

    def test_1d_quadratic_converges(self):
        ev = BudgetedEvaluator(_quadratic_1d(), 5_000)
        result = run_optimizer(ev, OptimizerConfig(kind="de", seed=0, population=20))
        assert result.best_error <= 1e-8
        assert result.success
        assert result.fe_to_success == ev.history[-1][0]

    def test_determinism(self):
        results = []
        for _ in range(2):
            ev = BudgetedEvaluator(gen_linearity(1.0), 2_000)
            results.append(run_optimizer(ev, OptimizerConfig(kind="de", seed=3)))
        assert results[0].best_value == results[1].best_value
        assert np.array_equal(results[0].best_position, results[1].best_position)


def oracle_de(evaluator, cfg, threshold):
    """DE one trial per FE, in target order, with the same three draws per
    generation; each target's donors come from a full sort of its keys."""
    rng = np.random.default_rng(cfg.seed)
    lower, upper = evaluator.instance.bounds
    d, n = evaluator.instance.dim, cfg.population

    def tracked(x):
        value = charge_one(evaluator, x)
        if evaluator.best_error <= threshold:
            raise _Stop
        return value

    pop = rng.uniform(lower, upper, size=(n, d))
    try:
        values = [tracked(x) for x in pop]
        while True:
            keys = rng.random((n, n - 1))
            cross = rng.random((n, d)) < 0.9
            forced = rng.integers(d, size=n)
            trials = []
            for i in range(n):
                r1, r2, r3 = (r + (r >= i) for r in np.argsort(keys[i])[:3])
                mutant = pop[r1] + 0.5 * (pop[r2] - pop[r3])
                mask = cross[i].copy()
                mask[forced[i]] = True
                trials.append(np.clip(np.where(mask, mutant, pop[i]), lower, upper))
            trial_values = [tracked(x) for x in trials]
            for i in range(n):
                if trial_values[i] <= values[i]:
                    pop[i], values[i] = trials[i], trial_values[i]
    except (_Stop, BudgetExhaustedError):
        pass


class TestDeGenerations:
    @pytest.mark.parametrize("k", range(1, SUITE_SIZE + 1))
    def test_matches_one_trial_at_a_time(self, k):
        """At the budget (777 FE, mid-generation) and at a threshold taken
        from the middle of the budget run's own history."""
        instance, cfg = suite_instance(k, 0), OptimizerConfig(kind="de", seed=2, population=20)
        runs = []
        for threshold in (1e-8, None):
            if threshold is None:
                threshold = runs[0].history[len(runs[0].history) // 2][1]
            expected = BudgetedEvaluator(instance, 777)
            oracle_de(expected, cfg, threshold)
            ev = BudgetedEvaluator(instance, 777)
            run_optimizer(ev, cfg, threshold)
            assert _run_state(ev) == _run_state(expected)
            runs.append(ev)
        assert runs[0].fe_used == 777 and 20 < runs[1].fe_used < 777


class TestDeDraws:
    """DE's per-generation draw law, over many generations at n = 5, d = 4."""

    N, D, GENERATIONS = 5, 4, 4_000

    def _draws(self):
        rng = np.random.default_rng(0)
        draws = [optimizers._de_draws(rng, self.N, self.D) for _ in range(self.GENERATIONS)]
        return np.stack([d for d, _ in draws]), np.stack([c for _, c in draws])

    def test_donors_distinct_and_never_the_target(self):
        donors, _ = self._draws()
        r1, r2, r3 = np.moveaxis(donors, -1, 0)
        assert ((r1 != r2) & (r1 != r3) & (r2 != r3)).all()
        assert (donors != np.arange(self.N)[:, None]).all()
        assert ((donors >= 0) & (donors < self.N)).all()

    def test_ordered_triples_near_uniform(self):
        donors, _ = self._draws()
        expected = self.GENERATIONS / 24  # 4 * 3 * 2 ordered triples of the 4 others
        for i in range(self.N):
            _, counts = np.unique(donors[:, i], axis=0, return_counts=True)
            assert len(counts) == 24
            chi2 = ((counts - expected) ** 2 / expected).sum()
            assert chi2 < 89.1  # the chi-square(23) quantile at p = 1e-9

    def test_every_trial_takes_a_mutant_coordinate(self):
        _, cross = self._draws()
        assert cross.any(axis=-1).all()

    def test_forced_coordinate_covers_every_axis(self, monkeypatch):
        monkeypatch.setattr(optimizers, "CR", 0.0)  # the forced coordinate alone
        _, cross = self._draws()
        assert (cross.sum(axis=-1) == 1).all()
        assert set(np.argmax(cross, axis=-1).ravel()) == set(range(self.D))

    @pytest.mark.parametrize("n", [4, 5, 20, 100])
    def test_donors_are_the_three_smallest_keys_in_key_order(self, n):
        rng = np.random.default_rng(n)
        keys = np.random.default_rng(n).random((n, n - 1))  # the draw _de_draws takes first
        donors, _ = optimizers._de_draws(rng, n, self.D)
        r = np.argsort(keys, axis=1, kind="stable")[:, :3]
        assert np.array_equal(donors, r + (r >= np.arange(n)[:, None]))


class TestThresholdStop:
    def test_run_stops_at_threshold(self):
        ev = BudgetedEvaluator(gen_linearity(1.0), 100_000)
        result = run_optimizer(
            ev, OptimizerConfig(kind="ps", seed=0), threshold=1e5
        )
        assert result.success
        assert result.fe_to_success == ev.fe_used
        assert ev.fe_used < 1_000

    def test_success_fields_consistent(self):
        ev = BudgetedEvaluator(gen_linearity(1.0), 500)
        result = run_optimizer(ev, OptimizerConfig(kind="ps", seed=0))
        assert result.success == (result.fe_to_success is not None)

    @pytest.mark.parametrize("threshold", [np.inf, np.nan])
    def test_threshold_not_below_inf_rejected(self, threshold):
        # at inf, a run that sees no finite value would count as a success
        ev = BudgetedEvaluator(gen_linearity(1.0), 50)
        with pytest.raises(ValueError, match="threshold must be below inf"):
            run_optimizer(ev, OptimizerConfig(kind="ps", seed=0), threshold=threshold)
        assert ev.fe_used == 0

    @pytest.mark.parametrize("kind", ["ps", "pso", "de"])
    def test_minus_inf_threshold_runs_the_whole_budget(self, kind):
        ev = BudgetedEvaluator(gen_linearity(1.0), 50)
        result = run_optimizer(ev, OptimizerConfig(kind=kind, seed=0, population=4), -np.inf)
        assert (result.fe_used, result.success, result.fe_to_success) == (50, False, None)


@pytest.mark.parametrize("kind", ["ps", "pso", "de"])
def test_spent_budget_charges_nothing(kind):
    ev = BudgetedEvaluator(gen_linearity(1.0), 10)
    ev.batch(np.ones((10, 30)))
    before = _run_state(ev)
    result = run_optimizer(ev, OptimizerConfig(kind=kind, seed=0, population=4))
    assert _run_state(ev) == before
    assert (result.fe_used, result.best_value, result.success) == (10, ev.best_value, False)


def test_dispatch_by_kind():
    ev = BudgetedEvaluator(_quadratic_1d(), 200)
    result = run_optimizer(ev, OptimizerConfig(kind="ps", seed=0))
    assert result.fe_used <= 200
    assert result.best_error <= 1e-8


@st.composite
def boxed_instances(draw):
    """A one-component instance in a box anywhere inside +-BOUND_LIMIT, its
    limits included and each dimension its own, with its centre anywhere in
    the box, h from 1e-300 to 1e300, and half the time a dense rotation."""
    d = draw(st.integers(1, 40))
    end = st.sampled_from([-BOUND_LIMIT, BOUND_LIMIT]) | st.floats(-BOUND_LIMIT, BOUND_LIMIT)
    ends = [sorted(draw(st.lists(end, min_size=2, max_size=2, unique=True))) for _ in range(d)]
    lower, upper = np.array(ends).T
    u = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d)))
    center = np.clip(lower + u * (upper - lower), lower, upper)
    h = np.full(d, 10.0 ** draw(st.integers(-300, 300)))
    seed = draw(st.integers(0, 2**32 - 1))
    theta = random_theta(d, 1.0, np.random.default_rng(seed)) if draw(st.booleans()) else None
    return ProblemInstance(d, lower, upper, (Component(center, 0.0, h, theta=theta),)), seed


class _BoxChecked(BudgetedEvaluator):
    """Asserts that every row a search yields is finite and inside the box."""

    def batch(self, X, *args, **kwargs):
        lower, upper = self.instance.bounds
        assert np.isfinite(X).all() and (lower <= X).all() and (X <= upper).all()
        return super().batch(X, *args, **kwargs)


class TestBoxLimit:
    @settings(max_examples=60, deadline=None)
    @given(boxed_instances())
    def test_searches_stay_finite_in_any_box_within_the_limit(self, case):
        """No search step overflows and no row leaves the box: each run
        finishes under over and invalid = "raise"."""
        inst, seed = case
        for kind in ("ps", "pso", "de"):
            ev = _BoxChecked(inst, 2_000)
            with np.errstate(over="raise", invalid="raise"):
                run_optimizer(ev, OptimizerConfig(kind=kind, seed=seed))
            assert ev.fe_used == 2_000 or ev.best_error <= optimizers.DEFAULT_THRESHOLD

    def test_run_leaves_the_callers_error_state_alone(self):
        """``run_optimizer`` sets no error state of its own: PSO's velocity
        overflows in a +-6e307 box, forced past the limit after the instance
        is built, and that raises under over="raise"."""
        inst = _quadratic_1d(0.0)
        object.__setattr__(inst, "lower", np.array([-6e307]))
        object.__setattr__(inst, "upper", np.array([6e307]))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            run_optimizer(BudgetedEvaluator(inst, 2_000), OptimizerConfig(kind="pso", seed=0))
