"""Exactness of the stacked evaluation kernel and of batched FE charging.

The oracle below is the per-component evaluation the kernel replaced: one
component at a time, transform included, minimum taken in Python.  The
kernel must reproduce it bit for bit, one point at a time and in batches.
"""

import dataclasses
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnbg import core
from gnbg.core import (
    BudgetedEvaluator,
    BudgetExhaustedError,
    Component,
    ProblemInstance,
    evaluate,
    evaluate_batch,
)
from gnbg.generators import (
    ScenarioConfig,
    gen_interaction,
    gen_multicomponent,
    gen_multimodal,
    suite_instance,
)
from gnbg.instance_io import export_grid
from gnbg.rotation import random_theta
from gnbg.transform import TransformParams, apply_transform, modulate, sign_table

_TINY = np.finfo(float).tiny


def oracle_transform(a, params):
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("transform input must be finite")
    if params.is_identity:
        return a.copy()
    mu1, mu2 = params.mu
    w1, w2, w3, w4 = params.omega
    out = a.copy()
    mag = np.abs(a)
    pos = a >= _TINY
    neg = a <= -_TINY
    if np.any(pos):
        la = np.log(mag[pos])
        out[pos] = np.exp(la + mu1 * (np.sin(w1 * la) + np.sin(w2 * la)))
    if np.any(neg):
        la = np.log(mag[neg])
        out[neg] = -np.exp(la + mu2 * (np.sin(w3 * la) + np.sin(w4 * la)))
    return out


def oracle_component(comp, x):
    x = np.asarray(x, dtype=float)
    z = x - comp.center
    if comp.rotation is not None:
        z = comp.rotation @ z
    t = oracle_transform(z, comp.transform)
    q = float(np.dot(t * comp.h_diag, t))
    return comp.sigma + q**comp.lam


def oracle_evaluate(instance, x):
    return min(oracle_component(c, x) for c in instance.components)


def _probe_points(instance, rng, count):
    """Uniform points in the box, and per component: a point close to its
    center, its center, and a point on its center in every other coordinate
    (zeros among non-zeros in an unrotated transform input)."""
    d = instance.dim
    uniform = rng.uniform(instance.lower, instance.upper, size=(count, d))
    rows = [uniform]
    for c in instance.components:
        mixed = c.center.copy()
        mixed[::2] = uniform[0, ::2]
        rows += [c.center + 10.0 ** -rng.integers(0, 9) * rng.standard_normal(d), c.center, mixed]
    return np.vstack(rows)


def _assert_exact(instance, X):
    batch = evaluate_batch(instance, X)
    assert batch.shape == (len(X),)
    for i, x in enumerate(X):
        expected = oracle_evaluate(instance, x)
        assert evaluate(instance, x) == expected
        assert batch[i] == expected


class TestAgainstOracle:
    @pytest.mark.parametrize("k", range(1, 25))
    def test_suite_instances(self, k):
        inst = suite_instance(k, 3)
        _assert_exact(inst, _probe_points(inst, np.random.default_rng(k), 40))

    @pytest.mark.parametrize("seed", range(4))
    def test_generator_instances(self, seed):
        cfg = ScenarioConfig(dim=7, seed=seed)
        for inst in (
            gen_multimodal(0.5, 20.0, cfg),
            gen_multicomponent(6, cfg),
            gen_interaction(p_prob=0.4, cfg=cfg),
        ):
            _assert_exact(inst, _probe_points(inst, np.random.default_rng(seed), 40))

    def test_mixed_frequencies_fall_back_to_two_sines(self):
        """One component with equal frequencies next to one without: the
        stacked table keeps both frequency rows."""
        rng = np.random.default_rng(5)
        equal = TransformParams((0.4, 0.6), (20, 20, 35, 35))
        unequal = TransformParams((0.3, 0.5), (10, 25, 40, 15))
        assert sign_table([equal]).shape == (2, 2)
        assert sign_table([equal, unequal]).shape == (3, 4)
        components = tuple(
            Component(center=rng.uniform(-50, 50, 5), sigma=sigma, h_diag=np.ones(5),
                      transform=params)
            for sigma, params in ((0.0, equal), (1.0, unequal))
        )
        inst = ProblemInstance(5, np.full(5, -100.0), np.full(5, 100.0), components)
        _assert_exact(inst, _probe_points(inst, rng, 60))

    def test_one_component_instance_is_its_component(self):
        rng = np.random.default_rng(0)
        comp = suite_instance(24, 0).components[2]
        box = np.full(comp.dim, 100.0)
        inst = ProblemInstance(comp.dim, -box, box, (comp,))
        for x in rng.uniform(-100, 100, size=(50, comp.dim)):
            assert evaluate(inst, x) == oracle_component(comp, x)

    def test_apply_transform_matches(self):
        rng = np.random.default_rng(1)
        # zeros and subnormals (passed through) scattered among modulated values
        a = rng.uniform(-100, 100, 500)
        a[rng.choice(500, 60, replace=False)] = rng.choice([0.0, -0.0, 1e-310, -1e-310, 1.0], 60)
        for params in (
            TransformParams(),
            TransformParams((0.5, 0.0), (10, 20, 30, 40)),
            TransformParams((0.2, 0.9), (0, 0, 60, 1)),
            TransformParams((0.3, 0.7), (20, 20, 50, 50)),  # one sin per element
        ):
            assert np.array_equal(apply_transform(a, params), oracle_transform(a, params))


@st.composite
def random_instances(draw):
    d = draw(st.integers(1, 6))
    o = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    components = []
    for _ in range(o):
        rotation, theta = None, None
        kind = draw(st.sampled_from(["none", "theta", "dense"]))
        if kind == "theta" and d > 1:
            theta = random_theta(d, 1.0, rng)
        elif kind == "dense":
            rotation = np.linalg.qr(rng.standard_normal((d, d)))[0]
        shape = draw(st.sampled_from(["identity", "active", "one-sided", "equal-frequency"]))
        if shape == "identity":
            transform = TransformParams()
        else:
            mu = tuple(rng.uniform(0.05, 1.0, 2))
            if shape == "one-sided":
                mu = (mu[0], 0.0)
            omega = rng.uniform(0.0, 60.0, 4)
            if shape == "equal-frequency":
                omega[1], omega[3] = omega[0], omega[2]
            transform = TransformParams(mu, tuple(omega))
        components.append(Component(
            center=rng.uniform(-80, 80, d),
            sigma=draw(st.floats(-1e3, 1e3)),
            h_diag=10.0 ** rng.uniform(-3, 3, d),
            lam=draw(st.sampled_from([1.0, 1.0, 0.05, 0.25, 0.5, 0.9, 1.7])),
            transform=transform,
            theta=theta,
            rotation=rotation,
        ))
    inst = ProblemInstance(d, np.full(d, -100.0), np.full(d, 100.0), tuple(components))
    return inst, _probe_points(inst, rng, 12)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(random_instances())
    def test_batch_rows_equal_single_points_and_oracle(self, case):
        inst, X = case
        _assert_exact(inst, X)

    @settings(max_examples=150, deadline=None)
    @given(random_instances())
    def test_floor_and_optimum(self, case):
        inst, X = case
        assert np.all(evaluate_batch(inst, X) >= inst.optimum_value)
        assert evaluate(inst, inst.optimum_position) == inst.optimum_value


class TestEvaluateBatch:
    def test_blocks_are_row_exact(self):
        inst = suite_instance(19, 0)
        X = np.random.default_rng(2).uniform(-100, 100, size=(2500, inst.dim))
        values = evaluate_batch(inst, X)
        assert np.array_equal(values[1000:1100], evaluate_batch(inst, X[1000:1100]))
        assert all(values[i] == evaluate(inst, X[i]) for i in range(0, 2500, 97))

    def test_empty_batch(self):
        inst = suite_instance(1, 0)
        assert evaluate_batch(inst, np.empty((0, inst.dim))).shape == (0,)

    @pytest.mark.parametrize("shape", [(30,), (4, 29), (2, 3, 30)])
    def test_shape_checked(self, shape):
        with pytest.raises(ValueError, match="X must have shape"):
            evaluate_batch(suite_instance(1, 0), np.zeros(shape))

    def test_point_shape_checked(self):
        with pytest.raises(ValueError, match=r"x must have shape \(30,\), got \(29,\)"):
            evaluate(suite_instance(16, 0), np.zeros(29))

    @pytest.mark.parametrize("k", [1, 9, 16, 24])
    def test_non_finite_rejected(self, k):
        inst = suite_instance(k, 0)
        X = np.zeros((3, inst.dim))
        X[1, 4] = np.nan
        with pytest.raises(ValueError, match="transform input must be finite"):
            evaluate_batch(inst, X)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="must be finite"):
            evaluate(inst, np.full(inst.dim, np.inf))

    def test_compiled_view_is_not_pickled(self):
        inst = suite_instance(24, 0)
        evaluate(inst, np.zeros(inst.dim))
        again = pickle.loads(pickle.dumps(inst))
        assert "_kernel" not in again.__dict__
        x = np.ones(inst.dim)
        assert evaluate(again, x) == evaluate(inst, x)


def charge_one(ev, x):
    """The scalar charging oracle: one FE for the point ``x`` on the
    evaluator ``ev``, with its budget check and its best-value, best-position
    and history bookkeeping written out for one point."""
    if ev.fe_used >= ev.max_fe:
        raise BudgetExhaustedError(f"evaluation budget of {ev.max_fe} exhausted")
    ev.fe_used += 1
    value = evaluate(ev.instance, x)
    if value < ev.best_value:
        ev.best_value = value
        ev.best_position = np.array(x, dtype=float)
        ev.history.append((ev.fe_used, ev.best_error))
    return value


def _scalar_replay(instance, X, max_fe, threshold=None, stop_below=None, warmup=()):
    """What successive scalar calls do: charge, then stop where the batch
    method documents it stops."""
    ev = BudgetedEvaluator(instance, max_fe)
    for x in warmup:
        charge_one(ev, x)
    for x in X:
        if ev.fe_used >= ev.max_fe:
            break
        value = charge_one(ev, x)
        if threshold is not None and ev.best_error <= threshold:
            break
        if stop_below is not None and value < stop_below:
            break
    return ev


def _state(ev):
    pos = None if ev.best_position is None else ev.best_position.tobytes()
    return ev.fe_used, ev.best_value, pos, ev.history


class TestBudgetedBatch:
    inst = suite_instance(9, 0)
    X = np.random.default_rng(3).uniform(-100, 100, size=(40, 30))

    def test_same_state_as_scalar_calls(self):
        ev = BudgetedEvaluator(self.inst, 100)
        X = self.X.copy()
        values = ev.batch(X)
        assert values.tolist() == [evaluate(self.inst, x) for x in self.X]
        X[:] = 0.0  # the best position is a copy, not a view of the batch
        assert _state(ev) == _state(_scalar_replay(self.inst, self.X, 100))

    def test_stops_at_budget(self):
        ev = BudgetedEvaluator(self.inst, 10)
        ev(self.X[0])
        values = ev.batch(self.X[1:])
        assert len(values) == 9 and ev.fe_used == 10
        assert _state(ev) == _state(_scalar_replay(self.inst, self.X, 10))
        with pytest.raises(BudgetExhaustedError):
            ev.batch(self.X)

    def test_stops_at_threshold(self):
        errors = [evaluate(self.inst, x) - self.inst.optimum_value for x in self.X]
        threshold = sorted(errors)[5]  # reached part-way through the rows
        ev = BudgetedEvaluator(self.inst, 100)
        values = ev.batch(self.X, threshold=threshold)
        first = next(i for i, e in enumerate(errors) if e <= threshold)
        assert len(values) == first + 1 == ev.fe_used
        assert ev.best_error <= threshold
        assert _state(ev) == _state(_scalar_replay(self.inst, self.X, 100, threshold=threshold))

    def test_stops_at_first_value_below(self):
        ev = BudgetedEvaluator(self.inst, 100)
        ev(self.X[0])
        f0 = ev.best_value
        values = ev.batch(self.X[1:], stop_below=f0)
        first = next(i for i, x in enumerate(self.X[1:]) if evaluate(self.inst, x) < f0)
        assert len(values) == first + 1 and values[-1] < f0
        assert ev.fe_used == first + 2
        replay = _scalar_replay(self.inst, self.X[1:], 100, stop_below=f0, warmup=self.X[:1])
        assert _state(ev) == _state(replay)

    @pytest.mark.parametrize("k", [1, 9, 24])
    def test_one_point_call_is_the_scalar_oracle(self, k):
        """``ev(x)`` leaves the state one scalar charge leaves, up to and
        past the budget."""
        inst = suite_instance(k, 0)
        X = np.random.default_rng(k).uniform(-100, 100, size=(12, inst.dim))
        X[7] = inst.optimum_position  # an improvement after several others
        ev, oracle = BudgetedEvaluator(inst, 10), BudgetedEvaluator(inst, 10)
        for x in X[:10]:
            assert ev(x) == charge_one(oracle, x)
            assert _state(ev) == _state(oracle)
        for x in X[10:]:
            with pytest.raises(BudgetExhaustedError):
                ev(x)
            with pytest.raises(BudgetExhaustedError):
                charge_one(oracle, x)
            assert _state(ev) == _state(oracle)


@st.composite
def screened_cases(draw):
    """An instance of 2-6 components, all transformed and sharing one
    lambda, as the screen serves, and rows that stress its bounds: exact
    ties (a component repeated), a centre shared by every component (as in
    f23), components at the origin with rows whose z is in float32's
    subnormal range, rows at a centre (z = 0), h up to 1.6e308 with lambda
    up to 2, h down to 1e-315 (subnormal products), and, when drawn, sigmas
    that bring every component's value at the first row within 1e-4
    relative of the others'."""
    d = draw(st.integers(1, 6))
    o = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = draw(st.sampled_from([None, "random", "origin"]))
    shared_center = np.zeros(d) if shared == "origin" else rng.uniform(-80, 80, d)
    lam = draw(st.sampled_from([1.0, 1.0, 0.05, 0.25, 0.5, 0.9, 1.5, 2.0]))
    components = []
    for _ in range(o):
        if components and draw(st.integers(0, 4)) == 0:
            components.append(components[rng.integers(len(components))])
            continue
        if shared is not None:
            center = shared_center
        else:
            center = np.zeros(d) if draw(st.integers(0, 3)) == 0 else rng.uniform(-80, 80, d)
        omega = rng.uniform(0.0, 100.0, 4)
        if draw(st.booleans()):
            omega[1], omega[3] = omega[0], omega[2]
        transform = TransformParams(tuple(rng.uniform(0.0, 1.0, 2)), tuple(omega))
        h_range = draw(st.sampled_from([(-3, 3), (-3, 3), (150, 308.2), (-315, -250)]))
        components.append(Component(
            center=center,
            sigma=draw(st.floats(-1e3, 1e3)),
            h_diag=10.0 ** rng.uniform(*h_range, d),
            lam=lam,
            transform=transform,
            rotation=np.linalg.qr(rng.standard_normal((d, d)))[0] if draw(st.booleans()) else None,
        ))
    box = np.full(d, 100.0)
    rows = [rng.uniform(-100, 100, size=(8, d)),
            10.0 ** -rng.uniform(36, 46, size=(4, 1)) * rng.standard_normal((4, d))]
    for c in components:
        rows += [c.center[None], c.center + 10.0 ** -rng.integers(1, 12) * rng.standard_normal(d)]
    X = np.vstack(rows)
    if draw(st.booleans()):  # near ties at X[0]
        parts = []
        for c in components:
            one = ProblemInstance(d, -box, box, (dataclasses.replace(c, sigma=0.0),))
            with np.errstate(over="ignore"):
                parts.append(evaluate(one, X[0]))
        offsets = 10.0 ** -rng.uniform(4, 12, o) * rng.choice([-1.0, 1.0], o)
        components = [dataclasses.replace(c, sigma=-p * (1.0 + r)) if np.isfinite(p) else c
                      for c, p, r in zip(components, parts, offsets)]
    return ProblemInstance(d, -box, box, tuple(components)), X


class TestScreen:
    """The screened kernel against the exact one it stands in for."""

    @settings(max_examples=300, deadline=None)
    @given(screened_cases())
    def test_screen_is_the_exact_kernel(self, case):
        inst, X = case
        kernel = inst._kernel
        with np.errstate(over="ignore"):  # h near the largest float overflows forms
            assert np.array_equal(kernel.screen(X), kernel.exact(X))

    def test_h_near_the_largest_float(self):
        """h / 2**e is scaled without forming 2**1024: a component with h
        above 2**1023 keeps a true upper bound, so it cannot screen out
        the smaller component that is each row's minimum."""
        transform = TransformParams((0.3, 0.4), (10, 20, 30, 40))
        components = (Component(np.zeros(2), 0.0, np.full(2, 1.6e308), transform=transform),
                      Component(np.zeros(2), 1e272, np.ones(2), transform=transform),
                      Component(np.full(2, -50.0), 1e300, np.ones(2), transform=transform))
        inst = ProblemInstance(2, np.full(2, -100.0), np.full(2, 100.0), components)
        X = np.arange(1.0, 5.0)[:, None] * np.full((4, 2), 1e-18)
        assert inst._kernel.screen(X).tolist() == [1e272] * 4

    def test_form_that_overflows_before_its_power(self):
        """The exact path's quadratic form overflows to inf even where
        lam < 1 would bring the value back into range; such a component's
        upper bound is inf, so it cannot screen out the finite minimum, a
        component whose sigma alone is larger than that bound would be."""
        transform = TransformParams((0.3, 0.4), (10, 20, 30, 40))
        components = (Component(np.zeros(2), 0.0, np.full(2, 1e306), lam=0.05,
                                transform=transform),
                      Component(np.full(2, 50.0), 1e16, np.full(2, 1e300), lam=0.05,
                                transform=transform))
        inst = ProblemInstance(2, np.full(2, -100.0), np.full(2, 100.0), components)
        X = np.array([[-50.0, -50.0], [-60.0, -40.0]])
        with np.errstate(over="ignore"):
            exact = inst._kernel.exact(X)
            assert np.array_equal(inst._kernel.screen(X), exact)
        assert np.isfinite(exact).all()

    def test_screen_transforms_about_one_component_per_row(self, monkeypatch):
        """On fresh f24 rows, a 100-row batch sends at most 1.1 components per
        row through the exact transform (the exact path sends all 5), and
        its values are a one-row loop's, bit for bit."""
        inst = suite_instance(24, 0)
        X = np.random.default_rng(0).uniform(-100, 100, size=(100, inst.dim))
        counted = []

        def counting(a, *args):
            counted.append(a.size)
            return modulate(a, *args)

        monkeypatch.setattr(core, "modulate", counting)
        values = evaluate_batch(inst, X)
        assert 0 < sum(counted) <= 1.1 * 100 * inst.dim
        monkeypatch.undo()
        assert np.array_equal(values, [evaluate(inst, x) for x in X])


class TestScreenDispatch:
    """Which instances the screen serves: o >= 3 components, all transformed,
    one lambda.  Every other instance takes the exact path at any size."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_suite_screened_set(self, seed):
        rows = {k: suite_instance(k, seed)._kernel.screen_rows for k in range(1, 25)}
        assert {k for k, n in rows.items() if n != np.inf} == {18, 19, 20, 21, 23, 24}
        assert {rows[k] for k in (18, 19, 20, 21, 23, 24)} == {16}

    def _mixed(self, untransformed, lams):
        rng = np.random.default_rng(7)
        d = 4
        components = []
        for k, lam in enumerate(lams):
            transform = (TransformParams() if k == untransformed else
                         TransformParams(tuple(rng.uniform(0.1, 0.5, 2)),
                                         tuple(rng.uniform(5.0, 50.0, 4))))
            components.append(Component(rng.uniform(-80, 80, d), float(k),
                                        10.0 ** rng.uniform(-1, 1, d), lam=lam,
                                        transform=transform, theta=random_theta(d, 0.5, rng)))
        box = np.full(d, 100.0)
        return ProblemInstance(d, -box, box, tuple(components))

    @pytest.mark.parametrize("untransformed, lams", [
        (3, [1.0, 1.0, 1.0, 1.0]),  # an untransformed component among 3 transformed
        (None, [0.5, 0.5, 1.5, 0.5]),  # 4 transformed components with two lambdas
    ])
    def test_mixed_instance_is_exact(self, untransformed, lams):
        inst = self._mixed(untransformed, lams)
        assert inst._kernel.screen_rows == np.inf
        X = np.random.default_rng(1).uniform(-100, 100, size=(100, inst.dim))
        assert evaluate_batch(inst, X).tolist() == [oracle_evaluate(inst, x) for x in X]


class TestPowerOverflow:
    """A lambda > 1 power beyond float's range is inf, as the quadratic
    form's own overflow is, and every finite value keeps its bits."""

    def _instance(self, d=2):
        comp = Component(np.zeros(d), 0.0, np.full(d, 1e250), lam=1.5)
        return ProblemInstance(d, np.full(d, -100.0), np.full(d, 100.0), (comp,))

    def test_overflowing_power_is_inf(self):
        inst = self._instance()
        assert evaluate(inst, np.full(2, 50.0)) == np.inf
        X = np.array([[50.0, 50.0], [1e-60, 0.0], [0.0, 0.0], [3e-100, -2e-100]])
        expected = [np.inf, (1e250 * 1e-60 * 1e-60) ** 1.5, 0.0,
                    oracle_evaluate(inst, X[3])]
        assert evaluate_batch(inst, X).tolist() == expected
        assert [evaluate(inst, x) for x in X] == expected


def _two_far_basins():
    """Components at 0 and (1e200, 1e200) in a +-1e200 box: valid, and the
    quadratic form overflows away from either centre."""
    box = np.full(2, 1e200)
    near = Component(np.zeros(2), 0.0, np.ones(2))
    far = Component(np.full(2, 1e200), 1.0, np.ones(2))
    return ProblemInstance(2, -box, box, (near, far))


class TestOverflowIsQuiet:
    """An FE that overflows is inf, with no warning, through every entry:
    the kernel itself ignores overflow."""

    @pytest.mark.parametrize("entry, expected", [
        (lambda inst: evaluate(inst, np.array([1e200, -1e200])), np.inf),
        (lambda inst: evaluate_batch(inst, np.array([[1e200, -1e200], [0.0, 0.0]])).tolist(),
         [np.inf, 0.0]),
        (core.dominated_components, []),
        (lambda inst: export_grid(inst, 0, 1, 3, np.zeros(2))["values"],
         [[None] * 3, [None, 0.0, None], [None, None, 1.0]]),
        (lambda inst: BudgetedEvaluator(inst, 5).batch(np.array([[1e200, -1e200], [1.0, 1.0]])).tolist(),
         [np.inf, 2.0]),
    ], ids=["evaluate", "evaluate_batch", "dominated_components", "export_grid",
            "BudgetedEvaluator.batch"])
    def test_entry_is_quiet(self, entry, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert entry(_two_far_basins()) == expected

