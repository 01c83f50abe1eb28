"""Tests for the component model, evaluation pipeline, and FE accounting."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gnbg.core import (
    BudgetedEvaluator,
    BudgetExhaustedError,
    Component,
    ProblemInstance,
    classify,
    dominated_components,
    evaluate,
)
from gnbg.optimizers import DEFAULT_THRESHOLD, _finish
from gnbg.rotation import ThetaSpec, random_theta, rotation_from_theta
from gnbg.transform import TransformParams, apply_transform


def _component(d=2, **kwargs):
    defaults = dict(center=np.zeros(d), sigma=0.0, h_diag=np.ones(d))
    defaults.update(kwargs)
    return Component(**defaults)


def _instance(components, d=2, bound=100.0):
    return ProblemInstance(
        d, np.full(d, -bound), np.full(d, bound), tuple(components)
    )


class TestComponent:
    def test_nonpositive_h_rejected(self):
        with pytest.raises(ValueError):
            _component(h_diag=np.array([1.0, 0.0]))

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ValueError):
            _component(lam=0.0)

    def test_condition_number(self):
        comp = _component(h_diag=np.array([2.0, 500.0]))
        assert comp.condition_number == 250.0

    @pytest.mark.parametrize(
        "lam,label",
        [(0.25, "sub-linear"), (0.5, "linear"), (0.75, "super-linear"), (1.0, "super-linear")],
    )
    def test_basin_linearity_classes(self, lam, label):
        assert _component(lam=lam).basin_linearity == label

    def test_rotation_built_from_theta(self):
        comp = _component(theta=ThetaSpec.from_triples(2, [(1, 2, np.pi / 4)]))
        assert comp.is_rotated
        assert np.allclose(comp.rotation @ comp.rotation.T, np.eye(2), atol=1e-14)

    def test_non_orthogonal_rotation_rejected(self):
        with pytest.raises(ValueError):
            _component(rotation=np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestEvalComponent:
    """One component evaluated alone, as a one-component instance."""

    def test_value_at_center_is_sigma_exact(self):
        comp = _component(
            d=5,
            center=np.array([1.0, -2.0, 3.0, 0.5, -7.0]),
            sigma=-123.456,
            h_diag=np.array([1.0, 10.0, 100.0, 0.5, 2.0]),
            lam=0.3,
            transform=TransformParams((1.0, 0.5), (50, 25, 10, 5)),
            theta=random_theta(5, 1.0, np.random.default_rng(0)),
        )
        assert evaluate(_instance([comp], 5), comp.center) == -123.456

    def test_sphere_point(self):
        assert evaluate(_instance([_component()]), np.array([3.0, 4.0])) == 25.0

    def test_ellipsoid_equivalence(self):
        d = 30
        h = 10.0 ** (6 * np.arange(d) / (d - 1))
        inst = _instance([_component(d=d, center=np.zeros(d), h_diag=h)], d)
        rng = np.random.default_rng(1)
        for x in rng.uniform(-100, 100, size=(100, d)):
            expected = float(np.sum(h * x**2))
            assert evaluate(inst, x) == pytest.approx(expected, rel=1e-12)

    def test_scaling_law_with_exponent(self):
        d = 6
        h = np.array([1.0, 3.0, 10.0, 0.5, 7.0, 2.0])
        inst = _instance([_component(d=d, center=np.zeros(d), h_diag=h, lam=0.35)], d)
        rng = np.random.default_rng(2)
        for x in rng.uniform(-50, 50, size=(50, d)):
            expected = float(np.sum(h * x**2)) ** 0.35
            assert evaluate(inst, x) == pytest.approx(expected, rel=1e-12)

    def test_rotation_keeps_minimum_in_place(self):
        rng = np.random.default_rng(3)
        center = rng.uniform(-50, 50, size=8)
        comp = _component(
            d=8, center=center, h_diag=rng.uniform(1, 100, size=8),
            theta=random_theta(8, 1.0, rng),
        )
        assert evaluate(_instance([comp], 8), center) == comp.sigma

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate(_instance([_component()]), np.zeros(3))


class TestProblemInstance:
    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            ProblemInstance(2, np.array([0.0, 0.0]), np.array([1.0, 0.0]), (_component(),))

    def test_center_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            _instance([_component(center=np.array([150.0, 0.0]))])

    def test_optimum_is_lowest_sigma_component(self):
        a = _component(center=np.array([10.0, 10.0]), sigma=5.0)
        b = _component(center=np.array([-20.0, 30.0]), sigma=-3.0)
        inst = _instance([a, b])
        assert inst.optimum_index == 1
        assert inst.optimum_value == -3.0
        assert np.array_equal(inst.optimum_position, b.center)

    def test_sigma_tie_takes_lowest_index(self):
        a = _component(center=np.array([1.0, 1.0]), sigma=-2.0)
        b = _component(center=np.array([5.0, 5.0]), sigma=-2.0)
        assert _instance([a, b]).optimum_index == 0

    def test_optimum_is_read_without_building_the_kernel(self):
        a = _component(center=np.array([1.0, 1.0]), sigma=4.0)
        b = _component(center=np.array([5.0, 5.0]), sigma=-2.0)
        inst = _instance([a, b])
        assert (inst.optimum_value, inst.optimum_index) == (-2.0, 1)
        assert classify(inst)["optimum_value"] == -2.0
        assert BudgetedEvaluator(inst, 5).best_error == np.inf
        assert "_kernel" not in inst.__dict__

    def test_evaluate_is_min_over_components(self):
        a = _component(sigma=0.0)
        b = _component(center=np.array([50.0, 50.0]), sigma=5.0)
        inst = _instance([a, b])
        x = np.array([50.0, 50.0])
        assert evaluate(inst, x) == min(evaluate(_instance([a]), x), evaluate(_instance([b]), x))
        # the wide sigma=0 basin can undercut the sigma=5 component at its own center
        assert evaluate(inst, x) <= 5.0

    def test_never_below_optimum_value(self):
        inst = _instance([_component(sigma=-7.0)])
        rng = np.random.default_rng(4)
        values = [evaluate(inst, x) for x in rng.uniform(-100, 100, size=(1000, 2))]
        assert min(values) >= -7.0


class TestDominatedComponents:
    def test_single_component_never_dominated(self):
        assert dominated_components(_instance([_component()])) == []

    def test_covered_center_detected(self):
        # a tiny high-floor bump deep inside a huge low-floor basin
        wide = _component(sigma=-100.0, h_diag=np.array([1e-4, 1e-4]))
        tiny = _component(center=np.array([1.0, 1.0]), sigma=0.0, h_diag=np.array([50.0, 50.0]))
        inst = _instance([wide, tiny])
        assert dominated_components(inst) == [1]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        comps = [
            _component(
                d=4, center=rng.uniform(-80, 80, size=4),
                sigma=float(rng.uniform(-1000, 0)),
                h_diag=np.full(4, float(rng.uniform(0.001, 0.1))),
            )
            for _ in range(8)
        ]
        inst = ProblemInstance(4, np.full(4, -100.0), np.full(4, 100.0), tuple(comps))
        expected = [
            k for k, c in enumerate(comps)
            if evaluate(inst, c.center) < c.sigma - 1e-12 * max(1.0, abs(c.sigma))
        ]
        assert dominated_components(inst) == expected


class TestClassify:
    def test_plain_sphere_record(self):
        record = classify(_instance([_component(d=30, center=np.zeros(30), h_diag=np.ones(30))], d=30))
        assert record["modality"] == "unimodal"
        assert record["separability"] == "fully-separable"
        assert record["symmetric"] is True
        assert record["condition_number"] == 1.0
        assert record["basin_linearity"] == "super-linear"

    def test_linear_basin_class(self):
        record = classify(_instance([_component(lam=0.5)]))
        assert record["basin_linearity"] == "linear"

    def test_transform_makes_multimodal(self):
        comp = _component(transform=TransformParams((0.5, 0.5), (10, 10, 10, 10)))
        record = classify(_instance([comp]))
        assert record["modality"] == "multimodal"
        assert record["basin_local_optima"] is True

    @pytest.mark.parametrize("mu,omega,symmetric", [
        ((0.2, 0.2), (20, 20, 20, 20), True),
        ((0.2, 0.2), (20, 50, 20, 50), True),
        ((0.2, 0.2), (20, 50, 50, 20), True),
        ((0.4, 0.2), (10, 0, 10, 10), True),  # one term of 0.4, two of 0.2
        ((0.0, 0.0), (10, 20, 30, 40), True),  # the identity
        ((0.2, 0.5), (20, 50, 10, 25), False),
        ((0.5, 0.0), (10, 10, 10, 10), False),
        ((0.2, 0.2), (20, 50, 20, 0), False),
    ])
    def test_symmetric_cases(self, mu, omega, symmetric):
        record = classify(_instance([_component(transform=TransformParams(mu, omega))]))
        assert record["symmetric"] is symmetric

    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(*[st.sampled_from([0.0, 0.2, 0.4, 0.5])] * 2),
        st.tuples(*[st.sampled_from([0.0, 10.0, 20.0, 50.0])] * 4),
    )
    def test_symmetric_exactly_when_odd(self, mu, omega):
        params = TransformParams(mu, omega)
        a = np.geomspace(1e-3, 1e3, 97)
        odd = np.allclose(apply_transform(-a, params), -apply_transform(a, params), rtol=1e-14, atol=0)
        assert classify(_instance([_component(transform=params)]))["symmetric"] is odd

    def test_multi_component_is_non_separable(self):
        a = _component(sigma=0.0)
        b = _component(center=np.array([9.0, 9.0]), sigma=3.0)
        assert classify(_instance([a, b]))["separability"] == "non-separable"

    def test_disconnected_groups_partially_separable(self):
        theta = ThetaSpec.from_triples(4, [(1, 2, 0.5), (3, 4, 0.7)])
        record = classify(_instance([_component(d=4, center=np.zeros(4), h_diag=np.ones(4), theta=theta)], d=4))
        assert record["separability"] == "partially-separable"

    def test_connected_graph_non_separable(self):
        theta = ThetaSpec.from_triples(3, [(1, 2, 0.5), (2, 3, 0.7)])
        record = classify(_instance([_component(d=3, center=np.zeros(3), h_diag=np.ones(3), theta=theta)], d=3))
        assert record["separability"] == "non-separable"

    def test_dense_rotation_non_separable(self):
        """Every row of this dense rotation links both variables: one group."""
        c, s = np.cos(0.3), np.sin(0.3)
        comp = _component(rotation=np.array([[c, -s], [s, c]]))
        assert (comp.lam, comp.theta) == (1.0, None)
        assert classify(_instance([comp]))["separability"] == "non-separable"

    @pytest.mark.parametrize("triples,expected", [
        ([], "fully-separable"),
        ([(1, 2, 0.5), (3, 4, 0.7)], "partially-separable"),
        ([(1, 2, 0.5), (2, 3, 0.7)], "partially-separable"),
        ([(1, 2, 0.5), (2, 3, 0.7), (3, 4, -1.1)], "non-separable"),
    ], ids=["identity", "two-blocks", "block-and-one", "chain"])
    def test_dense_copy_classifies_as_its_angle_built_twin(self, triples, expected):
        """The groups are read from the matrix however the rotation is stored."""
        theta = ThetaSpec.from_triples(4, triples)
        twin = _component(d=4, theta=theta)
        copy = _component(d=4, rotation=np.eye(4) if twin.rotation is None else twin.rotation.copy())
        assert copy.theta is None and copy.is_rotated
        for comp in (twin, copy):
            assert classify(_instance([comp], d=4))["separability"] == expected

    @pytest.mark.parametrize("lam", [1.0, 0.5])
    def test_dense_permutation_is_fully_separable(self, lam):
        """A permutation moves each variable alone: one group per variable,
        as for its twin without a rotation."""
        comp = _component(d=4, lam=lam, rotation=np.eye(4)[[2, 0, 3, 1]])
        assert classify(_instance([comp], d=4))["separability"] == "fully-separable"
        assert classify(_instance([_component(d=4, lam=lam)], d=4))["separability"] == "fully-separable"

    def test_partial_groups_under_a_power_are_non_separable(self):
        theta = ThetaSpec.from_triples(4, [(1, 2, 0.5), (3, 4, 0.7)])
        for comp in (_component(d=4, lam=0.5, theta=theta),
                     _component(d=4, lam=0.5, rotation=rotation_from_theta(theta))):
            assert classify(_instance([comp], d=4))["separability"] == "non-separable"

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 12), st.floats(0.05, 1.0), st.sampled_from([1.0, 0.5, 2.0]),
           st.integers(0, 2**32 - 1))
    def test_theta_and_dense_copy_classify_alike(self, d, p_prob, lam, seed):
        comp = _component(d=d, lam=lam, theta=random_theta(d, p_prob, np.random.default_rng(seed)))
        assume(comp.is_rotated)
        copy = _component(d=d, lam=lam, rotation=comp.rotation.copy())
        assert classify(_instance([copy], d=d)) == classify(_instance([comp], d=d))


class TestBudgetedEvaluator:
    def test_first_call_initializes_best(self):
        ev = BudgetedEvaluator(_instance([_component()]), 10)
        value = ev(np.array([3.0, 4.0]))
        assert value == 25.0
        assert ev.fe_used == 1
        assert ev.best_value == 25.0
        assert ev.history == [(1, 25.0)]

    def test_worse_point_keeps_best(self):
        ev = BudgetedEvaluator(_instance([_component()]), 10)
        ev(np.array([1.0, 0.0]))
        ev(np.array([5.0, 5.0]))
        assert ev.best_value == 1.0
        assert len(ev.history) == 1

    def test_budget_exhaustion_raises(self):
        ev = BudgetedEvaluator(_instance([_component()]), 2)
        ev(np.zeros(2))
        ev(np.zeros(2))
        with pytest.raises(BudgetExhaustedError):
            ev(np.zeros(2))
        assert ev.fe_used == 2

    def test_error_at_staircase(self):
        ev = BudgetedEvaluator(_instance([_component()]), 10)
        ev(np.array([2.0, 0.0]))   # error 4
        ev(np.array([5.0, 0.0]))   # no improvement
        ev(np.array([1.0, 0.0]))   # error 1
        run = _finish(ev, DEFAULT_THRESHOLD)
        assert run.error_at(0) == np.inf
        assert run.error_at(1) == 4.0
        assert run.error_at(2) == 4.0
        assert run.error_at(3) == 1.0
        assert run.error_at(100) == 1.0
