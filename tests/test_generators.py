"""Tests for scenario builders and the 24-instance suite."""

import dataclasses

import numpy as np
import pytest

from gnbg.core import classify, dominated_components, evaluate
from gnbg.generators import (
    SUITE_SIZE,
    ScenarioConfig,
    gen_conditioning,
    gen_interaction,
    gen_linearity,
    gen_multicomponent,
    gen_multimodal,
    suite_instance,
)
from gnbg.instance_io import dump_instance


def test_scenario_config_fields_are_dim_and_seed():
    assert [f.name for f in dataclasses.fields(ScenarioConfig)] == ["dim", "seed"]


class TestGenLinearity:
    def test_lambda_one_is_sphere(self):
        inst = gen_linearity(1.0)
        rng = np.random.default_rng(0)
        for x in rng.uniform(-100, 100, size=(100, 30)):
            assert evaluate(inst, x) == pytest.approx(float(np.sum(x**2)), rel=1e-12)

    def test_point_of_ones_with_quarter_exponent(self):
        inst = gen_linearity(0.25)
        assert evaluate(inst, np.ones(30)) == pytest.approx(30**0.25, rel=1e-12)

    def test_half_exponent_classified_linear(self):
        inst = gen_linearity(0.5, ScenarioConfig(dim=2))
        assert classify(inst)["basin_linearity"] == "linear"

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ValueError):
            gen_linearity(0.0)


class TestGenConditioning:
    def test_unit_condition_number(self):
        inst = gen_conditioning(1.0)
        h = inst.components[0].h_diag
        assert np.all(h == h[0])
        assert inst.components[0].condition_number == 1.0

    def test_requested_condition_exact(self):
        for seed in range(25):
            inst = gen_conditioning(1e7, cfg=ScenarioConfig(seed=seed))
            h = inst.components[0].h_diag
            assert np.max(h) / np.min(h) == 1e7
            assert np.all(h >= 1.0) and np.all(h <= 1e7)

    def test_small_dim_is_permutation_of_extremes(self):
        inst = gen_conditioning(10.0, cfg=ScenarioConfig(dim=2))
        assert sorted(inst.components[0].h_diag) == [1.0, 10.0]

    def test_condition_below_one_rejected(self):
        with pytest.raises(ValueError):
            gen_conditioning(0.5)

    def test_one_dimension_has_condition_one(self):
        with pytest.raises(ValueError, match="condition number 1"):
            gen_conditioning(10.0, cfg=ScenarioConfig(dim=1))
        inst = gen_conditioning(1.0, cfg=ScenarioConfig(dim=1))
        assert inst.components[0].h_diag.tolist() == [1.0]


class TestGenInteraction:
    def test_zero_probability_unrotated(self):
        inst = gen_interaction(p_prob=0.0)
        assert not inst.components[0].is_rotated

    def test_zero_fixed_angle_unrotated(self):
        inst = gen_interaction(fixed_angle=0.0)
        assert not inst.components[0].is_rotated

    def test_full_probability_connects_everything(self):
        inst = gen_interaction(p_prob=1.0)
        assert inst.components[0].theta.num_nonzero() == 30 * 29 // 2

    def test_rotated_axis_recovers_1d_profile(self):
        # along a rotated axis the quadratic reduces to a single h_i t^2 term
        inst = gen_interaction(fixed_angle=np.pi / 4, cfg=ScenarioConfig(dim=2))
        comp = inst.components[0]
        direction = np.array([np.cos(np.pi / 4), np.sin(np.pi / 4)])
        for t in (0.5, 2.0, 7.0):
            value = evaluate(inst, t * direction)
            assert value == pytest.approx(comp.h_diag[1] * t**2, rel=1e-12)

    def test_exactly_one_mode_required(self):
        with pytest.raises(ValueError):
            gen_interaction()
        with pytest.raises(ValueError):
            gen_interaction(p_prob=0.5, fixed_angle=0.2)


class TestGenMultimodal:
    def test_neutral_params_match_linearity(self):
        a = gen_multimodal(0.0, 0.0)
        b = gen_linearity(1.0)
        rng = np.random.default_rng(1)
        for x in rng.uniform(-100, 100, size=(50, 30)):
            assert evaluate(a, x) == evaluate(b, x)

    def test_center_value_still_exact(self):
        inst = gen_multimodal(1.0, 50.0)
        assert evaluate(inst, inst.optimum_position) == inst.optimum_value

    def test_higher_frequency_means_more_local_optima(self):
        def count_minima(omega):
            inst = gen_multimodal(0.2, omega, ScenarioConfig(dim=2))
            t = np.linspace(0.1, 100, 20001)
            values = np.array([evaluate(inst, np.array([v, 0.0])) for v in t])
            slope_sign = np.sign(np.diff(values))
            return int(np.sum((slope_sign[:-1] < 0) & (slope_sign[1:] > 0)))

        assert count_minima(50.0) > count_minima(10.0)

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            gen_multimodal(-0.1, 5.0)


class TestGenMulticomponent:
    def test_single_component_reduction(self):
        inst = gen_multicomponent(1)
        assert len(inst.components) == 1

    def test_determinism(self):
        cfg = ScenarioConfig(seed=7)
        assert dump_instance(gen_multicomponent(10, cfg)) == dump_instance(
            gen_multicomponent(10, cfg)
        )

    def test_uniform_constant_widths(self):
        inst = gen_multicomponent(5)
        for comp in inst.components:
            assert np.all(comp.h_diag == comp.h_diag[0])
            assert 0.001 <= comp.h_diag[0] <= 0.1

    def test_dominated_set_can_shrink_effective_count(self):
        inst = gen_multicomponent(25, ScenarioConfig(dim=2, seed=3))
        assert len(dominated_components(inst)) <= 25

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            gen_multicomponent(0)


# every scenario at each knob value the 30-D tests use, built at other dimensions
SCENARIOS_AT_ANY_DIM = {
    "linearity": lambda cfg: gen_linearity(0.5, cfg),
    "conditioning": lambda cfg: gen_conditioning(1e3 if cfg.dim > 1 else 1.0, cfg),
    "interaction-p": lambda cfg: gen_interaction(p_prob=0.5, cfg=cfg),
    "interaction-angle": lambda cfg: gen_interaction(fixed_angle=0.7, cfg=cfg),
    "multimodal": lambda cfg: gen_multimodal(0.5, 20.0, cfg),
    "multicomponent": lambda cfg: gen_multicomponent(4, cfg, center_range=(-50.0, 50.0)),
}


@pytest.mark.parametrize("dim", [1, 2, 7])
@pytest.mark.parametrize("name", SCENARIOS_AT_ANY_DIM)
def test_scenario_at_any_dimension(name, dim):
    """Every vector has ``dim`` elements and the optimum is exact."""
    inst = SCENARIOS_AT_ANY_DIM[name](ScenarioConfig(dim=dim, seed=5))
    assert inst.dim == dim
    assert inst.lower.shape == inst.upper.shape == (dim,)
    for comp in inst.components:
        assert comp.center.shape == comp.h_diag.shape == (dim,)
        assert comp.theta is None or comp.theta.dim == dim
        assert comp.rotation is None or comp.rotation.shape == (dim, dim)
    assert evaluate(inst, inst.optimum_position) == inst.optimum_value


class TestSuite:
    def test_all_instances_build_and_are_exact(self):
        for k in range(1, SUITE_SIZE + 1):
            inst = suite_instance(k, seed=0)
            assert inst.dim == 30
            assert np.all(inst.lower == -100.0) and np.all(inst.upper == 100.0)
            gap = evaluate(inst, inst.optimum_position) - inst.optimum_value
            assert abs(gap) <= 1e-9

    def test_f1_characteristics(self):
        record = classify(suite_instance(1, seed=0))
        assert record["modality"] == "unimodal"
        assert record["separability"] == "fully-separable"
        assert record["symmetric"] is True
        assert record["condition_number"] == 1.0
        assert record["basin_linearity"] == "super-linear"

    def test_f3_condition_number(self):
        assert classify(suite_instance(3, seed=0))["condition_number"] == 1e7

    def test_f5_chain_is_non_separable(self):
        assert classify(suite_instance(5, seed=0))["separability"] == "non-separable"

    def test_f12_grouped_interactions(self):
        record = classify(suite_instance(12, seed=0))
        assert record["separability"] == "partially-separable"
        comp = suite_instance(12, seed=0).components[0]
        drawn = {round(a, 12) for _, _, a in comp.theta.to_triples()}
        assert drawn == {round(v, 12) for v in (np.pi / 4, 3 * np.pi / 4, np.pi / 8)}

    def test_f16_structure(self):
        inst = suite_instance(16, seed=0)
        assert len(inst.components) == 5
        assert inst.optimum_value == -5000.0
        others = [c.sigma for k, c in enumerate(inst.components) if k != inst.optimum_index]
        assert all(-4500.0 <= s <= -4000.0 for s in others)

    def test_f21_deceptive_layout(self):
        inst = suite_instance(21, seed=0)
        sigmas = [c.sigma for c in inst.components]
        assert sigmas == [-50.0, -45.0, -40.0, -40.0, -40.0]
        # the -45 trap sits at the center with the widest basin (all h = 1);
        # the optimum hides off-center with h = 5 everywhere
        trap = inst.components[1]
        assert np.array_equal(trap.center, np.zeros(30))
        assert np.all(trap.h_diag == 1.0)
        best = inst.components[0]
        assert np.all(best.h_diag == 5.0)
        assert np.any(np.abs(best.center) > 30.0)
        assert np.all(np.abs(best.center) <= 90.0)

    def test_f23_shared_center(self):
        inst = suite_instance(23, seed=0)
        assert all(c.sigma == -100.0 for c in inst.components)
        for c in inst.components[1:]:
            assert np.array_equal(c.center, inst.components[0].center)

    def test_f20_center_range(self):
        inst = suite_instance(20, seed=0)
        for c in inst.components:
            assert np.all(c.center >= -75.0) and np.all(c.center <= -25.0)

    def test_centers_strictly_inside_bounds(self):
        for k in range(1, SUITE_SIZE + 1):
            inst = suite_instance(k, seed=1)
            for c in inst.components:
                assert np.all(c.center > inst.lower) and np.all(c.center < inst.upper)

    def test_determinism(self):
        assert dump_instance(suite_instance(14, seed=9)) == dump_instance(
            suite_instance(14, seed=9)
        )

    @pytest.mark.parametrize("bad", [0, 25, -1])
    def test_invalid_index_rejected(self, bad):
        with pytest.raises(ValueError):
            suite_instance(bad)
