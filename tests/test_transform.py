"""Tests for the log-domain sinusoidal modulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnbg.transform import TransformParams, apply_transform


class TestTransformParams:
    def test_defaults_are_identity(self):
        params = TransformParams()
        assert params.is_identity
        assert not params.active

    def test_active_requires_amplitude_and_frequency(self):
        assert TransformParams((0.5, 0.5), (10, 10, 10, 10)).active
        assert not TransformParams((0.5, 0.5), (0, 0, 0, 0)).active
        assert not TransformParams((0.0, 0.0), (10, 10, 10, 10)).active

    @pytest.mark.parametrize("mu", [(-0.1, 0.2), (0.2, np.nan)])
    def test_bad_mu_rejected(self, mu):
        with pytest.raises(ValueError):
            TransformParams(mu, (0, 0, 0, 0))

    def test_wrong_lengths_rejected(self):
        with pytest.raises(ValueError):
            TransformParams((0.1, 0.1, 0.1), (0, 0, 0, 0))
        with pytest.raises(ValueError):
            TransformParams((0.1, 0.1), (0, 0, 0))


class TestApplyTransform:
    def test_zero_maps_to_zero(self):
        params = TransformParams((1.0, 1.0), (50, 50, 50, 50))
        out = apply_transform(np.zeros(3), params)
        assert np.array_equal(out, np.zeros(3))

    def test_identity_params_pass_through(self):
        a = np.array([-2.5, 0.0, 1e-3, 7.0])
        assert np.array_equal(apply_transform(a, TransformParams()), a)

    def test_one_is_fixed_point(self):
        # log(1) = 0 kills the sinusoids regardless of parameters
        params = TransformParams((0.2, 0.2), (10, 10, 10, 10))
        assert apply_transform(np.array([1.0]), params)[0] == pytest.approx(1.0, abs=1e-15)

    def test_known_value_positive_branch(self):
        params = TransformParams((0.2, 0.3), (10, 20, 30, 40))
        la = np.log(2.0)
        expected = np.exp(la + 0.2 * (np.sin(10 * la) + np.sin(20 * la)))
        assert apply_transform(np.array([2.0]), params)[0] == pytest.approx(expected, rel=1e-15)

    def test_known_value_negative_branch(self):
        params = TransformParams((0.2, 0.3), (10, 20, 30, 40))
        la = np.log(2.0)
        expected = -np.exp(la + 0.3 * (np.sin(30 * la) + np.sin(40 * la)))
        assert apply_transform(np.array([-2.0]), params)[0] == pytest.approx(expected, rel=1e-15)

    def test_symmetric_params_give_odd_map(self):
        params = TransformParams((0.7, 0.7), (25, 10, 25, 10))
        rng = np.random.default_rng(5)
        a = rng.uniform(0.01, 100, size=1000)
        assert np.allclose(
            apply_transform(-a, params), -apply_transform(a, params), rtol=1e-14
        )

    def test_sign_preserved(self):
        params = TransformParams((1.0, 0.3), (50, 10, 5, 25))
        rng = np.random.default_rng(6)
        a = rng.uniform(-100, 100, size=1000)
        out = apply_transform(a, params)
        assert np.array_equal(np.sign(out), np.sign(a))

    def test_bounded_distortion(self):
        mu = 0.8
        params = TransformParams((mu, mu), (50, 25, 50, 25))
        rng = np.random.default_rng(8)
        a = rng.uniform(-50, 50, size=1000)
        mag_in, mag_out = np.abs(a), np.abs(apply_transform(a, params))
        assert np.all(mag_out <= mag_in * np.exp(2 * mu) * (1 + 1e-12))
        assert np.all(mag_out >= mag_in * np.exp(-2 * mu) * (1 - 1e-12))

    def test_continuity_toward_zero(self):
        params = TransformParams((1.0, 1.0), (50, 50, 50, 50))
        out = apply_transform(np.array([1e-300]), params)
        assert 0 <= out[0] <= 1e-290

    def test_subnormal_returned_unchanged(self):
        params = TransformParams((1.0, 1.0), (50, 50, 50, 50))
        tiny = 1e-310
        assert apply_transform(np.array([tiny]), params)[0] == tiny

    @pytest.mark.parametrize(
        "params",
        [TransformParams(), TransformParams((0.5, 0.5), (10, 10, 10, 10))],
        ids=["identity", "modulated"],
    )
    @pytest.mark.parametrize("a", [2.0, -0.3, 0.0])
    def test_zero_dimensional_input(self, params, a):
        out = apply_transform(a, params)
        assert isinstance(out, np.ndarray) and out.shape == ()
        assert out == apply_transform([a], params)[0]

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            apply_transform(np.array([np.inf]), TransformParams())


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        mu=st.tuples(*[st.floats(0.0, 2.0)] * 2),
        omega=st.tuples(*[st.floats(0.0, 100.0)] * 4),
        a=st.lists(st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0]), min_size=1, max_size=20),
    )
    def test_sign_preserved_and_zero_fixed(self, mu, omega, a):
        a = np.array(a)
        out = apply_transform(a, TransformParams(mu, omega))
        assert np.array_equal(np.sign(out), np.sign(a))
        assert np.all(out[a == 0.0] == 0.0)
