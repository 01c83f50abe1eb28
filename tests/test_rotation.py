"""Tests for Givens factors, composed rotations, and random structures."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnbg.generators import suite_instance
from gnbg.rotation import (
    ORTHOGONALITY_TOL,
    ThetaSpec,
    full_theta,
    orthogonality_error,
    random_theta,
    rotation_from_theta,
)


def givens(dim: int, p: int, q: int, theta: float) -> np.ndarray:
    """Oracle: the Givens rotation of angle ``theta`` in the x_p - x_q plane
    (1-indexed), the factor that ``rotation_from_theta`` composes.

    Identity everywhere except entries (p,p) = (q,q) = cos(theta),
    (p,q) = -sin(theta), (q,p) = sin(theta).
    """
    if not (1 <= p < q <= dim):
        raise ValueError(f"require 1 <= p < q <= dim, got p={p}, q={q}, dim={dim}")
    g = np.eye(dim)
    c, s = np.cos(theta), np.sin(theta)
    i, j = p - 1, q - 1
    g[i, i] = c
    g[j, j] = c
    g[i, j] = -s
    g[j, i] = s
    return g


def loop_rotation(spec: ThetaSpec) -> np.ndarray:
    """Oracle: the factors applied one at a time, pairs p < q in row-major
    order, each as the two-column update R <- R G."""
    d = spec.dim
    r = np.eye(d)
    for p in range(1, d):
        for q in range(p + 1, d + 1):
            theta = spec.angles[p - 1, q - 1]
            if theta != 0.0:
                c, s = np.cos(theta), np.sin(theta)
                i, j = p - 1, q - 1
                col_i = r[:, i].copy()
                r[:, i] = c * col_i + s * r[:, j]
                r[:, j] = -s * col_i + c * r[:, j]
    return r


def loop_random_theta(dim, p_prob, rng) -> ThetaSpec:
    """Oracle: the pair-by-pair loop, one ``rng.uniform(-pi, pi)`` call per
    angle draw."""
    lo, hi = -np.pi, np.pi
    angles = np.zeros((dim, dim))
    for p in range(dim - 1):
        for q in range(p + 1, dim):
            if p_prob == 1.0 or rng.uniform() < p_prob:
                angle = rng.uniform(lo, hi)
                while angle == 0.0:
                    angle = rng.uniform(lo, hi)
                angles[p, q] = angle
    return ThetaSpec(dim, angles)


class ListGenerator:
    """Serves a fixed list of doubles, one per draw, through both ``uniform``
    (numpy's arithmetic, ``lo + (hi - lo) * u``) and ``random(k)``."""

    def __init__(self, doubles):
        self.doubles, self.used = list(doubles), 0

    def random(self, k):
        if self.used + k > len(self.doubles):
            raise IndexError("list exhausted")
        self.used += k
        return np.array(self.doubles[self.used - k : self.used])

    def uniform(self, lo=0.0, hi=1.0):
        return lo + (hi - lo) * float(self.random(1)[0])


class TestGivens:
    def test_zero_angle_is_identity(self):
        assert np.array_equal(givens(2, 1, 2, 0.0), np.eye(2))

    def test_quarter_turn_2d(self):
        g = givens(2, 1, 2, np.pi / 2)
        expected = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.allclose(g, expected, atol=1e-15)

    def test_nonidentity_entries_confined_to_plane(self):
        g = givens(8, 3, 7, 0.7)
        mask = np.abs(g - np.eye(8)) > 0
        rows, cols = np.nonzero(mask)
        assert set(zip(rows.tolist(), cols.tolist())) == {(2, 2), (2, 6), (6, 2), (6, 6)}

    def test_only_coordinates_p_and_q_change(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=10)
        w = givens(10, 2, 9, 1.1) @ v
        untouched = [i for i in range(10) if i not in (1, 8)]
        assert np.array_equal(w[untouched], v[untouched])
        assert not np.array_equal(w[[1, 8]], v[[1, 8]])

    @pytest.mark.parametrize("p,q", [(2, 2), (3, 1), (0, 2), (1, 9)])
    def test_bad_indices_rejected(self, p, q):
        with pytest.raises(ValueError):
            givens(8, p, q, 0.5)


class TestThetaSpec:
    def test_zeros_is_identity_structure(self):
        spec = ThetaSpec(8, np.zeros((8, 8)))
        assert spec.is_identity()
        assert spec.num_nonzero() == 0
        assert spec.to_triples() == []

    def test_triples_round_trip(self):
        triples = [(1, 3, 0.4), (2, 5, -1.2), (4, 6, 2.0)]
        spec = ThetaSpec.from_triples(6, triples)
        assert spec.num_nonzero() == 3
        assert sorted(spec.to_triples()) == sorted(triples)

    def test_lower_triangle_rejected(self):
        angles = np.zeros((4, 4))
        angles[2, 1] = 0.3
        with pytest.raises(ValueError):
            ThetaSpec(4, angles)

    def test_bad_triple_rejected(self):
        with pytest.raises(ValueError):
            ThetaSpec.from_triples(4, [(3, 3, 0.1)])

    def test_repeated_pair_rejected(self):
        with pytest.raises(ValueError, match=r"repeated theta pair \(p=2, q=4\)"):
            ThetaSpec.from_triples(4, [(2, 4, 0.1), (1, 3, 0.2), (2, 4, 0.3)])


class TestRotationFromTheta:
    def test_all_zero_gives_identity(self):
        assert np.array_equal(rotation_from_theta(ThetaSpec(8, np.zeros((8, 8)))), np.eye(8))

    def test_single_angle_equals_givens(self):
        spec = ThetaSpec.from_triples(5, [(2, 4, 0.9)])
        assert np.allclose(rotation_from_theta(spec), givens(5, 2, 4, 0.9), atol=1e-15)

    def test_dense_random_is_orthogonal(self):
        rng = np.random.default_rng(11)
        spec = random_theta(30, 1.0, rng)
        r = rotation_from_theta(spec)
        assert orthogonality_error(r) <= 1e-12

    def test_deterministic_given_spec(self):
        spec = random_theta(10, 0.5, np.random.default_rng(3))
        assert np.array_equal(rotation_from_theta(spec), rotation_from_theta(spec))


class TestAgainstLoop:
    """``rotation_from_theta`` gives the loop oracle's bits, zero signs included."""

    @pytest.mark.parametrize("d", [1, 2, 7, 30])
    @pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 1.0])
    def test_random_specs(self, d, density):
        rng = np.random.default_rng(d)
        for _ in range(5):
            spec = random_theta(d, density, rng)
            r = rotation_from_theta(spec)
            assert np.array_equal(r.view(np.int64), loop_rotation(spec).view(np.int64))

    def test_suite_specs(self):
        for k in range(1, 25):
            for comp in suite_instance(k, seed=0).components:
                if comp.theta is not None and not comp.theta.is_identity():
                    r = rotation_from_theta(comp.theta)
                    assert np.array_equal(r.view(np.int64), loop_rotation(comp.theta).view(np.int64))


@st.composite
def pair_structures(draw):
    """Specs of 1 to 40 dimensions whose pairs are a random subset, the chain
    (i, i+1), one row, one column or the whole triangle; angles uniform over
    [-pi, pi], some or all of them at exactly -pi or pi."""
    d = draw(st.integers(1, 40))
    ps, qs = np.triu_indices(d, 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["subset", "chain", "row", "column", "full"]))
    if shape == "subset":
        keep = rng.random(ps.size) < draw(st.floats(0.0, 1.0))
    elif shape == "chain":
        keep = qs == ps + 1
    elif shape == "row":
        keep = ps == draw(st.integers(0, max(d - 2, 0)))
    elif shape == "column":
        keep = qs == draw(st.integers(min(1, d - 1), d - 1))
    else:
        keep = np.ones(ps.size, dtype=bool)
    if draw(st.booleans()):
        angles = rng.uniform(-np.pi, np.pi, ps.size)
        for i in draw(st.lists(st.integers(0, max(ps.size - 1, 0)), max_size=4)):
            angles[i:i + 1] = draw(st.sampled_from([-np.pi, np.pi]))  # a slice: d = 1 has no pairs
    else:
        angles = rng.choice([-np.pi, np.pi], ps.size)
    matrix = np.zeros((d, d))
    matrix[ps[keep], qs[keep]] = angles[keep]
    return ThetaSpec(d, matrix)


class TestWavefrontComposition:
    """The wavefront composition takes each element through the loop
    oracle's operations, whatever pairs are open."""

    @settings(max_examples=250, deadline=None)
    @given(pair_structures())
    def test_bits_equal_loop(self, spec):
        r = rotation_from_theta(spec)
        assert np.array_equal(r.view(np.int64), loop_rotation(spec).view(np.int64))

    @pytest.mark.parametrize("error", [1.0, np.nan])
    def test_lost_orthogonality_raises(self, monkeypatch, error):
        import gnbg.rotation

        monkeypatch.setattr(gnbg.rotation, "orthogonality_error", lambda r: error)
        with pytest.raises(ArithmeticError, match="lost orthogonality"):
            rotation_from_theta(full_theta(5, 0.3))

    def test_lost_orthogonality_names_the_component(self, monkeypatch):
        import gnbg.rotation
        from gnbg.instance_io import InstanceFormatError, dump_instance, load_instance

        text = dump_instance(suite_instance(22, seed=0))
        monkeypatch.setattr(gnbg.rotation, "orthogonality_error", lambda r: 1.0)
        with pytest.raises(InstanceFormatError, match=r"^components\[0\]: composed rotation lost orthogonality"):
            load_instance(text)


@st.composite
def theta_specs(draw):
    d = draw(st.integers(1, 6))
    pairs = [(p, q) for p in range(1, d + 1) for q in range(p + 1, d + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    angles = st.floats(-np.pi, np.pi)
    return ThetaSpec.from_triples(d, [(p, q, draw(angles)) for p, q in chosen])


class TestRotationProperties:
    @settings(max_examples=200, deadline=None)
    @given(theta_specs())
    def test_orthogonal_proper_rotation(self, spec):
        r = rotation_from_theta(spec)
        assert orthogonality_error(r) <= ORTHOGONALITY_TOL
        assert abs(np.linalg.det(r) - 1.0) <= 1e-12
        # the product of the Givens factors, pairs in row-major order
        factors = [givens(spec.dim, p, q, a) for p, q, a in spec.to_triples()]
        assert np.allclose(r, reduce(np.matmul, factors, np.eye(spec.dim)), atol=1e-13)


class TestRandomTheta:
    def test_p_zero_gives_all_zeros(self):
        spec = random_theta(30, 0.0, np.random.default_rng(0))
        assert spec.is_identity()

    def test_p_one_fills_every_pair(self):
        spec = random_theta(30, 1.0, np.random.default_rng(0))
        assert spec.num_nonzero() == 30 * 29 // 2

    def test_half_probability_concentrates(self):
        total = 30 * 29 // 2
        fractions = [
            random_theta(30, 0.5, np.random.default_rng(s)).num_nonzero()
            / total
            for s in range(200)
        ]
        assert 0.45 <= np.mean(fractions) <= 0.55

    def test_seed_reproducibility(self):
        a = random_theta(12, 0.3, np.random.default_rng(42))
        b = random_theta(12, 0.3, np.random.default_rng(42))
        assert np.array_equal(a.angles, b.angles)

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            random_theta(5, 1.5, np.random.default_rng(0))


def test_full_theta_fills_upper_triangle():
    spec = full_theta(6, np.pi / 4)
    assert spec.num_nonzero() == 15
    assert all(angle == np.pi / 4 for _, _, angle in spec.to_triples())


class TestRandomThetaAgainstLoop:
    """``random_theta`` gives the pair loop's angles and leaves the generator
    where the loop leaves it."""

    @pytest.mark.parametrize("d", [1, 2, 3, 10, 30])
    @pytest.mark.parametrize("p_prob", [0.0, 0.1, 0.5, 0.75, 1.0])
    def test_same_angles_and_next_draw(self, d, p_prob):
        for seed in range(20):
            bulk, loop = np.random.default_rng(seed), np.random.default_rng(seed)
            a = random_theta(d, p_prob, bulk)
            b = loop_random_theta(d, p_prob, loop)
            assert a.angles.tobytes() == b.angles.tobytes()
            assert bulk.random() == loop.random()

    @pytest.mark.parametrize(
        "p_prob, doubles, expected",
        [
            # pair (1, 2) opens and its first angle, -pi + 2 pi * 0.5, is exactly
            # 0.0, so it redraws; (1, 3) stays closed, its test draw being
            # p_prob itself; (2, 3) opens
            (0.5, [0.1, 0.5, 0.75, 0.5, 0.2, 0.25, 0.3], {(0, 1): np.pi / 2, (1, 2): -np.pi / 2}),
            (
                1.0,
                [0.5, 0.75, 0.25, 0.875, 0.3],
                {(0, 1): np.pi / 2, (0, 2): -np.pi / 2, (1, 2): 3 * np.pi / 4},
            ),
        ],
    )
    def test_zero_angle_redraws(self, p_prob, doubles, expected):
        want = np.zeros((3, 3))
        for pq, angle in expected.items():
            want[pq] = angle
        bulk, loop = ListGenerator(doubles), ListGenerator(doubles)
        a = random_theta(3, p_prob, bulk)
        b = loop_random_theta(3, p_prob, loop)
        assert a.angles.tobytes() == b.angles.tobytes() == want.tobytes()
        assert bulk.used == loop.used == len(doubles) - 1
