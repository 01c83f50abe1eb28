"""Scenario builders for isolated-challenge studies and the 24-instance suite.

All randomness flows through named sub-streams derived from (seed, labels),
so adding a knob to one parameter group never perturbs the draws of another,
and a fixed seed reproduces an instance bit for bit.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import partial
from itertools import combinations

import numpy as np

from .core import Component, ProblemInstance
from .rotation import ANGLE_RANGE, ThetaSpec, full_theta, random_theta
from .transform import TransformParams

DEFAULT_DIM = 30
DEFAULT_BOUNDS = (-100.0, 100.0)


@dataclass(frozen=True)
class ScenarioConfig:
    dim: int = DEFAULT_DIM
    bounds: tuple[float, float] = DEFAULT_BOUNDS
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        lo, hi = self.bounds
        if not lo < hi:
            raise ValueError(f"bounds must satisfy lo < hi, got {self.bounds}")


def _stream(seed: int, *labels) -> np.random.Generator:
    """Independent generator keyed by seed plus a label path."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    entropy += [zlib.crc32(str(label).encode()) for label in labels]
    return np.random.default_rng(entropy)


def _instance(cfg, components, generator, **knobs) -> ProblemInstance:
    lower, upper = (np.full(cfg.dim, bound) for bound in cfg.bounds)
    provenance = {"generator": generator, "knobs": knobs, "seed": int(cfg.seed)}
    return ProblemInstance(cfg.dim, lower, upper, tuple(components), provenance)


def gen_linearity(lam: float, cfg: ScenarioConfig = ScenarioConfig()) -> ProblemInstance:
    """Single centered basin with the given linearity exponent; everything
    else neutral (no scaling, rotation, or local optima)."""
    comp = Component(
        center=np.zeros(cfg.dim), sigma=0.0, h_diag=np.ones(cfg.dim), lam=lam
    )
    return _instance(cfg, [comp], "linearity", lam=lam)


ALPHA_BETA = (0.4, 0.4)


def gen_conditioning(
    cond: float, cfg: ScenarioConfig = ScenarioConfig()
) -> ProblemInstance:
    """Single quadratic basin whose diagonal scaling realizes the requested
    condition number exactly.

    Two randomly chosen diagonal positions get the extreme values 1 and
    ``cond``; the rest are Beta(alpha, beta) draws, (alpha, beta) =
    ``ALPHA_BETA``, stretched over [1, cond] (small alpha = beta pushes
    mass toward the endpoints).
    """
    if cond < 1:
        raise ValueError(f"condition number must be >= 1, got {cond}")
    if cond > 1 and cfg.dim == 1:
        raise ValueError(f"a 1-D diagonal has condition number 1, got {cond}")
    alpha, beta = ALPHA_BETA
    rng = _stream(cfg.seed, "conditioning", "h")
    a, b = 1.0, float(cond)
    h = a + (b - a) * rng.beta(alpha, beta, size=cfg.dim)
    extremes = rng.permutation(cfg.dim)[:2]
    h[extremes[0]] = a
    h[extremes[1] if cond > 1 else extremes[0]] = b
    comp = Component(center=np.zeros(cfg.dim), sigma=0.0, h_diag=h, lam=1.0)
    return _instance(cfg, [comp], "conditioning", cond=cond, alpha=alpha, beta=beta)


def gen_interaction(
    p_prob: float | None = None,
    fixed_angle: float | None = None,
    cfg: ScenarioConfig = ScenarioConfig(),
) -> ProblemInstance:
    """Single moderately conditioned basin with a configurable interaction
    structure: random pairs with probability ``p_prob``, or every pair set
    to ``fixed_angle``."""
    if (p_prob is None) == (fixed_angle is None):
        raise ValueError("exactly one of p_prob / fixed_angle must be given")
    h = _stream(cfg.seed, "interaction", "h").uniform(1.0, 100.0, size=cfg.dim)
    if fixed_angle is not None:
        theta = full_theta(cfg.dim, fixed_angle)
        knobs = {"fixed_angle": fixed_angle}
    else:
        theta = random_theta(cfg.dim, p_prob, _stream(cfg.seed, "interaction", "theta"))
        knobs = {"p_prob": p_prob}
    comp = Component(
        center=np.zeros(cfg.dim), sigma=0.0, h_diag=h, lam=1.0, theta=theta
    )
    return _instance(cfg, [comp], "interaction", **knobs)


def gen_multimodal(
    mu: float, omega: float, cfg: ScenarioConfig = ScenarioConfig()
) -> ProblemInstance:
    """Single symmetric multimodal basin: equal amplitudes and one shared
    frequency, no scaling or rotation."""
    comp = Component(
        center=np.zeros(cfg.dim),
        sigma=0.0,
        h_diag=np.ones(cfg.dim),
        lam=1.0,
        transform=TransformParams((mu, mu), (omega, omega, omega, omega)),
    )
    return _instance(cfg, [comp], "multimodal", mu=mu, omega=omega)


def gen_multicomponent(
    o: int,
    cfg: ScenarioConfig = ScenarioConfig(),
    sigma_range: tuple[float, float] = (0.0, 10.0),
    h_range: tuple[float, float] = (0.001, 0.1),
    center_range: tuple[float, float] | None = None,
) -> ProblemInstance:
    """``o`` well-conditioned homogeneous quadratic bumps of varying widths.

    Each component gets a single uniform value on its whole diagonal, a
    random center, and a random floor value drawn from ``sigma_range``.
    """
    if o < 1:
        raise ValueError(f"number of components must be >= 1, got {o}")
    lo, hi = center_range if center_range is not None else cfg.bounds
    centers = _stream(cfg.seed, "multicomponent", "centers").uniform(
        lo, hi, size=(o, cfg.dim)
    )
    sigmas = _stream(cfg.seed, "multicomponent", "sigmas").uniform(*sigma_range, size=o)
    widths = _stream(cfg.seed, "multicomponent", "h").uniform(*h_range, size=o)
    components = [
        Component(
            center=centers[k],
            sigma=sigmas[k],
            h_diag=np.full(cfg.dim, widths[k]),
            lam=1.0,
        )
        for k in range(o)
    ]
    return _instance(
        cfg, components, "multicomponent", o=o, sigma_range=sigma_range, h_range=h_range
    )


# --- 24-instance suite -------------------------------------------------------
#
# Each entry is one row of parameter values.  A value is a constant, or a
# draw: a function of the component's _Slot that reads its own labelled
# stream, so no draw perturbs another and the build order does not matter.


@dataclass(frozen=True)
class _Slot:
    """Component ``k`` of the ``o`` components of a suite entry, whose
    labelled streams are ``shared(*labels)``."""

    shared: partial
    k: int
    o: int

    def own(self, label) -> np.random.Generator:
        """Stream of this component; a single-component entry's is the
        entry's own."""
        return self.shared(label) if self.o == 1 else self.shared(label, self.k)


def _value(spec, slot: _Slot):
    return spec(slot) if callable(spec) else spec


def _each(*specs):
    """Component k takes ``specs[k]``."""
    return lambda slot: _value(specs[slot.k], slot)


def _uniform(label, lo, hi, size=DEFAULT_DIM):
    return lambda slot: slot.own(label).uniform(lo, hi, size=size)


def _beta(label, lo, hi, a, b):
    """Beta(a, b) draws stretched over [lo, hi]."""
    return lambda slot: lo + (hi - lo) * slot.own(label).beta(a, b, size=DEFAULT_DIM)


def _spread_h(slot):
    """Evenly spaced scalings from 0.1 to 1e6, randomly assigned to variables."""
    return slot.own("h").permutation(np.linspace(0.1, 1e6, DEFAULT_DIM))


def _with_extremes(draw, lo, hi):
    """``draw`` with two random positions set to exactly ``lo`` and ``hi``,
    so the condition number is hi / lo."""

    def extremes(slot):
        h = draw(slot)
        first, second = slot.own("h-extremes").permutation(DEFAULT_DIM)[:2]
        h[first], h[second] = lo, hi
        return h

    return extremes


def _best_then(best, lo, hi):
    """Component 0 holds the optimum ``best``; the others share one draw of
    floor values from stream "sigmas"."""
    return lambda slot: (
        best if slot.k == 0 else slot.shared("sigmas").uniform(lo, hi, size=slot.o - 1)[slot.k - 1]
    )


def _shared_rows(label, lo, hi):
    """Row k of one (o, d) uniform draw from the entry's stream ``label``."""
    return lambda slot: slot.shared(label).uniform(lo, hi, size=(slot.o, DEFAULT_DIM))[slot.k]


def _random_theta(p_prob):
    return lambda slot: random_theta(DEFAULT_DIM, p_prob, slot.own("theta"))


def _chain_theta(slot) -> ThetaSpec:
    """Each variable interacts with the next one only."""
    rng = slot.own("theta")
    triples = [(i, i + 1, rng.uniform(*ANGLE_RANGE)) for i in range(1, DEFAULT_DIM)]
    return ThetaSpec.from_triples(DEFAULT_DIM, triples)


def _grouped_theta(group_angles):
    """Partition variables into equal random groups, fully connect each
    group internally with its own fixed angle."""
    size = DEFAULT_DIM // len(group_angles)

    def grouped(slot):
        perm = slot.own("theta").permutation(DEFAULT_DIM) + 1
        triples = [
            (int(p), int(q), angle)
            for g, angle in enumerate(group_angles)
            for p, q in combinations(sorted(perm[g * size : (g + 1) * size]), 2)
        ]
        return ThetaSpec.from_triples(DEFAULT_DIM, triples)

    return grouped


def _off_center_draw(slot):
    """Point inside [-90, 90]^d but outside the central [-30, 30]^d cube."""
    rng = slot.own("centers")
    while True:
        x = rng.uniform(-90.0, 90.0, size=DEFAULT_DIM)
        if np.any(np.abs(x) > 30.0):
            return x


@dataclass(frozen=True)
class _Entry:
    """Parameters of one suite entry with ``o`` components.  A scalar
    ``center`` or ``h`` fills the vector; the defaults are a single
    component with a random interior center and negative floor value."""

    o: int = 1
    sigma: object = _uniform("sigma", -1200.0, 0.0, size=None)
    center: object = _uniform("center", -80.0, 80.0)
    h: object = 1.0
    lam: object = 1.0
    mu: object = (0.0, 0.0)
    omega: object = (0.0, 0.0, 0.0, 0.0)
    theta: object = None


_ASYMMETRIC = dict(mu=(0.2, 0.5), omega=(20.0, 50.0, 10.0, 25.0))
_COMPETING = dict(o=5, sigma=_best_then(-5000.0, -4500.0, -4000.0),
                  center=_shared_rows("centers", -80.0, 80.0))
_RUGGED = dict(mu=_uniform("mu", 0.2, 0.5, 2), omega=_uniform("omega", 5.0, 50.0, 4))
_SUITE = (
    # 1-6: unimodal
    _Entry(),
    _Entry(lam=0.05),
    _Entry(h=_spread_h),
    _Entry(h=_uniform("h", 1.0, 10.0), theta=_random_theta(1.0)),
    _Entry(h=_spread_h, lam=0.05, theta=_chain_theta),
    _Entry(h=_spread_h, lam=0.05, theta=_random_theta(1.0)),
    # 7-15: multimodal, one component
    _Entry(mu=(0.2, 0.2), omega=(20.0,) * 4),
    _Entry(mu=(0.2, 0.2), omega=(50.0,) * 4),
    _Entry(mu=(1.0, 1.0), omega=(20.0,) * 4),
    _Entry(**_ASYMMETRIC),
    _Entry(**_ASYMMETRIC, theta=_random_theta(1.0)),
    _Entry(**_ASYMMETRIC, theta=_grouped_theta((np.pi / 4, 3 * np.pi / 4, np.pi / 8))),
    _Entry(mu=(1.0, 1.0), omega=(50.0,) * 4, theta=_random_theta(1.0)),
    _Entry(h=_with_extremes(_uniform("h", 1.0, 1e3), 0.01, 1e3), lam=0.6,
           mu=(0.7, 0.2), omega=(25.0, 10.0, 20.0, 50.0), theta=_random_theta(1.0)),
    _Entry(h=_with_extremes(_beta("h", 1.0, 1e5, 0.2, 0.2), 1.0, 1e5), lam=0.1,
           mu=(1.0, 1.0), omega=(10.0,) * 4, theta=_random_theta(1.0)),
    # 16-24: multimodal, competing components
    _Entry(**_COMPETING),
    _Entry(**_COMPETING, h=_uniform("h", 0.01, 100.0), theta=_random_theta(0.5)),
    _Entry(**_COMPETING, **_RUGGED, theta=_random_theta(0.5)),
    _Entry(**_COMPETING, mu=(0.5, 0.5), omega=_uniform("omega", 50.0, 100.0, 4),
           theta=_random_theta(0.5)),
    _Entry(5, _best_then(-100.0, -99.0, -98.0), _shared_rows("centers", -75.0, -25.0),
           lam=0.25, **_RUGGED, theta=_random_theta(0.5)),
    _Entry(5, _each(-50.0, -45.0, -40.0, -40.0, -40.0),
           _each(_off_center_draw, 0.0, _off_center_draw, _off_center_draw, _off_center_draw),
           h=_each(5.0, 1.0, 5.0, 5.0, 5.0), lam=0.5, mu=_uniform("mu", 0.1, 0.2, 2),
           omega=_uniform("omega", 5.0, 10.0, 4), theta=_random_theta(0.5)),
    _Entry(2, _each(-1000.0, -950.0),
           _each(_uniform("centers", 80.0, 90.0), _uniform("centers", -90.0, -80.0)),
           h=_uniform("h", 1.0, 10.0), lam=_each(1.0, 0.9),
           mu=(0.5, 0.5), omega=_uniform("omega", 20.0, 50.0, 4), theta=_random_theta(0.7)),
    _Entry(5, -100.0, lambda slot: slot.shared("center").uniform(-80.0, 80.0, size=DEFAULT_DIM),
           lam=0.4, mu=(0.5, 0.5), omega=_uniform("omega", 20.0, 50.0, 4),
           theta=_random_theta(0.75)),
    _Entry(5, _best_then(-100.0, -99.0, -98.0), _shared_rows("centers", -80.0, 80.0),
           h=_uniform("h", 1.0, 1e5), lam=0.25, **_RUGGED, theta=_random_theta(0.75)),
)
SUITE_SIZE = len(_SUITE)


def _filled(value) -> np.ndarray:
    return np.full(DEFAULT_DIM, value) if np.ndim(value) == 0 else value


def suite_instance(index: int, seed: int = 0) -> ProblemInstance:
    """Build suite entry ``index`` (1..24) for the given seed.

    Entries 1-6 are unimodal, 7-15 multimodal with a single component,
    16-24 multimodal with multiple competing components.  All are 30-D on
    [-100, 100] with the optimum strictly inside the box.
    """
    if not 1 <= index <= SUITE_SIZE:
        raise ValueError(f"suite index must be in [1, {SUITE_SIZE}], got {index}")
    entry = _SUITE[index - 1]
    shared = partial(_stream, seed, "suite", index)
    components = []
    for k in range(entry.o):
        slot = _Slot(shared, k, entry.o)
        components.append(Component(
            center=_filled(_value(entry.center, slot)),
            sigma=_value(entry.sigma, slot),
            h_diag=_filled(_value(entry.h, slot)),
            lam=_value(entry.lam, slot),
            transform=TransformParams(_value(entry.mu, slot), _value(entry.omega, slot)),
            theta=_value(entry.theta, slot),
        ))
    return _instance(ScenarioConfig(seed=seed), components, f"suite-f{index}", index=index)
