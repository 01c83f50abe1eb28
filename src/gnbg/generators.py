"""Scenario builders for isolated-challenge studies and the 24-instance suite.

``_build`` makes every instance from one entry, a row of parameter values.
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

from .core import Component, ProblemInstance, _count, _real
from .rotation import ANGLE_RANGE, ThetaSpec, compose, full_theta, random_theta
from .transform import TransformParams

DEFAULT_DIM = 30
DEFAULT_BOUNDS = (-100.0, 100.0)


@dataclass(frozen=True)
class ScenarioConfig:
    dim: int = DEFAULT_DIM
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dim", _count("dim", self.dim, 1))
        object.__setattr__(self, "seed", _count("seed", self.seed))  # any sign: _stream masks it


def _stream(seed: int, *labels) -> np.random.Generator:
    """Independent generator keyed by seed plus a label path."""
    entropy = [seed & 0xFFFFFFFFFFFFFFFF]
    entropy += [zlib.crc32(str(label).encode()) for label in labels]
    return np.random.default_rng(entropy)


# --- entries ----------------------------------------------------------------
#
# Every instance is built from one _Entry, a row of parameter values.  A
# value is a constant, or a draw: a function of the component's _Slot that
# reads its own labelled stream, so no draw perturbs another and the build
# order does not matter.


@dataclass(frozen=True)
class _Slot:
    """Component ``k`` of the ``o`` components of a ``dim``-D entry, whose
    labelled streams are ``shared(*labels)``.  All slots of an entry share
    ``opened``, its record of the streams opened and the rows drawn, so each
    stream is opened once."""

    shared: partial
    opened: dict
    k: int
    o: int
    dim: int

    def own(self, label) -> np.random.Generator:
        """Stream of this component; a single-component entry's is the
        entry's own."""
        path = (label,) if self.o == 1 else (label, self.k)
        if path not in self.opened:
            self.opened[path] = self.shared(*path)
        return self.opened[path]

    def rows(self, label, lo, hi, size) -> np.ndarray:
        """The entry's one uniform draw of ``size`` values from its stream
        ``label``, shared by all its components."""
        if label not in self.opened:
            self.opened[label] = self.shared(label).uniform(lo, hi, size=size)
        return self.opened[label]


def _value(spec, slot: _Slot):
    return spec(slot) if callable(spec) else spec


def _each(*specs):
    """Component k takes ``specs[k]``."""
    return lambda slot: _value(specs[slot.k], slot)


def _uniform(label, lo, hi, size=None):
    """``size`` uniform draws, by default one per variable."""
    return lambda slot: slot.own(label).uniform(lo, hi, size=size or slot.dim)


def _beta(label, lo, hi, a, b):
    """Beta(a, b) draws stretched over [lo, hi]."""
    return lambda slot: lo + (hi - lo) * slot.own(label).beta(a, b, size=slot.dim)


def _spread_h(slot):
    """Evenly spaced scalings from 0.1 to 1e6, randomly assigned to variables."""
    return slot.own("h").permutation(np.linspace(0.1, 1e6, slot.dim))


def _with_extremes(draw, lo, hi, label):
    """``draw`` with two random positions, drawn from stream ``label``, set
    to exactly ``lo`` and ``hi``, so the condition number is hi / lo (one
    position, set to ``hi``, when d = 1)."""

    def extremes(slot):
        h = draw(slot)
        ends = slot.own(label).permutation(slot.dim)[:2]
        h[ends[0]], h[ends[-1]] = lo, hi
        return h

    return extremes


def _best_then(best, lo, hi):
    """Component 0 holds the optimum ``best``; the others share one draw of
    floor values from stream "sigmas"."""
    return lambda slot: best if slot.k == 0 else slot.rows("sigmas", lo, hi, slot.o - 1)[slot.k - 1]


def _shared_rows(label, lo, hi, scalar=False):
    """Row k of one uniform draw of o rows, of d values or one ``scalar``
    each, from the entry's stream ``label``."""
    return lambda slot: slot.rows(label, lo, hi, slot.o if scalar else (slot.o, slot.dim))[slot.k]


def _random_theta(p_prob):
    return lambda slot: random_theta(slot.dim, p_prob, slot.own("theta"))


def _chain_theta(slot) -> ThetaSpec:
    """Each variable interacts with the next one only."""
    rng = slot.own("theta")
    triples = [(i, i + 1, rng.uniform(*ANGLE_RANGE)) for i in range(1, slot.dim)]
    return ThetaSpec.from_triples(slot.dim, triples)


def _grouped_theta(group_angles):
    """Partition variables into equal random groups, fully connect each
    group internally with its own fixed angle."""

    def grouped(slot):
        size = slot.dim // len(group_angles)
        perm = slot.own("theta").permutation(slot.dim) + 1
        triples = [
            (int(p), int(q), angle)
            for g, angle in enumerate(group_angles)
            for p, q in combinations(sorted(perm[g * size : (g + 1) * size]), 2)
        ]
        return ThetaSpec.from_triples(slot.dim, triples)

    return grouped


def _off_center_draw(slot):
    """Point inside [-90, 90]^d but outside the central [-30, 30]^d cube."""
    rng = slot.own("centers")
    while True:
        x = rng.uniform(-90.0, 90.0, size=slot.dim)
        if np.any(np.abs(x) > 30.0):
            return x


@dataclass(frozen=True)
class _Entry:
    """Parameters of one instance with ``o`` components.  A scalar
    ``center`` or ``h`` fills the vector; the defaults are a single
    component with a random interior center and negative floor value."""

    o: int = 1
    sigma: object = lambda slot: slot.own("sigma").uniform(-1200.0, 0.0)
    center: object = _uniform("center", -80.0, 80.0)
    h: object = 1.0
    lam: object = 1.0
    mu: object = (0.0, 0.0)
    omega: object = (0.0, 0.0, 0.0, 0.0)
    theta: object = None


def _filled(value, slot: _Slot) -> np.ndarray:
    return np.full(slot.dim, value) if np.ndim(value) == 0 else value


def _build(entry: _Entry, cfg: ScenarioConfig, generator, *labels, **knobs) -> ProblemInstance:
    """The ``cfg.dim``-D instance of ``entry`` on the default box, drawing
    from streams labelled (``cfg.seed``, ``*labels``, ...), by default
    (``cfg.seed``, ``generator``, ...); ``generator`` and ``knobs`` are its
    provenance."""
    shared = partial(_stream, cfg.seed, *(labels or (generator,)))
    opened = {}
    slots = [_Slot(shared, opened, k, entry.o, cfg.dim) for k in range(entry.o)]
    thetas = [_value(entry.theta, slot) for slot in slots]
    compose(thetas)
    components = [
        Component(
            center=_filled(_value(entry.center, slot), slot),
            sigma=_value(entry.sigma, slot),
            h_diag=_filled(_value(entry.h, slot), slot),
            lam=_value(entry.lam, slot),
            transform=TransformParams(_value(entry.mu, slot), _value(entry.omega, slot)),
            theta=theta,
        )
        for slot, theta in zip(slots, thetas)
    ]
    lower, upper = (np.full(cfg.dim, bound) for bound in DEFAULT_BOUNDS)
    provenance = {"generator": generator, "knobs": knobs, "seed": cfg.seed}
    return ProblemInstance(cfg.dim, lower, upper, tuple(components), provenance)


# --- scenarios ----------------------------------------------------------------


def gen_linearity(lam: float, cfg: ScenarioConfig = ScenarioConfig()) -> ProblemInstance:
    """Single centered basin with the given linearity exponent; everything
    else neutral (no scaling, rotation, or local optima)."""
    return _build(_Entry(sigma=0.0, center=0.0, lam=lam), cfg, "linearity", lam=lam)


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
    cond = _real("condition number", cond)
    if not 1 <= cond < np.inf:
        raise ValueError(f"condition number must be finite and >= 1, got {cond}")
    if cond > 1 and cfg.dim == 1:
        raise ValueError(f"a 1-D diagonal has condition number 1, got {cond}")
    alpha, beta = ALPHA_BETA
    entry = _Entry(sigma=0.0, center=0.0,
                   h=_with_extremes(_beta("h", 1.0, cond, alpha, beta), 1.0, cond, "h"))
    return _build(entry, cfg, "conditioning", cond=cond, alpha=alpha, beta=beta)


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
    if fixed_angle is None:
        p_prob = _real("p_prob", p_prob)
        knobs, theta = {"p_prob": p_prob}, _random_theta(p_prob)
    else:
        fixed_angle = _real("fixed_angle", fixed_angle)
        if not np.isfinite(fixed_angle):
            raise ValueError(f"fixed_angle must be finite, got {fixed_angle}")
        knobs, theta = {"fixed_angle": fixed_angle}, lambda slot: full_theta(slot.dim, fixed_angle)
    entry = _Entry(sigma=0.0, center=0.0, h=_uniform("h", 1.0, 100.0), theta=theta)
    return _build(entry, cfg, "interaction", **knobs)


def gen_multimodal(
    mu: float, omega: float, cfg: ScenarioConfig = ScenarioConfig()
) -> ProblemInstance:
    """Single symmetric multimodal basin: equal amplitudes and one shared
    frequency, no scaling or rotation."""
    mu, omega = _real("mu", mu), _real("omega", omega)
    entry = _Entry(sigma=0.0, center=0.0, mu=(mu, mu), omega=(omega,) * 4)
    return _build(entry, cfg, "multimodal", mu=mu, omega=omega)


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
    o = _count("number of components", o, 1)
    lo, hi = center_range if center_range is not None else DEFAULT_BOUNDS
    entry = _Entry(o, _shared_rows("sigmas", *sigma_range, scalar=True),
                   _shared_rows("centers", lo, hi), h=_shared_rows("h", *h_range, scalar=True))
    return _build(entry, cfg, "multicomponent", o=o, sigma_range=sigma_range, h_range=h_range)


# --- 24-instance suite -------------------------------------------------------


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
    _Entry(h=_with_extremes(_uniform("h", 1.0, 1e3), 0.01, 1e3, "h-extremes"), lam=0.6,
           mu=(0.7, 0.2), omega=(25.0, 10.0, 20.0, 50.0), theta=_random_theta(1.0)),
    _Entry(h=_with_extremes(_beta("h", 1.0, 1e5, 0.2, 0.2), 1.0, 1e5, "h-extremes"), lam=0.1,
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
    _Entry(5, -100.0, lambda slot: slot.rows("center", -80.0, 80.0, slot.dim),
           lam=0.4, mu=(0.5, 0.5), omega=_uniform("omega", 20.0, 50.0, 4),
           theta=_random_theta(0.75)),
    _Entry(5, _best_then(-100.0, -99.0, -98.0), _shared_rows("centers", -80.0, 80.0),
           h=_uniform("h", 1.0, 1e5), lam=0.25, **_RUGGED, theta=_random_theta(0.75)),
)
SUITE_SIZE = len(_SUITE)


def suite_instance(index: int, seed: int = 0) -> ProblemInstance:
    """Build suite entry ``index`` (1..24) for the given seed.

    Entries 1-6 are unimodal, 7-15 multimodal with a single component,
    16-24 multimodal with multiple competing components.  All are 30-D on
    [-100, 100] with the optimum strictly inside the box.
    """
    index = _count("suite index", index)
    if not 1 <= index <= SUITE_SIZE:
        raise ValueError(f"suite index must be in [1, {SUITE_SIZE}], got {index}")
    return _build(_SUITE[index - 1], ScenarioConfig(seed=seed), f"suite-f{index}", "suite", index,
                  index=index)
