"""Component / problem-instance data model and the evaluation pipeline.

A problem is the pointwise minimum over one or more components; each
component is a (possibly rotated, scaled, modulated) basin

    sigma + ( T(R(x - m))^T H T(R(x - m)) )^lambda

with diagonal H > 0 and orthogonal R.  Evaluation is defined everywhere;
box bounds are a search-region contract enforced by optimizers, not here.
Evaluation cost is O(o * d^2): one matrix-vector product per component.

One kernel evaluates any number of points over the stacked components.  It
applies to every (point, component) pair it evaluates the same
floating-point operations as evaluating that component alone, and a large
batch first drops, by float32 bounds, only pairs that cannot attain their
point's minimum, so a point's value is the same bits whatever batch it is
evaluated in.  A single point is the one-row case of that kernel, and one
charged FE the one-row case of ``BudgetedEvaluator.batch``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .rotation import ThetaSpec, orthogonality_error, rotation_from_theta
from .transform import TransformParams, modulate, sign_table
from .transform import apply_transform  # noqa: F401  (still importable from gnbg.core)


class BudgetExhaustedError(RuntimeError):
    """Raised when a tracked evaluation is requested past the FE budget."""


@dataclass(frozen=True, eq=False)
class Component:
    """One basin: center, floor value, scaling, rotation, linearity, transform.

    ``theta`` holds the interaction angles when the rotation was built from
    plane angles (kept for serialization);
    ``rotation`` may instead be supplied directly as an orthogonal matrix,
    but not both: a document stores one of them.
    """

    center: np.ndarray
    sigma: float
    h_diag: np.ndarray
    lam: float = 1.0
    transform: TransformParams = field(default_factory=TransformParams)
    theta: ThetaSpec | None = None
    rotation: np.ndarray | None = None

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        h_diag = np.asarray(self.h_diag, dtype=float)
        if center.ndim != 1 or center.size < 1:  # checked before shape[0] is read
            raise ValueError("center must be a nonempty 1-D vector")
        d = center.shape[0]
        if not np.all(np.isfinite(center)):
            raise ValueError("center elements must be finite")
        if not np.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite, got {self.sigma}")
        if h_diag.shape != (d,):
            raise ValueError(f"h_diag must have shape ({d},), got {h_diag.shape}")
        if np.any(h_diag <= 0) or not np.all(np.isfinite(h_diag)):
            raise ValueError("h_diag elements must be finite and strictly positive")
        if not 0 < self.lam < np.inf:
            raise ValueError(f"lambda must be finite and > 0, got {self.lam}")
        rotation = self.rotation
        if self.theta is not None and rotation is not None:
            raise ValueError("theta and rotation are mutually exclusive")
        if rotation is None:
            if self.theta is not None and not self.theta.is_identity():
                if self.theta.dim != d:
                    raise ValueError("theta dimension does not match center")
                rotation = rotation_from_theta(self.theta)
        else:
            rotation = np.asarray(rotation, dtype=float)
            if rotation.shape != (d, d):
                raise ValueError(f"rotation must have shape ({d}, {d})")
            err = orthogonality_error(rotation)
            if not err <= 1e-10:  # NaN-safe
                raise ValueError(f"rotation is not orthogonal (error {err:.3e})")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "h_diag", h_diag)
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "rotation", rotation)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def condition_number(self) -> float:
        """max h / min h; inf where the ratio overflows."""
        with np.errstate(over="ignore"):
            return float(np.max(self.h_diag) / np.min(self.h_diag))

    @property
    def basin_linearity(self) -> str:
        if self.lam < 0.5:
            return "sub-linear"
        if self.lam == 0.5:
            return "linear"
        return "super-linear"

    @property
    def is_rotated(self) -> bool:
        return self.rotation is not None


def _power(q: list, lam: float) -> list:
    """``v ** lam`` for the floats ``q``: the C library's pow, whose bits
    numpy's vectorized power does not match on every host, and inf where the
    result overflows, as numpy gives for the quadratic form's own overflow
    (Python raises instead)."""
    try:
        return [v**lam for v in q]
    except OverflowError:
        return [_pow_or_inf(v, lam) for v in q]


def _pow_or_inf(v: float, lam: float) -> float:
    try:
        return v**lam
    except OverflowError:
        return np.inf


# --- The float32 screen ------------------------------------------------------
#
# A batch on an instance of o >= 3 components, all transformed and sharing
# one lambda, is screened when its rows times (o - 2) reach _SCREEN_WORK:
# every (row, component) pair gets a lower and an upper bound on its value
# from a float32 copy of the transform, and the exact float64 transform,
# quadratic form and power run only on the candidates, the pairs whose lower
# bound is at most the row's smallest upper bound.  The component that
# attains the row's minimum is always a candidate and every other component's
# exact value is at least that minimum, so the minimum over the candidates
# has the bits of the minimum over all components: loose bounds only cost
# speed.  Any other instance takes the exact path.  The screen costs a fixed
# ~50 us per call and saves most of the transform of o - 1 components per
# row.  On fresh 30-D points it broke even at 10-16 rows with o = 5, 16-24
# with o = 4, 24-32 with o = 3 and not below 60 with o = 2; _SCREEN_WORK
# takes the upper ends.  That keeps pattern search's 15-row polls exact:
# their rows differ in one coordinate, libm's sin runs warm on them, and
# screened they took 1.06-1.37 times as long.
_SCREEN_WORK = 48

# Why the bounds hold.  Write u = 2**-24, float32's unit roundoff, and allow
# numpy's float32 log, sin and exp 8 ulp each (their documented and measured
# errors are at most 3.9, 1.5 and 2.5 ulp).  Take an element z of a
# transformed component, L = log|z|, mu and w the component's largest
# amplitude and frequency, and s the sum of the element's two sines, so that
# log T(z)**2 = 2 L + 2 mu s.  In float32 the screen takes l = log(z * z),
# the sines of (w / 2) l and y = l + (2 mu) s:
#   - z * z is within 3 u relative, and the log adds 8 ulp:
#     |l - 2 L| <= u (3 + 32 |L|).
#   - A frequency or amplitude picked by the sign of z is its float64 value
#     rounded to float32, within u.  Each sine's argument is then within
#     u w (1.5 + 20 |L|), and the sine adds 8 ulp <= 16 u.
#   - The sum of the sines, (2 mu) s and y round once each.
#   Summed: |y - log T(z)**2| <= u (3 + 34 |L| + 88 mu + mu w (6 + 80 |L|)).
# Widening y by a = A |l| / 2 and taking exp adds u (2 |L| + 4 mu + a) and
# 16 u, so with
#   A = u (40 + 96 mu w),  B = u (20 + 96 mu + 8 mu w)
# exp(y - a) e**-B <= T(z)**2 <= exp(y + a) e**B.  Every coefficient is
# rounded up, which also covers the float64 path's own error (the same sums
# with 2**-53).  Where z * z is zero or overflows, the pair's bounds come out
# NaN, which makes the pair a candidate.
#
# The two quadratic forms are summed in float32 over h / 2**e <= 1 (2**e >=
# max h; rounded down for the lower form and up for the upper), within
# (d + 1) u relative.  Below float32's normal range an element is off by an
# absolute amount instead, less than 2**-125 e**(4.1 mu + 52 A): a subnormal
# exp or product (flushed to zero or not) by 2**-126, and for |z| < 2**-63,
# where z * z is not normal, T(z)**2 and both bounds are below
# 2**-126 e**(4.1 mu + 52 A).  So the exact form lies in
# 2**e [e**-B' (Qlo - D), e**B' (Qhi + D)], with B' = B + (d + 1) u and D
# that absolute error times d, plus d 2**-1074 (1 + e**(44.5 + 2.1 mu)) / 2**e
# for the exact path's own products below float64's normal range (a
# subnormal t h is off by 2**-1075 before it is multiplied by t, and
# |t| < e**(44.5 + 2.1 mu) where z * z is normal).  A lower form that
# overflows bounds nothing and is made NaN.  Through the power, in the log
# domain: lam (log(Q -+ D) + e log 2 -+ B').  The margin adds
# lam (d + 2) 2**-52 for the rounding of the exact path's own form, 2**-48
# of the log-domain terms' size for the float64 log and products, and _TAU
# for exp and pow; a bound that overflows or underflows does so only where
# the exact value does too, up to the rounding of subnormal results, which
# -+ 2**-1022 covers.  The exact path's form itself overflows to inf where
# its upper bound reaches the largest float64, even when lam < 1 would bring
# the value back into range, so there the upper bound is inf.  Adding sigma
# needs no margin: rounding is monotone, so the sums of the bounds bound the
# exact path's sum.
_U = 2.0**-24
_TAU = 2.0**-36
_SUBNORMAL = np.array([-2.0**-1022, 2.0**-1022])[:, None, None]


def _selector(indices: list[int]):
    """A slice (a view, no copy) when ``indices`` is a contiguous run, else an
    index array; None when empty."""
    if not indices:
        return None
    if indices == list(range(indices[0], indices[-1] + 1)):
        return slice(indices[0], indices[-1] + 1)
    return np.array(indices)


class _Kernel:
    """The components of one problem, stacked and precomputed for evaluation.

    Rotations are kept for rotated components only, transform parameters for
    non-identity transforms only, and exponents for lambda != 1 only; the
    skipped steps are exact identities.  A batch of ``screen_rows`` or more
    rows takes ``screen``, any other ``exact``; both give the same bits.
    Built once per instance, on first use, and never serialized.
    """

    def __init__(self, components: tuple[Component, ...]):
        self.components = components
        self.dim = components[0].dim
        self.centers = np.stack([c.center for c in components])
        self.h = np.stack([c.h_diag for c in components])
        self.sigma = np.array([c.sigma for c in components])
        rotated = [k for k, c in enumerate(components) if c.rotation is not None]
        self.rotated = _selector(rotated)
        self.rotations = np.stack([components[k].rotation for k in rotated]) if rotated else None
        transformed = [k for k, c in enumerate(components) if not c.transform.is_identity]
        self.transformed = _selector(transformed)
        self.signs = sign_table([components[k].transform for k in transformed])
        # (t, 1) column of 2k, broadcast against the (n, t, d) transform input:
        # component k's columns of the table
        self.sign_base = 2 * np.arange(len(transformed))[:, None]
        # Python floats: float ** float is the C library's pow, which numpy's
        # vectorized power does not match to the last bit on every host
        self.powered = [(k, c.lam) for k, c in enumerate(components) if c.lam != 1.0]
        # the fewest rows a screened batch has: never, unless o >= 3
        # components are all transformed and share one lambda
        o = len(components)
        served = o >= 3 and len(transformed) == o and len({c.lam for c in components}) == 1
        self.screen_rows = -(-_SCREEN_WORK // (o - 2)) if served else np.inf

    @cached_property
    def _screen(self) -> _Screen:
        return _Screen(self)

    def _inputs(self, X: np.ndarray) -> np.ndarray:
        """z = R(x - m) of every (row, component) pair, shape (n, o, d)."""
        Z = X[:, None, :] - self.centers  # (n, o, d): z = x - m per pair
        r = self.rotated
        if r is not None:
            # one matrix-vector product per pair, as R @ z for one point
            Z[:, r] = np.matmul(self.rotations, Z[:, r, :, None])[..., 0]
        if not np.isfinite(Z).all():
            raise ValueError("transform input must be finite")
        return Z

    @np.errstate(over="ignore")
    def __call__(self, X: np.ndarray) -> np.ndarray:
        """Values of the rows of the float array ``X`` of shape (n, d).  A
        value that overflows is inf, with no warning: every evaluation entry
        runs through here."""
        if len(X) >= self.screen_rows:
            return self.screen(X)
        return self.exact(X)

    def exact(self, X: np.ndarray) -> np.ndarray:
        """Every pair through the float64 path: the oracle of ``screen``."""
        Z = self._inputs(X)
        t = self.transformed
        if t is not None:
            Z[:, t] = modulate(Z[:, t], self.signs, self.sign_base)
        # one dot product per pair, as np.dot(t * h, t) for one point
        Q = np.matmul((Z * self.h)[:, :, None, :], Z[:, :, :, None])[:, :, 0, 0]
        for k, lam in self.powered:
            Q[:, k] = _power(Q[:, k].tolist(), lam)
        return (Q + self.sigma).min(axis=1)

    def screen(self, X: np.ndarray) -> np.ndarray:
        """The values ``exact`` gives, from the exact path run on the
        candidate pairs only."""
        Z = self._inputs(X)
        screen = self._screen
        lo, hi = screen.bounds(Z)
        # NaN-safe: a NaN upper bound is skipped, a NaN lower bound is a candidate
        comps, rows = np.nonzero(~(lo > np.fmin.reduce(hi, axis=0)))
        # every component is transformed, so row k of sign_base is component k's
        Zc = modulate(Z[rows, comps], self.signs, self.sign_base[comps])  # (c, d)
        # one dot product per pair, as in ``exact``
        Q = np.matmul((Zc * self.h[comps])[:, None, :], Zc[:, :, None])[:, 0, 0]
        if screen.lam != 1.0:
            Q = np.array(_power(Q.tolist(), screen.lam))
        Q += self.sigma[comps]
        out = np.empty(len(X))
        if len(rows) == len(X):  # one candidate per row
            out[rows] = Q
        else:
            out.fill(np.inf)
            np.minimum.at(out, rows, Q)
        return out


class _Screen:
    """The float32 screen of one kernel whose components are all transformed
    and share one lambda: bounds on every pair's value.  Built on a kernel's
    first screened batch."""

    def __init__(self, kernel: _Kernel):
        components = kernel.components
        d = kernel.dim
        self.lam = components[0].lam
        # the sign table with both frequency rows (a table that dropped its
        # equal second row repeats its first) in float32, frequencies halved
        # and amplitudes doubled
        self.signs32 = (kernel.signs[[0, -2, -1]] * [[0.5], [0.5], [2.0]]).astype(np.float32)
        # (o, 1, 1) column of 2k, broadcast against the (o, d, n) screen input
        self.screen_base = kernel.sign_base[:, :, None]
        mu = np.array([max(c.transform.mu) for c in components])
        w = np.array([max(c.transform.omega) for c in components])
        slope = _U * (40.0 + 96.0 * mu * w)  # A
        self.slope32 = (slope / 2).astype(np.float32)[:, None, None]
        # h / 2**e in float32, rounded down for the lower and up for the upper
        # bound's quadratic form, with 2**e >= max h per component
        e = np.frexp(kernel.h.max(axis=1))[1]
        scaled = np.ldexp(kernel.h, -e[:, None])  # exact, even at 2**1024
        h32 = scaled.astype(np.float32)
        down = np.where(h32 > scaled, np.nextafter(h32, np.float32(0)), h32)
        up = np.where(h32 < scaled, np.nextafter(h32, np.float32(np.inf)), h32)
        self.h32 = np.stack([down, up])[:, :, None, :]  # (2, o, 1, d)
        # per component, (2, o, 1) columns against the (2, o, n) bounds
        widen = _U * (20.0 + 96.0 * mu + 8.0 * mu * w + d + 1)  # B'
        slack = (d * np.exp2(-1074.0 - e) * (1.0 + np.exp(44.5 + 2.1 * mu))
                 + d * 2.0**-125 * np.exp(4.1 * mu + 52.0 * slope))  # D
        # the log-domain terms, before and after the power
        shift = e * np.log(2.0)
        spread = widen + (d + 2) * 2.0**-52 + (np.abs(shift) + 800.0) * 2.0**-48
        margin = self.lam * spread + _TAU
        self.slack = np.stack([-slack, slack])[:, :, None]
        # an upper form whose bound reaches float64's largest value may be a
        # quadratic form the exact path overflows to inf, even where lam < 1
        self.overflow = (np.log(np.finfo(float).max) - shift - spread)[:, None]
        self.margin = np.stack([self.lam * shift - margin, self.lam * shift + margin])[:, :, None]
        self.sigma_column = kernel.sigma[:, None]

    def bounds(self, Z: np.ndarray) -> np.ndarray:
        """Lower and upper bounds on the value of every pair of ``Z``, the
        kernel's (n, o, d) transform input, as an array of shape (2, o, n)."""
        with np.errstate(all="ignore"):
            # float32, laid out (o, d, n): the tables broadcast over d and n
            z = Z.transpose(1, 2, 0).astype(np.float32)
            # column 2k + 1 for z < 0, as in ``modulate`` (z = 0 gives NaN)
            idx = self.screen_base + (z.view(np.uint32) >> 31)
            z *= z
            log_z2 = np.log(z, out=z)
            w1, w2, mu = self.signs32
            s = w1.take(idx)
            s *= log_z2
            np.sin(s, out=s)
            s2 = w2.take(idx)
            s2 *= log_z2
            s += np.sin(s2, out=s2)
            y = mu.take(idx)
            y *= s
            y += log_z2  # log T(z)**2
            a = np.abs(log_z2, out=log_z2)
            a *= self.slope32  # the widening a
            widened = np.empty((2,) + z.shape, dtype=np.float32)
            np.subtract(y, a, out=widened[0])
            np.add(y, a, out=widened[1])
            np.exp(widened, out=widened)
            # the lower and the upper quadratic form, carried on in float64
            q = np.matmul(self.h32, widened)[:, :, 0].astype(float)
            q += self.slack
            q[0][np.isinf(q[0])] = np.nan  # an overflowed lower form bounds nothing
            np.log(q, out=q)
            q[1][q[1] >= self.overflow] = np.inf
            q *= self.lam
            q += self.margin
            np.exp(q, out=q)
            q += _SUBNORMAL
        q += self.sigma_column
        return q


# Bounds within +-2**1000 keep a box at most W = 2**1001 wide, so no search step
# and no in-box evaluation input overflows: a PS row lies within 0.1 W of x, a DE
# mutant within 2 * 2**1000 of 0, PSO's constriction velocity below
# CHI (C1 + C2) W / (1 - CHI) ~ 11 W (so every PSO sum within ~31 * 2**1000), and
# each element of R(x - m) is at most 2**1001 sqrt(d); all far below 2**1024.
BOUND_LIMIT = 2.0**1000


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A box-bounded minimization problem built from one or more components.

    The global optimum is known by construction: the center of the component
    with the smallest floor value (ties broken by lowest index), whose index
    and value are set when the instance is built.
    """

    dim: int
    lower: np.ndarray
    upper: np.ndarray
    components: tuple[Component, ...]
    provenance: dict | None = None

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != (self.dim,) or upper.shape != (self.dim,):
            raise ValueError(f"bounds must have shape ({self.dim},)")
        if not np.all(np.abs([lower, upper]) <= BOUND_LIMIT):  # NaN fails too
            raise ValueError(f"bounds must be finite and within +-2**1000 ({BOUND_LIMIT:.4g})")
        if np.any(lower >= upper):
            raise ValueError("require lower < upper in every dimension")
        components = tuple(self.components)
        if not components:
            raise ValueError("at least one component required")
        for k, comp in enumerate(components):
            if comp.dim != self.dim:
                raise ValueError(f"component {k} has dim {comp.dim}, expected {self.dim}")
            if np.any(comp.center < lower) or np.any(comp.center > upper):
                raise ValueError(f"component {k} center lies outside the bounds")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "components", components)
        optimum = int(np.argmin([c.sigma for c in components]))  # lowest index on ties
        object.__setattr__(self, "optimum_index", optimum)
        object.__setattr__(self, "optimum_value", components[optimum].sigma)

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_kernel", None)  # rebuilt on first use
        return state

    @cached_property
    def _kernel(self) -> _Kernel:
        return _Kernel(self.components)

    @property
    def optimum_position(self) -> np.ndarray:
        return self.components[self.optimum_index].center

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lower, self.upper


def evaluate(instance: ProblemInstance, x: np.ndarray) -> float:
    """Objective value: minimum over all components.  The one-row case of
    ``evaluate_batch``, with the same bits."""
    x = np.asarray(x, dtype=float)
    if x.shape != (instance.dim,):
        raise ValueError(f"x must have shape ({instance.dim},), got {x.shape}")
    return float(instance._kernel(x[None])[0])


# (rows x components x d) elements per kernel call: bounds the size of its
# temporaries, so a large batch does not raise peak memory
_BLOCK_ELEMENTS = 2**14


def evaluate_batch(instance: ProblemInstance, X: np.ndarray) -> np.ndarray:
    """Objective values of the rows of ``X`` (shape (n, d)) as an (n,) array.

    Row-exact: ``evaluate_batch(instance, X)[i] == evaluate(instance, X[i])``
    bit for bit.
    """
    X = np.asarray(X, dtype=float)
    d = instance.dim
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"X must have shape (n, {d}), got {X.shape}")
    kernel = instance._kernel
    rows = max(1, _BLOCK_ELEMENTS // kernel.centers.size)
    if len(X) <= rows:
        return kernel(X)
    return np.concatenate([kernel(X[a:a + rows]) for a in range(0, len(X), rows)])


def dominated_components(instance: ProblemInstance) -> list[int]:
    """Indices of components whose center is covered by another basin.

    Component k is dominated when the full landscape dips below its floor at
    its own center: f(m_k) < sigma_k - 1e-12 max(1, |sigma_k|).  Dominated
    components add cost but no landscape structure.
    """
    at_centers = evaluate_batch(instance, instance._kernel.centers).tolist()
    return [
        k for k, comp in enumerate(instance.components)
        if at_centers[k] < comp.sigma - 1e-12 * max(1.0, abs(comp.sigma))
    ]


def _variable_groups(comp: Component) -> int:
    """Number of groups of interacting variables: i and j interact when some
    row of the rotation is nonzero in both columns, and the groups are the
    connected components of that relation.  Unrotated, each variable is one."""
    if not comp.is_rotated:
        return comp.dim
    nonzero = (comp.rotation != 0).astype(int)
    linked = nonzero.T @ nonzero > 0
    label = first = np.arange(comp.dim)
    while True:  # each variable takes the smallest label it is linked to
        smallest = np.where(linked, label, comp.dim).min(axis=1)
        if np.array_equal(smallest, label):  # each group is labelled by its first variable
            return int(np.count_nonzero(label == first))
        label = smallest


def _separability(instance: ProblemInstance) -> str:
    if len(instance.components) > 1:
        return "non-separable"
    comp = instance.components[0]
    groups = _variable_groups(comp)
    if groups == comp.dim:
        return "fully-separable"
    if groups == 1 or comp.lam != 1.0:  # a λ power makes the groups' terms not additive
        return "non-separable"
    return "partially-separable"


def classify(instance: ProblemInstance) -> dict:
    """Characteristics record derived from the instance description alone."""
    comps = instance.components
    per_component = [
        {
            "condition_number": c.condition_number,
            "basin_linearity": c.basin_linearity,
            "basin_local_optima": c.transform.active,
            "symmetric": c.transform.symmetric,
            "rotated": c.is_rotated,
        }
        for c in comps
    ]
    single = len(comps) == 1
    local_optima = any(pc["basin_local_optima"] for pc in per_component)
    linearities = {pc["basin_linearity"] for pc in per_component}
    return {
        "dim": instance.dim,
        "num_components": len(comps),
        "modality": "unimodal" if single and not local_optima else "multimodal",
        "basin_local_optima": local_optima,
        "separability": _separability(instance),
        "symmetric": single and per_component[0]["symmetric"],
        "condition_number": max(pc["condition_number"] for pc in per_component),
        "basin_linearity": linearities.pop() if len(linearities) == 1 else "mixed",
        "optimum_value": instance.optimum_value,
        "components": per_component,
    }


class BudgetedEvaluator:
    """Budget-tracked evaluation with best-so-far accounting.

    Single-writer: one evaluator per optimizer run.  ``history`` records
    (fe, error) at every improvement, where error = best value found minus
    the instance's optimum value.
    """

    def __init__(self, instance: ProblemInstance, max_fe: int):
        if max_fe < 1:
            raise ValueError(f"max_fe must be >= 1, got {max_fe}")
        self.instance = instance
        self.max_fe = int(max_fe)
        self.fe_used = 0
        self.best_value = np.inf
        self.best_position: np.ndarray | None = None
        self.history: list[tuple[int, float]] = []

    @property
    def best_error(self) -> float:
        return self.best_value - self.instance.optimum_value

    def __call__(self, x: np.ndarray) -> float:
        """Charge one FE for the point ``x``: the one-row case of ``batch``."""
        return float(self.batch(np.asarray(x, dtype=float)[None])[0])

    def batch(
        self,
        X: np.ndarray,
        threshold: float | None = None,
        stop_below: float | None = None,
    ) -> np.ndarray:
        """Evaluate the rows of ``X`` as that many successive one-point
        charges would, in one kernel call, and return the values of the rows
        charged.

        Charging stops after the row that uses up the budget, after the row
        that brings ``best_error`` to ``threshold`` or below, and after the
        first row whose value is below ``stop_below``.  Rows past the
        remaining budget are not evaluated; rows past a stop are evaluated
        but neither charged nor recorded.
        """
        if self.fe_used >= self.max_fe:
            raise BudgetExhaustedError(
                f"evaluation budget of {self.max_fe} exhausted"
            )
        X = np.asarray(X, dtype=float)[: self.max_fe - self.fe_used]
        values = evaluate_batch(self.instance, X)
        optimum = self.instance.optimum_value
        best = self.best_value
        stop_error = -np.inf if threshold is None else threshold
        stop_value = -np.inf if stop_below is None else stop_below
        for j, value in enumerate(values.tolist()):
            if value < best:
                best = self.best_value = value
                self.best_position = X[j].copy()
                self.history.append((self.fe_used + j + 1, best - optimum))
            if best - optimum <= stop_error or value < stop_value:
                values = values[: j + 1]
                break
        self.fe_used += len(values)
        return values
