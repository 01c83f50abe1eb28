"""Plane-rotation machinery: composed rotation matrices and random
interaction structures.

Variable interactions are encoded as an upper-triangular matrix of plane
angles (one angle per variable pair).  Composing the corresponding Givens
factors yields an orthogonal matrix that couples exactly the pairs with a
nonzero angle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ORTHOGONALITY_TOL = 1e-12
ANGLE_RANGE = (-np.pi, np.pi)


@dataclass(frozen=True, eq=False)
class ThetaSpec:
    """Upper-triangular matrix of plane-rotation angles (radians).

    Only entries strictly above the principal diagonal may be nonzero;
    ``angles[p-1, q-1]`` (1-indexed pair p < q) is the rotation angle for
    the x_p - x_q plane.
    """

    dim: int
    angles: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        angles = np.asarray(self.angles, dtype=float)
        if angles.shape != (self.dim, self.dim):
            raise ValueError(
                f"angles must have shape ({self.dim}, {self.dim}), got {angles.shape}"
            )
        if not np.all(np.isfinite(angles)):
            raise ValueError("theta angles must be finite")
        if np.any(np.tril(angles) != 0.0):
            raise ValueError("angles on or below the principal diagonal must be zero")
        object.__setattr__(self, "angles", angles)

    @classmethod
    def from_triples(cls, dim: int, triples) -> "ThetaSpec":
        """Build from an iterable of 1-indexed (p, q, angle) triples, one per pair."""
        angles = np.zeros((dim, dim))
        seen = set()
        for p, q, angle in triples:
            if not (1 <= p < q <= dim):
                raise ValueError(f"invalid theta pair (p={p}, q={q}) for dim {dim}")
            if (p, q) in seen:
                raise ValueError(f"repeated theta pair (p={p}, q={q})")
            seen.add((p, q))
            angles[p - 1, q - 1] = angle
        return cls(dim, angles)

    def to_triples(self) -> list[tuple[int, int, float]]:
        """1-indexed (p, q, angle) triples for every nonzero angle."""
        ps, qs = np.nonzero(self.angles)
        return list(zip((ps + 1).tolist(), (qs + 1).tolist(), self.angles[ps, qs].tolist()))

    def num_nonzero(self) -> int:
        return int(np.count_nonzero(self.angles))

    def is_identity(self) -> bool:
        return self.num_nonzero() == 0


def rotation_from_theta(theta_spec: ThetaSpec) -> np.ndarray:
    """Compose the rotation matrix from a ThetaSpec.

    Iterates pairs p = 1..d-1 (outer), q = p+1..d (inner), right-multiplying
    a Givens factor for every nonzero angle.  Zero angles are skipped, so the
    all-zero spec yields the identity.

    The factors are applied by wavefront, t = p + q, one vectorized step per
    t: at most 2d - 3 steps.  Two factors of one wavefront never share a
    column (p1 < p2 and p1 + q1 = p2 + q2 give p1 < p2 < q2 < q1), so they
    commute.  Column j meets its factors (p, j) at t = p + j < 2j and then
    (j, q) at t = j + q > 2j, in row-major order, so each column takes the
    same updates in the same order as in the row-major product.  A step
    gathers its columns p and q and then their partners q and p, multiplies
    them by (cos, cos, sin, -sin), and adds the partners in: every element
    takes exactly the operations of the two-column update of each factor.
    """
    d = theta_spec.dim
    rt = np.eye(d)  # rt[j] is column j of R
    ps, qs = np.nonzero(theta_spec.angles)  # row-major: the factors in order
    wave = ps + qs
    order = np.argsort(wave, kind="stable")
    ps, qs = ps[order], qs[order]
    values = theta_spec.angles[ps, qs]
    cos, sin = np.cos(values), np.sin(values)
    cols = np.stack((ps, qs, qs, ps))  # updated columns, then their partners
    coef = np.stack((cos, cos, sin, -sin))[:, :, None]
    start = 0
    for end in np.cumsum(np.bincount(wave)).tolist():
        if end == start:
            continue
        g = rt[cols[:, start:end]]
        g *= coef[:, start:end]
        g[:2] += g[2:]
        rt[cols[:2, start:end]] = g[:2]
        start = end
    r = rt.T.copy()
    err = orthogonality_error(r)
    if not err <= ORTHOGONALITY_TOL:  # NaN-safe
        raise ArithmeticError(f"composed rotation lost orthogonality (error {err:.3e})")
    return r


def orthogonality_error(r: np.ndarray) -> float:
    """Max-norm of R^T R - I."""
    d = r.shape[0]
    return float(np.max(np.abs(r.T @ r - np.eye(d))))


def random_theta(dim: int, p_prob: float, rng: np.random.Generator) -> ThetaSpec:
    """Random interaction structure: each above-diagonal entry independently
    receives a nonzero angle, uniform over ``ANGLE_RANGE`` = (lo, hi), with
    probability ``p_prob``, else stays zero.  p_prob = 0 gives a fully
    separable structure, p_prob = 1 a fully connected one.

    Pairs are visited in row-major order.  Unless p_prob = 1, each pair
    first takes a test draw u, and opens when u < p_prob; an open pair takes
    draws ``lo + (hi - lo) * u`` (``rng.uniform(lo, hi)``) until one is
    nonzero.  Every pair takes at least one draw, so the doubles are pulled
    with ``rng.random(k)``, k the number of pairs still to settle, and
    walked in this order: the angles and the generator's state on exit are
    those of drawing each double with ``rng.uniform`` in turn.
    """
    if not 0.0 <= p_prob <= 1.0:
        raise ValueError(f"p_prob must be in [0, 1], got {p_prob}")
    lo, hi = ANGLE_RANGE
    width = hi - lo

    angles = np.zeros((dim, dim))
    ps, qs = np.triu_indices(dim, 1)
    values = [0.0] * ps.size
    tested = p_prob < 1.0
    i, opened = 0, not tested
    while i < len(values):
        for u in rng.random(len(values) - i).tolist():
            if not opened:
                if u < p_prob:
                    opened = True
                else:
                    i += 1
                continue
            angle = lo + width * u
            if angle != 0.0:  # measure zero, but nonzero is contractual
                values[i] = angle
                i, opened = i + 1, not tested
    angles[ps, qs] = values
    return ThetaSpec(dim, angles)


def full_theta(dim: int, angle: float) -> ThetaSpec:
    """Every above-diagonal entry set to the same fixed angle."""
    angles = np.triu(np.full((dim, dim), float(angle)), k=1)
    return ThetaSpec(dim, angles)
