"""Component / problem-instance data model and the evaluation pipeline.

A problem is the pointwise minimum over one or more components; each
component is a (possibly rotated, scaled, modulated) basin

    sigma + ( T(R(x - m))^T H T(R(x - m)) )^lambda

with diagonal H > 0 and orthogonal R.  Evaluation is defined everywhere;
box bounds are a search-region contract enforced by optimizers, not here.
Evaluation cost is O(o * d^2): one matrix-vector product per component.

One kernel evaluates any number of points over the stacked components.  It
applies to every (point, component) pair the same floating-point operations
as evaluating that component alone, so a point's value is the same bits
whatever batch it is evaluated in.  A single point is the one-row case of
that kernel, and one charged FE the one-row case of ``BudgetedEvaluator.batch``.
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
    plane angles (kept for serialization and separability classification);
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
        d = center.shape[0]
        if center.ndim != 1 or d < 1:
            raise ValueError("center must be a nonempty 1-D vector")
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
    skipped steps are exact identities.  Built once per instance, on first
    use, and never serialized.
    """

    def __init__(self, components: tuple[Component, ...]):
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
        self.optimum_index = int(np.argmin(self.sigma))  # lowest index on ties
        self.optimum_value = components[self.optimum_index].sigma

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """Values of the rows of the float array ``X`` of shape (n, d)."""
        Z = X[:, None, :] - self.centers  # (n, o, d): z = x - m per pair
        r = self.rotated
        if r is not None:
            # one matrix-vector product per pair, as R @ z for one point
            Z[:, r] = np.matmul(self.rotations, Z[:, r, :, None])[..., 0]
        if not np.isfinite(Z).all():
            raise ValueError("transform input must be finite")
        t = self.transformed
        if t is not None:
            Z[:, t] = modulate(Z[:, t], self.signs, self.sign_base)
        # one dot product per pair, as np.dot(t * h, t) for one point
        Q = np.matmul((Z * self.h)[:, :, None, :], Z[:, :, :, None])[:, :, 0, 0]
        for k, lam in self.powered:
            Q[:, k] = [q**lam for q in Q[:, k].tolist()]
        return (Q + self.sigma).min(axis=1)

    def one(self, x: np.ndarray) -> float:
        """Value at the point ``x`` of shape (d,): the one-row case."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"x must have shape ({self.dim},), got {x.shape}")
        return float(self(x[None])[0])


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A box-bounded minimization problem built from one or more components.

    The global optimum is known by construction: the center of the component
    with the smallest floor value (ties broken by lowest index).
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
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("bounds must be finite")
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

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_kernel", None)  # rebuilt on first use
        return state

    @cached_property
    def _kernel(self) -> _Kernel:
        return _Kernel(self.components)

    @property
    def optimum_index(self) -> int:
        return self._kernel.optimum_index

    @property
    def optimum_value(self) -> float:
        return self._kernel.optimum_value

    @property
    def optimum_position(self) -> np.ndarray:
        return self.components[self.optimum_index].center

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lower, self.upper


def evaluate(instance: ProblemInstance, x: np.ndarray) -> float:
    """Objective value: minimum over all components.  The one-row case of
    ``evaluate_batch``, with the same bits."""
    return instance._kernel.one(x)


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


def _separability(instance: ProblemInstance) -> str:
    if len(instance.components) > 1:
        return "non-separable"
    comp = instance.components[0]
    if comp.lam != 1.0:
        # dimension-wise optimizable when unrotated, but not additively separable
        return "fully-separable" if not comp.is_rotated else "non-separable"
    if not comp.is_rotated:
        return "fully-separable"
    if comp.theta is None:
        return "non-separable"
    # connected components of the interaction graph decide partial separability
    parent = list(range(comp.dim))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p, q, _ in comp.theta.to_triples():
        parent[find(p - 1)] = find(q - 1)
    groups = len({find(i) for i in range(comp.dim)})
    return "non-separable" if groups == 1 else "partially-separable"


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
