"""Element-wise log-domain sinusoidal modulation.

The transform injects local optima, ruggedness, and asymmetry into a
component's basin: positive inputs are modulated through
``exp(log(a) + mu1*(sin(w1*log a) + sin(w2*log a)))``, negative inputs
mirror that on ``|a|`` with the second amplitude / frequency pair, and
zero maps to exactly zero so the basin minimum never moves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Inputs below the smallest normal are returned unchanged: log() underflow
# artifacts would otherwise perturb points numerically at the minimum.
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class TransformParams:
    """Amplitudes ``mu = (mu1, mu2)`` and frequencies ``omega = (w1..w4)``.

    mu1/w1/w2 act on positive inputs, mu2/w3/w4 on negative ones; unequal
    values make the basin asymmetric.  All zero means the identity map.
    """

    mu: tuple[float, float] = (0.0, 0.0)
    omega: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        mu = tuple(float(v) for v in self.mu)
        omega = tuple(float(v) for v in self.omega)
        if len(mu) != 2:
            raise ValueError(f"mu must have 2 elements, got {len(mu)}")
        if len(omega) != 4:
            raise ValueError(f"omega must have 4 elements, got {len(omega)}")
        for name, vals in (("mu", mu), ("omega", omega)):
            for v in vals:
                if not np.isfinite(v) or v < 0:
                    raise ValueError(f"{name} values must be finite and >= 0, got {v}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "omega", omega)

    @property
    def is_identity(self) -> bool:
        return self.mu == (0.0, 0.0)

    @property
    def active(self) -> bool:
        """True when the transform actually creates local optima."""
        mu1, mu2 = self.mu
        w1, w2, w3, w4 = self.omega
        return (mu1 > 0 and (w1 > 0 or w2 > 0)) or (mu2 > 0 and (w3 > 0 or w4 > 0))


def modulate(a: np.ndarray, mu, omega) -> np.ndarray:
    """The transform of finite ``a``, as a new array.

    ``mu = (mu1, mu2)`` and ``omega = (w1, w2, w3, w4)`` hold floats or
    arrays that broadcast against ``a``, so one call can transform the
    stacked vectors of many components, each with its own parameters.  Each
    element takes the same operations as it would alone, so its value does
    not depend on what else is in the call.
    """
    # in-place steps keep the number of live temporaries small
    la = np.abs(a)
    active = la >= _TINY
    positive = a > 0
    la[~active] = 1.0  # inactive elements pass through unchanged below
    np.log(la, out=la)
    wa = np.where(positive, omega[0], omega[2])
    wa *= la
    np.sin(wa, out=wa)
    wb = np.where(positive, omega[1], omega[3])
    wb *= la
    wa += np.sin(wb, out=wb)
    v = np.where(positive, mu[0], mu[1])
    v *= wa
    v += la
    np.exp(v, out=v)
    return np.where(active, np.copysign(v, a, out=v), a)


def apply_transform(a: np.ndarray, params: TransformParams) -> np.ndarray:
    """Apply the modulation element-wise; output has the sign of the input."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("transform input must be finite")
    if params.is_identity:
        return a.copy()
    return modulate(a, params.mu, params.omega)
