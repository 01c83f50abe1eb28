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

    @property
    def symmetric(self) -> bool:
        """True when the map is odd, ``T(-a) == -T(a)``: both sides have the
        same ``{frequency: summed amplitude}`` sine terms, zero frequencies
        and zero amplitudes left out."""
        mu1, mu2 = self.mu
        w1, w2, w3, w4 = self.omega
        return _sine_terms(mu1, w1, w2) == _sine_terms(mu2, w3, w4)


def _sine_terms(mu: float, w1: float, w2: float) -> dict:
    """``{frequency: summed amplitude}`` of one side's sine terms
    ``mu (sin(w1 L) + sin(w2 L))``, without the terms that are zero."""
    terms = {}
    for w in (w1, w2):
        if w != 0.0 and mu != 0.0:
            terms[w] = terms.get(w, 0.0) + mu
    return terms


def sign_table(params) -> np.ndarray:
    """The per-sign parameters of the transforms ``params``, one column each.

    Column ``2k`` holds transform k's ``(w1, w2, mu1)``, used for inputs
    > 0, and column ``2k + 1`` its ``(w3, w4, mu2)``, used for inputs <= 0.
    When every transform's two frequencies agree on both sides, the second
    frequency row is dropped and the table holds the rows ``(w, mu)``.
    """
    table = np.array([(p.omega[0], p.omega[1], p.mu[0], p.omega[2], p.omega[3], p.mu[1])
                      for p in params]).reshape(-1, 3).T
    return np.delete(table, 1, axis=0) if np.array_equal(table[0], table[1]) else table


def modulate(a: np.ndarray, table: np.ndarray, base) -> np.ndarray:
    """The transform of finite ``a``, as a new array.

    ``table`` is a ``sign_table`` and ``base`` an integer array that
    broadcasts against ``a``, holding ``2k`` for the elements that transform
    k acts on, so one call can transform the stacked vectors of many
    components, each with its own parameters.  Each element gathers its
    frequencies and amplitude from column ``base + (a <= 0)``.  When the
    table has one frequency row, ``sin`` is taken once and doubled, which is
    exactly the sum of the two equal sines.  Each element takes the same
    operations as it would alone, so its value does not depend on what else
    is in the call.
    """
    # in-place steps keep the number of live temporaries small
    la = np.abs(a)
    inactive = la < _TINY
    la[inactive] = 1.0  # inactive elements pass through unchanged below
    np.log(la, out=la)
    idx = base + (a <= 0)
    wa = table[0].take(idx)
    wa *= la
    np.sin(wa, out=wa)
    if len(table) == 2:
        wa += wa
    else:
        wb = table[1].take(idx)
        wb *= la
        wa += np.sin(wb, out=wb)
    v = table[-1].take(idx)
    v *= wa
    v += la
    np.exp(v, out=v)
    np.copysign(v, a, out=v)
    np.copyto(v, a, where=inactive)
    return v


def apply_transform(a: np.ndarray, params: TransformParams) -> np.ndarray:
    """Apply the modulation element-wise; output has the sign of the input."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("transform input must be finite")
    if params.is_identity:
        return a.copy()
    # modulate writes into its temporaries, which a 0-d input would make scalars
    return modulate(a.reshape(-1), sign_table([params]), 0).reshape(a.shape)
