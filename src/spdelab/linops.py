"""Diagonal linear operators for the perturbed heat semigroups.

Every operator in the family is diagonal over the Fourier modes with symbol

    lambda_k = -(1 + nu * k^2 * Q(eps^2 * k^2)),

where Q is a polynomial with Q(0) = 1, positive leading coefficient, and
Q > 0 on [0, infinity).  The constant -1 shift is baked into every symbol so
the k = 0 mode is strictly stable; the compensating +1 lives in the
nonlinearity module.  The default Q(y) = 1 + y/nu reproduces

    lambda_k = -(1 + nu*k^2 + eps^2*k^4),

i.e. the fourth-order singular perturbation of the heat operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import SpectralField

_SERIES_THRESHOLD = 1e-5  # |lambda*h| below this uses the Taylor branch


def _validate_positive_polynomial(coeffs: tuple[float, ...], what: str) -> None:
    """Check c0 = 1, positive leading coefficient, and positivity on [0, inf).

    Positivity is established by a root bound (no real nonnegative roots)
    plus direct sampling on a wide logarithmic grid.
    """
    c = np.asarray(coeffs, dtype=np.float64)
    if c.ndim != 1 or c.size < 1 or not np.all(np.isfinite(c)):
        raise ValueError(f"{what}: coefficients must be a finite 1-d sequence")
    if abs(c[0] - 1.0) > 1e-12:
        raise ValueError(f"{what}: constant term must equal 1 (Q(0) = 1)")
    if c[-1] <= 0.0:
        raise ValueError(f"{what}: leading coefficient must be positive")
    if c.size > 1:
        roots = np.roots(c[::-1])
        scale = float(np.max(np.abs(roots), initial=1.0))
        real_nonneg = roots[(np.abs(roots.imag) <= 1e-9 * scale)
                            & (roots.real >= -1e-12 * scale)]
        if real_nonneg.size:
            raise ValueError(f"{what}: polynomial has a nonnegative real root, "
                             "so it is not positive on [0, inf)")
    sample = np.concatenate(([0.0], np.logspace(-6, 12, 181)))
    if np.any(np.polynomial.polynomial.polyval(sample, c) <= 0.0):
        raise ValueError(f"{what}: polynomial is nonpositive somewhere on [0, inf)")


@dataclass(frozen=True)
class OperatorSpec:
    """Parameters (nu, eps, Q) of one diagonal operator.

    poly_q holds the coefficients of Q in ascending order; None selects the
    default Q(y) = 1 + y/nu.
    """

    nu: float
    eps: float = 0.0
    poly_q: tuple[float, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not (self.nu > 0.0 and np.isfinite(self.nu)):
            raise ValueError("nu must be positive and finite")
        if not (self.eps >= 0.0 and np.isfinite(self.eps)):
            raise ValueError("eps must be nonnegative and finite")
        q = self.poly_q
        if q is None:
            q = (1.0, 1.0 / self.nu)
        else:
            q = tuple(float(x) for x in q)
            _validate_positive_polynomial(q, "poly_q")
        object.__setattr__(self, "poly_q", q)

    @property
    def has_default_q(self) -> bool:
        default = (1.0, 1.0 / self.nu)
        return len(self.poly_q) == 2 and np.allclose(self.poly_q, default,
                                                     rtol=1e-13, atol=0.0)


def symbols(op: OperatorSpec, k) -> np.ndarray:
    """Vector of symbols lambda_k = -(1 + nu k^2 Q(eps^2 k^2)); always <= -1."""
    karr = np.asarray(k, dtype=np.float64)
    y = (op.eps ** 2) * karr ** 2
    q = np.polynomial.polynomial.polyval(y, np.asarray(op.poly_q))
    return -(1.0 + op.nu * karr ** 2 * q)


def apply_semigroup(op: OperatorSpec, u: SpectralField, t: float) -> SpectralField:
    """Multiply each mode by exp(lambda_k * t); requires t >= 0."""
    if t < 0.0:
        raise ValueError("semigroup time must be nonnegative")
    lam = symbols(op, np.arange(u.max_mode + 1))
    return SpectralField(u.n_components, u.max_mode, u.coeffs * np.exp(lam * t))


def etd_weights(lam: np.ndarray, h: float) -> np.ndarray:
    """Vectorized exponential-Euler weight (exp(lambda*h) - 1)/lambda.

    For |lambda*h| < 1e-5 a 4-term Taylor expansion of the same quantity is
    used (relative truncation error below 1e-21), which also covers
    lambda = 0 where the weight equals h.
    """
    if h <= 0.0:
        raise ValueError("step size must be positive")
    lam = np.asarray(lam, dtype=np.float64)
    z = lam * h
    out = np.empty_like(z)
    small = np.abs(z) < _SERIES_THRESHOLD
    zb = z[~small]
    out[~small] = np.expm1(zb) / lam[~small]
    zs = z[small]
    out[small] = h * (1.0 + zs / 2.0 + zs * zs / 6.0 + zs * zs * zs / 24.0)
    return out


def semigroup_gap(op: OperatorSpec, k: int, t: float) -> float:
    """|exp(lambda^eps_k t) - exp(lambda^0_k t)| for the default-Q family.

    Equals exp(-(1 + nu k^2) t) * (1 - exp(-eps^2 k^4 t)); defined only for
    the default Q, where the eps-dependence of the symbol is exactly
    -eps^2 k^4.
    """
    if not op.has_default_q:
        raise ValueError("semigroup_gap is defined for the default Q only")
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    k2 = float(k) ** 2
    s = np.exp(-(1.0 + op.nu * k2) * t)
    return float(s * (-np.expm1(-(op.eps ** 2) * k2 * k2 * t)))
