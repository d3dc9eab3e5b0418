"""Diagonal linear operators for the perturbed heat semigroups.

Every operator is diagonal over the Fourier modes with symbol

    lambda_k = -(1 + nu*k^2 + eps^2*k^4),

the fourth-order singular perturbation of the heat operator.  The constant
-1 shift is baked into every symbol so the k = 0 mode is strictly stable;
the compensating +1 lives in the nonlinearity module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import SpectralField

_SERIES_THRESHOLD = 1e-5  # |lambda*h| below this uses the Taylor branch


@dataclass(frozen=True)
class OperatorSpec:
    """Parameters (nu, eps) of one diagonal operator."""

    nu: float
    eps: float = 0.0

    def __post_init__(self) -> None:
        if not (self.nu > 0.0 and np.isfinite(self.nu)):
            raise ValueError("nu must be positive and finite")
        if not (self.eps >= 0.0 and np.isfinite(self.eps)):
            raise ValueError("eps must be nonnegative and finite")


def symbols(op: OperatorSpec, k) -> np.ndarray:
    """Vector of symbols lambda_k = -(1 + nu k^2 + eps^2 k^4); always <= -1.

    Evaluated as -(1 + nu k^2 (1 + (1/nu) eps^2 k^2)): the pinned study
    outputs depend on this rounding."""
    karr = np.asarray(k, dtype=np.float64)
    y = (op.eps ** 2) * karr ** 2
    q = 1.0 + (1.0 / op.nu) * y
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
