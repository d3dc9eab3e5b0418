"""Drift-correction constants and the lattice sums behind them.

The corrected drift adds (per unit trace) a constant that depends on the
noise spectrum and on the dissipation family:

* white noise, default family:  1 / (2 sqrt(nu));
* spatially colored noise with spectral exponent alpha in (0, 1/2):
      (1 / (pi nu^{alpha+1/2})) * int_0^inf dx / (x^{2 alpha} (1 + x^2));
* general polynomial family Q:  (1 / (pi nu)) * int_0^inf dx / Q(x^2);
* finite spectral truncation:   (eps / 2 pi) * sum_{|k|<=N} sigma_k with
      sigma_k = k^2 / (1 + nu k^2 + eps^2 k^4),

the last being the value a mode-truncated simulation actually feels; it
increases to the white-noise constant as eps*N -> inf, eps -> 0.

riemann_gap measures how far the full lattice sum sum_k eps*sigma_k sits
from its Riemann-integral limit pi/sqrt(nu); the gap is O(eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .linops import _validate_positive_polynomial


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budget for the adaptive quadratures.

    Improper integrals are split at x = 1 and the tail [1, inf) is mapped
    onto (0, 1] by x -> 1/x before integration, so the adaptive rule never
    sees an infinite interval.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 10:
            raise ValueError("max_subdivisions must be at least 10")


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def _quad(fn, lo: float, hi: float, quad: QuadratureConfig) -> float:
    value, err = integrate.quad(fn, lo, hi, epsabs=quad.abs_tol,
                                epsrel=quad.rel_tol,
                                limit=quad.max_subdivisions)
    if not math.isfinite(value):
        raise QuadratureError("quadrature produced a non-finite value")
    if err > 100.0 * max(quad.abs_tol, quad.rel_tol * abs(value)):
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds tolerance")
    return value


def sigma_mode(nu: float, eps: float, k) -> np.ndarray:
    """Mode variance sigma_k = k^2 / (1 + nu k^2 + eps^2 k^4)."""
    karr = np.asarray(k, dtype=np.float64)
    k2 = karr * karr
    return k2 / (1.0 + nu * k2 + eps * eps * k2 * k2)


def _mode_sum(sigma, max_mode: int) -> float:
    """sum_{k=1}^{max_mode} sigma(k), in chunks of 2^20 modes."""
    total = 0.0
    for lo in range(1, max_mode + 1, 1 << 20):
        k = np.arange(lo, min(max_mode, lo + (1 << 20) - 1) + 1,
                      dtype=np.float64)
        total += float(np.sum(sigma(k)))
    return total


def white_noise_constant(nu: float) -> float:
    """Correction constant 1/(2 sqrt(nu)) for white forcing, default family."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    return 1.0 / (2.0 * math.sqrt(nu))


def alpha_constant(nu: float, alpha: float,
                   quad: QuadratureConfig | None = None) -> float:
    """Correction constant for forcing with spectral decay exponent alpha.

    Valid for alpha in (0, 1/2).  The integrand x^{-2 alpha}/(1+x^2) has an
    integrable endpoint singularity which is removed analytically by the
    substitution x = u^{1/(1-2 alpha)} on [0, 1]; the tail is mapped to (0, 1]
    by x -> 1/x.  nu enters only through the prefactor nu^{-(alpha+1/2)}.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    quad = quad or QuadratureConfig()
    p = 1.0 / (1.0 - 2.0 * alpha)
    head = p * _quad(lambda u: 1.0 / (1.0 + u ** (2.0 * p)), 0.0, 1.0, quad)
    tail = _quad(lambda t: t ** (2.0 * alpha) / (1.0 + t * t), 0.0, 1.0, quad)
    return (head + tail) / (math.pi * nu ** (alpha + 0.5))


def poly_constant(nu: float, q_coeffs,
                  quad: QuadratureConfig | None = None) -> float:
    """Correction constant (1/(pi nu)) int_0^inf dx / Q(x^2).

    Q is given by ascending coefficients with Q(0) = 1, positive leading
    coefficient and degree >= 1, positive on [0, inf) (validated by a root
    bound plus sampling).  The tail substitution x -> 1/t turns
    int_1^inf dx/Q(x^2) into int_0^1 t^{2d-2}/R(t) dt with
    R(t) = t^{2d} Q(1/t^2), a polynomial that stays positive at t = 0.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    c = tuple(float(x) for x in q_coeffs)
    if len(c) < 2:
        raise ValueError("Q must have degree >= 1")
    _validate_positive_polynomial(c, "Q")
    quad = quad or QuadratureConfig()
    poly = np.asarray(c)
    d = len(c) - 1
    # R(t) = sum_j c_j t^{2(d-j)}: ascending coefficients of t with stride 2.
    r = np.zeros(2 * d + 1)
    for j, cj in enumerate(c):
        r[2 * (d - j)] = cj
    head = _quad(
        lambda x: 1.0 / np.polynomial.polynomial.polyval(x * x, poly),
        0.0, 1.0, quad)
    tail = _quad(
        lambda t: t ** (2 * d - 2) / np.polynomial.polynomial.polyval(t, r),
        0.0, 1.0, quad)
    return (head + tail) / (math.pi * nu)


def truncation_matched_constant(nu: float, eps: float, max_mode: int) -> float:
    """Finite-truncation correction (eps / 2 pi) sum_{|k| <= N} sigma_k.

    sigma_k = k^2 / (1 + nu k^2 + eps^2 k^4).  Monotone increasing in N and
    converging to white_noise_constant(nu) as eps*N -> inf with eps -> 0;
    at eps*N ~ 8 it sits about 8 percent below the limit, which is exactly
    the correction a simulation truncated at N modes feels.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if max_mode < 0:
        raise ValueError("max_mode must be nonnegative")
    total = _mode_sum(lambda k: sigma_mode(nu, eps, k), max_mode)
    return eps * (2.0 * total) / (2.0 * math.pi)


def _tail_cutoff(nu: float, eps: float, budget: float = 1e-12) -> int:
    """Smallest K whose post-correction truncation residual is below budget.

    After replacing the tail sum_{k>K} sigma_k by the analytic tail of
    1/(eps^2 k^2), the residual per sign is bounded by
    (1/eps^3) (1/(5 K^5) + nu/(3 K^3)); both signs double it.
    """
    k = (2.0 * (nu / 3.0 + 0.2) / (budget * eps ** 3)) ** (1.0 / 3.0)
    return max(1000, int(math.ceil(k)))


def _lattice_sum(nu: float, eps: float, sigma, budget: float = 1e-12) -> float:
    """sum_{k in Z} eps * sigma(k) for sigma ~ 1/(eps^2 k^2) at infinity.

    Sums directly up to a cutoff chosen from the analytic residual bound and
    adds the exact trigamma tail of the leading 1/(eps^2 k^2) behaviour, so
    the truncation error is below `budget`.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    cutoff = _tail_cutoff(nu, eps, budget)
    total = _mode_sum(sigma, cutoff)
    tail = float(special.polygamma(1, cutoff + 1)) / (eps * eps)
    return eps * (2.0 * total + 2.0 * tail + sigma(np.asarray([0.0]))[0])


def riemann_gap(nu: float, eps: float) -> float:
    """|pi/sqrt(nu) - sum_{k in Z} eps sigma_k|, the Riemann-sum defect.

    The full lattice sum of eps*sigma_k approaches the integral
    int dx/(nu + x^2) = pi/sqrt(nu) as eps -> 0; the defect is O(eps).
    Truncation error of the evaluated sum is kept below 1e-12 (analytic
    tail bound), far under the O(eps) quantity being measured.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    return abs(math.pi / math.sqrt(nu)
               - _lattice_sum(nu, eps, lambda k: sigma_mode(nu, eps, k)))


def _surrogate_mode_sum(nu: float, eps: float) -> float:
    """sum_{k in Z} eps / (nu + eps^2 k^2) via the same tail machinery.

    Has the closed form (pi/sqrt(nu)) * coth(pi sqrt(nu)/eps); used to
    cross-check the lattice-sum evaluation to near machine precision.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")

    def sigma(k: np.ndarray) -> np.ndarray:
        return 1.0 / (nu + eps * eps * k * k)

    return _lattice_sum(nu, eps, sigma)
