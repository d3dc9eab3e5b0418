"""Drift-correction constants and the lattice sums behind them.

The corrected drift adds (per unit trace) a constant that depends on the
noise spectrum and on the dissipation family:

* white noise, default family:  1 / (2 sqrt(nu));
* spatially colored noise with spectral exponent alpha in (0, 1/2):
      (1 / (pi nu^{alpha+1/2})) * int_0^inf dx / (x^{2 alpha} (1 + x^2))
      = 1 / (2 nu^{alpha+1/2} cos(pi alpha));
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

import numpy as np

# Tolerances and subdivision budget of poly_constant's adaptive quadratures.
# Its improper integral is split at x = 1 and the tail [1, inf) is mapped
# onto (0, 1] by x -> 1/x, so the rule never sees an infinite interval.
QUAD_ABS_TOL = 1e-12
QUAD_REL_TOL = 1e-10
QUAD_LIMIT = 200


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def _quad(fn, lo: float, hi: float) -> float:
    from scipy import integrate  # only the constants command needs it

    value, err = integrate.quad(fn, lo, hi, epsabs=QUAD_ABS_TOL,
                                epsrel=QUAD_REL_TOL, limit=QUAD_LIMIT)
    if not math.isfinite(value):
        raise QuadratureError("quadrature produced a non-finite value")
    if err > 100.0 * max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(value)):
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


def alpha_constant(nu: float, alpha: float) -> float:
    """Correction constant 1 / (2 nu^{alpha+1/2} cos(pi alpha)) for forcing
    with spectral decay exponent alpha in (0, 1/2): the closed form of
    (1 / (pi nu^{alpha+1/2})) int_0^inf dx / (x^{2 alpha} (1 + x^2)), as
    that integral is (pi/2) / cos(pi alpha)."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    return 1.0 / (2.0 * nu ** (alpha + 0.5) * math.cos(math.pi * alpha))


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


def poly_constant(nu: float, q_coeffs) -> float:
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
    poly = np.asarray(c)
    d = len(c) - 1
    # R(t) = sum_j c_j t^{2(d-j)}: ascending coefficients of t with stride 2.
    r = np.zeros(2 * d + 1)
    for j, cj in enumerate(c):
        r[2 * (d - j)] = cj
    head = _quad(
        lambda x: 1.0 / np.polynomial.polynomial.polyval(x * x, poly),
        0.0, 1.0)
    tail = _quad(
        lambda t: t ** (2 * d - 2) / np.polynomial.polynomial.polyval(t, r),
        0.0, 1.0)
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


def _lattice_sum(nu: float, eps: float, sigma) -> float:
    """sum_{k in Z} eps * sigma(k) for sigma ~ 1/(eps^2 k^2) at infinity.

    Sums directly up to a cutoff K and adds the exact trigamma tail of the
    leading 1/(eps^2 k^2) behaviour.  The residual of that replacement is
    bounded per sign by (1/eps^3) (1/(5 K^5) + nu/(3 K^3)); K (at least
    1000) keeps both signs together below 1e-12.
    """
    from scipy import special  # only the constants command needs it

    if eps <= 0:
        raise ValueError("eps must be positive")
    k = (2.0 * (nu / 3.0 + 0.2) / (1e-12 * eps ** 3)) ** (1.0 / 3.0)
    cutoff = max(1000, int(math.ceil(k)))
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
