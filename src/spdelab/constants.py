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
from its Riemann-integral limit pi/sqrt(nu); the gap is O(eps).  That sum
has a closed form, and poly_constant's integral is taken by composite
Gauss-Legendre, so the module needs NumPy and the standard library only.
Every public constant rejects a nu or eps that is not finite.
"""

from __future__ import annotations

import math

import numpy as np

# poly_constant's rule: 20-point Gauss-Legendre on 1, 2, 4, ... equal panels
# of [0, 1], stopping when two panel counts agree to QUAD_TOL relative;
# needing more than QUAD_MAX_PANELS panels raises QuadratureError.
QUAD_TOL = 1e-13
QUAD_MAX_PANELS = 2 ** 16


class QuadratureError(RuntimeError):
    """poly_constant's rule did not converge within QUAD_MAX_PANELS panels."""


def _integrate_unit(fn) -> float:
    """int_0^1 fn by QUAD_TOL's composite rule; fn maps arrays pointwise."""
    nodes, weights = np.polynomial.legendre.leggauss(20)    # on [-1, 1]
    nodes, weights = (nodes + 1.0) / 2.0, weights / 2.0
    previous, panels = math.nan, 1
    while panels <= QUAD_MAX_PANELS:
        rules = np.empty(panels)   # each panel's rule, 4,096 at a time
        for lo in range(0, panels, 4096):
            x = np.arange(lo, min(panels, lo + 4096), dtype=np.float64)
            rules[lo:lo + 4096] = fn((x[:, None] + nodes) / panels) @ weights
        value = float(np.sum(rules)) / panels
        if abs(value - previous) <= QUAD_TOL * abs(value):  # False for NaN
            return value
        previous, panels = value, 2 * panels
    raise QuadratureError(f"Gauss-Legendre sums did not agree to {QUAD_TOL:g} "
                          f"within {QUAD_MAX_PANELS} panels")


def _check_nu(nu: float) -> None:
    if not 0.0 < nu < math.inf:
        raise ValueError("nu must be positive and finite")


def sigma_mode(nu: float, eps: float, k) -> np.ndarray:
    """Mode variance sigma_k = k^2 / (1 + nu k^2 + eps^2 k^4)."""
    karr = np.asarray(k, dtype=np.float64)
    k2 = karr * karr
    return k2 / (1.0 + nu * k2 + eps * eps * k2 * k2)


def white_noise_constant(nu: float) -> float:
    """Correction constant 1/(2 sqrt(nu)) for white forcing, default family."""
    _check_nu(nu)
    return 1.0 / (2.0 * math.sqrt(nu))


def alpha_constant(nu: float, alpha: float) -> float:
    """Correction constant 1 / (2 nu^{alpha+1/2} cos(pi alpha)) for forcing
    with spectral decay exponent alpha in (0, 1/2): the closed form of
    (1 / (pi nu^{alpha+1/2})) int_0^inf dx / (x^{2 alpha} (1 + x^2)), as
    that integral is (pi/2) / cos(pi alpha)."""
    _check_nu(nu)
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
    Both pieces are integrated together, as one integrand on [0, 1].
    """
    _check_nu(nu)
    c = tuple(float(x) for x in q_coeffs)
    if len(c) < 2:
        raise ValueError("Q must have degree >= 1")
    _validate_positive_polynomial(c, "Q")
    poly = np.asarray(c)
    d = len(c) - 1
    r = np.zeros(2 * d + 1)     # R(t) = sum_j c_j t^{2(d-j)}
    r[::2] = poly[::-1]
    polyval = np.polynomial.polynomial.polyval
    total = _integrate_unit(lambda x: 1.0 / polyval(x * x, poly)
                            + x ** (2 * d - 2) / polyval(x, r))
    return total / (math.pi * nu)


def truncation_matched_constant(nu: float, eps: float, max_mode: int) -> float:
    """Finite-truncation correction (eps / 2 pi) sum_{|k| <= N} sigma_k.

    sigma_k = k^2 / (1 + nu k^2 + eps^2 k^4).  Monotone increasing in N and
    converging to white_noise_constant(nu) as eps*N -> inf with eps -> 0;
    at eps*N ~ 8 it sits about 8 percent below the limit, which is exactly
    the correction a simulation truncated at N modes feels.
    """
    _check_nu(nu)
    if not 0.0 <= eps < math.inf:
        raise ValueError("eps must be nonnegative and finite")
    if max_mode < 0:
        raise ValueError("max_mode must be nonnegative")
    total = 0.0
    for lo in range(1, max_mode + 1, 1 << 20):   # chunks of 2^20 modes
        k = np.arange(lo, min(max_mode, lo + (1 << 20) - 1) + 1,
                      dtype=np.float64)
        total += float(np.sum(sigma_mode(nu, eps, k)))
    return eps * (2.0 * total) / (2.0 * math.pi)


def riemann_gap(nu: float, eps: float) -> float:
    """|pi/sqrt(nu) - sum_{k in Z} eps sigma_k|, the Riemann-sum defect.

    The full lattice sum of eps*sigma_k approaches the integral
    int dx/(nu + x^2) = pi/sqrt(nu) as eps -> 0; the defect is O(eps).

    Closed form: with 1 + nu k^2 + eps^2 k^4 = eps^2 (k^2 + a)(k^2 + b),
    partial fractions and sum_k 1/(k^2 + r) = (pi/sqrt(r)) coth(pi sqrt(r))
    give (pi/eps) [f(a) - f(b)] / (a - b), f(r) = sqrt(r) coth(pi sqrt(r)).
    In s = sqrt(a), t = sqrt(b) (conjugates when eps > nu/2) the quotient is
    [sinh(pi(s+t))/(s+t) - sinh(pi(s-t))/(s-t)] / (2 sinh(pi s) sinh(pi t)),
    taken scaled by 2 exp(-pi(s+t)) so that nothing overflows, with s - t
    from a - b so that nothing cancels near the double root eps = nu/2.
    """
    import cmath   # here, as loading it costs every study 56 KiB of RSS

    _check_nu(nu)
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    root = cmath.sqrt(nu - 2.0 * eps) * math.sqrt(nu + 2.0 * eps)
    s = cmath.sqrt((nu + root) / 2.0) / eps
    t = 1.0 / (eps * s)                     # sqrt(a b) = 1/eps
    width = (s + t).real                    # s + t is real either way
    gap = (root / eps) / (eps * (s + t))    # (a - b) / (s + t)
    x = math.pi * gap
    if abs(x) < 1.0:
        cross = (2.0 * math.pi * math.exp(-math.pi * width)
                 * (cmath.sinh(x) / x if x else 1.0))
    else:
        cross = (cmath.exp(-2.0 * math.pi * t)
                 - cmath.exp(-2.0 * math.pi * s)) / gap
    top = -math.expm1(-2.0 * math.pi * width) / width - cross
    bottom = ((1.0 - cmath.exp(-2.0 * math.pi * s))
              * (1.0 - cmath.exp(-2.0 * math.pi * t)))
    total = math.pi / eps * (top / bottom).real if bottom else math.nan
    if not math.isfinite(total):
        raise FloatingPointError(f"the lattice sum at nu={nu!r}, eps={eps!r} "
                                 "is out of floating-point range")
    return abs(math.pi / math.sqrt(nu) - total)
