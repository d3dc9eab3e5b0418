"""Log-log least squares for rate fits."""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

_Z975 = 1.959963984540054  # the standard normal 0.975 quantile


def _t_two_sided(t: float, dof: int) -> float:
    """P(|T| < t) for Student's t with an integer dof >= 1, by the finite
    series of Abramowitz and Stegun 26.7.3 (odd dof) and 26.7.4 (even)."""
    theta = math.atan(t / math.sqrt(dof))
    c2 = math.cos(theta) ** 2
    term = total = 1.0
    for j in range(1 + dof % 2, dof - 2, 2):
        term *= c2 * j / (j + 1)
        total += term
    if dof % 2 == 0:
        return math.sin(theta) * total
    if dof == 1:
        return 2.0 / math.pi * theta
    return 2.0 / math.pi * (theta + math.sin(theta) * math.cos(theta) * total)


def t_quantile_975(dof: int) -> float:
    """The 0.975 quantile of Student's t with an integer dof >= 1.

    Newton's method on the exact two-sided probability of _t_two_sided,
    whose derivative is twice the density (normalised with math.lgamma),
    from the normal quantile, which lies below the root.  P(|T| < t) is
    concave in t > 0, so every iterate stays below the root and the steps
    fall to rounding.  Against 40-digit values for dof up to 1,000 the
    result is within 1.3e-14 relative.
    """
    if dof < 1:
        raise ValueError("dof must be a positive integer")
    log_norm = (math.lgamma((dof + 1) / 2.0) - math.lgamma(dof / 2.0)
                - 0.5 * math.log(dof * math.pi))
    t = _Z975
    for _ in range(100):
        density = math.exp(log_norm - (dof + 1) / 2.0
                           * math.log1p(t * t / dof))
        step = (0.95 - _t_two_sided(t, dof)) / (2.0 * density)
        t += step
        if abs(step) <= 1e-15 * t:
            break
    return t


class RegressionResult(NamedTuple):
    slope: float
    intercept: float
    r2: float
    ci95: tuple[float, float]


def regress_loglog(points: Sequence[tuple[float, float]]) -> RegressionResult:
    """Least-squares slope of log y against log x with a 95 percent CI.

    Needs at least three points with strictly positive coordinates and
    non-degenerate x values.  The confidence interval uses the t
    distribution with n - 2 degrees of freedom.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("need at least three (x, y) points")
    if np.any(pts <= 0.0) or not np.all(np.isfinite(pts)):
        raise ValueError("coordinates must be positive and finite")
    x = np.log(pts[:, 0])
    y = np.log(pts[:, 1])
    xbar = float(np.sum(x) / x.size)
    ybar = float(np.sum(y) / y.size)
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx <= 0.0:
        raise ValueError("x values are degenerate; slope is undefined")
    sxy = float(np.sum((x - xbar) * (y - ybar)))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    resid = y - intercept - slope * x
    ssr = float(np.sum(resid ** 2))
    sst = float(np.sum((y - ybar) ** 2))
    r2 = 1.0 if sst == 0.0 else 1.0 - ssr / sst
    dof = x.size - 2
    if dof > 0 and ssr > 0.0:
        se = math.sqrt(ssr / dof / sxx)
        tq = t_quantile_975(dof)
        ci = (slope - tq * se, slope + tq * se)
    else:
        ci = (slope, slope)
    return RegressionResult(slope, intercept, r2, ci)
