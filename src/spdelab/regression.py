"""Log-log least squares for rate fits."""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np
from scipy import special


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
        tq = float(special.stdtrit(dof, 0.975))
        ci = (slope - tq * se, slope + tq * se)
    else:
        ci = (slope, slope)
    return RegressionResult(slope, intercept, r2, ci)
