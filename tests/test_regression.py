"""Tests for the log-log rate fits."""

import numpy as np
import pytest
from scipy import special, stats

from spdelab.regression import (RegressionResult, regress_loglog,
                                t_quantile_975)


class TestRegressLoglog:
    def test_exact_power_law(self):
        x = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        res = regress_loglog(list(zip(x, 3.0 * x ** 2)))
        assert res.slope == pytest.approx(2.0, abs=1e-12)
        assert res.intercept == pytest.approx(np.log(3.0), abs=1e-12)
        assert res.r2 == pytest.approx(1.0, abs=1e-12)
        lo, hi = res.ci95
        assert lo == pytest.approx(2.0, abs=1e-6)
        assert hi == pytest.approx(2.0, abs=1e-6)

    def test_constant_y(self):
        res = regress_loglog([(0.5, 4.0), (1.0, 4.0), (2.0, 4.0)])
        assert res.slope == pytest.approx(0.0, abs=1e-14)
        assert res.r2 == pytest.approx(1.0)

    def test_noisy_fit_matches_linregress(self):
        rng = np.random.default_rng(0)
        x = np.logspace(-2, 0, 12)
        y = 0.7 * x ** 0.5 * np.exp(rng.normal(0.0, 0.1, size=x.size))
        res = regress_loglog(list(zip(x, y)))
        oracle = stats.linregress(np.log(x), np.log(y))
        assert res.slope == pytest.approx(oracle.slope, rel=1e-12)
        assert res.intercept == pytest.approx(oracle.intercept, rel=1e-12)
        assert res.r2 == pytest.approx(oracle.rvalue ** 2, rel=1e-10)
        half = res.slope - res.ci95[0]
        tq = stats.t.ppf(0.975, x.size - 2)
        assert half == pytest.approx(tq * oracle.stderr, rel=1e-10)

    def test_result_type(self):
        res = regress_loglog([(1.0, 1.0), (2.0, 2.0), (4.0, 4.0)])
        assert isinstance(res, RegressionResult)
        assert res._fields == ("slope", "intercept", "r2", "ci95")

    def test_validation(self):
        with pytest.raises(ValueError):
            regress_loglog([(1.0, 1.0), (2.0, 2.0)])
        with pytest.raises(ValueError):
            regress_loglog([(1.0, 1.0), (2.0, -2.0), (4.0, 4.0)])
        with pytest.raises(ValueError):
            regress_loglog([(1.0, 1.0), (2.0, float("nan")), (4.0, 4.0)])
        with pytest.raises(ValueError):
            regress_loglog([(2.0, 1.0), (2.0, 2.0), (2.0, 4.0)])


def test_t_quantile_matches_scipy():
    for dof in range(1, 201):
        assert t_quantile_975(dof) == pytest.approx(
            special.stdtrit(dof, 0.975), rel=1e-12, abs=0.0)


def test_t_quantile_rejects_dof_below_one():
    with pytest.raises(ValueError, match="dof"):
        t_quantile_975(0)
