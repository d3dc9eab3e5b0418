"""Tests for the log-log rate fits."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

import spdelab
from spdelab.regression import RegressionResult, regress_loglog


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


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs over a second to import; the t quantile comes from
    # scipy.special instead, so no spdelab process pays for it
    src = os.path.dirname(os.path.dirname(spdelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, spdelab; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
