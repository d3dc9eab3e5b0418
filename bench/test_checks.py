"""The benchmark's checks fail on wrong reports.

Run from the repository root: python3 -m pytest -q bench/test_checks.py
"""

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import workloads  # noqa: E402
from spdelab import (RunConfig, run_averaging_study,  # noqa: E402
                     run_convergence_study, truncation_matched_constant)

SMALL_CONVERGE = dict(eps_grid=(2.0 ** -3, 2.0 ** -4), replicas=2)


@pytest.fixture(scope="module")
def converge_report():
    cfg = RunConfig(**SMALL_CONVERGE)
    return run_convergence_study(cfg), cfg


def test_converge_gap_check_passes_on_the_right_constant(converge_report):
    report, cfg = converge_report
    assert "converge.limit_gap" not in workloads.check_converge(report, cfg)
    assert "converge.truncation_matched_constant" not in \
        workloads.check_converge(report, cfg)


@pytest.mark.parametrize("factor", [0.0, 2.0])
def test_converge_gap_check_fails_on_a_wrong_constant(factor):
    eps = min(SMALL_CONVERGE["eps_grid"])
    c = truncation_matched_constant(1.0, eps, RunConfig().modes_for(eps))
    cfg = RunConfig(correction=factor * c, **SMALL_CONVERGE)
    report = run_convergence_study(cfg)
    assert "converge.limit_gap" in workloads.check_converge(report, cfg)


def test_converge_constant_check_fails_on_a_wrong_constant(converge_report):
    report, cfg = converge_report
    rows = [dict(row) for row in report.per_eps]
    rows[0]["truncation_matched_constant"] *= 1.0 + 1e-9
    doctored = dataclasses.replace(report, per_eps=rows)
    assert "converge.truncation_matched_constant" in \
        workloads.check_converge(doctored, cfg)


def test_censored_replica_counts_one_failed_operation(converge_report):
    report, _ = converge_report
    assert workloads.operations("converge", report) == (4, 0)
    rows = [dict(row) for row in report.per_eps]
    rows[-1]["n_censored"] = 1
    censored = dataclasses.replace(report, per_eps=rows)
    assert workloads.operations("converge", censored) == (4, 1)
    assert workloads.operations("theorem15", censored) == (8, 1)


def test_direct_convolution_check_catches_a_doctored_median():
    cfg = RunConfig(study="averaging", eps_grid=(2.0 ** -4, 2.0 ** -5,
                                                 2.0 ** -6), replicas=3)
    report = run_averaging_study(cfg)
    assert "averaging.direct_convolution" not in \
        workloads.check_averaging(report, cfg)
    medians = list(report.median_phi)
    medians[0] *= 1.0 + 1e-6
    doctored = dataclasses.replace(report, median_phi=tuple(medians))
    assert "averaging.direct_convolution" in \
        workloads.check_averaging(doctored, cfg)
