"""Tests for study drivers, reports, and deterministic file output."""

import json
import math
import os
import threading

import numpy as np
import pytest

from spdelab import (ConvergenceReport, NoiseStream, RunConfig, Variant,
                     calibrate_dt, initial_field, polynomial_model,
                     psi_coupling_distance, run_averaging_study,
                     run_convergence_study, run_psi_coupling_study,
                     run_theorem15_study, write_report)
from spdelab.integrate import SimulationConfig
from spdelab.studies import (SCHEMA_VERSION, _replica_map, report_csv_text,
                             report_json_text, tail_csv_text)


def small_cfg(**kw) -> RunConfig:
    base = dict(eps_grid=(0.5, 0.4, 0.3, 0.25), replicas=3, seed=0,
                fixed_modes=8, dt=0.05, t_final=0.2, u0_modes=6)
    base.update(kw)
    return RunConfig(**base)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.eps_grid == tuple(2.0 ** -j for j in range(3, 8))
        assert cfg.model["name"] == "polynomial"
        assert cfg.correction == "truncation-matched"

    def test_from_dict_round_trip(self):
        cfg = small_cfg(replicas=5)
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict({"replicas": 3, "stepsize": 0.01})

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(eps_grid=())
        with pytest.raises(ValueError):
            RunConfig(eps_grid=(0.5, -0.25))
        with pytest.raises(ValueError):
            RunConfig(replicas=0)
        with pytest.raises(ValueError):
            RunConfig(workers=0)
        with pytest.raises(ValueError):
            RunConfig(modes_over_eps=0.0)

    def test_modes_rule(self):
        cfg = RunConfig(modes_over_eps=8.0)
        assert cfg.modes_for(0.125) == 64
        assert cfg.modes_for(0.3) == math.ceil(8.0 / 0.3)
        assert RunConfig(fixed_modes=12).modes_for(0.125) == 12

    def test_simulation_config_echo(self):
        cfg = small_cfg()
        sim = cfg.simulation_config(0.5)
        assert sim.max_mode == 8
        assert sim.dt == cfg.dt and sim.t_final == cfg.t_final


class TestInitialField:
    def test_deterministic(self):
        a = initial_field(1, 16, 1.5, 1.0, NoiseStream(0))
        b = initial_field(1, 16, 1.5, 1.0, NoiseStream(0))
        np.testing.assert_array_equal(a.coeffs, b.coeffs)
        c = initial_field(1, 16, 1.5, 1.0, NoiseStream(1))
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_replica_index_is_pinned(self):
        # the field must not depend on the stream's replica: one field per
        # study, shared by all replicas
        a = initial_field(1, 16, 1.5, 1.0, NoiseStream(0, replica=3))
        b = initial_field(1, 16, 1.5, 1.0, NoiseStream(0, replica=9))
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_decay_envelope_and_scale(self):
        field = initial_field(1, 64, 1.5, 2.0, NoiseStream(0))
        k = np.arange(65.0)
        envelope = 2.0 * (1.0 + k * k) ** -1.5
        assert np.all(np.abs(field.coeffs[0]) <= 6.0 * envelope)
        assert field.coeffs[0, 0].imag == 0.0

    def test_components(self):
        field = initial_field(3, 8, 1.5, 1.0, NoiseStream(0))
        assert field.n_components == 3


class TestConvergenceStudy:
    def test_report_structure_and_config_echo(self):
        cfg = small_cfg()
        report = run_convergence_study(cfg)
        assert isinstance(report, ConvergenceReport)
        assert report.study == "converge"
        assert report.schema_version == SCHEMA_VERSION
        assert report.config == cfg.to_dict()
        assert report.eps == sorted(cfg.eps_grid, reverse=True)
        for row in report.per_eps:
            assert row["n_replicas"] == cfg.replicas
            assert row["n_censored"] == 0
            assert row["mean_error"] > 0
            assert row["truncation_matched_constant"] > 0
        assert report.slope is not None
        assert report.naive_over_corrected is not None
        assert report.constants["asymptotic"] == 0.5

    def test_corrected_equals_naive_without_transport(self):
        # f-only model: the corrected and naive limits coincide, so both
        # distance columns agree replica-by-replica
        cfg = small_cfg(model={"name": "polynomial", "nu": 1.0,
                               "f": [0.0, -1.0]})
        report = run_convergence_study(cfg)
        for row in report.per_eps:
            assert row["naive_mean_error"] == pytest.approx(
                row["mean_error"], rel=1e-12)
        assert report.naive_over_corrected == pytest.approx(1.0, rel=1e-12)

    def test_deterministic_across_worker_counts(self):
        reports = [run_convergence_study(small_cfg(workers=w))
                   for w in (1, 4)]
        a, b = reports
        assert a.per_eps == b.per_eps
        assert a.slope == b.slope

    @pytest.mark.parametrize("cores", [1, 2])
    def test_worker_threads_capped_at_core_count(self, monkeypatch, cores):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        barrier = threading.Barrier(cores, timeout=10)
        seen = set()

        def one(r):
            seen.add(threading.get_ident())
            if cores > 1 and r < cores:
                barrier.wait()  # the pool does reach the core count
            return r * r

        assert _replica_map(one, 8, 8) == [r * r for r in range(8)]
        assert len(seen) == cores
        if cores == 1:
            assert seen == {threading.get_ident()}

    def test_seed_changes_results(self):
        a = run_convergence_study(small_cfg(seed=0))
        b = run_convergence_study(small_cfg(seed=1))
        assert a.per_eps[0]["mean_error"] != b.per_eps[0]["mean_error"]

    def test_slope_needs_four_points(self):
        cfg = small_cfg(eps_grid=(0.5, 0.4, 0.3))
        report = run_convergence_study(cfg)
        assert report.slope is None
        assert report.ci95 is None


class TestTheorem15Study:
    def test_rejects_g_channel(self):
        cfg = small_cfg(model={"name": "sin-g", "nu": 1.0})
        with pytest.raises(ValueError, match="g = 0"):
            run_theorem15_study(cfg)

    def test_report_structure(self):
        cfg = small_cfg(model={"name": "polynomial", "nu": 1.0,
                               "f": [0.0, -1.0], "h": [1.0]}, replicas=2)
        report = run_theorem15_study(cfg)
        assert report.study == "theorem15"
        assert report.constants["sobolev_beta"] == cfg.beta
        for row in report.per_eps:
            assert row["mean_error"] > 0

    def test_reduced_protocol_outputs_pinned(self):
        # criterion 7's model on 4 eps levels (N = 32..256), 2 replicas;
        # the values were recorded with repr from the integrator that ran
        # the oversampled sup norm at every step and one transform per
        # derivative, so a fast path that moves any digit fails here
        cfg = RunConfig(study="theorem15", beta=0.6, u0_decay=1.3,
                        eps_grid=tuple(2.0 ** -j for j in range(3, 7)),
                        replicas=2, seed=3, modes_over_eps=4.0, dt=0.01,
                        t_final=0.2)
        report = run_theorem15_study(cfg)
        assert [row["n_modes"] for row in report.per_eps] == [32, 64, 128, 256]
        assert [(row["mean_error"], row["naive_mean_error"])
                for row in report.per_eps] == [
            (0.9803151924014839, 0.993965950988728),
            (0.7916565075798422, 0.8118568275863429),
            (0.6329172579060249, 0.6541562513023214),
            (0.4982555089441466, 0.5234404772294784)]
        assert all(row["n_censored"] == 0 for row in report.per_eps)


class TestPsiCouplingStudy:
    def test_distance_positive_and_deterministic(self):
        a = psi_coupling_distance(1.0, 0.5, 8, 0.05, 0.2, NoiseStream(0))
        b = psi_coupling_distance(1.0, 0.5, 8, 0.05, 0.2, NoiseStream(0))
        assert a == b > 0.0

    def test_study_report(self):
        cfg = small_cfg(study="psi", replicas=4)
        report = run_psi_coupling_study(cfg)
        assert report.study == "psi-coupling"
        assert report.naive_over_corrected is None
        means = [row["mean_error"] for row in report.per_eps]
        assert all(m > 0 for m in means)
        # distances shrink with eps (report rows go largest -> smallest eps)
        assert means[-1] < means[0]


class TestAveragingStudy:
    def test_wraps_tail_experiment(self):
        cfg = small_cfg(study="averaging", eps_grid=(0.5, 0.4, 0.3),
                        replicas=4)
        report = run_averaging_study(cfg)
        assert report.eps == tuple(sorted(cfg.eps_grid, reverse=True))
        assert report.replicas == 4


class TestCalibrateDt:
    def test_returns_stable_dt(self):
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0))
        u0 = initial_field(1, 6, 1.5, 1.0, NoiseStream(0))
        sim = SimulationConfig(max_mode=8, dt=0.05, t_final=0.2)
        dt = calibrate_dt(spec, Variant.PHI_ZERO, 0.0, u0, sim,
                          tolerance=1e-3)
        assert dt <= 0.05
        # the returned dt must itself satisfy the tolerance when refined
        ratio = round(0.05 / dt)
        assert math.isclose(dt * ratio, 0.05, rel_tol=1e-12)

    def test_impossible_tolerance_raises(self):
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0))
        u0 = initial_field(1, 6, 1.5, 1.0, NoiseStream(0))
        sim = SimulationConfig(max_mode=8, dt=0.05, t_final=0.2)
        with pytest.raises(RuntimeError, match="halvings"):
            calibrate_dt(spec, Variant.PHI_ZERO, 0.0, u0, sim,
                         tolerance=0.0, max_halvings=3)


class TestSerialization:
    def test_csv_schema(self):
        report = run_convergence_study(small_cfg())
        text = report_csv_text(report)
        lines = text.strip().split("\n")
        assert lines[0] == "eps,statistic,value"
        stats = [ln.split(",")[1] for ln in lines[1:]
                 if ln.split(",")[0] != "overall"]
        per_eps = ["n_modes", "n_replicas", "n_censored", "mean_error",
                   "std_error", "stderr_mean", "naive_mean_error",
                   "naive_std_error", "truncation_matched_constant"]
        assert stats[:len(per_eps)] == per_eps
        overall = [ln.split(",")[1] for ln in lines[1:]
                   if ln.split(",")[0] == "overall"]
        assert overall == ["slope", "intercept", "r2", "ci95_lo", "ci95_hi",
                           "naive_over_corrected", "asymptotic"]
        assert text.endswith("\n")

    def test_csv_values_round_trip(self):
        report = run_convergence_study(small_cfg())
        text = report_csv_text(report)
        slope_line = [ln for ln in text.splitlines()
                      if ln.startswith("overall,slope,")][0]
        assert float(slope_line.split(",")[2]) == report.slope

    def test_json_round_trip(self):
        report = run_convergence_study(small_cfg())
        data = json.loads(report_json_text(report))
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["study"] == "converge"
        assert data["slope"] == report.slope
        assert len(data["per_eps"]) == len(report.per_eps)

    def test_tail_csv(self):
        report = run_averaging_study(small_cfg(eps_grid=(0.5, 0.4, 0.3),
                                               replicas=4))
        text = tail_csv_text(report)
        lines = text.strip().split("\n")
        assert lines[0] == "eps,statistic,value"
        assert any(ln.startswith("overall,slope_phi,") for ln in lines)
        assert any(ln.startswith("overall,slope_phi_tilde,") for ln in lines)

    def test_write_report_atomic_and_identical(self, tmp_path):
        report = run_convergence_study(small_cfg())
        csv_path = tmp_path / "out" / "report.csv"
        json_path = tmp_path / "out" / "report.json"
        write_report(report, str(csv_path), str(json_path))
        assert csv_path.read_text() == report_csv_text(report)
        assert json.loads(json_path.read_text())["slope"] == report.slope
        # no stray temp files
        assert sorted(p.name for p in csv_path.parent.iterdir()) == [
            "report.csv", "report.json"]
        # overwrite in place stays byte-identical
        write_report(report, str(csv_path), None)
        assert csv_path.read_text() == report_csv_text(report)

    def test_byte_identical_output_across_worker_counts(self, tmp_path):
        texts = []
        for w in (1, 4, 8):
            report = run_convergence_study(small_cfg(workers=w))
            path = tmp_path / f"w{w}.csv"
            write_report(report, str(path), None)
            texts.append(path.read_bytes())
        assert texts[0] == texts[1] == texts[2]

    def test_none_fields_serialize_as_empty(self):
        report = run_convergence_study(small_cfg(eps_grid=(0.5, 0.4, 0.3)))
        text = report_csv_text(report)
        assert "overall,slope,\n" in text
