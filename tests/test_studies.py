"""Tests for study drivers, reports, and deterministic file output."""

import json
import math
import os
import signal
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
# numpy loads these on first use; imported here, the traced peaks below
# count no module import
import numpy.fft
import numpy.polynomial
import numpy.random
import pytest

from spdelab import (ConvergenceReport, NoiseStream, RunConfig,
                     initial_field, run_averaging_study, run_convergence_study,
                     run_psi_coupling_study, run_theorem15_study,
                     sample_stationary, write_report)
import spdelab.integrate as integrate_module
import spdelab.models as models_module
import spdelab.spectral as spectral_module
import spdelab.studies as studies_module
from spdelab.cli import cli_main
from spdelab.constants import white_noise_constant
from spdelab.integrate import (IntegrationError, SimulationConfig,
                               reference_distances)
from spdelab.linops import OperatorSpec
from spdelab.noise import step_coupled
from spdelab.models import drift_grid_size
from spdelab.spectral import ROW_TRANSFORM_POINTS, fast_grid_size, sup_norm
from spdelab.studies import (BLOCK_COEFFS, SCHEMA_VERSION, _block_map,
                             _map_levels, report_csv_text, report_json_text,
                             tail_csv_text)


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

    def test_workers_default_to_usable_cores(self, monkeypatch):
        # the CPU affinity (taskset, cpusets), not the installed count
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert studies_module.usable_cores() == 1
        assert RunConfig().workers == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert RunConfig().workers == 8

    def test_model_mass_rejected(self):
        # every study takes eps from eps_grid, so a potential's mass (which
        # sets only its eps) would be silently dropped
        model = {"name": "potential", "coeffs": [0.0, 0.0, 0.5],
                 "temperature": 2.0, "mass": 0.1}
        with pytest.raises(ValueError, match="'mass'"):
            small_cfg(model=model)
        with pytest.raises(ValueError, match="'mass'"):
            RunConfig.from_dict({"model": model})

    def test_from_dict_round_trip(self):
        cfg = small_cfg(replicas=5)
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict({"replicas": 3, "stepsize": 0.01})
        # fixed at one value, these are no longer settings
        for key in ("oversample", "dealias_fraction", "record_stride"):
            with pytest.raises(ValueError, match="unknown config keys"):
                RunConfig.from_dict({key: 1})

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(eps_grid=())
        # inf ran a level at N = 0 modes and nan failed deep in the run
        for bad in (-0.25, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="eps_grid must be positive "
                               "and finite"):
                RunConfig(eps_grid=(0.5, bad))
        # a repeated level reruns the same streams and enters the fit twice
        with pytest.raises(ValueError, match="must be distinct"):
            RunConfig(eps_grid=(0.5, 0.5, 0.25, 0.2))
        with pytest.raises(ValueError):
            RunConfig(replicas=0)
        with pytest.raises(ValueError):
            RunConfig(workers=0)
        with pytest.raises(ValueError):
            RunConfig(modes_over_eps=0.0)
        with pytest.raises(ValueError, match="u0_modes"):
            RunConfig(u0_modes=-1)

    @pytest.mark.parametrize("name,value", [
        ("replicas", 2.5), ("replicas", 3.0), ("replicas", True),
        ("workers", 1.5), ("fixed_modes", 8.7), ("u0_modes", 6.5),
        ("seed", 1.5), ("seed", False)])
    def test_counts_must_be_integers(self, name, value):
        # a study would round or truncate the count while the report echoes
        # it as given
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            RunConfig(**{name: value})
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            RunConfig.from_dict({name: value})

    @pytest.mark.parametrize("name,value", [
        ("beta", math.nan), ("beta", math.inf), ("gamma", math.nan),
        ("alpha", -math.inf), ("u0_decay", math.nan),
        ("u0_amplitude", math.inf), ("correction", math.nan),
        ("correction", -math.inf)])
    def test_floats_must_be_finite(self, name, value):
        # a NaN beta gave every level mean=nan and no fit; a NaN gamma or
        # u0_decay failed only after (or deep inside) the run
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            RunConfig(**{name: value})
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            RunConfig.from_dict({name: value})

    @pytest.mark.parametrize("value", ["foo", "Asymptotic", "", True, False])
    def test_correction_must_be_known(self, value):
        # an unknown name passed psi-coupling and averaging, which read no
        # constant, and failed converge only as its first level started
        for make in (lambda: RunConfig(correction=value),
                     lambda: RunConfig.from_dict({"correction": value})):
            with pytest.raises(ValueError, match="correction must be a float "
                               "or one of"):
                make()

    @pytest.mark.parametrize("value", ["truncation-matched", "asymptotic",
                                       0.0, 0.45, 1])
    def test_correction_names_and_numbers_pass(self, value):
        assert RunConfig(correction=value).correction == value

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("study", ["converge", "theorem15",
                                       "psi-coupling", "averaging"])
    def test_step_settings_are_checked_at_construction(self, study):
        # RunConfig builds its SimulationConfig, so every study rejects
        # dt > t_final before it runs, the averaging study (no steps) too
        with pytest.raises(ValueError, match="need 0 < dt <= t_final"):
            RunConfig(study=study, dt=1.0, t_final=0.5)

    def test_blowup_cutoff_may_be_inf_but_not_nan(self):
        # a NaN cutoff turned the censoring guard off without a word
        with pytest.raises(ValueError, match="blowup_cutoff must not be NaN"):
            RunConfig(blowup_cutoff=math.nan)
        assert RunConfig(blowup_cutoff=math.inf).simulation_config(
            0.5).blowup_cutoff == math.inf

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
        # every setting but the worker count, which changes no number
        assert report.config == {key: value for key, value
                                 in cfg.to_dict().items() if key != "workers"}
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

    def test_deterministic_across_worker_counts(self, split_blocks):
        reports = []
        for workers in (1, 4):
            report, levels = split_blocks(workers, lambda: (
                run_convergence_study(small_cfg(workers=workers))))
            assert levels == len(report.eps)
            reports.append(report)
        a, b = reports
        assert a.per_eps == b.per_eps
        assert a.slope == b.slope

    @pytest.mark.parametrize("cores", [1, 2])
    def test_worker_threads_capped_at_core_count(self, monkeypatch, cores):
        monkeypatch.setattr(studies_module, "usable_cores", lambda: cores)
        barrier = threading.Barrier(cores, timeout=10)
        seen = set()

        def block(streams):
            seen.add(threading.get_ident())
            if cores > 1:
                barrier.wait()  # the pool does reach the core count
            return (np.array([s.replica ** 2 for s in streams]),
                    np.array([s.base_seed for s in streams]))

        squares, seeds = _block_map(block, RunConfig(replicas=8, seed=5,
                                                     workers=8),
                                    BLOCK_COEFFS)
        assert squares.tolist() == [r * r for r in range(8)]
        assert seeds.tolist() == [5] * 8
        assert len(seen) == cores
        if cores == 1:
            assert seen == {threading.get_ident()}

    def test_convergence_outputs_pinned(self):
        # reduced converge protocol (N = 32..256, 3 replicas, workers = 2);
        # the values were recorded with repr from the integrator that ran
        # each replica's three channels through separate drift transforms
        # and measured distances on stored trajectories, so a block core
        # that moves any digit fails here; re-recorded when the drift grid
        # went from 8N points to the 2*3*5-smooth size >= 4N+4, which moved
        # seven of them by at most 4.3e-16 relative, and when sup_norms
        # (from 32N points) and the drift grid (from its 4N+4 floor) took
        # fast_grid_size of their contracts, which moved all eight by at
        # most 1.3e-4 relative, and when the affine drift terms moved to
        # coefficient space, which moved seven by at most 4.2e-16 relative
        cfg = RunConfig(eps_grid=tuple(2.0 ** -j for j in range(3, 7)),
                        replicas=3, seed=3, modes_over_eps=4.0, dt=0.01,
                        t_final=0.2, workers=2)
        report = run_convergence_study(cfg)
        assert [row["n_modes"] for row in report.per_eps] == [32, 64, 128, 256]
        assert [(row["mean_error"], row["naive_mean_error"])
                for row in report.per_eps] == [
            (0.4870487833515383, 0.5243174414189926),
            (0.3481476779843186, 0.39166776954402716),
            (0.2673648462631463, 0.3082662402959506),
            (0.19096302102169774, 0.24791657095511413)]
        assert all(row["n_censored"] == 0 for row in report.per_eps)

    @pytest.mark.parametrize("model", [
        {"name": "polynomial", "nu": 1.0, "f": [0.0, -1.0], "h": [1.0]},
        # TestCensoring's blow-up reaction: two of five replicas censor
        {"name": "polynomial", "nu": 1.0, "f": [0.0, 0.0, 0.0, 4.0]}])
    def test_block_split_invariance(self, monkeypatch, levels_here, model):
        # a one-coefficient threshold lets every replica have its thread
        monkeypatch.setattr(studies_module, "BLOCK_COEFFS", 1)
        monkeypatch.setattr(studies_module, "usable_cores", lambda: 5)
        real = studies_module.coupled_distances
        sizes = []

        def spy(spec, eps, u0, config, streams, **kw):
            sizes.append(len(streams))
            return real(spec, eps, u0, config, streams, **kw)

        monkeypatch.setattr(studies_module, "coupled_distances", spy)
        cfg = dict(model=model, eps_grid=(0.25, 0.2), replicas=5, seed=2,
                   fixed_modes=6, u0_modes=6, dt=0.01, t_final=0.3,
                   blowup_cutoff=5.0)
        reports = {}
        for workers, split in ((1, [5]), (2, [3, 2]), (3, [2, 2, 1]),
                               (5, [1] * 5)):
            sizes.clear()
            reports[workers] = run_convergence_study(
                RunConfig(workers=workers, **cfg))
            assert sizes == split * 2
        first = reports[1].per_eps
        for report in reports.values():
            assert report.per_eps == first
        censored = [row["n_censored"] for row in first]
        assert censored == ([0, 0] if "h" in model else [2, 2])

    def test_small_blocks_run_on_one_thread(self, monkeypatch, levels_here):
        # the split-invariance config holds 5 x 3 x 7 = 105 coefficients,
        # far below BLOCK_COEFFS: one block at any worker count
        monkeypatch.setattr(studies_module, "usable_cores", lambda: 5)
        real = studies_module.coupled_distances
        threads, sizes = set(), []

        def spy(spec, eps, u0, config, streams, **kw):
            threads.add(threading.get_ident())
            sizes.append(len(streams))
            return real(spec, eps, u0, config, streams, **kw)

        monkeypatch.setattr(studies_module, "coupled_distances", spy)
        cfg = dict(eps_grid=(0.25, 0.2), replicas=5, seed=2, fixed_modes=6,
                   u0_modes=6, dt=0.01, t_final=0.3, blowup_cutoff=5.0)
        for workers in (2, 3, 4, 5):
            sizes.clear()
            run_convergence_study(RunConfig(workers=workers, **cfg))
            assert sizes == [5, 5]
        assert threads == {threading.get_ident()}

    def test_large_block_splits_over_threads(self, monkeypatch):
        # 6 replicas x 3 channels x 2,049 modes = 36,882 coefficients: four
        # blocks' worth, capped at the two workers
        monkeypatch.setattr(studies_module, "usable_cores", lambda: 4)
        real = studies_module.coupled_distances
        sizes = []

        def spy(spec, eps, u0, config, streams, **kw):
            sizes.append(len(streams))
            return real(spec, eps, u0, config, streams, **kw)

        monkeypatch.setattr(studies_module, "coupled_distances", spy)
        cfg = RunConfig(eps_grid=(0.25,), replicas=6, seed=2,
                        fixed_modes=2048, dt=0.01, t_final=0.02, workers=2)
        assert 6 * 3 * 2049 >= 2 * 2 * BLOCK_COEFFS
        report = run_convergence_study(cfg)
        assert sizes == [3, 3]
        assert report.per_eps[0]["n_censored"] == 0

    @pytest.mark.parametrize("replicas, per_replica, threads", [
        (4, BLOCK_COEFFS // 4, 1), (4, BLOCK_COEFFS // 2 - 1, 1),
        (4, BLOCK_COEFFS // 2, 2), (2, 10 * BLOCK_COEFFS, 2),
        (1, 10 * BLOCK_COEFFS, 1)])
    def test_threads_follow_the_block_size(self, monkeypatch, replicas,
                                           per_replica, threads):
        monkeypatch.setattr(studies_module, "usable_cores", lambda: 8)
        seen = set()

        def block(streams):
            seen.add(threading.get_ident())
            return (np.array([s.replica for s in streams]),)

        got, = _block_map(block, RunConfig(replicas=replicas, workers=8),
                          per_replica)
        assert got.tolist() == list(range(replicas))
        assert len(seen) <= threads
        assert (threading.get_ident() in seen) == (threads == 1)

    def test_seed_changes_results(self):
        a = run_convergence_study(small_cfg(seed=0))
        b = run_convergence_study(small_cfg(seed=1))
        assert a.per_eps[0]["mean_error"] != b.per_eps[0]["mean_error"]

    def test_slope_needs_four_points(self):
        cfg = small_cfg(eps_grid=(0.5, 0.4, 0.3))
        report = run_convergence_study(cfg)
        assert report.slope is None
        assert report.ci95 is None

    def test_ratio_none_when_smallest_eps_fully_censored(self):
        # every replica at eps 2^-5 censors; eps 0.25 keeps one, whose
        # ratio (1.0517) must not stand in for the smallest level's
        cfg = RunConfig(eps_grid=(0.5, 0.25, 0.125, 0.0625, 0.03125),
                        replicas=3, t_final=0.1, dt=0.01, blowup_cutoff=1.5)
        report = run_convergence_study(cfg)
        smallest = report.per_eps[-1]
        assert smallest["eps"] == 0.03125
        assert smallest["n_censored"] == smallest["n_replicas"] == 3
        assert report.per_eps[1]["n_censored"] < 3
        assert report.naive_over_corrected is None
        assert report.slope is None


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
        # derivative, so a fast path that moves any digit fails here;
        # re-recorded when the drift grid went from 8N points to the
        # 2*3*5-smooth size >= 4N+4, which moved three of them by at most
        # 1.8e-16 relative, when the degree-2 drift grid lost its 4N+4
        # floor, which moved one by 1.4e-16 relative, and when the affine
        # drift terms moved to coefficient space, which moved one by
        # 1.1e-16 relative
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
            (0.632917257906025, 0.6541562513023214),
            (0.4982555089441466, 0.5234404772294784)]
        assert all(row["n_censored"] == 0 for row in report.per_eps)

    def test_zero_correction_makes_both_limits_naive(self):
        # with correction 0.0 the corrected limit is the naive one, so the
        # two distance columns agree exactly at every eps
        report = run_theorem15_study(small_cfg(correction=0.0, replicas=2))
        for row in report.per_eps:
            assert row["mean_error"] == row["naive_mean_error"]
        default = run_theorem15_study(small_cfg(replicas=2))
        assert [r["mean_error"] for r in report.per_eps] != \
            [r["mean_error"] for r in default.per_eps]

    def test_unknown_correction_rejected(self):
        with pytest.raises(ValueError, match="correction"):
            run_theorem15_study(small_cfg(correction="bogus"))

    @pytest.mark.parametrize("model", [
        {"name": "polynomial", "nu": 1.0, "f": [0.0, -1.0], "h": [1.0]},
        # TestCensoring's blow-up reaction: some replicas censor
        {"name": "polynomial", "nu": 1.0, "f": [0.0, 0.0, 0.0, 4.0]}])
    def test_block_split_invariance(self, split_blocks, model):
        # every block steps its own copy of the two limits
        cfg = dict(model=model, eps_grid=(0.25, 0.2), replicas=5, seed=2,
                   fixed_modes=6, u0_modes=6, dt=0.01, t_final=0.3,
                   blowup_cutoff=5.0)
        reports = []
        for workers in (1, 2, 3, 5):
            report, levels = split_blocks(workers, lambda: (
                run_theorem15_study(RunConfig(workers=workers, **cfg))))
            assert levels == len(cfg["eps_grid"])
            reports.append(report)
        for report in reports[1:]:
            assert report.per_eps == reports[0].per_eps
        censored = [row["n_censored"] for row in reports[0].per_eps]
        assert (sum(censored) == 0) == ("h" in model)

    def test_records_no_limit(self):
        # the limits step beside the replicas, so a level's traced peak
        # stays below one recorded limit, (n_steps + 1) x (N+1) complex
        cfg = RunConfig(study="theorem15", eps_grid=(2.0 ** -9,), replicas=2,
                        workers=1)
        sim = cfg.simulation_config(cfg.eps_grid[0])
        assert sim.max_mode == 4096
        recorded = (sim.n_steps + 1) * (sim.max_mode + 1) * 16
        tracemalloc.start()
        try:
            report = run_theorem15_study(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.per_eps[0]["n_censored"] == 0
        assert peak < recorded

    @staticmethod
    def one_level_peak_states(replicas: int) -> float:
        """Traced peak of a one-level study at N = 4,096, in block states
        of R x n x (N+1) complex values."""
        cfg = RunConfig(study="theorem15", eps_grid=(2.0 ** -9,),
                        replicas=replicas, workers=1)
        sim = cfg.simulation_config(cfg.eps_grid[0])
        assert sim.max_mode == 4096
        tracemalloc.start()
        try:
            report = run_theorem15_study(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.per_eps[0]["n_censored"] == 0
        return peak / (replicas * (sim.max_mode + 1) * 16)

    def test_one_level_peak_under_28_states(self):
        # the limits and replicas share one workspace, the drift's result
        # takes the weight in place, u is written from psi and v without a
        # copy of either, and the Sobolev distances are measured a chunk of
        # rows at a time: the level peaks at 22.0 states (24.7 with the
        # workspace keyed by role and shape)
        assert self.one_level_peak_states(2) < 28

    def test_three_replica_peak_under_21_states(self):
        # one buffer per role: the limits' and replicas' arrays are shared
        # although their shapes differ, 18.9 states (22.7 with the
        # workspace keyed by role and shape)
        assert self.one_level_peak_states(3) < 21

    def test_workspace_holds_one_array_per_role(self, monkeypatch):
        # the limits (two channels of one replica) and the replicas (one
        # channel of three) request different shapes for most roles; in
        # the last step each run's request of a role is a view of the one
        # buffer the other's was
        requests = {}

        class Recording(spectral_module.Workspace):
            def array(self, role, shape, dtype):
                out = super().array(role, shape, dtype)
                requests.setdefault(role, []).append(out)
                return out

        monkeypatch.setattr(integrate_module, "Workspace", Recording)
        spec, _ = models_module.model_from_config(RunConfig().model)
        sim = SimulationConfig(max_mode=256, dt=0.005, t_final=0.02)
        u0 = initial_field(spec.n, 16, 1.3, 1.0, NoiseStream(7))
        reference_distances(spec, 2.0 ** -5, u0, sim,
                            [NoiseStream(7, replica=r) for r in range(3)],
                            constants=(None, 0.0), beta=0.6)
        assert {"drift input", "magnitude"} <= set(requests)
        for role in ("drift input", "magnitude", "grid", "spectrum"):
            lim, rep = requests[role][-2:]
            assert lim.shape != rep.shape, role
            assert np.shares_memory(lim, rep), role

    def test_later_steps_make_no_block_temporary(self, monkeypatch):
        # from the second step on a reference_distances step uses only
        # arrays it holds already: tracing every bytecode instruction,
        # traced memory rises by less than one block state (R x n x (N+1)
        # complex) within any instruction, the noise step and the Sobolev
        # distances included.  The largest rise left is numpy's ufunc
        # buffer (128 KiB), as large as the difference of one replica
        spec, _ = models_module.model_from_config(RunConfig().model)
        n_max, n_rep = 1 << 13, 2
        sim = SimulationConfig(max_mode=n_max, dt=0.005, t_final=0.02)
        state = n_rep * spec.n * (n_max + 1) * 16
        steps, rises, last = [0], [], [0]
        real = integrate_module._advance

        def counted(*args, **kw):
            for item in real(*args, **kw):
                steps[0] += args[3] is not None   # the replicas' block
                yield item

        def trace(frame, event, arg):
            frame.f_trace_opcodes = True
            current, peak = tracemalloc.get_traced_memory()
            if steps[0] > 1:
                rises.append(peak - last[0])
            last[0] = current
            tracemalloc.reset_peak()
            return trace

        monkeypatch.setattr(integrate_module, "_advance", counted)
        u0 = initial_field(spec.n, 16, 1.3, 1.0, NoiseStream(7))
        tracemalloc.start()
        sys.settrace(trace)
        try:
            reference_distances(spec, 2.0 ** -10, u0, sim,
                                [NoiseStream(7, replica=r)
                                 for r in range(n_rep)],
                                constants=(None, 0.0), beta=0.6)
        finally:
            sys.settrace(None)
            tracemalloc.stop()
        assert steps[0] == sim.n_steps + 1
        assert len(rises) > 1000 and max(rises) < state

    def test_worker_split_invariance_on_row_transform_grids(self,
                                                            monkeypatch,
                                                            levels_here):
        # N = 12288 puts the default model's drift grid at 32,805 points,
        # where every drift transform runs one row at a time into the run's
        # workspace; each thread's runs keep their own workspaces (the
        # levels stay on this process, so that 2 workers do split them)
        monkeypatch.setattr(studies_module, "usable_cores", lambda: 2)
        m = drift_grid_size(12288, 2)
        assert m >= ROW_TRANSFORM_POINTS
        cfg = dict(eps_grid=(0.5, 0.25), replicas=2, seed=4,
                   fixed_modes=12288, dt=0.005, t_final=0.01)
        one, two = [run_theorem15_study(RunConfig(workers=w, **cfg))
                    for w in (1, 2)]
        assert one.per_eps == two.per_eps
        assert all(row["n_censored"] == 0 for row in one.per_eps)


def psi_distance_reference(nu, eps, max_mode, dt, t_final, stream):
    """Sup over steps and space of psi^eps - psi^0 for one replica, stepped
    alone through step_coupled."""
    state = sample_stationary((OperatorSpec(nu, eps), OperatorSpec(nu, 0.0)),
                              1, max_mode, stream)
    best = sup_norm(state.psi[0, 0] - state.psi[0, 1])
    for _ in range(max(1, int(round(t_final / dt)))):
        state = step_coupled(state, dt)
        best = max(best, sup_norm(state.psi[0, 0] - state.psi[0, 1]))
    return best


@pytest.mark.parametrize("run,study", [
    (run_psi_coupling_study, "psi-coupling"),
    (run_theorem15_study, "theorem15")])
def test_config_echo_names_the_study_run(run, study):
    # the config's study field defaults to converge
    report = run(small_cfg(replicas=2))
    assert report.study == study
    assert report.config["study"] == study


class TestPsiCouplingStudy:
    def test_distance_positive_and_deterministic(self, monkeypatch):
        # every block split gives each replica the distance it has when
        # stepped alone
        monkeypatch.setattr(studies_module, "BLOCK_COEFFS", 1)
        monkeypatch.setattr(studies_module, "usable_cores", lambda: 3)
        cfg = small_cfg(study="psi", eps_grid=(0.5,), replicas=3)
        want = [psi_distance_reference(1.0, 0.5, 8, 0.05, 0.2,
                                       NoiseStream(0, replica=r))
                for r in range(3)]
        assert min(want) > 0.0
        for workers in (1, 2, 3):
            report = run_psi_coupling_study(
                small_cfg(study="psi", eps_grid=(0.5,), replicas=3,
                          workers=workers))
            assert report.per_eps[0]["mean_error"] == np.mean(want)
            assert report.per_eps == run_psi_coupling_study(cfg).per_eps

    def test_psi_coupling_outputs_pinned(self):
        # reduced protocol (N = 32..256, 3 replicas, workers = 2); the values
        # were recorded with repr from the study that stepped each replica
        # alone through step_coupled, so a block run that moves any digit
        # fails here; re-recorded when sup_norms went from 32N points to
        # fast_grid_size(8 (2N+2)), which moved all five by at most 1.1e-4
        # relative
        cfg = RunConfig(study="psi-coupling",
                        eps_grid=tuple(2.0 ** -j for j in range(3, 7)),
                        replicas=3, seed=3, modes_over_eps=4.0, dt=0.01,
                        t_final=0.2, workers=2)
        report = run_psi_coupling_study(cfg)
        assert [row["n_modes"] for row in report.per_eps] == [32, 64, 128, 256]
        assert [row["mean_error"] for row in report.per_eps] == [
            0.4753302977232035, 0.3446129352954474, 0.2591001852048213,
            0.18886169344208867]
        assert report.slope == 0.4406267561197175

    def test_rejects_dt_beyond_t_final(self):
        # the steps come from SimulationConfig, as for the other studies
        with pytest.raises(ValueError, match="need 0 < dt <= t_final"):
            cfg = RunConfig(study="psi-coupling", dt=1.0, t_final=0.5,
                            eps_grid=(0.5,), replicas=1, fixed_modes=8)
            run_psi_coupling_study(cfg)

    def test_study_report(self):
        cfg = small_cfg(study="psi", replicas=4)
        report = run_psi_coupling_study(cfg)
        assert report.study == "psi-coupling"
        assert report.naive_over_corrected is None
        means = [row["mean_error"] for row in report.per_eps]
        assert all(m > 0 for m in means)
        # distances shrink with eps (report rows go largest -> smallest eps)
        assert means[-1] < means[0]


def test_every_grid_is_fast_grid_size_of_its_contract(monkeypatch, capsys,
                                                      levels_here):
    # a spy on grid_values during reduced runs of the three rate studies
    # (their levels on this process, where the spy sees them) and simulate
    # sees only the default model's drift grid and sup_norms'
    # fast_grid_size(8 (2N+2)); theorem15's low cutoff sends suspects to
    # the guard's sup_norm
    seen = set()
    real = spectral_module.grid_values

    def spy(coeffs, m, *rest):
        seen.add((coeffs.shape[-1] - 1, m))
        return real(coeffs, m, *rest)

    monkeypatch.setattr(spectral_module, "grid_values", spy)
    monkeypatch.setattr(models_module, "grid_values", spy)
    reduced = dict(eps_grid=(0.5, 0.25), replicas=2, seed=1,
                   modes_over_eps=4.0, dt=0.05, t_final=0.2, u0_modes=6,
                   workers=2)
    run_convergence_study(RunConfig(**reduced))
    run_theorem15_study(RunConfig(study="theorem15", blowup_cutoff=1.5,
                                  **reduced))
    run_psi_coupling_study(RunConfig(study="psi-coupling", **reduced))
    assert cli_main(["simulate", "--variant", "phi_eps", "--eps", "0.25",
                     "--fixed-modes", "12", "--dt", "0.05",
                     "--t-final", "0.2", "--u0-modes", "6"]) == 0
    capsys.readouterr()
    drift = {(n, drift_grid_size(n, 2)) for n in (8, 12, 16)}
    distance = {(n, fast_grid_size(8 * (2 * n + 2))) for n in (8, 12, 16)}
    assert drift <= seen and distance <= seen
    assert seen <= drift | distance


class TestModelNu:
    """Studies that use only nu take it from the built model, so a
    potential at temperature T runs at nu = 1/(2T)."""

    POTENTIAL = {"name": "potential", "coeffs": [0.0, 0.0, 0.5],
                 "temperature": 2.0}
    SAME_NU = {"name": "polynomial", "nu": 0.25}

    def test_psi_coupling_uses_model_nu(self):
        got, want = [run_psi_coupling_study(
            small_cfg(study="psi-coupling", eps_grid=(0.5, 0.25),
                      replicas=2, model=model))
            for model in (self.POTENTIAL, self.SAME_NU)]
        assert got.constants["asymptotic"] == white_noise_constant(0.25)
        assert got.per_eps == want.per_eps

    def test_averaging_uses_model_nu(self):
        got, want = [run_averaging_study(
            small_cfg(study="averaging", eps_grid=(0.5, 0.4, 0.3),
                      replicas=3, model=model))
            for model in (self.POTENTIAL, self.SAME_NU)]
        assert got.nu == 0.25
        assert got == want


class TestAveragingStudy:
    def test_reports_eps_largest_first(self):
        cfg = small_cfg(study="averaging", eps_grid=(0.3, 0.5, 0.4),
                        replicas=4)
        report = run_averaging_study(cfg)
        assert report.eps == (0.5, 0.4, 0.3)
        assert report.replicas == 4

    def test_fewer_than_three_levels_rejected_before_any_replica(
            self, monkeypatch):
        def fail(*args):
            raise AssertionError("replica_norms ran")

        monkeypatch.setattr(studies_module, "replica_norms", fail)
        for grid in ((0.5,), (0.5, 0.25)):
            with pytest.raises(ValueError, match="three eps_grid values"):
                run_averaging_study(small_cfg(study="averaging",
                                              eps_grid=grid, replicas=4))

    def test_block_split_invariance(self, monkeypatch):
        # every split gives each replica the norms of its own stream, so the
        # report (JSON text included) does not depend on the worker count
        monkeypatch.setattr(studies_module, "BLOCK_COEFFS", 1)
        monkeypatch.setattr(studies_module, "usable_cores", lambda: 5)
        real = studies_module.replica_norms
        sizes = []

        def spy(*args):
            sizes.append(len(args[-1]))
            return real(*args)

        monkeypatch.setattr(studies_module, "replica_norms", spy)
        texts = []
        for workers, split in ((1, [5]), (2, [3, 2]), (3, [2, 2, 1])):
            sizes.clear()
            report = run_averaging_study(RunConfig(
                study="averaging", eps_grid=(0.5, 0.35, 0.25), replicas=5,
                seed=2, workers=workers))
            assert sizes == split * 3
            texts.append(report_json_text(report))
        assert texts[0] == texts[1] == texts[2]


    def test_averaging_outputs_pinned(self):
        # reduced protocol (N = 32..725, 5 replicas, workers = 2); recorded
        # with repr when each NoiseStream still carried its draws' purpose,
        # so a change to how the snapshots are drawn that moves any digit
        # fails here
        report = run_averaging_study(RunConfig(
            study="averaging", eps_grid=tuple(2.0 ** -j for j in range(2, 6)),
            replicas=5, seed=3, modes_over_eps=4.0, workers=2))
        assert report.max_modes == (32, 91, 256, 725)
        assert report.median_phi == (
            0.9666089609815043, 1.3976424717082467, 1.9124684696039995,
            2.3947743016092415)
        assert report.q90_phi == (
            1.337512811192881, 2.473563433477393, 3.65929328081844,
            4.715133093737201)
        assert report.median_phi_tilde == (
            0.3343456923986758, 0.6812388496635127, 1.29583705277605,
            1.3385261015951873)
        assert report.q90_phi_tilde == (
            1.0218222305685971, 1.587836856186513, 2.108213917961651,
            2.753423243699456)
        assert report.slope_phi.slope == 0.562090313413683
        assert report.slope_phi_tilde.slope == 0.30686497904406884


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

    def test_byte_identical_output_across_worker_counts(self, tmp_path,
                                                        split_blocks):
        texts = []
        for w in (1, 4, 8):
            report, levels = split_blocks(
                w, lambda: run_convergence_study(small_cfg(workers=w)))
            assert levels == len(report.eps)
            path = tmp_path / f"w{w}.csv"
            write_report(report, str(path), None)
            texts.append(path.read_bytes())
        assert texts[0] == texts[1] == texts[2]

    def test_none_fields_serialize_as_empty(self):
        report = run_convergence_study(small_cfg(eps_grid=(0.5, 0.4, 0.3)))
        text = report_csv_text(report)
        assert "overall,slope,\n" in text


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestLevelMap:
    """The integrator studies' eps levels in forked child processes."""

    BENCH_COSTS = [65, 129, 257, 513, 1025]   # the converge bench's N + 1
    BLOWUP = dict(model={"name": "polynomial", "nu": 1.0,
                         "f": [0.0, 0.0, 0.0, 40.0]},
                  blowup_cutoff=1e308, u0_amplitude=1e120, u0_modes=4,
                  eps_grid=(0.5, 0.4, 0.3, 0.25), replicas=2, fixed_modes=8,
                  dt=0.05, t_final=0.2)

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(studies_module, "usable_cores", lambda: 2)

    def test_shares_go_largest_first_to_the_least_loaded(self, monkeypatch,
                                                         forks):
        # two cores: the N = 1,024 level alone against the other four, one
        # worker each; four cores over two levels: two workers each
        got = _map_levels(lambda sub, i: (os.getpid(), sub.workers),
                          RunConfig(workers=2), self.BENCH_COSTS)
        pids = [pid for pid, _ in got]
        assert len(forks) == 2 and os.getpid() not in pids
        assert len(set(pids[:4])) == 1 and pids[4] != pids[0]
        assert {workers for _, workers in got} == {1}
        monkeypatch.setattr(studies_module, "usable_cores", lambda: 4)
        got = _map_levels(lambda sub, i: (os.getpid(), sub.workers),
                          RunConfig(workers=8), [5, 5])
        assert len({pid for pid, _ in got}) == 2
        assert {workers for _, workers in got} == {2}
        assert_no_child_left()

    def test_levels_run_here_when_a_fork_cannot_help_or_is_unsafe(
            self, monkeypatch, forks):
        here = [os.getpid()] * 2

        def run(sub, i):
            return os.getpid()

        assert _map_levels(run, RunConfig(workers=1), [1, 1]) == here
        assert _map_levels(run, RunConfig(workers=2), [1]) == here[:1]
        # a fork would copy no other thread
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert _map_levels(run, RunConfig(workers=2), [1, 1]) == here
        finally:
            stop.set()
            thread.join()
        import multiprocessing
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn", "fork"])
        assert _map_levels(run, RunConfig(workers=2), [1, 1]) == here
        assert forks == []

    def test_first_failing_level_in_level_order_is_raised(self, forks):
        # one child runs level 4 alone and fails there; the other runs
        # levels 0-3 in order, fails at level 2 and runs no further
        def run(sub, i):
            if i == 3:
                os._exit(5)   # would end its child without a result
            if i in (2, 4):
                raise IntegrationError(f"level {i} blew up")
            return i

        with pytest.raises(IntegrationError, match="^level 2 blew up$"):
            _map_levels(run, RunConfig(workers=2), self.BENCH_COSTS)
        assert len(forks) == 2
        assert_no_child_left()

    def test_unpicklable_exception_keeps_its_name_and_message(self):
        class Local(Exception):
            pass

        def run(sub, i):
            raise Local("no pickle")

        with pytest.raises(RuntimeError, match="^Local: no pickle$"):
            _map_levels(run, RunConfig(workers=2), [1, 1])
        assert_no_child_left()

    @pytest.mark.parametrize("end, status", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL),
         f"killed by signal {int(signal.SIGKILL)}"),
        (lambda: os._exit(3), "exit status 3")])
    def test_child_without_a_result_is_an_error(self, end, status):
        def run(sub, i):
            if i == 4:
                end()
            return i

        with pytest.raises(RuntimeError, match=f"without a result: {status}$"):
            _map_levels(run, RunConfig(workers=2), self.BENCH_COSTS)
        assert_no_child_left()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_study_blowup_raises_as_in_process(self, forks):
        errors = []
        for workers in (1, 2):
            with pytest.raises(IntegrationError) as info:
                run_convergence_study(RunConfig(workers=workers,
                                                **self.BLOWUP))
            errors.append(str(info.value))
        assert len(forks) == 2
        assert errors[0] == errors[1]
        assert errors[0].startswith("non-finite state in PHI_EPS run")
        assert_no_child_left()

    def test_one_process_imports_no_multiprocessing(self):
        # the in-process path adds nothing to a study call's set-up; two
        # workers on two cores fork, and do import it
        code = ("import sys, spdelab.studies as s; "
                "s.usable_cores = lambda: 2; s.run_convergence_study("
                "s.RunConfig(eps_grid=(0.5, 0.25), replicas=2, u0_modes=6, "
                "fixed_modes=8, dt=0.05, t_final=0.2, workers={})); "
                "print('multiprocessing' in sys.modules)")
        src = os.path.dirname(os.path.dirname(studies_module.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        for workers, loaded in ((1, "False"), (2, "True")):
            out = subprocess.run([sys.executable, "-c", code.format(workers)],
                                 env=env, capture_output=True, text=True,
                                 check=True)
            assert out.stdout.strip() == loaded
