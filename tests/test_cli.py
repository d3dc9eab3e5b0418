"""Tests for the command-line front end: exit codes, output files, schemas."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import spdelab.constants as constants_module
import spdelab.studies as studies_module
from spdelab.cli import cli_main


def run_cli(args, capsys):
    code = cli_main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


STUDY_FLAGS = ["--eps-grid", "0.5,0.4,0.3,0.25", "--replicas", "2",
               "--fixed-modes", "8", "--dt", "0.05", "--t-final", "0.2",
               "--u0-modes", "6", "--seed", "0"]


class TestExitCodes:
    def test_no_command_prints_help(self, capsys):
        code, out, _ = run_cli([], capsys)
        assert code == 1
        assert "usage" in out.lower()

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(["constants", "--nu", "1.0", "--bogus"],
                               capsys)
        assert code == 1
        assert "error" in err

    def test_bad_value_is_config_error(self, capsys):
        code, _, err = run_cli(["constants", "--nu", "-1.0"], capsys)
        assert code == 1
        assert "config error" in err

    def test_bad_config_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{\"replicas\": 2, \"stepsize\": 0.1}")
        code, _, err = run_cli(["converge", "--config", str(path)], capsys)
        assert code == 1
        assert "unknown config keys" in err

    @pytest.mark.parametrize("command", ["converge", "theorem15",
                                         "psi-coupling", "averaging",
                                         "simulate"])
    def test_potential_mass_is_config_error(self, command, capsys):
        # no study reads a model's eps, so a mass there would be ignored
        model = json.dumps({"name": "potential", "coeffs": [0.0, 0.0, 0.5],
                            "temperature": 1.0, "mass": 0.1})
        extra = SIMULATE[1:] if command == "simulate" else []
        code, _, err = run_cli([command, *extra, "--model", model,
                                *STUDY_FLAGS], capsys)
        assert code == 1
        assert "config error:" in err and "'mass'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name,value", [
        ("replicas", 2.5), ("fixed_modes", 8.7), ("workers", 1.5),
        ("u0_modes", True), ("seed", 0.5)])
    def test_non_integer_count_is_config_error(self, tmp_path, capsys,
                                               name, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({name: value}))
        code, _, err = run_cli(["converge", "--config", str(path),
                                *STUDY_FLAGS[:2]], capsys)
        assert code == 1
        assert "config error:" in err and f"{name} must be an integer" in err

    @pytest.mark.parametrize("command,flag", [
        ("theorem15", "--beta"), ("averaging", "--gamma"),
        ("converge", "--correction"), ("converge", "--u0-decay"),
        ("averaging", "--alpha")])
    def test_nan_flag_is_config_error(self, capsys, command, flag):
        code, _, err = run_cli([command, *STUDY_FLAGS, flag, "nan"], capsys)
        assert code == 1
        name = flag[2:].replace("-", "_")
        assert "config error:" in err and f"{name} must be finite" in err

    @pytest.mark.parametrize("command", ["converge", "theorem15",
                                         "psi-coupling", "averaging",
                                         "simulate"])
    def test_unknown_correction_is_config_error(self, command, capsys):
        # psi-coupling and averaging, which read no constant, exited 0 and
        # echoed the name; converge failed only as its first level started
        extra = SIMULATE[1:] if command == "simulate" else []
        code, out, err = run_cli([command, *extra, *STUDY_FLAGS,
                                  "--correction", "foo"], capsys)
        assert code == 1 and out == ""
        assert "config error: correction must be a float or one of" in err
        assert "'foo'" in err

    def test_boolean_correction_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"correction": true}')
        code, _, err = run_cli(["psi-coupling", "--config", str(path),
                                *STUDY_FLAGS], capsys)
        assert code == 1
        assert "config error: correction must be a float" in err

    @pytest.mark.parametrize("flags", [
        ["--nu", "nan"], ["--nu", "inf"],
        ["--nu", "1", "--eps", "inf", "--max-mode", "10"],
        ["--nu", "1", "--eps", "nan"]], ids=" ".join)
    def test_non_finite_constants_input_is_config_error(self, flags, capsys):
        # --nu nan printed NaN (not JSON), --nu inf printed 0.0, and
        # --eps inf printed NaN, each with exit 0
        code, out, err = run_cli(["constants", *flags], capsys)
        assert code == 1 and out == ""
        assert "config error:" in err and "must be" in err

    def test_nan_blowup_cutoff_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"blowup_cutoff": NaN}')
        code, _, err = run_cli(["converge", "--config", str(path),
                                *STUDY_FLAGS], capsys)
        assert code == 1
        assert "config error: blowup_cutoff must not be NaN" in err

    def test_missing_config_file_is_config_error(self, capsys):
        code, _, err = run_cli(["converge", "--config", "/no/such.json"],
                               capsys)
        assert code == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_is_numerical_failure(self, tmp_path, capsys):
        # cubic forcing on a huge initial field overflows inside the first
        # drift evaluation, before the explosion guard can censor
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"blowup_cutoff": 1e308,
                                   "u0_amplitude": 1e120}))
        code, _, err = run_cli(
            ["simulate", "--variant", "phi_bar", "--eps", "0.5",
             "--config", str(cfg),
             "--model", json.dumps({"name": "polynomial", "nu": 1.0,
                                    "f": [0.0, 0.0, 0.0, 40.0]}),
             "--fixed-modes", "8", "--dt", "0.05", "--t-final", "5.0",
             "--u0-modes", "4"], capsys)
        assert code == 2
        assert "numerical failure" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_in_a_forked_level_is_numerical_failure(
            self, tmp_path, capsys, monkeypatch, forks):
        # the IntegrationError of a level run in a child process reaches
        # the CLI as it does from this one
        monkeypatch.setattr(studies_module, "usable_cores", lambda: 2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"blowup_cutoff": 1e308,
                                   "u0_amplitude": 1e120}))
        code, _, err = run_cli(
            ["converge", "--config", str(cfg), "--workers", "2",
             "--model", json.dumps({"name": "polynomial", "nu": 1.0,
                                    "f": [0.0, 0.0, 0.0, 40.0]}),
             *STUDY_FLAGS], capsys)
        assert code == 2
        assert "numerical failure: non-finite state" in err
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_quadrature_failure_is_numerical_failure(self, capsys,
                                                     monkeypatch):
        # far too few panels for Q(y) = 1 + 1e-6 y's peaked tail
        monkeypatch.setattr(constants_module, "QUAD_MAX_PANELS", 64)
        code, _, err = run_cli(["constants", "--nu", "1.0",
                                "--q", "1.0,1e-6"], capsys)
        assert code == 2
        assert "numerical failure" in err and "64 panels" in err

    def test_blowup_censors_gracefully(self, capsys):
        # with the default guard the same run censors: exit 0, note on
        # stderr, trajectory truncated at the censoring time
        code, out, err = run_cli(
            ["simulate", "--variant", "phi_bar", "--eps", "0.5",
             "--model", json.dumps({"name": "polynomial", "nu": 1.0,
                                    "f": [0.0, 0.0, 0.0, 40.0]}),
             "--fixed-modes", "8", "--dt", "0.05", "--t-final", "5.0",
             "--u0-modes", "4"], capsys)
        assert code == 0
        assert "censored" in err
        assert len(out.strip().split("\n")) < 1 + round(5.0 / 0.05) + 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(["--help"], capsys)
        assert code == 0
        assert "constants" in out


SIMULATE = ["simulate", "--variant", "phi_bar", "--eps", "0.5"]
# each bad study flag, and the name that its config error line carries
BAD_FLAGS = [(["--u0-modes", "-1"], "u0_modes"), (["--dt", "0"], "dt"),
             (["--t-final", "0"], "t_final"),
             (["--fixed-modes", "0"], "fixed_modes"),
             (["--replicas", "0"], "replicas"),
             (["--workers", "0"], "workers"),
             (["--modes-over-eps", "0"], "modes_over_eps"),
             (["--t-final", "inf"], "t_final"),
             (["--modes-over-eps", "inf"], "modes_over_eps")]
PATH_SAMPLING = ["path-sampling", "--potential", "0,0,0,0,0.25", "-T", "1.0"]
BAD_PATH_SAMPLING_FLAGS = [
    (["--box", box], "--box") for box in ("inf", "nan", "1e308", "-1")] + [
    (["--probes", "0"], "--probes"), (["--probes", "-3"], "--probes"),
    (["--probes", "100000000000"], "--probes"),
    (["-T", "inf"], "temperature"), (["--mass", "inf"], "mass"),
    (["-T", "1e-320"], "-T"), (["--potential", "nan"], "--potential")]


@pytest.mark.parametrize("command,flag,name", [
    pytest.param(command, flag, name, id=" ".join(command[:1] + flag))
    for command, flag, name in [
        (SIMULATE[:3] + STUDY_FLAGS, ["--eps", "0"], "--eps"),
        (SIMULATE[:3] + STUDY_FLAGS, ["--eps", "-0.5"], "--eps")] + [
        (command + STUDY_FLAGS, flag, name)
        for command in (SIMULATE, ["converge"], ["theorem15"],
                        ["psi-coupling"], ["averaging"])
        for flag, name in BAD_FLAGS] + [
        (PATH_SAMPLING, flag, name)
        for flag, name in BAD_PATH_SAMPLING_FLAGS]])
def test_out_of_range_flag_is_config_error(command, flag, name, capsys):
    # the flag overrides the command's value; argparse keeps the last one
    code, _, err = run_cli(command + flag, capsys)
    assert code == 1
    assert "config error:" in err and name in err
    assert "Traceback" not in err


class TestConstantsCommand:
    def test_white_noise_value(self, capsys):
        code, out, _ = run_cli(["constants", "--nu", "1.0"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["white_noise_constant"] == pytest.approx(0.5, rel=1e-12)

    def test_full_set(self, capsys):
        code, out, _ = run_cli(
            ["constants", "--nu", "1.0", "--alpha", "0.25",
             "--q", "1.0,1.0", "--eps", "0.125", "--max-mode", "64"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["alpha_constant"] == pytest.approx(2.0 ** -0.5, abs=1e-8)
        assert data["poly_constant"] == pytest.approx(0.5, rel=1e-10)
        assert 0.0 < data["truncation_matched_constant"] < 0.5
        assert 0.0 < data["riemann_gap"] < 5.0 * 0.125


class TestPathSamplingCommand:
    def test_quartic_check_passes(self, tmp_path, capsys):
        out_json = tmp_path / "summary.json"
        code, out, _ = run_cli(
            ["path-sampling", "--potential", "0,0,0,0,0.25", "--T", "1.0",
             "--output-json", str(out_json)], capsys)
        assert code == 0
        data = json.loads(out_json.read_text())
        assert data["n"] == 1
        assert data["drift_identity_deviation"] <= 1e-10
        assert data["eps"] == pytest.approx(0.1 / 2.0 ** 0.5, rel=1e-12)
        assert data["nu"] == pytest.approx(0.5, rel=1e-12)
        assert "eps=" in out

    def test_json_pinned(self, tmp_path, capsys):
        # SHA-256 of the summary recorded when the potential reached the
        # model through a callback spec; the direct mapping keeps each byte
        out_json = tmp_path / "summary.json"
        code, _, _ = run_cli(
            ["path-sampling", "--potential", "0,0,0,0,0.25", "-T", "1.0",
             "--mass", "0.1", "--output-json", str(out_json)], capsys)
        assert code == 0
        assert hashlib.sha256(out_json.read_bytes()).hexdigest() == \
            "2ced4029106f17c85d6cba474dd9299609d6c117b2fc419079a4d773b3c7a42f"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_deviation_fails_the_check(self, capsys):
        # at probes near 1e100 both sides overflow to -inf, and their
        # difference, the deviation, is NaN
        code, _, err = run_cli(
            ["path-sampling", "--potential", "0,0,0,0,0.25", "--T", "1.0",
             "--box", "1e100"], capsys)
        assert code == 2
        assert "identity failed: deviation=nan" in err

    def test_no_check_skips_identity(self, capsys):
        code, out, _ = run_cli(
            ["path-sampling", "--potential", "0,0,0.5", "--T", "2.0",
             "--no-check"], capsys)
        assert code == 0
        assert "deviation" not in out


class TestSimulateCommand:
    def test_csv_schema_on_stdout(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--variant", "phi_zero", "--eps", "0.5"]
            + STUDY_FLAGS, capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "time,sup_norm,sobolev_norm"
        assert len(lines) == 1 + round(0.2 / 0.05) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) > 0.0

    def test_output_csv_file(self, tmp_path, capsys):
        path = tmp_path / "traj.csv"
        code, out, _ = run_cli(
            ["simulate", "--variant", "phi_eps", "--eps", "0.5",
             "--output-csv", str(path)] + STUDY_FLAGS, capsys)
        assert code == 0
        assert out == ""
        text = path.read_text()
        assert text.startswith("time,sup_norm,sobolev_norm\n")

    @pytest.mark.parametrize("eps", ["0", "-0.5"])
    def test_nonpositive_eps_rejected(self, capsys, eps):
        # at eps 0 a limit variant would run on a correction constant of 0
        code, out, err = run_cli(
            ["simulate", "--variant", "phi_bar", "--eps", eps]
            + STUDY_FLAGS, capsys)
        assert code == 1 and out == ""
        assert "--eps must be positive" in err

    def test_deterministic_repeats(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(
                ["simulate", "--variant", "phi_eps", "--eps", "0.5",
                 "--output-csv", str(path)] + STUDY_FLAGS, capsys)
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("variant,digest", [
        ("phi_eps",
         "daf0a3d87be0684daedf34192001f2416bf0031347d5f84eb18462eda8b9d47a"),
        ("v_eps",
         "3da1aed8b2b701ea6fc7728d601f394cec5edbf202bf200b40eeb885030818ec")])
    def test_csv_pinned(self, tmp_path, capsys, variant, digest):
        # SHA-256 of the CSV recorded when trajectories were lists of
        # SpectralFields measured one field at a time; the coefficient
        # array and the stacked sobolev_norm call must keep every byte.
        # Re-recorded when sup_norms moved to fast_grid_size(8 (2N+2))
        # points, which moved the sup_norm column by at most 5.5e-5
        # relative and the sobolev_norm column (drift grid) by 1.1e-16
        path = tmp_path / "traj.csv"
        code, _, _ = run_cli(
            ["simulate", "--variant", variant, "--eps", "0.5",
             "--output-csv", str(path)] + STUDY_FLAGS, capsys)
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestStudyCommands:
    def test_converge_byte_identical_csv(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, out, _ = run_cli(
                ["converge", "--output-csv", str(path)] + STUDY_FLAGS,
                capsys)
            assert code == 0
            assert "slope" in out
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_workers_do_not_change_csv(self, tmp_path, capsys,
                                       split_blocks):
        # nor the JSON bytes, for an integrator study and the averaging
        # study: no report echoes the worker count.  The blocks are split
        # at any size, so 4 workers do run each level on two threads.
        for study in ("converge", "averaging"):
            outputs = []
            for workers in ("1", "4"):
                paths = [tmp_path / f"{study}-w{workers}.{ext}"
                         for ext in ("csv", "json")]
                (code, _, _), levels = split_blocks(int(workers), lambda: (
                    run_cli([study, "--output-csv", str(paths[0]),
                             "--output-json", str(paths[1]),
                             "--workers", workers] + STUDY_FLAGS, capsys)))
                assert code == 0
                assert levels == 4
                outputs.append(tuple(path.read_bytes() for path in paths))
            assert outputs[0] == outputs[1]

    def test_output_dir_env_resolution(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPDELAB_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(
            ["converge", "--output-csv", "report.csv",
             "--output-json", "report.json"] + STUDY_FLAGS, capsys)
        assert code == 0
        assert (tmp_path / "report.csv").exists()
        assert json.loads((tmp_path / "report.json").read_text())[
            "study"] == "converge"

    def test_absolute_path_ignores_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPDELAB_OUTPUT_DIR", str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.csv"
        code, _, _ = run_cli(
            ["converge", "--output-csv", str(target)] + STUDY_FLAGS, capsys)
        assert code == 0
        assert target.exists()

    def test_config_file_with_flag_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "eps_grid": [0.5, 0.4, 0.3, 0.25], "replicas": 2,
            "fixed_modes": 8, "dt": 0.05, "t_final": 0.2, "u0_modes": 6}))
        out_json = tmp_path / "r.json"
        code, _, _ = run_cli(
            ["converge", "--config", str(cfg), "--replicas", "3",
             "--output-json", str(out_json)], capsys)
        assert code == 0
        data = json.loads(out_json.read_text())
        assert data["config"]["replicas"] == 3
        assert data["config"]["fixed_modes"] == 8

    def test_averaging_command(self, tmp_path, capsys):
        path = tmp_path / "tail.csv"
        code, out, _ = run_cli(
            ["averaging", "--eps-grid", "0.5,0.4,0.3", "--replicas", "4",
             "--seed", "0", "--output-csv", str(path)], capsys)
        assert code == 0
        assert "slope(eps*|phi|)" in out
        assert path.read_text().startswith("eps,statistic,value\n")

    def test_psi_coupling_command(self, capsys):
        code, out, _ = run_cli(["psi-coupling"] + STUDY_FLAGS, capsys)
        assert code == 0
        assert "slope" in out

    def test_theorem15_rejects_g_model(self, capsys):
        code, _, err = run_cli(
            ["theorem15", "--model", json.dumps({"name": "sin-g",
                                                 "nu": 1.0})] + STUDY_FLAGS,
            capsys)
        assert code == 1
        assert "g = 0" in err


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "spdelab.cli", "constants", "--nu", "2.0"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["white_noise_constant"] == pytest.approx(
            0.5 / 2.0 ** 0.5, rel=1e-12)

    def test_package_runs_as_module(self):
        # python -m spdelab runs the CLI where the console script is not
        # installed
        proc = subprocess.run([sys.executable, "-m", "spdelab", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for command in ("constants", "simulate", "converge", "theorem15",
                        "psi-coupling", "averaging", "path-sampling"):
            assert command in proc.stdout
