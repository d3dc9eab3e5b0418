"""The package's top-level names are the documented API and nothing more."""

import dataclasses
import os
import subprocess
import sys

import spdelab

DOCUMENTED = [
    # studies
    "RunConfig", "ConvergenceReport", "TailScalingReport", "initial_field",
    "run_convergence_study", "run_theorem15_study", "run_psi_coupling_study",
    "run_averaging_study", "write_report",
    # integrator
    "SimulationConfig", "Variant", "run_mild", "couple_runs",
    "IntegrationError",
    # models
    "ModelSpec", "model_from_config", "polynomial_model", "sin_g_model",
    "CallbackError",
    # noise and averaging
    "NoiseStream", "sample_stationary", "compute_phi",
    "deterministic_profile", "sample_w",
    # constants and spectral
    "white_noise_constant", "truncation_matched_constant", "QuadratureError",
    "SpectralField",
]


def test_all_is_the_documented_list():
    # a new re-export must be added here (and to the README) on purpose
    assert sorted(spdelab.__all__) == sorted(DOCUMENTED)
    assert len(DOCUMENTED) == len(set(DOCUMENTED)) == 28


def test_simulation_config_fields_are_pinned():
    # a new discretization knob must be added here (and to the README) on
    # purpose; every run observes every step of the grid t = i * dt
    assert tuple(f.name for f in dataclasses.fields(
        spdelab.SimulationConfig)) == ("max_mode", "dt", "t_final",
                                       "blowup_cutoff")


def test_every_listed_name_resolves():
    for name in spdelab.__all__:
        assert getattr(spdelab, name) is not None, name


def test_import_and_studies_load_no_scipy():
    # NumPy is the only runtime dependency: importing the package, running
    # each study and a constants call with every option load no SciPy
    # module, and run with every SciPy import made to fail
    src = os.path.dirname(os.path.dirname(spdelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """
import contextlib, io, json, sys
sys.modules["scipy"] = None   # any SciPy import now raises ImportError
import spdelab
from spdelab.cli import cli_main
small = dict(replicas=3, fixed_modes=8, dt=0.05, t_final=0.2, u0_modes=6,
             workers=1, eps_grid=(0.5, 0.4, 0.3, 0.25))
fits = [spdelab.run_convergence_study(spdelab.RunConfig(**small)).ci95,
        spdelab.run_theorem15_study(
            spdelab.RunConfig(study="theorem15", **small)).ci95,
        spdelab.run_averaging_study(spdelab.RunConfig(
            study="averaging", **small)).slope_phi.ci95]
assert all(ci is not None for ci in fits), fits
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert cli_main(["constants", "--nu", "1", "--eps", "0.01", "--max-mode",
                     "800", "--alpha", "0.25", "--q", "1,3,3,1"]) == 0
assert len(json.loads(out.getvalue())) == 5
print(sorted(m for m, mod in sys.modules.items()
             if m.startswith("scipy") and mod is not None))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
