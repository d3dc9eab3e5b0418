"""The package's top-level names are the documented API and nothing more."""

import dataclasses

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
