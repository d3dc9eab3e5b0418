"""Spectral laboratory for singularly perturbed stochastic heat equations.

The package integrates a family of semilinear equations whose fourth-order
perturbation vanishes with eps while its stationary noise response does not,
produces the corrected limit equations whose extra reaction term captures the
surviving average, and measures the eps^(1/2) rate at which the perturbed
dynamics approach the corrected limit rather than the naive one.
"""

from .averaging import compute_phi, deterministic_profile, sample_w
from .constants import (QuadratureError, truncation_matched_constant,
                        white_noise_constant)
from .integrate import (IntegrationError, SimulationConfig, Variant,
                        couple_runs, run_mild)
from .models import (CallbackError, ModelSpec, model_from_config,
                     polynomial_model, sin_g_model)
from .noise import NoiseStream, sample_stationary
from .spectral import SpectralField
from .studies import (ConvergenceReport, RunConfig, TailScalingReport,
                      initial_field, run_averaging_study,
                      run_convergence_study, run_psi_coupling_study,
                      run_theorem15_study, write_report)

__version__ = "0.1.0"

__all__ = [
    "CallbackError",
    "ConvergenceReport",
    "IntegrationError",
    "ModelSpec",
    "NoiseStream",
    "QuadratureError",
    "RunConfig",
    "SimulationConfig",
    "SpectralField",
    "TailScalingReport",
    "Variant",
    "compute_phi",
    "couple_runs",
    "deterministic_profile",
    "initial_field",
    "model_from_config",
    "polynomial_model",
    "run_averaging_study",
    "run_convergence_study",
    "run_mild",
    "run_psi_coupling_study",
    "run_theorem15_study",
    "sample_stationary",
    "sample_w",
    "sin_g_model",
    "truncation_matched_constant",
    "white_noise_constant",
    "write_report",
]
