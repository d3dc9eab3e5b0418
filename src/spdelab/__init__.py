"""Spectral laboratory for singularly perturbed stochastic heat equations.

The package integrates a family of semilinear equations whose fourth-order
perturbation vanishes with eps while its stationary noise response does not,
produces the corrected limit equations whose extra reaction term captures the
surviving average, and measures the eps^(1/2) rate at which the perturbed
dynamics approach the corrected limit rather than the naive one.
"""

from .averaging import (ModeEnsemble, TailScalingReport,
                        coefficients_to_field, compute_phi, compute_phi_tilde,
                        deterministic_profile, sample_w, sigma_mode,
                        tail_experiment)
from .constants import (QuadratureConfig, QuadratureError, alpha_constant,
                        poly_constant, riemann_gap,
                        truncation_matched_constant, white_noise_constant)
from .integrate import (IntegrationError, SimulationConfig, Trajectory,
                        Variant, couple_runs, run_mild, sup_distance)
from .linops import (OperatorSpec, apply_semigroup, etd_weights,
                     semigroup_gap, symbols)
from .models import (CallbackError, ModelSpec, PolynomialPotential,
                     PotentialSpec, check_effective_drift_identity,
                     effective_drift, eval_F_bar, eval_F_eps, eval_G,
                     eval_G_bar, from_potential, model_from_config,
                     polynomial_model, potential_spec,
                     random_polynomial_potential, sin_g_model, validate_model)
from .noise import (CoupledOUState, NoiseStream, psi_diff_moment,
                    sample_stationary, stationary_samples, step_coupled)
from .regression import RegressionResult, regress_loglog
from .spectral import (GridField, SpectralField, dealias, derivative,
                       from_grid, sobolev_norm, sup_norm, to_grid)
from .studies import (ConvergenceReport, RunConfig, calibrate_dt,
                      initial_field, run_averaging_study, run_convergence_study,
                      run_psi_coupling_study, run_theorem15_study,
                      write_report)

__version__ = "0.1.0"

__all__ = [
    "CallbackError",
    "CoupledOUState",
    "ConvergenceReport",
    "GridField",
    "IntegrationError",
    "ModeEnsemble",
    "ModelSpec",
    "NoiseStream",
    "OperatorSpec",
    "PolynomialPotential",
    "PotentialSpec",
    "QuadratureConfig",
    "QuadratureError",
    "RegressionResult",
    "RunConfig",
    "SimulationConfig",
    "SpectralField",
    "TailScalingReport",
    "Trajectory",
    "Variant",
    "alpha_constant",
    "apply_semigroup",
    "calibrate_dt",
    "check_effective_drift_identity",
    "coefficients_to_field",
    "compute_phi",
    "compute_phi_tilde",
    "couple_runs",
    "dealias",
    "derivative",
    "deterministic_profile",
    "effective_drift",
    "etd_weights",
    "eval_F_bar",
    "eval_F_eps",
    "eval_G",
    "eval_G_bar",
    "from_grid",
    "from_potential",
    "initial_field",
    "model_from_config",
    "polynomial_model",
    "poly_constant",
    "potential_spec",
    "psi_diff_moment",
    "random_polynomial_potential",
    "regress_loglog",
    "riemann_gap",
    "run_averaging_study",
    "run_convergence_study",
    "run_mild",
    "run_psi_coupling_study",
    "run_theorem15_study",
    "sample_stationary",
    "sample_w",
    "semigroup_gap",
    "sigma_mode",
    "sin_g_model",
    "sobolev_norm",
    "stationary_samples",
    "step_coupled",
    "sup_distance",
    "sup_norm",
    "symbols",
    "tail_experiment",
    "to_grid",
    "truncation_matched_constant",
    "validate_model",
    "white_noise_constant",
    "write_report",
]
