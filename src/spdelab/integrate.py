"""Exponential-Euler time stepping in mild form, with exactly coupled noise.

The state advanced in coefficients is the difference v between the solution
and its stochastic convolution; one step of size h updates each mode by

    v_k  <-  exp(lambda_k h) v_k + w_k(h) [drift(u)]_k,
    u = v + scale * psi(level),

with w_k the exponential-Euler weight and psi advanced by its exact joint
transition.  The scheme is exact on linear problems with constant forcing
and first order in h otherwise.

Variants:
  PHI_EPS   perturbed equation: shifted symbol with eps, full drift, psi^eps;
  PHI_ZERO  naive limit: shifted symbol at eps = 0, drift 1 + f, psi^0;
  PHI_BAR   corrected limit: shifted symbol at eps = 0, drift 1 + fbar, psi^0;
  V_EPS     small-noise equation: unshifted symbol with eps, drift G,
            noise sqrt(eps) * psi^eps (g must vanish);
  V_LIMIT   deterministic limit: unshifted symbol at eps = 0, drift G with
            the corrected reaction (g must vanish), no noise.

Runs abort with a censored flag once the sup norm exceeds the configured
guard; censored trajectories carry no fields at or beyond the censoring
time.  The guard calls the oversampled sup_norm only when 1.25 times the l1
bound max_i (|c_i0| + 2 sum_{k>=1} |c_ik|) / sqrt(2 pi) exceeds the cutoff; as
sup_norm is at most 1.25 times the grid maximum, no decision changes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .constants import truncation_matched_constant
from .linops import OperatorSpec, etd_weights, symbols
from .models import (ModelSpec, eval_F_bar, eval_F_eps, eval_G, eval_G_bar,
                     validate_model)
from .noise import CoupledOUState, NoiseStream, sample_stationary, step_coupled
from .spectral import SpectralField, sobolev_norm, sup_norm


class Variant(enum.Enum):
    """Which member of the model family a run integrates."""

    PHI_EPS = "phi_eps"
    PHI_ZERO = "phi_zero"
    PHI_BAR = "phi_bar"
    V_EPS = "v_eps"
    V_LIMIT = "v_limit"


_STOCHASTIC = {Variant.PHI_EPS, Variant.PHI_ZERO, Variant.PHI_BAR,
               Variant.V_EPS}
_GRADIENT_ONLY = {Variant.V_EPS, Variant.V_LIMIT}


@dataclass(frozen=True)
class SimulationConfig:
    """Discretization parameters shared by every run of one study."""

    max_mode: int
    dt: float
    t_final: float
    record_stride: int = 1
    oversample: int = 2
    dealias_fraction: float = 2.0 / 3.0
    blowup_cutoff: float = 1e3
    variant: Optional[Variant] = None

    def __post_init__(self) -> None:
        if self.max_mode < 1:
            raise ValueError("max_mode must be >= 1")
        if self.dt <= 0 or self.t_final < self.dt:
            raise ValueError("need 0 < dt <= t_final")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.oversample < 1:
            raise ValueError("oversample must be >= 1")
        if self.blowup_cutoff <= 0:
            raise ValueError("blowup_cutoff must be positive")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_final / self.dt)))


@dataclass
class Trajectory:
    """Recorded fields of one run at times i * dt * record_stride.

    Censored trajectories keep only the fields recorded strictly before
    censoring_time.
    """

    variant: Variant
    eps: float
    times: np.ndarray
    fields: list[SpectralField]
    censored: bool = False
    censoring_time: Optional[float] = None


class IntegrationError(RuntimeError):
    """Non-finite state encountered (reported with the offending step)."""


@dataclass
class _Channel:
    variant: Variant
    eps: float
    decay: np.ndarray            # exp(lambda_k dt)
    weight: np.ndarray           # exponential-Euler weights
    drift: Callable[[SpectralField], SpectralField]
    noise_level: Optional[int]
    noise_scale: float
    v: np.ndarray                # coefficient state, shape (n, N+1)
    times: list[float] = field(default_factory=list)
    fields: list[SpectralField] = field(default_factory=list)
    censored: bool = False
    censoring_time: Optional[float] = None
    current: Optional[SpectralField] = None


def _embed(u0: SpectralField, max_mode: int) -> np.ndarray:
    if u0.max_mode > max_mode:
        raise ValueError("initial data has more modes than the simulation")
    out = np.zeros((u0.n_components, max_mode + 1), dtype=np.complex128)
    out[:, : u0.max_mode + 1] = u0.coeffs
    return out


def _channel_symbols(variant: Variant, nu: float, eps: float,
                     max_mode: int) -> np.ndarray:
    ks = np.arange(max_mode + 1)
    lam = symbols(OperatorSpec(nu, eps if variant in
                               (Variant.PHI_EPS, Variant.V_EPS) else 0.0), ks)
    if variant in _GRADIENT_ONLY:
        lam = lam + 1.0  # drop the stabilizing shift; k = 0 is then neutral
    return lam


def _make_drift(spec: ModelSpec, variant: Variant, eps: float,
                config: SimulationConfig,
                correction_constant: float | None):
    over = config.oversample
    frac = config.dealias_fraction
    if variant is Variant.PHI_EPS:
        return lambda u: eval_F_eps(spec, eps, u, oversample=over,
                                    dealias_fraction=frac)
    if variant is Variant.PHI_ZERO:
        return lambda u: eval_F_eps(spec, 0.0, u, oversample=over,
                                    dealias_fraction=frac)
    if variant is Variant.PHI_BAR:
        return lambda u: eval_F_bar(spec, u, constant=correction_constant,
                                    oversample=over, dealias_fraction=frac)
    if variant is Variant.V_EPS:
        return lambda u: eval_G(spec, u, oversample=over,
                                dealias_fraction=frac)
    if variant is Variant.V_LIMIT:
        return lambda u: eval_G_bar(spec, u, constant=correction_constant,
                                    oversample=over, dealias_fraction=frac)
    raise ValueError(f"unknown variant {variant}")


def _build_channel(spec: ModelSpec, variant: Variant, eps: float,
                   u0: SpectralField, noise: Optional[CoupledOUState],
                   config: SimulationConfig,
                   correction_constant: float | None) -> _Channel:
    if not isinstance(variant, Variant):
        raise ValueError("variant must be a Variant member")
    if variant in _GRADIENT_ONLY and spec.g is not None:
        raise ValueError(f"{variant.name} requires g identically zero")
    if variant in (Variant.PHI_EPS, Variant.V_EPS) and eps <= 0:
        raise ValueError(f"{variant.name} needs eps > 0")
    lam = _channel_symbols(variant, spec.nu, eps, config.max_mode)
    level: Optional[int] = None
    scale = 0.0
    if variant in _STOCHASTIC and noise is not None:
        want = eps if variant in (Variant.PHI_EPS, Variant.V_EPS) else 0.0
        level = noise.level_index(want)
        scale = math.sqrt(eps) if variant is Variant.V_EPS else 1.0
    return _Channel(
        variant=variant, eps=eps,
        decay=np.exp(lam * config.dt),
        weight=etd_weights(lam, config.dt),
        drift=_make_drift(spec, variant, eps, config, correction_constant),
        noise_level=level, noise_scale=scale,
        v=_embed(u0, config.max_mode))


def _compose(ch: _Channel, n: int, max_mode: int,
             noise: Optional[CoupledOUState]) -> SpectralField:
    coeffs = ch.v
    if ch.noise_level is not None:
        coeffs = coeffs + ch.noise_scale * noise.psi[ch.noise_level]
    if not np.all(np.isfinite(coeffs.view(np.float64))):
        raise IntegrationError(
            f"non-finite state in {ch.variant.name} run")
    return SpectralField(n, max_mode, coeffs)


def _advance(spec: ModelSpec, channels: list[_Channel],
             noise: Optional[CoupledOUState],
             config: SimulationConfig) -> list[Trajectory]:
    """Drive all channels in lockstep over one shared noise path."""
    n = spec.n
    nmode = config.max_mode
    h = config.dt

    def observe(ch: _Channel, step: int, t: float) -> None:
        if ch.censored:
            return
        try:
            u = _compose(ch, n, nmode, noise)
        except IntegrationError as exc:
            raise IntegrationError(f"{exc} at step {step}") from exc
        mag = np.abs(u.coeffs)
        bound = np.max(2 * mag.sum(axis=1) - mag[:, 0]) / np.sqrt(2 * np.pi)
        if (1.25 * (1.0 + 1e-12) * bound > config.blowup_cutoff
                and sup_norm(u) > config.blowup_cutoff):
            ch.censored = True
            ch.censoring_time = t
            ch.current = None
            return
        ch.current = u
        if step % config.record_stride == 0:
            ch.times.append(t)
            ch.fields.append(u)

    for ch in channels:
        observe(ch, 0, 0.0)

    for step in range(1, config.n_steps + 1):
        for ch in channels:
            if ch.censored:
                continue
            try:
                fu = ch.drift(ch.current)
            except ValueError as exc:
                # overflow inside the drift evaluation surfaces as the field
                # containers' non-finite guard; that is a numerical failure,
                # not a configuration error
                if "non-finite" in str(exc):
                    raise IntegrationError(
                        f"non-finite drift in {ch.variant.name} run at "
                        f"step {step}") from exc
                raise
            ch.v = ch.decay * ch.v + ch.weight * fu.coeffs
        if noise is not None:
            noise = step_coupled(noise, h)
        t = step * h
        for ch in channels:
            observe(ch, step, t)

    return [Trajectory(variant=ch.variant, eps=ch.eps,
                       times=np.asarray(ch.times), fields=ch.fields,
                       censored=ch.censored,
                       censoring_time=ch.censoring_time)
            for ch in channels]


def run_mild(spec: ModelSpec, variant: Variant, eps: float,
             u0: SpectralField, noise: Optional[CoupledOUState],
             config: SimulationConfig, *,
             correction_constant: float | None = None) -> Trajectory:
    """Integrate one variant; returns its recorded trajectory.

    noise = None freezes the stochastic convolution at zero (deterministic
    run); otherwise the state must contain a level matching the variant's
    eps (level 0.0 for the limit variants) and carries its own stream.
    """
    if variant is None:
        variant = config.variant
    if variant is None:
        raise ValueError("no variant given (argument and config both empty)")
    if spec.g is not None:
        validate_model(spec)  # one dg cross-check per run
    if u0.n_components != spec.n:
        raise ValueError("initial data component count does not match model")
    ch = _build_channel(spec, variant, eps, u0, noise, config,
                        correction_constant)
    return _advance(spec, [ch], noise, config)[0]


def couple_runs(spec: ModelSpec, eps_levels, u0: SpectralField,
                config: SimulationConfig, stream: NoiseStream, *,
                correction: str | float = "truncation-matched"
                ) -> list[Trajectory]:
    """Run the perturbed equation at each eps plus both limits, coupled.

    All runs share one jointly sampled noise state (levels = given eps
    values plus 0.0) and the same initial data.  Returns trajectories in the
    order [each eps in the given order, naive limit, corrected limit].

    correction selects the constant in the corrected reaction:
    "truncation-matched" (default) evaluates the finite-truncation constant
    at the smallest eps and the configured mode count, "asymptotic" uses
    1/(2 sqrt(nu)), and a float is used verbatim.
    """
    eps_levels = [float(e) for e in eps_levels]
    if not eps_levels or any(e <= 0 for e in eps_levels):
        raise ValueError("eps levels must be positive")
    if len(set(eps_levels)) != len(eps_levels):
        raise ValueError("eps levels must be distinct")
    if spec.g is not None:
        validate_model(spec)

    if correction == "truncation-matched":
        const = truncation_matched_constant(spec.nu, min(eps_levels),
                                            config.max_mode)
    elif correction == "asymptotic":
        const = None
    elif isinstance(correction, (int, float)) and not isinstance(correction, bool):
        const = float(correction)
    else:
        raise ValueError("correction must be 'truncation-matched', "
                         "'asymptotic', or a float")

    ops = [OperatorSpec(spec.nu, e) for e in eps_levels]
    ops.append(OperatorSpec(spec.nu, 0.0))
    noise = sample_stationary(ops, spec.n, config.max_mode, stream)

    channels = [_build_channel(spec, Variant.PHI_EPS, e, u0, noise, config,
                               None) for e in eps_levels]
    channels.append(_build_channel(spec, Variant.PHI_ZERO, 0.0, u0, noise,
                                   config, None))
    channels.append(_build_channel(spec, Variant.PHI_BAR, 0.0, u0, noise,
                                   config, const))
    return _advance(spec, channels, noise, config)


def sup_distance(a: Trajectory, b: Trajectory, norm: str = "sup", *,
                 alpha: float | None = None,
                 nu: float | None = None) -> tuple[float, bool]:
    """Max distance over the common uncensored recorded times.

    norm = "sup" uses the oversampled sup norm, norm = "sobolev" the
    alpha-weighted norm (alpha and nu required).  The recording grids must
    agree where they overlap (one may be a censored prefix of the other).
    Returns (distance, either_censored); the distance is NaN when no common
    times remain.
    """
    if norm == "sobolev":
        if alpha is None or nu is None:
            raise ValueError("sobolev distance needs alpha and nu")
        measure = lambda d: sobolev_norm(d, alpha, nu)
    elif norm == "sup":
        measure = sup_norm
    else:
        raise ValueError("norm must be 'sup' or 'sobolev'")
    k = min(len(a.times), len(b.times))
    censored = a.censored or b.censored
    if k == 0:
        return (math.nan, censored)
    if not np.array_equal(a.times[:k], b.times[:k]):
        raise ValueError("trajectories were recorded on different grids")
    dist = max(measure(a.fields[i] - b.fields[i]) for i in range(k))
    return (dist, censored)
