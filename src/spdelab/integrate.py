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

One core advances a block of R replicas by C channels in lockstep on plain
arrays: v is held as (R, C, n, N+1) and psi as (R, levels, n, N+1).  Each
step makes one models.drift call for the block (one grid transform and one
back-transform) and colours the replicas' noise normals, each drawn from the
replica's own counter-based stream, together; inputs are checked when a run
starts, and the step loop builds no SpectralField but in the guard's rare
fallback.  Batched real FFTs are bit-identical per row, so a replica's
numbers do not depend on its block.  At every recorded time the core hands
the state to one observer: run_mild and couple_runs (the R = 1 case) record
trajectories; coupled_distances keeps each replica's running maximum sup
distance from the perturbed run to both limits, and reference_distances its
running maximum Sobolev distance to fixed reference trajectories.

Runs abort with a censored flag once the sup norm exceeds the configured
guard; censored trajectories carry no fields at or beyond the censoring
time, and a censored row of a block stays frozen.  The guard calls the
oversampled sup_norm only when 1.25 times the l1 bound
max_i (|c_i0| + 2 sum_{k>=1} |c_ik|) / sqrt(2 pi) exceeds the cutoff; as
sup_norm is at most 1.25 times the grid maximum, no decision changes.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import truncation_matched_constant, white_noise_constant
from .linops import OperatorSpec, etd_weights, symbols
from . import models
# eval_*, step_coupled and sample_stationary are not called here; they stay
# bound in this module because bench/spans.py traces the names it imports.
from .models import (DriftPlan, ModelSpec, eval_F_bar, eval_F_eps, eval_G,
                     eval_G_bar, plan_F_bar, plan_F_eps, plan_G,
                     validate_model)
from .noise import (CoupledOUState, NoiseStream, sample_replicas,
                    sample_stationary, step_coupled, step_replicas)
from .spectral import SpectralField, sobolev_norm, sup_norm, sup_norms


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
    blowup_cutoff: float = 1e3

    def __post_init__(self) -> None:
        if self.max_mode < 1:
            raise ValueError("max_mode must be >= 1")
        if self.dt <= 0 or self.t_final < self.dt:
            raise ValueError("need 0 < dt <= t_final")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
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


@dataclass(frozen=True)
class _Channel:
    """One variant's operator and drift, shared by every replica of a block."""

    variant: Variant
    eps: float
    decay: np.ndarray            # exp(lambda_k dt)
    weight: np.ndarray           # exponential-Euler weights
    drift: DriftPlan
    noise_level: Optional[int]
    noise_scale: float


def _build_channel(spec: ModelSpec, variant: Variant, eps: float,
                   noise: Optional[CoupledOUState], config: SimulationConfig,
                   correction_constant: float | None) -> _Channel:
    if not isinstance(variant, Variant):
        raise ValueError("variant must be a Variant member")
    if variant in _GRADIENT_ONLY and spec.g is not None:
        raise ValueError(f"{variant.name} requires g identically zero")
    if variant in (Variant.PHI_EPS, Variant.V_EPS) and eps <= 0:
        raise ValueError(f"{variant.name} needs eps > 0")
    own_eps = eps if variant in (Variant.PHI_EPS, Variant.V_EPS) else 0.0
    lam = symbols(OperatorSpec(spec.nu, own_eps),
                  np.arange(config.max_mode + 1))
    if variant in _GRADIENT_ONLY:
        lam = lam + 1.0  # drop the stabilizing shift; k = 0 is then neutral
    if variant in (Variant.PHI_EPS, Variant.PHI_ZERO):
        drift = plan_F_eps(spec, own_eps)
    elif variant is Variant.PHI_BAR:
        drift = plan_F_bar(spec, correction_constant)
    elif variant is Variant.V_EPS:
        drift = plan_G(spec, None)
    else:
        drift = plan_G(spec, white_noise_constant(spec.nu)
                       if correction_constant is None
                       else float(correction_constant))
    level: Optional[int] = None
    scale = 0.0
    if variant in _STOCHASTIC and noise is not None:
        level = noise.level_index(own_eps)
        scale = math.sqrt(eps) if variant is Variant.V_EPS else 1.0
    return _Channel(
        variant=variant, eps=eps,
        decay=np.exp(lam * config.dt),
        weight=etd_weights(lam, config.dt),
        drift=drift,
        noise_level=level, noise_scale=scale)


def _drift(channels: list[_Channel], u: np.ndarray, step: int) -> np.ndarray:
    """models.drift of every channel and replica of u (R, C, n, N+1),
    raising IntegrationError if a channel's drift is not finite."""
    fu = models.drift([ch.drift for ch in channels], u.transpose(1, 2, 0, 3))
    finite = np.isfinite(fu).reshape(len(channels), -1).all(axis=1)
    if not finite.all():
        raise IntegrationError(f"non-finite drift in "
                               f"{channels[finite.argmin()].variant.name} "
                               f"run at step {step}")
    return fu.transpose(2, 0, 1, 3)


def _advance(spec: ModelSpec, channels: list[_Channel], u0: SpectralField,
             states: Optional[list[CoupledOUState]], config: SimulationConfig,
             observe) -> list[list[Optional[float]]]:
    """Drive all channels of all replicas in lockstep from u0.

    states holds one noise state per replica (all at the same step, sharing
    their levels and factors), or is None for deterministic runs of one
    replica.  At every recorded time observe(t, u, alive) gets the state u
    (R, C, n, N+1) and the (R, C) mask of uncensored rows.  Returns each
    [replica][channel] censoring time, None for a row that ran to the end.
    """
    n, nmode, h = spec.n, config.max_mode, config.dt
    n_rep = len(states) if states else 1
    n_ch = len(channels)
    noisy = [(c, ch.noise_level, ch.noise_scale)
             for c, ch in enumerate(channels) if ch.noise_level is not None]
    if u0.n_components != n:
        raise ValueError("initial data component count does not match model")
    if u0.max_mode > nmode:
        raise ValueError("initial data has more modes than the simulation")
    v = np.zeros((n_rep, n_ch, n, nmode + 1), dtype=np.complex128)
    v[..., : u0.max_mode + 1] = u0.coeffs
    decay = np.stack([ch.decay for ch in channels])[:, None, :]
    weight = np.stack([ch.weight for ch in channels])[:, None, :]
    if states:
        psi = np.stack([s.psi for s in states])
        streams = [s.stream for s in states]
        factors, step0 = states[0].factors, states[0].step
    alive = np.ones((n_rep, n_ch), dtype=bool)
    censoring_time = [[None] * n_ch for _ in range(n_rep)]

    def state(step: int, t: float) -> np.ndarray:
        u = v.copy() if noisy else v  # v is never written in place
        for c, level, scale in noisy:
            u[:, c] += scale * psi[:, level]
        if not np.isfinite(u.view(np.float64)).all():
            bad = np.argwhere(~np.isfinite(u).all(axis=(2, 3)))[0][1]
            raise IntegrationError(f"non-finite state in "
                                   f"{channels[bad].variant.name} run at "
                                   f"step {step}")
        mag = np.abs(u)
        bound = (2 * mag.sum(axis=-1) - mag[..., 0]).max(axis=-1) \
            / np.sqrt(2 * np.pi)
        suspects = alive & (1.25 * (1.0 + 1e-12) * bound
                            > config.blowup_cutoff)
        for r, c in zip(*suspects.nonzero()):
            if sup_norm(SpectralField(n, nmode, u[r, c])) \
                    > config.blowup_cutoff:
                alive[r, c] = False
                censoring_time[r][c] = t
        if step % config.record_stride == 0:
            observe(t, u, alive)
        return u

    u = state(0, 0.0)
    for step in range(1, config.n_steps + 1):
        if alive.all():
            v = decay * v + weight * _drift(channels, u, step)
        else:  # censored rows stay frozen; their drift sees zeros
            live = alive[:, :, None, None]
            fu = _drift(channels, np.where(live, u, 0.0), step)
            v = np.where(live, decay * v + weight * fu, v)
        if states:
            psi = step_replicas(factors, streams, step0 + step - 1, psi, h)
        u = state(step, step * h)
    return censoring_time


def _recorded(spec: ModelSpec, channels: list[_Channel], u0: SpectralField,
              states: Optional[list[CoupledOUState]],
              config: SimulationConfig) -> list[Trajectory]:
    """Run one replica; each channel's trajectory, recorded while live."""
    times: list[list[float]] = [[] for _ in channels]
    fields: list[list[SpectralField]] = [[] for _ in channels]

    def record(t: float, u: np.ndarray, alive: np.ndarray) -> None:
        for c in alive[0].nonzero()[0]:
            times[c].append(t)
            fields[c].append(SpectralField(spec.n, config.max_mode, u[0, c]))

    (cens,) = _advance(spec, channels, u0, states, config, record)
    return [Trajectory(variant=ch.variant, eps=ch.eps,
                       times=np.asarray(times[c]), fields=fields[c],
                       censored=cens[c] is not None, censoring_time=cens[c])
            for c, ch in enumerate(channels)]


def run_mild(spec: ModelSpec, variant: Variant, eps: float,
             u0: SpectralField, noise: Optional[CoupledOUState],
             config: SimulationConfig, *,
             correction_constant: float | None = None) -> Trajectory:
    """Integrate one variant; returns its recorded trajectory.

    noise = None freezes the stochastic convolution at zero (deterministic
    run); otherwise the state must contain a level matching the variant's
    eps (level 0.0 for the limit variants) and carries its own stream.
    """
    validate_model(spec)  # one dg cross-check per run (none without g)
    ch = _build_channel(spec, variant, eps, noise, config,
                        correction_constant)
    states = None if noise is None else [noise]
    return _recorded(spec, [ch], u0, states, config)[0]


def resolve_correction(correction, nu: float, eps: float,
                       max_mode: int) -> float | None:
    """The corrected reaction's constant for a correction setting.

    "truncation-matched" evaluates the finite-truncation constant at eps
    and max_mode, "asymptotic" gives None (the white-noise constant
    1/(2 sqrt(nu))), and a number is used verbatim.
    """
    if correction == "truncation-matched":
        return truncation_matched_constant(nu, eps, max_mode)
    if correction == "asymptotic":
        return None
    if isinstance(correction, (int, float)) and not isinstance(correction,
                                                               bool):
        return float(correction)
    raise ValueError("correction must be 'truncation-matched', "
                     "'asymptotic', or a float")


def _coupled(spec: ModelSpec, eps_levels, config: SimulationConfig, streams,
             correction) -> tuple[list[_Channel], list[CoupledOUState]]:
    """Channels [each eps, naive, corrected] and one noise state per stream,
    all sharing one factorization of the levels."""
    eps_levels = [float(e) for e in eps_levels]
    if not eps_levels or any(e <= 0 for e in eps_levels):
        raise ValueError("eps levels must be positive")
    if len(set(eps_levels)) != len(eps_levels):
        raise ValueError("eps levels must be distinct")
    validate_model(spec)
    const = resolve_correction(correction, spec.nu, min(eps_levels),
                               config.max_mode)
    ops = [OperatorSpec(spec.nu, e) for e in eps_levels]
    ops.append(OperatorSpec(spec.nu, 0.0))
    states = sample_replicas(ops, spec.n, config.max_mode, streams)

    channels = [_build_channel(spec, Variant.PHI_EPS, e, states[0], config,
                               None) for e in eps_levels]
    channels.append(_build_channel(spec, Variant.PHI_ZERO, 0.0, states[0],
                                   config, None))
    channels.append(_build_channel(spec, Variant.PHI_BAR, 0.0, states[0],
                                   config, const))
    return channels, states


def couple_runs(spec: ModelSpec, eps_levels, u0: SpectralField,
                config: SimulationConfig, stream: NoiseStream, *,
                correction: str | float = "truncation-matched"
                ) -> list[Trajectory]:
    """Run the perturbed equation at each eps plus both limits, coupled.

    All runs share one jointly sampled noise state (levels = given eps
    values plus 0.0) and the same initial data.  Returns trajectories in the
    order [each eps in the given order, naive limit, corrected limit].
    resolve_correction turns correction into the corrected reaction's
    constant at the smallest eps and the configured mode count.
    """
    channels, states = _coupled(spec, eps_levels, config, [stream],
                                correction)
    return _recorded(spec, channels, u0, states, config)


def coupled_distances(spec: ModelSpec, eps: float, u0: SpectralField,
                      config: SimulationConfig, streams, *,
                      correction: str | float = "truncation-matched"
                      ) -> list[tuple[tuple[float, bool], tuple[float, bool]]]:
    """couple_runs at one eps for a block of replicas, one per stream,
    advanced in lockstep without recording fields.

    Returns per replica (sup_distance(perturbed, corrected),
    sup_distance(perturbed, naive)) with the same values and censored flags
    that sup_distance gives on couple_runs' trajectories.
    """
    channels, states = _coupled(spec, [eps], config, streams, correction)
    n = spec.n
    dist = np.full((len(streams), 3), math.nan)   # by channel; 0 unused

    def sup_distances(t: float, u: np.ndarray, alive: np.ndarray) -> None:
        for r in alive[:, 0].nonzero()[0]:
            live = [c for c in (2, 1) if alive[r, c]]
            if not live:
                continue
            diff = np.concatenate([u[r, 0] - u[r, c] for c in live])
            peaks = sup_norms(diff)
            for j, c in enumerate(live):
                d = max(0.0, *peaks[j * n:(j + 1) * n])
                dist[r, c] = np.fmax(dist[r, c], d)

    censoring_time = _advance(spec, channels, u0, states, config,
                              sup_distances)
    return [tuple((float(row[c]), times[0] is not None or times[c] is not None)
                  for c in (2, 1))
            for row, times in zip(dist, censoring_time)]


def reference_distances(spec: ModelSpec, eps: float, u0: SpectralField,
                        config: SimulationConfig, streams,
                        references: list[Trajectory], *, beta: float
                        ) -> list[tuple[tuple[float, bool], ...]]:
    """run_mild of V_EPS at eps for a block of replicas, one per stream,
    advanced in lockstep without recording fields.

    references are trajectories recorded on the same config (the
    deterministic limits).  Returns per replica, for each reference, the
    value and censored flag that sup_distance(run, reference, "sobolev",
    alpha=beta, nu=spec.nu) gives on the replica's trajectory.
    """
    states = sample_replicas([OperatorSpec(spec.nu, eps)], spec.n,
                             config.max_mode, streams)
    channel = _build_channel(spec, Variant.V_EPS, eps, states[0], config,
                             None)
    dist = np.full((len(streams), len(references)), math.nan)
    recorded = itertools.count()

    def sobolev_distances(t: float, u: np.ndarray, alive: np.ndarray) -> None:
        i = next(recorded)
        for j, ref in enumerate(references):
            for r in alive[:, 0].nonzero()[0] if i < len(ref.fields) else ():
                d = sobolev_norm(SpectralField(spec.n, config.max_mode,
                                               u[r, 0] - ref.fields[i].coeffs),
                                 beta, spec.nu)
                dist[r, j] = np.fmax(dist[r, j], d)

    censoring_time = _advance(spec, [channel], u0, states, config,
                              sobolev_distances)
    return [tuple((float(d), cens is not None or ref.censored)
                  for d, ref in zip(row, references))
            for row, (cens,) in zip(dist, censoring_time)]


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
