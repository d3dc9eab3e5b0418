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
arrays: v is held as (R, C, n, N+1), and the noise as the block's
noise.CoupledOUState, psi stacked (R, levels, n, N+1).  Each step makes one
models.drift call for the block (one grid transform and one
back-transform) and one noise.step_replicas call, which colours the
replicas' normals, each drawn from the replica's own counter-based stream,
with one multiply-add per level and factor column (added left to right);
inputs are checked when a run starts, and no SpectralField is built after
that.  Batched real FFTs are bit-identical per row, so a replica's numbers
do not depend on its block.  The core is a generator that yields the
state at every step time i * dt, i = 0..n_steps, and each consumer reads
it with a for loop: run_mild and couple_runs (the R = 1 case) record
trajectories, each one (n_steps + 1, n, N+1) coefficient array;
coupled_distances keeps each replica's running maximum sup distance from
the perturbed run to both limits, measuring all replicas' differences with
one sup_norms call; reference_distances steps the deterministic limits as
one block beside the replicas' block, records neither, and keeps each
replica's running maximum Sobolev distance to each limit, measured a chunk
of replicas at a time.  Both return (R, limits) arrays: the maxima and
their censored flags.

A run's scratch is one array per role.  A run allocates v and u (v itself
without noise) once and takes every other step array from one
spectral.Workspace per block run: the drift's input, grid and spectrum,
the guard's |u|, and the noise's normals, colouring products and
innovations.  reference_distances steps theorem15's limits and replicas on
one workspace, so the two runs share each of these arrays.  The noise
state is the caller's, advanced in place (run_mild hands over a copy of
its state).  The weight multiplies the drift's result in its workspace
array, which is then added to decay * v; u is written as scale * psi, then
v is added to it (addition commutes); every update runs in place with
out=, rounded as the formulas are written, so no bit changes.
coupled_distances keeps a second workspace for its sup_norms grids of
fast_grid_size(8 * (2N+2)) points: merged into the run's, it raised the
converge bench's peak RSS by 0.3 MiB.  reference_distances measures its
differences through one array of at most models.POINTWISE_TILE points (or
one replica), so neither its differences nor sobolev_norm's temporary
grows with the block.  Rows of at least spectral.ROW_TRANSFORM_POINTS
points are transformed forward one FFT call at a time, as a batched rfft
over such rows allocates a buffer of a few rows at every call, and the
model callbacks run on tiles of models.POINTWISE_TILE points, so that each
of their temporaries stays under glibc's default mmap threshold: the
transforms and the drift map no fresh pages after the first step.
Consumers see u until the next step overwrites it.

Runs abort with a censored flag once the sup norm exceeds the configured
guard or reads NaN (a finite row whose grid values overflow); censored
trajectories carry no fields at or beyond the censoring time, and a
censored row of a block keeps stepping on the drift of the zero field but
is read by no consumer.  The guard calls the oversampled sup_norm only
when 1.25 times the l1 bound max_i (|c_i0| + 2 sum_{k>=1} |c_ik|) /
sqrt(2 pi) exceeds the cutoff; as sup_norm is at most 1.25 times the grid
maximum, no decision changes.  The bound is the step's only finiteness
test: a row holding a non-finite coefficient has a non-finite bound, and
raises IntegrationError (naming its channel and step) before the step
yields; NumPy's invalid and overflow warnings are silenced only in the
update, the composition of u and the bound.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
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
from .spectral import (SpectralField, Workspace, sobolev_norm, sup_norm,
                       sup_norms)


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
# resolve_correction's named settings; any other correction is a number
CORRECTIONS = ("truncation-matched", "asymptotic")


@dataclass(frozen=True)
class SimulationConfig:
    """Discretization parameters shared by every run of one study."""

    max_mode: int
    dt: float
    t_final: float
    blowup_cutoff: float = 1e3

    def __post_init__(self) -> None:
        if self.max_mode < 1:
            raise ValueError("max_mode must be >= 1")
        if not 0 < self.dt <= self.t_final < math.inf:
            raise ValueError("need 0 < dt <= t_final < inf")
        if math.isnan(self.blowup_cutoff):   # inf turns the guard off
            raise ValueError("blowup_cutoff must not be NaN")
        if self.blowup_cutoff <= 0:
            raise ValueError("blowup_cutoff must be positive")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_final / self.dt)))


@dataclass
class Trajectory:
    """Recorded fields of one run at times i * dt.

    Censored trajectories keep only the fields recorded strictly before
    censoring_time.
    """

    variant: Variant
    eps: float
    times: np.ndarray
    coeffs: np.ndarray   # complex; coeffs[i], shape (n, N+1), at times[i]
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
        level = noise.factors.level_index(own_eps)
        scale = math.sqrt(eps) if variant is Variant.V_EPS else 1.0
    return _Channel(
        variant=variant, eps=eps,
        decay=np.exp(lam * config.dt),
        weight=etd_weights(lam, config.dt),
        drift=drift,
        noise_level=level, noise_scale=scale)


def _advance(spec: ModelSpec, channels: list[_Channel], u0: SpectralField,
             noise: Optional[CoupledOUState], config: SimulationConfig,
             work: Workspace | None = None):
    """Drive all channels of all replicas in lockstep from u0.

    noise is the block's state from sample_replicas, one replica per row of
    its psi, or None for a deterministic run of one replica.  Its psi and
    step are advanced in place: at the i-th yielded time the state sits at
    step i.  Yields (t, u, alive) at every step time t = i * dt, i =
    0..n_steps: the state u (R, C, n, N+1) and the (R, C) mask of
    uncensored rows, both overwritten by the next step.  A row is censored
    from the first yielded time at which it is not alive.  work (a fresh
    workspace if None) lends the drift, the guard and the noise step their
    arrays; runs stepped in lockstep on one thread may share it.
    """
    n, nmode, h = spec.n, config.max_mode, config.dt
    n_rep = 1 if noise is None else len(noise.psi)
    n_ch = len(channels)
    # a block's channels all carry noise or none does (no caller puts a
    # V_LIMIT channel beside noisy ones), so the noisy ones write u whole
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
    alive = np.ones((n_rep, n_ch), dtype=bool)
    # Run-scoped arrays that every step overwrites; without noise u is v
    # itself.  Consumers copy what they keep.
    work = Workspace() if work is None else work
    u = np.empty_like(v) if noisy else v

    for step in range(config.n_steps + 1):
        if step:
            # A censored row's drift sees zeros, and its v keeps evolving
            # on that drift (without noise u is v, so that v restarts from
            # 0); no consumer reads a censored row (the recorder writes live
            # rows, the distance maxima are masked)
            u[~alive] = 0.0
            # v <- decay * v + weight * fu, in place and rounded as written:
            # the weight multiplies the drift's workspace result
            fu = models.drift([ch.drift for ch in channels],
                              u.transpose(1, 2, 0, 3),
                              work).transpose(2, 0, 1, 3)
            with np.errstate(invalid="ignore", over="ignore"):
                np.multiply(fu, weight, out=fu)
                np.multiply(decay, v, out=v)
                np.add(v, fu, out=v)
            if noise is not None:
                step_replicas(noise, h, work)
        # u <- v + scale * psi, channel by channel; addition commutes
        with np.errstate(invalid="ignore", over="ignore"):
            for c, level, scale in noisy:
                np.multiply(scale, noise.psi[:, level], out=u[:, c])
                u[:, c] += v[:, c]
            mag = np.abs(u, out=work.array("magnitude", v.shape, np.float64))
            bound = (2 * mag.sum(axis=-1) - mag[..., 0]).max(axis=-1) \
                / np.sqrt(2 * np.pi)
        # only a row with a non-finite bound can hold a non-finite
        # coefficient; a finite row whose bound overflowed stays a suspect
        if not np.isfinite(bound).all():
            bad = np.argwhere(~np.isfinite(u).all(axis=(2, 3)))
            if len(bad):
                raise IntegrationError(
                    f"non-finite state in {channels[bad[0][1]].variant.name} "
                    f"run at step {step} (a drift callback or an overflow)")
        suspects = alive & (1.25 * (1.0 + 1e-12) * bound
                            > config.blowup_cutoff)
        for r, c in zip(*suspects.nonzero()):
            # a finite row whose grid values overflow reads NaN: censored
            if not sup_norm(u[r, c]) <= config.blowup_cutoff:
                alive[r, c] = False
        yield step * h, u, alive


def _recorded(spec: ModelSpec, channels: list[_Channel], u0: SpectralField,
              noise: Optional[CoupledOUState],
              config: SimulationConfig) -> list[Trajectory]:
    """Run one replica; each channel's trajectory, recorded while live."""
    times = np.arange(config.n_steps + 1) * config.dt
    coeffs = np.empty((len(channels), len(times), spec.n,
                       config.max_mode + 1), dtype=np.complex128)
    kept = np.zeros(len(channels), dtype=int)   # a censored row stays dead
    for i, (_, u, alive) in enumerate(_advance(spec, channels, u0, noise,
                                               config)):
        coeffs[alive[0], i] = u[0, alive[0]]
        kept[alive[0]] += 1
    return [Trajectory(variant=ch.variant, eps=ch.eps, times=times[:k],
                       coeffs=coeffs[c, :k], censored=k < len(times),
                       censoring_time=float(times[k]) if k < len(times)
                       else None)
            for c, (ch, k) in enumerate(zip(channels, kept))]


def run_mild(spec: ModelSpec, variant: Variant, eps: float,
             u0: SpectralField, noise: Optional[CoupledOUState],
             config: SimulationConfig, *,
             correction_constant: float | None = None) -> Trajectory:
    """Integrate one variant; returns its recorded trajectory.

    noise = None freezes the stochastic convolution at zero (deterministic
    run); otherwise the state is one replica's (sample_stationary's), must
    contain a level matching the variant's eps (level 0.0 for the limit
    variants), and is left as it is: the run steps a copy.
    """
    if noise is not None:
        if len(noise.psi) != 1:
            raise ValueError("run_mild needs the noise state of one replica")
        noise = replace(noise, psi=noise.psi.copy())
    validate_model(spec)  # one dg cross-check per run (none without g)
    ch = _build_channel(spec, variant, eps, noise, config,
                        correction_constant)
    return _recorded(spec, [ch], u0, noise, config)[0]


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
    raise ValueError(f"correction must be a float or one of {CORRECTIONS}, "
                     f"not {correction!r}")


def _coupled(spec: ModelSpec, eps_levels, config: SimulationConfig, streams,
             correction) -> tuple[list[_Channel], CoupledOUState]:
    """Channels [each eps, naive, corrected] and the noise state of a block
    of replicas, one per stream."""
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
    noise = sample_replicas(ops, spec.n, config.max_mode, streams)
    channels = [_build_channel(spec, Variant.PHI_EPS, e, noise, config,
                               None) for e in eps_levels]
    channels.append(_build_channel(spec, Variant.PHI_ZERO, 0.0, noise, config,
                                   None))
    channels.append(_build_channel(spec, Variant.PHI_BAR, 0.0, noise, config,
                                   const))
    return channels, noise


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
    channels, noise = _coupled(spec, eps_levels, config, [stream],
                               correction)
    return _recorded(spec, channels, u0, noise, config)


def coupled_distances(spec: ModelSpec, eps: float, u0: SpectralField,
                      config: SimulationConfig, streams, *,
                      correction: str | float = "truncation-matched"
                      ) -> tuple[np.ndarray, np.ndarray]:
    """couple_runs at one eps for a block of replicas, one per stream,
    advanced in lockstep without recording fields.

    Returns (dist, censored), each (R, 2) with one row per stream and the
    columns (corrected, naive): the values and censored flags that
    sup_distance(perturbed, corrected) and sup_distance(perturbed, naive)
    give on couple_runs' trajectories.
    """
    channels, noise = _coupled(spec, [eps], config, streams, correction)
    # columns: corrected (channel 2), naive (channel 1)
    dist = np.full((len(streams), 2), math.nan)
    work = Workspace()   # the sup_norms grids of this run's distances
    for _, u, alive in _advance(spec, channels, u0, noise, config):
        diff = u[:, :1] - u[:, 2:0:-1]                   # (R, 2, n, N+1)
        peaks = sup_norms(diff.reshape(-1, diff.shape[-1]), work)
        d = np.reshape(peaks, diff.shape[:3]).max(axis=2)
        # a censored row never enters a maximum
        np.fmax(dist, d, out=dist, where=alive[:, :1] & alive[:, 2:0:-1])
        del diff, peaks, d   # not held through the next step's drift
    return dist, ~(alive[:, :1] & alive[:, 2:0:-1])


def reference_distances(spec: ModelSpec, eps: float, u0: SpectralField,
                        config: SimulationConfig, streams, *, constants,
                        beta: float) -> tuple[np.ndarray, np.ndarray]:
    """run_mild of V_EPS at eps for a block of replicas, one per stream,
    measured against the deterministic V_LIMIT runs with the given
    correction constants, all advanced in lockstep without recording
    fields.

    Returns (dist, censored), each (R, len(constants)) with one row per
    stream and one column per constant c: the value and censored flag that
    sup_distance(run, limit, "sobolev", alpha=beta, nu=spec.nu) gives on
    the replica's trajectory and run_mild(spec, V_LIMIT, 0.0, u0, None,
    config, correction_constant=c).
    """
    noise = sample_replicas([OperatorSpec(spec.nu, eps)], spec.n,
                            config.max_mode, streams)
    channel = _build_channel(spec, Variant.V_EPS, eps, noise, config, None)
    limits = [_build_channel(spec, Variant.V_LIMIT, 0.0, None, config, c)
              for c in constants]
    n_rep = len(streams)
    dist = np.full((n_rep, len(limits)), math.nan)
    # the differences of a chunk of replicas to one limit, at most
    # POINTWISE_TILE points (or one replica), overwritten at every use;
    # each norm sums its own rows, so chunking keeps its bits
    rows = max(1, models.POINTWISE_TILE // (spec.n * (config.max_mode + 1)))
    diff = np.empty((min(rows, n_rep), spec.n, config.max_mode + 1),
                    dtype=np.complex128)
    # the limits step first, so that a step's first-use allocations come
    # before the replicas' noise step; each run consumes its workspace
    # arrays before the other's next step, so both share one workspace
    work = Workspace()
    for (_, lim, lim_alive), (_, u, alive) in zip(
            _advance(spec, limits, u0, None, config, work),
            _advance(spec, [channel], u0, noise, config, work)):
        for j in lim_alive[0].nonzero()[0]:
            for lo in range(0, n_rep, rows):
                hi = min(n_rep, lo + rows)
                d = diff[:hi - lo]
                np.subtract(u[lo:hi, 0], lim[0, j], out=d)
                # a censored row never enters a maximum
                np.fmax(dist[lo:hi, j], sobolev_norm(d, beta, spec.nu),
                        out=dist[lo:hi, j], where=alive[lo:hi, 0])
    return dist, ~(alive[:, :1] & lim_alive[0])


def sup_distance(a: Trajectory, b: Trajectory, norm: str = "sup", *,
                 alpha: float | None = None,
                 nu: float | None = None) -> tuple[float, bool]:
    """Max distance over the common uncensored recorded times.

    norm = "sup" uses the oversampled sup norm, norm = "sobolev" the
    alpha-weighted norm (alpha and nu required).  The fields must have the
    same shape, and the recording grids must agree where they overlap (one
    may be a censored prefix of the other).  Returns (distance,
    either_censored); the distance is NaN when no common times remain.
    """
    if norm == "sobolev" and (alpha is None or nu is None):
        raise ValueError("sobolev distance needs alpha and nu")
    if norm not in ("sup", "sobolev"):
        raise ValueError("norm must be 'sup' or 'sobolev'")
    if a.coeffs.shape[1:] != b.coeffs.shape[1:]:
        raise ValueError("trajectories' field shapes do not match")
    k = min(len(a.times), len(b.times))
    censored = a.censored or b.censored
    if k == 0:
        return (math.nan, censored)
    if not np.array_equal(a.times[:k], b.times[:k]):
        raise ValueError("trajectories were recorded on different grids")
    diff = a.coeffs[:k] - b.coeffs[:k]
    if norm == "sup":
        return (max(map(sup_norm, diff)), censored)
    return (sobolev_norm(diff, alpha, nu).max(), censored)
