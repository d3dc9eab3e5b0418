"""Exactly coupled stationary noise across perturbation levels.

Every operator level shares one cylindrical Wiener forcing (intensity
sqrt(2)), so the stationary mode processes at two levels with decay rates
a_i = |lambda_i| and a_j are jointly Gaussian with

    E psi_i conj(psi_j) = 2 / (a_i + a_j),

and one exact transition over a step h has innovation covariance

    Cov(eta_i, conj(eta_j)) = 2 (1 - exp(-(a_i + a_j) h)) / (a_i + a_j).

Both are Gram matrices of the exponentials exp(-a_i s), hence positive
definite once exactly duplicated rates are deduplicated; duplicates (equal
levels, and every level at k = 0 where all symbols equal -1) are sampled
once and re-expanded, so they stay bitwise identical.

All randomness is drawn through counter-based streams: each block of
standard normals is a pure function of (base_seed, purpose, replica, step),
never of consumption order, so runs are reproducible under any scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linops import OperatorSpec, symbols
from .spectral import SpectralField

# Purpose tags keep independent uses of one base seed on disjoint streams.
PURPOSE_OU_INIT = 1
PURPOSE_OU_STEP = 2
PURPOSE_MODE_SET = 3
PURPOSE_MODE_SET_INDEP = 4
PURPOSE_INITIAL_FIELD = 5
PURPOSE_GAUSS_PROFILE = 6


@dataclass(frozen=True)
class NoiseStream:
    """Counter-based Gaussian stream.

    Draws are indexed by the derivation path (base_seed, purpose, replica,
    step); each path yields one block of standard normals whose layout over
    (mode, component, level) is fixed, so the same path always produces the
    same numbers regardless of thread count or call order.
    """

    base_seed: int
    replica: int = 0
    purpose: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.base_seed, (int, np.integer)) or \
                not 0 <= self.base_seed < 2 ** 64:
            raise ValueError("base_seed must be an unsigned 64-bit integer")
        if not isinstance(self.replica, (int, np.integer)) or self.replica < 0:
            raise ValueError("replica must be a nonnegative integer")

    def with_replica(self, replica: int) -> "NoiseStream":
        return replace(self, replica=int(replica))

    def with_purpose(self, purpose: int) -> "NoiseStream":
        return replace(self, purpose=int(purpose))

    def normals(self, step: int, shape: tuple[int, ...]) -> np.ndarray:
        """Standard normal block for the given step of this path."""
        if step < 0:
            raise ValueError("step must be nonnegative")
        seq = np.random.SeedSequence(
            entropy=(int(self.base_seed), int(self.purpose),
                     int(self.replica), int(step)))
        gen = np.random.Generator(np.random.Philox(seq))
        return gen.standard_normal(shape)


class _LevelFactors:
    """Per-mode Cholesky factorizations for a fixed tuple of levels.

    For each mode k the decay-rate vector (a_1..a_m) is deduplicated; the
    joint covariance over the unique rates is factorized once (stationary
    law) and once per step size (transition law), padded with an identity
    block so the factors stack into one (N+1, m, m) array.
    """

    def __init__(self, levels: tuple[OperatorSpec, ...], max_mode: int):
        m = len(levels)
        ks = np.arange(max_mode + 1)
        self.rates = np.stack([-symbols(op, ks) for op in levels])  # (m, N+1)
        if np.any(self.rates < 1.0 - 1e-12):
            raise ValueError("operator symbols must satisfy lambda_k <= -1")

        # np.unique per mode, vectorised: sort rows, number runs of equal rates
        order = np.argsort(self.rates.T, axis=1, kind="stable")  # (N+1, m)
        srt = np.take_along_axis(self.rates.T, order, axis=1)
        fresh = np.insert(srt[:, 1:] != srt[:, :-1], 0, True, axis=1)
        run = np.cumsum(fresh, axis=1) - 1
        mode = np.indices(run.shape)[0]
        self.counts = run[:, -1] + 1
        self.unique = np.ones((max_mode + 1, m), dtype=np.float64)
        self.unique[mode[fresh], run[fresh]] = srt[fresh]
        self.inverse = np.empty((max_mode + 1, m), dtype=np.intp)
        self.inverse[mode, order] = run
        self.stationary_factor = self._factor(self._covariance_stationary())
        self._step_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def _halved(self, cov: np.ndarray) -> np.ndarray:
        """Split variance over real/imag parts for k != 0; k = 0 stays real."""
        cov = cov / 2.0
        cov[0] *= 2.0
        return cov

    def _pad(self, cov: np.ndarray) -> np.ndarray:
        """Replace the unused rows/columns beyond the dedup count by identity."""
        n_modes, m, _ = cov.shape
        idx = np.arange(m)
        beyond = idx[None, :] >= self.counts[:, None]          # (N+1, m)
        mask = beyond[:, :, None] | beyond[:, None, :]
        cov = np.where(mask, 0.0, cov)
        diag = beyond[:, :, None] & (idx[None, :, None] == idx[None, None, :])
        return np.where(diag, 1.0, cov)

    def _covariance_stationary(self) -> np.ndarray:
        a = self.unique  # (N+1, m)
        cov = 2.0 / (a[:, :, None] + a[:, None, :])
        return self._pad(self._halved(cov))

    def _covariance_step(self, h: float) -> np.ndarray:
        a = self.unique
        s = a[:, :, None] + a[:, None, :]
        cov = 2.0 * (-np.expm1(-s * h)) / s
        return self._pad(self._halved(cov))

    def _factor(self, cov: np.ndarray) -> np.ndarray:
        try:
            return np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise np.linalg.LinAlgError(
                "joint noise covariance is numerically singular beyond the "
                "exact-duplicate handling; levels are too close to factor"
            ) from exc

    def step_factors(self, h: float) -> tuple[np.ndarray, np.ndarray]:
        """(decay multipliers exp(-a h) per level, innovation factor) for h."""
        key = float(h)
        hit = self._step_cache.get(key)
        if hit is None:
            decay = np.exp(-self.rates * key)  # (m, N+1)
            hit = (decay, self._factor(self._covariance_step(key)))
            self._step_cache[key] = hit
        return hit

    def colored(self, z: np.ndarray) -> np.ndarray:
        """Map standard normals to one joint sample, batched over modes."""
        return self.colored_step(self.stationary_factor, z)

    def colored_step(self, factor: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Colour standard normals with a per-mode factor (stationary or
        transition).

        z has shape (..., N+1, n_comp, 2, m); returns complex (..., m, n_comp,
        N+1) with the k = 0 column real.
        """
        mixed = np.einsum("kuv,...kcjv->...kcju", factor, z)
        idx = self.inverse[:, None, None, :]
        idx = np.broadcast_to(idx, mixed.shape[:-4] + mixed.shape[-4:])
        expanded = np.take_along_axis(mixed, idx, axis=-1)
        re = expanded[..., 0, :]
        im = expanded[..., 1, :].copy()
        im[..., 0, :, :] = 0.0  # k = 0 mode of a real field is real
        psi = re + 1j * im      # (..., N+1, n_comp, m)
        return np.moveaxis(psi, (-3, -2, -1), (-1, -2, -3))


def _validate_levels(levels) -> tuple[OperatorSpec, ...]:
    levels = tuple(levels)
    if not levels:
        raise ValueError("need at least one operator level")
    nu = levels[0].nu
    if any(op.nu != nu for op in levels):
        raise ValueError("all levels must share the same nu")
    return levels


@dataclass
class CoupledOUState:
    """Stationary-noise state shared by all perturbation levels of one run.

    psi is indexed (level, component, mode).  The state is advanced
    functionally: step_coupled returns a new state and leaves the input
    untouched.  A state (and its cached factorizations) is confined to one
    simulation instance; do not share one across threads.
    """

    levels: tuple[OperatorSpec, ...]
    n_components: int
    max_mode: int
    t: float
    step: int
    psi: np.ndarray  # complex, shape (len(levels), n_components, max_mode+1)
    stream: NoiseStream
    factors: _LevelFactors

    def level_index(self, eps: float) -> int:
        for i, op in enumerate(self.levels):
            if op.eps == eps:
                return i
        raise ValueError(f"no noise level with eps = {eps}")

    def psi_field(self, level: int) -> SpectralField:
        return SpectralField(self.n_components, self.max_mode,
                             self.psi[level].copy())


def stationary_samples(levels, n_components: int, max_mode: int,
                       stream: NoiseStream, reps: int,
                       factors: _LevelFactors | None = None) -> np.ndarray:
    """Draw `reps` independent joint stationary samples in one block.

    Returns complex (reps, n_levels, n_components, max_mode+1).  Used both by
    sample_stationary (reps = 1) and by statistical estimators that need many
    independent draws cheaply.
    """
    levels = _validate_levels(levels)
    if factors is None:
        factors = _LevelFactors(levels, max_mode)
    z = stream.with_purpose(PURPOSE_OU_INIT).normals(
        0, (reps, max_mode + 1, n_components, 2, len(levels)))
    return factors.colored(z)


def sample_replicas(levels, n_components: int, max_mode: int,
                    streams) -> list[CoupledOUState]:
    """One exact joint stationary sample across all levels per stream.

    The states share one factorization of the levels, so they belong to
    one block of replicas advanced together (by one thread); each equals
    sample_stationary on its stream.
    """
    levels = _validate_levels(levels)
    factors = _LevelFactors(levels, max_mode)
    return [CoupledOUState(levels=levels, n_components=n_components,
                           max_mode=max_mode, t=0.0, step=0,
                           psi=stationary_samples(levels, n_components,
                                                  max_mode, s, 1, factors)[0],
                           stream=s, factors=factors)
            for s in streams]


def sample_stationary(levels, n_components: int, max_mode: int,
                      stream: NoiseStream) -> CoupledOUState:
    """Draw one exact joint stationary sample across all levels."""
    return sample_replicas(levels, n_components, max_mode, [stream])[0]


def step_replicas(factors: _LevelFactors, streams, step: int,
                  psi: np.ndarray, h: float) -> np.ndarray:
    """Advance a stack of replica states (R, levels, n_comp, N+1) from `step`
    by one exact transition of size h > 0.

    Replica r draws its innovations from streams[r] exactly as a lone state
    on that stream would; the stacked normals are coloured in one call, so
    every replica's result is independent of the others in the stack.
    """
    if h <= 0.0:
        raise ValueError("step size must be positive")
    decay, factor = factors.step_factors(h)
    _, n_levels, n_comp, n_modes = psi.shape
    shape = (n_modes, n_comp, 2, n_levels)  # a lone state's layout
    z = [s.with_purpose(PURPOSE_OU_STEP).normals(step + 1, shape)
         for s in streams]
    z = z[0][None] if len(z) == 1 else np.stack(z)
    return decay[:, None, :] * psi + factors.colored_step(factor, z)


def step_coupled(state: CoupledOUState, h: float) -> CoupledOUState:
    """Advance all levels jointly by one exact transition of size h > 0."""
    psi = step_replicas(state.factors, (state.stream,), state.step,
                        state.psi[None], h)[0]
    return CoupledOUState(levels=state.levels, n_components=state.n_components,
                          max_mode=state.max_mode, t=state.t + h,
                          step=state.step + 1, psi=psi, stream=state.stream,
                          factors=state.factors)


def psi_diff_moment(nu: float, eps: float, k: int) -> float:
    """Exact second moment E|psi^eps_k - psi^0_k|^2 under shared forcing.

    With a_eps = 1 + nu k^2 + eps^2 k^4 and a_0 = 1 + nu k^2 this equals
    1/a_eps + 1/a_0 - 4/(a_eps + a_0); it vanishes at eps = 0 and at k = 0.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    k2 = float(k) ** 2
    a_eps = 1.0 + nu * k2 + (eps ** 2) * k2 * k2
    a_0 = 1.0 + nu * k2
    return 1.0 / a_eps + 1.0 / a_0 - 4.0 / (a_eps + a_0)
