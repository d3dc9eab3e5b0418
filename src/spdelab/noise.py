"""Exactly coupled stationary noise across perturbation levels.

Every operator level shares one cylindrical Wiener forcing (intensity
sqrt(2)), so the stationary mode processes at two levels with decay rates
a_i = |lambda_i| and a_j are jointly Gaussian with

    E psi_i conj(psi_j) = 2 / (a_i + a_j),

and one exact transition over a step h has innovation covariance

    Cov(eta_i, conj(eta_j)) = 2 (1 - exp(-(a_i + a_j) h)) / (a_i + a_j).

Both are Gram matrices of the exponentials exp(-a_i s), hence positive
definite once exactly duplicated rates are deduplicated; duplicates (equal
levels, and every level at k = 0 where all symbols equal -1) share one row
of the factor, so they stay bitwise identical.  The factors are expanded
to one row per level once, when they are built.  Colouring a draw writes
each level straight into the complex result: one multiply by the level's
first factor column, then one multiply-add per further column up to the
last that is nonzero at some mode, added left to right.  Where a mode has
at most two distinct rates these are the bits of the matrix product summed
in any order; with three or more, the sum is taken in that left-to-right
order.

A block of R replicas holds its noise as one CoupledOUState: psi stacked
(R, levels, n, N+1), the replicas' streams, the step psi sits at, and the
factors the replicas share.  sample_replicas draws it and step_replicas
advances it in place; a lone replica is the block of one stream.

All randomness is drawn through counter-based streams: each block of
standard normals is a pure function of (base_seed, purpose, replica, step),
never of consumption order, so runs are reproducible under any scheduling.
A stream is a (base_seed, replica) pair, and each draw names its purpose.
A draw re-keys one Philox generator per thread with the key that
Philox(SeedSequence(path)) would take, so it builds no generator.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

from .linops import symbols
from .spectral import Workspace

# Purpose tags keep independent uses of one base seed on disjoint streams.
PURPOSE_OU_INIT = 1
PURPOSE_OU_STEP = 2
PURPOSE_MODE_SET = 3
PURPOSE_MODE_SET_INDEP = 4
PURPOSE_INITIAL_FIELD = 5

# Each thread draws through its own generator.  Every draw sets its whole
# state, so no draw sees what an earlier one left behind.
_THREAD = threading.local()
_ZEROS = np.zeros(4, dtype=np.uint64)
_ZEROS.flags.writeable = False


def _keyed_generator(key: np.ndarray) -> np.random.Generator:
    """This thread's generator in the state Philox(seq) starts in, for
    key = seq.generate_state(2, uint64): counter 0 and an empty buffer."""
    gen = getattr(_THREAD, "generator", None)
    if gen is None:
        gen = _THREAD.generator = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


@dataclass(frozen=True)
class NoiseStream:
    """Counter-based Gaussian stream of one replica.

    Draws are indexed by the derivation path (base_seed, purpose, replica,
    step); each path yields one block of standard normals whose layout over
    (mode, component, level) is fixed, so the same path always produces the
    same numbers regardless of thread count or call order.
    """

    base_seed: int
    replica: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.base_seed, (int, np.integer)) or \
                not 0 <= self.base_seed < 2 ** 64:
            raise ValueError("base_seed must be an unsigned 64-bit integer")
        if not isinstance(self.replica, (int, np.integer)) or self.replica < 0:
            raise ValueError("replica must be a nonnegative integer")

    def with_replica(self, replica: int) -> "NoiseStream":
        return replace(self, replica=int(replica))

    def normals(self, purpose: int, step: int, shape: tuple[int, ...],
                out: np.ndarray | None = None) -> np.ndarray:
        """Standard normal block for (purpose, step) of this path (in out)."""
        if step < 0:
            raise ValueError("step must be nonnegative")
        seq = np.random.SeedSequence(
            entropy=(int(self.base_seed), int(purpose), int(self.replica),
                     int(step)))
        gen = _keyed_generator(seq.generate_state(2, np.uint64))
        return gen.standard_normal(shape, out=out)


class _LevelFactors:
    """Per-mode Cholesky factors of the joint law of a fixed tuple of levels.

    For each mode k the decay-rate vector (a_1..a_m) is deduplicated; the
    joint covariance over the unique rates is factorized once for the
    stationary law and once per step size for the transition law, padded
    with an identity block so the factors stack into one (N+1, m, m) array.
    Each factor is then expanded, once, to one row per level by `inverse`:
    duplicated levels get the same row, so their coloured rows are bitwise
    identical.  Level i's row is nonzero only in its first columns[i]
    columns (the factor is lower triangular), which are all that colouring
    multiplies.
    """

    def __init__(self, levels, max_mode: int):
        self.levels = levels = tuple(levels)
        if not levels:
            raise ValueError("need at least one operator level")
        if any(op.nu != levels[0].nu for op in levels):
            raise ValueError("all levels must share the same nu")
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
        self.columns = tuple(int(c) + 1 for c in self.inverse.max(axis=0))
        self.stationary_factor = self._factor(self._covariance())
        self._step_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def level_index(self, eps: float) -> int:
        for i, op in enumerate(self.levels):
            if op.eps == eps:
                return i
        raise ValueError(f"no noise level with eps = {eps}")

    def _covariance(self, h: float | None = None) -> np.ndarray:
        """Joint covariance over the unique rates, (N+1, m, m): the
        stationary law for h = None, else the innovation of a step h.

        The variance is split over real/imag parts for k != 0 (k = 0 stays
        real), and the rows/columns beyond the dedup count are identity.
        """
        s = self.unique[:, :, None] + self.unique[:, None, :]
        cov = 2.0 / s if h is None else 2.0 * (-np.expm1(-s * h)) / s
        cov = cov / 2.0
        cov[0] *= 2.0
        idx = np.arange(cov.shape[-1])
        beyond = idx[None, :] >= self.counts[:, None]          # (N+1, m)
        cov = np.where(beyond[:, :, None] | beyond[:, None, :], 0.0, cov)
        diag = beyond[:, :, None] & (idx[None, :, None] == idx[None, None, :])
        return np.where(diag, 1.0, cov)

    def _factor(self, cov: np.ndarray) -> np.ndarray:
        """Cholesky factor of a padded unique-rate covariance, expanded to
        row i of mode k = unique row inverse[k, i]: shape (N+1, levels, m)."""
        try:
            factor = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise np.linalg.LinAlgError(
                "joint noise covariance is numerically singular beyond the "
                "exact-duplicate handling; levels are too close to factor"
            ) from exc
        return np.take_along_axis(factor, self.inverse[:, :, None], axis=1)

    def step_factors(self, h: float) -> tuple[np.ndarray, np.ndarray]:
        """(decay multipliers exp(-a h) per level, innovation factor) for h."""
        key = float(h)
        hit = self._step_cache.get(key)
        if hit is None:
            decay = np.exp(-self.rates * key)  # (m, N+1)
            hit = (decay, self._factor(self._covariance(key)))
            self._step_cache[key] = hit
        return hit

    def colored(self, factor: np.ndarray, z: np.ndarray,
                out: np.ndarray | None = None,
                work: Workspace | None = None) -> np.ndarray:
        """Colour standard normals with a per-level factor (stationary or
        transition), batched over modes and leading axes.

        z has shape (..., N+1, n_comp, 2, m); returns complex (..., m, n_comp,
        N+1) with the k = 0 column real, in out when given.  Level i's real
        and imaginary parts are written straight into the complex result:
        the product with factor column 0, then += the product with each
        further column up to columns[i], taken in work's product array (a
        fresh workspace's if None).
        """
        *lead, n_modes, n_comp, _, m = z.shape
        psi = np.empty((*lead, m, n_comp, n_modes), dtype=np.complex128) \
            if out is None else out
        work = Workspace() if work is None else work
        product = work.array("colour product", z.shape[:-1], np.float64) \
            if max(self.columns) > 1 else None
        # (..., m, N+1, n_comp, 2): each level laid out like z's draws
        parts = np.swapaxes(
            psi.view(np.float64).reshape(*lead, m, n_comp, n_modes, 2), -3, -2)
        for i, columns in enumerate(self.columns):
            dest = parts[..., i, :, :, :]
            np.multiply(factor[:, i, 0, None, None], z[..., 0], out=dest)
            for v in range(1, columns):
                np.multiply(factor[:, i, v, None, None], z[..., v],
                            out=product)
                dest += product
        psi[..., 0].imag = 0.0  # k = 0 mode of a real field is real
        return psi


def _stacked_normals(streams, purpose: int, step: int,
                     shape: tuple[int, ...],
                     out: np.ndarray | None = None) -> np.ndarray:
    """One block of normals per stream, in a lone replica's layout, stacked
    (R, *shape): each row is drawn straight into out (fresh if None)."""
    out = np.empty((len(streams), *shape)) if out is None else out
    for s, row in zip(streams, out):
        s.normals(purpose, step, shape, out=row)
    return out


@dataclass
class CoupledOUState:
    """The stationary noise of a block of replicas, shared by all
    perturbation levels.

    psi is indexed (replica, level, component, mode); row r is driven by
    streams[r] and every row sits at `step`.  The levels and their
    factorizations are in factors, which the rows share.  step_replicas
    advances psi and step in place; step_coupled steps a copy.  A state
    (and its cached factorizations) belongs to one block run; do not share
    one across threads.
    """

    psi: np.ndarray  # complex, shape (R, levels, n_components, max_mode+1)
    streams: tuple[NoiseStream, ...]
    step: int
    factors: _LevelFactors


def stationary_samples(levels, n_components: int, max_mode: int,
                       stream: NoiseStream, reps: int) -> np.ndarray:
    """Draw `reps` independent joint stationary samples in one block.

    Returns complex (reps, n_levels, n_components, max_mode+1), for
    statistical estimators that need many independent draws cheaply.
    """
    factors = _LevelFactors(levels, max_mode)
    z = stream.normals(PURPOSE_OU_INIT, 0, (reps, max_mode + 1, n_components,
                                            2, len(factors.levels)))
    return factors.colored(factors.stationary_factor, z)


def sample_replicas(levels, n_components: int, max_mode: int,
                    streams) -> CoupledOUState:
    """One exact joint stationary sample across all levels per stream.

    Returns the block's state at step 0: one factorization of the levels,
    and psi (R, levels, n_components, max_mode+1) coloured in one call,
    whose row r is the sample of streams[r] alone.
    """
    factors = _LevelFactors(levels, max_mode)
    z = _stacked_normals(streams, PURPOSE_OU_INIT, 0,
                         (max_mode + 1, n_components, 2, len(factors.levels)))
    return CoupledOUState(psi=factors.colored(factors.stationary_factor, z),
                          streams=tuple(streams), step=0, factors=factors)


def sample_stationary(levels, n_components: int, max_mode: int,
                      stream: NoiseStream) -> CoupledOUState:
    """Draw one exact joint stationary sample across all levels: the state
    of the block of one stream."""
    return sample_replicas(levels, n_components, max_mode, [stream])


def step_replicas(state: CoupledOUState, h: float,
                  work: Workspace | None = None) -> CoupledOUState:
    """Advance a block's state in place by one exact transition of size
    h > 0; returns the state.

    Row r draws its innovations from streams[r] exactly as the block of
    that stream alone would; the stacked normals are coloured in one call,
    so every row's result is independent of the others.  The normals, the
    colouring's products and the innovations are work's arrays (a fresh
    workspace's if None).
    """
    if h <= 0.0:
        raise ValueError("step size must be positive")
    work = Workspace() if work is None else work
    decay, factor = state.factors.step_factors(h)
    psi = state.psi
    n_rep, n_levels, n_comp, n_modes = psi.shape
    shape = (n_modes, n_comp, 2, n_levels)
    z = _stacked_normals(state.streams, PURPOSE_OU_STEP, state.step + 1,
                         shape, work.array("normals", (n_rep, *shape),
                                           np.float64))
    innovation = state.factors.colored(
        factor, z, work.array("innovation", psi.shape, np.complex128), work)
    psi *= decay[:, None, :]
    psi += innovation  # addition commutes: the bits of innovation + decay*psi
    state.step += 1
    return state


def step_coupled(state: CoupledOUState, h: float) -> CoupledOUState:
    """Advance all levels jointly by one exact transition of size h > 0,
    on a copy: the given state is left as it is."""
    return step_replicas(replace(state, psi=state.psi.copy()), h)


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
