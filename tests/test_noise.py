"""Tests for the coupled stationary noise engine."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from spdelab import NoiseStream, SpectralField, sample_stationary
from spdelab.linops import OperatorSpec, symbols
from spdelab.noise import (PURPOSE_OU_STEP, _LevelFactors, _stacked_normals,
                           psi_diff_moment, sample_replicas,
                           stationary_samples, step_coupled, step_replicas)
from spdelab.spectral import Workspace


def rates(nu: float, eps: float, k: int) -> float:
    return -float(symbols(OperatorSpec(nu, eps), k))


class TestNoiseStream:
    def test_same_path_same_numbers(self):
        s = NoiseStream(7, replica=3, purpose=2)
        a = s.normals(11, (4, 5))
        b = s.normals(11, (4, 5))
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        base = NoiseStream(7)
        draws = [base.normals(0, (8,)),
                 base.with_replica(1).normals(0, (8,)),
                 base.with_purpose(1).normals(0, (8,)),
                 base.normals(1, (8,))]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j])

    def test_shape_independent_prefix(self):
        # a longer request extends, never reshuffles, the short one
        s = NoiseStream(42)
        short = s.normals(0, (6,))
        long = s.normals(0, (12,))
        np.testing.assert_array_equal(long[:6], short)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseStream(-1)
        with pytest.raises(ValueError):
            NoiseStream(2 ** 64)
        with pytest.raises(ValueError):
            NoiseStream(3, replica=-1)
        with pytest.raises(ValueError):
            NoiseStream(3).normals(-1, (2,))


class TestStationaryLaw:
    def test_mode_variance_within_4se(self):
        nu, eps, n = 1.0, 0.5, 16
        reps = 4000
        psi = stationary_samples([OperatorSpec(nu, eps)], 1, n,
                                 NoiseStream(0), reps)[:, 0, 0, :]
        sq = np.abs(psi) ** 2
        mean = sq.mean(axis=0)
        se = sq.std(axis=0, ddof=1) / math.sqrt(reps)
        for k in range(n + 1):
            target = 1.0 / rates(nu, eps, k)
            assert abs(mean[k] - target) <= 4.0 * se[k], (k, mean[k], target)

    def test_cross_level_covariance_vs_quadrature(self):
        # shared forcing gives E psi_i conj(psi_j) = 2 int_0^inf
        # e^{-(a_i+a_j)s} ds; check the sampler against that oracle
        nu, n, reps = 1.0, 4, 20000
        levels = [OperatorSpec(nu, 0.5), OperatorSpec(nu, 0.0)]
        psi = stationary_samples(levels, 1, n, NoiseStream(1), reps)
        for k in (1, 3):
            a_i = rates(nu, 0.5, k)
            a_j = rates(nu, 0.0, k)
            # truncation at 40 e-foldings leaves a tail below 1e-17
            upper = 40.0 / (a_i + a_j)
            oracle, err = quad(lambda s: 2.0 * math.exp(-(a_i + a_j) * s),
                               0.0, upper, epsabs=1e-13, epsrel=1e-12)
            assert err < 1e-10
            prod = psi[:, 0, 0, k] * np.conj(psi[:, 1, 0, k])
            se = prod.real.std(ddof=1) / math.sqrt(reps)
            assert abs(prod.real.mean() - oracle) <= 4.0 * se
            se_im = prod.imag.std(ddof=1) / math.sqrt(reps)
            assert abs(prod.imag.mean()) <= 4.0 * se_im

    def test_phase_symmetry(self):
        # rotation invariance of complex modes: E psi_k^2 = 0 for k >= 1
        psi = stationary_samples([OperatorSpec(1.0, 0.25)], 1, 8,
                                 NoiseStream(2), 20000)[:, 0, 0, :]
        for k in (1, 4, 8):
            w2 = psi[:, k] ** 2
            for part in (w2.real, w2.imag):
                se = part.std(ddof=1) / math.sqrt(part.size)
                assert abs(part.mean()) <= 4.0 * se

    def test_sobolev_moment_scaling(self):
        # E ||psi^eps||_1^2 = sum_k w_k / a_k^eps grows like 1/eps, so the
        # log-log slope against eps sits near -1
        nu, alpha = 1.0, 1.0
        eps_grid = [2.0 ** -j for j in range(2, 7)]
        means = []
        for i, eps in enumerate(eps_grid):
            n = int(8 / eps)
            psi = stationary_samples([OperatorSpec(nu, eps)], 1, n,
                                     NoiseStream(3).with_replica(i),
                                     100)[:, 0, 0, :]
            k = np.arange(n + 1, dtype=np.float64)
            w = (1.0 + nu * k * k) ** alpha
            w[1:] *= 2.0
            means.append(float(np.mean(np.abs(psi) ** 2 @ w)))
        slope = np.polyfit(np.log(eps_grid), np.log(means), 1)[0]
        assert abs(slope + 1.0) <= 0.15, slope


class TestCoupledStepping:
    def test_step_keeps_stationary_covariance(self):
        # algebraic check on the per-level factors: the joint covariance C
        # of mode k over all levels (duplicates included) satisfies
        # d C d + Cov_h = C with d = decay[:, k]
        levels = (OperatorSpec(1.0, 0.5), OperatorSpec(1.0, 0.5),
                  OperatorSpec(1.0, 0.0))
        f = _LevelFactors(levels, 6)
        decay, step_factor = f.step_factors(0.37)
        stat = f.stationary_factor @ np.swapaxes(f.stationary_factor, 1, 2)
        stepc = step_factor @ np.swapaxes(step_factor, 1, 2)
        d = decay.T  # (mode, level)
        lhs = d[:, :, None] * stat * d[:, None, :] + stepc
        np.testing.assert_allclose(lhs, stat, rtol=1e-12)
        # the duplicated level has the same row and column as its twin
        np.testing.assert_array_equal(stat[:, 0], stat[:, 1])

    def test_large_h_forgets_initial_state(self):
        levels = (OperatorSpec(1.0, 0.5),)
        f = _LevelFactors(levels, 4)
        decay, step_factor = f.step_factors(50.0)
        assert np.max(decay) < 1e-20
        stepc = step_factor @ np.swapaxes(step_factor, 1, 2)
        stat = f.stationary_factor @ np.swapaxes(f.stationary_factor, 1, 2)
        np.testing.assert_allclose(stepc, stat, rtol=1e-12)

    def test_lag_autocovariance_within_4se(self):
        # E psi(t+h) conj(psi(t)) = e^{-a h} / a in stationarity
        nu, eps, h, n, reps = 1.0, 0.5, 0.2, 4, 3000
        prods = np.empty((reps, n + 1), dtype=np.complex128)
        for r in range(reps):
            state = sample_stationary([OperatorSpec(nu, eps)], 1, n,
                                      NoiseStream(4, replica=r))
            before = state.psi[0, 0].copy()
            after = step_coupled(state, h).psi[0, 0]
            prods[r] = after * np.conj(before)
        for k in range(n + 1):
            a = rates(nu, eps, k)
            target = math.exp(-a * h) / a
            se = prods[:, k].real.std(ddof=1) / math.sqrt(reps)
            assert abs(prods[:, k].real.mean() - target) <= 4.0 * se, k

    def test_duplicate_levels_bitwise_identical(self):
        op = OperatorSpec(1.0, 0.25)
        state = sample_stationary([op, op, OperatorSpec(1.0, 0.0)], 2, 8,
                                  NoiseStream(5))
        np.testing.assert_array_equal(state.psi[0], state.psi[1])
        for _ in range(5):
            state = step_coupled(state, 0.05)
        np.testing.assert_array_equal(state.psi[0], state.psi[1])
        assert not np.array_equal(state.psi[0], state.psi[2])

    def test_mode_zero_shared_by_all_levels(self):
        # every symbol equals -1 at k = 0, so the k = 0 process is common
        state = sample_stationary([OperatorSpec(1.0, 0.5),
                                   OperatorSpec(1.0, 0.0)], 1, 6,
                                  NoiseStream(6))
        state = step_coupled(state, 0.1)
        assert state.psi[0, 0, 0] == state.psi[1, 0, 0]
        assert state.psi[0, 0, 0].imag == 0.0

    def test_step_is_functional(self):
        state = sample_stationary([OperatorSpec(1.0, 0.5)], 1, 4,
                                  NoiseStream(7))
        before = state.psi.copy()
        nxt = step_coupled(state, 0.1)
        np.testing.assert_array_equal(state.psi, before)
        assert state.step == 0
        assert nxt.step == 1

    def test_replay_determinism(self):
        def run():
            state = sample_stationary([OperatorSpec(1.0, 0.5)], 1, 6,
                                      NoiseStream(8))
            for _ in range(3):
                state = step_coupled(state, 0.05)
            return state.psi

        np.testing.assert_array_equal(run(), run())

    def test_nonpositive_h_rejected(self):
        state = sample_stationary([OperatorSpec(1.0, 0.5)], 1, 4,
                                  NoiseStream(9))
        with pytest.raises(ValueError):
            step_coupled(state, 0.0)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            sample_stationary([], 1, 4, NoiseStream(10))
        with pytest.raises(ValueError):
            sample_stationary([OperatorSpec(1.0, 0.5), OperatorSpec(2.0, 0.5)],
                              1, 4, NoiseStream(10))

    def test_state_accessors(self):
        state = sample_stationary([OperatorSpec(1.0, 0.5),
                                   OperatorSpec(1.0, 0.0)], 2, 5,
                                  NoiseStream(11))
        assert state.factors.level_index(0.5) == 0
        assert state.factors.level_index(0.0) == 1
        with pytest.raises(ValueError):
            state.factors.level_index(0.3)
        field = SpectralField(2, 5, state.psi[0])
        assert field.n_components == 2 and field.max_mode == 5
        field.coeffs[0, 1] = 99.0
        assert state.psi[0, 0, 1] != 99.0


def loop_dedup(rates: np.ndarray):
    """Reference deduplication: np.unique on each mode's rates in turn."""
    m, n_modes = rates.shape
    unique = np.ones((n_modes, m))
    inverse = np.zeros((n_modes, m), dtype=np.intp)
    counts = np.zeros(n_modes, dtype=np.intp)
    for k in range(n_modes):
        vals, inv = np.unique(rates[:, k], return_inverse=True)
        counts[k] = vals.size
        unique[k, : vals.size] = vals
        inverse[k] = inv
    return unique, inverse, counts


class TestLevelDedup:
    @pytest.mark.parametrize("max_mode", [0, 1, 7, 64])
    @pytest.mark.parametrize("eps", [(0.5,), (0.25, 0.25), (0.5, 0.0),
                                     (0.0, 0.5), (0.5, 0.0, 0.5, 0.25)])
    def test_matches_per_mode_unique(self, max_mode, eps):
        factors = _LevelFactors(tuple(OperatorSpec(1.0, e) for e in eps),
                                max_mode)
        unique, inverse, counts = loop_dedup(factors.rates)
        assert np.array_equal(factors.unique, unique)
        assert np.array_equal(factors.inverse, inverse)
        assert np.array_equal(factors.counts, counts)


def unique_factor_colored(f: _LevelFactors, factor: np.ndarray,
                          z: np.ndarray) -> np.ndarray:
    """The colouring before per-level factors, kept as an oracle: colour z
    with the unique-rate factor, then expand its rows to the levels by
    take_along_axis and assemble re + 1j * im."""
    mixed = np.einsum("kuv,...kcjv->...kcju", factor, z)
    idx = np.broadcast_to(f.inverse[:, None, None, :], mixed.shape)
    expanded = np.take_along_axis(mixed, idx, axis=-1)
    re = expanded[..., 0, :]
    im = expanded[..., 1, :].copy()
    im[..., 0, :, :] = 0.0
    return np.moveaxis(re + 1j * im, (-3, -2, -1), (-1, -2, -3))


def assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))


class TestReplicaBlockNoise:
    """A block's noise is one stacked array; each row must be the lone
    state of its stream, bit for bit."""

    # an exact duplicate level, and k = 0 where every level coincides
    LEVELS = (OperatorSpec(1.0, 0.5), OperatorSpec(1.0, 0.5),
              OperatorSpec(1.0, 0.0))

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_block_equals_lone_states(self, replicas):
        streams = [NoiseStream(13, replica=r) for r in range(replicas)]
        factors, psi = sample_replicas(self.LEVELS, 2, 9, streams)
        states = [sample_stationary(self.LEVELS, 2, 9, s) for s in streams]
        assert psi.shape == (replicas, 3, 2, 10)
        for step in range(6):
            if step:
                psi = step_replicas(factors, streams, step - 1, psi, 0.05)
                states = [step_coupled(s, 0.05) for s in states]
            for row, state in zip(psi, states):
                assert_bitwise(row, state.psi)

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_colouring_equals_unique_factor_oracle(self, replicas):
        f = _LevelFactors(self.LEVELS, 9)
        z = NoiseStream(14).normals(0, (replicas, 10, 2, 2, 3))
        for cov, factor in ((f._covariance(), f.stationary_factor),
                            (f._covariance(0.05), f.step_factors(0.05)[1])):
            want = unique_factor_colored(f, np.linalg.cholesky(cov), z)
            assert_bitwise(f.colored(factor, z), want)

    def test_stacked_draw_equals_separate_draws(self):
        streams = [NoiseStream(16, replica=r) for r in range(3)]
        shape = (33, 1, 2, 2)
        want = np.stack([s.with_purpose(PURPOSE_OU_STEP).normals(4, shape)
                         for s in streams])
        out = np.full((3, *shape), np.nan)
        assert _stacked_normals(streams, PURPOSE_OU_STEP, 4, shape, out) \
            is out
        assert (out == want).all()
        assert (_stacked_normals(streams, PURPOSE_OU_STEP, 4, shape)
                == want).all()

    def test_block_path_equals_allocating_step(self):
        # the in-place step on a workspace against the step that drew each
        # stream's normals, stacked them, coloured them into a fresh array
        # and added the decayed state to it
        streams = [NoiseStream(17, replica=r) for r in range(3)]
        factors, psi = sample_replicas(self.LEVELS, 2, 9, streams)
        want = psi.copy()
        decay, factor = factors.step_factors(0.05)
        work = Workspace()
        for step in range(10):
            z = np.stack([s.with_purpose(PURPOSE_OU_STEP).normals(
                step + 1, (10, 2, 2, 3)) for s in streams])
            nxt = factors.colored(factor, z)
            nxt += decay[:, None, :] * want
            want = nxt
            assert step_replicas(factors, streams, step, psi, 0.05,
                                 work) is psi
            assert_bitwise(psi, want)

    def test_later_steps_allocate_no_block(self):
        # 4 replicas x 2 levels x 20,001 modes: the normals and the state
        # are 2.5 MB each.  After the first step has filled the workspace,
        # a step's traced memory may rise by no more than numpy's ufunc
        # buffers (128 KiB here) and the streams' generators.
        levels = (OperatorSpec(1.0, 0.5), OperatorSpec(1.0, 0.0))
        streams = [NoiseStream(18, replica=r) for r in range(4)]
        factors, psi = sample_replicas(levels, 1, 20000, streams)
        work = Workspace()
        step_replicas(factors, streams, 0, psi, 0.05, work)
        tracemalloc.start()
        try:
            for step in range(1, 4):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                step_replicas(factors, streams, step, psi, 0.05, work)
                rise = tracemalloc.get_traced_memory()[1] - before
                assert rise < psi.nbytes // 8
        finally:
            tracemalloc.stop()

    def test_step_is_one_einsum_without_fancy_indexing(self, monkeypatch):
        streams = [NoiseStream(15, replica=r) for r in range(3)]
        factors, psi = sample_replicas(self.LEVELS, 2, 9, streams)
        psi = step_replicas(factors, streams, 0, psi, 0.05)  # builds factors
        calls = []
        real = np.einsum

        def einsum(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("fancy indexing in the noise step")

        monkeypatch.setattr(np, "einsum", einsum)
        monkeypatch.setattr(np, "take_along_axis", forbidden)
        for step in range(1, 6):
            psi = step_replicas(factors, streams, step, psi, 0.05)
        assert len(calls) == 5


class TestPsiDiffMoment:
    def test_pinned_value(self):
        # nu = 1, eps = 1, k = 1: 1/3 + 1/2 - 4/5 = 1/30
        assert psi_diff_moment(1.0, 1.0, 1) == pytest.approx(1.0 / 30.0,
                                                             abs=1e-15)

    def test_vanishes_at_eps_zero_and_mode_zero(self):
        assert psi_diff_moment(1.0, 0.0, 5) == 0.0
        assert psi_diff_moment(1.0, 0.7, 0) == 0.0

    def test_quadrature_oracle(self):
        # shared forcing: E|psi^eps_k - psi^0_k|^2
        #   = 2 int_0^inf (e^{-a_eps s} - e^{-a_0 s})^2 ds
        for nu, eps, k in ((1.0, 1.0, 1), (1.0, 0.25, 3), (0.5, 0.6, 2)):
            a_e = rates(nu, eps, k)
            a_0 = rates(nu, 0.0, k)
            upper = 20.0 / min(a_e, a_0)
            oracle, err = quad(
                lambda s: 2.0 * (math.exp(-a_e * s) - math.exp(-a_0 * s)) ** 2,
                0.0, upper, epsabs=1e-13, epsrel=1e-12)
            assert err < 1e-10
            assert psi_diff_moment(nu, eps, k) == pytest.approx(oracle,
                                                                abs=1e-10)

    def test_matches_sampler_within_4se(self):
        nu, eps, n, reps = 1.0, 0.5, 8, 20000
        psi = stationary_samples([OperatorSpec(nu, eps), OperatorSpec(nu, 0.0)],
                                 1, n, NoiseStream(12), reps)
        for k in (1, 2, 4):
            d = np.abs(psi[:, 0, 0, k] - psi[:, 1, 0, k]) ** 2
            se = d.std(ddof=1) / math.sqrt(reps)
            assert abs(d.mean() - psi_diff_moment(nu, eps, k)) <= 4.0 * se, k

    def test_two_scale_bound(self):
        # psi_diff_moment <= C(nu) min(k^{-2}, eps^4 k^2); the k^{-2} branch
        # carries 1/nu and the eps^4 k^2 branch 1/(2 nu^3), so C(nu) =
        # 1.1 max(1/nu, 1/(2 nu^3)) with the 1.1 frozen from a calibration
        # sweep (max observed ratio 1.000 at nu = 1)
        for nu in (0.5, 1.0, 2.0):
            c = 1.1 * max(1.0 / nu, 1.0 / (2.0 * nu ** 3))
            for eps in np.logspace(-3, 0, 13):
                for k in (1, 2, 4, 8, 32, 128, 512, 2048):
                    bound = c * min(k ** -2.0, eps ** 4 * k ** 2.0)
                    assert psi_diff_moment(nu, eps, k) <= bound, (nu, eps, k)
