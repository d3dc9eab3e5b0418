"""Tests for the coupled stationary noise engine."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from spdelab import (CoupledOUState, NoiseStream, OperatorSpec,
                     psi_diff_moment, sample_stationary, stationary_samples,
                     step_coupled, symbols)
from spdelab.noise import _LevelFactors


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
        # algebraic check on the factor matrices: decay C decay + Cov_h = C
        levels = (OperatorSpec(1.0, 0.5), OperatorSpec(1.0, 0.0))
        f = _LevelFactors(levels, 6)
        h = 0.37
        decay, step_factor = f.step_factors(h)
        stat = f.stationary_factor @ np.swapaxes(f.stationary_factor, 1, 2)
        stepc = step_factor @ np.swapaxes(step_factor, 1, 2)
        for k in range(7):
            m = f.counts[k]
            d = np.exp(-f.unique[k, :m] * h)
            lhs = d[:, None] * stat[k, :m, :m] * d[None, :] + stepc[k, :m, :m]
            np.testing.assert_allclose(lhs, stat[k, :m, :m], rtol=1e-12)

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
        assert state.t == 0.0 and state.step == 0
        assert nxt.t == pytest.approx(0.1) and nxt.step == 1

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
        assert state.level_index(0.5) == 0
        assert state.level_index(0.0) == 1
        with pytest.raises(ValueError):
            state.level_index(0.3)
        field = state.psi_field(0)
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
