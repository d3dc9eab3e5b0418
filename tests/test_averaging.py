"""Tests for the single-time averaging diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest

from spdelab import (NoiseStream, RunConfig, SpectralField, compute_phi,
                     deterministic_profile, run_averaging_study, sample_w)
from spdelab.averaging import (ModeEnsemble, _w_batch, coefficients_to_field,
                               compute_phi_tilde, level_terms, replica_norms)
from spdelab.constants import sigma_mode
from spdelab.noise import PURPOSE_MODE_SET, PURPOSE_MODE_SET_INDEP
from spdelab.spectral import fast_grid_size, sobolev_norm

TWO_PI = 2.0 * math.pi


def profile(max_mode: int, coeffs: dict[int, complex]) -> SpectralField:
    c = np.zeros((1, max_mode + 1), dtype=np.complex128)
    for k, v in coeffs.items():
        c[0, k] = v
    return SpectralField(1, max_mode, c)


def full_sequence(modes: np.ndarray) -> np.ndarray:
    """Hermitian sequence over modes -N..N from its modes 0..N."""
    return np.concatenate([np.conj(modes[1:][::-1]), modes])


def brute_force_triple_sum(a: np.ndarray, b: np.ndarray,
                           c: np.ndarray) -> np.ndarray:
    """O(N^3) direct (1/2 pi) sum_{k+l+m=n} a_k b_l c_m over |n| <= N."""
    n = (a.shape[0] - 1) // 2
    out = np.zeros(2 * n + 1, dtype=np.complex128)
    for target in range(-n, n + 1):
        acc = 0.0 + 0.0j
        for k in range(-n, n + 1):
            for l in range(-n, n + 1):
                m = target - k - l
                if -n <= m <= n:
                    acc += a[k + n] * b[l + n] * c[m + n]
        out[target + n] = acc / TWO_PI
    return out


def brute_force_phi(v: SpectralField, w: ModeEnsemble) -> np.ndarray:
    """O(N^3) direct triple sum over k + l + m = n, minus the centering."""
    vfull = full_sequence(v.coeffs[0])
    return (brute_force_triple_sum(w.w, w.w, vfull)
            - vfull / (2.0 * w.eps * math.sqrt(w.nu)))


def brute_force_phi_tilde(v: SpectralField, w: ModeEnsemble,
                          w_tilde: ModeEnsemble) -> np.ndarray:
    """O(N^3) direct triple sum with the independent copy; no centering."""
    return brute_force_triple_sum(w.w, w_tilde.w, full_sequence(v.coeffs[0]))


def random_modes(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random modes 0..N of a real field (mode 0 real)."""
    modes = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    modes[0] = modes[0].real
    return modes


def top_modes(n: int, value: complex) -> np.ndarray:
    """Modes 0..N with only mode N (and, implied, -N) set."""
    modes = np.zeros(n + 1, dtype=np.complex128)
    modes[n] = value
    return modes


def ensemble(modes: np.ndarray) -> ModeEnsemble:
    return ModeEnsemble(1.0, 0.5, modes.shape[0] - 1, full_sequence(modes))


class TestSigmaMode:
    def test_values(self):
        assert sigma_mode(1.0, 1.0, 0) == 0.0
        assert sigma_mode(1.0, 1.0, 1) == pytest.approx(1.0 / 3.0)
        assert sigma_mode(2.0, 0.5, 2) == pytest.approx(4.0 / (1 + 8 + 4))

    def test_vectorized_and_even(self):
        k = np.array([-3, -1, 0, 1, 3])
        s = sigma_mode(1.0, 0.5, k)
        np.testing.assert_allclose(s, s[::-1])
        assert s.shape == (5,)


class TestModeSampling:
    def test_structure(self):
        w = sample_w(1.0, 0.5, 16, NoiseStream(0))
        n = 16
        assert w.w[n] == 0.0
        np.testing.assert_allclose(w.w[:n][::-1], np.conj(w.w[n + 1:]))

    def test_determinism_and_replica_separation(self):
        a = sample_w(1.0, 0.5, 8, NoiseStream(3, replica=2))
        b = sample_w(1.0, 0.5, 8, NoiseStream(3, replica=2))
        c = sample_w(1.0, 0.5, 8, NoiseStream(3, replica=4))
        np.testing.assert_array_equal(a.w, b.w)
        assert not np.array_equal(a.w, c.w)

    def test_variances_within_4se(self):
        nu, eps, n, reps = 1.0, 0.5, 12, 6000
        w = _w_batch(nu, eps, n, NoiseStream(1), reps, PURPOSE_MODE_SET)
        sq = np.abs(w[:, n + 1:]) ** 2
        se = sq.std(axis=0, ddof=1) / math.sqrt(reps)
        sig = sigma_mode(nu, eps, np.arange(1, n + 1))
        np.testing.assert_array_less(np.abs(sq.mean(axis=0) - sig), 4.0 * se)

    def test_phase_symmetry(self):
        w = _w_batch(1.0, 0.5, 8, NoiseStream(2), 6000, PURPOSE_MODE_SET)
        w2 = w[:, 8 + 3] ** 2
        for part in (w2.real, w2.imag):
            se = part.std(ddof=1) / math.sqrt(part.size)
            assert abs(part.mean()) <= 4.0 * se

    def test_copies_are_independent_streams(self):
        s = NoiseStream(4)
        a = _w_batch(1.0, 0.5, 8, s, 1, PURPOSE_MODE_SET)
        b = _w_batch(1.0, 0.5, 8, s, 1, PURPOSE_MODE_SET_INDEP)
        assert not np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_w(0.0, 0.5, 8, NoiseStream(0))
        with pytest.raises(ValueError):
            sample_w(1.0, 0.0, 8, NoiseStream(0))
        with pytest.raises(ValueError):
            sample_w(1.0, 0.5, 0, NoiseStream(0))
        with pytest.raises(ValueError):
            ModeEnsemble(1.0, 0.5, 4, np.zeros(7, dtype=np.complex128))
        lopsided = np.zeros(9, dtype=np.complex128)
        lopsided[6] = 1.0  # mode 2 without its conjugate at mode -2
        with pytest.raises(ValueError):
            ModeEnsemble(1.0, 0.5, 4, lopsided)


class TestComputePhi:
    def test_zero_modes_leave_centering_term(self):
        n = 6
        v = profile(n, {0: 0.5, 1: 0.2 - 0.1j, 3: 0.05})
        w = ModeEnsemble(1.0, 0.25, n, np.zeros(2 * n + 1,
                                                dtype=np.complex128))
        centering = full_sequence(v.coeffs[0]) / (2.0 * 0.25 * 1.0)
        np.testing.assert_allclose(compute_phi(v, w), -centering, atol=1e-14)

    def test_zero_profile_gives_zero(self):
        n = 6
        w = sample_w(1.0, 0.5, n, NoiseStream(5))
        phi = compute_phi(profile(n, {}), w)
        np.testing.assert_allclose(phi, 0.0, atol=1e-14)

    def test_linear_in_profile(self):
        n = 8
        w = sample_w(1.0, 0.5, n, NoiseStream(6))
        v1 = profile(n, {0: 0.3, 1: 0.2 + 0.1j, 4: -0.07})
        v2 = profile(n, {0: -0.1, 2: 0.25j, 3: 0.4})
        combo = SpectralField(1, n, v1.coeffs * 1.7 + v2.coeffs * (-0.6))
        lhs = compute_phi(combo, w)
        rhs = 1.7 * compute_phi(v1, w) - 0.6 * compute_phi(v2, w)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_brute_force_oracle(self):
        n = 6
        w = sample_w(1.0, 0.5, n, NoiseStream(7))
        v = profile(n, {0: 0.4, 1: 0.3 - 0.2j, 2: 0.1j, 5: -0.05})
        np.testing.assert_allclose(compute_phi(v, w), brute_force_phi(v, w),
                                   atol=1e-10)

    def test_phi_tilde_brute_force_oracle(self):
        n = 6
        w = sample_w(1.0, 0.5, n, NoiseStream(8))
        wt = ModeEnsemble(1.0, 0.5, n, _w_batch(
            1.0, 0.5, n, NoiseStream(8), 1, PURPOSE_MODE_SET_INDEP)[0])
        v = profile(n, {0: 0.4, 1: 0.3 - 0.2j, 4: 0.15})
        np.testing.assert_allclose(compute_phi_tilde(v, w, wt),
                                   brute_force_phi_tilde(v, w, wt), atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 7, 13, 40])
    @pytest.mark.parametrize("case", ["random", "top_mode"])
    def test_triple_sum_oracle_at_aliasing_edge(self, n, case):
        # the product w w v carries modes up to 3N; on a grid of fewer than
        # 4N+1 points they wrap into |n| <= N, and the top-mode-only case
        # puts all its weight exactly there (modes +-N and +-3N)
        rng = np.random.default_rng(n)
        if case == "random":
            w, wt, v = (random_modes(n, rng) for _ in range(3))
        else:
            w, wt, v = (top_modes(n, c) for c in (1.0 - 0.5j, 0.3 + 2.0j,
                                                  -0.7 + 0.4j))
        w, wt = ensemble(w), ensemble(wt)
        v = SpectralField(1, n, v[None, :])
        np.testing.assert_allclose(compute_phi(v, w), brute_force_phi(v, w),
                                   rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(compute_phi_tilde(v, w, wt),
                                   brute_force_phi_tilde(v, w, wt),
                                   rtol=0.0, atol=1e-10)

    def test_output_is_hermitian(self):
        n = 10
        w = sample_w(1.0, 0.25, n, NoiseStream(9))
        v = deterministic_profile(n, 0.75, 1.0)
        phi = compute_phi(v, w)
        field = coefficients_to_field(phi)
        assert field.max_mode == n
        np.testing.assert_allclose(field.coeffs[0], phi[n:], atol=1e-12)

    def test_centering_mean_oracle(self):
        # E phi_n = v_n ((1/2pi) sum_k sigma_k - 1/(2 eps sqrt(nu))): the
        # quadratic term pairs only k = -l, so the empirical mean must match
        # this deterministic value within 4 SE
        nu, eps, n, reps = 1.0, 0.5, 32, 2000
        v = profile(n, {0: 0.5, 1: 0.3, 2: 0.2 - 0.1j})
        ws = _w_batch(nu, eps, n, NoiseStream(10), reps, PURPOSE_MODE_SET)
        ks = np.arange(-n, n + 1)
        bias = (float(np.sum(sigma_mode(nu, eps, ks))) / TWO_PI
                - 1.0 / (2.0 * eps * math.sqrt(nu)))
        samples = np.stack([
            compute_phi(v, ModeEnsemble(nu, eps, n, ws[r]))
            for r in range(reps)])
        vfull = full_sequence(v.coeffs[0])
        for idx in (n, n + 1, n + 2):
            for part in ("real", "imag"):
                vals = getattr(samples[:, idx], part)
                se = vals.std(ddof=1) / math.sqrt(reps)
                target = getattr(vfull[idx] * bias, part)
                # the floor absorbs parts that are identically zero up to
                # FFT roundoff, where 4 SE degenerates
                assert abs(vals.mean() - target) <= 4.0 * se + 1e-12, \
                    (idx, part)

    def test_phi_tilde_mean_is_zero(self):
        nu, eps, n, reps = 1.0, 0.5, 16, 2000
        v = profile(n, {0: 0.5, 1: 0.3})
        s = NoiseStream(11)
        ws = _w_batch(nu, eps, n, s, reps, PURPOSE_MODE_SET)
        wts = _w_batch(nu, eps, n, s, reps, PURPOSE_MODE_SET_INDEP)
        samples = np.stack([
            compute_phi_tilde(v, ModeEnsemble(nu, eps, n, ws[r]),
                              ModeEnsemble(nu, eps, n, wts[r]))
            for r in range(reps)])
        for idx in (n, n + 1):
            vals = samples[:, idx].real
            se = vals.std(ddof=1) / math.sqrt(reps)
            assert abs(vals.mean()) <= 4.0 * se

    def test_mismatched_cutoffs_rejected(self):
        w = sample_w(1.0, 0.5, 6, NoiseStream(12))
        with pytest.raises(ValueError):
            compute_phi(profile(8, {1: 0.1}), w)
        wt = sample_w(1.0, 0.5, 8, NoiseStream(12))
        with pytest.raises(ValueError):
            compute_phi_tilde(profile(6, {1: 0.1}), w, wt)
        wt_other = ModeEnsemble(2.0, 0.5, 6,
                                np.zeros(13, dtype=np.complex128))
        with pytest.raises(ValueError):
            compute_phi_tilde(profile(6, {1: 0.1}), w, wt_other)

    def test_non_hermitian_sequence_rejected(self):
        seq = np.zeros(13, dtype=np.complex128)
        seq[8] = 1.0  # positive mode without its mirror
        with pytest.raises(ValueError):
            coefficients_to_field(seq)
        with pytest.raises(ValueError):
            coefficients_to_field(np.zeros(12, dtype=np.complex128))


class TestDeterministicProfile:
    def test_unit_alpha_norm(self):
        for n in (16, 64):
            v = deterministic_profile(n, 0.75, 1.0)
            assert sobolev_norm(v.coeffs, 0.75, 1.0) == pytest.approx(
                1.0, rel=1e-12)

    def test_decay_shape(self):
        v = deterministic_profile(32, 0.75, 1.0)
        ratio = v.coeffs[0, 4].real / v.coeffs[0, 2].real
        assert ratio == pytest.approx((1.0 + 4.0) / (1.0 + 16.0), rel=1e-12)


class TestReplicaNorms:
    """The study's per-replica kernel against the public phi functions."""

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 4096])
    def test_bits_equal_compute_phi_norms(self, n):
        # N = 1 and 2 put the grid at exactly 4N+1 points, the no-alias edge
        nu, eps, gamma = 0.7, 0.3, 0.75
        streams = [NoiseStream(5, replica=r) for r in range(3)]
        got = replica_norms(nu, gamma, *level_terms(nu, eps, 0.75, n), streams)
        v = deterministic_profile(n, 0.75, nu)
        want = []
        for sub in streams:
            w = sample_w(nu, eps, n, sub)
            wt = ModeEnsemble(nu, eps, n, _w_batch(
                nu, eps, n, sub, 1, PURPOSE_MODE_SET_INDEP)[0])
            want.append(tuple(
                float(sobolev_norm(seq[n:][None], -gamma, nu))
                for seq in (compute_phi(v, w), compute_phi_tilde(v, w, wt))))
        assert [tuple(row) for row in np.transpose(got).tolist()] == want

    def test_replicas_hold_at_most_four_grids(self):
        # the working set that every thread reuses from replica to
        # replica: w, w_tilde and the products' spectrum, whose head holds
        # the modes 0..N being drawn, plus a norm's quarter-grid
        # temporaries, read 3.76 grids.  A separate half-grid of modes, or
        # a grid more, goes past 4.
        nu, eps, n = 1.0, 0.01, 2 ** 14
        args = level_terms(nu, eps, 0.75, n)
        streams = [NoiseStream(3, replica=r) for r in range(2)]
        replica_norms(nu, 0.75, *args, streams)  # first-call set-up
        tracemalloc.start()
        try:
            replica_norms(nu, 0.75, *args, streams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * fast_grid_size(4 * n + 1) * 8, peak


def averaging_cfg(eps_grid, replicas: int, seed: int, **kw) -> RunConfig:
    return RunConfig(study="averaging", eps_grid=tuple(eps_grid),
                     replicas=replicas, seed=seed, **kw)


class TestTailExperiment:
    """The tail-scaling experiment, run as the averaging study."""

    def test_scaling_window_on_working_grid(self):
        # eps * median ||phi||_{-gamma} and the phi_tilde version both scale
        # like eps^{1/2}; window [0.35, 0.65] on the 2^-2..2^-7 grid
        eps_grid = [2.0 ** -j for j in range(2, 8)]
        report = run_averaging_study(averaging_cfg(eps_grid, 200, 1))
        assert 0.35 <= report.slope_phi.slope <= 0.65, report.slope_phi
        # phi_tilde is still pre-asymptotic on this shallow grid (slope
        # rises into the window on 2^-4..2^-9, covered by the acceptance
        # suite); only its direction is checked here
        assert report.slope_phi_tilde.slope >= 0.25, report.slope_phi_tilde
        assert report.max_modes == tuple(
            int(math.ceil(8.0 / e ** 1.5)) for e in eps_grid)
        assert report.eps == tuple(eps_grid)
        assert report.replicas == 200
        for med, q90 in ((report.median_phi, report.q90_phi),
                         (report.median_phi_tilde, report.q90_phi_tilde)):
            assert all(m <= q for m, q in zip(med, q90))

    def test_deterministic_given_stream(self):
        cfg = averaging_cfg([0.5, 0.35, 0.25], 8, 2)
        a = run_averaging_study(cfg)
        b = run_averaging_study(cfg)
        assert a.median_phi == b.median_phi
        assert a.slope_phi.slope == b.slope_phi.slope

    def test_matches_direct_convolution(self, split_blocks):
        # every replica recomputed from its own draws by np.convolve (no
        # FFT, no shared grid): a v or w grid, scale or centring that went
        # stale across replicas, blocks or eps levels would move the
        # quantiles.  Each level is split over two threads, which share
        # the level's terms.
        nu, gamma, alpha, reps = 1.0, 0.75, 0.75, 6
        eps_grid = [0.5, 0.35, 0.25]
        report, levels = split_blocks(2, lambda: run_averaging_study(
            averaging_cfg(eps_grid, reps, 4, workers=2)))
        assert levels == len(eps_grid)
        for i, eps in enumerate(eps_grid):
            n = report.max_modes[i]
            k = np.arange(-n, n + 1, dtype=np.float64)
            weight = (1.0 + nu * k * k) ** -gamma
            center = slice(2 * n, 4 * n + 1)
            v = deterministic_profile(n, alpha, nu)
            vfull = full_sequence(v.coeffs[0])
            norms_p, norms_t = [], []
            for r in range(reps):
                sub = NoiseStream(4, replica=r)
                w, wt = (_w_batch(nu, eps, n, sub, 1, purpose)[0] for purpose
                         in (PURPOSE_MODE_SET, PURPOSE_MODE_SET_INDEP))
                phi = (np.convolve(np.convolve(w, w), vfull)[center] / TWO_PI
                       - vfull / (2.0 * eps * math.sqrt(nu)))
                phit = np.convolve(np.convolve(w, wt), vfull)[center] / TWO_PI
                norms_p.append(math.sqrt(np.sum(weight * np.abs(phi) ** 2)))
                norms_t.append(math.sqrt(np.sum(weight * np.abs(phit) ** 2)))
            for got, want in ((report.median_phi[i], np.median(norms_p)),
                              (report.q90_phi[i], np.quantile(norms_p, 0.9)),
                              (report.median_phi_tilde[i],
                               np.median(norms_t))):
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_validation(self):
        grid = [0.5, 0.35, 0.25]
        with pytest.raises(ValueError):
            run_averaging_study(averaging_cfg(grid, 4, 0, gamma=0.5))
        with pytest.raises(ValueError):
            run_averaging_study(averaging_cfg(grid, 4, 0, alpha=0.5))
        with pytest.raises(ValueError):
            run_averaging_study(averaging_cfg(grid, 1, 0))
        with pytest.raises(ValueError):
            averaging_cfg([0.5, -0.25], 4, 0)
