"""Tests for the exponential-Euler integrator and coupled runs."""

import dataclasses
import hashlib
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

import spdelab.integrate as integrate_module
import spdelab.models as models_module
from spdelab import (IntegrationError, ModelSpec, NoiseStream,
                     SimulationConfig, SpectralField, Variant, couple_runs,
                     initial_field, polynomial_model, run_mild,
                     sample_stationary, truncation_matched_constant)
from spdelab.integrate import (Trajectory, coupled_distances,
                               reference_distances, resolve_correction,
                               sup_distance)
from spdelab.linops import (OperatorSpec, apply_semigroup, etd_weights,
                            symbols)
from spdelab.models import drift_grid_size, eval_F_bar, eval_F_eps
from spdelab.noise import psi_diff_moment, sample_replicas, step_coupled
from spdelab.regression import regress_loglog
from spdelab.spectral import ROW_TRANSFORM_POINTS, GridField, sup_norm

ROOT_2PI = math.sqrt(2.0 * math.pi)


def scalar_field(max_mode: int, coeffs: dict[int, complex]) -> SpectralField:
    c = np.zeros((1, max_mode + 1), dtype=np.complex128)
    for k, v in coeffs.items():
        c[0, k] = v
    return SpectralField(1, max_mode, c)


def zero_field(max_mode: int) -> SpectralField:
    return scalar_field(max_mode, {})


def config(**kw) -> SimulationConfig:
    base = dict(max_mode=8, dt=0.05, t_final=0.5)
    base.update(kw)
    return SimulationConfig(**base)


class TestDeterministicRuns:
    def test_constant_forcing_mode_zero_exact(self):
        # F = 1, u0 = 0: mode 0 solves v' = -v + sqrt(2pi) exactly, so
        # v_0(t) = sqrt(2pi)(1 - e^{-t}) at every recorded time and step size
        spec = polynomial_model(1.0)
        for dt in (0.1, 0.05, 0.025):
            traj = run_mild(spec, Variant.PHI_ZERO, 0.0, zero_field(8), None,
                            config(dt=dt, t_final=0.5))
            for t, c in zip(traj.times, traj.coeffs):
                want = ROOT_2PI * (1.0 - math.exp(-t))
                assert c[0, 0] == pytest.approx(want, rel=1e-12,
                                                abs=1e-13), (dt, t)
                np.testing.assert_array_equal(c[0, 1:], 0.0)

    def test_zero_drift_reduces_to_semigroup(self):
        # f = -1 makes F = 1 + f = 0, so the update is pure mode decay
        spec = polynomial_model(1.0, f_coeffs=(-1.0,))
        u0 = scalar_field(8, {0: 0.4, 1: 0.3 - 0.2j, 3: 0.1j})
        traj = run_mild(spec, Variant.PHI_ZERO, 0.0, u0, None, config())
        op = OperatorSpec(1.0, 0.0)
        for t, c in zip(traj.times, traj.coeffs):
            want = apply_semigroup(op, u0, float(t))
            np.testing.assert_allclose(c, want.coeffs, rtol=1e-12,
                                       atol=1e-15)

    def test_first_order_self_convergence(self):
        # affine reaction F = 1 - u is frozen over each step, so the scheme
        # carries an O(dt) error; halving dt should roughly halve it
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0))
        u0 = scalar_field(8, {0: 0.5, 1: 0.4 + 0.2j, 2: -0.3})
        t_final = 0.5

        def final_field(dt: float) -> np.ndarray:
            traj = run_mild(spec, Variant.PHI_ZERO, 0.0, u0, None,
                            config(dt=dt, t_final=t_final))
            return traj.coeffs[-1]

        ref = final_field(0.5e-3)
        errs = [sup_norm(final_field(dt) - ref) for dt in (0.02, 0.01, 0.005)]
        assert errs[0] > errs[1] > errs[2]
        for a, b in zip(errs, errs[1:]):
            assert 1.6 <= a / b <= 2.5, errs

    def test_v_limit_mode_zero_is_neutral(self):
        # unshifted symbol vanishes at k = 0: with G = 0 the mean persists
        spec = polynomial_model(1.0)
        u0 = scalar_field(8, {0: 0.7, 2: 0.2})
        traj = run_mild(spec, Variant.V_LIMIT, 0.0, u0, None, config())
        last = traj.coeffs[-1]
        assert last[0, 0] == pytest.approx(0.7, rel=1e-12)
        # k = 2 decays by exp(-nu k^2 Q(0) t) = exp(-4t) without the shift
        assert last[0, 2] == pytest.approx(
            0.2 * math.exp(-4.0 * 0.5), rel=1e-10)


class TestStochasticRuns:
    def test_compensated_reaction_reproduces_noise_path(self):
        # f = -1 zeroes the drift; with u0 = 0 the solution IS the
        # stochastic convolution, so fields must replay psi exactly
        nu, eps, n = 1.0, 0.5, 6
        spec = polynomial_model(nu, f_coeffs=(-1.0,))
        ops = [OperatorSpec(nu, eps), OperatorSpec(nu, 0.0)]
        cfg = config(max_mode=n, dt=0.05, t_final=0.25)
        noise = sample_stationary(ops, 1, n, NoiseStream(0))
        traj = run_mild(spec, Variant.PHI_EPS, eps, zero_field(n), noise, cfg)
        replay = sample_stationary(ops, 1, n, NoiseStream(0))
        for i, t in enumerate(traj.times):
            np.testing.assert_array_equal(traj.coeffs[i], replay.psi[0, 0])
            if i < len(traj.times) - 1:
                replay = step_coupled(replay, cfg.dt)

    def test_block_run_steps_the_callers_state(self):
        # the core advances the state it is handed: at the i-th yielded
        # time the caller's state sits at step i, and with the drift zeroed
        # and u0 = 0 each channel's u is its level's psi, bit for bit
        nu, eps, n = 1.0, 0.5, 6
        spec = polynomial_model(nu, f_coeffs=(-1.0,))
        cfg = config(max_mode=n, dt=0.05, t_final=0.25)
        streams = [NoiseStream(3, replica=r) for r in range(3)]
        channels, noise = integrate_module._coupled(
            spec, [eps], cfg, streams, "asymptotic")
        assert noise.psi.shape == (3, 2, 1, n + 1)
        times = 0
        for i, (_, u, alive) in enumerate(integrate_module._advance(
                spec, channels, zero_field(n), noise, cfg)):
            assert noise.step == i and alive.all()
            # channels: perturbed (level eps), naive and corrected (level 0)
            for c, level in enumerate((0, 1, 1)):
                assert np.array_equal(u[:, c], noise.psi[:, level])
            times += 1
        assert times == cfg.n_steps + 1

    def test_run_mild_needs_one_replica(self):
        noise = sample_replicas([OperatorSpec(1.0, 0.5)], 1, 4,
                                [NoiseStream(3, replica=r) for r in range(2)])
        with pytest.raises(ValueError, match="one replica"):
            run_mild(polynomial_model(1.0), Variant.PHI_EPS, 0.5,
                     zero_field(4), noise, config(max_mode=4))

    def test_v_eps_noise_enters_with_sqrt_eps(self):
        nu, eps, n = 1.0, 0.25, 6
        spec = polynomial_model(nu)  # G = 0
        ops = [OperatorSpec(nu, eps), OperatorSpec(nu, 0.0)]
        cfg = config(max_mode=n, dt=0.05, t_final=0.2)
        noise = sample_stationary(ops, 1, n, NoiseStream(1))
        traj = run_mild(spec, Variant.V_EPS, eps, zero_field(n), noise, cfg)
        replay = sample_stationary(ops, 1, n, NoiseStream(1))
        for i in range(len(traj.times)):
            np.testing.assert_allclose(traj.coeffs[i],
                                       math.sqrt(eps) * replay.psi[0, 0],
                                       rtol=0.0, atol=1e-15)
            if i < len(traj.times) - 1:
                replay = step_coupled(replay, cfg.dt)

    def test_advanced_state_continues_its_stream(self):
        # run_mild on a state that step_coupled advanced k steps draws its
        # noise from step k of the state's stream on.  With no f, g or h
        # and u0 = 0, V_EPS keeps v = 0 exactly, so u is sqrt(eps) psi
        nu, eps, n, k = 1.0, 0.25, 6, 4
        spec = ModelSpec(n=1, nu=nu)
        cfg = config(max_mode=n, dt=0.05, t_final=0.2)
        chain = [sample_stationary([OperatorSpec(nu, eps)], 1, n,
                                   NoiseStream(5))]
        for _ in range(k + cfg.n_steps):
            chain.append(step_coupled(chain[-1], cfg.dt))
        scaled = [math.sqrt(eps) * state.psi[0, 0] for state in chain]

        def replays_chain(state) -> bool:
            traj = run_mild(spec, Variant.V_EPS, eps, zero_field(n), state,
                            cfg)
            assert len(traj.coeffs) == cfg.n_steps + 1
            return all(np.array_equal(c, scaled[k + j])
                       for j, c in enumerate(traj.coeffs))

        assert chain[k].step == k and replays_chain(chain[k])
        # the same psi on step 0 of the stream draws other innovations
        assert not replays_chain(dataclasses.replace(chain[k], step=0))

    def test_coupled_difference_is_noise_difference_for_pure_forcing(self):
        # no reaction beyond the constant: the perturbed and naive solutions
        # from u0 = 0 differ exactly by psi^eps - psi^0 at every time
        nu, eps, n = 1.0, 0.5, 8
        spec = polynomial_model(nu)
        cfg = config(max_mode=n, dt=0.05, t_final=0.25)
        trajs = couple_runs(spec, [eps], zero_field(n), cfg, NoiseStream(2))
        perturbed, naive, corrected = trajs
        replay = sample_stationary([OperatorSpec(nu, eps),
                                    OperatorSpec(nu, 0.0)], 1, n,
                                   NoiseStream(2))
        for i in range(len(perturbed.times)):
            diff = perturbed.coeffs[i] - naive.coeffs[i]
            np.testing.assert_allclose(
                diff, replay.psi[0, 0] - replay.psi[0, 1], rtol=0.0,
                atol=1e-14)
            if i < len(perturbed.times) - 1:
                replay = step_coupled(replay, cfg.dt)

    def test_coupled_difference_moment_within_4se(self):
        # across replicas the final-time mode difference matches the exact
        # stationary second moment
        nu, eps, n, reps = 1.0, 0.5, 4, 200
        spec = polynomial_model(nu)
        cfg = config(max_mode=n, dt=0.1, t_final=0.2)
        sq = np.empty((reps, n + 1))
        for r in range(reps):
            trajs = couple_runs(spec, [eps], zero_field(n), cfg,
                                NoiseStream(3, replica=r))
            d = trajs[0].coeffs[-1] - trajs[1].coeffs[-1]
            sq[r] = np.abs(d[0]) ** 2
        for k in (1, 2, 4):
            se = sq[:, k].std(ddof=1) / math.sqrt(reps)
            want = psi_diff_moment(nu, eps, k)
            assert abs(sq[:, k].mean() - want) <= 4.0 * se, k

    def test_corrected_equals_naive_without_transport_channels(self):
        # g = h = 0: the correction vanishes, and both limits ride psi^0
        spec = polynomial_model(1.0, f_coeffs=(0.1, -1.0))
        cfg = config(max_mode=6, dt=0.05, t_final=0.25)
        u0 = scalar_field(6, {0: 0.3, 1: 0.2})
        trajs = couple_runs(spec, [0.5], u0, cfg, NoiseStream(4))
        naive, corrected = trajs[1], trajs[2]
        np.testing.assert_array_equal(naive.coeffs, corrected.coeffs)

    def test_correction_constant_changes_corrected_run_only(self):
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0), h_coeffs=(1.0,))
        cfg = config(max_mode=6, dt=0.05, t_final=0.2)
        u0 = scalar_field(6, {1: 0.3})
        a = couple_runs(spec, [0.5], u0, cfg, NoiseStream(5),
                        correction=0.25)
        b = couple_runs(spec, [0.5], u0, cfg, NoiseStream(5),
                        correction=0.5)
        np.testing.assert_array_equal(a[0].coeffs[-1], b[0].coeffs[-1])
        np.testing.assert_array_equal(a[1].coeffs[-1], b[1].coeffs[-1])
        assert not np.array_equal(a[2].coeffs[-1], b[2].coeffs[-1])

    def test_replay_determinism(self):
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0), h_coeffs=(1.0,))
        cfg = config(max_mode=6, dt=0.05, t_final=0.2)
        u0 = scalar_field(6, {1: 0.3})

        def run():
            trajs = couple_runs(spec, [0.5, 0.25], u0, cfg, NoiseStream(6))
            return [t.coeffs[-1] for t in trajs]

        for x, y in zip(run(), run()):
            np.testing.assert_array_equal(x, y)

    def test_run_mild_leaves_its_inputs_untouched(self):
        # the block core steps the psi it is handed in place; run_mild hands
        # it a copy, so the caller's state and initial data keep their bits
        # and a second run from the same state replays the first
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0), h_coeffs=(1.0,))
        cfg = config(max_mode=6, dt=0.05, t_final=0.2)
        u0 = initial_field(1, 6, 1.5, 0.5, NoiseStream(8))
        state = sample_stationary([OperatorSpec(1.0, 0.25),
                                   OperatorSpec(1.0, 0.0)], 1, 6,
                                  NoiseStream(8))
        psi, coeffs = state.psi.copy(), u0.coeffs.copy()
        runs = [run_mild(spec, variant, 0.25, u0, state, cfg)
                for variant in (Variant.PHI_EPS, Variant.PHI_EPS,
                                Variant.PHI_BAR)]
        assert state.psi.tobytes() == psi.tobytes()
        assert u0.coeffs.tobytes() == coeffs.tobytes()
        assert runs[0].coeffs.tobytes() == runs[1].coeffs.tobytes()
        assert not np.array_equal(runs[0].coeffs, runs[2].coeffs)


class TestCensoring:
    def blowup_spec(self) -> ModelSpec:
        # supercritical reaction u^3 with large data blows up quickly
        return polynomial_model(1.0, f_coeffs=(0.0, 0.0, 0.0, 4.0))

    def test_censoring_truncates_trajectory(self):
        u0 = scalar_field(6, {0: 6.0, 1: 1.5})
        cfg = config(max_mode=6, dt=0.01, t_final=1.0, blowup_cutoff=50.0)
        traj = run_mild(self.blowup_spec(), Variant.PHI_ZERO, 0.0, u0, None,
                        cfg)
        assert traj.censored
        assert traj.censoring_time is not None
        assert traj.coeffs.shape == (len(traj.times), 1, 7)
        assert traj.times.size < cfg.n_steps + 1
        assert all(t < traj.censoring_time for t in traj.times)
        for c in traj.coeffs:
            assert sup_norm(c) <= 50.0

    def test_lower_cutoff_censors_no_later(self):
        u0 = scalar_field(6, {0: 6.0, 1: 1.5})
        times = []
        for cutoff in (20.0, 100.0, 400.0):
            cfg = config(max_mode=6, dt=0.01, t_final=1.0,
                         blowup_cutoff=cutoff)
            traj = run_mild(self.blowup_spec(), Variant.PHI_ZERO, 0.0, u0,
                            None, cfg)
            assert traj.censored
            times.append(traj.censoring_time)
        assert times[0] <= times[1] <= times[2]

    def test_tame_run_is_uncensored(self):
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0))
        traj = run_mild(spec, Variant.PHI_ZERO, 0.0,
                        scalar_field(6, {0: 0.5}), None, config(max_mode=6))
        assert not traj.censored
        assert traj.censoring_time is None
        assert traj.times.size == config().n_steps + 1

    def test_non_finite_drift_raises_integration_error(self):
        bad = ModelSpec(n=1, nu=1.0,
                        f=lambda u: np.full_like(u, np.inf))
        with pytest.raises(IntegrationError, match="step 1"):
            run_mild(bad, Variant.PHI_ZERO, 0.0, zero_field(4), None,
                     config(max_mode=4))


def reaction_model() -> ModelSpec:
    return polynomial_model(1.0, f_coeffs=(0.0, -1.0), h_coeffs=(1.0,))


def nan_once_in_replica(call: int):
    """A reaction -u whose call-th evaluation (counting from 0) writes NaN
    into replica 1 of its (n, R, points) grid values."""
    calls = itertools.count()

    def f(u):
        out = -u
        if next(calls) == call:
            out[:, 1] = np.nan
        return out

    return f


def pairs(block) -> list[tuple[tuple[float, bool], ...]]:
    """A block kernel's (dist, censored) arrays as per-replica tuples of
    (distance, censored) pairs, one pair per column."""
    dist, censored = block
    return [tuple(zip(map(float, d), map(bool, c)))
            for d, c in zip(dist, censored)]


def coupled_block(spec: ModelSpec, n_rep: int) -> None:
    coupled_distances(spec, 0.5, zero_field(4), config(max_mode=4),
                      [NoiseStream(1, replica=r) for r in range(n_rep)])


def random_phase_field(n_modes: int, modulus: float) -> SpectralField:
    # a real k = 0 mode and random phases above it, all of one modulus
    rng = np.random.default_rng(0)
    c = modulus * np.exp(2j * np.pi * rng.random((1, n_modes)))
    c[0, 0] = modulus
    return SpectralField(1, n_modes - 1, c)


class TestFinitenessTest:
    """The guard's l1 bound is the step's only finiteness test: a row
    holding a non-finite coefficient has a non-finite bound, and the step
    raises IntegrationError naming the variant and step before it yields,
    with no NumPy warning escaping."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case,want", [
        ("inf-reaction", "PHI_ZERO run at step 1"),
        ("nan-h", "PHI_EPS run at step 1"),
        ("nan-block", "PHI_ZERO run at step 3")])
    def test_failing_setups_raise_at_their_step(self, case, want):
        # the steps and variants the former drift and state scans named
        with pytest.raises(IntegrationError, match=want):
            if case == "inf-reaction":
                spec = ModelSpec(n=1, nu=1.0,
                                 f=lambda u: np.full_like(u, np.inf))
                run_mild(spec, Variant.PHI_ZERO, 0.0, zero_field(4), None,
                         config(max_mode=4))
            elif case == "nan-h":
                # h is read only by PHI_EPS and the corrected reaction
                coupled_block(ModelSpec(n=1, nu=1.0, h=lambda u: np.full(
                    (1, 1, 1) + u.shape[1:], np.nan)), 1)
            else:
                # each step calls f once per channel, in the order (PHI_EPS,
                # PHI_ZERO, PHI_BAR): call 7 is step 3's PHI_ZERO, where
                # replica 1 alone turns NaN
                coupled_block(ModelSpec(n=1, nu=1.0, f=nan_once_in_replica(7),
                                        h=lambda u: np.ones(
                                            (1, 1, 1) + u.shape[1:])), 3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_bound_of_finite_row_is_censored(self):
        # 2 * 20,000 * 1e305 overflows the l1 bound of a finite state: the
        # row is a guard suspect, and sup_norm censors it at t = 0
        traj = run_mild(reaction_model(), Variant.V_LIMIT, 0.0,
                        random_phase_field(20_000, 1e305), None,
                        config(max_mode=19_999, dt=0.05, t_final=0.1))
        assert traj.censored and traj.censoring_time == 0.0
        assert traj.times.size == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_sup_norm_of_finite_row_is_censored(self):
        # 101 modes of 1e307: finite coefficients whose grid values
        # overflow, so sup_norm reads NaN.  The row is censored at t = 0;
        # a guard that kept it alive let the first step's drift overflow
        # into IntegrationError at step 1
        traj = run_mild(reaction_model(), Variant.V_LIMIT, 0.0,
                        random_phase_field(101, 1e307), None,
                        config(max_mode=100, dt=0.05, t_final=0.1))
        assert traj.censored and traj.censoring_time == 0.0
        assert traj.times.size == 0


class TestLimitGap:
    """With f = -u, h = 1 and nu = 1 the drift is linear, and the corrected
    reaction only adds the constant c tr h = c: the two limits differ by
    c on the k = 0 mode alone, where the exponential-Euler recursion has a
    closed form."""

    @pytest.mark.parametrize("max_mode", [64, 256])
    @pytest.mark.parametrize("c", [0.5, 0.3])
    def test_corrected_minus_naive(self, max_mode, c):
        # k = 0 has decay e^{-dt} and weight 1 - e^{-dt} on d' = -2d + c:
        # d_n = c sqrt(2 pi) (1 - (2 e^{-dt} - 1)^n) / 2
        cfg = config(max_mode=max_mode, dt=0.05, t_final=0.5)
        u0 = initial_field(1, 16, 1.5, 1.0, NoiseStream(3))
        _, naive, corrected = couple_runs(reaction_model(), [0.25], u0, cfg,
                                          NoiseStream(3), correction=c)
        gap = corrected.coeffs - naive.coeffs
        n = np.arange(len(gap))
        phi = (1.0 - (2.0 * math.exp(-cfg.dt) - 1.0) ** n) / 2.0
        np.testing.assert_allclose(gap[:, 0, 1:], 0.0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(gap[:, 0, 0], c * ROOT_2PI * phi,
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("max_mode", [64, 256])
    @pytest.mark.parametrize("c", [0.5, 0.3])
    def test_v_limit_minus_uncorrected(self, max_mode, c):
        # the unshifted k = 0 mode is neutral, so its weight is dt on
        # d' = -d + c: d_n = c sqrt(2 pi) (1 - (1 - dt)^n)
        cfg = config(max_mode=max_mode, dt=0.05, t_final=0.5)
        u0 = initial_field(1, 16, 1.5, 1.0, NoiseStream(3))
        runs = [run_mild(reaction_model(), Variant.V_LIMIT, 0.0, u0, None,
                         cfg, correction_constant=const)
                for const in (c, 0.0)]
        gap = runs[0].coeffs - runs[1].coeffs
        n = np.arange(len(gap))
        np.testing.assert_allclose(gap[:, 0, 1:], 0.0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            gap[:, 0, 0], c * ROOT_2PI * (1.0 - (1.0 - cfg.dt) ** n),
            rtol=0, atol=1e-14)


def l1_bound(coeffs: np.ndarray) -> float:
    mag = np.abs(coeffs)
    return float(np.max(mag[:, 0] + 2.0 * mag[:, 1:].sum(axis=1))) / ROOT_2PI


class TestGuardPrefilter:
    """The guard runs the oversampled sup_norm only when 1.25 times the l1
    coefficient bound exceeds the cutoff; its decisions stay those of
    sup_norm(u) > cutoff."""

    cutoff = 50.0

    def count_fallbacks(self, monkeypatch) -> list:
        calls = []
        real = integrate_module.sup_norm

        def counted(coeffs):
            calls.append(coeffs.copy())   # the guard passes a view of u
            return real(coeffs)

        monkeypatch.setattr(integrate_module, "sup_norm", counted)
        return calls

    def shapes(self) -> list[np.ndarray]:
        rng = np.random.default_rng(12)
        c = (rng.normal(size=(1, 7)) + 1j * rng.normal(size=(1, 7))) \
            / (1.0 + np.arange(7)) ** 1.5
        c[0, 0] = c[0, 0].real
        return [c] + [scalar_field(6, modes).coeffs for modes in (
            {0: 1.0}, {6: 1.0}, {k: 0.5 for k in range(7)})]

    def first_step(self, u0: np.ndarray) -> Trajectory:
        # f = -1 zeroes the drift, so after step 0 the field only decays
        # and cannot cross the cutoff that it did not cross at t = 0
        spec = polynomial_model(1.0, f_coeffs=(-1.0,))
        return run_mild(spec, Variant.PHI_ZERO, 0.0,
                        SpectralField(1, 6, u0), None,
                        config(max_mode=6, dt=0.01, t_final=0.01,
                               blowup_cutoff=self.cutoff))

    def test_decision_equals_sup_norm_at_the_cutoff(self, monkeypatch):
        for shape in self.shapes():
            for ratio in (1.0 - 1e-3, 1.0 + 1e-3, 0.8, 1.25):
                u0 = shape * (ratio * self.cutoff / sup_norm(shape))
                expected = sup_norm(u0) > self.cutoff
                assert expected == (ratio > 1.0)
                calls = self.count_fallbacks(monkeypatch)
                traj = self.first_step(u0)
                assert traj.censored == expected, (ratio, shape)
                assert traj.censoring_time == (0.0 if expected else None)
                if expected:
                    assert calls

    def test_prefilter_edge(self, monkeypatch):
        # scaled so that 1.25 B sits just below or above the cutoff: below,
        # no fallback is needed; above, the fallback decides (and for these
        # shapes sup_norm stays under the cutoff)
        for shape in self.shapes():
            for ratio in (1.0 - 1e-3, 1.0 + 1e-3):
                u0 = shape * (ratio * self.cutoff / (1.25 * l1_bound(shape)))
                calls = self.count_fallbacks(monkeypatch)
                traj = self.first_step(u0)
                assert traj.censored == (sup_norm(u0) > self.cutoff)
                assert not traj.censored
                assert (len(calls) > 0) == (ratio > 1.0)

    def test_tame_run_makes_no_fallback_call(self, monkeypatch):
        calls = self.count_fallbacks(monkeypatch)
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0))
        traj = run_mild(spec, Variant.PHI_ZERO, 0.0,
                        scalar_field(6, {0: 0.5}), None, config(max_mode=6))
        assert not traj.censored
        assert calls == []

    def test_blowup_run_falls_back(self, monkeypatch):
        calls = self.count_fallbacks(monkeypatch)
        traj = run_mild(TestCensoring().blowup_spec(), Variant.PHI_ZERO, 0.0,
                        scalar_field(6, {0: 6.0, 1: 1.5}), None,
                        config(max_mode=6, dt=0.01, t_final=1.0,
                               blowup_cutoff=self.cutoff))
        assert traj.censored
        assert len(calls) >= 1
        assert sup_norm(calls[-1]) > self.cutoff


class TestSupDistance:
    def make_pair(self, shift: float, **kw):
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0))
        cfg = config(max_mode=6, **kw)
        a = run_mild(spec, Variant.PHI_ZERO, 0.0, scalar_field(6, {0: 0.4}),
                     None, cfg)
        b = run_mild(spec, Variant.PHI_ZERO, 0.0,
                     scalar_field(6, {0: 0.4 + shift * ROOT_2PI}), None, cfg)
        return a, b

    def test_identical_runs_have_zero_distance(self):
        a, _ = self.make_pair(0.0)
        d, censored = sup_distance(a, a)
        assert d == 0.0 and not censored

    def test_constant_offset_decays_like_the_symbol(self):
        # the two solutions differ by c e^{-t} exactly (affine reaction),
        # so the sup over time of the difference is |c| at t = 0
        a, b = self.make_pair(0.3)
        d, _ = sup_distance(a, b)
        assert d == pytest.approx(0.3, rel=1e-6)

    def test_triangle_inequality(self):
        a, b = self.make_pair(0.3)
        _, c = self.make_pair(0.7)
        dab, _ = sup_distance(a, b)
        dbc, _ = sup_distance(b, c)
        dac, _ = sup_distance(a, c)
        assert dac <= dab + dbc + 1e-12

    def test_sobolev_variant(self):
        a, b = self.make_pair(0.3)
        d, _ = sup_distance(a, b, norm="sobolev", alpha=0.6, nu=1.0)
        assert d == pytest.approx(0.3 * ROOT_2PI, rel=1e-9)
        with pytest.raises(ValueError):
            sup_distance(a, b, norm="sobolev")
        with pytest.raises(ValueError):
            sup_distance(a, b, norm="euclid")

    def test_censored_prefix_and_empty_overlap(self):
        spec = polynomial_model(1.0, f_coeffs=(0.0, 0.0, 0.0, 4.0))
        u0 = scalar_field(6, {0: 6.0, 1: 1.5})
        full_cfg = config(max_mode=6, dt=0.01, t_final=1.0)
        cens = run_mild(spec, Variant.PHI_ZERO, 0.0, u0, None,
                        config(max_mode=6, dt=0.01, t_final=1.0,
                               blowup_cutoff=50.0))
        tame = run_mild(polynomial_model(1.0, f_coeffs=(0.0, -1.0)),
                        Variant.PHI_ZERO, 0.0, u0, None, full_cfg)
        d, censored = sup_distance(cens, tame)
        assert censored and math.isfinite(d)
        # immediate censoring leaves no common time
        gone = run_mild(spec, Variant.PHI_ZERO, 0.0, u0, None,
                        config(max_mode=6, dt=0.01, t_final=1.0,
                               blowup_cutoff=1.0))
        assert gone.times.size == 0
        d2, censored2 = sup_distance(gone, tame)
        assert math.isnan(d2) and censored2

    def test_grid_mismatch_rejected(self):
        a, _ = self.make_pair(0.0)
        c, _ = self.make_pair(0.0, dt=0.1)
        with pytest.raises(ValueError, match="different grids"):
            sup_distance(a, c)

    @pytest.mark.parametrize("shape", [(2, 7), (1, 5)])
    @pytest.mark.parametrize("norm", ["sup", "sobolev"])
    def test_field_shape_mismatch_rejected(self, shape, norm):
        # a (k, 1, 7) - (k, 2, 7) difference would broadcast: the component
        # and mode counts must agree
        a, _ = self.make_pair(0.0)
        b = Trajectory(a.variant, a.eps, a.times,
                       np.zeros((len(a.times),) + shape, dtype=np.complex128))
        with pytest.raises(ValueError, match="shapes do not match"):
            sup_distance(a, b, norm, alpha=0.6, nu=1.0)


def two_component_model() -> ModelSpec:
    """n = 2 model with every channel: coupled f, diagonal g, full h."""
    mix = np.array([[[0.3, 0.1], [0.1, 0.2]], [[0.0, 0.2], [0.2, 0.4]]])

    def f(u):
        return np.stack([-u[0] + 0.2 * u[1], -u[1] + 0.1 * u[0] ** 2])

    def g(u):
        out = np.zeros((2, 2) + u.shape[1:])
        out[0, 0], out[1, 1] = 1.0 + 0.1 * u[0] ** 2, 1.0 + 0.1 * u[1] ** 2
        return out

    def dg(u):
        out = np.zeros((2, 2, 2) + u.shape[1:])
        out[0, 0, 0], out[1, 1, 1] = 0.2 * u[0], 0.2 * u[1]
        return out

    def h(u):
        return mix[(...,) + (None,) * (u.ndim - 1)] * (1.0 + 0.1 * u[0])

    return ModelSpec(n=2, nu=1.0, f=f, g=g, dg=dg, h=h)


def reference_couple_runs(spec, eps, u0, cfg, stream, constant):
    """couple_runs written out per channel with the public drift functions
    and step_coupled, one field at a time."""
    ks = np.arange(cfg.max_mode + 1)
    lam = [symbols(OperatorSpec(spec.nu, e), ks) for e in (eps, 0.0, 0.0)]
    drifts = [lambda u: eval_F_eps(spec, eps, u),
              lambda u: eval_F_eps(spec, 0.0, u),
              lambda u: eval_F_bar(spec, u, constant=constant)]
    noise = sample_stationary([OperatorSpec(spec.nu, eps),
                               OperatorSpec(spec.nu, 0.0)], spec.n,
                              cfg.max_mode, stream)
    v = [np.zeros((spec.n, cfg.max_mode + 1), dtype=np.complex128)
         for _ in lam]
    for x in v:
        x[:, :u0.max_mode + 1] = u0.coeffs
    fields = [[] for _ in lam]

    def compose():
        return [SpectralField(spec.n, cfg.max_mode, x + noise.psi[0, level])
                for x, level in zip(v, (0, 1, 1))]

    u = compose()
    for c in range(3):
        fields[c].append(u[c])
    for _ in range(cfg.n_steps):
        v = [np.exp(l * cfg.dt) * x + etd_weights(l, cfg.dt) * d(w).coeffs
             for l, x, d, w in zip(lam, v, drifts, u)]
        noise = step_coupled(noise, cfg.dt)
        u = compose()
        for c in range(3):
            fields[c].append(u[c])
    return fields


class TestReplicaBlock:
    """coupled_distances advances a block of replicas in lockstep; each
    replica must give what couple_runs and sup_distance give it alone."""

    def test_couple_runs_equals_per_channel_reference(self):
        spec = two_component_model()
        u0 = initial_field(2, 6, 1.5, 0.5, NoiseStream(8))
        cfg = config(max_mode=12, dt=0.01, t_final=0.05)
        const = truncation_matched_constant(1.0, 0.25, 12)
        trajs = couple_runs(spec, [0.25], u0, cfg, NoiseStream(8))
        want = reference_couple_runs(spec, 0.25, u0, cfg, NoiseStream(8),
                                     const)
        for traj, fields in zip(trajs, want):
            assert len(traj.coeffs) == len(fields) == cfg.n_steps + 1
            for got, ref in zip(traj.coeffs, fields):
                assert np.array_equal(got, ref.coeffs)

    def oracle(self, spec, eps, u0, cfg, stream):
        perturbed, naive, corrected = couple_runs(spec, [eps], u0, cfg,
                                                  stream)
        return (sup_distance(perturbed, corrected),
                sup_distance(perturbed, naive))

    def check(self, spec, eps, u0, cfg, streams):
        block = pairs(coupled_distances(spec, eps, u0, cfg, streams))
        assert len(block) == len(streams)
        for got, stream in zip(block, streams):
            want = self.oracle(spec, eps, u0, cfg, stream)
            for (d, cens), (d0, cens0) in zip(got, want):
                assert cens == cens0
                assert d == d0 or (math.isnan(d) and math.isnan(d0))
        return block

    @pytest.mark.parametrize("model", [
        polynomial_model(1.0, f_coeffs=(0.0, -1.0), h_coeffs=(1.0,)),
        polynomial_model(1.0, f_coeffs=(0.0, -1.0), g_coeffs=(1.0, 0.3),
                         h_coeffs=(1.0, 0.5)),
        two_component_model()])
    def test_distances_equal_trajectory_oracle(self, model):
        u0 = initial_field(model.n, 8, 1.5, 0.5, NoiseStream(4))
        cfg = config(max_mode=16, dt=0.01, t_final=0.2)
        streams = [NoiseStream(4, replica=r) for r in range(4)]
        block = self.check(model, 0.25, u0, cfg, streams)
        assert not any(c for pair in block for _, c in pair)

    def test_block_with_censored_and_surviving_replicas(self):
        # TestCensoring's blow-up reaction at a low cutoff: the noise decides
        # which replicas censor, so one block holds frozen and live rows
        spec = TestCensoring().blowup_spec()
        u0 = initial_field(1, 6, 1.5, 1.0, NoiseStream(2))
        cfg = config(max_mode=6, dt=0.01, t_final=0.3, blowup_cutoff=5.0)
        streams = [NoiseStream(2, replica=r) for r in range(5)]
        block = self.check(spec, 0.25, u0, cfg, streams)
        flags = [pair[0][1] for pair in block]
        assert 0 < sum(flags) < len(flags)

    def test_one_transform_pair_per_step(self, monkeypatch):
        calls = []
        for name in ("grid_values", "grid_coeffs"):
            real = getattr(models_module, name)

            def counted(*args, name=name, real=real):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(models_module, name, counted)
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0), h_coeffs=(1.0,))
        cfg = config(max_mode=8, dt=0.05, t_final=0.25)
        coupled_distances(spec, 0.5, zero_field(8), cfg,
                          [NoiseStream(1, replica=r) for r in range(3)])
        assert calls == ["grid_values", "grid_coeffs"] * cfg.n_steps

    @pytest.mark.parametrize("refine", [1, 2])
    def test_one_sup_norms_call_per_recorded_time(self, monkeypatch, refine):
        # all replicas' (corrected, naive) differences go to one call, once
        # per step on the base time grid and on the one refined twofold
        calls = []
        real = integrate_module.sup_norms

        def counted(coeffs, *rest):
            calls.append(coeffs.shape)
            return real(coeffs, *rest)

        monkeypatch.setattr(integrate_module, "sup_norms", counted)
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0), h_coeffs=(1.0,))
        cfg = config(max_mode=8, dt=0.05 / refine, t_final=0.25)
        coupled_distances(spec, 0.5, zero_field(8), cfg,
                          [NoiseStream(1, replica=r) for r in range(3)])
        assert cfg.n_steps == 5 * refine
        assert calls == [(3 * 2, 9)] * (cfg.n_steps + 1)

    def test_non_finite_drift_names_channel_and_step(self):
        # h is only used by the perturbed channel and by the corrected
        # reaction; a NaN there must surface as an IntegrationError
        spec = ModelSpec(n=1, nu=1.0, h=lambda u: np.full((1, 1, 1)
                                                          + u.shape[1:],
                                                          np.nan))
        with pytest.raises(IntegrationError, match="PHI_EPS run at step 1"):
            coupled_distances(spec, 0.5, zero_field(4), config(max_mode=4),
                              [NoiseStream(0)])


class TestTraceSlotRate:
    """The rate studies on a two-component model where the correction's
    trace slots matter: nu = 1, f = -u and a constant h whose one nonzero
    entry is H[0, 1, 1] = 1.  The corrected reaction adds c sum_j H_ijj =
    (c, 0); every wrong pairing of the slots, such as sum_j H_jij or
    sum_j H_jji, traces this H to 0, so a wrong-slot corrected limit is the
    naive limit and reads naive/corrected = 1 exactly.  A reduced protocol
    (N = 8/eps, dt = 0.005, T = 0.5, 4 replicas) takes about 4 s."""

    @staticmethod
    def model() -> ModelSpec:
        tensor = np.zeros((2, 2, 2))
        tensor[0, 1, 1] = 1.0

        def h(u: np.ndarray) -> np.ndarray:
            point = tensor.reshape(tensor.shape + (1,) * (u.ndim - 1))
            return np.broadcast_to(point, tensor.shape + u.shape[1:])

        return ModelSpec(n=2, nu=1.0, f=lambda u: -u, h=h, degree=2)

    @classmethod
    def sweep(cls, levels, distances) -> tuple[float, float]:
        """Slope of the mean corrected distance over eps = 2^-j, j in
        levels, and the naive/corrected ratio of the means at the last."""
        spec = cls.model()
        u0 = initial_field(2, 16, 1.5, 1.0, NoiseStream(0))
        streams = [NoiseStream(0, replica=r) for r in range(4)]
        points = []
        for j in levels:
            eps = 2.0 ** -j
            sim = config(max_mode=8 * 2 ** j, dt=0.005, t_final=0.5)
            dist, censored = distances(spec, eps, u0, sim, streams)
            assert not censored.any()
            corrected, naive = dist.mean(axis=0)
            points.append((eps, corrected))
        return regress_loglog(points).slope, naive / corrected

    def test_coupled_distances(self):
        # effective_drift's traces, through the PHI_BAR channel; measured
        # slope 0.438, ratio 1.41 at 2^-6
        slope, ratio = self.sweep(range(3, 7), coupled_distances)
        assert 0.3 <= slope <= 0.7
        assert ratio >= 1.25

    def test_reference_distances(self):
        # plan_G's constant trace, through the V_LIMIT channel; measured
        # slope 0.376, ratio 1.63 at 2^-9
        def distances(spec, eps, u0, sim, streams):
            const = resolve_correction("truncation-matched", spec.nu, eps,
                                       sim.max_mode)
            return reference_distances(spec, eps, u0, sim, streams,
                                       constants=(const, 0.0), beta=0.6)

        slope, ratio = self.sweep(range(6, 10), distances)
        assert slope >= 0.25
        assert ratio >= 1.25


class TestReferenceDistances:
    """reference_distances advances a block of V_EPS replicas in lockstep
    beside the deterministic limits and measures them as it goes; each
    replica must give what run_mild and sup_distance give it alone."""

    def check(self, spec, eps, u0, cfg, streams, constants):
        block = pairs(reference_distances(spec, eps, u0, cfg, streams,
                                          constants=constants, beta=0.6))
        refs = [run_mild(spec, Variant.V_LIMIT, 0.0, u0, None, cfg,
                         correction_constant=c) for c in constants]
        assert len(block) == len(streams)
        for got, stream in zip(block, streams):
            noise = sample_stationary([OperatorSpec(spec.nu, eps)], spec.n,
                                      cfg.max_mode, stream)
            traj = run_mild(spec, Variant.V_EPS, eps, u0, noise, cfg)
            want = [sup_distance(traj, ref, "sobolev", alpha=0.6,
                                 nu=spec.nu) for ref in refs]
            assert len(got) == len(want)
            for (d, cens), (d0, cens0) in zip(got, want):
                assert cens == cens0
                assert d == d0 or (math.isnan(d) and math.isnan(d0))
        return block

    @pytest.mark.parametrize("refine", [1, 2])
    def test_distances_equal_trajectory_oracle(self, refine):
        # on the base time grid and on the one refined twofold
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0), h_coeffs=(1.0,))
        u0 = initial_field(1, 8, 1.5, 0.5, NoiseStream(4))
        cfg = config(max_mode=16, dt=0.01 / refine, t_final=0.2)
        streams = [NoiseStream(4, replica=r) for r in range(3)]
        block = self.check(spec, 0.25, u0, cfg, streams, (0.4, 0.0))
        assert not any(c for pair in block for _, c in pair)

    def test_block_with_censored_and_surviving_replicas(self):
        spec = TestCensoring().blowup_spec()
        u0 = initial_field(1, 6, 1.5, 1.0, NoiseStream(2))
        cfg = config(max_mode=6, dt=0.01, t_final=0.3, blowup_cutoff=5.0)
        streams = [NoiseStream(2, replica=r) for r in range(5)]
        block = self.check(spec, 0.25, u0, cfg, streams, (None, 0.0))
        flags = [pair[0][1] for pair in block]
        assert 0 < sum(flags) < len(flags)

    def test_censored_reference_censors_every_replica(self):
        # a limit that blows up before the end (its correction constant
        # 1e3 drives it) censors every replica's distance to it, measured
        # over the limit's live prefix, and leaves the other one's untouched
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0), h_coeffs=(1.0,))
        u0 = scalar_field(6, {0: 0.5})
        cfg = config(max_mode=6, dt=0.01, t_final=0.3, blowup_cutoff=50.0)
        refs = [run_mild(spec, Variant.V_LIMIT, 0.0, u0, None, cfg,
                         correction_constant=c) for c in (1e3, 0.0)]
        assert refs[0].censored and not refs[1].censored
        assert len(refs[0].times) > 1
        streams = [NoiseStream(3, replica=r) for r in range(2)]
        block = self.check(spec, 0.01, u0, cfg, streams, (1e3, 0.0))
        assert [[c for _, c in pair] for pair in block] == [[True, False]] * 2


class TestCensoredBlocksPinned:
    """Blocks whose censored rows share the live rows' step, pinned to the
    bits recorded when censored rows took a separate step path.  The
    oracle tests above run the same step as the code under test, so only
    a pin can see a change in it."""

    @staticmethod
    def digest(seed: int) -> tuple[str, int]:
        """SHA-256 of coupled_distances, reference_distances and each
        replica's couple_runs trajectories, and the censored flag count,
        on TestCensoring's blow-up reaction with cutoff 5."""
        spec = TestCensoring().blowup_spec()
        u0 = initial_field(1, 6, 1.5, 1.0, NoiseStream(seed))
        cfg = config(max_mode=6, dt=0.01, t_final=0.3, blowup_cutoff=5.0)
        streams = [NoiseStream(seed, replica=r) for r in range(5)]
        kept = [p for block in (
            coupled_distances(spec, 0.25, u0, cfg, streams),
            reference_distances(spec, 0.25, u0, cfg, streams,
                                constants=(0.3, 0.0), beta=0.6))
                for row in pairs(block) for p in row]
        sha = hashlib.sha256(np.array([d for d, _ in kept]).tobytes())
        sha.update(bytes(c for _, c in kept))
        flags = sum(c for _, c in kept)
        for stream in streams:
            for traj in couple_runs(spec, [0.25], u0, cfg, stream):
                sha.update(traj.coeffs.tobytes() + traj.times.tobytes())
                sha.update(repr(traj.censoring_time).encode())
                flags += traj.censored
        return sha.hexdigest(), flags

    # seed: (SHA-256, censored flags), 103 flags in all; re-recorded when
    # sup_norms and the drift grids took fast_grid_size of their contracts,
    # which kept every censored flag
    PINNED = {
        0: ("9042a8c7cdf37cc22e490590f62b8972dc4842ba47664ce8a13850a18ab58b0a",
            29),
        1: ("37e0136d433df13ff8965f1e0d0aa6426da4bdcde6a1140348c0de3007217919",
            27),
        2: ("3af718e68f0c374c4035f929b18104b8c60ade3beabb95de97282f64012886e9",
            12),
        3: ("99225c88a07772f704f2b07a02fc1ca4158820d245963574093426f2fd35dc61",
            35)}

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_bits_pinned(self, seed):
        assert self.digest(seed) == self.PINNED[seed]


class TestNoFieldsInStepLoop:
    """The block core works on plain arrays: neither the step loop, nor a
    recorded trajectory, nor a distance measurement builds a SpectralField
    or GridField."""

    def count_fields(self, monkeypatch) -> list:
        built = []
        for cls in (SpectralField, GridField):
            real = cls.__post_init__

            def counted(obj, real=real, name=cls.__name__):
                built.append(name)
                real(obj)

            monkeypatch.setattr(cls, "__post_init__", counted)
        return built

    def test_recorded_runs_build_no_field(self, monkeypatch):
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0), h_coeffs=(1.0,))
        u0 = initial_field(1, 6, 1.5, 0.5, NoiseStream(5))
        cfg = config(max_mode=8, dt=0.05, t_final=0.25)
        built = self.count_fields(monkeypatch)
        trajs = couple_runs(spec, [0.5], u0, cfg, NoiseStream(5))
        trajs.append(run_mild(spec, Variant.V_LIMIT, 0.0, u0, None, cfg))
        assert built == []
        for traj in trajs:
            assert traj.coeffs.shape == (cfg.n_steps + 1, 1, 9)
            # what SpectralField would have forced: mode 0 exactly real
            assert np.all(traj.coeffs[..., 0].imag == 0.0)

    def test_coupled_distances_builds_no_field(self, monkeypatch):
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0), h_coeffs=(1.0,))
        u0 = initial_field(1, 6, 1.5, 0.5, NoiseStream(5))
        cfg = config(max_mode=8, dt=0.05, t_final=0.25)
        built = self.count_fields(monkeypatch)
        block = pairs(coupled_distances(
            spec, 0.5, u0, cfg, [NoiseStream(5, replica=r) for r in range(3)]))
        assert len(block) == 3
        assert built == []

    def test_reference_distances_builds_no_field(self, monkeypatch):
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0), h_coeffs=(1.0,))
        u0 = initial_field(1, 6, 1.5, 0.5, NoiseStream(6))
        cfg = config(max_mode=8, dt=0.05, t_final=0.25)
        built = self.count_fields(monkeypatch)
        _, censored = reference_distances(spec, 0.25, u0, cfg,
                                          [NoiseStream(6, replica=r)
                                           for r in range(3)],
                                          constants=(0.4, 0.0), beta=0.6)
        assert censored.shape == (3, 2) and not censored.any()
        assert built == []


class TestNoGridTemporaries:
    """Each run keeps its transform arrays in one workspace, so after the
    first step a step allocates nothing the size of a drift-grid row."""

    def test_later_steps_allocate_no_grid_row(self, monkeypatch):
        # a V_EPS block of 2 replicas at N = 12288 (drift grid M = 32,805,
        # transformed row by row, one row 256 KiB) measured against its two
        # limits, which step first in the same loop.  Tracing every bytecode
        # instruction, traced memory may not rise by a row within one
        # instruction from the replicas' first noise step on.  The
        # largest arrays left are a tile's callback temporaries (2^14 points,
        # 128 KiB) and numpy's ufunc buffers.  The noise step is not
        # measured: it has no grid, and its block of 2 x 12289 normals is
        # about a row (test_noise checks that it allocates no block).
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0), h_coeffs=(1.0,))
        u0 = initial_field(1, 16, 1.3, 1.0, NoiseStream(7))
        cfg = config(max_mode=12288, dt=0.005, t_final=0.02)
        m = drift_grid_size(cfg.max_mode, spec.degree)
        assert m >= ROW_TRANSFORM_POINTS
        row_bytes = 8 * m
        steps, rises, last = [], [], [0]
        in_noise = [False]
        real_step = integrate_module.step_replicas

        def noise_step(*args):
            steps.append(len(steps) + 1)
            in_noise[0] = True
            try:
                return real_step(*args)
            finally:
                in_noise[0] = False

        def trace(frame, event, arg):
            frame.f_trace_opcodes = True
            current, peak = tracemalloc.get_traced_memory()
            # from the first noise step on, the workspace exists
            if steps and not in_noise[0]:
                rises.append(peak - last[0])
            last[0] = current
            tracemalloc.reset_peak()
            return trace

        monkeypatch.setattr(integrate_module, "step_replicas", noise_step)
        tracemalloc.start()
        sys.settrace(trace)
        try:
            reference_distances(spec, 0.25, u0, cfg,
                                [NoiseStream(7, replica=r) for r in (0, 1)],
                                constants=(None, 0.0), beta=0.6)
        finally:
            sys.settrace(None)
            tracemalloc.stop()
        assert steps == list(range(1, cfg.n_steps + 1))
        assert len(rises) > 1000 and max(rises) < row_bytes


class TestRecordingAndValidation:
    def test_every_step_is_recorded(self):
        spec = polynomial_model(1.0)
        cfg = config(max_mode=4, dt=0.05, t_final=0.5)
        traj = run_mild(spec, Variant.PHI_ZERO, 0.0, zero_field(4), None,
                        cfg)
        np.testing.assert_array_equal(
            traj.times, np.arange(cfg.n_steps + 1) * cfg.dt)
        assert traj.coeffs.shape == (cfg.n_steps + 1, 1, 5)

    def test_missing_variant_rejected(self):
        # the variant is an argument only: SimulationConfig carries none,
        # and run_mild refuses anything that is not a Variant
        spec = polynomial_model(1.0)
        for bad in (None, "phi_zero"):
            with pytest.raises(ValueError, match="variant"):
                run_mild(spec, bad, 0.0, zero_field(4), None,
                         config(max_mode=4))
        with pytest.raises(TypeError):
            config(max_mode=4, variant=Variant.PHI_ZERO)

    def test_model_and_data_validation(self):
        spec = polynomial_model(1.0)
        with pytest.raises(ValueError):
            run_mild(spec, Variant.PHI_EPS, 0.0, zero_field(4), None,
                     config(max_mode=4))  # eps must be positive
        with pytest.raises(ValueError):
            run_mild(spec, Variant.V_EPS, -0.5, zero_field(4), None,
                     config(max_mode=4))
        with pytest.raises(ValueError):
            run_mild(spec, Variant.PHI_ZERO, 0.0, zero_field(8), None,
                     config(max_mode=4))  # too many modes in u0
        two = SpectralField(2, 4, np.zeros((2, 5), dtype=np.complex128))
        with pytest.raises(ValueError):
            run_mild(spec, Variant.PHI_ZERO, 0.0, two, None,
                     config(max_mode=4))
        gspec = polynomial_model(1.0, g_coeffs=(1.0, 1.0))
        with pytest.raises(ValueError):
            run_mild(gspec, Variant.V_LIMIT, 0.0, zero_field(4), None,
                     config(max_mode=4))

    def test_couple_runs_validation(self):
        spec = polynomial_model(1.0)
        cfg = config(max_mode=4)
        u0 = zero_field(4)
        with pytest.raises(ValueError):
            couple_runs(spec, [], u0, cfg, NoiseStream(0))
        with pytest.raises(ValueError):
            couple_runs(spec, [0.5, 0.5], u0, cfg, NoiseStream(0))
        with pytest.raises(ValueError):
            couple_runs(spec, [0.5, -0.25], u0, cfg, NoiseStream(0))
        with pytest.raises(ValueError):
            couple_runs(spec, [0.5], u0, cfg, NoiseStream(0),
                        correction="bogus")
        with pytest.raises(ValueError):
            couple_runs(spec, [0.5], u0, cfg, NoiseStream(0),
                        correction=True)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_simulation_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(max_mode=0, dt=0.1, t_final=1.0)
        with pytest.raises(ValueError):
            SimulationConfig(max_mode=4, dt=0.0, t_final=1.0)
        with pytest.raises(ValueError):
            SimulationConfig(max_mode=4, dt=0.5, t_final=0.1)
        with pytest.raises(TypeError):
            SimulationConfig(max_mode=4, dt=0.1, t_final=1.0,
                             record_stride=2)
        with pytest.raises(ValueError):
            SimulationConfig(max_mode=4, dt=0.1, t_final=1.0,
                             blowup_cutoff=0.0)
        with pytest.raises(ValueError, match="blowup_cutoff must not be NaN"):
            SimulationConfig(max_mode=4, dt=0.1, t_final=1.0,
                             blowup_cutoff=math.nan)
        # inf turns the guard off
        SimulationConfig(max_mode=4, dt=0.1, t_final=1.0,
                         blowup_cutoff=math.inf)
        assert SimulationConfig(max_mode=4, dt=0.1, t_final=1.0).n_steps == 10

    def test_trajectory_ordering_of_couple_runs(self):
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0), h_coeffs=(1.0,))
        cfg = config(max_mode=6, dt=0.05, t_final=0.2)
        trajs = couple_runs(spec, [0.5, 0.25], scalar_field(6, {1: 0.2}),
                            cfg, NoiseStream(7))
        assert [t.variant for t in trajs] == [
            Variant.PHI_EPS, Variant.PHI_EPS, Variant.PHI_ZERO,
            Variant.PHI_BAR]
        assert trajs[0].eps == 0.5 and trajs[1].eps == 0.25
