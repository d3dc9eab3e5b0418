"""Tests for the exponential-Euler integrator and coupled runs."""

import math

import numpy as np
import pytest

import spdelab.integrate as integrate_module
from spdelab import (IntegrationError, ModelSpec, NoiseStream, OperatorSpec,
                     SimulationConfig, SpectralField, Trajectory, Variant,
                     apply_semigroup, couple_runs, polynomial_model,
                     psi_diff_moment, run_mild, sample_stationary,
                     step_coupled, sup_distance, sup_norm)

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
            for t, f in zip(traj.times, traj.fields):
                want = ROOT_2PI * (1.0 - math.exp(-t))
                assert f.coeffs[0, 0] == pytest.approx(want, rel=1e-12,
                                                       abs=1e-13), (dt, t)
                np.testing.assert_array_equal(f.coeffs[0, 1:], 0.0)

    def test_zero_drift_reduces_to_semigroup(self):
        # f = -1 makes F = 1 + f = 0, so the update is pure mode decay
        spec = polynomial_model(1.0, f_coeffs=(-1.0,))
        u0 = scalar_field(8, {0: 0.4, 1: 0.3 - 0.2j, 3: 0.1j})
        traj = run_mild(spec, Variant.PHI_ZERO, 0.0, u0, None, config())
        op = OperatorSpec(1.0, 0.0)
        for t, f in zip(traj.times, traj.fields):
            want = apply_semigroup(op, u0, float(t))
            np.testing.assert_allclose(f.coeffs, want.coeffs, rtol=1e-12,
                                       atol=1e-15)

    def test_first_order_self_convergence(self):
        # affine reaction F = 1 - u is frozen over each step, so the scheme
        # carries an O(dt) error; halving dt should roughly halve it
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0))
        u0 = scalar_field(8, {0: 0.5, 1: 0.4 + 0.2j, 2: -0.3})
        t_final = 0.5

        def final_field(dt: float) -> SpectralField:
            traj = run_mild(spec, Variant.PHI_ZERO, 0.0, u0, None,
                            config(dt=dt, t_final=t_final,
                                   record_stride=int(round(t_final / dt))))
            return traj.fields[-1]

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
        last = traj.fields[-1]
        assert last.coeffs[0, 0] == pytest.approx(0.7, rel=1e-12)
        # k = 2 decays by exp(-nu k^2 Q(0) t) = exp(-4t) without the shift
        assert last.coeffs[0, 2] == pytest.approx(
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
            np.testing.assert_array_equal(traj.fields[i].coeffs,
                                          replay.psi[0])
            if i < len(traj.times) - 1:
                replay = step_coupled(replay, cfg.dt)

    def test_v_eps_noise_enters_with_sqrt_eps(self):
        nu, eps, n = 1.0, 0.25, 6
        spec = polynomial_model(nu)  # G = 0
        ops = [OperatorSpec(nu, eps), OperatorSpec(nu, 0.0)]
        cfg = config(max_mode=n, dt=0.05, t_final=0.2)
        noise = sample_stationary(ops, 1, n, NoiseStream(1))
        traj = run_mild(spec, Variant.V_EPS, eps, zero_field(n), noise, cfg)
        replay = sample_stationary(ops, 1, n, NoiseStream(1))
        for i in range(len(traj.times)):
            np.testing.assert_allclose(traj.fields[i].coeffs,
                                       math.sqrt(eps) * replay.psi[0],
                                       rtol=0.0, atol=1e-15)
            if i < len(traj.times) - 1:
                replay = step_coupled(replay, cfg.dt)

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
            diff = perturbed.fields[i].coeffs - naive.fields[i].coeffs
            np.testing.assert_allclose(diff, replay.psi[0] - replay.psi[1],
                                       rtol=0.0, atol=1e-14)
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
            d = trajs[0].fields[-1].coeffs - trajs[1].fields[-1].coeffs
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
        for i in range(len(naive.times)):
            np.testing.assert_array_equal(naive.fields[i].coeffs,
                                          corrected.fields[i].coeffs)

    def test_correction_constant_changes_corrected_run_only(self):
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0), h_coeffs=(1.0,))
        cfg = config(max_mode=6, dt=0.05, t_final=0.2)
        u0 = scalar_field(6, {1: 0.3})
        a = couple_runs(spec, [0.5], u0, cfg, NoiseStream(5),
                        correction=0.25)
        b = couple_runs(spec, [0.5], u0, cfg, NoiseStream(5),
                        correction=0.5)
        np.testing.assert_array_equal(a[0].fields[-1].coeffs,
                                      b[0].fields[-1].coeffs)
        np.testing.assert_array_equal(a[1].fields[-1].coeffs,
                                      b[1].fields[-1].coeffs)
        assert not np.array_equal(a[2].fields[-1].coeffs,
                                  b[2].fields[-1].coeffs)

    def test_replay_determinism(self):
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0), h_coeffs=(1.0,))
        cfg = config(max_mode=6, dt=0.05, t_final=0.2)
        u0 = scalar_field(6, {1: 0.3})

        def run():
            trajs = couple_runs(spec, [0.5, 0.25], u0, cfg, NoiseStream(6))
            return [t.fields[-1].coeffs for t in trajs]

        for x, y in zip(run(), run()):
            np.testing.assert_array_equal(x, y)


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
        assert len(traj.times) == len(traj.fields)
        assert traj.times.size < cfg.n_steps + 1
        assert all(t < traj.censoring_time for t in traj.times)
        for f in traj.fields:
            assert sup_norm(f) <= 50.0

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


def l1_bound(field: SpectralField) -> float:
    mag = np.abs(field.coeffs)
    return float(np.max(mag[:, 0] + 2.0 * mag[:, 1:].sum(axis=1))) / ROOT_2PI


class TestGuardPrefilter:
    """The guard runs the oversampled sup_norm only when 1.25 times the l1
    coefficient bound exceeds the cutoff; its decisions stay those of
    sup_norm(u) > cutoff."""

    cutoff = 50.0

    def count_fallbacks(self, monkeypatch) -> list:
        calls = []
        real = integrate_module.sup_norm

        def counted(field):
            calls.append(field)
            return real(field)

        monkeypatch.setattr(integrate_module, "sup_norm", counted)
        return calls

    def shapes(self) -> list[SpectralField]:
        rng = np.random.default_rng(12)
        c = (rng.normal(size=(1, 7)) + 1j * rng.normal(size=(1, 7))) \
            / (1.0 + np.arange(7)) ** 1.5
        c[0, 0] = c[0, 0].real
        return [SpectralField(1, 6, c),
                scalar_field(6, {0: 1.0}),
                scalar_field(6, {6: 1.0}),
                scalar_field(6, {k: 0.5 for k in range(7)})]

    def first_step(self, u0: SpectralField) -> Trajectory:
        # f = -1 zeroes the drift, so after step 0 the field only decays
        # and cannot cross the cutoff that it did not cross at t = 0
        spec = polynomial_model(1.0, f_coeffs=(-1.0,))
        return run_mild(spec, Variant.PHI_ZERO, 0.0, u0, None,
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
                assert traj.censored == expected, (ratio, shape.coeffs)
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
        c, _ = self.make_pair(0.0, dt=0.05, record_stride=2)
        with pytest.raises(ValueError, match="different grids"):
            sup_distance(a, c)


class TestRecordingAndValidation:
    def test_record_stride(self):
        spec = polynomial_model(1.0)
        traj = run_mild(spec, Variant.PHI_ZERO, 0.0, zero_field(4), None,
                        config(max_mode=4, dt=0.05, t_final=0.5,
                               record_stride=2))
        np.testing.assert_allclose(traj.times, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])

    def test_config_variant_fallback(self):
        spec = polynomial_model(1.0)
        cfg = config(max_mode=4, variant=Variant.PHI_ZERO)
        traj = run_mild(spec, None, 0.0, zero_field(4), None, cfg)
        assert traj.variant is Variant.PHI_ZERO
        with pytest.raises(ValueError, match="variant"):
            run_mild(spec, None, 0.0, zero_field(4), None, config(max_mode=4))

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

    def test_simulation_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(max_mode=0, dt=0.1, t_final=1.0)
        with pytest.raises(ValueError):
            SimulationConfig(max_mode=4, dt=0.0, t_final=1.0)
        with pytest.raises(ValueError):
            SimulationConfig(max_mode=4, dt=0.5, t_final=0.1)
        with pytest.raises(ValueError):
            SimulationConfig(max_mode=4, dt=0.1, t_final=1.0,
                             record_stride=0)
        with pytest.raises(ValueError):
            SimulationConfig(max_mode=4, dt=0.1, t_final=1.0,
                             blowup_cutoff=0.0)
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
