"""Tests for operator symbols, semigroups, and exponential-integrator weights."""

import math

import numpy as np
import pytest

from spdelab import SpectralField
from spdelab.linops import OperatorSpec, apply_semigroup, etd_weights, symbols
from spdelab.spectral import sobolev_norm


def random_field(max_mode: int, seed: int) -> SpectralField:
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(1, max_mode + 1)) * (1.0 + 1j)
    c[:, 0] = c[:, 0].real
    return SpectralField(1, max_mode, c)


class TestOperatorSpec:
    def test_nonpositive_nu_rejected(self):
        with pytest.raises(ValueError):
            OperatorSpec(0.0)


class TestSymbol:
    def test_mode_zero_always_minus_one(self):
        for op in (OperatorSpec(1.0), OperatorSpec(0.5, 0.7),
                   OperatorSpec(2.0, 0.3)):
            assert symbols(op, 0) == -1.0

    def test_bits_of_horner_form(self):
        # the symbol keeps the rounding of Horner's rule on the polynomial
        # 1 + y/nu at y = eps^2 k^2, on which the pinned outputs rest
        ks = np.arange(40000, dtype=np.float64)
        for nu in (0.1, 0.5, 0.7, 1.0, 1.3, 2.0, 1.0 / 3.0):
            for eps in (0.0, 2.0 ** -13, 2.0 ** -7, 0.1, 0.3, 0.5):
                q = np.polynomial.polynomial.polyval(
                    eps ** 2 * ks ** 2, np.array([1.0, 1.0 / nu]))
                expected = -(1.0 + nu * ks ** 2 * q)
                assert np.array_equal(symbols(OperatorSpec(nu, eps), ks),
                                      expected), (nu, eps)

    def test_pinned_value(self):
        # nu=1, eps=1/2, k=2: -(1 + 4 + (1/4)*16) = -9
        assert symbols(OperatorSpec(1.0, 0.5), 2) == pytest.approx(-9.0)

    def test_eps_zero_heat_symbol(self):
        op = OperatorSpec(2.0, 0.0)
        for k in range(7):
            assert symbols(op, k) == pytest.approx(-(1.0 + 2.0 * k * k))

    def test_negative_k_symmetric(self):
        op = OperatorSpec(1.0, 0.25)
        assert symbols(op, -3) == symbols(op, 3)

    def test_monotone_in_k_and_eps(self):
        ks = np.arange(0, 33)
        lam_a = symbols(OperatorSpec(1.0, 0.25), ks)
        lam_b = symbols(OperatorSpec(1.0, 0.5), ks)
        assert np.all(np.diff(lam_a) < 0)
        assert np.all(lam_b[1:] < lam_a[1:])
        assert np.all(lam_a <= -1.0)


class TestSemigroup:
    def test_t_zero_identity(self):
        f = random_field(6, 0)
        g = apply_semigroup(OperatorSpec(1.0, 0.5), f, 0.0)
        np.testing.assert_array_equal(g.coeffs, f.coeffs)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            apply_semigroup(OperatorSpec(1.0), random_field(3, 1), -0.1)

    def test_halving_time(self):
        # lambda_2 = -9 for nu=1, eps=1/2; t = ln2/9 halves that mode
        f = random_field(4, 2)
        g = apply_semigroup(OperatorSpec(1.0, 0.5), f, math.log(2.0) / 9.0)
        assert g.coeffs[0, 2] == pytest.approx(f.coeffs[0, 2] / 2.0,
                                               rel=1e-12)

    def test_semigroup_property(self):
        op = OperatorSpec(0.7, 0.3)
        f = random_field(8, 3)
        ab = apply_semigroup(op, apply_semigroup(op, f, 0.2), 0.35)
        direct = apply_semigroup(op, f, 0.55)
        np.testing.assert_allclose(ab.coeffs, direct.coeffs, rtol=1e-12)

    def test_contraction_in_sobolev_norms(self):
        op = OperatorSpec(1.0, 0.25)
        f = random_field(10, 4)
        for alpha in (-0.75, 0.0, 1.0):
            before = sobolev_norm(f.coeffs, alpha, op.nu)
            after = sobolev_norm(apply_semigroup(op, f, 0.13).coeffs, alpha,
                                 op.nu)
            assert after <= before * math.exp(-0.13) + 1e-12

    def test_smoothing_bound_sweep(self):
        # e^{lam_k t} (1+nu k^2)^{d/2} <= C min(t^{-d/2}, (eps^2 t)^{-d/4});
        # C frozen from a calibration sweep (max observed 0.78 for d=1 and
        # 0.86 for d=2)
        ks = np.arange(0, 513)
        k2 = ks.astype(np.float64) ** 2
        ts = np.logspace(-8, 2, 121)
        for d in (1.0, 2.0):
            for nu in (0.5, 1.0, 2.0):
                for eps in (1e-3, 0.1, 0.5, 1.0):
                    lam = symbols(OperatorSpec(nu, eps), ks)
                    w = (1.0 + nu * k2) ** (d / 2.0)
                    for t in ts:
                        lhs = float(np.max(np.exp(lam * t) * w))
                        rhs = min(t ** (-d / 2.0),
                                  (eps * eps * t) ** (-d / 4.0))
                        assert lhs <= 0.95 * rhs, (d, nu, eps, t, lhs, rhs)


class TestEtdWeight:
    def test_series_branch(self):
        # below the threshold the weight is h(1 + lam h/2 + (lam h)^2/6 + ...)
        lam, h = -1e-9, 0.5
        series = h * (1.0 + lam * h / 2.0 + (lam * h) ** 2 / 6.0)
        assert etd_weights(lam, h) == pytest.approx(series, rel=1e-14)
        assert etd_weights(-1e-13, h) == pytest.approx(h, rel=1e-12)

    def test_pinned_value(self):
        assert etd_weights(-1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0),
                                                       rel=1e-12)

    def test_saturation(self):
        assert etd_weights(-5e4, 1.0) == pytest.approx(2e-5, rel=1e-10)

    def test_vector_matches_scalar(self):
        # a scalar rate takes the same branches as an array of rates
        lams = np.array([-1e-9, -1e-6, -1e-3, -1.0, -100.0, -1e6])
        h = 0.01
        vec = etd_weights(lams, h)
        for lam, w in zip(lams, vec):
            assert w == etd_weights(float(lam), h)

    def test_continuity_across_series_threshold(self):
        # the piecewise definition must not jump at |lam h| = 1e-5
        h = 1.0
        below = etd_weights(-1e-5 * (1 - 1e-9), h)
        above = etd_weights(-1e-5 * (1 + 1e-9), h)
        assert below == pytest.approx(above, rel=1e-10)

    def test_against_quadrature_oracle(self):
        # weight = int_0^h e^{lam (h-s)} ds
        from scipy.integrate import quad

        for lam, h in ((-2.5, 0.3), (-40.0, 0.05), (-0.579, 1.7)):
            oracle, err = quad(lambda s: math.exp(lam * (h - s)), 0.0, h,
                               epsabs=1e-14, epsrel=1e-12)
            assert err < 1e-10
            assert etd_weights(lam, h) == pytest.approx(oracle, rel=1e-10)

    def test_nonpositive_h_rejected(self):
        with pytest.raises(ValueError):
            etd_weights(-1.0, 0.0)


class TestSemigroupGap:
    """|exp(lambda^eps_k t) - exp(lambda^0_k t)|, the gap between the
    perturbed and unperturbed semigroups, from the symbols."""

    @staticmethod
    def gap(nu: float, eps: float, k: int, t: float) -> float:
        lam_eps, lam_0 = (float(symbols(OperatorSpec(nu, e), k))
                          for e in (eps, 0.0))
        return math.exp(lam_0 * t) * -math.expm1((lam_eps - lam_0) * t)

    def test_matches_direct_difference(self):
        nu, eps = 1.0, 0.3
        for k in (1, 2, 7):
            for t in (0.01, 0.5, 3.0):
                direct = (math.exp(-(1 + nu * k * k) * t)
                          - math.exp(-(1 + nu * k * k + eps ** 2 * k ** 4) * t))
                got = self.gap(nu, eps, k, t)
                assert got == pytest.approx(direct, rel=1e-12, abs=1e-300)

    def test_bound_sweep(self):
        # gap <= e^{-(1+nu k^2) t} min(eps^2 k^4 t, 1) since 1-e^{-x}<=min(x,1)
        nu = 1.0
        for eps in (0.1, 0.5, 1.0):
            for k in (1, 2, 4, 8, 16):
                for t in np.logspace(-4, 1, 40):
                    gap = self.gap(nu, eps, k, t)
                    bound = math.exp(-(1 + nu * k * k) * t) * min(
                        eps ** 2 * k ** 4 * t, 1.0)
                    assert gap <= bound * (1 + 1e-12), (eps, k, t)
