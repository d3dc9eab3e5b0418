"""Tests for the drift-correction constants and lattice sums."""

import math

import numpy as np
import pytest

import spdelab.constants as constants_module
from spdelab import (QuadratureError, truncation_matched_constant,
                     white_noise_constant)
from spdelab.constants import (_surrogate_mode_sum, alpha_constant,
                               poly_constant, riemann_gap)


def alpha_closed_form(nu: float, alpha: float) -> float:
    # int_0^inf x^{-2a}/(1+x^2) dx = (pi/2)/cos(pi a) for a in (0, 1/2)
    return 1.0 / (2.0 * nu ** (alpha + 0.5) * math.cos(math.pi * alpha))


class TestWhiteNoiseConstant:
    def test_values(self):
        assert white_noise_constant(1.0) == 0.5
        assert white_noise_constant(4.0) == 0.25
        assert white_noise_constant(0.25) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            white_noise_constant(0.0)


class TestAlphaConstant:
    def test_quarter_is_inverse_sqrt2(self):
        assert alpha_constant(1.0, 0.25) == pytest.approx(1.0 / math.sqrt(2.0),
                                                          abs=1e-8)

    def test_closed_form_sweep(self):
        for nu in (0.5, 1.0, 3.0):
            for alpha in (0.05, 0.2, 0.35, 0.45):
                assert alpha_constant(nu, alpha) == pytest.approx(
                    alpha_closed_form(nu, alpha), rel=1e-9), (nu, alpha)

    def test_small_alpha_approaches_white_noise(self):
        for nu in (0.5, 1.0, 2.0):
            got = alpha_constant(nu, 1e-4)
            assert got == pytest.approx(white_noise_constant(nu), abs=1e-3)

    def test_nu_scaling(self):
        alpha = 0.3
        base = alpha_constant(1.0, alpha)
        for nu in (0.5, 2.0, 7.0):
            expected = base * nu ** (-alpha - 0.5)
            assert alpha_constant(nu, alpha) == pytest.approx(expected,
                                                              rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            alpha_constant(0.0, 0.25)
        for bad in (0.0, 0.5, -0.1, 0.9):
            with pytest.raises(ValueError):
                alpha_constant(1.0, bad)


class TestPolyConstant:
    def test_default_family_recovers_white_noise(self):
        # Q(y) = 1 + y/nu gives 1/(pi nu) int dx/(1 + x^2/nu) = 1/(2 sqrt(nu))
        for nu in (0.5, 1.0, 2.0):
            got = poly_constant(nu, (1.0, 1.0 / nu))
            assert got == pytest.approx(white_noise_constant(nu), rel=1e-10)

    def test_squared_family(self):
        # Q(y) = (1+y)^2: (1/pi) int dx/(1+x^2)^2 = 1/4
        assert poly_constant(1.0, (1.0, 2.0, 1.0)) == pytest.approx(0.25,
                                                                    rel=1e-10)

    def test_quartic_vs_quadrature_oracle(self):
        # independent oracle on the same integral with a plain finite split
        from scipy.integrate import quad

        coeffs = (1.0, 0.3, 0.0, 2.0)

        def q(y):
            return 1.0 + 0.3 * y + 2.0 * y ** 3

        head, e1 = quad(lambda x: 1.0 / q(x * x), 0.0, 1.0, epsabs=1e-13,
                        epsrel=1e-12)
        # t^6 q(1/t^2) expands to t^6 + 0.3 t^4 + 2, smooth at t = 0
        tail, e2 = quad(lambda t: t ** 4 / (t ** 6 + 0.3 * t ** 4 + 2.0),
                        0.0, 1.0, epsabs=1e-13, epsrel=1e-12)
        assert e1 + e2 < 1e-11
        oracle = (head + tail) / math.pi
        assert poly_constant(1.0, coeffs) == pytest.approx(oracle, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            poly_constant(1.0, (1.0,))          # degree 0
        with pytest.raises(ValueError):
            poly_constant(1.0, (2.0, 1.0))      # Q(0) != 1
        with pytest.raises(ValueError):
            poly_constant(1.0, (1.0, -1.0))     # negative leading coefficient
        with pytest.raises(ValueError):
            poly_constant(1.0, (1.0, -2.0, 1.0))  # root at y = 1
        with pytest.raises(ValueError):
            poly_constant(0.0, (1.0, 1.0))


class TestTruncationMatchedConstant:
    def test_monotone_in_modes(self):
        vals = [truncation_matched_constant(1.0, 0.25, n)
                for n in (0, 1, 2, 4, 8, 16, 32, 64, 128)]
        assert vals[0] == 0.0
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_limit_is_white_noise_constant(self):
        # eps -> 0 with eps*N fixed large: deficit shrinks with eps*N
        for eps_n in (64.0, 256.0):
            eps = 1e-3
            got = truncation_matched_constant(1.0, eps, int(eps_n / eps))
            assert got < white_noise_constant(1.0)
            assert got == pytest.approx(white_noise_constant(1.0),
                                        rel=4.0 / eps_n)

    def test_deficit_at_working_resolution(self):
        # at eps*N = 8 the matched constant sits well below the limit; the
        # exact deficit is resolution- and eps-dependent, so only bracket it
        eps = 2.0 ** -6
        got = truncation_matched_constant(1.0, eps, int(8 / eps))
        deficit = 1.0 - got / white_noise_constant(1.0)
        print(f"truncation deficit at eps*N=8: {deficit:.4f}")
        assert 0.04 <= deficit <= 0.16, deficit

    def test_validation(self):
        with pytest.raises(ValueError):
            truncation_matched_constant(0.0, 0.1, 4)
        with pytest.raises(ValueError):
            truncation_matched_constant(1.0, -0.1, 4)
        with pytest.raises(ValueError):
            truncation_matched_constant(1.0, 0.1, -1)


class TestRiemannGap:
    def test_linear_in_eps_sweep(self):
        for j in range(1, 11):
            eps = 2.0 ** -j
            assert riemann_gap(1.0, eps) <= 5.0 * eps, j

    def test_gap_decreases(self):
        gaps = [riemann_gap(1.0, 2.0 ** -j) for j in range(1, 9)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_other_nu(self):
        for nu in (0.5, 2.0):
            for j in (2, 5, 8):
                eps = 2.0 ** -j
                # gap stays O(eps) with a nu-dependent prefactor
                assert riemann_gap(nu, eps) <= 10.0 * eps / math.sqrt(nu)

    def test_surrogate_sum_matches_coth_closed_form(self):
        # sum_k eps/(nu + eps^2 k^2) = (pi/sqrt(nu)) coth(pi sqrt(nu)/eps)
        for nu in (0.5, 1.0, 2.0):
            for eps in (1.0, 0.25, 2.0 ** -6):
                x = math.pi * math.sqrt(nu) / eps
                closed = (math.pi / math.sqrt(nu)) / math.tanh(x)
                assert _surrogate_mode_sum(nu, eps) == pytest.approx(
                    closed, rel=1e-11), (nu, eps)

    def test_validation(self):
        with pytest.raises(ValueError):
            riemann_gap(0.0, 0.5)
        with pytest.raises(ValueError):
            riemann_gap(1.0, 0.0)


class TestQuadratureConfig:
    """The module-level tolerances and subdivision budget of the quadratures."""

    def test_quadrature_error_is_raised(self, monkeypatch):
        # far too few subdivisions for the near-singular endpoint
        import warnings

        monkeypatch.setattr(constants_module, "QUAD_ABS_TOL", 1e-13)
        monkeypatch.setattr(constants_module, "QUAD_REL_TOL", 1e-13)
        monkeypatch.setattr(constants_module, "QUAD_LIMIT", 10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(QuadratureError):
                alpha_constant(1.0, 0.4999)
