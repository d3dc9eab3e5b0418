"""Tests for the drift-correction constants and lattice sums."""

import math

import numpy as np
import pytest

import spdelab.constants as constants_module
from spdelab import (QuadratureError, truncation_matched_constant,
                     white_noise_constant)
from spdelab.constants import alpha_constant, poly_constant, riemann_gap

# each public constant called at (nu, eps), and whether it reads eps
PUBLIC = {
    "white_noise_constant": (lambda nu, eps: white_noise_constant(nu), False),
    "alpha_constant": (lambda nu, eps: alpha_constant(nu, 0.25), False),
    "poly_constant": (lambda nu, eps: poly_constant(nu, (1.0, 1.0)), False),
    "truncation_matched_constant": (
        lambda nu, eps: truncation_matched_constant(nu, eps, 8), True),
    "riemann_gap": (riemann_gap, True)}


def alpha_quadrature(nu: float, alpha: float) -> float:
    # (1/(pi nu^{a+1/2})) int_0^inf x^{-2a}/(1+x^2) dx by adaptive
    # quadrature: the endpoint singularity on [0, 1] as an algebraic weight
    from scipy.integrate import quad

    head, e1 = quad(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, weight="alg",
                    wvar=(-2.0 * alpha, 0.0), epsabs=1e-13, epsrel=1e-12)
    tail, e2 = quad(lambda x: x ** (-2.0 * alpha) / (1.0 + x * x), 1.0,
                    math.inf, epsabs=1e-13, epsrel=1e-12)
    assert e1 + e2 < 1e-10
    return (head + tail) / (math.pi * nu ** (alpha + 0.5))


def riemann_gap_direct_sum(nu: float, eps: float) -> float:
    # the lattice sum summed directly up to a cutoff K, plus the exact
    # trigamma tail of its leading 1/(eps^2 k^2) behaviour; the residual of
    # that replacement is at most (1/eps^3)(1/(5 K^5) + nu/(3 K^3)) per
    # sign, and K keeps both signs together below 1e-12
    from scipy.special import polygamma

    cutoff = max(1000, math.ceil(
        (2.0 * (nu / 3.0 + 0.2) / (1e-12 * eps ** 3)) ** (1.0 / 3.0)))
    total = 0.0
    for lo in range(1, cutoff + 1, 1 << 20):
        k2 = np.arange(lo, min(cutoff, lo + (1 << 20) - 1) + 1,
                       dtype=np.float64)
        k2 *= k2
        den = (eps * eps) * k2
        den += nu
        den *= k2
        den += 1.0
        k2 /= den                      # sigma_k, in place
        total += float(np.sum(k2))
    tail = float(polygamma(1, cutoff + 1)) / (eps * eps)
    return abs(math.pi / math.sqrt(nu) - eps * (2.0 * total + 2.0 * tail))


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
                    alpha_quadrature(nu, alpha), rel=1e-9), (nu, alpha)

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

    def test_cubed_family(self):
        # Q(y) = (1+y)^3, a triple root: (1/pi) int dx/(1+x^2)^3 = 3/16
        assert poly_constant(1.0, (1.0, 3.0, 3.0, 1.0)) == pytest.approx(
            3.0 / 16.0, rel=1e-12)

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

    def test_closed_form_matches_direct_sum(self):
        # eps from 2^0 to 2^-13, and at and around the double root nu/2,
        # where the closed form switches to its sinh(pi(s - t))/(s - t) form
        for nu in (0.05, 0.3, 1.0, 3.0, 10.0):
            for eps in [2.0 ** -j for j in range(14)] + [
                    nu / 2.0 * (1.0 + d)
                    for d in (0.0, 1e-3, -1e-3, 1e-8, -1e-8)]:
                got = riemann_gap(nu, eps)
                assert type(got) is float
                assert got == pytest.approx(riemann_gap_direct_sum(nu, eps),
                                            abs=1e-12), (nu, eps)

    def test_validation(self):
        with pytest.raises(ValueError):
            riemann_gap(0.0, 0.5)
        with pytest.raises(ValueError):
            riemann_gap(1.0, 0.0)

    def test_out_of_range_sum_raises(self):
        # at nu = 1e40, sqrt(b) ~ 1e-20 and 1 - exp(-2 pi sqrt(b)) rounds
        # to 0: the gap must come back as an error, not as NaN
        with pytest.raises(FloatingPointError, match="out of floating"):
            riemann_gap(1e40, 0.5)
        assert riemann_gap(1.0, 1e220) == math.pi   # the sum itself is ~0


class TestQuadratureConfig:
    """The module-level tolerance and panel cap of poly_constant's rule."""

    def test_quadrature_error_is_raised(self, monkeypatch):
        # far too few panels for the tail's peak of width 1e-3 at t = 0
        monkeypatch.setattr(constants_module, "QUAD_MAX_PANELS", 64)
        with pytest.raises(QuadratureError, match="64 panels"):
            poly_constant(1.0, (1.0, 1e-6))

    def test_peaked_tail_converges_under_the_cap(self):
        # (1/pi) int dx/(1 + 1e-6 x^2) = 1/(2 sqrt(1e-6)) = 500
        assert poly_constant(1.0, (1.0, 1e-6)) == pytest.approx(500.0,
                                                                rel=1e-12)

    def test_too_peaked_tail_raises_under_the_default_cap(self):
        # the true value is 1/(2 sqrt(1e-12)) = 5e5; QUADPACK with its
        # 200 subdivisions returned 3.3e-12 here without raising
        with pytest.raises(QuadratureError):
            poly_constant(1.0, (1.0, 1e-12))


@pytest.mark.parametrize("name", sorted(PUBLIC))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_nu_or_eps_is_rejected(name, bad):
    # a NaN or infinite input gave NaN or 0.0, which the constants command
    # printed (NaN is not valid JSON) and exited 0
    call, reads_eps = PUBLIC[name]
    with pytest.raises(ValueError, match="nu must be positive and finite"):
        call(bad, 0.125)
    if reads_eps:
        with pytest.raises(ValueError, match="eps must be .* finite"):
            call(1.0, bad)
