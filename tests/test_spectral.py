"""Tests for the spectral field representation, transforms, and norms."""

import math

import numpy as np
import pytest

from spdelab import (SpectralField, dealias, derivative, from_grid,
                     sobolev_norm, sup_norm, to_grid)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def random_field(n_components: int, max_mode: int, seed: int) -> SpectralField:
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(n_components, max_mode + 1)) \
        + 1j * rng.normal(size=(n_components, max_mode + 1))
    coeffs[:, 0] = coeffs[:, 0].real
    return SpectralField(n_components, max_mode, coeffs)


class TestSpectralField:
    def test_constant_sets_mode_zero(self):
        f = SpectralField.constant([3.0, -1.0], 4)
        assert f.coeffs[0, 0] == pytest.approx(3.0 * SQRT_2PI)
        assert f.coeffs[1, 0] == pytest.approx(-1.0 * SQRT_2PI)
        assert np.all(f.coeffs[:, 1:] == 0)

    def test_mode_zero_forced_real(self):
        coeffs = np.zeros((1, 3), dtype=np.complex128)
        coeffs[0, 0] = 2.0 + 1e-12j
        f = SpectralField(1, 2, coeffs)
        assert f.coeffs[0, 0].imag == 0.0

    def test_mode_zero_large_imaginary_rejected(self):
        coeffs = np.zeros((1, 3), dtype=np.complex128)
        coeffs[0, 0] = 2.0 + 0.5j
        with pytest.raises(ValueError):
            SpectralField(1, 2, coeffs)

    def test_nonfinite_rejected(self):
        coeffs = np.zeros((1, 3), dtype=np.complex128)
        coeffs[0, 1] = np.nan
        with pytest.raises(ValueError):
            SpectralField(1, 2, coeffs)

    def test_arithmetic(self):
        a = random_field(2, 5, 0)
        b = random_field(2, 5, 1)
        s = a + b
        d = a - b
        np.testing.assert_allclose(s.coeffs, a.coeffs + b.coeffs)
        np.testing.assert_allclose(d.coeffs, a.coeffs - b.coeffs)
        np.testing.assert_allclose((2.0 * a).coeffs, 2.0 * a.coeffs)


class TestGridTransforms:
    def test_constant_field_to_grid(self):
        # u_{i,0} = sqrt(2 pi) means the field is identically 1
        f = SpectralField.constant([1.0], 8)
        g = to_grid(f)
        np.testing.assert_allclose(g.values, 1.0, atol=1e-13)

    def test_cosine_mode(self):
        # u_1 = sqrt(pi/2) with the implied conjugate mode gives cos(x)
        coeffs = np.zeros((1, 4), dtype=np.complex128)
        coeffs[0, 1] = math.sqrt(math.pi / 2.0)
        g = to_grid(SpectralField(1, 3, coeffs))
        np.testing.assert_allclose(g.values[0], np.cos(g.nodes()), atol=1e-13)

    def test_sine_grid_to_modes(self):
        # sin(2x) has a purely imaginary +/-2 mode pair and nothing else
        n = 32
        x = 2.0 * math.pi * np.arange(n) / n
        from spdelab import GridField

        f = from_grid(GridField(1, n, np.sin(2 * x)[None, :]), 8)
        assert abs(f.coeffs[0, 2].real) < 1e-12
        assert f.coeffs[0, 2].imag == pytest.approx(-math.sqrt(math.pi / 2),
                                                    abs=1e-12)
        others = np.delete(f.coeffs[0], 2)
        assert np.max(np.abs(others)) < 1e-12

    def test_constant_grid_to_modes(self):
        from spdelab import GridField

        g = GridField(1, 16, np.full((1, 16), 2.5))
        f = from_grid(g, 7)
        assert f.coeffs[0, 0] == pytest.approx(2.5 * SQRT_2PI)
        assert np.max(np.abs(f.coeffs[0, 1:])) < 1e-12

    def test_round_trip(self):
        f = random_field(3, 9, 7)
        back = from_grid(to_grid(f, oversample=1), 9)
        np.testing.assert_allclose(back.coeffs, f.coeffs, atol=1e-12)

    def test_round_trip_oversampled(self):
        f = random_field(1, 6, 11)
        back = from_grid(to_grid(f, oversample=4), 6)
        np.testing.assert_allclose(back.coeffs, f.coeffs, atol=1e-12)

    def test_parseval(self):
        # grid mean square times 2 pi equals the coefficient sum
        f = random_field(2, 10, 3)
        g = to_grid(f, oversample=2)
        grid_sq = np.mean(g.values ** 2, axis=1) * 2.0 * math.pi
        coeff_sq = (np.abs(f.coeffs[:, 0]) ** 2
                    + 2.0 * np.sum(np.abs(f.coeffs[:, 1:]) ** 2, axis=1))
        np.testing.assert_allclose(grid_sq, coeff_sq, rtol=1e-10)

    def test_max_mode_too_large_rejected(self):
        f = random_field(1, 4, 0)
        g = to_grid(f)
        with pytest.raises(ValueError):
            from_grid(g, g.grid_size // 2)


class TestDerivative:
    def test_order_zero_identity(self):
        f = random_field(2, 6, 5)
        np.testing.assert_array_equal(derivative(f, 0).coeffs, f.coeffs)

    def test_cosine_derivative(self):
        coeffs = np.zeros((1, 4), dtype=np.complex128)
        coeffs[0, 1] = math.sqrt(math.pi / 2.0)
        g = to_grid(derivative(SpectralField(1, 3, coeffs), 1))
        np.testing.assert_allclose(g.values[0], -np.sin(g.nodes()),
                                   atol=1e-13)

    def test_second_derivative_mode_two(self):
        coeffs = np.zeros((1, 3), dtype=np.complex128)
        coeffs[0, 2] = 1.0
        d2 = derivative(SpectralField(1, 2, coeffs), 2)
        assert d2.coeffs[0, 2] == pytest.approx(-4.0)

    def test_composition(self):
        # split application rounds k^a * k^b once more than direct k^(a+b)
        f = random_field(1, 8, 9)
        ab = derivative(derivative(f, 2), 3)
        direct = derivative(f, 5)
        np.testing.assert_allclose(ab.coeffs, direct.coeffs, rtol=1e-15)

    def test_composition_exact_quarter_turns(self):
        # pure i^order bookkeeping is exact: order 4 is the identity scale
        f = random_field(1, 5, 10)
        k = np.arange(6, dtype=np.float64)
        np.testing.assert_array_equal(derivative(f, 4).coeffs,
                                      f.coeffs * k ** 4)

    def test_commutes_with_dealias(self):
        f = random_field(1, 9, 13)
        a = dealias(derivative(f, 1))
        b = derivative(dealias(f), 1)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)


class TestNorms:
    def test_mode_zero_unit(self):
        coeffs = np.zeros((1, 4), dtype=np.complex128)
        coeffs[0, 0] = 1.0
        f = SpectralField(1, 3, coeffs)
        for alpha in (-1.0, 0.0, 0.5, 2.0):
            assert sobolev_norm(f, alpha, 1.0) == pytest.approx(1.0)

    def test_single_mode_weighting(self):
        # |u_1| = 1/sqrt(2) with its conjugate at alpha=1, nu=1:
        # sqrt((1+1)^1 * 2 * 1/2) = sqrt(2)
        coeffs = np.zeros((1, 2), dtype=np.complex128)
        coeffs[0, 1] = 1.0 / math.sqrt(2.0)
        f = SpectralField(1, 1, coeffs)
        assert sobolev_norm(f, 1.0, 1.0) == pytest.approx(math.sqrt(2.0))

    def test_alpha_zero_is_l2(self):
        f = random_field(2, 7, 21)
        l2 = math.sqrt(float(np.sum(np.abs(f.coeffs[:, 0]) ** 2)
                             + 2.0 * np.sum(np.abs(f.coeffs[:, 1:]) ** 2)))
        assert sobolev_norm(f, 0.0, 1.0) == pytest.approx(l2, rel=1e-12)

    def test_monotone_in_alpha(self):
        f = random_field(1, 8, 17)
        alphas = [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
        norms = [sobolev_norm(f, a, 1.0) for a in alphas]
        assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:])), norms

    def test_sup_norm_constant(self):
        assert sup_norm(SpectralField.constant([-2.5], 4)) == pytest.approx(2.5)

    def test_sup_norm_cosine(self):
        coeffs = np.zeros((1, 4), dtype=np.complex128)
        coeffs[0, 1] = 0.7 * math.sqrt(math.pi / 2.0)
        assert sup_norm(SpectralField(1, 3, coeffs)) == pytest.approx(
            0.7, abs=1e-6)

    def test_sup_norm_vs_dense_oracle(self):
        # dense-sampling oracle: evaluate on a 64x oversampled grid
        for seed in range(5):
            f = random_field(1, 6, 100 + seed)
            dense = to_grid(f, oversample=64)
            oracle = float(np.max(np.abs(dense.values)))
            approx = sup_norm(f)
            assert abs(approx - oracle) <= 1e-3 * oracle, (seed, approx,
                                                           oracle)


def l1_bound(field: SpectralField) -> float:
    """max_i (|c_i0| + 2 sum_{k>=1} |c_ik|) / sqrt(2 pi) >= sup_x |u_i(x)|."""
    mag = np.abs(field.coeffs)
    return float(np.max(mag[:, 0] + 2.0 * mag[:, 1:].sum(axis=1))) / SQRT_2PI


def single_mode(max_mode: int, k: int, value: complex) -> SpectralField:
    coeffs = np.zeros((1, max_mode + 1), dtype=np.complex128)
    coeffs[0, k] = value
    return SpectralField(1, max_mode, coeffs)


class TestSupNormBound:
    """sup_norm never exceeds 1.25 times the l1 bound: the parabola through
    the grid maximum y1 and its neighbours adds at most y1/4, and every grid
    value is at most the bound.  The integrator's guard relies on this."""

    def test_random_fields(self):
        for seed in range(40):
            n, max_mode = 1 + seed % 3, (1, 2, 5, 16, 63)[seed % 5]
            f = random_field(n, max_mode, 500 + seed)
            assert sup_norm(f) <= 1.25 * l1_bound(f)

    @pytest.mark.parametrize("max_mode", [1, 2, 7, 64])
    def test_adversarial_fields_where_the_bound_is_tight(self, max_mode):
        in_phase = SpectralField(1, max_mode, np.full(
            (1, max_mode + 1), 0.3, dtype=np.complex128))
        fields = [SpectralField.constant([-2.5], max_mode),
                  single_mode(max_mode, max_mode, 1.0),
                  in_phase]
        for f in fields:
            bound = l1_bound(f)
            assert sup_norm(f) <= 1.25 * bound
            assert sup_norm(f) == pytest.approx(bound, rel=1e-12)

    @pytest.mark.parametrize("max_mode", [1, 3, 64])
    def test_peaks_between_grid_nodes(self, max_mode):
        # a top mode shifted by part of a grid spacing puts the true peak
        # between nodes, where the parabola correction is largest
        for shift in np.linspace(0.0, 1.0, 9):
            phase = np.exp(1j * math.pi * shift / (8 * max_mode))
            f = single_mode(max_mode, max_mode, phase)
            grid = np.max(np.abs(to_grid(f, oversample=8).values))
            assert grid <= sup_norm(f) <= 1.25 * grid
            assert sup_norm(f) <= 1.25 * l1_bound(f)


class TestDealias:
    def test_low_modes_unchanged(self):
        f = random_field(1, 9, 33)
        cut = 2 * 9 // 3
        low = f.coeffs.copy()
        low[:, cut + 1:] = 0
        g = dealias(SpectralField(1, 9, low))
        np.testing.assert_array_equal(g.coeffs, low)

    def test_top_mode_zeroed(self):
        coeffs = np.zeros((1, 6), dtype=np.complex128)
        coeffs[0, 5] = 1.0 + 2.0j
        g = dealias(SpectralField(1, 5, coeffs))
        assert np.all(g.coeffs == 0)


def test_outputs_keep_mode_zero_real():
    f = random_field(2, 8, 41)
    results = [
        derivative(f, 1),
        dealias(f),
        f + f,
        f - f,
        3.0 * f,
        from_grid(to_grid(f, 2), 8),
    ]
    for r in results:
        assert np.all(r.coeffs[:, 0].imag == 0.0)
