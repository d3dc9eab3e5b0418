"""Tests for the spectral field representation, transforms, and norms."""

import math

import numpy as np
import pytest

import spdelab.spectral as spectral_module
from spdelab import SpectralField
from spdelab.spectral import (GridField, Workspace,
                              dealias_cut, derivative_coeffs, fast_grid_size,
                              from_grid, grid_coeffs, grid_values,
                              sobolev_norm, sup_norm, sup_norms, to_grid)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def nodes(grid: GridField) -> np.ndarray:
    """The grid's points x_j = 2 pi j / M."""
    return np.arange(grid.grid_size) * (2.0 * math.pi / grid.grid_size)


def dealiased(coeffs: np.ndarray) -> np.ndarray:
    """A copy with every mode above dealias_cut(N) zeroed, the slice
    models.drift applies to its result."""
    out = coeffs.copy()
    out[..., dealias_cut(coeffs.shape[-1] - 1) + 1:] = 0.0
    return out


def random_field(n_components: int, max_mode: int, seed: int) -> SpectralField:
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(n_components, max_mode + 1)) \
        + 1j * rng.normal(size=(n_components, max_mode + 1))
    coeffs[:, 0] = coeffs[:, 0].real
    return SpectralField(n_components, max_mode, coeffs)


def constant(value: float, max_mode: int) -> np.ndarray:
    """Coefficients (1, N+1) of the scalar field identically equal to
    value: the constant 1 has coefficient sqrt(2 pi)."""
    coeffs = np.zeros((1, max_mode + 1), dtype=np.complex128)
    coeffs[0, 0] = value * SQRT_2PI
    return coeffs


class TestSpectralField:
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


class TestGridTransforms:
    def test_constant_field_to_grid(self):
        # u_{i,0} = sqrt(2 pi) means the field is identically 1
        g = to_grid(SpectralField(1, 8, constant(1.0, 8)))
        np.testing.assert_allclose(g.values, 1.0, atol=1e-13)

    def test_cosine_mode(self):
        # u_1 = sqrt(pi/2) with the implied conjugate mode gives cos(x)
        coeffs = np.zeros((1, 4), dtype=np.complex128)
        coeffs[0, 1] = math.sqrt(math.pi / 2.0)
        g = to_grid(SpectralField(1, 3, coeffs))
        np.testing.assert_allclose(g.values[0], np.cos(nodes(g)), atol=1e-13)

    def test_sine_grid_to_modes(self):
        # sin(2x) has a purely imaginary +/-2 mode pair and nothing else
        n = 32
        x = 2.0 * math.pi * np.arange(n) / n
        f = from_grid(GridField(1, n, np.sin(2 * x)[None, :]), 8)
        assert abs(f.coeffs[0, 2].real) < 1e-12
        assert f.coeffs[0, 2].imag == pytest.approx(-math.sqrt(math.pi / 2),
                                                    abs=1e-12)
        others = np.delete(f.coeffs[0], 2)
        assert np.max(np.abs(others)) < 1e-12

    def test_constant_grid_to_modes(self):
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


def smooth(m: int) -> bool:
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


class TestFastGridSize:
    def test_smallest_smooth_size_at_least_points(self):
        for points in range(1, 2000):
            m = fast_grid_size(points)
            assert m >= points and smooth(m)
            assert not any(smooth(k) for k in range(points, m))

    def test_drift_grid_sizes(self):
        # degree-2 drift contracts 2N + floor(2N/3) + 1 for N = 10, 6144,
        # 6328, 8192 and 12288
        assert [fast_grid_size(p) for p in (27, 16385, 16875, 21846,
                                            32769)] == \
            [27, 16875, 16875, 21870, 32805]

    def test_equals_scipy_next_fast_len(self):
        # the sizes SciPy's real FFT would pick, for every n up to 2^20
        from scipy.fft import next_fast_len
        top = 1 << 20
        assert [fast_grid_size(n) for n in range(1, top + 1)] == \
            [next_fast_len(n, real=True) for n in range(1, top + 1)]

    def test_range(self):
        assert fast_grid_size(1 << 32) == 1 << 32
        for points in (0, (1 << 32) + 1):
            with pytest.raises(ValueError, match="grid size"):
                fast_grid_size(points)


class TestWorkspace:
    """Kernels that reuse a workspace's arrays give the bits of a fresh
    call, whatever the workspace held before, with the forward transform
    batched and row by row."""

    # powers of two, and the 2*3*5-smooth (odd) degree-2 drift grids of
    # N = 6328 and N = 12288; the crossover is moved to each side of m
    @pytest.mark.parametrize("m", [1 << 14, 1 << 15, 16875, 32805])
    def test_reused_transforms_equal_fresh_ones(self, monkeypatch, m):
        work = Workspace()
        # a 10-mode call on the grid a 20-mode call has filled must not see
        # the higher modes
        for modes in (20, 10, 20):
            coeffs = random_field(3, modes, modes).coeffs
            got = []
            for crossover in (m, m + 1):   # one call per row, one batched
                monkeypatch.setattr(spectral_module, "ROW_TRANSFORM_POINTS",
                                    crossover)
                fresh = grid_values(coeffs, m)
                assert np.array_equal(grid_values(coeffs, m, work), fresh)
                back = grid_coeffs(fresh, modes, work)
                assert np.array_equal(back, grid_coeffs(fresh, modes))
                assert np.array_equal(sup_norms(coeffs, work),
                                      sup_norms(coeffs))
                got.append((fresh, back.copy()))
            (rows, rows_back), (batched, batched_back) = got
            assert np.array_equal(rows, batched)
            assert np.array_equal(rows_back, batched_back)

    def test_result_is_the_workspace_array(self):
        # one buffer per role: a result is a C-contiguous view of its head,
        # which a smaller request reuses and a larger one remakes
        work = Workspace()
        coeffs = random_field(2, 8, 1).coeffs
        big = grid_values(coeffs, 64, work)
        small = grid_values(coeffs, 32, work)
        assert small.shape == (2, 32) and small.flags.c_contiguous
        assert np.shares_memory(small, big)
        assert np.shares_memory(grid_values(coeffs, 64, work), big)
        assert np.array_equal(grid_values(coeffs, 32, work),
                              grid_values(coeffs, 32))
        bigger = grid_values(coeffs, 128, work)
        assert not np.shares_memory(bigger, big)
        assert np.shares_memory(grid_values(coeffs, 64, work), bigger)
        # another role, or another dtype for the role, has its own buffer
        assert not np.shares_memory(work.array("other", (2, 64), np.float64),
                                    bigger)
        flags = work.array("grid", (2, 64), bool)
        assert flags.dtype == bool and not np.shares_memory(flags, bigger)


class TestDerivative:
    def test_order_zero_identity(self):
        f = random_field(2, 6, 5)
        np.testing.assert_array_equal(derivative_coeffs(f.coeffs, 0),
                                      f.coeffs)

    def test_cosine_derivative(self):
        coeffs = np.zeros((1, 4), dtype=np.complex128)
        coeffs[0, 1] = math.sqrt(math.pi / 2.0)
        g = to_grid(SpectralField(1, 3, derivative_coeffs(coeffs, 1)))
        np.testing.assert_allclose(g.values[0], -np.sin(nodes(g)),
                                   atol=1e-13)

    def test_second_derivative_mode_two(self):
        coeffs = np.zeros((1, 3), dtype=np.complex128)
        coeffs[0, 2] = 1.0
        d2 = derivative_coeffs(coeffs, 2)
        assert d2[0, 2] == pytest.approx(-4.0)

    def test_composition(self):
        # split application rounds k^a * k^b once more than direct k^(a+b)
        f = random_field(1, 8, 9)
        ab = derivative_coeffs(derivative_coeffs(f.coeffs, 2), 3)
        direct = derivative_coeffs(f.coeffs, 5)
        np.testing.assert_allclose(ab, direct, rtol=1e-15)

    def test_composition_exact_quarter_turns(self):
        # pure i^order bookkeeping is exact: order 4 is the identity scale
        f = random_field(1, 5, 10)
        k = np.arange(6, dtype=np.float64)
        np.testing.assert_array_equal(derivative_coeffs(f.coeffs, 4),
                                      f.coeffs * k ** 4)

    def test_commutes_with_dealias(self):
        f = random_field(1, 9, 13)
        a = dealiased(derivative_coeffs(f.coeffs, 1))
        b = derivative_coeffs(dealiased(f.coeffs), 1)
        np.testing.assert_array_equal(a, b)


class TestNorms:
    def test_mode_zero_unit(self):
        coeffs = np.zeros((1, 4), dtype=np.complex128)
        coeffs[0, 0] = 1.0
        for alpha in (-1.0, 0.0, 0.5, 2.0):
            assert sobolev_norm(coeffs, alpha, 1.0) == pytest.approx(1.0)

    def test_single_mode_weighting(self):
        # |u_1| = 1/sqrt(2) with its conjugate at alpha=1, nu=1:
        # sqrt((1+1)^1 * 2 * 1/2) = sqrt(2)
        coeffs = np.zeros((1, 2), dtype=np.complex128)
        coeffs[0, 1] = 1.0 / math.sqrt(2.0)
        assert sobolev_norm(coeffs, 1.0, 1.0) == pytest.approx(math.sqrt(2.0))

    def test_alpha_zero_is_l2(self):
        f = random_field(2, 7, 21)
        l2 = math.sqrt(float(np.sum(np.abs(f.coeffs[:, 0]) ** 2)
                             + 2.0 * np.sum(np.abs(f.coeffs[:, 1:]) ** 2)))
        assert sobolev_norm(f.coeffs, 0.0, 1.0) == pytest.approx(l2,
                                                                 rel=1e-12)

    def test_monotone_in_alpha(self):
        f = random_field(1, 8, 17)
        alphas = [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
        norms = [sobolev_norm(f.coeffs, a, 1.0) for a in alphas]
        assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:])), norms

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("lead", [(5,), (3, 4)])
    def test_stacked_norms_equal_each_row_alone(self, n, lead):
        # one call over a stack gives each field's own bits
        rng = np.random.default_rng(n + len(lead))
        shape = lead + (n, 40)
        coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for alpha, nu in ((0.6, 1.0), (-0.75, 0.25)):
            norms = sobolev_norm(coeffs, alpha, nu)
            assert norms.shape == lead
            for idx in np.ndindex(*lead):
                assert norms[idx] == sobolev_norm(coeffs[idx], alpha, nu)

    def test_matches_fsum_oracle(self):
        for seed, (n, alpha, nu) in enumerate([(1, 0.6, 1.0), (2, -0.75, 0.5),
                                               (3, 1.5, 2.0)]):
            f = random_field(n, 300, 600 + seed)
            oracle = math.sqrt(math.fsum(
                (1 if k == 0 else 2) * (1.0 + nu * k * k) ** alpha
                * abs(complex(c)) ** 2
                for row in f.coeffs for k, c in enumerate(row)))
            assert sobolev_norm(f.coeffs, alpha, nu) == pytest.approx(
                oracle, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("nu", [0.0, -1.0])
    def test_nonpositive_nu_rejected(self, nu):
        with pytest.raises(ValueError, match="nu must be positive"):
            sobolev_norm(random_field(1, 4, 0).coeffs, 0.5, nu)

    def test_sup_norm_constant(self):
        assert sup_norm(constant(-2.5, 4)) == pytest.approx(2.5)

    def test_sup_norm_cosine(self):
        coeffs = np.zeros((1, 4), dtype=np.complex128)
        coeffs[0, 1] = 0.7 * math.sqrt(math.pi / 2.0)
        assert sup_norm(coeffs) == pytest.approx(
            0.7, abs=1e-6)

    def test_sup_norm_vs_dense_oracle(self):
        # dense-sampling oracle: evaluate on a 64x oversampled grid.  Random
        # fields, and the top mode alone with its peak shifted across one
        # node spacing of sup_norms' grid, fast_grid_size(8 (2N+2))
        for max_mode in (1, 6, 63, 64, 100, 1023, 1024):
            m = fast_grid_size(8 * (2 * max_mode + 2))
            fields = [random_field(1, max_mode, 100 + seed)
                      for seed in range(5)]
            for shift in np.linspace(0.0, 1.0, 9):
                phase = np.exp(2j * math.pi * max_mode * shift / m)
                fields.append(SpectralField(
                    1, max_mode, single_mode(max_mode, max_mode, phase)))
            for f in fields:
                dense = to_grid(f, oversample=64)
                oracle = float(np.max(np.abs(dense.values)))
                approx = sup_norm(f.coeffs)
                assert abs(approx - oracle) <= 1e-3 * oracle, \
                    (max_mode, approx, oracle)


def sup_norms_by_rows(coeffs: np.ndarray) -> list:
    """sup_norms' parabola fit row by row in scalar arithmetic, as it was
    written before it became one array expression: the reference."""
    m = fast_grid_size(8 * (2 * (coeffs.shape[-1] - 1) + 2))
    a = np.abs(grid_values(coeffs, m))
    peaks = []
    for i, j in enumerate(np.argmax(a, axis=1)):
        y0, y1, y2 = a[i, j - 1], a[i, j], a[i, (j + 1) % m]
        denom = 2.0 * y1 - y0 - y2
        peaks.append(y1 + (y2 - y0) ** 2 / (8.0 * denom) if denom > 0.0
                     else y1)
    return peaks


class TestSupNormsArrayFit:
    @pytest.mark.parametrize("max_mode", [1, 6, 64, 1023])
    def test_equals_the_row_loop(self, max_mode):
        # random rows, a constant row (flat grid, no fit) and the top mode
        # alone; the square may round differently as an array, so the
        # tolerance is four units in the last place
        rows = np.concatenate([random_field(4, max_mode, max_mode).coeffs,
                               constant(-2.5, max_mode),
                               single_mode(max_mode, max_mode, 0.3 + 0.4j)])
        np.testing.assert_allclose(sup_norms(rows), sup_norms_by_rows(rows),
                                   rtol=4 * np.finfo(float).eps, atol=0.0)


def l1_bound(coeffs: np.ndarray) -> float:
    """max_i (|c_i0| + 2 sum_{k>=1} |c_ik|) / sqrt(2 pi) >= sup_x |u_i(x)|."""
    mag = np.abs(coeffs)
    return float(np.max(mag[:, 0] + 2.0 * mag[:, 1:].sum(axis=1))) / SQRT_2PI


def single_mode(max_mode: int, k: int, value: complex) -> np.ndarray:
    coeffs = np.zeros((1, max_mode + 1), dtype=np.complex128)
    coeffs[0, k] = value
    return coeffs


class TestSupNormBound:
    """sup_norm never exceeds 1.25 times the l1 bound: the parabola through
    the grid maximum y1 and its neighbours adds at most y1/4, and every grid
    value is at most the bound.  The integrator's guard relies on this."""

    def test_random_fields(self):
        for seed in range(40):
            n, max_mode = 1 + seed % 3, (1, 2, 5, 16, 63)[seed % 5]
            f = random_field(n, max_mode, 500 + seed).coeffs
            assert sup_norm(f) <= 1.25 * l1_bound(f)

    @pytest.mark.parametrize("max_mode", [1, 2, 7, 64])
    def test_adversarial_fields_where_the_bound_is_tight(self, max_mode):
        in_phase = np.full((1, max_mode + 1), 0.3, dtype=np.complex128)
        fields = [constant(-2.5, max_mode),
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
            grid = np.max(np.abs(to_grid(SpectralField(1, max_mode, f),
                                         oversample=8).values))
            assert grid <= sup_norm(f) <= 1.25 * grid
            assert sup_norm(f) <= 1.25 * l1_bound(f)


class TestDealias:
    def test_low_modes_unchanged(self):
        f = random_field(1, 9, 33)
        cut = 2 * 9 // 3
        assert dealias_cut(9) == cut
        low = f.coeffs.copy()
        low[:, cut + 1:] = 0
        np.testing.assert_array_equal(dealiased(low), low)

    def test_top_mode_zeroed(self):
        coeffs = np.zeros((1, 6), dtype=np.complex128)
        coeffs[0, 5] = 1.0 + 2.0j
        assert np.all(dealiased(coeffs) == 0)


def test_outputs_keep_mode_zero_real():
    f = random_field(2, 8, 41)
    results = [
        derivative_coeffs(f.coeffs, 1),
        dealiased(f.coeffs),
        from_grid(to_grid(f, 2), 8).coeffs,
    ]
    for r in results:
        assert np.all(r[:, 0].imag == 0.0)
