"""Tests for the model families, drift evaluation, and corrected limits."""

import math

import numpy as np
import pytest

import spdelab.models as models_module
import spdelab.spectral as spectral_module
from spdelab import (CallbackError, ModelSpec, SpectralField,
                     model_from_config, polynomial_model, sin_g_model,
                     white_noise_constant)
from spdelab.models import (PolynomialPotential,
                            check_effective_drift_identity, drift,
                            drift_grid_size, effective_drift, eval_F_bar,
                            eval_F_eps, eval_G, eval_G_bar, from_potential,
                            plan_F_bar, plan_F_eps, plan_G,
                            random_polynomial_potential, validate_model)
from spdelab.spectral import (ROW_TRANSFORM_POINTS, GridField, Workspace,
                              dealias_cut, derivative_coeffs, from_grid,
                              grid_values)

ROOT_2PI = math.sqrt(2.0 * math.pi)


def scalar_field(max_mode: int, coeffs: dict[int, complex]) -> SpectralField:
    c = np.zeros((1, max_mode + 1), dtype=np.complex128)
    for k, v in coeffs.items():
        c[0, k] = v
    return SpectralField(1, max_mode, c)


def constant_field(max_mode: int, value: float) -> SpectralField:
    return scalar_field(max_mode, {0: ROOT_2PI * value})


# ---------------------------------------------------------------------------
# Independent oracle: exact mode-space convolution on full two-sided arrays.
# Index k is stored at k + K; products use (a b)_k =
# (1/sqrt(2pi)) sum_{i+j=k} a_i b_j, exact for band-limited fields.


class FullSeries:
    def __init__(self, K: int, coeffs: np.ndarray):
        self.K = K
        self.c = coeffs  # complex, length 2K+1

    @classmethod
    def from_field(cls, field: SpectralField, K: int) -> "FullSeries":
        c = np.zeros(2 * K + 1, dtype=np.complex128)
        n = field.max_mode
        c[K:K + n + 1] = field.coeffs[0]
        c[K - n:K] = np.conj(field.coeffs[0, 1:][::-1])
        return cls(K, c)

    @classmethod
    def one(cls, K: int) -> "FullSeries":
        c = np.zeros(2 * K + 1, dtype=np.complex128)
        c[K] = ROOT_2PI
        return cls(K, c)

    def __mul__(self, other: "FullSeries") -> "FullSeries":
        full = np.convolve(self.c, other.c) / ROOT_2PI
        mid = len(full) // 2
        return FullSeries(self.K, full[mid - self.K:mid + self.K + 1])

    def __add__(self, other: "FullSeries") -> "FullSeries":
        return FullSeries(self.K, self.c + other.c)

    def scaled(self, a: complex) -> "FullSeries":
        return FullSeries(self.K, a * self.c)

    def derivative(self, order: int) -> "FullSeries":
        k = np.arange(-self.K, self.K + 1, dtype=np.float64)
        return FullSeries(self.K, (1j * k) ** order * self.c)

    def polynomial(self, coeffs) -> "FullSeries":
        out = FullSeries.one(self.K).scaled(coeffs[0])
        power = FullSeries.one(self.K)
        for c in coeffs[1:]:
            power = power * self
            out = out + power.scaled(c)
        return out

    def to_hermitian(self, max_mode: int, cutoff_fraction: float = 2.0 / 3.0
                     ) -> np.ndarray:
        out = self.c[self.K:self.K + max_mode + 1].copy()
        cut = int(math.floor(cutoff_fraction * max_mode))
        out[cut + 1:] = 0.0
        return out


def oracle_F_eps(u: SpectralField, eps: float, f=None, g=None, h=None,
                 K: int = 48) -> np.ndarray:
    s = FullSeries.from_field(u, K)
    out = FullSeries.one(K)
    if f is not None:
        out = out + s.polynomial(f)
    if eps and g is not None:
        out = out + (s.polynomial(g) * s.derivative(2)).scaled(eps)
    if eps and h is not None:
        ux = s.derivative(1)
        out = out + (s.polynomial(h) * (ux * ux)).scaled(eps)
    return out.to_hermitian(u.max_mode)


class TestEvalFEps:
    def test_constant_field(self):
        # u = c: the derivative channels vanish, F = 1 + f(c)
        spec = polynomial_model(1.0, f_coeffs=(0.5, 0.0, 1.0),
                                g_coeffs=(1.0, 2.0), h_coeffs=(3.0,))
        c = 0.7
        out = eval_F_eps(spec, 0.3, constant_field(8, c))
        expected = 1.0 + 0.5 + c * c
        assert out.coeffs[0, 0] == pytest.approx(ROOT_2PI * expected,
                                                 rel=1e-12)
        np.testing.assert_allclose(out.coeffs[0, 1:], 0.0, atol=1e-12)

    def test_gradient_square_of_cosine(self):
        # h = 1, u = a cos x: eps (u_x)^2 = eps a^2 sin^2 x
        #   = eps a^2/2 - (eps a^2/2) cos 2x, so only modes 0 and 2 appear
        a, eps = 1.3, 0.25
        u = scalar_field(8, {1: a * math.sqrt(math.pi / 2.0)})
        out = eval_F_eps(polynomial_model(1.0, h_coeffs=(1.0,)), eps, u)
        assert out.coeffs[0, 0] == pytest.approx(
            ROOT_2PI * (1.0 + eps * a * a / 2.0), rel=1e-12)
        assert out.coeffs[0, 2] == pytest.approx(
            -ROOT_2PI * eps * a * a / 4.0, rel=1e-12)
        mask = np.ones(9, dtype=bool)
        mask[[0, 2]] = False
        np.testing.assert_allclose(out.coeffs[0, mask], 0.0, atol=1e-12)

    def test_eps_zero_is_reaction_only(self):
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0),
                                g_coeffs=(0.0, 5.0), h_coeffs=(7.0,))
        bare = polynomial_model(1.0, f_coeffs=(0.0, -1.0))
        u = scalar_field(8, {0: 0.4, 1: 0.3 + 0.2j, 2: -0.1j})
        a = eval_F_eps(spec, 0.0, u)
        b = eval_F_eps(bare, 0.0, u)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_convolution_oracle_each_channel(self):
        # band-limited input, every channel checked against an exact
        # mode-space convolution including the dealias cut
        u = scalar_field(8, {0: 0.31, 1: 0.22 - 0.11j, 2: -0.07 + 0.19j})
        eps = 0.37
        cases = [
            dict(f=(0.2, -1.0, 0.5, 0.3)),
            dict(g=(1.0, 0.8)),
            dict(h=(0.6, -0.4)),
            dict(f=(0.0, -1.0, 0.0, 0.2), g=(0.5, 0.7), h=(1.0, 0.3)),
        ]
        for case in cases:
            spec = polynomial_model(1.0, f_coeffs=case.get("f"),
                                    g_coeffs=case.get("g"),
                                    h_coeffs=case.get("h"))
            got = eval_F_eps(spec, eps, u)
            want = oracle_F_eps(u, eps, **case)
            np.testing.assert_allclose(got.coeffs[0], want, atol=1e-10), case

    def test_even_field_stays_even(self):
        # real (cosine) coefficients: all channels preserve evenness
        spec = polynomial_model(1.0, f_coeffs=(0.1, -1.0, 0.4),
                                g_coeffs=(0.3, 0.5), h_coeffs=(0.8, 0.2))
        u = scalar_field(8, {0: 0.5, 1: 0.4, 2: -0.3})
        out = eval_F_eps(spec, 0.5, u)
        np.testing.assert_allclose(out.coeffs[0].imag, 0.0, atol=1e-13)

    def test_validation(self):
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0))
        u = scalar_field(4, {1: 1.0})
        with pytest.raises(ValueError):
            eval_F_eps(spec, -0.1, u)
        two = SpectralField(2, 4, np.zeros((2, 5), dtype=np.complex128))
        with pytest.raises(ValueError):
            eval_F_eps(spec, 0.1, two)


class TestEffectiveDrift:
    def test_pure_gradient_square_unit_constant(self):
        # nu = 1/4, h = 1: fbar = c tr h = 1/(2 sqrt(1/4)) = 1 identically
        spec = polynomial_model(0.25, h_coeffs=(1.0,))
        fbar = effective_drift(spec)
        u = np.linspace(-2.0, 2.0, 9)[None]
        np.testing.assert_allclose(fbar(u), np.ones_like(u), atol=1e-14)

    def test_sin_g_correction(self):
        # g = sin u at nu = 1: fbar = f - cos(u)/2
        spec = sin_g_model(1.0, f_coeffs=(0.0, -1.0))
        fbar = effective_drift(spec)
        u = np.linspace(-3.0, 3.0, 11)[None]
        np.testing.assert_allclose(fbar(u), -u - 0.5 * np.cos(u), atol=1e-14)

    def test_constant_g_leaves_f_unchanged(self):
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0), g_coeffs=(4.0,))
        fbar = effective_drift(spec)
        u = np.array([[0.3, -1.2, 2.0]])
        np.testing.assert_allclose(fbar(u), -u, atol=1e-14)

    def test_explicit_constant_overrides_default(self):
        spec = polynomial_model(1.0, h_coeffs=(1.0,))
        u = np.array([[0.0, 1.0]])
        np.testing.assert_allclose(effective_drift(spec, 0.37)(u), 0.37)
        np.testing.assert_allclose(effective_drift(spec)(u),
                                   white_noise_constant(1.0))

    def test_eval_F_bar_matches_pointwise(self):
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0), h_coeffs=(1.0,))
        u = scalar_field(8, {0: 0.2, 1: 0.5 - 0.3j})
        out = eval_F_bar(spec, u)
        # fbar is affine in u here: 1 + fbar(u) = 1 + c - u
        c = white_noise_constant(1.0)
        want = scalar_field(
            8, {0: ROOT_2PI * (1.0 + c) - 0.2, 1: -(0.5 - 0.3j)}).coeffs
        want[:, dealias_cut(8) + 1:] = 0.0
        np.testing.assert_allclose(out.coeffs, want, atol=1e-12)


class TestGradientVariants:
    def test_g_channel_rejected(self):
        spec = polynomial_model(1.0, g_coeffs=(1.0, 1.0))
        u = scalar_field(4, {1: 0.5})
        with pytest.raises(ValueError):
            eval_G(spec, u)
        with pytest.raises(ValueError):
            eval_G_bar(spec, u)

    def test_eval_G_oracle(self):
        u = scalar_field(8, {0: 0.31, 1: 0.22 - 0.11j, 2: -0.07 + 0.19j})
        spec = polynomial_model(1.0, f_coeffs=(0.1, -1.0, 0.2),
                                h_coeffs=(0.9, -0.5))
        got = eval_G(spec, u)
        s = FullSeries.from_field(u, 48)
        ux = s.derivative(1)
        want = (s.polynomial((0.1, -1.0, 0.2))
                + s.polynomial((0.9, -0.5)) * (ux * ux)).to_hermitian(8)
        np.testing.assert_allclose(got.coeffs[0], want, atol=1e-10)

    def test_G_bar_shifts_by_constant_trace(self):
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0), h_coeffs=(1.0,))
        u = scalar_field(8, {0: 0.2, 1: 0.4 + 0.1j, 2: 0.05})
        plain = eval_G(spec, u)
        shifted = eval_G_bar(spec, u, constant=0.25)
        diff = shifted.coeffs - plain.coeffs
        assert diff[0, 0] == pytest.approx(0.25 * ROOT_2PI, rel=1e-12)
        np.testing.assert_allclose(diff[0, 1:], 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Oracle for the batched transform: the same drifts with one grid transform
# per derivative order on the model's drift grid, as they were evaluated
# before the transforms were batched.


def separate_grids(spec: ModelSpec, u: SpectralField,
                   order: int = 0) -> np.ndarray:
    return grid_values(derivative_coeffs(u.coeffs, order),
                       drift_grid_size(u.max_mode, spec.degree))


def project(out: np.ndarray, u: SpectralField) -> np.ndarray:
    grid = GridField(u.n_components, out.shape[1], out)
    coeffs = from_grid(grid, u.max_mode).coeffs
    coeffs[:, dealias_cut(u.max_mode) + 1:] = 0.0
    return coeffs


def separate_F_eps(spec: ModelSpec, eps: float, u: SpectralField):
    vals = separate_grids(spec, u)
    out = np.ones_like(vals)
    if spec.f is not None:
        out += spec.f(vals)
    if eps != 0.0 and spec.g is not None:
        out += eps * np.einsum("ij...,j...->i...", spec.g(vals),
                               separate_grids(spec, u, 2))
    if eps != 0.0 and spec.h is not None:
        ux = separate_grids(spec, u, 1)
        out += eps * np.einsum("ijl...,j...,l...->i...", spec.h(vals), ux, ux)
    return project(out, u)


def separate_F_bar(spec: ModelSpec, u: SpectralField, constant: float):
    vals = separate_grids(spec, u)
    return project(np.ones_like(vals) + effective_drift(spec, constant)(vals),
                   u)


def separate_G(spec: ModelSpec, u: SpectralField, constant):
    vals = separate_grids(spec, u)
    out = np.zeros_like(vals)
    if spec.f is not None:
        out += spec.f(vals)
    if spec.h is not None:
        hv = spec.h(vals)
        ux = separate_grids(spec, u, 1)
        out += np.einsum("ijl...,j...,l...->i...", hv, ux, ux)
        if constant is not None:
            out += constant * np.einsum("ijj...->i...", hv)
    return project(out, u)


def random_smooth_field(n: int, max_mode: int, seed: int) -> SpectralField:
    rng = np.random.default_rng(seed)
    c = (rng.normal(size=(n, max_mode + 1))
         + 1j * rng.normal(size=(n, max_mode + 1))) \
        * 0.3 / (1.0 + np.arange(max_mode + 1)) ** 2
    c[:, 0] = c[:, 0].real
    return SpectralField(n, max_mode, c)


def drift_models() -> list[ModelSpec]:
    """n = 1 and n = 2 models with every channel, and without g."""
    full1 = polynomial_model(0.8, f_coeffs=(0.1, -1.0, 0.2),
                             g_coeffs=(0.5, 0.3), h_coeffs=(0.9, -0.5))
    pot = random_polynomial_potential(2, 4, np.random.default_rng(3))
    full2, _ = from_potential(pot, 1.5, 0.2)
    return [full1, full2, polynomial_model(1.0, g_coeffs=(1.0, -0.4)),
            polynomial_model(1.0, h_coeffs=(1.0,)),
            polynomial_model(1.0, f_coeffs=(0.0, -1.0))]


class TestBatchedTransform:
    def test_bit_identical_to_one_transform_per_order(self):
        for i, spec in enumerate(drift_models()):
            for max_mode in (5, 16, 33):
                u = random_smooth_field(spec.n, max_mode, 10 * i + max_mode)
                for eps in (0.0, 0.3):
                    assert np.array_equal(eval_F_eps(spec, eps, u).coeffs,
                                          separate_F_eps(spec, eps, u))
                assert np.array_equal(eval_F_bar(spec, u, constant=0.4).coeffs,
                                      separate_F_bar(spec, u, 0.4))
                grad = ModelSpec(n=spec.n, nu=spec.nu, f=spec.f, h=spec.h)
                assert np.array_equal(eval_G(grad, u).coeffs,
                                      separate_G(grad, u, None))
                assert np.array_equal(
                    eval_G_bar(grad, u, constant=0.4).coeffs,
                    separate_G(grad, u, 0.4))

    def test_one_transform_per_evaluation(self, monkeypatch):
        calls = []
        real = models_module.grid_values

        def counted(coeffs, *rest):
            calls.append(len(coeffs))
            return real(coeffs, *rest)

        monkeypatch.setattr(models_module, "grid_values", counted)
        for spec in drift_models():
            u = random_smooth_field(spec.n, 8, 1)
            grad = ModelSpec(n=spec.n, nu=spec.nu, f=spec.f, h=spec.h)
            evaluations = [lambda: eval_F_eps(spec, 0.0, u),
                           lambda: eval_F_eps(spec, 0.3, u),
                           lambda: eval_F_bar(spec, u),
                           lambda: eval_G(grad, u),
                           lambda: eval_G_bar(grad, u)]
            for evaluate in evaluations:
                calls.clear()
                evaluate()
                assert len(calls) == 1


def field_block(fields: list[SpectralField], n_plans: int) -> np.ndarray:
    """The fields as drift's (plan, n, R, N+1) input, the same for every
    plan."""
    block = np.stack([f.coeffs for f in fields], axis=1)
    return np.stack([block] * n_plans)


class TestRowsAndTiles:
    """drift transforms by rows from ROW_TRANSFORM_POINTS on and runs the
    callbacks on tiles of POINTWISE_TILE points; neither may move a bit."""

    # drift grids of 32,000 points (just below the crossover) and 32,805
    # (just above it)
    @pytest.mark.parametrize("max_mode", [7999, 8192])
    def test_block_drift_same_by_rows_and_batched(self, monkeypatch,
                                                  max_mode):
        spec = polynomial_model(1.0, f_coeffs=(0.0, -1.0), h_coeffs=(1.0,))
        m = drift_grid_size(max_mode, spec.degree)
        assert (m < ROW_TRANSFORM_POINTS) == (max_mode == 7999)
        fields = [random_smooth_field(1, max_mode, seed) for seed in (1, 2)]
        plans = [plan_G(spec, None), plan_F_eps(spec, 0.3)]
        u = field_block(fields, len(plans))
        work = Workspace()
        got = {}
        for crossover in (m, m + 1):   # one call per row, one batched
            monkeypatch.setattr(spectral_module, "ROW_TRANSFORM_POINTS",
                                crossover)
            got[crossover] = drift(plans, u, work).copy()
        assert np.array_equal(got[m], got[m + 1])
        for r, f in enumerate(fields):
            assert np.array_equal(got[m][0, :, r], eval_G(spec, f).coeffs)
            assert np.array_equal(got[m][1, :, r],
                                  eval_F_eps(spec, 0.3, f).coeffs)

    def test_tiled_pointwise_equals_one_shot(self, monkeypatch):
        # two components, so the einsum paths sum over components; the
        # tiles of 1000 // (n R) = 166 points divide neither M = 240
        # (degree 5) nor M = 320 (grad, whose degree is unknown)
        pot = random_polynomial_potential(2, 4, np.random.default_rng(5))
        spec, _ = from_potential(pot, 1.5, 0.2)
        grad = ModelSpec(n=spec.n, nu=spec.nu, f=spec.f, h=spec.h)
        fields = [random_smooth_field(2, 40, seed) for seed in (3, 4, 5)]
        assert [drift_grid_size(40, d)
                for d in (spec.degree, grad.degree)] == [240, 320]
        for plans in ([plan_F_eps(spec, 0.3), plan_F_bar(spec, 0.4)],
                      [plan_G(grad, None), plan_G(grad, 0.4)]):
            u = field_block(fields, len(plans))
            got = []
            for tile in (1000, 10 ** 9):   # tiled, one shot
                monkeypatch.setattr(models_module, "POINTWISE_TILE", tile)
                got.append(drift(plans, u))
            assert np.array_equal(got[0], got[1])


def flat_field(max_mode: int, seed: int) -> SpectralField:
    """Random coefficients that do not decay, so products of the top modes
    are as large as any and an aliased one shows."""
    rng = np.random.default_rng(seed)
    c = 0.3 * (rng.normal(size=(1, max_mode + 1))
               + 1j * rng.normal(size=(1, max_mode + 1)))
    c[:, 0] = c[:, 0].real
    return SpectralField(1, max_mode, c)


def potential_case(v, temperature: float = 1.0, mass: float = 0.1):
    """model_from_config's potential model of V = sum_j v_j q^j, its eps, and
    the same drift as polynomial channels for the oracle: f = -d2V dV / 2T,
    g = -2 d2V / sqrt(2T), h = -d3V / sqrt(2T)."""
    spec, eps = model_from_config({"name": "potential", "coeffs": list(v),
                                   "temperature": temperature, "mass": mass})
    P = np.polynomial.polynomial
    scale = math.sqrt(2.0 * temperature)
    dv, d2v, d3v = (P.polyder(v, k) for k in (1, 2, 3))
    case = dict(f=tuple(-P.polymul(d2v, dv) / (2.0 * temperature)),
                g=tuple(-2.0 * d2v / scale), h=tuple(-d3v / scale))
    return spec, eps, case


def recorded_grid_sizes(monkeypatch) -> list[int]:
    """The M of every grid_values call that drift makes from now on."""
    sizes = []
    real = models_module.grid_values

    def recorded(coeffs, m, *rest):
        sizes.append(m)
        return real(coeffs, m, *rest)

    monkeypatch.setattr(models_module, "grid_values", recorded)
    return sizes


def deviation(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestDriftGridContract:
    """drift's grid is the smallest 2*3*5-smooth M >= 4N+4 with M > dN + cut
    for the model's degree d, so no product aliases onto a kept mode.  The
    drifts are checked against the brute-force convolution of their Hermitian
    coefficient sequences, on fields whose spectrum does not decay."""

    MODELS = [dict(f=(0.0, -1.0), h=(1.0,)),
              dict(f=(0.1, -1.0, 0.2), g=(0.5, 0.3))]

    # (N, M): 45 points, one batched call; 32,805 points, one call per row
    @pytest.mark.parametrize("max_mode, points", [(10, 45), (8192, 32805)])
    def test_quadratic_drift_equals_convolution(self, monkeypatch, max_mode,
                                                points):
        sizes = recorded_grid_sizes(monkeypatch)
        assert (points >= ROW_TRANSFORM_POINTS) == (max_mode == 8192)
        u = flat_field(max_mode, 21)
        for case in self.MODELS:
            spec = polynomial_model(1.0, f_coeffs=case.get("f"),
                                    g_coeffs=case.get("g"),
                                    h_coeffs=case.get("h"))
            assert spec.degree == 2
            got = eval_F_eps(spec, 0.3, u).coeffs[0]
            want = oracle_F_eps(u, 0.3, K=max_mode, **case)
            assert deviation(got, want) <= 1e-12
        assert sizes == [points] * len(self.MODELS)

    # name: (degree, M at N = 10, builder).  Degree 3 sits on the 4N+4
    # floor; above it M > 10 d + 6.  A potential of degree d makes a drift
    # of degree 2d - 3 (f = -d2V dV / 2T).
    CASES = {
        "cubic h": (3, 45, lambda: (polynomial_model(
            1.0, f_coeffs=(0.0, -1.0), h_coeffs=(1.1, -0.4)), 0.3,
            dict(f=(0.0, -1.0), h=(1.1, -0.4)))),
        "quartic f": (4, 48, lambda: (polynomial_model(
            1.0, f_coeffs=(0.1, -1.0, 0.3, 0.2, -0.4)), 0.3,
            dict(f=(0.1, -1.0, 0.3, 0.2, -0.4)))),
        "quartic potential": (5, 60, lambda: potential_case(
            (0.0, 0.0, 0.0, 0.0, 0.25))),
        "sextic potential": (9, 100, lambda: potential_case(
            (0.0, 0.3, -0.5, 0.2, 0.1, -0.05, 0.2))),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_higher_degree_drift_equals_convolution(self, monkeypatch, name):
        degree, points, build = self.CASES[name]
        spec, eps, case = build()
        assert spec.degree == degree
        u = flat_field(10, 22)
        want = oracle_F_eps(u, eps, K=10 * degree, **case)
        sizes = recorded_grid_sizes(monkeypatch)
        assert deviation(eval_F_eps(spec, eps, u).coeffs[0], want) <= 1e-12
        assert sizes == [points]
        # one point short of M > dN + cut, a product aliases onto a kept
        # mode and the oracle sees it (seen: 5e-9 for the sextic potential,
        # whose degree-9 products are small, 7e-3 for cubic h)
        monkeypatch.setattr(models_module, "drift_grid_size",
                            lambda n, d: d * n + dealias_cut(n))
        assert deviation(eval_F_eps(spec, eps, u).coeffs[0], want) > 1e-10

    def test_unknown_degree_counts_as_seven(self):
        # sin g is no polynomial: its grid is alias-free through degree 7,
        # as the former 8N grid was
        assert sin_g_model(1.0).degree is None
        assert ModelSpec(n=1, nu=1.0).degree is None
        assert [drift_grid_size(n, None) for n in (10, 1024)] == \
            [drift_grid_size(n, 7) for n in (10, 1024)] == [80, 8000]
        assert polynomial_model(1.0).degree == 0


def quartic_potential() -> PolynomialPotential:
    return PolynomialPotential.from_univariate((0.0, 0.0, 0.0, 0.0, 0.25))


class TestPotentials:
    def test_polynomial_potential_derivatives(self):
        # V = q^4/4: V' = q^3, V'' = 3 q^2, V''' = 6 q
        p = quartic_potential()
        q = np.array([[0.5, -1.0, 2.0]])
        np.testing.assert_allclose(p.v(q), 0.25 * q[0] ** 4)
        np.testing.assert_allclose(p.dv(q), q ** 3)
        np.testing.assert_allclose(p.d2v(q)[0, 0], 3.0 * q[0] ** 2)
        np.testing.assert_allclose(p.d3v(q)[0, 0, 0], 6.0 * q[0])

    def test_multivariate_mixed_term(self):
        # V = q0^2 q1: dV = (2 q0 q1, q0^2), d2V has cross terms
        p = PolynomialPotential(2, [(1.0, (2, 1))])
        q = np.array([[1.5], [0.5]])
        np.testing.assert_allclose(p.v(q), [0.5 * 1.5 ** 2])
        np.testing.assert_allclose(p.dv(q)[:, 0], [2 * 1.5 * 0.5, 1.5 ** 2])
        np.testing.assert_allclose(p.d2v(q)[:, :, 0],
                                   [[2 * 0.5, 2 * 1.5], [2 * 1.5, 0.0]])
        np.testing.assert_allclose(p.d3v(q)[0, 0, 1, 0], 2.0)

    def test_from_potential_parameters(self):
        model, eps = from_potential(quartic_potential(), temperature=2.0,
                                    mass=0.4)
        assert model.nu == pytest.approx(0.25)
        assert eps == pytest.approx(0.4 / 2.0)
        assert model.n == 1

    def test_quartic_corrected_drift_value(self):
        # T = 1, V = q^4/4: fbar(q) = -(3/2) q^5 + 3 q, so fbar(1) = 3/2
        model, _ = from_potential(quartic_potential(), temperature=1.0,
                                  mass=0.1)
        fbar = effective_drift(model)
        assert fbar(np.array([[1.0]]))[0, 0] == pytest.approx(1.5, abs=1e-12)
        q = np.array([[0.0, 0.5, -1.3]])
        np.testing.assert_allclose(fbar(q), -1.5 * q ** 5 + 3.0 * q,
                                   atol=1e-12)

    def test_identity_on_random_potentials(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            pot = random_polynomial_potential(n, 6, rng)
            temperature = float(rng.uniform(0.2, 3.0))
            # the mass does not enter; its draw keeps the probes' values
            rng.uniform(0.0, 1.0)
            probes = rng.uniform(-2.0, 2.0, size=(n, 16))
            assert check_effective_drift_identity(pot, temperature,
                                                  probes) <= 1e-10

    def test_correction_invariant_under_linear_term(self):
        # adding b.q to V changes dV only, so fbar - f is unchanged
        rng = np.random.default_rng(1)
        base = random_polynomial_potential(2, 5, rng)
        shifted = PolynomialPotential(
            2, base.terms + [(0.7, (1, 0)), (-0.3, (0, 1))])
        probes = rng.uniform(-1.5, 1.5, size=(2, 8))

        def correction(pot):
            model, _ = from_potential(pot, temperature=1.3, mass=0.2)
            fbar = effective_drift(model)(probes)
            f = model.f(probes)
            return fbar - f

        np.testing.assert_allclose(correction(base), correction(shifted),
                                   atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="component count"):
            PolynomialPotential(0, [])
        # a NaN would map to NaN eps and nu and pass the identity check
        for temperature in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="temperature"):
                from_potential(quartic_potential(), temperature, mass=0.1)
        for mass in (-0.1, math.nan):
            with pytest.raises(ValueError, match="mass"):
                from_potential(quartic_potential(), 1.0, mass)
        with pytest.raises(ValueError):
            PolynomialPotential(1, [(1.0, (2, 1))])
        with pytest.raises(ValueError):
            check_effective_drift_identity(quartic_potential(), 1.0,
                                           np.zeros((2, 4)))


class TestValidateModel:
    def test_correct_dg_accepted(self):
        dev = validate_model(sin_g_model(1.0, amplitude=1.5))
        assert dev < 1e-6

    def test_wrong_dg_rejected(self):
        spec = ModelSpec(
            n=1, nu=1.0,
            g=lambda u: np.sin(u[0])[None, None],
            dg=lambda u: 2.0 * np.cos(u[0])[None, None, None])
        with pytest.raises(ValueError, match="finite differences"):
            validate_model(spec)

    def test_no_g_is_noop(self):
        assert validate_model(polynomial_model(1.0, f_coeffs=(0.0, -1.0))) == 0.0


class TestCallbackErrors:
    def test_wrong_shape(self):
        # f must return (n, ...); dropping the component axis is an error
        bad = ModelSpec(n=1, nu=1.0, f=lambda u: u[0])
        with pytest.raises(CallbackError, match="shape"):
            eval_F_eps(bad, 0.1, scalar_field(4, {1: 0.5}))

    def test_raising_callback(self):
        def f(u):
            raise RuntimeError("boom")

        spec = ModelSpec(n=1, nu=1.0, f=f)
        with pytest.raises(CallbackError, match="boom"):
            eval_F_eps(spec, 0.1, scalar_field(4, {1: 0.5}))

    def test_g_without_dg_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(n=1, nu=1.0, g=lambda u: u[None])


class TestModelFromConfig:
    def test_polynomial(self):
        model, eps = model_from_config(
            {"name": "polynomial", "nu": 1.0, "f": [0.0, -1.0], "h": [1.0]})
        assert eps is None
        assert model.g is None
        u = np.array([[0.5]])
        np.testing.assert_allclose(model.f(u), -u)
        np.testing.assert_allclose(model.h(u), [[[[1.0]]]])

    def test_sin_g(self):
        model, eps = model_from_config(
            {"name": "sin-g", "nu": 1.0, "amplitude": 2.0})
        assert eps is None
        u = np.array([[0.3]])
        np.testing.assert_allclose(model.g(u), 2.0 * np.sin(0.3))

    def test_potential(self):
        model, eps = model_from_config(
            {"name": "potential", "coeffs": [0.0, 0.0, 0.0, 0.0, 0.25],
             "temperature": 1.0, "mass": 0.1})
        assert eps == pytest.approx(0.1 / math.sqrt(2.0))
        assert model.nu == pytest.approx(0.5)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown model"):
            model_from_config({"name": "mystery"})
