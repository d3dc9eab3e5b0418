"""Reaction-diffusion model families and their corrected limits.

A model supplies pointwise callbacks for the drift pieces of

    F_eps(u) = 1 + f(u) + eps * g(u) d_xx u + eps * h(u) (d_x u  ⊗ d_x u),

evaluated by one function on plain arrays, drift.  A DriftPlan splits a
drift into an affine part, applied to the coefficients mode by mode, and a
pointwise remainder: drift transforms the derivatives that the remainders
read to a padded grid, applies them there, transforms back, adds the affine
parts and makes the 2/3 cut.  polynomial_model records its coefficients, so
for f affine and g, h constant (the reaction models) F_eps and G transform
only u_x and square it, and their limits 1 + f and 1 + fbar transform
nothing; every other model's plans read u pointwise and transform u and
each derivative they use.  The integrator passes drift whole replica
blocks; the eval_* functions check one SpectralField and pass one row.  The
additive constant enters as the field identically equal to one in every
component.

The corrected reaction term replacing f in the limit equation is

    fbar_i(u) = f_i(u) + c * sum_j (h_ijj(u) - d_j g_ij(u)),

with c = 1/(2 sqrt(nu)) for white forcing (a finite-truncation value of c can
be substituted).  A gradient-flow path-sampling problem with potential V,
temperature T and mass m maps onto this family via

    eps = m / sqrt(2 T),    nu = 1 / (2 T),
    f_i = -(1/2T) sum_j d2V_ij dV_j,
    g_ij = -2 d2V_ij / sqrt(2 T),
    h_ijl = -d3V_ijl / sqrt(2 T),

for which fbar_i = -(1/2T) sum_j d2V_ij dV_j + (1/2) sum_j d3V_ijj exactly.

Callbacks are vectorized: they receive arrays of shape (n, ...) and return
(n, ...), (n, n, ...) or (n, n, n, ...) acting pointwise over the trailing
axes.  They must be total on the box the simulation guard confines states to.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .constants import white_noise_constant
# to_grid and from_grid are not called here; they stay bound in this module
# because bench/spans.py traces the names it imports.
from .spectral import (_SQRT_TWO_PI, SpectralField, Workspace, dealias_cut,
                       derivative_coeffs, fast_grid_size, from_grid,
                       grid_coeffs, grid_values, to_grid)

Callback = Callable[[np.ndarray], np.ndarray]

# Pointwise callbacks run on grid tiles of at most this many points (all
# components and replicas together).  Each of their float64 temporaries,
# such as polyval's, is then 96 KiB, under glibc's default 128 KiB mmap
# threshold, and a tile's few of them fit in the heap's free top, which
# glibc reuses instead of mapping fresh pages.  Without SciPy loaded, one
# theorem15 bench call made 3,400 minor faults at this tile in every run.
# With larger tiles the count followed allocations made elsewhere: 3,500 or
# 12,300 at 15,360 points, 3,550 to 23,300 at 2^14.  Smaller ones pay per
# call: at 2^13 points the converge bench read 0.916 s against 0.839 s at
# 15,360 (medians of 6 runs on a 2-core host).
POINTWISE_TILE = 12 << 10


@dataclass(frozen=True)
class ModelSpec:
    """Model callbacks; any of f, g, h may be None (identically zero).

    dg must be supplied whenever g is: dg(u)[i, j, k] is the partial
    derivative of g_ij with respect to component k.  validate_model checks it
    against central finite differences.  degree bounds the degree of every
    drift term in u, u_x and u_xx (deg f, deg g + 1, deg h + 2), and sizes
    the drift grid; None when a callback is not a polynomial.  coefficients
    is (f, g, h) for a scalar model whose channels are the polynomials with
    these ascending coefficients (a tuple without trailing zeros each, None
    for an absent channel), as polynomial_model records them; the drift
    plans take their affine parts from it, and validate_model checks it
    against the callbacks.  None for any other model.
    """

    n: int
    nu: float
    f: Optional[Callback] = None
    g: Optional[Callback] = None
    dg: Optional[Callback] = None
    h: Optional[Callback] = None
    degree: Optional[int] = None
    coefficients: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("component count must be >= 1")
        if not 0 < self.nu < math.inf:
            raise ValueError("nu must be positive and finite")
        if (self.g is None) != (self.dg is None):
            raise ValueError("g and dg must be supplied together")
        if self.coefficients is not None and self.n != 1:
            raise ValueError("coefficients describe scalar models only")


class CallbackError(RuntimeError):
    """A model callback failed or returned a malformed array."""


def _call(cb: Callback, u: np.ndarray, name: str, shape: tuple[int, ...]) -> np.ndarray:
    try:
        out = np.asarray(cb(u), dtype=np.float64)
    except Exception as exc:
        raise CallbackError(
            f"callback '{name}' failed at probe with leading values "
            f"{np.ravel(u)[:4]}: {exc}") from exc
    if out.shape != shape + u.shape[1:]:
        raise CallbackError(
            f"callback '{name}' returned shape {out.shape}, expected "
            f"{shape + u.shape[1:]}")
    return out


# validate_model's probes: PROBE_COUNT points drawn uniformly from
# [-PROBE_BOX, PROBE_BOX]^n on seed PROBE_SEED, central differences of step
# PROBE_DELTA.
PROBE_COUNT = 16
PROBE_DELTA = 1e-5
PROBE_BOX = 2.0
PROBE_SEED = 0


def validate_model(spec: ModelSpec) -> float:
    """Max deviation of dg from central finite differences of g at probes.

    Raises if the deviation exceeds 1e-4, or if a channel's callback is not
    the polynomial of its recorded coefficients (to 1e-12 relative, absent
    channels alike); returns the deviation, 0 for models without a g
    channel.
    """
    if spec.g is None and spec.coefficients is None:
        return 0.0
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(PROBE_SEED)))
    probes = rng.uniform(-PROBE_BOX, PROBE_BOX, size=(spec.n, PROBE_COUNT))
    if spec.coefficients is not None:
        for name, cb, coeffs, shape in zip(
                "fgh", (spec.f, spec.g, spec.h), spec.coefficients,
                ((1,), (1, 1), (1, 1, 1))):
            if (cb is None) != (coeffs is None):
                raise ValueError(f"channel '{name}' does not match the "
                                 f"recorded coefficients")
            if cb is None:
                continue
            got = _call(cb, probes, name, shape)
            want = _polyval(coeffs, probes[0])
            if not np.allclose(got.ravel(), want, rtol=1e-12, atol=1e-12):
                raise ValueError(f"callback '{name}' is not the polynomial "
                                 f"of its recorded coefficients")
    if spec.g is None:
        return 0.0
    dg_val = _call(spec.dg, probes, "dg", (spec.n, spec.n, spec.n))
    worst = 0.0
    for k in range(spec.n):
        shift = np.zeros((spec.n, 1))
        shift[k, 0] = PROBE_DELTA
        diff = (_call(spec.g, probes + shift, "g", (spec.n, spec.n))
                - _call(spec.g, probes - shift, "g", (spec.n, spec.n)))
        worst = max(worst, float(np.max(np.abs(diff / (2 * PROBE_DELTA)
                                               - dg_val[:, :, k, :]))))
    if worst > 1e-4:
        raise ValueError(
            f"dg disagrees with finite differences of g (max dev {worst:.3e})")
    return worst


class DriftPlan(NamedTuple):
    """One drift: an affine part applied mode by mode, plus a pointwise
    remainder on the drift grid (pointwise None for none).

    affine is (slope, diffusion, constant) for the part slope * u +
    diffusion * u_xx + constant, None for none: mode k of u is multiplied
    by slope - diffusion k^2, and the constant (the value of a constant
    field) enters at k = 0.  orders lists the derivative orders whose grid
    values the remainder reads.  pointwise(vals, derivs) takes those of the
    first order, shaped (n, ..., M), and one array of the same shape per
    further order, and acts on the trailing axes only, so one call serves a
    whole stack of fields; it may overwrite them.  degree bounds the
    remainder's degree in the values it reads (None for unknown) and sizes
    the grid.
    """

    orders: tuple[int, ...]
    pointwise: Optional[Callable[[np.ndarray, list], np.ndarray]]
    degree: Optional[int]
    affine: Optional[tuple[float, float, float]] = None


def drift_grid_size(max_mode: int, degree: Optional[int]) -> int:
    """Points of drift's grid for modes 0..N: fast_grid_size of its
    contract, max(2N+2, dN + cut + 1).  2N+2 points resolve the modes of u,
    and on M > dN + cut no product of d factors (modes up to dN) aliases
    onto a mode the 2/3 cut keeps.  degree None counts as 7, the highest
    degree the former 8N grid resolved."""
    degree = 7 if degree is None else degree
    return fast_grid_size(max(2 * max_mode + 2, degree * max_mode
                              + dealias_cut(max_mode) + 1))


def drift(plans: list[DriftPlan], u: np.ndarray,
          work: Workspace | None = None) -> np.ndarray:
    """Each plan's drift of a block of fields, unchecked: u is (plan, n, R,
    N+1) and plan p maps the R fields u[p] to the same-shaped result.

    The derivatives that the plans' remainders read go through one
    transform to a grid of M = drift_grid_size(N, highest remainder degree)
    points, each remainder runs on tiles of its (n, R, M) grid values and
    overwrites the first of them, and one back-transform gives the
    remainders' coefficients; a plan without a remainder transforms
    nothing.  Each affine part is then added mode by mode, and the 2/3 cut
    applies to the sum.  Batched real FFTs are bit-identical per row and the
    callbacks act pointwise, so a field's drift depends on M but neither on
    its block nor on the tiling.  Every array comes from work (a fresh one
    if none is given) and is reused by the next call with it; the result is
    a view of one of them.
    """
    n_plans, n, n_rep, modes = u.shape
    work = Workspace() if work is None else work
    gridded = [p for p, plan in enumerate(plans)
               if plan.pointwise is not None]
    if gridded:
        m = max(drift_grid_size(modes - 1, plans[p].degree) for p in gridded)
        # rows: each remainder's first order, then its others in turn
        wanted = ([(p, plans[p].orders[0]) for p in gridded]
                  + [(p, o) for p in gridded for o in plans[p].orders[1:]])
        rows = work.array("drift input", (len(wanted), n, n_rep, modes),
                          np.complex128)
        for row, (p, o) in zip(rows, wanted):
            if o:
                derivative_coeffs(u[p], o, row)
            else:
                row[...] = u[p]
        grid = grid_values(rows.reshape(-1, modes), m, work)
        grid = grid.reshape(-1, n, n_rep, m)
        # each remainder's result overwrites its first grid, tile by tile
        width = max(1, POINTWISE_TILE // (n * n_rep))
        first = len(gridded)
        for j, p in enumerate(gridded):
            more = len(plans[p].orders) - 1
            own = [grid[j], *grid[first:first + more]]
            first += more
            for lo in range(0, m, width):
                vals, *derivs = [g[..., lo:lo + width] for g in own]
                vals[...] = plans[p].pointwise(vals, derivs)
        with np.errstate(invalid="ignore"):  # callers check for non-finite drift
            fu = grid_coeffs(grid[:len(gridded)].reshape(-1, m), modes - 1,
                             work).reshape((len(gridded),) + u.shape[1:])
    if len(gridded) == n_plans:
        out = fu
    else:
        out = work.array("drift", u.shape, np.complex128)
        for j, p in enumerate(gridded):
            out[p] = fu[j]
    for p, plan in enumerate(plans):
        if plan.affine is None:
            continue
        slope, diffusion, constant = plan.affine
        factor = slope if not diffusion else (
            slope - diffusion * np.arange(modes, dtype=np.float64) ** 2)
        if plan.pointwise is not None:
            out[p] += np.multiply(u[p], factor, out=work.array(
                "affine", u.shape[1:], np.complex128))
        else:
            np.multiply(u[p], factor, out=out[p])
        out[p, ..., 0] += constant * _SQRT_TWO_PI   # the field 1 at k = 0
    out[..., dealias_cut(modes - 1) + 1:] = 0.0
    return out


def _drift_of(spec: ModelSpec, plan: DriftPlan,
              u: SpectralField) -> SpectralField:
    """One field's drift, validated at both ends."""
    if spec.n != u.n_components:
        raise ValueError("field component count does not match the model")
    return SpectralField(spec.n, u.max_mode,
                         drift([plan], u.coeffs[None, :, None])[0, :, 0])


def _degree(coeffs: Optional[tuple]) -> int:
    """Degree of a recorded channel; -1 for an absent one."""
    return -1 if coeffs is None else len(coeffs) - 1


def _coeff(coeffs: Optional[tuple], j: int) -> float:
    """The u^j coefficient of a recorded channel (0 beyond its degree)."""
    return coeffs[j] if coeffs is not None and j < len(coeffs) else 0.0


def _affine_plan(affine: tuple[float, float, float],
                 square: Optional[float]) -> DriftPlan:
    """A scalar plan with this affine part whose remainder, if square is
    not None, is square * u_x^2: it transforms u_x only and squares it in
    place."""
    if square is None:
        return DriftPlan((), None, None, affine)

    def pointwise(ux: np.ndarray, derivs: list) -> np.ndarray:
        np.square(ux, out=ux)
        return np.multiply(ux, square, out=ux)

    return DriftPlan((1,), pointwise, 2, affine)


def plan_F_eps(spec: ModelSpec, eps: float) -> DriftPlan:
    """1 + f(u) + eps g(u) u_xx + eps h(u) (u_x ⊗ u_x); eps = 0 skips the
    derivative channels entirely.  With recorded coefficients, f affine and
    g, h constant (or eps = 0) it is affine but for eps h u_x^2."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if spec.coefficients is not None:
        f, g, h = spec.coefficients
        if not eps:
            g = h = None
        if _degree(f) <= 1 and _degree(g) <= 0 and _degree(h) <= 0:
            return _affine_plan(
                (_coeff(f, 1), eps * _coeff(g, 0), 1.0 + _coeff(f, 0)),
                None if h is None else eps * h[0])
    use_h = eps != 0.0 and spec.h is not None
    use_g = eps != 0.0 and spec.g is not None

    def pointwise(vals: np.ndarray, derivs: list) -> np.ndarray:
        out = np.ones_like(vals)
        if spec.f is not None:
            out += _call(spec.f, vals, "f", (spec.n,))
        if use_g:
            gv = _call(spec.g, vals, "g", (spec.n, spec.n))
            out += eps * np.einsum("ij...,j...->i...", gv, derivs[-1])
        if use_h:
            ux = derivs[0]
            hv = _call(spec.h, vals, "h", (spec.n, spec.n, spec.n))
            out += eps * np.einsum("ijl...,j...,l...->i...", hv, ux, ux)
        return out

    return DriftPlan((0,) + (1,) * use_h + (2,) * use_g, pointwise,
                     spec.degree)


def eval_F_eps(spec: ModelSpec, eps: float,
               u: SpectralField) -> SpectralField:
    """Full perturbed drift 1 + f(u) + eps g(u) u_xx + eps h(u) (u_x ⊗ u_x).

    Its plan_F_eps remainder is evaluated pointwise on an oversampled grid
    and projected back to the modes of u, its affine part is added mode by
    mode, and the sum is dealiased.  eps = 0 reduces exactly to 1 + f(u):
    the derivative channels are skipped entirely.
    """
    return _drift_of(spec, plan_F_eps(spec, eps), u)


def effective_drift(spec: ModelSpec,
                    constant: float | None = None) -> Callback:
    """Pointwise corrected reaction fbar = f + c (trace h - trace dg).

    Both traces are partial, over the last two slots: component i gets
    sum_j h_ijj and sum_j dg_ijj, where dg[i, j, k] = d_k g_ij is traced
    over (j, k), i.e. sum_j d_j g_ij.  c defaults to the white-noise
    constant 1/(2 sqrt(nu)); pass a finite-truncation value to match a
    mode-truncated simulation.
    """
    c = white_noise_constant(spec.nu) if constant is None else float(constant)

    def fbar(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        out = np.zeros_like(u)
        if spec.f is not None:
            out += _call(spec.f, u, "f", (spec.n,))
        if spec.h is not None:
            hv = _call(spec.h, u, "h", (spec.n, spec.n, spec.n))
            out += c * np.einsum("ijj...->i...", hv)
        if spec.dg is not None:
            dgv = _call(spec.dg, u, "dg", (spec.n, spec.n, spec.n))
            out -= c * np.einsum("ijj...->i...", dgv)
        return out

    return fbar


def plan_F_bar(spec: ModelSpec, constant: float | None = None) -> DriftPlan:
    """1 + fbar(u), with fbar from effective_drift.  With recorded
    coefficients, f and h affine and g at most quadratic, fbar = f + c (h -
    g') is affine, and the plan transforms nothing."""
    if spec.coefficients is not None:
        f, g, h = spec.coefficients
        if _degree(f) <= 1 and _degree(h) <= 1 and _degree(g) <= 2:
            c = (white_noise_constant(spec.nu) if constant is None
                 else float(constant))
            return _affine_plan((
                _coeff(f, 1) + c * (_coeff(h, 1) - 2.0 * _coeff(g, 2)), 0.0,
                1.0 + _coeff(f, 0) + c * (_coeff(h, 0) - _coeff(g, 1))),
                None)
    fbar = effective_drift(spec, constant)
    return DriftPlan((0,), lambda vals, derivs: np.ones_like(vals)
                     + fbar(vals), spec.degree)


def eval_F_bar(spec: ModelSpec, u: SpectralField, *,
               constant: float | None = None) -> SpectralField:
    """Corrected limit drift 1 + fbar(u), evaluated pseudospectrally."""
    return _drift_of(spec, plan_F_bar(spec, constant), u)


def plan_G(spec: ModelSpec, constant: float | None) -> DriftPlan:
    """f(u) + h(u)(u_x ⊗ u_x), plus constant * tr h unless constant is None
    (the common core of eval_G and eval_G_bar).  With recorded
    coefficients, f affine and h constant it is affine but for h u_x^2."""
    if spec.g is not None:
        raise ValueError("gradient-noise variants require g identically zero "
                         "(pass g=None)")
    if spec.coefficients is not None:
        f, _, h = spec.coefficients
        if _degree(f) <= 1 and _degree(h) <= 0:
            shift = 0.0 if constant is None else constant * _coeff(h, 0)
            return _affine_plan((_coeff(f, 1), 0.0, _coeff(f, 0) + shift),
                                None if h is None else h[0])

    def pointwise(vals: np.ndarray, derivs: list) -> np.ndarray:
        out = np.zeros_like(vals)
        if spec.f is not None:
            out += _call(spec.f, vals, "f", (spec.n,))
        if spec.h is not None:
            hv = _call(spec.h, vals, "h", (spec.n, spec.n, spec.n))
            ux = derivs[0]
            out += np.einsum("ijl...,j...,l...->i...", hv, ux, ux)
            if constant is not None:
                out += constant * np.einsum("ijj...->i...", hv)
        return out

    return DriftPlan((0,) + (1,) * (spec.h is not None), pointwise,
                     spec.degree)


def eval_G(spec: ModelSpec, u: SpectralField) -> SpectralField:
    """Unshifted drift f(u) + h(u)(u_x ⊗ u_x); no additive constant.

    Used by the small-noise variants; requires g identically zero.
    """
    return _drift_of(spec, plan_G(spec, None), u)


def eval_G_bar(spec: ModelSpec, u: SpectralField, *,
               constant: float | None = None) -> SpectralField:
    """Corrected unshifted drift: eval_G with f replaced by f + c tr h."""
    c = white_noise_constant(spec.nu) if constant is None else float(constant)
    return _drift_of(spec, plan_G(spec, c), u)


def from_potential(potential: PolynomialPotential, temperature: float,
                   mass: float) -> tuple[ModelSpec, float]:
    """Map a potential problem at finite temperature > 0 and mass >= 0
    onto the model family; returns (model, eps)."""
    if not 0 < temperature < math.inf:
        raise ValueError("temperature must be positive and finite")
    if not 0 <= mass < math.inf:
        raise ValueError("mass must be nonnegative and finite")
    two_t = 2.0 * temperature
    scale = math.sqrt(two_t)
    eps = mass / scale
    nu = 1.0 / two_t

    def f(u: np.ndarray) -> np.ndarray:
        return -np.einsum("ij...,j...->i...", potential.d2v(u),
                          potential.dv(u)) / two_t

    def g(u: np.ndarray) -> np.ndarray:
        return -2.0 * np.asarray(potential.d2v(u), dtype=np.float64) / scale

    def dg(u: np.ndarray) -> np.ndarray:
        return -2.0 * np.asarray(potential.d3v(u), dtype=np.float64) / scale

    def h(u: np.ndarray) -> np.ndarray:
        return -np.asarray(potential.d3v(u), dtype=np.float64) / scale

    # V of degree d: f = d2V dV has degree 2d - 3, g u_xx and h u_x u_x d - 1
    d = potential.degree
    degree = d and max(2 * d - 3, d - 1)
    return ModelSpec(n=potential.n, nu=nu, f=f, g=g, dg=dg, h=h,
                     degree=degree), eps


def check_effective_drift_identity(potential: PolynomialPotential,
                                   temperature: float,
                                   probes: np.ndarray) -> float:
    """Max discrepancy of the corrected drift against its closed form.

    For potential-driven models the corrected reaction must satisfy
    fbar_i = -(1/2T) sum_j d2V_ij dV_j + (1/2) sum_j d3V_ijj; returns the
    max absolute deviation over the probe points (columns of `probes`).
    The mass sets only eps, so it does not enter.
    """
    probes = np.asarray(probes, dtype=np.float64)
    if probes.ndim == 1:
        probes = probes[:, None]
    if probes.shape[0] != potential.n:
        raise ValueError("probe array must have one row per component")
    model, _ = from_potential(potential, temperature, 0.0)
    lhs = effective_drift(model)(probes)
    rhs = (-np.einsum("ij...,j...->i...", potential.d2v(probes),
                      potential.dv(probes)) / (2.0 * temperature)
           + 0.5 * np.einsum("ijj...->i...", potential.d3v(probes)))
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# Built-in model library


def _polyval(coeffs, x: np.ndarray) -> np.ndarray:
    return np.polynomial.polynomial.polyval(x, np.asarray(coeffs, dtype=np.float64))


def _polyder(coeffs) -> np.ndarray:
    return np.polynomial.polynomial.polyder(np.asarray(coeffs, dtype=np.float64))


def _recorded_coefficients(name: str, coeffs) -> Optional[tuple]:
    """A channel's ascending coefficients as floats without trailing zeros
    (at least one kept), or None for an absent channel; a list that is
    empty, not one-dimensional or not finite is a ValueError."""
    if coeffs is None:
        return None
    try:
        c = np.asarray(coeffs, dtype=np.float64)
    except (TypeError, ValueError):
        c = np.empty(0)
    if c.ndim != 1 or not c.size or not np.isfinite(c).all():
        raise ValueError(f"{name} coefficients must be a non-empty list of "
                         f"finite numbers, not {coeffs!r}")
    kept = len(c)
    while kept > 1 and c[kept - 1] == 0.0:
        kept -= 1
    return tuple(float(x) for x in c[:kept])


def polynomial_model(nu: float, f_coeffs=None, g_coeffs=None,
                     h_coeffs=None) -> ModelSpec:
    """Scalar (n = 1) model with polynomial channels.

    Each channel takes ascending coefficients; omit (None) for a zero
    channel.  Trailing zeros are dropped, and the coefficients are recorded
    on the model.  The g derivative is attached analytically.
    """
    f_coeffs, g_coeffs, h_coeffs = (
        _recorded_coefficients(name, c) for name, c in
        (("f", f_coeffs), ("g", g_coeffs), ("h", h_coeffs)))
    f = g = dg = h = None
    if f_coeffs is not None:
        f = lambda u: _polyval(f_coeffs, u[0])[None]
    if g_coeffs is not None:
        dcoeffs = _polyder(g_coeffs)
        g = lambda u: _polyval(g_coeffs, u[0])[None, None]
        dg = lambda u: _polyval(dcoeffs, u[0])[None, None, None]
    if h_coeffs is not None:
        h = lambda u: _polyval(h_coeffs, u[0])[None, None, None]
    degree = max([0] + [len(c) + k - 1 for k, c in enumerate(
        (f_coeffs, g_coeffs, h_coeffs)) if c is not None])
    return ModelSpec(n=1, nu=nu, f=f, g=g, dg=dg, h=h, degree=degree,
                     coefficients=(f_coeffs, g_coeffs, h_coeffs))


def sin_g_model(nu: float, amplitude: float = 1.0, f_coeffs=None) -> ModelSpec:
    """Scalar model with trigonometric transport channel g(u) = A sin(u);
    an amplitude that is not a finite real number is a ValueError."""
    if isinstance(amplitude, bool) or not isinstance(
            amplitude, numbers.Real) or not math.isfinite(amplitude):
        raise ValueError(f"amplitude must be a finite number, not "
                         f"{amplitude!r}")
    f_coeffs = _recorded_coefficients("f", f_coeffs)
    f = None
    if f_coeffs is not None:
        f = lambda u: _polyval(f_coeffs, u[0])[None]
    return ModelSpec(
        n=1, nu=nu, f=f,
        g=lambda u: amplitude * np.sin(u[0])[None, None],
        dg=lambda u: amplitude * np.cos(u[0])[None, None, None])


class PolynomialPotential:
    """Multivariate polynomial with exact derivatives up to third order.

    Stored as monomials (coefficient, exponent tuple); differentiation
    manipulates exponents, so every derivative is exact.
    """

    def __init__(self, n: int, monomials):
        self.n = int(n)
        if self.n < 1:
            raise ValueError("component count must be >= 1")
        terms = []
        for coeff, exps in monomials:
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.n or any(e < 0 for e in exps):
                raise ValueError("bad monomial exponents")
            terms.append((float(coeff), exps))
        self.terms = terms
        self.degree = max((sum(e) for _, e in terms), default=0)

    @classmethod
    def from_univariate(cls, coeffs) -> "PolynomialPotential":
        return cls(1, [(c, (j,)) for j, c in enumerate(coeffs)])

    def _eval_derivative(self, q: np.ndarray, dvars: tuple[int, ...]) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        out = np.zeros(q.shape[1:])
        for coeff, exps in self.terms:
            e = list(exps)
            c = coeff
            dead = False
            for var in dvars:
                if e[var] == 0:
                    dead = True
                    break
                c *= e[var]
                e[var] -= 1
            if dead or c == 0.0:
                continue
            term = c
            for i, ei in enumerate(e):
                if ei:
                    term = term * q[i] ** ei
            out = out + term
        return out

    def v(self, q: np.ndarray) -> np.ndarray:
        return self._eval_derivative(q, ())

    def dv(self, q: np.ndarray) -> np.ndarray:
        return np.stack([self._eval_derivative(q, (i,)) for i in range(self.n)])

    def d2v(self, q: np.ndarray) -> np.ndarray:
        return np.stack([
            np.stack([self._eval_derivative(q, (i, j)) for j in range(self.n)])
            for i in range(self.n)])

    def d3v(self, q: np.ndarray) -> np.ndarray:
        return np.stack([
            np.stack([
                np.stack([self._eval_derivative(q, (i, j, k))
                          for k in range(self.n)])
                for j in range(self.n)])
            for i in range(self.n)])


def random_polynomial_potential(n: int, max_degree: int,
                                rng: np.random.Generator,
                                n_terms: int = 10) -> PolynomialPotential:
    """Random polynomial potential with total degree <= max_degree."""
    candidates = [exps for exps in itertools.product(range(max_degree + 1),
                                                     repeat=n)
                  if 0 < sum(exps) <= max_degree]
    take = min(n_terms, len(candidates))
    chosen = rng.choice(len(candidates), size=take, replace=False)
    monomials = [(rng.normal(), candidates[i]) for i in chosen]
    return PolynomialPotential(n, monomials)


# the (required, optional) keys each model_from_config shape takes besides
# its name
_MODEL_KEYS = {"polynomial": ({"nu"}, {"f", "g", "h"}),
               "sin-g": ({"nu"}, {"amplitude", "f"}),
               "potential": ({"coeffs", "temperature"}, {"mass"})}


def model_from_config(cfg: dict) -> tuple[ModelSpec, float | None]:
    """Build a library model from a plain config mapping.

    Shapes:
      {"name": "polynomial", "nu": 1.0, "f": [...], "g": [...], "h": [...]}
      {"name": "sin-g", "nu": 1.0, "amplitude": 1.0, "f": [...]}
      {"name": "potential", "coeffs": [...], "temperature": 1.0, "mass": 0.1}

    The potential form returns the implied eps as the second element; the
    other forms return None there.  A missing key without a default (nu,
    coeffs, temperature) or any other key is a ValueError.
    """
    cfg = dict(cfg)
    name = cfg.pop("name", None)
    if name not in _MODEL_KEYS:
        raise ValueError(f"unknown model name: {name!r}")
    required, optional = _MODEL_KEYS[name]
    unknown = set(cfg) - required - optional
    if unknown:
        raise ValueError(f"unknown keys for model {name!r}: "
                         f"{sorted(unknown)}")
    missing = sorted(required - set(cfg))
    if missing:
        raise ValueError(f"model {name!r} needs key {missing[0]!r}")
    if name == "polynomial":
        return polynomial_model(cfg["nu"], f_coeffs=cfg.get("f"),
                                g_coeffs=cfg.get("g"),
                                h_coeffs=cfg.get("h")), None
    if name == "sin-g":
        return sin_g_model(cfg["nu"], amplitude=cfg.get("amplitude", 1.0),
                           f_coeffs=cfg.get("f")), None
    if name == "potential":
        pot = PolynomialPotential.from_univariate(cfg["coeffs"])
        return from_potential(pot, cfg["temperature"], cfg.get("mass", 0.0))
