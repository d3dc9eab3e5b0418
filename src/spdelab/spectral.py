"""Truncated Fourier representation of real periodic vector fields.

Fields live on [0, 2*pi), take values in R^n, and are stored as complex
coefficients over the orthonormal basis e_k(x) = exp(i*k*x)/sqrt(2*pi) for
k = 0..N.  The coefficient at -k is implied by conjugation (only real fields
are representable), so the k = 0 coefficient is kept exactly real.

Grid transforms are exact for the represented trigonometric polynomial
whenever the grid has at least 2N+2 points.  Every grid has one sizing
rule: fast_grid_size, the next 2*3*5-smooth size, of the points its
contract needs, stated where it is called: oversample * (2N+2) for to_grid,
8 * (2N+2) for sup_norms, max(2N+2, dN + cut + 1) for a degree-d drift
(models.drift_grid_size) and 4N+1 for averaging's quadratic convolutions.

Fields and the functions taking them validate; inner loops call the array
kernels behind them (grid_values, grid_coeffs, derivative_coeffs, the
dealias_cut slice) unchecked.  All three norms take coefficient arrays:
sup_norm one field's (n, N+1), sup_norms a stack of rows, sobolev_norm any
leading shape.  A Workspace lends the kernels one buffer per role for as
long as a run, so a step loop that repeats its calls maps no fresh pages.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
DEALIAS_FRACTION = 2.0 / 3.0  # Orszag's 2/3 rule for quadratic products

# Forward transforms of rows of at least this many grid points make one FFT
# call per row.  A batched rfft over such rows allocates a buffer of a few
# rows at every call, which glibc maps (or trims and refaults) afresh unless
# an earlier free has raised its dynamic mmap and trim thresholds: in a
# fresh process two rows of 10,000 points fault at every batched call and
# two of 9,216 do not.  One row into an out= array maps nothing, and costs
# what a faulting batched call does (2 rows of 21,870 points: 0.59 ms one
# by one, 0.60 ms batched, 0.33 ms batched without the faults).  Without
# SciPy loaded, one theorem15 bench call made 31,100 minor faults with the
# rfft batched below 2^15 points and 3,400 with this crossover (NumPy 2.4,
# 2-core x86-64 host).  Inverse transforms stay batched at every size: a
# batched irfft maps no buffer, and at 32,768 modes it is faster than one
# call per row.  Both give the same bits: each row is one transform with
# the same plan.
ROW_TRANSFORM_POINTS = 1 << 13


def _smooth_sizes(limit: int) -> tuple[int, ...]:
    """Every 2*3*5-smooth number up to limit, ascending."""
    sizes = []
    p5 = 1
    while p5 <= limit:
        p35 = p5
        while p35 <= limit:
            sizes.extend(p35 << j for j in range((limit // p35).bit_length()))
            p35 *= 3
        p5 *= 5
    return tuple(sorted(sizes))


# 1,849 sizes, listed in half a millisecond; a grid of more than 2^32
# points would not fit in memory
_FAST_SIZES = _smooth_sizes(1 << 32)


def fast_grid_size(points: int) -> int:
    """Smallest 2*3*5-smooth grid size >= points (a fast real FFT length),
    for 1 <= points <= 2^32: one bisection of the sizes listed at import."""
    if not 1 <= points <= _FAST_SIZES[-1]:
        raise ValueError(f"no grid size for {points} points")
    return _FAST_SIZES[bisect.bisect_left(_FAST_SIZES, points)]


@dataclass(frozen=True)
class SpectralField:
    """Coefficients of a real R^n-valued trigonometric polynomial.

    Attributes
    ----------
    n_components : number of vector components n.
    max_mode : highest retained wavenumber N.
    coeffs : complex array of shape (n, N+1); entry (i, k) is the projection
        of component i onto e_k.  Entries must be finite and the k = 0
        column real (it is forced real, with a tolerance check, on
        construction).  Treat the array as immutable.
    """

    n_components: int
    max_mode: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if self.n_components < 1 or self.max_mode < 0:
            raise ValueError("need n_components >= 1 and max_mode >= 0")
        if c.shape != (self.n_components, self.max_mode + 1):
            raise ValueError(
                f"coefficient array has shape {c.shape}, expected "
                f"{(self.n_components, self.max_mode + 1)}"
            )
        if not np.isfinite(c.view(np.float64)).all():
            raise ValueError("non-finite spectral coefficient")
        scale = max(1.0, float(np.abs(c).max())) if c.size else 1.0
        if np.abs(c[:, 0].imag).max(initial=0.0) > 1e-9 * scale:
            raise ValueError("k = 0 coefficient of a real field must be real")
        c = c.copy()
        c[:, 0] = c[:, 0].real
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True)
class GridField:
    """Point values of a real field on the uniform grid x_j = 2*pi*j/M."""

    n_components: int
    grid_size: int
    values: np.ndarray  # real, shape (n_components, grid_size)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.n_components, self.grid_size):
            raise ValueError(
                f"grid array has shape {v.shape}, expected "
                f"{(self.n_components, self.grid_size)}"
            )
        if not np.isfinite(v).all():
            raise ValueError("non-finite grid value")
        object.__setattr__(self, "values", v)


class Workspace:
    """Scratch arrays that the kernels reuse from call to call, one buffer
    per role, so that repeating a call allocates nothing.

    A request returns a C-contiguous view of the head of its role's
    buffer, which is remade only when a request needs more elements or
    another dtype.  A kernel's result may be such a view; it stays valid
    until the next request for the same role.  A workspace belongs to one
    thread.  Several runs stepped in lockstep there may share it when each
    consumes a kernel's result before the others' next call, as theorem15's
    deterministic limits and replicas do; they then share every array.
    """

    def __init__(self) -> None:
        self._arrays: dict = {}

    def array(self, role, shape: tuple, dtype) -> np.ndarray:
        """An array of the given shape and dtype on role's buffer; callers
        overwrite it whole."""
        size = math.prod(shape)
        buf = self._arrays.get(role)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._arrays[role] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def grid_values(coeffs: np.ndarray, m: int,
                work: Workspace | None = None) -> np.ndarray:
    """Unchecked kernel of to_grid: coefficient rows (mode axis last) on m
    points, for m >= 2N+2.  With a workspace the result is its grid array.

    irfft pads the N+1 coefficients of each row with zeros itself, giving
    the bits of a transform of the zero-padded half spectrum.
    """
    work = Workspace() if work is None else work
    grid = work.array("grid", coeffs.shape[:-1] + (m,), np.float64)
    np.fft.irfft(coeffs, m, axis=-1, out=grid)
    grid *= m / _SQRT_TWO_PI
    return grid


def grid_coeffs(values: np.ndarray, max_mode: int,
                work: Workspace | None = None) -> np.ndarray:
    """Unchecked kernel of from_grid: modes 0..max_mode of grid rows (point
    axis last), with the k = 0 coefficient made exactly real.  With a
    workspace the result is (a view of) one of its arrays."""
    work = Workspace() if work is None else work
    rows, m = values.shape[:-1], values.shape[-1]
    if m < ROW_TRANSFORM_POINTS:
        full = work.array("spectrum", rows + (m // 2 + 1,), np.complex128)
        spec = np.fft.rfft(values, m, axis=-1, out=full)[..., :max_mode + 1]
    else:
        full = work.array("spectrum", (m // 2 + 1,), np.complex128)
        spec = work.array("modes", rows + (max_mode + 1,), np.complex128)
        for row, out in zip(values.reshape(-1, m),
                            spec.reshape(-1, max_mode + 1)):
            out[...] = np.fft.rfft(row, m, out=full)[:max_mode + 1]
    spec *= _SQRT_TWO_PI / m
    spec[..., 0] = spec[..., 0].real
    return spec


def derivative_coeffs(coeffs: np.ndarray, order: int,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Spatial derivative of the given order: mode k (last axis) times
    (i*k)^order, with i^order an exact quarter-turn (no complex power), so
    even orders stay exactly real-scaled and k = 0 stays exactly real.
    Written into out when given."""
    k = np.arange(coeffs.shape[-1], dtype=np.float64)
    out = np.multiply(coeffs, k ** order, out=out)
    return np.multiply((1.0, 1j, -1.0, -1j)[order % 4], out, out=out)


def dealias_cut(max_mode: int) -> int:
    """Highest mode the 2/3 rule keeps: floor(DEALIAS_FRACTION * N)."""
    return int(math.floor(DEALIAS_FRACTION * max_mode))


def to_grid(field: SpectralField, oversample: int = 1) -> GridField:
    """Evaluate the field on M = fast_grid_size(oversample * (2N+2)) points.

    Exact (up to rounding) because M >= 2N+2 resolves every retained mode.
    """
    if oversample < 1:
        raise ValueError("oversample must be a positive integer")
    m = fast_grid_size(oversample * (2 * field.max_mode + 2))
    return GridField(field.n_components, m, grid_values(field.coeffs, m))


def from_grid(grid: GridField, max_mode: int) -> SpectralField:
    """Project grid values onto modes 0..max_mode.

    Requires max_mode <= grid_size/2 - 1 so every requested mode is resolved.
    """
    if max_mode > grid.grid_size // 2 - 1:
        raise ValueError(
            f"mode count {max_mode} too large for grid of size {grid.grid_size}"
        )
    return SpectralField(grid.n_components, max_mode,
                         grid_coeffs(grid.values, max_mode))


def sobolev_norm(coeffs: np.ndarray, alpha: float, nu: float) -> np.ndarray:
    """Weighted l2 norms sqrt(sum_i sum_{|k|<=N} (1+nu*k^2)^alpha |u_{i,k}|^2)
    of coefficient arrays shaped (..., n, N+1), one per leading index (a
    scalar for one field's (n, N+1) coefficients).

    The implied negative modes are counted, i.e. every k >= 1 term enters
    twice.  Negative alpha gives the dual (distribution-scale) norms.  Each
    norm is a pairwise sum over its own contiguous rows, so it has the same
    bits in a stack as alone.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    k = np.arange(coeffs.shape[-1], dtype=np.float64)
    w = (1.0 + nu * k * k) ** alpha
    tail = np.abs(coeffs[..., 1:])   # one contiguous temporary
    np.square(tail, out=tail)
    tail *= w[1:]
    return np.sqrt(np.sum(w[0] * np.abs(coeffs[..., 0]) ** 2, axis=-1)
                   + 2.0 * np.sum(tail, axis=(-2, -1)))


def sup_norms(coeffs: np.ndarray, work: Workspace | None = None) -> np.ndarray:
    """Sup norms max_x |u_i(x)| of coefficient rows u_i (shape (i, N+1)) on
    fast_grid_size(8 * (2N+2)) points, each sharpened by a quadratic fit
    through the grid maximum.  This is a documented approximation to the
    true supremum.  Its worst case is a peak of the top mode halfway between
    nodes, which at 8 * (2N+2) points lie under pi/8 apart in that mode's
    phase: the parabola vertex is then within 5.5e-4 relative of the peak.
    The fit adds at most a quarter of the grid maximum (both neighbours lie
    in [0, y1]): each value is <= 1.25 y1.  One grid_values call serves
    every row, on work's grid if given, and one array expression fits all.
    """
    m = fast_grid_size(8 * (2 * (coeffs.shape[-1] - 1) + 2))
    a = grid_values(coeffs, m, work)
    np.abs(a, out=a)
    rows, top = np.arange(len(a)), np.argmax(a, axis=1)
    y0, y1, y2 = a[rows, top - 1], a[rows, top], a[rows, (top + 1) % m]
    denom = 2.0 * y1 - y0 - y2
    lift = np.divide((y2 - y0) ** 2, 8.0 * denom,
                     out=np.zeros_like(denom), where=denom > 0.0)
    return y1 + lift


def sup_norm(coeffs: np.ndarray) -> float:
    """Max of sup_norms over one field's (n, N+1) coefficients."""
    return float(sup_norms(coeffs).max(initial=0.0))
