"""Truncated Fourier representation of real periodic vector fields.

Fields live on [0, 2*pi), take values in R^n, and are stored as complex
coefficients over the orthonormal basis e_k(x) = exp(i*k*x)/sqrt(2*pi) for
k = 0..N.  The coefficient at -k is implied by conjugation (only real fields
are representable), so the k = 0 coefficient is kept exactly real.

Grid transforms are exact for the represented trigonometric polynomial
whenever the grid has at least 2N+2 points; grid sizes are always padded to
a power of two times the requested oversampling factor so FFT round trips
are cheap and unambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TWO_PI = 2.0 * math.pi
_SQRT_TWO_PI = math.sqrt(_TWO_PI)


def _base_grid_size(max_mode: int) -> int:
    """Smallest power of two that is >= 2*max_mode + 2."""
    need = 2 * max_mode + 2
    return 1 << (need - 1).bit_length()


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
        if not np.all(np.isfinite(c.view(np.float64))):
            raise ValueError("non-finite spectral coefficient")
        scale = max(1.0, float(np.max(np.abs(c)))) if c.size else 1.0
        if np.max(np.abs(c[:, 0].imag), initial=0.0) > 1e-9 * scale:
            raise ValueError("k = 0 coefficient of a real field must be real")
        c = c.copy()
        c[:, 0] = c[:, 0].real
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_coeffs(cls, coeffs: np.ndarray) -> "SpectralField":
        coeffs = np.atleast_2d(np.asarray(coeffs, dtype=np.complex128))
        return cls(coeffs.shape[0], coeffs.shape[1] - 1, coeffs)

    @classmethod
    def zeros(cls, n_components: int, max_mode: int) -> "SpectralField":
        return cls(n_components, max_mode,
                   np.zeros((n_components, max_mode + 1), dtype=np.complex128))

    @classmethod
    def constant(cls, values, max_mode: int) -> "SpectralField":
        """Field identically equal to `values` (one entry per component)."""
        vals = np.atleast_1d(np.asarray(values, dtype=np.float64))
        c = np.zeros((vals.shape[0], max_mode + 1), dtype=np.complex128)
        c[:, 0] = vals * _SQRT_TWO_PI  # constant 1 has coefficient sqrt(2*pi)
        return cls(vals.shape[0], max_mode, c)

    def copy(self) -> "SpectralField":
        return SpectralField(self.n_components, self.max_mode, self.coeffs.copy())

    def _check_compatible(self, other: "SpectralField") -> None:
        if (self.n_components, self.max_mode) != (other.n_components, other.max_mode):
            raise ValueError("field shapes do not match")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return SpectralField(self.n_components, self.max_mode,
                             self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return SpectralField(self.n_components, self.max_mode,
                             self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.n_components, self.max_mode,
                             self.coeffs * float(scalar))

    __rmul__ = __mul__


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
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite grid value")
        object.__setattr__(self, "values", v)

    def nodes(self) -> np.ndarray:
        return np.arange(self.grid_size) * (_TWO_PI / self.grid_size)


def to_grid(field: SpectralField, oversample: int = 1) -> GridField:
    """Evaluate the field on M = oversample * 2^ceil(log2(2N+2)) points.

    Exact (up to rounding) because M >= 2N+2 resolves every retained mode.
    """
    if oversample < 1:
        raise ValueError("oversample must be a positive integer")
    m = oversample * _base_grid_size(field.max_mode)
    half = np.zeros((field.n_components, m // 2 + 1), dtype=np.complex128)
    half[:, : field.max_mode + 1] = field.coeffs
    values = np.fft.irfft(half, n=m, axis=1) * (m / _SQRT_TWO_PI)
    return GridField(field.n_components, m, values)


def from_grid(grid: GridField, max_mode: int) -> SpectralField:
    """Project grid values onto modes 0..max_mode.

    Requires max_mode <= grid_size/2 - 1 so every requested mode is resolved.
    """
    if max_mode > grid.grid_size // 2 - 1:
        raise ValueError(
            f"mode count {max_mode} too large for grid of size {grid.grid_size}"
        )
    spec = np.fft.rfft(grid.values, axis=1)[:, : max_mode + 1]
    spec *= _SQRT_TWO_PI / grid.grid_size
    spec[:, 0] = spec[:, 0].real
    return SpectralField(grid.n_components, max_mode, spec)


def derivative(field: SpectralField, order: int = 1) -> SpectralField:
    """Spatial derivative of the given order: multiply mode k by (i*k)^order.

    The unit i^order is applied as an exact quarter-turn (no complex power),
    so even orders stay exactly real-scaled and k = 0 stays exactly real.
    """
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    if order == 0:
        return field.copy()
    k = np.arange(field.max_mode + 1, dtype=np.float64)
    unit = (1.0, 1j, -1.0, -1j)[order % 4]  # i^order, exact
    return SpectralField(field.n_components, field.max_mode,
                         unit * (field.coeffs * k ** order))


def sobolev_norm(field: SpectralField, alpha: float, nu: float) -> float:
    """Weighted l2 norm sqrt(sum_i sum_{|k|<=N} (1+nu*k^2)^alpha |u_{i,k}|^2).

    The implied negative modes are counted, i.e. every k >= 1 term enters
    twice.  Negative alpha gives the dual (distribution-scale) norms.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    k = np.arange(field.max_mode + 1, dtype=np.float64)
    w = (1.0 + nu * k * k) ** alpha
    sq = np.abs(field.coeffs) ** 2
    total = float(np.sum(w[0] * sq[:, 0]) + 2.0 * np.sum(w[1:] * sq[:, 1:]))
    return math.sqrt(total)


def sup_norm(field: SpectralField) -> float:
    """Max over components of max_x |u_i(x)| on an oversampled grid, sharpened
    by a quadratic fit through the grid maximum.  This is a documented
    approximation to the true supremum: the parabola vertex recovers the
    inter-node peak of the trigonometric polynomial to well under 0.1%
    relative error at this resolution.  The fit adds at most a quarter of the
    grid maximum (both neighbours lie in [0, y1]): the result is <= 1.25 y1.
    """
    g = to_grid(field, oversample=8)
    a = np.abs(g.values)
    best = 0.0
    for i in range(a.shape[0]):
        j = int(np.argmax(a[i]))
        y0 = a[i, j - 1]
        y1 = a[i, j]
        y2 = a[i, (j + 1) % a.shape[1]]
        denom = 2.0 * y1 - y0 - y2
        peak = y1
        if denom > 0.0:
            peak = y1 + (y2 - y0) ** 2 / (8.0 * denom)
        best = max(best, peak)
    return best


def dealias(field: SpectralField, cutoff_fraction: float = 2.0 / 3.0) -> SpectralField:
    """Zero every mode with |k| > floor(cutoff_fraction * N) (2/3 rule)."""
    if not 0.0 < cutoff_fraction <= 1.0:
        raise ValueError("cutoff_fraction must lie in (0, 1]")
    cut = int(math.floor(cutoff_fraction * field.max_mode))
    c = field.coeffs.copy()
    c[:, cut + 1:] = 0.0
    return SpectralField(field.n_components, field.max_mode, c)
