"""Single-time averaging diagnostics for the gradient-squared channel.

The fluctuation field probed here is, for a profile v and one stationary
noise snapshot encoded by mode amplitudes w,

    phi_n = (1/2 pi) sum_{k+l+m=n} v_m w_k w_l  -  v_n / (2 eps sqrt(nu)),

where the w_k are independent centered complex Gaussians (w_0 = 0, Hermitian
symmetry) with E|w_k|^2 = sigma_k = k^2/(1 + nu k^2 + eps^2 k^4).  The
subtraction removes the leading divergence of the quadratic term, and the
remainder measures eps^{-1/2} in negative Sobolev norms: the median of
eps * ||phi||_{-gamma} scales like eps^{+1/2}.

phi_tilde replaces one w factor by an independent copy and carries no
subtraction; it obeys the same scaling.

w, w_tilde and v are Hermitian, i.e. real fields, so each triple mode sum
is one pointwise product on a real grid of M >= 4N+1 points and one rfft cut
to |n| <= N.  The product carries modes up to 3N; on M points mode n' wraps
onto n' - M < -N, so the kept modes are exact (4N+1 is the no-alias bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import sigma_mode
from .noise import NoiseStream, PURPOSE_MODE_SET, PURPOSE_MODE_SET_INDEP
from .spectral import SpectralField, fast_grid_size, sobolev_norm

_TWO_PI = 2.0 * math.pi

# run_averaging_study cuts at N = ceil(modes_over_eps / eps^MODES_EXPONENT).
# The exponent must exceed 1, or the truncated mode sum misses a fixed
# fraction of the subtracted 1/(2 eps sqrt(nu)) and the centering bias stays
# at the same 1/eps order as the removed term, flattening the measured slope.
MODES_EXPONENT = 1.5


@dataclass(frozen=True)
class ModeEnsemble:
    """One snapshot of mode amplitudes over k = -N..N (index k + N).

    w_0 = 0 and w_{-k} = conj(w_k); the represented random field is real.
    """

    nu: float
    eps: float
    max_mode: int
    w: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.complex128)
        if w.shape != (2 * self.max_mode + 1,):
            raise ValueError("w must cover modes -N..N")
        coefficients_to_field(w)  # raises unless Hermitian: phi needs real w
        object.__setattr__(self, "w", w)


def _mirror(modes: np.ndarray) -> np.ndarray:
    """Hermitian sequences over -N..N from their modes 0..N (last axis)."""
    return np.concatenate([np.conj(modes[..., :0:-1]), modes], axis=-1)


def _mode_scale(nu: float, eps: float, max_mode: int) -> np.ndarray:
    """sqrt(sigma_k / 2) over k = 1..N: the scale of each part of w_k."""
    return np.sqrt(sigma_mode(nu, eps, np.arange(1, max_mode + 1)) / 2.0)


def _w_batch(nu: float, eps: float, max_mode: int, stream: NoiseStream,
             reps: int, purpose: int) -> np.ndarray:
    """reps independent snapshots, shape (reps, 2N+1), Hermitian rows."""
    if nu <= 0 or eps <= 0:
        raise ValueError("nu and eps must be positive")
    if max_mode < 1:
        raise ValueError("max_mode must be >= 1")
    z = stream.normals(purpose, 0, (reps, max_mode, 2))
    pos = _mode_scale(nu, eps, max_mode) * (z[:, :, 0] + 1j * z[:, :, 1])
    return _mirror(np.concatenate([np.zeros((reps, 1)), pos], axis=1))


def sample_w(nu: float, eps: float, max_mode: int,
             stream: NoiseStream) -> ModeEnsemble:
    """Draw one snapshot; the stream's replica index selects the sample."""
    w = _w_batch(nu, eps, max_mode, stream, 1, PURPOSE_MODE_SET)[0]
    return ModeEnsemble(nu=nu, eps=eps, max_mode=max_mode, w=w)


def _grid_size(max_mode: int) -> int:
    """Points of the no-alias grid for modes 0..N: fast_grid_size(4N+1)."""
    return fast_grid_size(4 * max_mode + 1)


def _grid(modes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Values of the real field with modes 0..N on the no-alias grid (in
    out when given)."""
    return np.fft.irfft(modes, n=_grid_size(modes.shape[-1] - 1),
                        norm="forward", out=out)


def _triple_sum(product: np.ndarray, max_mode: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """(1/2 pi) sum_{k+l+m=n} a_k b_l c_m over n = 0..N, from the product
    a b c of the three fields' grid values.  Given out, the whole spectrum
    of the product, the result is a view of it."""
    modes = np.fft.rfft(product, norm="forward", out=out)[:max_mode + 1]
    modes /= _TWO_PI
    return modes


def compute_phi(v: SpectralField, w: ModeEnsemble) -> np.ndarray:
    """Centered quadratic fluctuation; returns coefficients over -N..N."""
    n = w.max_mode
    if v.coeffs.shape != (1, n + 1):
        raise ValueError("profile must be scalar and share the cutoff")
    w_grid = _grid(w.w[n:])
    phi = _triple_sum(w_grid * w_grid * _grid(v.coeffs[0]), n)
    return _mirror(phi - v.coeffs[0] / (2.0 * w.eps * math.sqrt(w.nu)))


def compute_phi_tilde(v: SpectralField, w: ModeEnsemble,
                      w_tilde: ModeEnsemble) -> np.ndarray:
    """Mixed quadratic with an independent copy; no centering needed."""
    n = w.max_mode
    if w_tilde.max_mode != n or v.coeffs.shape != (1, n + 1):
        raise ValueError("profile must be scalar and share the cutoff")
    if (w.nu, w.eps) != (w_tilde.nu, w_tilde.eps):
        raise ValueError("mode sets must share (nu, eps)")
    return _mirror(_triple_sum(
        _grid(w.w[n:]) * _grid(w_tilde.w[n:]) * _grid(v.coeffs[0]), n))


def coefficients_to_field(seq: np.ndarray) -> SpectralField:
    """Pack a Hermitian coefficient sequence over -N..N as a scalar field."""
    seq = np.asarray(seq, dtype=np.complex128)
    n = (seq.shape[0] - 1) // 2
    if seq.shape[0] != 2 * n + 1:
        raise ValueError("sequence length must be odd (modes -N..N)")
    herm_gap = np.max(np.abs(seq[:n][::-1] - np.conj(seq[n + 1:])), initial=0.0)
    scale = max(1.0, float(np.max(np.abs(seq))))
    if herm_gap > 1e-9 * scale or abs(seq[n].imag) > 1e-9 * scale:
        raise ValueError("sequence is not Hermitian; field would be complex")
    coeffs = seq[n:].copy()
    coeffs[0] = coeffs[0].real
    return SpectralField(1, n, coeffs[None, :])


def deterministic_profile(max_mode: int, alpha: float, nu: float) -> SpectralField:
    """Fixed smooth scalar profile with unit alpha-norm.

    Coefficients decay like (1 + k^2)^{-1}, then the whole field is scaled so
    its Sobolev alpha-norm equals one; the tail beyond any reasonable cutoff
    is negligible, so the profile is effectively cutoff-independent.
    """
    k = np.arange(max_mode + 1, dtype=np.float64)
    coeffs = ((1.0 + k * k) ** -1.0)[None, :].astype(np.complex128)
    return SpectralField(1, max_mode,
                         coeffs * (1.0 / sobolev_norm(coeffs, alpha, nu)))


def level_terms(nu: float, eps: float, alpha: float,
                max_mode: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """replica_norms' inputs shared by every replica of one level: the
    deterministic profile's _grid values, the snapshot scale (_mode_scale's)
    and the centring v_n / (2 eps sqrt(nu)) over n = 0..N."""
    v_modes = deterministic_profile(max_mode, alpha, nu).coeffs[0]
    return (_grid(v_modes), _mode_scale(nu, eps, max_mode),
            v_modes / (2.0 * eps * math.sqrt(nu)))


def _snapshot_grid(scale: np.ndarray, stream: NoiseStream, purpose: int,
                   modes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """_grid of one _w_batch row's modes 0..N, drawn straight into modes
    (N+1 complex values), into out.

    scale is _mode_scale's; purpose picks w or its copy.
    """
    n = scale.shape[0]
    modes[0] = 0.0
    stream.normals(purpose, 0, (1, n, 2),
                   out=modes[1:].view(np.float64).reshape(1, n, 2))
    modes[1:] *= scale
    return _grid(modes, out)


def replica_norms(nu: float, gamma: float, v_grid: np.ndarray,
                  scale: np.ndarray, centring: np.ndarray,
                  streams) -> list[tuple[float, float]]:
    """(||phi||_{-gamma}, ||phi_tilde||_{-gamma}) for each stream's snapshot.

    v_grid, scale and centring are the level's level_terms.  Per thread,
    three grids serve every replica: w, w_tilde and the spectrum of their
    products, whose head holds each snapshot's modes 0..N while it is
    drawn; so no replica maps fresh pages.  Each triple product is formed in
    place in the same order as compute_phi's, and each sum divided and
    centred in place, so the norms keep its bits.
    """
    n = scale.shape[0]
    m = _grid_size(n)
    w, w_tilde = np.empty(m), np.empty(m)
    spectrum = np.empty(m // 2 + 1, dtype=np.complex128)
    modes = spectrum[:n + 1]

    def norm(modes: np.ndarray) -> float:
        return float(sobolev_norm(modes[None], -gamma, nu))

    out = []
    for sub in streams:
        _snapshot_grid(scale, sub, PURPOSE_MODE_SET, modes, w)
        _snapshot_grid(scale, sub, PURPOSE_MODE_SET_INDEP, modes, w_tilde)
        w_tilde *= w
        w_tilde *= v_grid
        phit = norm(_triple_sum(w_tilde, n, spectrum))
        w *= w
        w *= v_grid
        phi = _triple_sum(w, n, spectrum)
        phi -= centring
        out.append((norm(phi), phit))
    return out
