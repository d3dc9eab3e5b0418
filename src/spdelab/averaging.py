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
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft

from .constants import sigma_mode
from .noise import (NoiseStream, PURPOSE_GAUSS_PROFILE, PURPOSE_MODE_SET,
                    PURPOSE_MODE_SET_INDEP)
from .regression import RegressionResult, regress_loglog
from .spectral import SpectralField, sobolev_norm

_TWO_PI = 2.0 * math.pi

# tail_experiment's cutoff is N = ceil(modes_over_eps / eps^MODES_EXPONENT).
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


def _w_batch(nu: float, eps: float, max_mode: int, stream: NoiseStream,
             reps: int, purpose: int) -> np.ndarray:
    """reps independent snapshots, shape (reps, 2N+1), Hermitian rows."""
    if nu <= 0 or eps <= 0:
        raise ValueError("nu and eps must be positive")
    if max_mode < 1:
        raise ValueError("max_mode must be >= 1")
    z = stream.with_purpose(purpose).normals(0, (reps, max_mode, 2))
    sig = sigma_mode(nu, eps, np.arange(1, max_mode + 1))
    pos = np.sqrt(sig / 2.0) * (z[:, :, 0] + 1j * z[:, :, 1])
    return _mirror(np.concatenate([np.zeros((reps, 1)), pos], axis=1))


def sample_w(nu: float, eps: float, max_mode: int,
             stream: NoiseStream) -> ModeEnsemble:
    """Draw one snapshot; the stream's replica index selects the sample."""
    w = _w_batch(nu, eps, max_mode, stream, 1, PURPOSE_MODE_SET)[0]
    return ModeEnsemble(nu=nu, eps=eps, max_mode=max_mode, w=w)


def _grid(modes: np.ndarray) -> np.ndarray:
    """Values of the real field with modes 0..N on the no-alias grid."""
    size = sfft.next_fast_len(4 * (modes.shape[-1] - 1) + 1, real=True)
    return sfft.irfft(modes, n=size, norm="forward")


def _triple_sum(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                max_mode: int) -> np.ndarray:
    """(1/2 pi) sum_{k+l+m=n} a_k b_l c_m over n = 0..N, from grid values."""
    return sfft.rfft(a * b * c, norm="forward")[:max_mode + 1] / _TWO_PI


def compute_phi(v: SpectralField, w: ModeEnsemble) -> np.ndarray:
    """Centered quadratic fluctuation; returns coefficients over -N..N."""
    n = w.max_mode
    if v.coeffs.shape != (1, n + 1):
        raise ValueError("profile must be scalar and share the cutoff")
    w_grid = _grid(w.w[n:])
    phi = _triple_sum(w_grid, w_grid, _grid(v.coeffs[0]), n)
    return _mirror(phi - v.coeffs[0] / (2.0 * w.eps * math.sqrt(w.nu)))


def compute_phi_tilde(v: SpectralField, w: ModeEnsemble,
                      w_tilde: ModeEnsemble) -> np.ndarray:
    """Mixed quadratic with an independent copy; no centering needed."""
    n = w.max_mode
    if w_tilde.max_mode != n or v.coeffs.shape != (1, n + 1):
        raise ValueError("profile must be scalar and share the cutoff")
    if (w.nu, w.eps) != (w_tilde.nu, w_tilde.eps):
        raise ValueError("mode sets must share (nu, eps)")
    return _mirror(_triple_sum(_grid(w.w[n:]), _grid(w_tilde.w[n:]),
                               _grid(v.coeffs[0]), n))


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
    raw = SpectralField(1, max_mode, coeffs)
    return raw * (1.0 / sobolev_norm(raw, alpha, nu))


@dataclass(frozen=True)
class TailScalingReport:
    """Scaling summary of the fluctuation norms across eps."""

    nu: float
    gamma: float
    alpha: float
    eps: tuple[float, ...]
    max_modes: tuple[int, ...]
    replicas: int
    median_phi: tuple[float, ...]
    q90_phi: tuple[float, ...]
    median_phi_tilde: tuple[float, ...]
    q90_phi_tilde: tuple[float, ...]
    slope_phi: RegressionResult = field(repr=False)
    slope_phi_tilde: RegressionResult = field(repr=False)


def tail_experiment(nu: float, gamma: float, alpha: float, eps_grid,
                    reps: int, stream: NoiseStream, *,
                    modes_over_eps: float = 8.0,
                    profile: str = "deterministic") -> TailScalingReport:
    """Measure ||phi||_{-gamma} and ||phi_tilde||_{-gamma} across eps.

    For each eps the cutoff is N = ceil(modes_over_eps / eps^MODES_EXPONENT)
    (see MODES_EXPONENT for why the exponent exceeds 1).  The profile v is
    either the fixed deterministic one (unit alpha-norm) or, with
    profile="gaussian", a fresh random profile per replica with independent
    mode variances sigma_k / k^2.  Reports
    medians and upper quantiles plus the log-log slope of eps * median
    against eps (expected +1/2).

    Requires gamma > 1/2 and alpha > 1/2 so the norms and the profile class
    are in the valid range.
    """
    if gamma <= 0.5 or alpha <= 0.5:
        raise ValueError("gamma and alpha must both exceed 1/2")
    if reps < 2:
        raise ValueError("need at least two replicas")
    if profile not in ("deterministic", "gaussian"):
        raise ValueError("profile must be 'deterministic' or 'gaussian'")
    eps_grid = tuple(float(e) for e in eps_grid)
    if any(e <= 0 for e in eps_grid):
        raise ValueError("eps values must be positive")

    med_p, q90_p, med_t, q90_t, mode_counts = [], [], [], [], []
    for eps in eps_grid:
        n = int(math.ceil(modes_over_eps / eps ** MODES_EXPONENT))
        mode_counts.append(n)
        v_modes = deterministic_profile(n, alpha, nu).coeffs[0]
        v_grid = _grid(v_modes)
        k = np.arange(1, n + 1, dtype=np.float64)
        amp = np.sqrt(sigma_mode(nu, eps, k) / (k * k) / 2.0)
        norms_p = np.empty(reps)
        norms_t = np.empty(reps)
        for r in range(reps):
            sub = stream.with_replica(stream.replica + r)
            w_grid, wt_grid = (
                _grid(_w_batch(nu, eps, n, sub, 1, purpose)[0, n:])
                for purpose in (PURPOSE_MODE_SET, PURPOSE_MODE_SET_INDEP))
            if profile == "gaussian":
                z = sub.with_purpose(PURPOSE_GAUSS_PROFILE).normals(0, (n, 2))
                v_modes = np.zeros(n + 1, dtype=np.complex128)
                v_modes[1:] = amp * (z[:, 0] + 1j * z[:, 1])
                v_grid = _grid(v_modes)
            phi = (_triple_sum(w_grid, w_grid, v_grid, n)
                   - v_modes / (2.0 * eps * math.sqrt(nu)))
            phit = _triple_sum(w_grid, wt_grid, v_grid, n)
            for norms, modes in ((norms_p, phi), (norms_t, phit)):
                norms[r] = sobolev_norm(SpectralField.from_coeffs(modes),
                                        -gamma, nu)
        med_p.append(float(np.quantile(norms_p, 0.5)))
        q90_p.append(float(np.quantile(norms_p, 0.9)))
        med_t.append(float(np.quantile(norms_t, 0.5)))
        q90_t.append(float(np.quantile(norms_t, 0.9)))

    fit_p = regress_loglog([(e, e * m) for e, m in zip(eps_grid, med_p)])
    fit_t = regress_loglog([(e, e * m) for e, m in zip(eps_grid, med_t)])
    return TailScalingReport(
        nu=nu, gamma=gamma, alpha=alpha, eps=eps_grid,
        max_modes=tuple(mode_counts), replicas=reps,
        median_phi=tuple(med_p), q90_phi=tuple(q90_p),
        median_phi_tilde=tuple(med_t), q90_phi_tilde=tuple(q90_t),
        slope_phi=fit_p, slope_phi_tilde=fit_t)
