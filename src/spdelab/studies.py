"""Convergence-rate studies, their reports, and deterministic file output.

Every study is a pure function of (config, seed): replicas are indexed
tasks on counter-based streams, aggregation walks arrays in replica order,
and the report writers format floats by shortest round-trip repr, so rerun
outputs are byte-identical at any worker count.  Replicas share their random
numbers across the eps grid (common random numbers), which smooths rate
estimates without biasing per-eps statistics.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .averaging import TailScalingReport, tail_experiment
from .constants import truncation_matched_constant, white_noise_constant
# couple_runs is not called here; it stays bound in this module because
# bench/spans.py traces the names the studies import.
from .integrate import (SimulationConfig, Trajectory, Variant, couple_runs,
                        coupled_distances, run_mild, sup_distance)
from .linops import OperatorSpec
from .models import ModelSpec, model_from_config
from .noise import (NoiseStream, PURPOSE_INITIAL_FIELD, sample_stationary,
                    step_coupled)
from .regression import RegressionResult, regress_loglog
from .spectral import SpectralField, sup_norm

SCHEMA_VERSION = 1

_DYADIC = tuple(2.0 ** -j for j in range(3, 8))


@dataclass
class RunConfig:
    """Resolved configuration of one study; everything echoes into reports."""

    study: str = "converge"
    model: dict = field(default_factory=lambda: {
        "name": "polynomial", "nu": 1.0, "f": [0.0, -1.0], "h": [1.0]})
    eps_grid: tuple[float, ...] = _DYADIC
    replicas: int = 20
    seed: int = 0
    workers: int = 1
    modes_over_eps: float = 8.0
    fixed_modes: Optional[int] = None
    dt: float = 0.005
    t_final: float = 0.5
    record_stride: int = 1
    oversample: int = 2
    dealias_fraction: float = 2.0 / 3.0
    blowup_cutoff: float = 1e3
    correction: str = "truncation-matched"
    beta: float = 0.6
    gamma: float = 0.75
    alpha: float = 0.75
    u0_modes: int = 16
    u0_decay: float = 1.5
    u0_amplitude: float = 1.0

    def __post_init__(self) -> None:
        self.eps_grid = tuple(float(e) for e in self.eps_grid)
        if not self.eps_grid or any(e <= 0 for e in self.eps_grid):
            raise ValueError("eps_grid must be positive")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.modes_over_eps <= 0:
            raise ValueError("modes_over_eps must be positive")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["eps_grid"] = list(self.eps_grid)
        return out

    def modes_for(self, eps: float) -> int:
        if self.fixed_modes is not None:
            return int(self.fixed_modes)
        return int(math.ceil(self.modes_over_eps / eps))

    def simulation_config(self, eps: float) -> SimulationConfig:
        return SimulationConfig(
            max_mode=self.modes_for(eps), dt=self.dt, t_final=self.t_final,
            record_stride=self.record_stride, oversample=self.oversample,
            dealias_fraction=self.dealias_fraction,
            blowup_cutoff=self.blowup_cutoff)


@dataclass
class ConvergenceReport:
    """Per-eps error statistics plus a log-log rate fit."""

    study: str
    seed: int
    config: dict
    eps: list[float]
    per_eps: list[dict]
    slope: Optional[float]
    intercept: Optional[float]
    r2: Optional[float]
    ci95: Optional[tuple[float, float]]
    naive_over_corrected: Optional[float]
    constants: dict
    schema_version: int = SCHEMA_VERSION


def initial_field(n_components: int, max_mode: int, decay: float,
                  amplitude: float, stream: NoiseStream) -> SpectralField:
    """Smooth random initial data with coefficients ~ (1+k^2)^{-decay}.

    Drawn once per study (purpose-tagged stream, replica 0) and reused at
    every eps level; the mode count is fixed so the field is literally the
    same function in every run.
    """
    z = stream.with_replica(0).with_purpose(PURPOSE_INITIAL_FIELD).normals(
        0, (n_components, max_mode + 1, 2))
    k = np.arange(max_mode + 1, dtype=np.float64)
    amp = amplitude * (1.0 + k * k) ** (-decay)
    coeffs = amp * (z[:, :, 0] + 1j * z[:, :, 1]) / math.sqrt(2.0)
    coeffs[:, 0] = amp[0] * z[:, 0, 0]
    return SpectralField(n_components, max_mode, coeffs)


def _threads(workers: int) -> int:
    return min(workers, os.cpu_count() or 1)  # more threads only contend


def _pool_map(fn, items, workers: int) -> list:
    if _threads(workers) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=_threads(workers)) as pool:
        return list(pool.map(fn, items))


def _replica_map(fn, replicas: int, workers: int) -> list:
    return _pool_map(fn, range(replicas), workers)


def _block_map(fn, replicas: int, workers: int) -> list:
    """fn maps an array of replica indices to one result per replica; the
    replicas are split into min(workers, cores) contiguous blocks."""
    blocks = np.array_split(np.arange(replicas),
                            min(_threads(workers), replicas))
    return [res for part in _pool_map(fn, blocks, workers) for res in part]


def _aggregate(values: list[tuple[float, bool]]) -> dict:
    """Mean/spread of uncensored replicas plus the censored count."""
    ok = np.asarray([v for v, censored in values if not censored])
    out = {"n_replicas": len(values),
           "n_censored": int(len(values) - ok.size)}
    if ok.size:
        out["mean_error"] = float(np.mean(ok))
        out["std_error"] = float(np.std(ok, ddof=1)) if ok.size > 1 else 0.0
        out["stderr_mean"] = out["std_error"] / math.sqrt(ok.size)
    else:
        out["mean_error"] = None
        out["std_error"] = None
        out["stderr_mean"] = None
    return out


def _fit_points(report_rows: list[dict]) -> tuple:
    pts = [(row["eps"], row["mean_error"]) for row in report_rows
           if row["mean_error"] is not None and row["mean_error"] > 0]
    if len(pts) < 4:
        return None, None, None, None
    fit = regress_loglog(pts)
    return fit.slope, fit.intercept, fit.r2, fit.ci95


def _ratio_at_smallest(rows: list[dict]) -> Optional[float]:
    for row in sorted(rows, key=lambda r: r["eps"]):
        num = row.get("naive_mean_error")
        den = row.get("mean_error")
        if num is not None and den:
            return float(num / den)
    return None


def run_convergence_study(cfg: RunConfig) -> ConvergenceReport:
    """Main-theorem experiment: perturbed runs against both candidate limits.

    For each eps and replica, all three coupled runs share one noise path;
    the sup-over-time sup-norm distances to the corrected and naive limits
    are averaged over uncensored replicas, and the corrected-limit means are
    fit to a power law.  Replicas run in contiguous lockstep blocks, one per
    worker thread; a replica's distances do not depend on its block.
    """
    spec, _ = model_from_config(cfg.model)
    base = NoiseStream(cfg.seed)
    u0 = initial_field(spec.n, cfg.u0_modes, cfg.u0_decay, cfg.u0_amplitude,
                       base)
    rows = []
    for eps in sorted(cfg.eps_grid, reverse=True):
        sim = cfg.simulation_config(eps)

        def block(replicas, eps=eps, sim=sim) -> list:
            return coupled_distances(spec, eps, u0, sim,
                                     [base.with_replica(r) for r in replicas],
                                     correction=cfg.correction)

        results = _block_map(block, cfg.replicas, cfg.workers)
        row = {"eps": eps, "n_modes": sim.max_mode}
        row.update(_aggregate([r[0] for r in results]))
        naive_stats = _aggregate([r[1] for r in results])
        row["naive_mean_error"] = naive_stats["mean_error"]
        row["naive_std_error"] = naive_stats["std_error"]
        row["truncation_matched_constant"] = truncation_matched_constant(
            spec.nu, eps, sim.max_mode)
        rows.append(row)

    slope, intercept, r2, ci = _fit_points(rows)
    return ConvergenceReport(
        study="converge", seed=cfg.seed, config=cfg.to_dict(),
        eps=[r["eps"] for r in rows], per_eps=rows, slope=slope,
        intercept=intercept, r2=r2, ci95=ci,
        naive_over_corrected=_ratio_at_smallest(rows),
        constants={"asymptotic": white_noise_constant(spec.nu)})


def run_theorem15_study(cfg: RunConfig) -> ConvergenceReport:
    """Small-noise experiment: stochastic runs against the deterministic
    limits, measured in the Sobolev beta norm.

    The deterministic corrected and naive limits are integrated once per
    eps (they carry no noise); each replica integrates only the stochastic
    variant.
    """
    spec, _ = model_from_config(cfg.model)
    if spec.g is not None:
        raise ValueError("small-noise study requires a model with g = 0")
    base = NoiseStream(cfg.seed)
    u0 = initial_field(spec.n, cfg.u0_modes, cfg.u0_decay, cfg.u0_amplitude,
                       base)
    rows = []
    for eps in sorted(cfg.eps_grid, reverse=True):
        sim = cfg.simulation_config(eps)
        if cfg.correction == "truncation-matched":
            const = truncation_matched_constant(spec.nu, eps, sim.max_mode)
        else:
            const = white_noise_constant(spec.nu)
        corrected = run_mild(spec, Variant.V_LIMIT, 0.0, u0, None, sim,
                             correction_constant=const)
        naive = run_mild(spec, Variant.V_LIMIT, 0.0, u0, None, sim,
                         correction_constant=0.0)

        def one(replica: int, eps=eps, sim=sim, corrected=corrected,
                naive=naive) -> tuple:
            state = sample_stationary([OperatorSpec(spec.nu, eps)], spec.n,
                                      sim.max_mode,
                                      base.with_replica(replica))
            traj = run_mild(spec, Variant.V_EPS, eps, u0, state, sim)
            return (sup_distance(traj, corrected, "sobolev", alpha=cfg.beta,
                                 nu=spec.nu),
                    sup_distance(traj, naive, "sobolev", alpha=cfg.beta,
                                 nu=spec.nu))

        results = _replica_map(one, cfg.replicas, cfg.workers)
        row = {"eps": eps, "n_modes": sim.max_mode}
        row.update(_aggregate([r[0] for r in results]))
        naive_stats = _aggregate([r[1] for r in results])
        row["naive_mean_error"] = naive_stats["mean_error"]
        row["naive_std_error"] = naive_stats["std_error"]
        row["truncation_matched_constant"] = truncation_matched_constant(
            spec.nu, eps, sim.max_mode)
        rows.append(row)

    slope, intercept, r2, ci = _fit_points(rows)
    return ConvergenceReport(
        study="theorem15", seed=cfg.seed, config=cfg.to_dict(),
        eps=[r["eps"] for r in rows], per_eps=rows, slope=slope,
        intercept=intercept, r2=r2, ci95=ci,
        naive_over_corrected=_ratio_at_smallest(rows),
        constants={"asymptotic": white_noise_constant(spec.nu),
                   "sobolev_beta": cfg.beta})


def psi_coupling_distance(nu: float, eps: float, max_mode: int, dt: float,
                          t_final: float, stream: NoiseStream) -> float:
    """Sup over recorded times and space of psi^eps - psi^0 for one path."""
    levels = (OperatorSpec(nu, eps), OperatorSpec(nu, 0.0))
    state = sample_stationary(levels, 1, max_mode, stream)
    best = sup_norm(state.psi_field(0) - state.psi_field(1))
    for _ in range(max(1, int(round(t_final / dt)))):
        state = step_coupled(state, dt)
        best = max(best, sup_norm(state.psi_field(0) - state.psi_field(1)))
    return best


def run_psi_coupling_study(cfg: RunConfig) -> ConvergenceReport:
    """Scaling of the sup distance between coupled noise levels.

    No model enters: this measures E sup_{t <= T} sup_x |psi^eps - psi^0|
    directly from the exactly coupled sampler and fits its eps power law.
    """
    nu = float(cfg.model.get("nu", 1.0))
    base = NoiseStream(cfg.seed)
    rows = []
    for eps in sorted(cfg.eps_grid, reverse=True):
        n_modes = cfg.modes_for(eps)

        def one(replica: int, eps=eps, n_modes=n_modes) -> tuple:
            d = psi_coupling_distance(nu, eps, n_modes, cfg.dt, cfg.t_final,
                                      base.with_replica(replica))
            return (d, False)

        results = _replica_map(one, cfg.replicas, cfg.workers)
        row = {"eps": eps, "n_modes": n_modes}
        row.update(_aggregate(results))
        rows.append(row)

    slope, intercept, r2, ci = _fit_points(rows)
    return ConvergenceReport(
        study="psi-coupling", seed=cfg.seed, config=cfg.to_dict(),
        eps=[r["eps"] for r in rows], per_eps=rows, slope=slope,
        intercept=intercept, r2=r2, ci95=ci, naive_over_corrected=None,
        constants={"asymptotic": white_noise_constant(nu)})


def run_averaging_study(cfg: RunConfig) -> TailScalingReport:
    """Fluctuation-norm scaling via the single-time averaging lab."""
    nu = float(cfg.model.get("nu", 1.0))
    return tail_experiment(nu, cfg.gamma, cfg.alpha, sorted(cfg.eps_grid,
                                                            reverse=True),
                           cfg.replicas, NoiseStream(cfg.seed),
                           modes_over_eps=cfg.modes_over_eps)


def calibrate_dt(spec: ModelSpec, variant: Variant, eps: float,
                 u0: SpectralField, config: SimulationConfig,
                 tolerance: float, max_halvings: int = 8, *,
                 correction_constant: float | None = None) -> float:
    """Halve dt until successive deterministic refinements agree.

    Runs the variant with the noise frozen at zero, comparing each run with
    its half-step refinement on the coarse recording grid, and returns the
    first dt whose refinement changes the trajectory by less than
    `tolerance` in sup norm.  Used offline to pin study defaults.
    """
    dt = config.dt
    stride = config.record_stride
    prev = run_mild(spec, variant, eps, u0, None,
                    dataclasses.replace(config, dt=dt, record_stride=stride),
                    correction_constant=correction_constant)
    for _ in range(max_halvings):
        stride *= 2
        dt /= 2.0
        refined = run_mild(spec, variant, eps, u0, None,
                           dataclasses.replace(config, dt=dt,
                                               record_stride=stride),
                           correction_constant=correction_constant)
        gap, _ = sup_distance(prev, refined)
        if gap < tolerance:
            return dt * 2.0
        prev = refined
    raise RuntimeError(f"dt did not stabilize within {max_halvings} halvings")


# ---------------------------------------------------------------------------
# Report serialization


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


_PER_EPS_KEYS = ("n_modes", "n_replicas", "n_censored", "mean_error",
                 "std_error", "stderr_mean", "naive_mean_error",
                 "naive_std_error", "truncation_matched_constant")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def report_csv_text(report: ConvergenceReport) -> str:
    lines = ["eps,statistic,value"]
    for row in report.per_eps:
        eps_txt = _fmt(row["eps"])
        for key in _PER_EPS_KEYS:
            if key in row:
                lines.append(f"{eps_txt},{key},{_fmt(row[key])}")
    lines.append(f"overall,slope,{_fmt(report.slope)}")
    lines.append(f"overall,intercept,{_fmt(report.intercept)}")
    lines.append(f"overall,r2,{_fmt(report.r2)}")
    ci = report.ci95 or (None, None)
    lines.append(f"overall,ci95_lo,{_fmt(ci[0])}")
    lines.append(f"overall,ci95_hi,{_fmt(ci[1])}")
    lines.append(
        f"overall,naive_over_corrected,{_fmt(report.naive_over_corrected)}")
    for key in sorted(report.constants):
        lines.append(f"overall,{key},{_fmt(report.constants[key])}")
    return "\n".join(lines) + "\n"


def tail_csv_text(report: TailScalingReport) -> str:
    lines = ["eps,statistic,value"]
    for i, eps in enumerate(report.eps):
        eps_txt = _fmt(eps)
        lines.append(f"{eps_txt},n_modes,{report.max_modes[i]}")
        lines.append(f"{eps_txt},median_phi,{_fmt(report.median_phi[i])}")
        lines.append(f"{eps_txt},q90_phi,{_fmt(report.q90_phi[i])}")
        lines.append(
            f"{eps_txt},median_phi_tilde,{_fmt(report.median_phi_tilde[i])}")
        lines.append(f"{eps_txt},q90_phi_tilde,{_fmt(report.q90_phi_tilde[i])}")
    for name, fit in (("phi", report.slope_phi),
                      ("phi_tilde", report.slope_phi_tilde)):
        lines.append(f"overall,slope_{name},{_fmt(fit.slope)}")
        lines.append(f"overall,ci95_lo_{name},{_fmt(fit.ci95[0])}")
        lines.append(f"overall,ci95_hi_{name},{_fmt(fit.ci95[1])}")
    return "\n".join(lines) + "\n"


def _jsonable(obj):
    if isinstance(obj, RegressionResult):
        return {"slope": obj.slope, "intercept": obj.intercept,
                "r2": obj.r2, "ci95": list(obj.ci95)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def report_json_text(report) -> str:
    return json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"


def write_report(report, csv_path: str | None,
                 json_path: str | None) -> None:
    """Write CSV/JSON forms of a study report atomically."""
    if csv_path:
        if isinstance(report, TailScalingReport):
            _atomic_write(csv_path, tail_csv_text(report))
        else:
            _atomic_write(csv_path, report_csv_text(report))
    if json_path:
        _atomic_write(json_path, report_json_text(report))
