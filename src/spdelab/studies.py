"""Convergence-rate studies, their reports, and deterministic file output.

Every study is a pure function of (config, seed): replicas are indexed
tasks on counter-based streams, each eps level depends only on (config,
eps), aggregation walks the levels largest eps first and each level's
arrays in replica order, whichever thread or forked process ran them, and
the report writers format floats by shortest round-trip repr, so rerun
outputs are byte-identical at any worker count.  Replicas share their random
numbers across the eps grid (common random numbers), which smooths rate
estimates without biasing per-eps statistics.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import pickle
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .averaging import MODES_EXPONENT, level_terms, replica_norms
from .constants import truncation_matched_constant, white_noise_constant
# couple_runs, run_mild, sample_stationary and sup_distance are not called
# here; they stay bound in this module because bench/spans.py traces the
# names the studies import.
from .integrate import (CORRECTIONS, SimulationConfig, couple_runs,
                        coupled_distances, reference_distances,
                        resolve_correction, run_mild, sup_distance)
from .linops import OperatorSpec
from .models import model_from_config
from .noise import (NoiseStream, PURPOSE_INITIAL_FIELD, sample_replicas,
                    sample_stationary, step_replicas)
from .regression import RegressionResult, regress_loglog
from .spectral import SpectralField, Workspace, sup_norms

SCHEMA_VERSION = 2

_DYADIC = tuple(2.0 ** -j for j in range(3, 8))

# A block is split over threads only when each thread gets at least this
# many complex state coefficients per step; below that the threads lose
# more to handing the interpreter lock between short NumPy calls than they
# gain.  One study call at one eps per cell, two calls each, seconds on 1
# thread / 2 threads, 2-core x86-64 host.  converge, 6 replicas (3(N+1)
# coefficients each): N = 64: 0.06-0.07 / 0.25; 128: 0.11-0.15 / 0.26-0.27;
# 256: 0.21-0.22 / 0.33-0.34; 512: 0.26-0.32 / 0.35-0.37; 1,024: 0.52-0.55
# / 0.36-0.48.  theorem15, 4 replicas (N+1 each, plus the two limit runs):
# N = 1,024: 0.23-0.29 / 0.35-0.36; 2,048: 0.36-0.41 / 0.33-0.40; 4,096:
# 0.67-0.71 / 0.56-0.61; 8,192: 1.28-1.30 / 0.87-0.97; 32,768: 4.5-5.3 /
# 3.1-3.5.  Both cross over between 4k and 8k coefficients per thread.
BLOCK_COEFFS = 8192


@dataclass
class RunConfig:
    """Resolved configuration of one study; all but workers echoes into
    reports, which do not depend on the worker count.  workers, an upper
    bound on the cores a study uses, defaults to every usable core: the
    integrator studies may run their eps levels in that many processes,
    and _block_map still runs small levels on one thread."""

    study: str = "converge"
    model: dict = field(default_factory=lambda: {
        "name": "polynomial", "nu": 1.0, "f": [0.0, -1.0], "h": [1.0]})
    eps_grid: tuple[float, ...] = _DYADIC
    replicas: int = 20
    seed: int = 0
    workers: int = field(default_factory=lambda: usable_cores())
    modes_over_eps: float = 8.0
    fixed_modes: Optional[int] = None
    dt: float = 0.005
    t_final: float = 0.5
    blowup_cutoff: float = 1e3
    correction: str = "truncation-matched"
    beta: float = 0.6
    gamma: float = 0.75
    alpha: float = 0.75
    u0_modes: int = 16
    u0_decay: float = 1.5
    u0_amplitude: float = 1.0

    def __post_init__(self) -> None:
        for name in ("replicas", "seed", "workers", "fixed_modes",
                     "u0_modes"):
            value = getattr(self, name)
            if name == "fixed_modes" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value,
                                                         numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        self.eps_grid = tuple(float(e) for e in self.eps_grid)
        if not self.eps_grid or not all(0 < e < math.inf
                                        for e in self.eps_grid):
            raise ValueError("eps_grid must be positive and finite")
        if len(set(self.eps_grid)) != len(self.eps_grid):
            raise ValueError("eps_grid values must be distinct")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.fixed_modes is not None and self.fixed_modes < 1:
            raise ValueError("fixed_modes must be >= 1")
        if not 0 < self.modes_over_eps < math.inf:
            raise ValueError("modes_over_eps must be positive and finite")
        if self.u0_modes < 0:
            raise ValueError("u0_modes must be nonnegative")
        for name in ("beta", "gamma", "alpha", "u0_decay", "u0_amplitude",
                     "correction"):
            value = getattr(self, name)
            if not isinstance(value, str) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value!r}")
        if isinstance(self.correction, bool) or isinstance(
                self.correction, str) and self.correction not in CORRECTIONS:
            raise ValueError(f"correction must be a float or one of "
                             f"{CORRECTIONS}, not {self.correction!r}")
        if "mass" in self.model:
            # a potential's mass sets only its eps, which eps_grid replaces
            raise ValueError("model key 'mass' has no effect: every study "
                             "takes eps from eps_grid")
        # every study checks the step settings, averaging (no steps) too
        self.simulation_config(min(self.eps_grid))

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
            return self.fixed_modes
        return int(math.ceil(self.modes_over_eps / eps))

    def simulation_config(self, eps: float) -> SimulationConfig:
        return SimulationConfig(
            max_mode=self.modes_for(eps), dt=self.dt, t_final=self.t_final,
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


def initial_field(n_components: int, max_mode: int, decay: float,
                  amplitude: float, stream: NoiseStream) -> SpectralField:
    """Smooth random initial data with coefficients ~ (1+k^2)^{-decay}.

    Drawn once per study (replica 0, its own purpose) and reused at every
    eps level; the mode count is fixed so the field is literally the same
    function in every run.
    """
    z = stream.with_replica(0).normals(PURPOSE_INITIAL_FIELD, 0,
                                       (n_components, max_mode + 1, 2))
    k = np.arange(max_mode + 1, dtype=np.float64)
    amp = amplitude * (1.0 + k * k) ** (-decay)
    coeffs = amp * (z[:, :, 0] + 1j * z[:, :, 1]) / math.sqrt(2.0)
    coeffs[:, 0] = amp[0] * z[:, 0, 0]
    return SpectralField(n_components, max_mode, coeffs)


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the
    platform reports one (taskset and cpusets narrow it, and os.cpu_count
    does not see that), else the installed count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_map(fn, cfg: RunConfig, per_replica: int) -> tuple:
    """fn maps a block's streams, NoiseStream(cfg.seed) at each replica of
    a contiguous run, to a tuple of arrays with one row per replica;
    returns each array over all cfg.replicas, in replica order.

    per_replica is the number of complex coefficients one replica's state
    holds per step.  workers is an upper bound: there are no more threads
    than cores (more threads only contend), and a thread gets at least
    BLOCK_COEFFS coefficients, so a small block runs on the calling thread.
    """
    base = NoiseStream(cfg.seed)
    threads = min(cfg.workers, usable_cores(), cfg.replicas,
                  max(1, cfg.replicas * per_replica // BLOCK_COEFFS))
    blocks = [[base.with_replica(r) for r in replicas] for replicas
              in np.array_split(np.arange(cfg.replicas), threads)]
    if threads == 1:
        return fn(blocks[0])
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return tuple(map(np.concatenate, zip(*pool.map(fn, blocks))))


def _levels_here(run, cfg: RunConfig, costs: list) -> list:
    """The in-process level map: every level on the calling process, in
    level order."""
    return [run(cfg, i) for i in range(len(costs))]


def _map_levels(run, cfg: RunConfig, costs: list) -> list:
    """[run(cfg, i) for each level i], in level order; costs[i] is level
    i's relative cost.

    The levels run in procs = min(total, levels) forked processes, total =
    min(workers, usable cores), each child running its levels with workers
    total // procs.  A child gets its share up front: each level, largest
    cost first, goes to the least-loaded child.  It runs its share in level
    order, stops at its first exception, pipes back its results or that
    exception, pickled, and ends in os._exit.  The parent raises the first
    failing level in level order, and reaps every child.  With one
    process, without fork as the platform's default start method, or while
    the caller runs other threads (a fork copies none of them), the levels
    run here instead.
    """
    total = min(cfg.workers, usable_cores())
    procs = min(total, len(costs))
    if procs < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return _levels_here(run, cfg, costs)
    import multiprocessing   # on this path only, so no import costs set-up
    import signal
    if multiprocessing.get_all_start_methods()[0] != "fork":
        return _levels_here(run, cfg, costs)

    shares, loads = [[] for _ in range(procs)], [0] * procs
    for i in sorted(range(len(costs)), key=costs.__getitem__, reverse=True):
        least = loads.index(min(loads))
        shares[least].append(i)
        loads[least] += costs[i]
    sub = dataclasses.replace(cfg, workers=total // procs)
    pipes, running, outcomes = [], set(), {}
    try:
        for share in shares:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_share(run, sub, sorted(share), write)
            running.add(pid)
            os.close(write)
            pipes.append((pid, os.fdopen(read, "rb")))
        for pid, pipe in pipes:
            data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            running.remove(pid)
            if not data:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(
                    "an eps-level process ended without a result: " +
                    (f"killed by signal {-code}" if code < 0
                     else f"exit status {code}"))
            outcomes.update((i, outcome) for i, *outcome in pickle.loads(data))
    finally:
        for _, pipe in pipes:
            pipe.close()
        for pid in running:   # left running by an exception here
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failed = [i for i, (ok, _) in outcomes.items() if not ok]
    if failed:
        raise outcomes[min(failed)][1]
    return [outcomes[i][1] for i in range(len(costs))]


def _run_share(run, cfg: RunConfig, share: list, write: int) -> None:
    """A forked child's whole life: run share's levels in order up to the
    first that raises, write [(level, ok, result or exception)] to the pipe
    end write, pickled, and exit.  No path returns into the caller."""
    code = 1
    try:
        out = []
        for i in share:
            try:
                out.append((i, True, run(cfg, i)))
            except Exception as exc:
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:
                    exc = RuntimeError(f"{type(exc).__name__}: {exc}")
                out.append((i, False, exc))
                break
        with os.fdopen(write, "wb") as pipe:
            pipe.write(pickle.dumps(out))
        code = 0
    finally:
        os._exit(code)


def _aggregate(values: np.ndarray, censored: np.ndarray) -> dict:
    """Mean/spread of uncensored replicas plus the censored count."""
    ok = values[~censored]
    out = {"n_replicas": len(values),
           "n_censored": int(len(values) - ok.size),
           "mean_error": None, "std_error": None, "stderr_mean": None}
    if ok.size:
        out["mean_error"] = float(np.mean(ok))
        out["std_error"] = float(np.std(ok, ddof=1)) if ok.size > 1 else 0.0
        out["stderr_mean"] = out["std_error"] / math.sqrt(ok.size)
    return out


def _ratio_at_smallest(rows: list[dict]) -> Optional[float]:
    """Naive over corrected mean error at the smallest eps; None when that
    level has no naive column or no uncensored mean."""
    row = min(rows, key=lambda r: r["eps"])
    if row.get("naive_mean_error") is None or not row["mean_error"]:
        return None
    return float(row["naive_mean_error"] / row["mean_error"])


def _sweep(cfg: RunConfig, study: str, nu: float, block,
           state_rows: int, constants: dict) -> ConvergenceReport:
    """The eps loop, aggregation, fit and report of the integrator studies.

    The levels are the eps values, largest first.  _map_levels runs them,
    concurrently in forked processes where it can, at cost N+1 each; at
    each level _block_map runs the replicas through block(eps, sim,
    streams) in contiguous blocks, sim being the level's SimulationConfig.
    One replica's state is state_rows rows of N+1 complex coefficients.  A
    block returns (dist, censored), each (R, columns): column 0 is the
    distance to the corrected limit and, for studies with a naive column,
    column 1 the distance to the naive limit.  The rows are aggregated here,
    in level order; rows with a naive column also carry the
    truncation-matched constant.  The means drop censored replicas, which
    biases them toward survivors, so no fit is made when any level has a
    censored replica.
    """
    levels = sorted(cfg.eps_grid, reverse=True)
    sims = [cfg.simulation_config(eps) for eps in levels]

    def level(sub, i):
        eps, sim = levels[i], sims[i]
        return _block_map(lambda streams: block(eps, sim, streams), sub,
                          state_rows * (sim.max_mode + 1))

    results = _map_levels(level, cfg, [sim.max_mode + 1 for sim in sims])
    rows = []
    for eps, sim, (dist, censored) in zip(levels, sims, results):
        n_modes = sim.max_mode
        row = {"eps": eps, "n_modes": n_modes}
        row.update(_aggregate(dist[:, 0], censored[:, 0]))
        if dist.shape[1] > 1:
            naive_stats = _aggregate(dist[:, 1], censored[:, 1])
            row["naive_mean_error"] = naive_stats["mean_error"]
            row["naive_std_error"] = naive_stats["std_error"]
            row["truncation_matched_constant"] = truncation_matched_constant(
                nu, eps, n_modes)
        rows.append(row)

    pts = [(r["eps"], r["mean_error"]) for r in rows
           if r["mean_error"] is not None and r["mean_error"] > 0]
    censored = any(r["n_censored"] for r in rows)
    fit = regress_loglog(pts) if len(pts) >= 4 and not censored \
        else RegressionResult(None, None, None, None)
    config = cfg.to_dict()
    config["study"] = study
    del config["workers"]
    return ConvergenceReport(
        study=study, seed=cfg.seed, config=config,
        eps=[r["eps"] for r in rows], per_eps=rows, slope=fit.slope,
        intercept=fit.intercept, r2=fit.r2, ci95=fit.ci95,
        naive_over_corrected=_ratio_at_smallest(rows), constants=constants)


def run_convergence_study(cfg: RunConfig) -> ConvergenceReport:
    """Main-theorem experiment: perturbed runs against both candidate limits.

    For each eps and replica, all three coupled runs share one noise path;
    the sup-over-time sup-norm distances to the corrected and naive limits
    are averaged over uncensored replicas, and the corrected-limit means are
    fit to a power law.
    """
    spec, _ = model_from_config(cfg.model)
    u0 = initial_field(spec.n, cfg.u0_modes, cfg.u0_decay, cfg.u0_amplitude,
                       NoiseStream(cfg.seed))

    def block(eps, sim, streams):
        return coupled_distances(spec, eps, u0, sim, streams,
                                 correction=cfg.correction)

    # three channels: the perturbed run and both limits
    return _sweep(cfg, "converge", spec.nu, block, 3 * spec.n,
                  {"asymptotic": white_noise_constant(spec.nu)})


def run_theorem15_study(cfg: RunConfig) -> ConvergenceReport:
    """Small-noise experiment: stochastic runs against the deterministic
    limits, measured in the Sobolev beta norm.

    The deterministic corrected and naive limits (they carry no noise) are
    stepped as one block beside each block of replicas, which run only the
    stochastic variant and are measured against the limits as they go;
    no field is recorded.
    """
    spec, _ = model_from_config(cfg.model)
    if spec.g is not None:
        raise ValueError("small-noise study requires a model with g = 0")
    u0 = initial_field(spec.n, cfg.u0_modes, cfg.u0_decay, cfg.u0_amplitude,
                       NoiseStream(cfg.seed))

    def block(eps, sim, streams):
        const = resolve_correction(cfg.correction, spec.nu, eps,
                                   sim.max_mode)
        return reference_distances(spec, eps, u0, sim, streams,
                                   constants=(const, 0.0), beta=cfg.beta)

    return _sweep(cfg, "theorem15", spec.nu, block, spec.n,
                  {"asymptotic": white_noise_constant(spec.nu),
                   "sobolev_beta": cfg.beta})


def run_psi_coupling_study(cfg: RunConfig) -> ConvergenceReport:
    """Scaling of the sup distance between coupled noise levels.

    No model enters: this measures E sup_{t <= T} sup_x |psi^eps - psi^0|
    directly from the exactly coupled sampler and fits its eps power law.
    The model sets only nu.
    """
    nu = model_from_config(cfg.model)[0].nu

    def block(eps, sim, streams):
        noise = sample_replicas((OperatorSpec(nu, eps), OperatorSpec(nu, 0.0)),
                                1, sim.max_mode, streams)
        psi = noise.psi[:, :, 0]   # a view: each step updates it
        work = Workspace()
        best = sup_norms(psi[:, 0] - psi[:, 1], work)
        for _ in range(sim.n_steps):
            step_replicas(noise, sim.dt, work)
            best = np.maximum(best, sup_norms(psi[:, 0] - psi[:, 1], work))
        return best[:, None], np.zeros((len(best), 1), dtype=bool)

    # psi at both levels
    return _sweep(cfg, "psi-coupling", nu, block, 2,
                  {"asymptotic": white_noise_constant(nu)})


def run_averaging_study(cfg: RunConfig) -> TailScalingReport:
    """Fluctuation-norm scaling via the single-time averaging lab.

    For each eps, largest first, N = ceil(modes_over_eps / eps^MODES_EXPONENT)
    and the level's terms are level_terms'; _block_map runs the replicas
    through replica_norms.  Reports medians and 90% quantiles plus the
    log-log slope of eps * median against eps (expected +1/2).  The model
    sets only nu.
    """
    if cfg.gamma <= 0.5 or cfg.alpha <= 0.5:
        raise ValueError("gamma and alpha must both exceed 1/2")
    if cfg.replicas < 2:
        raise ValueError("need at least two replicas")
    if len(cfg.eps_grid) < 3:
        raise ValueError("need at least three eps_grid values")
    nu = model_from_config(cfg.model)[0].nu
    eps_grid = tuple(sorted(cfg.eps_grid, reverse=True))
    med_p, q90_p, med_t, q90_t, mode_counts = [], [], [], [], []
    for eps in eps_grid:
        n = int(math.ceil(cfg.modes_over_eps / eps ** MODES_EXPONENT))
        mode_counts.append(n)
        level = level_terms(nu, eps, cfg.alpha, n)
        # a replica holds two snapshots of modes 0..N
        norms_p, norms_t = _block_map(
            lambda streams: replica_norms(nu, cfg.gamma, *level, streams),
            cfg, 2 * (n + 1))
        med_p.append(float(np.quantile(norms_p, 0.5)))
        q90_p.append(float(np.quantile(norms_p, 0.9)))
        med_t.append(float(np.quantile(norms_t, 0.5)))
        q90_t.append(float(np.quantile(norms_t, 0.9)))

    fit_p = regress_loglog([(e, e * m) for e, m in zip(eps_grid, med_p)])
    fit_t = regress_loglog([(e, e * m) for e, m in zip(eps_grid, med_t)])
    return TailScalingReport(
        nu=nu, gamma=cfg.gamma, alpha=cfg.alpha, eps=eps_grid,
        max_modes=tuple(mode_counts), replicas=cfg.replicas,
        median_phi=tuple(med_p), q90_phi=tuple(q90_p),
        median_phi_tilde=tuple(med_t), q90_phi_tilde=tuple(q90_t),
        slope_phi=fit_p, slope_phi_tilde=fit_t)


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
