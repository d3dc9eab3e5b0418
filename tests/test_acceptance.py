"""End-to-end acceptance suite: one test per shipped guarantee.

Each test pins the protocol and tolerance for one advertised property of
the laboratory, prints a single [PASS]/[FAIL] verdict line, and asserts.
The verdict lines are echoed in the terminal summary (see conftest).

Runtime is dominated by the Monte Carlo rate studies (criteria 4-8);
expect roughly five to ten minutes for the whole file on eight cores.
Every study here is deterministic for a fixed seed, so the measured
slopes and ratios quoted in the assertion messages are reproducible.
"""

import math
import os
import time

import numpy as np
import scipy.integrate

import conftest
from test_averaging import (brute_force_phi, brute_force_phi_tilde,
                            profile)
from test_models import FullSeries, oracle_F_eps

from spdelab import (NoiseStream, RunConfig, SimulationConfig, SpectralField,
                     Variant, compute_phi, couple_runs, initial_field,
                     model_from_config, polynomial_model, run_averaging_study,
                     run_convergence_study, run_mild, run_psi_coupling_study,
                     run_theorem15_study, sample_stationary, sample_w,
                     write_report)
from spdelab.averaging import compute_phi_tilde
from spdelab.constants import alpha_constant, poly_constant, riemann_gap
from spdelab.integrate import sup_distance
from spdelab.linops import OperatorSpec
from spdelab.models import (check_effective_drift_identity, eval_F_eps, eval_G,
                            random_polynomial_potential)
from spdelab.noise import psi_diff_moment, sample_replicas, step_coupled
from spdelab.spectral import sup_norm
import spdelab.studies as studies_module

ROOT_2PI = math.sqrt(2.0 * math.pi)


def _verdict(num: int, label: str, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} ({detail})"
    print(line)
    conftest.acceptance_lines.append(line)
    return line


def _num(value, spec: str) -> str:
    """Format a study statistic that may be missing (e.g. too few fit points)."""
    return "n/a" if value is None else format(value, spec)


def _field(max_mode: int, coeffs: dict[int, complex]) -> SpectralField:
    c = np.zeros((1, max_mode + 1), dtype=np.complex128)
    for k, v in coeffs.items():
        c[0, k] = v
    return SpectralField(1, max_mode, c)


def test_criterion_01_stationary_mode_variances():
    # Empirical E|psi^eps_k|^2 from the coupled sampler must match the
    # closed form 1/(1 + nu k^2 + eps^2 k^4) for every mode up to N = 64,
    # within 4 standard errors at 2e5 draws, in under a minute.  The draws
    # come from the studies' sampler, one replica stream each, so the test
    # also covers the per-stream layout and independence across streams.
    t0 = time.perf_counter()
    nu, eps, n_modes = 1.0, 0.25, 64
    levels = (OperatorSpec(nu, eps),)
    chunks, per_chunk = 20, 10_000
    total = chunks * per_chunk
    acc = np.zeros(n_modes + 1)
    acc2 = np.zeros(n_modes + 1)
    for i in range(chunks):
        streams = [NoiseStream(0, replica=r)
                   for r in range(i * per_chunk, (i + 1) * per_chunk)]
        batch = sample_replicas(levels, 1, n_modes, streams).psi
        m = np.abs(batch[:, 0, 0, :]) ** 2
        acc += m.sum(axis=0)
        acc2 += (m ** 2).sum(axis=0)
    mean = acc / total
    var = np.maximum(acc2 / total - mean ** 2, 0.0)
    se = np.sqrt(var / total)
    k = np.arange(n_modes + 1, dtype=np.float64)
    target = 1.0 / (1.0 + nu * k ** 2 + eps ** 2 * k ** 4)
    dev = np.abs(mean - target) / se
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(dev <= 4.0)) and elapsed < 60.0
    line = _verdict(1, "stationary mode variances", ok,
                    f"max deviation {dev.max():.2f} SE over k <= {n_modes}, "
                    f"{total} draws in {elapsed:.1f} s")
    assert ok, line


def test_criterion_02_coupled_difference_moments():
    # Under shared forcing, E|psi^eps_k - psi^0_k|^2 must match
    # 1/a_eps + 1/a_0 - 4/(a_eps + a_0) within 4 SE at 2e4 draws, and the
    # closed form itself must agree with an adaptive-quadrature oracle of
    # the defining integral 2 int_0^inf (e^{-a_eps s} - e^{-a_0 s})^2 ds.
    # Each draw is one replica stream of the studies' sampler.
    nu, reps, n_modes = 1.0, 20_000, 16
    streams = [NoiseStream(1, replica=r) for r in range(reps)]
    worst = 0.0
    for eps in (1.0, 0.25):
        levels = (OperatorSpec(nu, eps), OperatorSpec(nu, 0.0))
        batch = sample_replicas(levels, 1, n_modes, streams).psi
        for k in (1, 2, 4, 8, 16):
            m = np.abs(batch[:, 0, 0, k] - batch[:, 1, 0, k]) ** 2
            se = m.std(ddof=1) / math.sqrt(reps)
            dev = abs(m.mean() - psi_diff_moment(nu, eps, k)) / se
            worst = max(worst, dev)
    quad, _ = scipy.integrate.quad(
        lambda s: 2.0 * (math.exp(-3.0 * s) - math.exp(-2.0 * s)) ** 2,
        0.0, 20.0, epsabs=1e-13, epsrel=1e-12)
    exact = psi_diff_moment(1.0, 1.0, 1)
    quad_dev = max(abs(quad - exact), abs(exact - 1.0 / 30.0))
    ok = worst <= 4.0 and quad_dev <= 1e-10
    line = _verdict(2, "coupled difference moments", ok,
                    f"max deviation {worst:.2f} SE over 10 (eps, k) pairs; "
                    f"quadrature vs closed form {quad_dev:.1e}")
    assert ok, line


def test_criterion_03_correction_constants():
    # Closed-form checkpoints for the correction constants.
    checks = [abs(alpha_constant(1.0, 0.25) - 1.0 / math.sqrt(2.0))]
    for nu in (0.5, 1.0, 2.0):
        checks.append(abs(poly_constant(nu, (1.0, 1.0 / nu))
                          - 1.0 / (2.0 * math.sqrt(nu))))
    checks.append(abs(poly_constant(1.0, (1.0, 2.0, 1.0)) - 0.25))
    worst = max(checks)
    ok = worst <= 1e-8
    line = _verdict(3, "correction constants", ok,
                    f"max closed-form deviation {worst:.1e}")
    assert ok, line


def test_criterion_04_transport_coupling_rate():
    # Log-log slope of E sup_{t<=1,x} |psi^eps - psi^0| against eps over
    # eps = 2^-2..2^-7 with N = 16/eps and 50 replicas must land in
    # [0.35, 0.65] (square-root decay up to log/kappa corrections).
    cfg = RunConfig(study="psi", eps_grid=tuple(2.0 ** -j for j in range(2, 8)),
                    replicas=50, modes_over_eps=16.0, dt=0.02, t_final=1.0,
                    seed=0, workers=8)
    report = run_psi_coupling_study(cfg)
    ok = report.slope is not None and 0.35 <= report.slope <= 0.65
    line = _verdict(4, "transport coupling rate", ok,
                    f"slope {_num(report.slope, '.4f')}, target [0.35, 0.65]")
    assert ok, line


def _mean_kept(values: list[tuple[float, bool]]) -> float | None:
    kept = [v for v, censored in values if not censored]
    return float(np.mean(kept)) if kept else None


def _remainder_separation(cfg: RunConfig) -> dict:
    """Distances of the drift-driven remainder at the smallest eps.

    Each coupled run splits as u = psi(own level) + remainder, where the
    perturbed run carries psi^eps and both limits carry psi^0.  The
    remainder distance to a limit is therefore

        sup_{t,x} |(u_eps - u_lim) - (psi^eps - psi^0)|,

    which drops the coupling term psi^eps - psi^0 that both full distances
    share and that no choice of f, g, h or correction affects.  The psi
    path is replayed from the replica's counter-based stream, so it is
    bit-identical to the one couple_runs drew.  Means run over the replicas
    the study report keeps for each distance (perturbed run and that limit
    uncensored).  Also returns the mean sup distance between the two limits,
    which caps the full-distance ratio by the triangle inequality.
    """
    spec, _ = model_from_config(cfg.model)
    eps = min(cfg.eps_grid)
    sim = cfg.simulation_config(eps)
    base = NoiseStream(cfg.seed)
    u0 = initial_field(spec.n, cfg.u0_modes, cfg.u0_decay, cfg.u0_amplitude,
                       base)
    levels = [OperatorSpec(spec.nu, eps), OperatorSpec(spec.nu, 0.0)]

    def one(replica: int) -> tuple:
        stream = base.with_replica(replica)
        perturbed, naive, corrected = couple_runs(
            spec, [eps], u0, sim, stream, correction=cfg.correction)
        state = sample_stationary(levels, spec.n, sim.max_mode, stream)
        psi_gap = [state.psi[0, 0] - state.psi[0, 1]]
        for _ in range(sim.n_steps):
            state = step_coupled(state, sim.dt)
            psi_gap.append(state.psi[0, 0] - state.psi[0, 1])

        def remainder(limit) -> tuple[float, bool]:
            k = min(len(perturbed.times), len(limit.times))
            dist = max((sup_norm(perturbed.coeffs[i] - limit.coeffs[i]
                                 - psi_gap[i]) for i in range(k)),
                       default=math.nan)
            return dist, perturbed.censored or limit.censored

        return (remainder(corrected), remainder(naive),
                sup_distance(corrected, naive))

    results = [one(r) for r in range(cfg.replicas)]
    corrected = _mean_kept([r[0] for r in results])
    naive = _mean_kept([r[1] for r in results])
    ratio = naive / corrected if naive is not None and corrected else None
    return {"corrected": corrected, "naive": naive, "ratio": ratio,
            "limit_gap": _mean_kept([r[2] for r in results])}


def _wrong_limit_criterion(num: int, label: str, cfg: RunConfig) -> None:
    report = run_convergence_study(cfg)
    slope_ok = report.slope is not None and 0.3 <= report.slope <= 0.7
    rem = _remainder_separation(cfg)
    ratio_ok = rem["ratio"] is not None and rem["ratio"] >= 3.0
    ok = slope_ok and ratio_ok
    # Full-distance ratio and its triangle-inequality cap, for information:
    # sup|u_eps - u_0| <= sup|u_eps - ubar| + sup|ubar - u_0|.
    smallest = min(report.per_eps, key=lambda row: row["eps"])
    full = smallest["mean_error"]
    cap = (1.0 + rem["limit_gap"] / full
           if full and rem["limit_gap"] is not None else None)
    line = _verdict(num, label, ok,
                    f"slope {_num(report.slope, '.4f')} (target [0.3, 0.7]); "
                    f"remainder naive/corrected {_num(rem['ratio'], '.2f')} "
                    f"({_num(rem['naive'], '.4f')}/"
                    f"{_num(rem['corrected'], '.4f')}, target >= 3); "
                    f"full naive/corrected "
                    f"{_num(report.naive_over_corrected, '.2f')}, "
                    f"triangle cap {_num(cap, '.2f')} (info)")
    assert ok, (
        line + "\nThe ratio clause compares the drift-driven remainders "
        "u - psi(own level) at the smallest eps: the naive limit's remainder "
        "distance sup|(u_eps - u_0) - (psi^eps - psi^0)| must be at least 3 "
        "times the corrected limit's.  A wrong correction constant leaves a "
        "drift offset in the corrected remainder and pulls the ratio to "
        "about 1 or 2.  The full distances are reported for information "
        "only: both contain the coupling term sup|psi^eps - psi^0| ~ "
        "eps^0.45, which caps their ratio near the printed triangle bound.")


def test_criterion_05_wrong_limit_rate_reaction_model():
    # Default protocol (n=1, nu=1, f(u) = -u, h = 1, g = 0, T = 0.5,
    # eps*N = 8, 20 replicas, eps = 2^-3..2^-7): the sup-norm distance to
    # the corrected limit must decay with slope in [0.3, 0.7], and at the
    # smallest eps the remainder u - psi(own level) of the perturbed run
    # must be at least 3 times farther from the naive limit's remainder than
    # from the corrected limit's.  The full distances cannot separate that
    # far at this protocol: both carry sup|psi^eps - psi^0| (0.177 of the
    # corrected 0.178 at eps = 2^-7), while the naive limit sits only the
    # deterministic offset c*(1 - e^{-2T})/2 = 0.145 from the corrected
    # one, so their ratio is capped near 1.8 (measured 1.69).
    _wrong_limit_criterion(5, "wrong-limit rate, reaction model",
                           RunConfig(workers=8))


def test_criterion_06_wrong_limit_rate_gradient_model():
    # Same protocol with f = 0, h = 0, g(u) = sin(u), whose corrected
    # reaction is -cos(u)/2: same slope window, and the same remainder
    # ratio threshold for the same reason (measured limit gap 0.156, full
    # ratio 1.67, capped near 1.8 by the shared coupling term).
    _wrong_limit_criterion(6, "wrong-limit rate, gradient model",
                           RunConfig(model={"name": "sin-g", "nu": 1.0},
                                     workers=8))


def test_criterion_07_sobolev_limit_identification():
    # Negative-order Sobolev distance (beta = 0.6) between the eps-level
    # solution and the two candidate limits, on a deeper dyadic grid where
    # the deterministic limits differ cleanly: corrected-limit slope must
    # be >= 0.25 and the naive/corrected ratio >= 3 at the smallest eps.
    cfg = RunConfig(study="theorem15", beta=0.6, u0_decay=1.3,
                    eps_grid=tuple(2.0 ** -j for j in range(8, 13)),
                    workers=8)
    report = run_theorem15_study(cfg)
    slope_ok = report.slope is not None and report.slope >= 0.25
    ratio = report.naive_over_corrected
    ratio_ok = ratio is not None and ratio >= 3.0
    ok = slope_ok and ratio_ok
    line = _verdict(7, "Sobolev limit identification", ok,
                    f"slope {_num(report.slope, '.4f')} (target >= 0.25); "
                    f"naive/corrected {_num(ratio, '.2f')} (target >= 3)")
    assert ok, line


def test_criterion_08_averaging_tail_scaling():
    # Single-time averaging lab: median of eps * ||phi||_{-3/4} (and of
    # the independent-copy variant phi~) must scale with slope in
    # [0.35, 0.65] over eps = 2^-4..2^-9 at 200 replicas.
    cfg = RunConfig(study="averaging",
                    eps_grid=tuple(2.0 ** -j for j in range(4, 10)),
                    replicas=200, seed=0, workers=8)
    report = run_averaging_study(cfg)
    s_p = report.slope_phi.slope
    s_t = report.slope_phi_tilde.slope
    ok = 0.35 <= s_p <= 0.65 and 0.35 <= s_t <= 0.65
    line = _verdict(8, "averaging tail scaling", ok,
                    f"slope(eps*|phi|) {s_p:.4f}, "
                    f"slope(eps*|phi~|) {s_t:.4f}, target [0.35, 0.65]")
    assert ok, line


def test_criterion_09_effective_drift_identity():
    # For potential-driven models the corrected reaction must satisfy
    # fbar = -(1/2T) D2V DV + (1/2) tr D3V exactly; checked over 100
    # random polynomial potentials with n <= 3 and degree <= 6.
    rng = np.random.default_rng(0)
    temps = (0.5, 1.0, 2.0)
    worst = 0.0
    for i in range(100):
        n = 1 + (i % 3)
        pot = random_polynomial_potential(n, 6, rng)
        probes = rng.uniform(-2.0, 2.0, size=(n, 64))
        worst = max(worst, check_effective_drift_identity(pot, temps[i % 3],
                                                          probes))
    ok = worst <= 1e-10
    line = _verdict(9, "effective drift identity", ok,
                    f"max discrepancy {worst:.1e} over 100 potentials")
    assert ok, line


def test_criterion_10_oracle_equivalences():
    # Pseudospectral channel evaluations, the quadratic transport terms,
    # the exponential-Euler step, and the correction-constant Riemann gap
    # all reproduce independent brute-force references.
    devs = {}

    # F_eps against an exact two-sided convolution with the dealias cut.
    u = _field(8, {0: 0.31, 1: 0.22 - 0.11j, 2: -0.07 + 0.19j})
    spec = polynomial_model(1.0, f_coeffs=(0.3, -1.2, 0.7),
                            g_coeffs=(0.5, 0.2), h_coeffs=(1.1, -0.4))
    got = eval_F_eps(spec, 0.37, u)
    want = oracle_F_eps(u, 0.37, f=(0.3, -1.2, 0.7), g=(0.5, 0.2),
                        h=(1.1, -0.4))
    devs["F_eps"] = float(np.max(np.abs(got.coeffs[0] - want)))

    # G (reaction plus gradient-square channel, no constant forcing).
    spec_g = polynomial_model(1.0, f_coeffs=(0.2, -0.8),
                              h_coeffs=(0.9, 0.3))
    got_g = eval_G(spec_g, u)
    s = FullSeries.from_field(u, 48)
    ux = s.derivative(1)
    want_g = (s.polynomial((0.2, -0.8))
              + s.polynomial((0.9, 0.3)) * (ux * ux)).to_hermitian(8)
    devs["G"] = float(np.max(np.abs(got_g.coeffs[0] - want_g)))

    # phi against the O(N^3) triple sum (including the centering term).
    v = profile(6, {0: 0.4, 1: 0.3 - 0.2j, 2: 0.1j, 5: -0.05})
    w = sample_w(1.0, 0.5, 6, NoiseStream(7))
    devs["phi"] = float(np.max(np.abs(compute_phi(v, w)
                                      - brute_force_phi(v, w))))

    # phi~ (independent second ensemble, no centering) likewise.
    wt = sample_w(1.0, 0.5, 6, NoiseStream(12345))
    devs["phi_tilde"] = float(np.max(np.abs(
        compute_phi_tilde(v, w, wt) - brute_force_phi_tilde(v, w, wt))))

    algebra_ok = all(d <= 1e-10 for d in devs.values())

    # Exponential-Euler exactness: with constant forcing F = 1 and zero
    # start, mode zero solves v' = -v + sqrt(2 pi) exactly at every step
    # size, so the recorded trajectory must match to relative 1e-12.
    etd_dev = 0.0
    zero = _field(8, {})
    for dt in (0.1, 0.05):
        traj = run_mild(polynomial_model(1.0), Variant.PHI_ZERO, 0.0, zero,
                        None, SimulationConfig(max_mode=8, dt=dt,
                                               t_final=0.5))
        for t, c in zip(traj.times, traj.coeffs):
            if t == 0.0:
                continue
            exact = ROOT_2PI * (1.0 - math.exp(-t))
            etd_dev = max(etd_dev,
                          abs(c[0, 0].real - exact) / exact)
    etd_ok = etd_dev <= 1e-12

    # Riemann gap of the truncation-matched constant: <= 5 eps at nu = 1.
    gap_ok = all(riemann_gap(1.0, 2.0 ** -j) <= 5.0 * 2.0 ** -j
                 for j in range(1, 11))

    ok = algebra_ok and etd_ok and gap_ok
    worst_algebra = max(devs.values())
    line = _verdict(10, "oracle equivalences", ok,
                    f"max algebra deviation {worst_algebra:.1e}; "
                    f"stepper exactness {etd_dev:.1e} rel; "
                    f"Riemann gap bound {'holds' if gap_ok else 'fails'}")
    assert ok, (line, devs)


def test_criterion_11_deterministic_reports(tmp_path, monkeypatch,
                                            split_blocks):
    # The same study config and seed must produce byte-identical CSV
    # reports when rerun and when executed with 1, 4, or 8 workers.  The
    # blocks are split at any size, so 4 and 8 workers do run each level's
    # replicas on more than one thread.
    cfg_kw = dict(eps_grid=(0.5, 0.4, 0.3, 0.25), replicas=3, seed=0,
                  fixed_modes=8, dt=0.05, t_final=0.2, u0_modes=6)
    blobs = []
    for tag, workers in (("w1a", 1), ("w1b", 1), ("w4", 4), ("w8", 8)):
        report, levels = split_blocks(workers, lambda: run_convergence_study(
            RunConfig(workers=workers, **cfg_kw)))
        assert levels == len(cfg_kw["eps_grid"])
        path = tmp_path / f"{tag}.csv"
        write_report(report, str(path), None)
        blobs.append(path.read_bytes())
    threads_ok = len(set(blobs)) == 1 and len(blobs[0]) > 0

    # The integrator studies' levels in forked processes: with three usable
    # cores on any host, 2 and 3 workers fork 2 and 3 children over the 4
    # levels, and 1 worker runs them here.  CSV and JSON must not move.
    monkeypatch.undo()   # the levels leave this process again
    monkeypatch.setattr(studies_module, "usable_cores", lambda: 3)
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)   # in the parent, before the child exists
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    procs_ok = True
    for study, run in (("converge", run_convergence_study),
                       ("theorem15", run_theorem15_study),
                       ("psi-coupling", run_psi_coupling_study)):
        texts = []
        for workers in (1, 2, 3):
            forks.clear()
            report = run(RunConfig(study=study, workers=workers, **cfg_kw))
            assert len(forks) == (0 if workers == 1 else workers)
            paths = [tmp_path / f"{study}-p{workers}.{ext}"
                     for ext in ("csv", "json")]
            write_report(report, *map(str, paths))
            texts.append(tuple(path.read_bytes() for path in paths))
        procs_ok &= len(set(texts)) == 1
    ok = threads_ok and procs_ok
    line = _verdict(11, "deterministic reports", ok,
                    "rerun and 1/4/8-worker CSV outputs, and 1/2/3-process "
                    "CSV and JSON outputs, byte-identical"
                    if ok else "outputs differ across reruns, workers or "
                               "processes")
    assert ok, line
