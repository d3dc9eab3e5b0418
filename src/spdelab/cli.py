"""Command-line front end.

Exit codes: 0 success, 1 configuration or usage problem, 2 numerical
failure (blow-up, quadrature non-convergence, factorization failure, or a
failed potential-mapping check).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .constants import (QuadratureError, alpha_constant, poly_constant,
                        riemann_gap, truncation_matched_constant,
                        white_noise_constant)
from .integrate import (IntegrationError, Variant, resolve_correction,
                        run_mild)
from .linops import OperatorSpec
from .models import (CallbackError, PolynomialPotential,
                     check_effective_drift_identity, from_potential,
                     model_from_config, validate_model)
from .noise import NoiseStream, sample_stationary
from .spectral import sobolev_norm, sup_norm
from .studies import (RunConfig, initial_field, run_averaging_study,
                      run_convergence_study, run_psi_coupling_study,
                      run_theorem15_study, write_report, _atomic_write, _fmt)

# path-sampling's --probes bound, checked before any array is made: the
# identity check holds several float64 arrays of this many points per
# component at once
MAX_PROBES = 10 ** 6


class _UsageError(Exception):
    pass


def _resolve_output(path: str | None) -> str | None:
    """Relative output paths land in $SPDELAB_OUTPUT_DIR when it is set."""
    if not path:
        return path
    base = os.environ.get("SPDELAB_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}")


def _load_json(path: str) -> dict:
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return data


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _correction(text: str) -> str | float:
    """A correction name, or a number given on the command line."""
    try:
        return float(text)
    except ValueError:
        return text


# RunConfig fields settable by flag (eps_grid by --eps-grid, and so on).
_FLAG_TYPES = {"eps_grid": _floats, "replicas": int, "seed": int,
               "workers": int, "modes_over_eps": float, "fixed_modes": int,
               "dt": float, "t_final": float, "correction": _correction,
               "beta": float, "gamma": float, "alpha": float,
               "u0_decay": float, "u0_modes": int}


def _add_study_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with RunConfig fields")
    p.add_argument("--model", help="inline JSON model config")
    for name, kind in _FLAG_TYPES.items():
        p.add_argument("--" + name.replace("_", "-"), type=kind)
    p.add_argument("--output-csv")
    p.add_argument("--output-json")


def _study_config(args: argparse.Namespace, study: str) -> RunConfig:
    data = _load_json(args.config) if args.config else {}
    data["study"] = study
    if args.model:
        data["model"] = json.loads(args.model)
    for name in _FLAG_TYPES:
        value = getattr(args, name, None)
        if value is not None:
            data[name] = value
    return RunConfig.from_dict(data)


def _emit_convergence(report, args: argparse.Namespace) -> int:
    write_report(report, _resolve_output(args.output_csv),
                 _resolve_output(args.output_json))
    for row in report.per_eps:
        mean = row["mean_error"]
        mean_txt = "censored" if mean is None else f"{mean:.6g}"
        print(f"eps={row['eps']:<12g} modes={row['n_modes']:<6d} "
              f"mean={mean_txt} censored={row['n_censored']}/"
              f"{row['n_replicas']}")
    censored = [f"{row['eps']:g}" for row in report.per_eps
                if row["n_censored"]]
    if censored:
        print(f"slope: not fit (censored replicas at eps "
              f"{', '.join(censored)})")
    elif report.slope is None:
        print("slope: not fit (need 4 eps levels)")
    else:
        lo, hi = report.ci95
        print(f"slope={report.slope:.4f}  ci95=[{lo:.4f}, {hi:.4f}]  "
              f"r2={report.r2:.4f}")
    if report.naive_over_corrected is not None:
        print(f"naive/corrected at smallest eps: "
              f"{report.naive_over_corrected:.3f}")
    return 0


_RATE_STUDIES = {"converge": run_convergence_study,
                 "theorem15": run_theorem15_study,
                 "psi-coupling": run_psi_coupling_study}


def _cmd_rate_study(args: argparse.Namespace) -> int:
    run = _RATE_STUDIES[args.command]
    return _emit_convergence(run(_study_config(args, args.command)), args)


def _cmd_averaging(args: argparse.Namespace) -> int:
    report = run_averaging_study(_study_config(args, "averaging"))
    write_report(report, _resolve_output(args.output_csv),
                 _resolve_output(args.output_json))
    for i, eps in enumerate(report.eps):
        print(f"eps={eps:<12g} modes={report.max_modes[i]:<6d} "
              f"median|phi|={report.median_phi[i]:.6g} "
              f"median|phi~|={report.median_phi_tilde[i]:.6g}")
    print(f"slope(eps*|phi|)={report.slope_phi.slope:.4f}  "
          f"slope(eps*|phi~|)={report.slope_phi_tilde.slope:.4f}")
    return 0


def _cmd_constants(args: argparse.Namespace) -> int:
    out: dict = {"white_noise_constant": white_noise_constant(args.nu)}
    if args.alpha is not None:
        out["alpha_constant"] = alpha_constant(args.nu, args.alpha)
    if args.q is not None:
        out["poly_constant"] = poly_constant(args.nu, args.q)
    if args.eps is not None:
        if args.max_mode is not None:
            out["truncation_matched_constant"] = truncation_matched_constant(
                args.nu, args.eps, args.max_mode)
        out["riemann_gap"] = riemann_gap(args.nu, args.eps)
    print(json.dumps(out, sort_keys=True, indent=2))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if not args.eps > 0:
        raise ValueError("--eps must be positive")
    cfg = _study_config(args, "simulate")
    spec, _ = model_from_config(cfg.model)
    variant = Variant(args.variant)
    sim = cfg.simulation_config(args.eps)

    stream = NoiseStream(cfg.seed)
    u0 = initial_field(spec.n, cfg.u0_modes, cfg.u0_decay, cfg.u0_amplitude,
                       stream)
    eq_eps = args.eps if variant in (Variant.PHI_EPS, Variant.V_EPS) else 0.0
    noise = None if variant is Variant.V_LIMIT else sample_stationary(
        [OperatorSpec(spec.nu, eq_eps)], spec.n, sim.max_mode, stream)
    # only the PHI_BAR and V_LIMIT drifts use the constant
    const = resolve_correction(cfg.correction, spec.nu, args.eps,
                               sim.max_mode)
    traj = run_mild(spec, variant, eq_eps, u0, noise, sim,
                    correction_constant=const)

    lines = ["time,sup_norm,sobolev_norm"]
    # one sobolev_norm call gives each row the bits it has alone
    for t, coeffs, sob in zip(traj.times, traj.coeffs,
                              sobolev_norm(traj.coeffs, cfg.beta, spec.nu)):
        lines.append(f"{_fmt(t)},{_fmt(sup_norm(coeffs))},{_fmt(sob)}")
    text = "\n".join(lines) + "\n"
    if args.output_csv:
        _atomic_write(_resolve_output(args.output_csv), text)
    else:
        sys.stdout.write(text)
    if traj.censored:
        print(f"censored at t={traj.censoring_time:g}", file=sys.stderr)
    return 0


def _cmd_path_sampling(args: argparse.Namespace) -> int:
    if not 1 <= args.probes <= MAX_PROBES:
        raise ValueError(f"--probes must be in 1..{MAX_PROBES}")
    if not 0 < 2 * args.box < math.inf:   # the probes' range has width 2 box
        raise ValueError("--box must be positive, with 2 * box finite")
    coeffs = list(args.potential)
    if not all(math.isfinite(c) for c in coeffs):
        raise ValueError("--potential coefficients must be finite")
    if args.temperature > 0 and 1.0 / (2.0 * args.temperature) == math.inf:
        raise ValueError("-T/--temperature is too small: nu = 1/(2T) "
                         "overflows")
    potential = PolynomialPotential.from_univariate(coeffs)
    model, eps = from_potential(potential, args.temperature, args.mass)
    rng = np.random.default_rng(args.seed)
    probes = rng.uniform(-args.box, args.box, size=(potential.n, args.probes))

    summary = {
        "n": potential.n,
        "temperature": args.temperature,
        "mass": args.mass,
        "eps": eps,
        "nu": model.nu,
        "potential_coeffs": coeffs,
    }
    status = 0
    if args.check:
        deviation = check_effective_drift_identity(
            potential, args.temperature, probes)
        fd_gap = validate_model(model)
        summary["drift_identity_deviation"] = deviation
        summary["g_derivative_fd_gap"] = fd_gap
        scale = 1.0 + max(abs(c) for c in coeffs)
        if not deviation <= 1e-8 * scale:   # a NaN deviation fails too
            print(f"corrected-drift identity failed: deviation={deviation:g}",
                  file=sys.stderr)
            status = 2
    if args.output_json:
        _atomic_write(_resolve_output(args.output_json),
                      json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"eps={eps!r} nu={model.nu!r}")
    if "drift_identity_deviation" in summary:
        print(f"drift identity deviation: "
              f"{summary['drift_identity_deviation']:.3g}")
    return status


def build_parser() -> _Parser:
    parser = _Parser(prog="spdelab", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("constants",
                       help="print correction constants for given parameters")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--eps", type=float)
    p.add_argument("--max-mode", type=int)
    p.add_argument("--alpha", type=float,
                   help="singular spectral exponent in (0, 1/2)")
    p.add_argument("--q", type=_floats,
                   help="ascending coefficients of the symbol polynomial")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("simulate", help="integrate one variant, dump norms")
    p.add_argument("--variant", required=True,
                   choices=[v.value for v in Variant])
    p.add_argument("--eps", type=float, required=True,
                   help="perturbation size (sets modes and constants even "
                        "for limit variants)")
    _add_study_flags(p)
    p.set_defaults(func=_cmd_simulate)

    for name, fn, blurb in (
            ("converge", _cmd_rate_study,
             "rate of convergence to the corrected limit"),
            ("theorem15", _cmd_rate_study,
             "small-noise rate against the deterministic limits"),
            ("psi-coupling", _cmd_rate_study,
             "sup-distance scaling of the coupled noise pair"),
            ("averaging", _cmd_averaging,
             "single-time fluctuation-norm scaling")):
        p = sub.add_parser(name, help=blurb)
        _add_study_flags(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("path-sampling",
                       help="map a sampling potential onto the model family")
    p.add_argument("--potential", type=_floats, required=True,
                   help="ascending polynomial coefficients c0,c1,...")
    p.add_argument("--T", "-T", "--temperature", dest="temperature",
                   type=float, required=True)
    p.add_argument("--mass", type=float, default=0.1,
                   help="eps = mass/sqrt(2T); only scales eps, not the "
                        "identity check")
    p.add_argument("--check", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="verify the corrected-drift identity (exit 2 on "
                        "failure)")
    p.add_argument("--probes", type=int, default=64,
                   help="random probe points of the identity check, "
                        f"1..{MAX_PROBES:,}")
    p.add_argument("--box", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-json")
    p.set_defaults(func=_cmd_path_sampling)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except (IntegrationError, QuadratureError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, CallbackError, ValueError, KeyError, TypeError,
            OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
