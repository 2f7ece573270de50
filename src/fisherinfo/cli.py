"""Command-line front end.

Subcommands: estimate, density, bounds, complexity, experiment. Single
results are printed as JSON on standard output; data series are written
as CSV files. Exit codes: 0 success, 1 usage/argument error, 2 a bound
hypothesis is violated or a target is infeasible, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bounds as bounds_mod
from .channel import ChannelModel, InputLaw, sample_channel
from .errors import (
    HypothesisViolationError,
    InfeasibleTargetError,
    QuadratureError,
)
from .estimators import (
    DEFAULT_GRID_POINTS,
    EstimatorConfig,
    EstimatorKind,
    ScoreEnvelope,
    estimate,
    mmse_from_fisher,
)
from .experiments import DataSeries, ExperimentConfig, run_experiment
from .kernels import kde_profile
from .samples import SampleSet

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this front end
    reserves 2 for hypothesis violations, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"error: {message}")


def _print_json(payload: dict):
    # Strict JSON: a NaN or Infinity in a payload is a bug, not output.
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))


def _add_channel_flags(parser, required: bool = False):
    parser.add_argument(
        "--channel", choices=["gaussian", "binary"], required=required,
        help="built-in input law of the noisy channel",
    )
    parser.add_argument("--snr", type=float, help="signal-to-noise ratio")


#: The flags read only in some modes: (subcommands, mode, test, flags read,
#: flags needed). A flag here must stay unset unless a mode that reads it
#: holds, and each mode that holds needs its needed flags set.
_MODES = (
    ("estimate density", "without --input", lambda a: a.input is None,
     "--channel --snr --n --seed", "--channel --snr --n"),
    ("estimate", "with --input", lambda a: a.input is not None, "--snr", ""),
    ("estimate", "with --estimator clipped", lambda a: a.estimator == "clipped",
     "--rho-bar", ""),
    ("estimate", "with --input --estimator clipped",
     lambda a: a.input is not None and a.estimator == "clipped", "", "--rho-bar"),
    ("estimate", "with --input --estimator clipped --rho-bar lemma1",
     lambda a: a.input is not None and a.estimator == "clipped"
     and a.rho_bar == "lemma1", "--var", "--snr --var"),
    ("bounds", "with --theorem 2, 3 or 4", lambda a: a.theorem in ("2", "3", "4"),
     "--kn --eps0 --eps1", "--kn"),
    ("bounds", "with --theorem 3", lambda a: a.theorem == "3", "--df --dfn", ""),
    ("bounds", "with --theorem 5", lambda a: a.theorem == "5",
     "--n --u --w", "--n --u --w"),
    ("bounds", "with --theorem 6", lambda a: a.theorem == "6",
     "--n --u --w0 --w1", "--n --u --w0 --w1"),
)


def _check_modes(args):
    """Apply _MODES: name every flag set where it is not read and every
    needed flag that is not set."""
    given = {"--" + k.replace("_", "-") for k, v in vars(args).items() if v is not None}
    rows = [r for r in _MODES if args.subcommand in r[0].split()]
    held = [r for r in rows if r[2](args)]
    read = {f for r in held for f in r[3].split()}
    problems = []
    for flag in dict.fromkeys(f for r in rows for f in r[3].split()):
        if flag in given and flag not in read:
            modes = " or ".join(r[1] for r in rows if flag in r[3].split())
            problems.append(f"{flag} is read only {modes}")
    for _, mode, _, _, needs in held:
        missing = [f for f in needs.split() if f not in given]
        if missing:
            problems.append(f"{args.subcommand} {mode} needs {', '.join(missing)}")
    if problems:
        raise ValueError("; ".join(problems))


def _sample_count(text: str) -> int:
    """--n as an int: 1e3 is 1000, but 1000.5 is an error, not 1000."""
    if not float(text).is_integer():
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
    return int(float(text))


def _build_channel(args) -> ChannelModel:
    return ChannelModel(InputLaw(args.channel), snr=args.snr)


def _load_samples(args) -> tuple[SampleSet, ChannelModel | None]:
    if args.input is not None:
        return SampleSet.from_file(args.input), None
    model = _build_channel(args)
    return sample_channel(model, args.n, args.seed or 0), model


def _resolve_envelope(args, model: ChannelModel | None) -> ScoreEnvelope:
    spec = args.rho_bar
    if spec in (None, "lemma1"):  # _check_modes: None only with a channel
        if model is not None:
            return ScoreEnvelope.lemma1(model.snr * model.variance)
        return ScoreEnvelope.lemma1(args.snr * args.var)
    if spec.startswith("const:"):
        return ScoreEnvelope(float(spec.split(":", 1)[1]))
    raise ValueError(f"unknown --rho-bar spec {spec!r}; use lemma1 or const:<v>")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_estimate(args) -> int:
    samples, model = _load_samples(args)
    config = EstimatorConfig(a0=args.a0, a1=args.a1, k_n=args.kn,
                             grid_points=args.grid)
    rho_bar = None
    if EstimatorKind(args.estimator) is EstimatorKind.CLIPPED:
        rho_bar = _resolve_envelope(args, model)
    result = estimate(samples, config, rho_bar)
    payload = result.to_dict()
    payload["n"] = samples.n
    snr = model.snr if model is not None else args.snr
    if snr is not None:
        payload["mmse"] = mmse_from_fisher(result.value, snr)
    _print_json(payload)
    return EXIT_OK


def cmd_density(args) -> int:
    if args.grid_points < 2:
        raise ValueError(f"--grid-points must be at least 2, got {args.grid_points}")
    try:
        lo, hi = (float(v) for v in args.grid_range.split(":"))
    except ValueError:
        lo = hi = np.nan
    if not -np.inf < lo < hi < np.inf:
        raise ValueError(f"--grid-range needs finite lo < hi, got {args.grid_range!r}")
    samples, _ = _load_samples(args)
    grid = np.linspace(lo, hi, args.grid_points)
    dens, deriv = kde_profile(samples, args.a, args.a, grid)
    table = np.column_stack([grid, dens, deriv])
    DataSeries(("t", "f_n", "f_n_deriv"), table).write(args.output)
    print(f"wrote {args.grid_points} rows to {args.output}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    s_alpha2 = None if args.alpha is None else args.alpha**2
    tail = bounds_mod.TailModel(args.var, args.ex2, s_alpha2)
    payload = {}
    if args.theorem in ("2", "3", "4"):
        eps0 = args.eps0 if args.eps0 is not None else 0.0
        eps1 = args.eps1 if args.eps1 is not None else 0.0
        k_n = args.kn
    else:
        # Theorems 5 and 6 are Theorems 2 and 4 at the schedule point.
        if args.theorem == "5":
            eps0, eps1, k_n = bounds_mod.bhattacharya_schedule(args.n, args.u, args.w)
            p_err = bounds_mod.confidence_bound(args.n, args.w, args.w)
        else:
            eps0, eps1, k_n = bounds_mod.clipped_schedule(
                args.n, args.u, args.w0, args.w1
            )
            p_err = bounds_mod.confidence_bound(args.n, args.w0, args.w1)
        eps0, eps1, k_n = float(eps0), float(eps1), float(k_n)
        # A sum of two tails, each capped at 2: at 1 or more it bounds nothing.
        payload.update(k_n=k_n, eps0=eps0, eps1=eps1, p_err=p_err,
                       vacuous=p_err >= 1.0)
    if args.theorem in ("2", "5"):
        bound = bounds_mod.bhattacharya_error_bound(eps0, eps1, k_n, tail)
    elif args.theorem == "3":
        bound = bounds_mod.modified_error_bound(
            eps0, eps1, k_n, tail, args.df or 0, args.dfn or 0
        )
    else:
        bound = bounds_mod.clipped_error_bound(eps0, eps1, k_n, tail)
    payload["eps_n" if args.theorem in ("5", "6") else "bound"] = bound
    # phi(k_n) overflows past k_n^2 + s_m2 ~ 709: JSON null.
    phi_kn = float(tail.phi(k_n))
    payload["phi_kn"] = phi_kn if np.isfinite(phi_kn) else None
    payload["rho_max_kn"] = float(tail.envelope(k_n))
    payload["c_kn"] = float(tail.c_tail(k_n))
    _print_json(payload)
    return EXIT_OK


def cmd_complexity(args) -> int:
    model = _build_channel(args)
    kind = EstimatorKind(args.estimator)
    result = bounds_mod.sample_complexity(args.eps, args.perr, kind, model)
    _print_json(result.to_dict())
    return EXIT_OK


def cmd_experiment(args) -> int:
    config = ExperimentConfig.from_json_file(args.config)
    report = run_experiment(config)
    paths = report.write(config.output_path)
    print("wrote " + ", ".join(str(p) for p in paths))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="fisherinfo", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("estimate", help="estimate Fisher information or MMSE")
    p.add_argument("--input", help="sample file (one value per line)")
    _add_channel_flags(p)
    p.add_argument("--n", type=_sample_count, help="sample count")
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--estimator", required=True,
        choices=[k.value for k in EstimatorKind],
    )
    p.add_argument("--a0", type=float, required=True, help="density bandwidth")
    p.add_argument("--a1", type=float, required=True, help="derivative bandwidth")
    p.add_argument("--kn", type=float, required=True, help="truncation half-width")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID_POINTS,
                   help="quadrature nodes")
    p.add_argument("--rho-bar", help="score envelope: lemma1 or const:<v>")
    p.add_argument("--var", type=float,
                   help="input variance for --rho-bar lemma1 with --input")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("density", help="evaluate f_n and f_n' on a grid")
    p.add_argument("--input", help="sample file (one value per line)")
    _add_channel_flags(p)
    p.add_argument("--n", type=_sample_count, help="sample count")
    p.add_argument("--seed", type=int)
    p.add_argument("--a", type=float, required=True, help="bandwidth")
    p.add_argument("--grid-range", default="-8:8", help="lo:hi")
    p.add_argument("--grid-points", type=int, default=601)
    p.add_argument("--output", default="density.csv")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("bounds", help="evaluate an error/concentration bound")
    p.add_argument("--theorem", required=True, choices=["2", "3", "4", "5", "6"],
                   help="which published bound to evaluate")
    p.add_argument("--eps0", type=float)
    p.add_argument("--eps1", type=float)
    p.add_argument("--kn", type=float)
    p.add_argument("--n", type=float)
    p.add_argument("--u", type=float)
    p.add_argument("--w", type=float)
    p.add_argument("--w0", type=float)
    p.add_argument("--w1", type=float)
    p.add_argument("--var", type=float, required=True, help="signal variance Var S")
    p.add_argument("--ex2", type=float, required=True, help="signal moment E[S^2]")
    p.add_argument("--alpha", type=float, help="sub-Gaussian proxy for |S|")
    p.add_argument("--df", type=int)
    p.add_argument("--dfn", type=int)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("complexity", help="minimal sample size for a target")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--perr", type=float, required=True)
    p.add_argument(
        "--estimator", required=True,
        choices=[k.value for k in EstimatorKind],
    )
    _add_channel_flags(p, required=True)
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("experiment", help="run a configured experiment")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.set_defaults(func=cmd_experiment)
    return parser


def _merge_dash_values(argv):
    """Join `--grid-range -6:6` into one token so argparse does not read
    the leading-dash value as an unknown flag."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--grid-range" and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_dash_values(list(argv)))
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_USAGE
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        _check_modes(args)
        return args.func(args)
    except (HypothesisViolationError, InfeasibleTargetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (ValueError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
