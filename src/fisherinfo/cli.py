"""Command-line front end.

Subcommands: estimate, density, bounds, complexity, experiment. Single
results are printed as JSON on standard output; data series are written
as CSV files. Exit codes: 0 success, 1 usage/argument error, 2 a bound
hypothesis is violated or a target is infeasible, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import bounds as bounds_mod
from .channel import (
    ChannelModel,
    InputLaw,
    binary_channel,
    gaussian_channel,
    sample_channel,
    true_mmse,
)
from .errors import (
    HypothesisViolationError,
    InfeasibleTargetError,
    QuadratureError,
    UnsupportedOracleError,
)
from .estimators import (
    EstimatorConfig,
    EstimatorKind,
    constant_clip_envelope,
    estimate,
    lemma_clip_envelope,
)
from .experiments import ExperimentConfig, run_experiment
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
    print(json.dumps(payload, indent=2, sort_keys=True))


def _add_channel_flags(parser, required: bool = False):
    parser.add_argument(
        "--channel", choices=["gaussian", "binary"], required=required,
        help="built-in input law of the noisy channel",
    )
    parser.add_argument("--snr", type=float, help="signal-to-noise ratio")
    parser.add_argument("--var", type=float, help="input variance override")


def _build_channel(args) -> ChannelModel:
    if args.channel is None or args.snr is None:
        raise ValueError("--channel and --snr are required here")
    model = (
        gaussian_channel(args.snr)
        if args.channel == "gaussian"
        else binary_channel(args.snr)
    )
    if getattr(args, "var", None) is not None:
        model = dataclasses.replace(
            model, variance=args.var, second_moment=max(args.var, model.second_moment)
        )
    return model


def _load_samples(args) -> tuple[SampleSet, ChannelModel | None]:
    if args.input is not None:
        return SampleSet.from_file(args.input), None
    if args.channel is None:
        raise ValueError("provide either --input FILE or --channel/--snr/--n/--seed")
    if args.n is None:
        raise ValueError("--n is required when sampling from a channel")
    model = _build_channel(args)
    return sample_channel(model, args.n, args.seed), model


def _resolve_envelope(args, model: ChannelModel | None):
    spec = args.rho_bar
    if spec is None:
        if model is None:
            raise ValueError(
                "clipped estimation needs --rho-bar, or a channel to derive "
                "the score envelope from"
            )
        return lemma_clip_envelope(model.snr, model.variance)
    if spec == "lemma1":
        snr = args.snr if model is None else model.snr
        var = args.var if args.var is not None else (
            model.variance if model is not None else None
        )
        if snr is None or var is None:
            raise ValueError("--rho-bar lemma1 needs --snr and --var (or a channel)")
        return lemma_clip_envelope(snr, var)
    if spec.startswith("const:"):
        return constant_clip_envelope(float(spec.split(":", 1)[1]))
    raise ValueError(f"unknown --rho-bar spec {spec!r}; use lemma1 or const:<v>")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_estimate(args) -> int:
    samples, model = _load_samples(args)
    kind = EstimatorKind(args.estimator)
    config = EstimatorConfig(a0=args.a0, a1=args.a1, k_n=args.kn,
                             grid_points=args.grid)
    if kind in (EstimatorKind.CLIPPED, EstimatorKind.MMSE_CLIPPED):
        config = config.with_envelope(_resolve_envelope(args, model))
    snr = model.snr if model is not None else args.snr
    result = estimate(samples, config, kind, snr=snr)
    payload = result.to_dict()
    payload["n"] = samples.n
    if snr is not None and kind in (
        EstimatorKind.BHATTACHARYA, EstimatorKind.CLIPPED
    ):
        payload["mmse"] = (1.0 - result.value) / snr
    _print_json(payload)
    return EXIT_OK


def cmd_density(args) -> int:
    samples, _ = _load_samples(args)
    try:
        lo_s, hi_s = args.grid_range.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise ValueError(
            f"--grid-range must be lo:hi, got {args.grid_range!r}"
        ) from None
    grid = np.linspace(lo, hi, args.grid_points)
    dens, deriv = kde_profile(samples, args.a, args.a, grid)
    with open(args.output, "w") as fh:
        fh.write("# t,f_n,f_n_deriv\n")
        for t, f, fp in zip(grid, dens, deriv):
            fh.write(f"{float(t)!r},{float(f)!r},{float(fp)!r}\n")
    print(f"wrote {args.grid_points} rows to {args.output}")
    return EXIT_OK


def _constants_payload(c: bounds_mod.GaussianBoundConstants, alpha) -> dict:
    payload = {"c1": c.c1, "c2": c.c2, "c3": c.c3, "c4": c.c4, "c5": c.c5}
    if alpha is not None:
        payload["c6"] = c.c6
    return payload


def cmd_bounds(args) -> int:
    snr, var, ex2 = args.snr, args.var, args.ex2
    if snr is None or var is None or ex2 is None:
        raise ValueError("bounds requires --snr, --var, and --ex2")
    constants = bounds_mod.GaussianBoundConstants(
        snr=snr, variance=var, second_moment=ex2, alpha=args.alpha
    )
    payload = _constants_payload(constants, args.alpha)
    if args.theorem in ("2", "3", "4"):
        if args.kn is None:
            raise ValueError("--kn is required for this bound")
        tail = bounds_mod.gaussian_tail_model(snr, var, ex2, args.alpha, args.f0)
        payload["phi_kn"] = float(tail.phi(args.kn))
        payload["rho_max_kn"] = float(tail.rho_max(args.kn))
        payload["c_kn"] = float(tail.c_tail(args.kn))
        eps0 = args.eps0 if args.eps0 is not None else 0.0
        eps1 = args.eps1 if args.eps1 is not None else 0.0
        if args.theorem == "2":
            payload["bound"] = bounds_mod.bhattacharya_error_bound(
                eps0, eps1, args.kn, tail
            )
        elif args.theorem == "3":
            payload["bound"] = bounds_mod.modified_error_bound(
                eps0, eps1, args.kn, tail, args.df, args.dfn
            )
        else:
            payload["bound"] = bounds_mod.clipped_error_bound(
                eps0, eps1, args.kn, tail
            )
    else:
        if args.n is None:
            raise ValueError("--n is required for this bound")
        if args.theorem == "5":
            payload["eps_n"] = bounds_mod.bhattacharya_precision(
                args.n, args.u, args.w, constants, sub_gaussian=args.sub_gaussian
            )
            payload["p_err"] = bounds_mod.confidence_bound(
                args.n, EstimatorKind.BHATTACHARYA, w=args.w
            )
        else:
            payload["eps_n"] = bounds_mod.clipped_precision(
                args.n, args.u, args.w0, args.w1, constants,
                sub_gaussian=args.sub_gaussian,
            )
            payload["p_err"] = bounds_mod.confidence_bound(
                args.n, EstimatorKind.CLIPPED, w0=args.w0, w1=args.w1
            )
        # A sum of two tails, each capped at 2: at 1 or more it bounds nothing.
        payload["vacuous"] = payload["p_err"] >= 1.0
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
    p.add_argument("--n", type=lambda s: int(float(s)), help="sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--estimator", required=True,
        choices=[k.value for k in EstimatorKind],
    )
    p.add_argument("--a0", type=float, required=True, help="density bandwidth")
    p.add_argument("--a1", type=float, required=True, help="derivative bandwidth")
    p.add_argument("--kn", type=float, required=True, help="truncation half-width")
    p.add_argument("--grid", type=int, default=2001, help="quadrature nodes")
    p.add_argument("--rho-bar", help="score envelope: lemma1 or const:<v>")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("density", help="evaluate f_n and f_n' on a grid")
    p.add_argument("--input", help="sample file (one value per line)")
    _add_channel_flags(p)
    p.add_argument("--n", type=lambda s: int(float(s)), help="sample count")
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--snr", type=float)
    p.add_argument("--var", type=float)
    p.add_argument("--ex2", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--f0", type=float)
    p.add_argument("--df", type=int, default=0)
    p.add_argument("--dfn", type=int, default=0)
    p.add_argument("--sub-gaussian", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("complexity", help="minimal sample size for a target")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--perr", type=float, required=True)
    p.add_argument(
        "--estimator", required=True, choices=["bhattacharya", "clipped"]
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
        return args.func(args)
    except (HypothesisViolationError, InfeasibleTargetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (ValueError, QuadratureError, UnsupportedOracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
