"""Reproducible simulation experiments emitting CSV + JSON artifacts.

Four experiment kinds:

* DENSITY_OVERLAY — one kernel density/derivative realization per sample
  size on a fixed grid, next to the closed-form truth;
* SNR_SWEEP — plug-in and clipped Fisher/MMSE estimates across an SNR
  grid, both estimators evaluated on the same sample set per SNR;
* HISTOGRAM — repeated-trial estimate and |error| histograms with bias,
  variance, and error quantiles per sample size;
* COMPLEXITY — sample-complexity tables for both estimators over a
  precision grid (fixed failure probability) and a failure-probability
  grid (fixed precision).

Reports are deterministic: identical config + seed produce byte-identical
artifacts (no timestamps, output paths or thread counts are recorded).
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import sample_complexity
from .channel import (
    ChannelModel,
    InputLaw,
    sample_channel,
    trial_seed,
    true_density,
    true_density_deriv,
    true_fisher,
    true_mmse,
)
from .errors import InfeasibleTargetError, UnsupportedOracleError
from .estimators import (
    EstimatorConfig,
    EstimatorKind,
    default_bandwidth,
    default_truncation,
    estimate,
    lemma_clip_envelope,
    mmse_from_fisher,
)
from .quadrature import _check_integer


class ExperimentKind(enum.Enum):
    DENSITY_OVERLAY = "density_overlay"
    SNR_SWEEP = "snr_sweep"
    HISTOGRAM = "histogram"
    COMPLEXITY = "complexity"


#: CSV series suffix per experiment kind.
_SERIES_SUFFIX = {
    ExperimentKind.DENSITY_OVERLAY: "density",
    ExperimentKind.SNR_SWEEP: "sweep",
    ExperimentKind.HISTOGRAM: "hist",
    ExperimentKind.COMPLEXITY: "complexity",
}

#: COMPLEXITY sweeps eps over EPS_GRID at PERR_FIXED and p_err over PERR_GRID
#: at EPS_FIXED; DENSITY_OVERLAY evaluates on OVERLAY_GRID_POINTS nodes of
#: [-OVERLAY_HALF_WIDTH, OVERLAY_HALF_WIDTH].
EPS_GRID = PERR_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))
EPS_FIXED, PERR_FIXED = 0.5, 0.2
OVERLAY_HALF_WIDTH, OVERLAY_GRID_POINTS = 8.0, 801

#: The fields each kind reads besides kind, channel and output_path; any
#: other field must keep its default.
_READS = {
    ExperimentKind.DENSITY_OVERLAY: {"n_list", "seed"},
    ExperimentKind.SNR_SWEEP: {"n_list", "estimator_config", "seed", "snr_grid"},
    ExperimentKind.HISTOGRAM: {"n_list", "estimator_config", "seed", "trials",
                               "estimator", "threads"},
    ExperimentKind.COMPLEXITY: set(),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to rerun an experiment bit-for-bit."""

    kind: ExperimentKind
    channel: ChannelModel
    n_list: tuple[int, ...] = (10_000,)
    trials: int = 1
    estimator: EstimatorKind = EstimatorKind.BHATTACHARYA
    estimator_config: EstimatorConfig | None = None
    snr_grid: tuple[float, ...] = ()
    seed: int = 0
    output_path: str = "experiment"
    threads: int = 1

    def __post_init__(self):
        _check_integer("seed", self.seed)
        if _check_integer("trials", self.trials) < 1:
            raise ValueError("trials must be >= 1")
        if not self.n_list or any(
            _check_integer("n_list entry", n) < 1 for n in self.n_list
        ):
            raise ValueError("n_list must be nonempty with positive counts")
        if _check_integer("threads", self.threads) < 1:
            raise ValueError("threads must be >= 1")
        reads = _READS[self.kind] | {"kind", "channel", "output_path"}
        unread = [f.name for f in dataclasses.fields(self)
                  if f.name not in reads and getattr(self, f.name) != f.default]
        if unread:
            raise ValueError(f"{self.kind.value} experiments do not read "
                             + ", ".join(unread))
        if self.kind is ExperimentKind.SNR_SWEEP and not (
            self.snr_grid and len(self.n_list) == 1
        ):
            raise ValueError("SNR_SWEEP needs a nonempty snr_grid and one sample size")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown experiment config keys: {sorted(unknown)}")
        if "kind" not in d or "channel" not in d:
            raise ValueError("experiment config requires 'kind' and 'channel'")
        kwargs = dict(d)
        kwargs["kind"] = ExperimentKind(d["kind"])
        kwargs["channel"] = ChannelModel.from_config_dict(d["channel"])
        if "estimator" in d:
            kwargs["estimator"] = EstimatorKind(d["estimator"])
        if d.get("estimator_config") is not None:
            ec = dict(d["estimator_config"])
            known = {f.name for f in dataclasses.fields(EstimatorConfig)}
            bad = set(ec) - known
            if bad:
                raise ValueError(f"unknown estimator_config keys: {sorted(bad)}")
            kwargs["estimator_config"] = EstimatorConfig(**ec)
        for key in ("n_list", "snr_grid"):
            if key in d:
                kwargs[key] = tuple(d[key])
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: experiment config must be a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["kind"] = self.kind.value
        d["channel"] = self.channel.to_config_dict()
        d["estimator"] = self.estimator.value
        d["n_list"] = list(self.n_list)
        d["snr_grid"] = list(self.snr_grid)
        return d


@dataclass(frozen=True)
class DataSeries:
    """One CSV-ready table: column names plus a row-major float matrix."""

    columns: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(self.columns):
            raise ValueError("rows must be a matrix matching the column names")
        object.__setattr__(self, "rows", rows)

    def write(self, path: str | Path):
        """Write a `# col,...` header line, then one line per row of the
        values' repr joined by commas; every line ends in LF."""
        lines = ["# " + ",".join(self.columns)]
        lines += [",".join(map(repr, row)) for row in self.rows.tolist()]
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class ExperimentReport:
    """All artifacts of one experiment run, ready to serialize: the series
    becomes the CSV, and the other four fields the report JSON's keys."""

    kind: ExperimentKind
    series: DataSeries
    summary: dict = field(default_factory=dict)
    per_trial_estimates: dict[str, np.ndarray] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def write(self, output_path: str | Path) -> list[Path]:
        """Write <output_path>_<series>.csv and <output_path>_report.json."""
        base = Path(output_path)
        csv_path = base.parent / f"{base.name}_{_SERIES_SUFFIX[self.kind]}.csv"
        self.series.write(csv_path)
        json_path = base.parent / f"{base.name}_report.json"
        payload = {
            "kind": self.kind.value,
            "summary": self.summary,
            "per_trial_estimates": {
                k: [float(x) for x in v] for k, v in self.per_trial_estimates.items()
            },
            "metadata": self.metadata,
        }
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return [csv_path, json_path]


def _metadata(config: ExperimentConfig) -> dict:
    """The package version and the config less output_path and threads,
    which change no computed number and so may not change a report's bytes."""
    run = config.to_dict()
    del run["output_path"], run["threads"]
    return {"config": run, "version": __version__}


def _check_kind(config: ExperimentConfig, expected: ExperimentKind):
    if config.kind is not expected:
        raise ValueError(
            f"config kind is {config.kind.value!r}; expected {expected.value!r}"
        )


def _default_config(config: ExperimentConfig, n: int) -> EstimatorConfig:
    if config.estimator_config is not None:
        return config.estimator_config
    a = default_bandwidth(n)
    return EstimatorConfig(a0=a, a1=a, k_n=default_truncation(n))


# ---------------------------------------------------------------------------
# Density overlay


def run_density_overlay(config: ExperimentConfig) -> ExperimentReport:
    """One kernel density/derivative realization per n on a fixed symmetric
    grid, with the true density and derivative alongside, at bandwidth
    a = n^(-1/8).
    """
    _check_kind(config, ExperimentKind.DENSITY_OVERLAY)
    from .kernels import kde_profile

    grid = np.linspace(-OVERLAY_HALF_WIDTH, OVERLAY_HALF_WIDTH, OVERLAY_GRID_POINTS)
    cols = ["t", "f_true", "f_deriv_true"]
    try:
        truth = [f(config.channel, grid) for f in (true_density, true_density_deriv)]
    except UnsupportedOracleError:
        truth = [np.full_like(grid, np.nan)] * 2
    data = [grid, *truth]
    summary = {"sup_density_error": {}, "sup_deriv_error": {}}
    for i, n in enumerate(config.n_list):
        samples = sample_channel(config.channel, n, trial_seed(config.seed, i))
        a = float(n) ** (-1.0 / 8.0)
        dens, deriv = kde_profile(samples, a, a, grid)
        cols += [f"f_n{n}", f"f_deriv_n{n}"]
        data += [dens, deriv]
        if np.all(np.isfinite(truth[0])):
            summary["sup_density_error"][str(n)] = float(np.max(np.abs(dens - truth[0])))
            summary["sup_deriv_error"][str(n)] = float(np.max(np.abs(deriv - truth[1])))
    return ExperimentReport(
        kind=config.kind,
        series=DataSeries(tuple(cols), np.column_stack(data)),
        summary=summary,
        metadata=_metadata(config),
    )


# ---------------------------------------------------------------------------
# SNR sweep


def run_snr_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Both estimators (and their MMSE transforms) across an SNR grid.

    Each SNR point draws one sample set shared by the plug-in and clipped
    estimators, so any difference between the columns is due to clipping
    alone. Defaults: n = n_list[0], a0 = a1 = 0.3, k_n = 10.
    """
    _check_kind(config, ExperimentKind.SNR_SWEEP)
    n = config.n_list[0]
    base = config.estimator_config or EstimatorConfig(a0=0.3, a1=0.3, k_n=10.0)
    rows = []
    truth = {}
    for i, snr in enumerate(config.snr_grid):
        channel = dataclasses.replace(config.channel, snr=float(snr))
        samples = sample_channel(channel, n, trial_seed(config.seed, i))
        fisher_plug = estimate(samples, base).value
        rho_bar = lemma_clip_envelope(channel.snr * channel.variance)
        fisher_clip = estimate(samples, base, rho_bar).value
        try:
            t_fisher = true_fisher(channel)
            t_mmse = true_mmse(channel)
        except UnsupportedOracleError:
            t_fisher = t_mmse = math.nan
        truth[f"fisher_snr{snr:g}"] = t_fisher
        truth[f"mmse_snr{snr:g}"] = t_mmse
        rows.append(
            [
                snr,
                fisher_plug,
                fisher_clip,
                mmse_from_fisher(fisher_plug, channel.snr),
                mmse_from_fisher(fisher_clip, channel.snr),
                t_fisher,
                t_mmse,
            ]
        )
    columns = (
        "snr",
        "fisher_bhattacharya",
        "fisher_clipped",
        "mmse_bhattacharya",
        "mmse_clipped",
        "fisher_true",
        "mmse_true",
    )
    return ExperimentReport(
        kind=config.kind,
        series=DataSeries(columns, np.array(rows)),
        summary={"truth": truth},
        metadata=_metadata(config),
    )


# ---------------------------------------------------------------------------
# Repeated-trial histograms


def _fixed_width_histogram(values: np.ndarray, width: float) -> dict:
    """Histogram with bin edges aligned to integer multiples of width."""
    lo = math.floor(values.min() / width) * width
    hi = math.ceil(values.max() / width) * width
    if hi <= lo:
        hi = lo + width
    nbins = int(round((hi - lo) / width))
    edges = lo + width * np.arange(nbins + 1)
    counts, _ = np.histogram(values, bins=edges)
    return {"edges": [float(e) for e in edges], "counts": [int(c) for c in counts]}


def _bin_widths(n: int) -> tuple[float, float]:
    """Histogram bin widths (estimate, |error|) at sample size n."""
    return (0.01, 0.005) if n < 10_000 else (0.003, 0.002)


def _run_trials(config: ExperimentConfig, n: int, seed_offset: int) -> np.ndarray:
    """Per-trial estimates for one sample size, in trial order."""
    est_config = _default_config(config, n)
    channel = config.channel
    rho_bar = (lemma_clip_envelope(channel.snr * channel.variance)
               if config.estimator is EstimatorKind.CLIPPED else None)

    def one(trial: int) -> float:
        samples = sample_channel(
            config.channel, n, trial_seed(config.seed, seed_offset + trial)
        )
        return estimate(samples, est_config, rho_bar).value

    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        # map preserves submission order, so aggregation is deterministic
        # regardless of completion order.
        return np.array(list(pool.map(one, range(config.trials))))


def run_histogram(config: ExperimentConfig) -> ExperimentReport:
    """T repeated estimates per sample size with independent seeds.

    Defaults per n: a0 = a1 = n^(-1/6), k_n = log n. Emits per-trial
    estimates, bias/variance, estimate and |error| histograms, and error
    quantiles.
    """
    _check_kind(config, ExperimentKind.HISTOGRAM)
    try:
        truth_value = true_fisher(config.channel)
    except UnsupportedOracleError:
        truth_value = math.nan

    per_trial, rows = {}, []
    summary = {key: {} for key in ("bias", "variance", "histograms", "truth",
                                   "error_quantiles", "degenerate_variance")}
    for i, n in enumerate(config.n_list):
        label = f"n{n}"
        estimates = _run_trials(config, n, seed_offset=i * config.trials)
        errors = np.abs(estimates - truth_value)
        per_trial[label] = estimates
        summary["truth"][label] = truth_value
        summary["bias"][label] = float(np.mean(estimates) - truth_value)
        summary["variance"][label] = float(np.var(estimates))
        summary["degenerate_variance"][label] = bool(config.trials == 1)
        estimate_width, error_width = _bin_widths(n)
        summary["histograms"][f"estimates_{label}"] = _fixed_width_histogram(
            estimates, estimate_width
        )
        if np.all(np.isfinite(errors)):
            summary["histograms"][f"abs_error_{label}"] = _fixed_width_histogram(
                errors, error_width
            )
            summary["error_quantiles"][label] = {
                str(q): float(np.quantile(errors, q))
                for q in (0.25, 0.5, 0.75, 0.9)
            }
        for t, (est, err) in enumerate(zip(estimates, errors)):
            rows.append([n, t, est, err])
    return ExperimentReport(
        kind=config.kind,
        series=DataSeries(("n", "trial", "estimate", "abs_error"), np.array(rows)),
        summary=summary,
        per_trial_estimates=per_trial,
        metadata=_metadata(config),
    )


# ---------------------------------------------------------------------------
# Sample-complexity tables


def run_complexity(config: ExperimentConfig) -> ExperimentReport:
    """log10 sample complexity for both estimators over a precision grid at
    fixed failure probability, and a failure-probability grid at fixed
    precision. Infeasible cells are recorded as inf, not errors.
    """
    _check_kind(config, ExperimentKind.COMPLEXITY)

    def cell(eps: float, perr: float, kind: EstimatorKind) -> float:
        try:
            return sample_complexity(eps, perr, kind, config.channel).log10_n
        except InfeasibleTargetError:
            return math.inf

    cells = [(0.0, eps, PERR_FIXED) for eps in EPS_GRID]
    cells += [(1.0, EPS_FIXED, perr) for perr in PERR_GRID]
    kinds = (EstimatorKind.BHATTACHARYA, EstimatorKind.CLIPPED)
    # (EPS_FIXED, PERR_FIXED) lies on both sweeps: solve each pair once.
    pairs = dict.fromkeys(c[1:] for c in cells)
    solved = {pair: [cell(*pair, kind) for kind in kinds] for pair in pairs}
    rows = [[*c, *solved[c[1:]]] for c in cells]
    columns = (
        "sweep",  # 0 = precision sweep, 1 = failure-probability sweep
        "eps",
        "p_err",
        "log10_n_bhattacharya",
        "log10_n_clipped",
    )
    infeasible = int(sum(1 for r in rows if not all(map(math.isfinite, r[3:]))))
    return ExperimentReport(
        kind=config.kind,
        series=DataSeries(columns, np.array(rows)),
        summary={"infeasible_cells": infeasible},
        metadata=_metadata(config),
    )


_RUNNERS = {
    ExperimentKind.DENSITY_OVERLAY: run_density_overlay,
    ExperimentKind.SNR_SWEEP: run_snr_sweep,
    ExperimentKind.HISTOGRAM: run_histogram,
    ExperimentKind.COMPLEXITY: run_complexity,
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Dispatch to the runner for the configured experiment kind."""
    return _RUNNERS[config.kind](config)
