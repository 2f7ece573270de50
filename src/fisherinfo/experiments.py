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
artifacts (no timestamps are recorded).
"""

from __future__ import annotations

import csv
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
    bhattacharya,
    clipped,
    default_bandwidth,
    default_truncation,
    estimate,
    lemma_clip_envelope,
    mmse_from_fisher,
)


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

_DEFAULT_EPS_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))
_DEFAULT_PERR_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))


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
    estimate_bin_width: float | None = None
    error_bin_width: float | None = None
    eps_grid: tuple[float, ...] = _DEFAULT_EPS_GRID
    perr_grid: tuple[float, ...] = _DEFAULT_PERR_GRID
    eps_fixed: float = 0.5
    perr_fixed: float = 0.2
    overlay_half_width: float = 8.0
    overlay_grid_points: int = 801
    threads: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.n_list or any(n < 1 for n in self.n_list):
            raise ValueError("n_list must be nonempty with positive counts")
        if self.kind is ExperimentKind.SNR_SWEEP and not self.snr_grid:
            raise ValueError("SNR_SWEEP requires a nonempty snr_grid")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

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
            known = {"a0", "a1", "k_n", "grid_points", "density_floor"}
            bad = set(ec) - known
            if bad:
                raise ValueError(f"unknown estimator_config keys: {sorted(bad)}")
            kwargs["estimator_config"] = EstimatorConfig(**ec)
        for key in ("n_list", "snr_grid", "eps_grid", "perr_grid"):
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
        if self.estimator_config is not None:
            ec = dataclasses.asdict(self.estimator_config)
            ec.pop("clip_envelope", None)
            d["estimator_config"] = ec
        d["n_list"] = list(self.n_list)
        d["snr_grid"] = list(self.snr_grid)
        d["eps_grid"] = list(self.eps_grid)
        d["perr_grid"] = list(self.perr_grid)
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


@dataclass(frozen=True)
class ExperimentReport:
    """All artifacts of one experiment run, ready to serialize."""

    kind: ExperimentKind
    series: DataSeries
    per_trial_estimates: dict[str, np.ndarray] = field(default_factory=dict)
    bias: dict[str, float] = field(default_factory=dict)
    variance: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict] = field(default_factory=dict)
    truth: dict[str, float] = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def write(self, output_path: str | Path) -> list[Path]:
        """Write <output_path>_<series>.csv and <output_path>_report.json."""
        base = Path(output_path)
        csv_path = base.parent / f"{base.name}_{_SERIES_SUFFIX[self.kind]}.csv"
        with open(csv_path, "w", newline="") as fh:
            fh.write("# " + ",".join(self.series.columns) + "\n")
            writer = csv.writer(fh)
            for row in self.series.rows:
                writer.writerow([repr(float(v)) for v in row])
        json_path = base.parent / f"{base.name}_report.json"
        payload = {
            "kind": self.kind.value,
            "bias": self.bias,
            "variance": self.variance,
            "histograms": self.histograms,
            "truth": self.truth,
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
    return {"config": config.to_dict(), "version": __version__}


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


def _clip_config(base: EstimatorConfig, channel: ChannelModel) -> EstimatorConfig:
    return base.with_envelope(lemma_clip_envelope(channel.snr, channel.variance))


# ---------------------------------------------------------------------------
# Density overlay


def run_density_overlay(config: ExperimentConfig) -> ExperimentReport:
    """One kernel density/derivative realization per n on a fixed symmetric
    grid, with the true density and derivative alongside.

    Default bandwidth a = n^(-1/8) unless an estimator config is given.
    """
    _check_kind(config, ExperimentKind.DENSITY_OVERLAY)
    from .kernels import kde_profile

    half = config.overlay_half_width
    grid = np.linspace(-half, half, config.overlay_grid_points)
    cols = ["t", "f_true", "f_deriv_true"]
    data = [grid]
    try:
        data.append(true_density(config.channel, grid))
        data.append(true_density_deriv(config.channel, grid))
    except UnsupportedOracleError:
        data.append(np.full_like(grid, np.nan))
        data.append(np.full_like(grid, np.nan))
    summary = {"sup_density_error": {}, "sup_deriv_error": {}}
    for i, n in enumerate(config.n_list):
        samples = sample_channel(config.channel, n, trial_seed(config.seed, i))
        if config.estimator_config is not None:
            a0, a1 = config.estimator_config.a0, config.estimator_config.a1
        else:
            a0 = a1 = float(n) ** (-1.0 / 8.0)
        dens, deriv = kde_profile(samples, a0, a1, grid)
        cols += [f"f_n{n}", f"f_deriv_n{n}"]
        data += [dens, deriv]
        if np.all(np.isfinite(data[1])):
            summary["sup_density_error"][str(n)] = float(
                np.max(np.abs(dens - data[1]))
            )
            summary["sup_deriv_error"][str(n)] = float(
                np.max(np.abs(deriv - data[2]))
            )
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
        fisher_plug = bhattacharya(samples, base).value
        fisher_clip = clipped(samples, _clip_config(base, channel)).value
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
        truth=truth,
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


def _estimate_bin_width(config: ExperimentConfig, n: int) -> float:
    if config.estimate_bin_width is not None:
        return config.estimate_bin_width
    return 0.01 if n < 10_000 else 0.003


def _error_bin_width(config: ExperimentConfig, n: int) -> float:
    if config.error_bin_width is not None:
        return config.error_bin_width
    return 0.005 if n < 10_000 else 0.002


def _run_trials(config: ExperimentConfig, n: int, seed_offset: int) -> np.ndarray:
    """Per-trial estimates for one sample size, in trial order."""
    base = _default_config(config, n)
    needs_clip = config.estimator in (
        EstimatorKind.CLIPPED,
        EstimatorKind.MMSE_CLIPPED,
    )
    est_config = _clip_config(base, config.channel) if needs_clip else base
    snr = config.channel.snr

    def one(trial: int) -> float:
        samples = sample_channel(
            config.channel, n, trial_seed(config.seed, seed_offset + trial)
        )
        return estimate(samples, est_config, config.estimator, snr=snr).value

    indices = range(config.trials)
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            # map preserves submission order, so aggregation is
            # deterministic regardless of completion order.
            values = list(pool.map(one, indices))
    else:
        values = [one(t) for t in indices]
    return np.array(values)


def run_histogram(config: ExperimentConfig) -> ExperimentReport:
    """T repeated estimates per sample size with independent seeds.

    Defaults per n: a0 = a1 = n^(-1/6), k_n = log n. Emits per-trial
    estimates, bias/variance, estimate and |error| histograms, and error
    quantiles.
    """
    _check_kind(config, ExperimentKind.HISTOGRAM)
    mmse_kind = config.estimator in (
        EstimatorKind.MMSE_BHATTACHARYA,
        EstimatorKind.MMSE_CLIPPED,
    )
    try:
        truth_value = (
            true_mmse(config.channel) if mmse_kind else true_fisher(config.channel)
        )
    except UnsupportedOracleError:
        truth_value = math.nan

    per_trial, bias, variance, histograms, truth = {}, {}, {}, {}, {}
    rows = []
    summary = {"error_quantiles": {}, "degenerate_variance": {}}
    for i, n in enumerate(config.n_list):
        label = f"n{n}"
        estimates = _run_trials(config, n, seed_offset=i * config.trials)
        errors = np.abs(estimates - truth_value)
        per_trial[label] = estimates
        truth[label] = truth_value
        bias[label] = float(np.mean(estimates) - truth_value)
        variance[label] = float(np.var(estimates))
        summary["degenerate_variance"][label] = bool(config.trials == 1)
        histograms[f"estimates_{label}"] = _fixed_width_histogram(
            estimates, _estimate_bin_width(config, n)
        )
        if np.all(np.isfinite(errors)):
            histograms[f"abs_error_{label}"] = _fixed_width_histogram(
                errors, _error_bin_width(config, n)
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
        per_trial_estimates=per_trial,
        bias=bias,
        variance=variance,
        histograms=histograms,
        truth=truth,
        summary=summary,
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

    cells = [(0.0, eps, config.perr_fixed) for eps in config.eps_grid]
    cells += [(1.0, config.eps_fixed, perr) for perr in config.perr_grid]
    kinds = (EstimatorKind.BHATTACHARYA, EstimatorKind.CLIPPED)
    # (eps_fixed, perr_fixed) can lie on both sweeps: solve each pair once.
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
