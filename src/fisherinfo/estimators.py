"""Plug-in Fisher-information estimators and the MMSE transform.

The plug-in estimator integrates (f_n')^2 / f_n over a truncated interval
[-k_n, k_n]; the clipped variant caps the estimated score |f_n'/f_n| by a
known envelope before integrating it against |f_n'|, which trades a tail
assumption on 1/f for a score bound and has far better finite-sample
guarantees.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .kernels import kde_profile
from .quadrature import integrate_values, simpson_nodes
from .samples import SampleSet

#: Guard against division by a numerically-zero density at extreme grid
#: nodes. Small enough not to bias desk-scale estimates; the
#: floored_fraction diagnostic reports when it fired.
DEFAULT_DENSITY_FLOOR = 1e-30

DEFAULT_GRID_POINTS = 2001


class EstimatorKind(enum.Enum):
    BHATTACHARYA = "bhattacharya"
    CLIPPED = "clipped"


@dataclass(frozen=True)
class EstimatorConfig:
    """Bandwidths, truncation, and quadrature policy for one estimate."""

    a0: float
    a1: float
    k_n: float
    grid_points: int = DEFAULT_GRID_POINTS
    density_floor: float = DEFAULT_DENSITY_FLOOR
    clip_envelope: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        for name in ("a0", "a1", "k_n"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.grid_points < 3 or self.grid_points % 2 == 0:
            raise ValueError("grid_points must be odd and >= 3")
        if self.density_floor < 0:
            raise ValueError("density_floor must be nonnegative")

    def with_envelope(self, rho_bar) -> "EstimatorConfig":
        return replace(self, clip_envelope=rho_bar)


@dataclass(frozen=True)
class EstimateResult:
    value: float
    estimator: EstimatorKind
    clip_active_fraction: float = 0.0
    floored_fraction: float = 0.0

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "estimator": self.estimator.value,
            "clip_active_fraction": self.clip_active_fraction,
            "floored_fraction": self.floored_fraction,
        }


def default_bandwidth(n: int) -> float:
    """n^(-1/6), the bandwidth used for repeated-trial experiments."""
    return float(n) ** (-1.0 / 6.0)


def default_truncation(n: int) -> float:
    """log(n), the truncation half-width paired with default_bandwidth."""
    return math.log(n)


def lemma_clip_envelope(snr: float, variance: float):
    """Score envelope sqrt(3*snr*Var(X)) + 3|t| for Gaussian-noise data.

    Valid whenever the data are an arbitrary input with the given variance
    contaminated by standard Gaussian noise at the given snr.
    """
    if snr < 0 or variance < 0:
        raise ValueError("snr and variance must be nonnegative")
    c = math.sqrt(3.0 * snr * variance)
    return lambda t: c + 3.0 * np.abs(t)


def constant_clip_envelope(level: float):
    if not level >= 0:
        raise ValueError("envelope level must be nonnegative")
    return lambda t: np.full_like(np.asarray(t, dtype=float), level)


def _floored_density(dens: np.ndarray, floor: float) -> tuple[np.ndarray, float]:
    if floor == 0.0 and np.any(dens <= 0.0):
        raise ZeroDivisionError(
            "density estimate is zero on the grid and density_floor is 0"
        )
    floored = np.maximum(dens, floor)
    return floored, float(np.mean(dens < floor))


def _profile_on_grid(samples, config):
    grid = simpson_nodes(-config.k_n, config.k_n, config.grid_points)
    dens, deriv = kde_profile(samples, config.a0, config.a1, grid)
    return grid, dens, deriv


def bhattacharya(samples: SampleSet, config: EstimatorConfig) -> EstimateResult:
    """Plug-in estimate of the Fisher information over [-k_n, k_n]."""
    grid, dens, deriv = _profile_on_grid(samples, config)
    floored, floored_frac = _floored_density(dens, config.density_floor)
    value = integrate_values(deriv * deriv / floored, -config.k_n, config.k_n)
    return EstimateResult(
        value=value,
        estimator=EstimatorKind.BHATTACHARYA,
        floored_fraction=floored_frac,
    )


def clipped(samples: SampleSet, config: EstimatorConfig) -> EstimateResult:
    """Score-clipped estimate: integral of min(|rho_n|, |rho_bar|) * |f_n'|."""
    if config.clip_envelope is None:
        raise ValueError("clipped estimator requires a clip_envelope")
    grid, dens, deriv = _profile_on_grid(samples, config)
    floored, floored_frac = _floored_density(dens, config.density_floor)
    rho = np.abs(deriv) / floored
    rho_bar = np.abs(np.asarray(config.clip_envelope(grid), dtype=float))
    if not np.all(np.isfinite(rho_bar)):
        raise ValueError("clip_envelope must be finite on [-k_n, k_n]")
    clip_frac = float(np.mean(rho > rho_bar))
    value = integrate_values(
        np.minimum(rho, rho_bar) * np.abs(deriv), -config.k_n, config.k_n
    )
    return EstimateResult(
        value=value,
        estimator=EstimatorKind.CLIPPED,
        clip_active_fraction=clip_frac,
        floored_fraction=floored_frac,
    )


def mmse_from_fisher(fisher: float, snr: float) -> float:
    """(1 - fisher)/snr: the MMSE implied by the output Fisher information
    for data contaminated by standard Gaussian noise at the given snr."""
    if not snr > 0:
        raise ValueError("snr must be positive")
    return (1.0 - fisher) / snr


def estimate(samples: SampleSet, config: EstimatorConfig,
             kind: EstimatorKind) -> EstimateResult:
    """Dispatch to bhattacharya or clipped; mmse_from_fisher turns either
    into an MMSE estimate."""
    if kind is EstimatorKind.BHATTACHARYA:
        return bhattacharya(samples, config)
    if kind is EstimatorKind.CLIPPED:
        return clipped(samples, config)
    raise ValueError(f"unknown estimator kind {kind!r}")
