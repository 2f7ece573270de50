"""Plug-in Fisher-information estimators and the MMSE transform.

Both estimators integrate min(|rho_n|, |rho_bar|) * |f_n'| over a
truncated interval [-k_n, k_n], where rho_n = f_n'/f_n is the estimated
score. The clipped estimator caps it by a known envelope rho_bar, which
trades a tail assumption on 1/f for a score bound and has far better
finite-sample guarantees; the plug-in estimator is the same integral with
no cap, (f_n')^2 / f_n.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass

import numpy as np

from .kernels import kde_profile
from .quadrature import _check_grid_points, integrate_values, simpson_nodes
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

    def __post_init__(self):
        for name in ("a0", "a1", "k_n"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        _check_grid_points(self.grid_points)


@dataclass(frozen=True)
class EstimateResult:
    value: float
    estimator: EstimatorKind
    clip_active_fraction: float = 0.0
    floored_fraction: float = 0.0

    def to_dict(self) -> dict:
        return {**asdict(self), "estimator": self.estimator.value}


def default_bandwidth(n: int) -> float:
    """n^(-1/6), the bandwidth used for repeated-trial experiments."""
    return float(n) ** (-1.0 / 6.0)


def default_truncation(n: int) -> float:
    """log(n), the truncation half-width paired with default_bandwidth."""
    return math.log(n)


def lemma_clip_envelope(s_var: float):
    """Lemma 1's score envelope sqrt(3 s_var) + 3|t| for Gaussian-noise data,
    with s_var = snr Var X the variance of the signal: the clipped estimator's
    cap, and bounds.TailModel.rho_max, the envelope Theorem 4 integrates.
    """
    if not 0 <= s_var < math.inf:
        raise ValueError(
            f"s_var = snr Var X must be finite and nonnegative, got {s_var}"
        )
    c = math.sqrt(3.0 * s_var)
    return lambda t: c + 3.0 * np.abs(t)


def constant_clip_envelope(level: float):
    if not level >= 0:
        raise ValueError("envelope level must be nonnegative")
    return lambda t: np.full_like(np.asarray(t, dtype=float), level)


def estimate(samples: SampleSet, config: EstimatorConfig,
             rho_bar=None) -> EstimateResult:
    """Integral of min(|rho_n|, |rho_bar|) * |f_n'| over [-k_n, k_n], with
    rho_n = f_n'/max(f_n, floor): the clipped estimate when a score envelope
    rho_bar is given, the plug-in estimate (no cap) otherwise.
    mmse_from_fisher turns either into an MMSE estimate."""
    grid = simpson_nodes(-config.k_n, config.k_n, config.grid_points)
    dens, deriv = kde_profile(samples, config.a0, config.a1, grid)
    floored_frac = float(np.mean(dens < DEFAULT_DENSITY_FLOOR))
    slope = np.abs(deriv)
    rho = slope / np.maximum(dens, DEFAULT_DENSITY_FLOOR)
    kind, clip_frac = EstimatorKind.BHATTACHARYA, 0.0
    if rho_bar is not None:
        kind = EstimatorKind.CLIPPED
        cap = np.abs(np.asarray(rho_bar(grid), dtype=float))
        if not np.all(np.isfinite(cap)):
            raise ValueError("rho_bar must be finite on [-k_n, k_n]")
        clip_frac = float(np.mean(rho > cap))
        rho = np.minimum(rho, cap)
    return EstimateResult(
        value=integrate_values(rho * slope, -config.k_n, config.k_n),
        estimator=kind,
        clip_active_fraction=clip_frac,
        floored_fraction=floored_frac,
    )


def mmse_from_fisher(fisher: float, snr: float) -> float:
    """(1 - fisher)/snr: the MMSE implied by the output Fisher information
    for data contaminated by standard Gaussian noise at the given snr."""
    if not 0 < snr < math.inf:
        raise ValueError(f"snr must be positive and finite, got {snr}")
    return (1.0 - fisher) / snr

