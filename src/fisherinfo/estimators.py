"""Plug-in Fisher-information estimators and the MMSE transform.

Both estimators integrate min(|rho_n|, |rho_bar|) * |f_n'| over a
truncated interval [-k_n, k_n], where rho_n = f_n'/f_n is the estimated
score. The clipped estimator caps it by a known ScoreEnvelope rho_bar, the
same value Theorems 2-4 read, which trades a tail assumption on 1/f for a
score bound and has far better finite-sample guarantees; the plug-in
estimator is the same integral with no cap, (f_n')^2 / f_n.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass

import numpy as np

from .kernels import kde_profile
from .quadrature import _check_grid_points, _check_real, integrate_values, simpson_nodes
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
            _check_real(name, getattr(self, name))
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


@dataclass(frozen=True)
class ScoreEnvelope:
    """rho_bar(t) = level + slope |t|, called: the clipped estimator's cap. Its
    exact (int rho_bar, int rho_bar^2) over [-k, k] is integrals(k), and Lemma
    1's sqrt(3 s_var) + 3|t|, s_var = snr Var X, is lemma1(s_var)."""

    level: float
    slope: float = 0.0

    def __post_init__(self):
        for name, value in (("level", self.level), ("slope", self.slope)):
            if not 0 <= value < math.inf:
                raise ValueError(f"envelope {name} must be in [0, inf), got {value}")

    @classmethod
    def lemma1(cls, s_var: float) -> "ScoreEnvelope":
        if not 0 <= s_var < math.inf:
            raise ValueError(
                f"s_var = snr Var X must be finite and nonnegative, got {s_var}"
            )
        return cls(math.sqrt(3.0 * s_var), 3.0)

    def __call__(self, t):
        return self.level + self.slope * np.abs(t)

    def integrals(self, k):
        c, s = self.level, self.slope
        return (2.0 * c * k + s * k**2,
                2.0 * c**2 * k + 2.0 * c * s * k**2 + 2.0 * s * s / 3.0 * k**3)


def estimate(samples: SampleSet, config: EstimatorConfig,
             rho_bar: ScoreEnvelope | None = None) -> EstimateResult:
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
        cap = rho_bar(grid)
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

