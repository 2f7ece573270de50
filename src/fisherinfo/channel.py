"""Gaussian-noise channel Y = sqrt(snr)*X + Z: sampling and ground truth.

Two built-in input laws have closed-form Fisher information and MMSE and
serve as oracles: a standard Gaussian input and a symmetric binary input
on {-1, +1}. Arbitrary inputs are supported for sampling only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UnsupportedOracleError
from .samples import SampleSet

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class InputLaw(enum.Enum):
    GAUSSIAN_STD = "gaussian"
    BINARY_PM1 = "binary"
    CUSTOM = "custom"


@dataclass(frozen=True)
class ChannelModel:
    """Input law, SNR, and the input moments the error bounds need.

    alpha is a sub-Gaussian proxy for |X|. A built-in input's sampler and
    moments are its law's, the moments all 1; only a CUSTOM input sets its
    own.
    """

    input: InputLaw
    snr: float
    alpha: float = 1.0
    variance: float = 1.0
    second_moment: float = 1.0
    sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None

    def __post_init__(self):
        if not 0 <= self.snr < math.inf:
            raise ValueError(f"snr must be finite and nonnegative, got {self.snr}")
        if self.variance < 0 or self.second_moment < self.variance:
            raise ValueError("need second_moment >= variance >= 0")
        if self.input is InputLaw.CUSTOM:
            if self.sampler is None:
                raise ValueError("CUSTOM input requires a sampler")
        elif (self.sampler, self.alpha, self.variance, self.second_moment) != (
            None, 1.0, 1.0, 1.0
        ):
            raise ValueError("only a CUSTOM input sets its sampler or moments")

    def to_config_dict(self) -> dict:
        return {"input": self.input.value, "snr": self.snr}

    @classmethod
    def from_config_dict(cls, d: dict) -> "ChannelModel":
        unknown = set(d) - {"input", "snr"}
        if unknown:
            raise ValueError(f"unknown channel keys: {sorted(unknown)}")
        if "input" not in d or "snr" not in d:
            raise ValueError("channel config requires 'input' and 'snr'")
        law = InputLaw(d["input"])
        if law is InputLaw.CUSTOM:
            raise ValueError("CUSTOM channels cannot be built from a config file")
        return cls(input=law, snr=float(d["snr"]))


def gaussian_channel(snr: float) -> ChannelModel:
    return ChannelModel(InputLaw.GAUSSIAN_STD, snr=snr)


def binary_channel(snr: float) -> ChannelModel:
    return ChannelModel(InputLaw.BINARY_PM1, snr=snr)


def _rng(seed: int) -> np.random.Generator:
    # Counter-based generator: streams for distinct seeds are independent,
    # which makes per-trial seed derivation (seed ^ trial) parallel-safe.
    return np.random.Generator(np.random.Philox(seed))


def trial_seed(master_seed: int, trial: int) -> int:
    return int(master_seed) ^ int(trial)


def sample_channel(model: ChannelModel, n: int, seed: int) -> SampleSet:
    """Draw n i.i.d. observations of sqrt(snr)*X + Z, reproducibly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    gen = _rng(seed)
    if model.input is InputLaw.GAUSSIAN_STD:
        x = gen.standard_normal(n)
    elif model.input is InputLaw.BINARY_PM1:
        x = gen.integers(0, 2, size=n) * 2.0 - 1.0
    else:
        x = np.asarray(model.sampler(gen, n), dtype=float)
        if x.shape != (n,):
            raise ValueError("custom sampler must return shape (n,)")
    z = gen.standard_normal(n)
    y = math.sqrt(model.snr) * x + z
    return SampleSet(y)


def _require_builtin(model: ChannelModel):
    if model.input is InputLaw.CUSTOM:
        raise UnsupportedOracleError(
            "no closed-form ground truth for CUSTOM input laws"
        )


def true_mmse(model: ChannelModel) -> float:
    """Minimum mean squared error of estimating X from Y."""
    _require_builtin(model)
    snr = model.snr
    if model.input is InputLaw.GAUSSIAN_STD or snr == 0:  # Var X = 1 for both
        return 1.0 / (1.0 + snr)
    # Binary input: E[tanh(U)] = E[tanh(U)^2] for U = snr + sqrt(snr) Z, so
    # mmse = 1 - E[tanh(U)] = E[sech(U)^2], with nothing to cancel. Trapezoid
    # rule in log space, on a step below the width of the integrand's peak.
    m = math.sqrt(snr)
    lo, hi = max(-40.0, snr - 40.0 * m), min(40.0, snr + 40.0 * m)
    n = math.ceil((hi - lo) / min(0.05, m / 4.0))
    u, h = np.linspace(lo, hi, n + 1, retstep=True)
    log_f = 2.0 * (math.log(2.0) - np.logaddexp(u, -u)) - (u - snr) ** 2 / (2.0 * snr)
    top = log_f.max()
    w = np.exp(log_f - top)
    return float(math.exp(top) * h * (w.sum() - (w[0] + w[-1]) / 2) / (_SQRT_2PI * m))


def true_fisher(model: ChannelModel) -> float:
    """Fisher information for location of the output density f_Y."""
    _require_builtin(model)
    snr = model.snr
    if model.input is InputLaw.GAUSSIAN_STD:
        return 1.0 / (1.0 + snr)
    return 1.0 - snr * true_mmse(model)


def true_density(model: ChannelModel, t):
    """Closed-form output density f_Y(t); t scalar or array."""
    _require_builtin(model)
    snr = model.snr
    t = np.asarray(t, dtype=float)
    if model.input is InputLaw.GAUSSIAN_STD:
        var = 1.0 + snr
        out = np.exp(-0.5 * t * t / var) / (_SQRT_2PI * math.sqrt(var))
    else:
        m = math.sqrt(snr)
        out = 0.5 * (
            np.exp(-0.5 * (t - m) ** 2) + np.exp(-0.5 * (t + m) ** 2)
        ) / _SQRT_2PI
    return float(out) if out.ndim == 0 else out


def true_density_deriv(model: ChannelModel, t):
    """Closed-form derivative f_Y'(t)."""
    _require_builtin(model)
    snr = model.snr
    t = np.asarray(t, dtype=float)
    if model.input is InputLaw.GAUSSIAN_STD:
        var = 1.0 + snr
        out = -t / var * np.exp(-0.5 * t * t / var) / (_SQRT_2PI * math.sqrt(var))
    else:
        m = math.sqrt(snr)
        out = 0.5 * (
            -(t - m) * np.exp(-0.5 * (t - m) ** 2)
            - (t + m) * np.exp(-0.5 * (t + m) ** 2)
        ) / _SQRT_2PI
    return float(out) if out.ndim == 0 else out


def true_score(model: ChannelModel, t):
    """Score f_Y'/f_Y of the output density in closed form, which does not
    underflow where f_Y does: -t/(1+snr) for Gaussian input, and
    m tanh(m t) - t with m = sqrt(snr) for binary input."""
    _require_builtin(model)
    t, m = np.asarray(t, dtype=float), math.sqrt(model.snr)
    gaussian = model.input is InputLaw.GAUSSIAN_STD
    out = -t / (1.0 + model.snr) if gaussian else m * np.tanh(m * t) - t
    return float(out) if out.ndim == 0 else out
