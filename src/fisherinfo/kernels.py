"""Gaussian-kernel density and density-derivative estimation.

Conventions for the Gaussian kernel K(t) = exp(-t^2/2)/sqrt(2*pi):

    f_n(t)  = (1/n) sum_i (1/a)   K((t - Y_i)/a)
    f_n'(t) = (1/n) sum_i (1/a^2) K'((t - Y_i)/a)

The 1/a^2 scaling makes f_n' the exact derivative of f_n when both use
the same bandwidth.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import HypothesisViolationError
from .samples import SampleSet

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Max elements per broadcast block during kernel sums; keeps temporaries
# around 64 MB of float64.
_BLOCK_ELEMENTS = 8_000_000


# Constants of the sup-norm concentration law for f_n^(r), r = 0, 1.
# _TOTAL_VARIATION[r] is the total variation of K^(r), i.e. the integral of
# |K^(r+1)|: int |K'| = sqrt(2/pi), and |K''(t)| = |t^2 - 1| K(t) integrates
# to 2*sqrt(2/(e*pi)) (the factor 2 comes from the sign changes at t = +/-1).
# _BIAS_SLOPE[r] is the sup-norm bias of f_n^(r) per unit bandwidth, for
# densities smoothed by standard Gaussian noise.
_TOTAL_VARIATION = (
    math.sqrt(2.0 / math.pi),
    2.0 * math.sqrt(2.0 / (math.e * math.pi)),
)
_BIAS_SLOPE = (
    1.0 / math.sqrt(2.0 * math.pi * math.e),
    (2.0 / math.e + 1.0) / math.sqrt(2.0 * math.pi),
)


def _check_order(r: int) -> int:
    if r not in (0, 1):
        raise ValueError(f"derivative order r must be 0 or 1, got {r}")
    return r


def _check_bandwidth(a: float) -> float:
    a = float(a)
    if not (a > 0) or not math.isfinite(a):
        raise ValueError(f"bandwidth must be positive and finite, got {a}")
    return a


def _kernel_sums(values: np.ndarray, a: float, t: np.ndarray, want_deriv: bool):
    """Blocked evaluation of (f_n, f_n') on an array of points.

    Returns (density, derivative); derivative is None unless requested.
    The exponentials are shared between the two outputs.
    """
    n = values.size
    dens = np.empty_like(t)
    deriv = np.empty_like(t) if want_deriv else None
    block = max(1, _BLOCK_ELEMENTS // n)
    for i in range(0, t.size, block):
        u = (t[i : i + block, None] - values[None, :]) / a
        k = np.exp(-0.5 * u * u)
        dens[i : i + block] = k.sum(axis=1) / (n * a * _SQRT_2PI)
        if want_deriv:
            deriv[i : i + block] = (u * k).sum(axis=1) / (-n * a * a * _SQRT_2PI)
    return dens, deriv


def kde_profile(samples: SampleSet, a0: float, a1: float, grid: np.ndarray):
    """(f_n, f_n') on a 1-D grid, sharing exponentials when a0 == a1."""
    a0 = _check_bandwidth(a0)
    a1 = _check_bandwidth(a1)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        # The kernel sums pair each grid row with every sample.
        raise ValueError(f"grid must be 1-D, got shape {grid.shape}")
    if a0 == a1:
        dens, deriv = _kernel_sums(samples.values, a0, grid, want_deriv=True)
        return dens, deriv
    dens, _ = _kernel_sums(samples.values, a0, grid, want_deriv=False)
    _, deriv = _kernel_sums(samples.values, a1, grid, want_deriv=True)
    return dens, deriv


def deviation_rate(r: int, a, eps):
    """Per-sample exponent 2 a^(2r+2) (eps - a delta_r)^2 / V_r^2 of the
    sup-norm tail of f_n^(r) at bandwidth a and budget eps: the DKW
    inequality bounds the stochastic part of the error by V_r / a^(r+1)
    times sup|F_n - F|, after the bias a * delta_r is spent. Array-friendly
    in a and eps; meaningful where eps > a * delta_r.
    """
    r = _check_order(r)
    return 2.0 * a ** (2 * r + 2) * (eps - a * _BIAS_SLOPE[r]) ** 2 / (
        _TOTAL_VARIATION[r] ** 2
    )


def rate_optimal_bandwidth(r: int, eps):
    """The bandwidth (r+1) eps / ((r+2) delta_r) maximizing deviation_rate
    at a fixed budget eps."""
    r = _check_order(r)
    return (r + 1) * eps / ((r + 2) * _BIAS_SLOPE[r])


def sup_deviation_tail(r: int, n: int, a: float, eps: float) -> float:
    """Tail bound 2 exp(-n deviation_rate(r, a, eps)) on
    P[sup_t |f_n^{(r)}(t) - f^{(r)}(t)| > eps].

    Requires eps to exceed the deterministic bias delta = a * delta_r.
    """
    r = _check_order(r)
    if n < 1:
        raise ValueError("n must be >= 1")
    a = _check_bandwidth(a)
    delta = a * _BIAS_SLOPE[r]
    if not eps > delta:
        raise HypothesisViolationError(
            f"need eps > delta_(r={r},a={a}) = {delta}; got eps = {eps}"
        )
    return 2.0 * math.exp(-n * deviation_rate(r, a, eps))
