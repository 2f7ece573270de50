"""Gaussian-kernel density and derivative estimates and their concentration law.

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
#: Largest log10 n the n solve certifies, then its Newton and ulp steps.
LOG10_N_MAX, _NEWTON_STEPS, _ULP_STEPS = 40.0, 4, 8


def _check_order(r: int) -> int:
    if r not in (0, 1):
        raise ValueError(f"derivative order r must be 0 or 1, got {r}")
    return r


def _check_bandwidth(a):
    if not np.all((0 < a) & (a < math.inf)):
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
    a0, a1 = _check_bandwidth(float(a0)), _check_bandwidth(float(a1))
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


def _tail(n, rate):
    """The sup-deviation tail 2 e^(-n rate) at per-sample rate, unchecked."""
    return 2.0 * np.exp(-n * rate)


def sup_deviation_tail(r: int, n, a, eps):
    """Tail bound 2 exp(-n deviation_rate(r, a, eps)) on P[sup_t |f_n^(r) -
    f^(r)| > eps], for n >= 1, a positive and finite, and eps > a delta_r.
    Scalars or arrays that broadcast together; a float for scalar input.
    Each entry equals its scalar call bit for bit: the inputs are made
    contiguous and at least 1-D, so numpy runs every entry in the same loops."""
    r = _check_order(r)
    shape = np.broadcast_shapes(np.shape(n), np.shape(a), np.shape(eps))
    n, a, eps = (np.ascontiguousarray(v, dtype=float) for v in (n, a, eps))
    if not np.all(n >= 1):
        raise ValueError("n must be >= 1")
    delta = _check_bandwidth(a) * _BIAS_SLOPE[r]
    if not np.all(eps > delta):
        raise HypothesisViolationError(f"need eps > a delta_{r} = {delta}, got {eps}")
    out = _tail(n, deviation_rate(r, a, eps)).reshape(shape)
    return float(out) if out.ndim == 0 else out


def _solve_log10_n(rate0, rate1, target_perr):
    """Per entry, the smallest log10 n in [1, LOG10_N_MAX] with _tail(n, A0) +
    _tail(n, A1) <= target_perr; inf where there is none or a rate is NaN.

    With m = min(A0, A1) and g = |A0 - A1|, h(n) = ln(2/p) - m n +
    ln(1 + e^(-g n)) is the log of the confidence over p: convex and
    decreasing, with its root in [ln(2/p)/m, ln(4/p)/m]. Newton steps from
    the lower end climb to the root without passing it; since h' <= -m, a
    last step h/m lands at or past it. Where the tails round above p, log10 n
    moves up an ulp at a time, at most _ULP_STEPS times, or else is inf.
    Callers read n as Python's 10**log10_n, which can fall an ulp below
    numpy's 10.0**l10, so the tails are checked an ulp below numpy's n.
    """
    m, g = np.minimum(rate0, rate1), np.abs(rate0 - rate1)
    log_2_p = math.log(2.0 / target_perr)
    out = np.full(m.shape, np.inf)
    live = m * 10.0**LOG10_N_MAX >= log_2_p
    m, g, rate0, rate1 = m[live], g[live], rate0[live], rate1[live]

    def h_and_slope(n):
        t = np.exp(-g * n)
        return log_2_p - m * n + np.log1p(t), m + g * t / (1.0 + t)

    n = log_2_p / m
    for _ in range(_NEWTON_STEPS):
        h, slope = h_and_slope(n)
        n = n + h / slope
    l10 = np.maximum(np.log10(n + np.maximum(h_and_slope(n)[0], 0.0) / m), 1.0)

    def short(l10):
        n = np.nextafter(10.0**l10, 0.0)
        return _tail(n, rate0) + _tail(n, rate1) > target_perr

    above = short(l10)
    for _ in range(_ULP_STEPS):
        if not above.any():
            break
        l10 = np.where(above, np.nextafter(l10, np.inf), l10)
        above = short(l10)
    out[live] = np.where(above | (l10 > LOG10_N_MAX), np.inf, l10)
    return out


def certified_log10_n(eps0, eps1, target_perr):
    """(log10 n, a0, a1) for budget arrays eps0, eps1: the rate-optimal a_r and
    the smallest log10 n whose tails sup_deviation_tail(r, n, a_r, eps_r) sum
    to at most target_perr, by _solve_log10_n (inf where a budget is NaN)."""
    a0, a1 = rate_optimal_bandwidth(0, eps0), rate_optimal_bandwidth(1, eps1)
    rates = deviation_rate(0, a0, eps0), deviation_rate(1, a1, eps1)
    return _solve_log10_n(*rates, target_perr), a0, a1
