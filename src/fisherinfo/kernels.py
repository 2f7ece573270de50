"""Gaussian-kernel density and derivative estimates and their concentration law.

Conventions for the Gaussian kernel K(t) = exp(-t^2/2)/sqrt(2*pi):

    f_n(t)  = (1/n) sum_i (1/a)   K((t - Y_i)/a)
    f_n'(t) = (1/n) sum_i (1/a^2) K'((t - Y_i)/a)

The 1/a^2 scaling makes f_n' the exact derivative of f_n when both use
the same bandwidth.

On a uniform grid, kde_profile bins the samples linearly and convolves, within
the error bound stated in _binned_sums; other grids take the exact sums.
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

# The binned sums bin at h_b <= a/_BINS_PER_BANDWIDTH and drop kernel taps
# beyond _TAP_RADIUS bandwidths. At 10 bandwidths, tens of nodes of a 2001
# grid read 0 where the exact density is above the estimators' floor.
_BINS_PER_BANDWIDTH, _TAP_RADIUS = 4, 13.0
# Cap on the binned sums' multiply-adds, lattice length times taps (at least
# 105), which also caps the lattice near 10 MB. Only a grid step far from a
# reaches it: over about 150a, or under about a/400, at 2001 nodes.
_MAX_BINNED_WORK = 1 << 27


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


def _lattice(a: float, h: float):
    """(s, h_b, m) of the binned sums: s = ceil(4h/a) bins per grid step of
    h_b = h/s <= a/4 each, and m = ceil(13a/h_b) kernel taps each side."""
    s = math.ceil(_BINS_PER_BANDWIDTH * h / a)
    h_b = h / s
    return s, h_b, math.ceil(_TAP_RADIUS * a / h_b)


def _binned_sums(values: np.ndarray, a: float, t0: float, lattice, size: int,
                 want_deriv: bool):
    """(f_n, f_n') on the uniform grid t0 + j h, j < size, by linear binning
    and convolution on lattice = _lattice(a, h): _kernel_sums' outputs to
    within the bound below.

    The lattice g_k = t0 + (k - m) h_b, h_b = h/s with s = ceil(4h/a), holds
    every grid node and has h_b <= a/4. Each sample's unit mass is split
    between its two lattice neighbours in proportion to nearness; samples off
    the lattice are dropped. Convolving the masses with K^(r) sampled at
    u = d h_b/a, |d| <= m = ceil(13a/h_b), gives f_n^(r) at the nodes.

    Error bound. At a node t the exact sum averages phi(y) = K^(r)((t - y)/a)
    / a^(r+1) over the samples; the binned sum averages the linear
    interpolant of phi on the lattice, with phi set to 0 at lattice points
    more than m h_b from t. Interpolation costs at most h_b^2/8 sup|phi''| =
    h_b^2/8 sup|K^(r+2)| / a^(r+3) per sample, with sup|K''| = 1/sqrt(2 pi)
    and sup|K'''| ~= 0.55059. The zeroed points and the dropped samples lie
    at least 13a from t, so they cost at most sup_{|u| >= 13} |K^(r)(u)| /
    a^(r+1), that is K(13)/a or 13 K(13)/a^2, under 1.1e-36/a^(r+1). The sum
    of the two terms bounds |binned - exact| at every node, up to rounding.
    """
    n = values.size
    s, h_b, m = lattice
    length = (size - 1) * s + 2 * m + 1
    pos = (values - t0) / h_b + m
    pos = pos[(pos >= 0) & (pos < length - 1)]
    cell = pos.astype(np.intp)
    frac = pos - cell
    mass = np.bincount(cell, 1.0 - frac, length) + np.bincount(cell + 1, frac, length)
    u = np.arange(-m, m + 1) * (h_b / a)
    k = np.exp(-0.5 * u * u)
    dens = np.convolve(mass, k, "valid")[::s] / (n * a * _SQRT_2PI)
    deriv = None
    if want_deriv:
        deriv = np.convolve(mass, u * k, "valid")[::s] / (-n * a * a * _SQRT_2PI)
    return dens, deriv


def _binned_grid(a: float, grid: np.ndarray):
    """(t0, _lattice(a, h)) when grid is t0 + j h, h > 0, to within 64 ulps
    and the binned sums' lattice length times taps is at most
    _MAX_BINNED_WORK; None otherwise."""
    size = grid.size
    if size < 2:
        return None
    t0, h = float(grid[0]), float(grid[-1] - grid[0]) / (size - 1)
    # s >= 4h/a bins per step and m >= 13a/h taps each side: either ratio past
    # the cap makes the lattice too long, and keeps ceil finite below it.
    if not (0 < h / a < _MAX_BINNED_WORK and a / h < _MAX_BINNED_WORK):
        return None
    off = np.abs(grid - (t0 + h * np.arange(size)))
    if not np.all(off <= 64 * np.spacing(np.max(np.abs(grid)))):
        return None
    lattice = _lattice(a, h)
    s, _, m = lattice
    if ((size - 1) * s + 2 * m + 1) * (2 * m + 1) > _MAX_BINNED_WORK:
        return None
    return t0, lattice


def _sums(values: np.ndarray, a: float, grid: np.ndarray, want_deriv: bool):
    """(f_n, f_n') on grid: binned where _binned_grid allows, exact otherwise."""
    plan = _binned_grid(a, grid)
    if plan is None:
        return _kernel_sums(values, a, grid, want_deriv)
    return _binned_sums(values, a, *plan, grid.size, want_deriv)


def kde_profile(samples: SampleSet, a0: float, a1: float, grid: np.ndarray):
    """(f_n, f_n') on a 1-D grid, sharing work when a0 == a1."""
    a0, a1 = _check_bandwidth(float(a0)), _check_bandwidth(float(a1))
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        # The kernel sums pair each grid row with every sample.
        raise ValueError(f"grid must be 1-D, got shape {grid.shape}")
    if a0 == a1:
        return _sums(samples.values, a0, grid, want_deriv=True)
    dens, _ = _sums(samples.values, a0, grid, want_deriv=False)
    _, deriv = _sums(samples.values, a1, grid, want_deriv=True)
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
