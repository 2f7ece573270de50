"""Finite-sample error bounds and sample-complexity optimization.

Everything here is deterministic arithmetic on the bound formulas for the
plug-in (Bhattacharya) and clipped Fisher-information estimators under
Gaussian-noise data:

* deterministic error bounds given sup-norm estimation errors (eps0, eps1)
  on the density and its derivative over [-k_n, k_n];
* the Gaussian-channel constants (inverse-density envelope phi, score
  envelope rho_max and its integrals, tail mass c(k_n));
* precision/confidence schedules for the specific bandwidth and
  truncation growth rates a = n^-w, k_n = sqrt(u log n) (plug-in) and
  a_r = n^-w_r, k_n = n^u (clipped);
* a numeric search for the smallest sample size guaranteeing a target
  precision with a target confidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import ChannelModel, InputLaw, true_score
from .errors import HypothesisViolationError, InfeasibleTargetError
from .estimators import EstimatorKind
from .kernels import deviation_rate, rate_optimal_bandwidth
from .quadrature import integrate

_SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class TailModel:
    """Envelopes and tail functionals of the (unknown) sampled density.

    phi(x) bounds 1/f on [-x, x]; rho_max(k) bounds sup_{|t|<=k} |f'/f|;
    rho_bar_integrals(k) is (int |rho_bar|, int rho_bar^2) over [-k, k] for
    a pointwise score envelope rho_bar; c_tail(k) bounds the
    Fisher-information mass outside [-k, k]; f0 bounds sup f.
    """

    phi: Callable[[float], float]
    rho_max: Callable[[float], float]
    rho_bar_integrals: Callable[[float], tuple[float, float]]
    c_tail: Callable[[float], float]
    f0: float | None = None


@dataclass(frozen=True)
class GaussianBoundConstants:
    """The constants entering the Gaussian-channel precision/confidence
    schedules, fully determined by (snr, Var(X), E[X^2], alpha)."""

    snr: float
    variance: float
    second_moment: float
    alpha: float | None = None

    def __post_init__(self):
        if not self.snr > 0:
            raise ValueError("snr must be positive")
        if self.variance < 0 or self.second_moment < self.variance:
            raise ValueError("need second_moment >= variance >= 0")

    @property
    def c1(self) -> float:
        """Rate constant of the density tail: with eps0 = a0 = n^-w0 its
        exponent is c1 n^(1-4 w0)."""
        return deviation_rate(0, 1.0, 1.0)

    @property
    def c2(self) -> float:
        """Rate constant of the derivative tail: with eps1 = a1 = n^-w1 its
        exponent is c2 n^(1-6 w1)."""
        return deviation_rate(1, 1.0, 1.0)

    @property
    def c3(self) -> float:
        return math.sqrt(3.0 * self.snr * self.variance)

    @property
    def c4(self) -> float:
        return (
            2.0
            * math.sqrt(math.gamma(1.5))
            * math.sqrt(self.snr * self.second_moment + 1.0)
            / math.pi**0.25
        )

    @property
    def c5(self) -> float:
        return _SQRT_2PI * math.exp(self.snr * self.second_moment)

    @property
    def c6(self) -> float:
        if self.alpha is None:
            raise ValueError("c6 requires a sub-Gaussian proxy alpha")
        return (
            2.0**1.5
            * math.sqrt(math.gamma(1.5))
            * math.exp(self.alpha**2 * self.snr / 4.0)
            / math.pi**0.25
        )


# ---------------------------------------------------------------------------
# Gaussian-channel envelopes


_V_GRID = np.arange(0.05, 5.0 + 1e-12, 0.05)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _gamma(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.gamma, x.tolist()), float, x.size)



def _lemma2_objective(v, gamma_v_half, log_base):
    """2 Gamma(v+1/2)^(1/(1+v)) pi^(-1/(2(1+v))) e^(v/(1+v) log_base), given
    gamma_v_half = Gamma(v+1/2)."""
    prefactor = (
        2.0
        * gamma_v_half ** (1.0 / (1.0 + v))
        / math.pi ** (1.0 / (2.0 * (1.0 + v)))
    )
    return prefactor * np.exp(v / (1.0 + v) * log_base)


def _golden_minimum(objective, grid, values, iters):
    """Per-row minimum of objective: a scan, then a golden-section search.

    values[j] is row j's objective scanned on grid; the neighbours of each
    row's scan minimum bracket a golden-section refinement that runs on all
    rows at once, each row taking its own branch. objective maps one abscissa
    per row to one value per row, and is taken to be unimodal on each
    bracket. Returns (abscissa, value) per row, never worse than the scan.
    """
    i = np.argmin(values, axis=1)
    a = grid[np.maximum(i - 1, 0)]
    b = grid[np.minimum(i + 1, grid.size - 1)]
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(iters):
        left = f1 <= f2
        b = np.where(left, x2, b)
        a = np.where(left, a, x1)
        x_new = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        f_new = objective(x_new)
        x1, x2 = np.where(left, x_new, x2), np.where(left, x1, x_new)
        f1, f2 = np.where(left, f_new, f2), np.where(left, f1, f_new)
    scanned = values[np.arange(i.size), i]
    x = np.where(f1 <= f2, x1, x2)
    f = np.minimum(f1, f2)
    return np.where(f < scanned, x, grid[i]), np.minimum(f, scanned)


def lemma2_tail(k_n, snr: float, second_moment: float, alpha: float | None = None):
    """Upper bound on the Fisher-information mass outside [-k_n, k_n].

    Minimizes over the Holder exponent v > 0. Always evaluates the
    second-moment branch; when a sub-Gaussian proxy alpha is given, also
    evaluates the Chernoff branch and returns the smaller. The result may
    exceed 1 and is returned as-is.

    Accepts scalar or array k_n.
    """
    k = np.asarray(k_n, dtype=float)
    if not np.all(k > 0):
        raise ValueError("k_n must be positive")
    k_sq = k.ravel() ** 2
    log_base = np.log((snr * second_moment + 1.0) / k_sq)
    if alpha is not None:
        sub_g = math.log(2.0) + (alpha**2 * snr - k_sq) / 2.0
        log_base = np.concatenate([log_base, sub_g])

    def objective(v):
        return _lemma2_objective(v, _gamma(v + 0.5), log_base)

    scan = _lemma2_objective(_V_GRID, _gamma(_V_GRID + 0.5), log_base[:, None])
    _, tail = _golden_minimum(objective, _V_GRID, scan, 60)
    # One row per branch; the bound is the smaller of the two.
    out = tail.reshape(-1, *k.shape).min(axis=0)
    return float(out) if out.ndim == 0 else out


def gaussian_tail_model(
    snr: float,
    variance: float,
    second_moment: float,
    alpha: float | None = None,
    f0: float | None = None,
) -> TailModel:
    """TailModel for an arbitrary input in standard Gaussian noise.

    Lemma 1: phi(t) = sqrt(2 pi) exp(t^2 + snr E[X^2]) and the score
    envelope rho_bar(t) = c + 3|t|, c = sqrt(3 snr Var(X)), whose maximum
    on [-k, k] is c + 3k and whose integrals over [-k, k] are exact
    polynomials in k. c_tail is the Lemma 2 bound.
    """
    if snr < 0 or variance < 0 or second_moment < variance:
        raise ValueError("need snr >= 0 and second_moment >= variance >= 0")
    c = math.sqrt(3.0 * snr * variance)
    shift = snr * second_moment
    return TailModel(
        phi=lambda t: _SQRT_2PI * np.exp(np.asarray(t) ** 2 + shift),
        rho_max=lambda k: c + 3.0 * k,
        rho_bar_integrals=lambda k: (
            2.0 * c * k + 3.0 * k**2,
            2.0 * c**2 * k + 6.0 * c * k**2 + 6.0 * k**3,
        ),
        c_tail=lambda k: lemma2_tail(k, snr, second_moment, alpha),
        f0=f0,
    )


def tail_model_for_channel(model: ChannelModel, f0: float | None = None) -> TailModel:
    if f0 is None and model.input is not InputLaw.CUSTOM:
        # sup of the output density: both built-ins peak at most at the
        # pure-noise peak smoothed to variance >= 1.
        if model.input is InputLaw.GAUSSIAN_STD:
            f0 = 1.0 / (_SQRT_2PI * math.sqrt(1.0 + model.snr))
        else:
            f0 = 1.0 / _SQRT_2PI
    return gaussian_tail_model(
        model.snr, model.variance, model.second_moment, model.alpha, f0
    )


# ---------------------------------------------------------------------------
# Deterministic error bounds


def _check_phi_hypothesis(eps0: float, k_n: float, tail: TailModel) -> float:
    phi_k = float(tail.phi(k_n))
    if not eps0 * phi_k < 1.0:
        raise HypothesisViolationError(
            f"eps0 * phi(k_n) = {eps0 * phi_k} >= 1; the bound does not apply"
        )
    return phi_k


def _plugin_error(x0, eps1, k, phi_k, rho_m):
    """Theorem 2 without c(k), in terms of x0 = eps0 * phi(k) < 1. I_max = 1:
    the Fisher information of Gaussian-noise data never exceeds the
    pure-noise value."""
    return (4.0 * eps1 * k * rho_m + 2.0 * eps1**2 * k * phi_k + x0) / (1.0 - x0)


def bhattacharya_error_bound(
    eps0: float,
    eps1: float,
    k_n: float,
    tail: TailModel,
) -> float:
    """Deterministic error bound for the plug-in estimator.

    (4 eps1 k rho_max + 2 eps1^2 k phi + eps0 phi I_max) / (1 - eps0 phi)
    + c(k) with I_max = 1, valid when eps0 * phi(k) < 1.
    """
    if eps0 < 0 or eps1 < 0:
        raise ValueError("eps0 and eps1 must be nonnegative")
    phi_k = _check_phi_hypothesis(eps0, k_n, tail)
    rho_m = float(tail.rho_max(k_n))
    return _plugin_error(eps0 * phi_k, eps1, k_n, phi_k, rho_m) + float(
        tail.c_tail(k_n)
    )


def log_envelope_psi(eps0: float, k_n: float, tail: TailModel) -> float:
    """max(log(f0 + eps0), log(phi(k)/(1 - eps0 phi(k)))): bounds |log f_n|."""
    if tail.f0 is None:
        raise ValueError("this bound requires a density sup f0 in the tail model")
    phi_k = _check_phi_hypothesis(eps0, k_n, tail)
    return max(
        math.log(tail.f0 + eps0), math.log(phi_k / (1.0 - eps0 * phi_k))
    )


def modified_error_bound(
    eps0: float,
    eps1: float,
    k_n: float,
    tail: TailModel,
    d_f: int,
    d_fn: int,
) -> float:
    """Log-envelope error bound for the plug-in estimator.

    Replaces the phi factor by the much slower-growing |log f_n| envelope,
    at the price of the derivative zero counts d_f of f and d_fn of f_n.
    """
    if eps0 < 0 or eps1 < 0:
        raise ValueError("eps0 and eps1 must be nonnegative")
    if d_f < 0 or d_fn < 0:
        raise ValueError("zero counts d_f and d_fn must be nonnegative")
    psi = log_envelope_psi(eps0, k_n, tail)
    rho_m = float(tail.rho_max(k_n))
    lead = eps1 * (4.0 + d_f + d_fn) + eps0 * (2.0 + d_fn) * rho_m
    return lead * psi + float(tail.c_tail(k_n))


def _clipped_summed(eps0, eps1, phi1, phi2, c_k):
    """Theorem 4, summed form: 4 eps1 Phi1 + 2 eps0 Phi2 + c(k)."""
    return 4.0 * eps1 * phi1 + 2.0 * eps0 * phi2 + c_k


def _clipped_two_sided(eps0, eps1, phi1_max, phi2_max, score_phi1, score_phi2, c_k):
    """Theorem 4, max form: the summed form on the true-score integrals,
    or 3 eps1 Phi1_max + eps0 Phi2_max on the envelope integrals."""
    return np.maximum(
        _clipped_summed(eps0, eps1, score_phi1, score_phi2, c_k),
        3.0 * eps1 * phi1_max + eps0 * phi2_max,
    )


def _finite_rho_bar_integrals(tail: TailModel, k_n: float) -> tuple[float, float]:
    phi1, phi2 = tail.rho_bar_integrals(k_n)
    if not (math.isfinite(phi1) and math.isfinite(phi2)):
        raise ValueError("score envelope integrals must be finite on [-k_n, k_n]")
    return phi1, phi2


def clipped_error_bound(
    eps0: float,
    eps1: float,
    k_n: float,
    tail: TailModel,
) -> float:
    """4 eps1 int|rho_bar| + 2 eps0 int rho_bar^2 + c(k): the summed-form
    error bound for the clipped estimator."""
    if eps0 < 0 or eps1 < 0:
        raise ValueError("eps0 and eps1 must be nonnegative")
    phi1, phi2 = _finite_rho_bar_integrals(tail, k_n)
    return _clipped_summed(eps0, eps1, phi1, phi2, float(tail.c_tail(k_n)))


def clipped_error_bound_two_sided(
    eps0: float,
    eps1: float,
    k_n: float,
    tail: TailModel,
    score_phi1: float,
    score_phi2: float,
) -> float:
    """Max-form clipped error bound, sharper when the integrals of the true
    score (|rho| and rho^2 over [-k_n, k_n]) are available:

    max(4 eps1 Phi1 + 2 eps0 Phi2 + c(k),
        3 eps1 Phi1_max + eps0 Phi2_max).
    """
    if eps0 < 0 or eps1 < 0:
        raise ValueError("eps0 and eps1 must be nonnegative")
    phi1_max, phi2_max = _finite_rho_bar_integrals(tail, k_n)
    return float(
        _clipped_two_sided(
            eps0, eps1, phi1_max, phi2_max, score_phi1, score_phi2,
            float(tail.c_tail(k_n)),
        )
    )


def channel_score_integrals(model: ChannelModel, k_n: float) -> tuple[float, float]:
    """(int |rho_Y|, int rho_Y^2) over [-k_n, k_n] for a built-in channel,
    by Simpson's rule on 2001 nodes."""
    phi1 = integrate(lambda t: np.abs(true_score(model, t)), -k_n, k_n, 2001)
    phi2 = integrate(lambda t: true_score(model, t) ** 2, -k_n, k_n, 2001)
    return phi1, phi2


# ---------------------------------------------------------------------------
# Precision/confidence schedules (a = n^-w, k_n growing with n)


def _check_open(name: str, value: float, lo: float, hi: float):
    if value is None or not (lo < value < hi):
        raise HypothesisViolationError(
            f"{name} must lie in the open interval ({lo}, {hi}); got {value}"
        )


def bhattacharya_precision(
    n,
    u: float,
    w: float,
    constants: GaussianBoundConstants,
    sub_gaussian: bool = False,
):
    """Guaranteed precision of the plug-in estimator under the schedule
    a = n^-w, k_n = sqrt(u log n); decays like 1/sqrt(u log n).

    Accepts scalar or array n. The sub-Gaussian variant replaces the
    slowest tail term by c6 * n^(-u/4).
    """
    _check_open("w", w, 0.0, 1.0 / 6.0)
    _check_open("u", u, 0.0, w)
    n = np.asarray(n, dtype=float)
    if np.any(n < 2):
        raise HypothesisViolationError("n must be >= 2")
    ratio = n ** (u - w)
    if np.any(ratio >= 1.0):
        raise HypothesisViolationError("need n^(w-u) > 1")
    s = np.sqrt(u * np.log(n))
    c = constants
    if sub_gaussian:
        lead = n ** (-w) * s * (c.c3 + 12.0 * s + 2.0 * c.c5 * ratio) / (1.0 - ratio)
        out = lead + c.c5 / (n ** (w - u) - 1.0) + c.c6 * n ** (-u / 4.0)
    else:
        lead = (
            n ** (-w) * s * (4.0 * c.c3 + 12.0 * s + 2.0 * c.c5 * ratio)
            / (1.0 - ratio)
        )
        out = lead + c.c4 / s + c.c5 / (n ** (w - u) - 1.0)
    return float(out) if out.ndim == 0 else out


def clipped_precision(
    n,
    u: float,
    w0: float,
    w1: float,
    constants: GaussianBoundConstants,
    sub_gaussian: bool = False,
):
    """Guaranteed precision of the clipped estimator under the schedule
    a0 = n^-w0, a1 = n^-w1, k_n = n^u; decays polynomially in n."""
    _check_open("w0", w0, 0.0, 1.0 / 4.0)
    _check_open("w1", w1, 0.0, 1.0 / 6.0)
    _check_open("u", u, 0.0, min(w0 / 3.0, w1 / 2.0))
    n = np.asarray(n, dtype=float)
    if np.any(n < 2):
        raise HypothesisViolationError("n must be >= 2")
    c = constants
    lead = 4.0 * n ** (3.0 * u - w0) * (
        c.c3 * n ** (-2.0 * u) + 3.0 * n ** (-u) + 3.0
    ) + 4.0 * n ** (2.0 * u - w1) * (2.0 * c.c3 * n ** (-u) + 3.0)
    if sub_gaussian:
        out = lead + c.c6 * np.exp(-(n ** (2.0 * u)) / 4.0)
    else:
        out = lead + c.c4 * n ** (-u)
    return float(out) if out.ndim == 0 else out


def confidence_bound(
    n,
    estimator: EstimatorKind,
    w: float | None = None,
    w0: float | None = None,
    w1: float | None = None,
):
    """Failure probability of the schedule a_r = eps_r = n^-w_r: the sum of
    the two sup-deviation tails 2 exp(-n deviation_rate(r, a_r, a_r)), which
    is 2 exp(-c1 n^(1-4w0)) + 2 exp(-c2 n^(1-6w1)).

    The plug-in schedule uses a single bandwidth exponent (w0 = w1 = w)."""
    if estimator in (EstimatorKind.BHATTACHARYA, EstimatorKind.MMSE_BHATTACHARYA):
        _check_open("w", w, 0.0, 1.0 / 6.0)
        w0 = w1 = w
    else:
        _check_open("w0", w0, 0.0, 1.0 / 4.0)
        _check_open("w1", w1, 0.0, 1.0 / 6.0)
    n = np.asarray(n, dtype=float)
    a0, a1 = n ** -w0, n ** -w1
    out = 2.0 * np.exp(-n * deviation_rate(0, a0, a0)) + 2.0 * np.exp(
        -n * deviation_rate(1, a1, a1)
    )
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Derivative zero counting


def count_derivative_zeros(
    fn, k: float, grid_points: int = 4001, tolerance: float = 1e-3
) -> int:
    """Count sign changes of a derivative evaluator on [-k, k].

    Sign changes closer together than `tolerance` are merged; tangential
    zeros (touch without sign change) are not detected.
    """
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    grid = np.linspace(-k, k, int(grid_points))
    try:
        vals = np.asarray(fn(grid), dtype=float)
        if vals.shape != grid.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(fn(t)) for t in grid])
    signs = np.sign(vals)
    nonzero = signs != 0
    idx = np.flatnonzero(nonzero)
    changes = []
    for i, j in zip(idx[:-1], idx[1:]):
        if signs[i] != signs[j]:
            changes.append(0.5 * (grid[i] + grid[j]))
    merged = 0
    last = None
    for pos in changes:
        if last is None or pos - last > tolerance:
            merged += 1
            last = pos
    return merged


# ---------------------------------------------------------------------------
# Sample-complexity search


@dataclass(frozen=True)
class ComplexityResult:
    log10_n: float
    estimator: EstimatorKind
    k_n: float
    eps0: float
    eps1: float
    a0: float
    a1: float
    target_eps: float
    target_perr: float

    def to_dict(self) -> dict:
        return {
            "log10_n": self.log10_n,
            "estimator": self.estimator.value,
            "k_n": self.k_n,
            "eps0": self.eps0,
            "eps1": self.eps1,
            "a0": self.a0,
            "a1": self.a1,
            "target_eps": self.target_eps,
            "target_perr": self.target_perr,
        }


#: Search grids: truncation half-widths k_n, and log eps1 per estimator.
_K_GRID = np.linspace(0.8, 8.0, 60)
_LOG_E1_GRID = {
    EstimatorKind.BHATTACHARYA: np.log(np.geomspace(1e-7, 1.0, 72)),
    EstimatorKind.CLIPPED: np.log(np.geomspace(1e-9, 0.5, 72)),
}
#: Zoom passes over k around the incumbent, points per pass, golden-section
#: iterations over log eps1 at each k, and Newton steps of the n solve.
_ZOOM_PASSES, _ZOOM_POINTS, _GOLDEN_ITERS, _NEWTON_STEPS = 3, 9, 12, 4
_LOG10_N_MAX = 40.0
#: Relative margin of eps0 inside the precision boundary: far above the
#: rounding of the closed form, so the bound checked at eps0 meets the
#: target as the public evaluators compute it.
_EPS0_MARGIN = 1e-12


def _concentration_rates(e0, e1):
    """Rate-optimal bandwidths and per-sample rates A_r of the two sup-norm
    tail bounds for the budgets (e0, e1)."""
    a0, a1 = rate_optimal_bandwidth(0, e0), rate_optimal_bandwidth(1, e1)
    return a0, a1, deviation_rate(0, a0, e0), deviation_rate(1, a1, e1)


def _solve_log10_n(rate0, rate1, target_perr):
    """Smallest log10 n in [1, _LOG10_N_MAX] with 2 e^(-A0 n) + 2 e^(-A1 n)
    <= target_perr, per entry; inf where there is none.

    With m = min(A0, A1) and g = |A0 - A1|, h(n) = ln(2/p) - m n +
    ln(1 + e^(-g n)) is the log of the confidence over p: convex and
    decreasing, with its root in [ln(2/p)/m, ln(4/p)/m]. Newton steps from
    the lower end climb to the root without passing it; since h' <= -m, a
    last step h/m lands at or past it. Where rounding leaves the confidence
    as computed above p, log10 n moves up one ulp; any entry still above
    is inf.
    """
    m, g = np.minimum(rate0, rate1), np.abs(rate0 - rate1)
    log_2_p = math.log(2.0 / target_perr)
    out = np.full(m.shape, np.inf)
    live = m * 10.0**_LOG10_N_MAX >= log_2_p
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
        n = 10.0**l10
        return 2.0 * np.exp(-rate0 * n) + 2.0 * np.exp(-rate1 * n) > target_perr

    l10 = np.where(short(l10), np.nextafter(l10, np.inf), l10)
    out[live] = np.where(short(l10) | (l10 > _LOG10_N_MAX), np.inf, l10)
    return out


def _precision(estimator, consts, e0, e1):
    """The Theorem 2 or Theorem 4 (max form) bound, as the public
    evaluators compute it."""
    if estimator is EstimatorKind.BHATTACHARYA:
        k, phi, rho, c = consts
        return _plugin_error(e0 * phi, e1, k, phi, rho) + c
    return _clipped_two_sided(e0, e1, *consts)


def _certify(estimator, consts, e1, target_eps, target_perr):
    """(log10 n, eps0, a0, a1) at eps1, with eps0 a relative _EPS0_MARGIN
    below the largest value whose bound meets target_eps; log10 n is inf
    where the bound at that eps0 misses it. consts broadcast against e1.

    Plug-in: with d = eps - c and x0 = eps0 phi < 1, the bound meets eps iff
    x0 <= (d - 4 eps1 k rho - 2 eps1^2 k phi) / (1 + d), which needs d > 0.
    Clipped: both arms of the max are affine in eps0.
    """
    if estimator is EstimatorKind.BHATTACHARYA:
        k, phi, rho, c = consts
        d = np.where(c < target_eps, target_eps - c, np.nan)
        e0 = (d - 4.0 * e1 * k * rho - 2.0 * e1**2 * k * phi) / (1.0 + d) / phi
    else:
        m1, m2, s1, s2, c = consts
        e0 = np.minimum(
            (target_eps - c - 4.0 * e1 * s1) / (2.0 * s2),
            (target_eps - 3.0 * e1 * m1) / m2,
        )
    e0 = e0 * (1.0 - _EPS0_MARGIN)
    e1 = np.broadcast_to(e1, e0.shape)
    ok = (e0 > 0) & (_precision(estimator, consts, e0, e1) <= target_eps)
    a0, a1, r0, r1 = _concentration_rates(e0, e1)
    log10_n = np.full(e0.shape, np.inf)
    log10_n[ok] = _solve_log10_n(r0[ok], r1[ok], target_perr)
    return log10_n, e0, a0, a1


def _best_per_k(estimator, channel, tail, k, target_eps, target_perr):
    """Per k: the smallest log10 n over log eps1 and its log eps1, plus the
    per-k constants of the bound, in the order _precision reads them."""
    c = tail.c_tail(k)
    if estimator is EstimatorKind.BHATTACHARYA:
        consts = (k, tail.phi(k), tail.rho_max(k), c)
    else:
        m1, m2 = tail.rho_bar_integrals(k)
        s1, s2 = (m1, m2) if channel.input is InputLaw.CUSTOM else np.array(
            [channel_score_integrals(channel, x) for x in k]
        ).T
        consts = (m1, m2, s1, s2, c)
    grid = _LOG_E1_GRID[estimator]
    scan = _certify(
        estimator, [v[:, None] for v in consts], np.exp(grid), target_eps, target_perr
    )[0]

    def objective(log_e1):
        return _certify(estimator, consts, np.exp(log_e1), target_eps, target_perr)[0]

    log_e1, log10_n = _golden_minimum(objective, grid, scan, _GOLDEN_ITERS)
    return log10_n, log_e1, consts


def sample_complexity(
    target_eps: float,
    target_perr: float,
    estimator: EstimatorKind,
    channel: ChannelModel,
) -> ComplexityResult:
    """Smallest sample size guaranteeing |estimate - truth| <= target_eps
    with probability >= 1 - target_perr, by search over (k_n, eps1) with
    eps0 on the precision boundary, per-point optimal bandwidths and a
    Newton solve for n.

    At fixed (k_n, eps1) the bound and the density rate A0 both increase in
    eps0, so the best eps0 is the largest the precision target allows; it
    has a closed form (_certify). For each k on _K_GRID, a scan of the log
    eps1 grid and a golden-section search on the bracket it finds give the
    best eps1; zoom passes over k around the incumbent follow, never
    dropping it. Deterministic; ties go to the first k.
    """
    if not (0.0 < target_eps <= 1.0):
        raise ValueError("target_eps must lie in (0, 1]")
    if not (0.0 < target_perr < 1.0):
        raise ValueError("target_perr must lie in (0, 1)")
    if estimator not in (EstimatorKind.BHATTACHARYA, EstimatorKind.CLIPPED):
        raise ValueError("sample_complexity supports the Fisher estimators only")
    tail = tail_model_for_channel(channel)

    k_grid, best = _K_GRID, None
    dk = float(k_grid[1] - k_grid[0])
    for _ in range(1 + _ZOOM_PASSES):
        log10_n, log_e1, consts = _best_per_k(
            estimator, channel, tail, k_grid, target_eps, target_perr
        )
        i = int(np.argmin(log10_n))
        if best is None and not np.isfinite(log10_n[i]):
            # The bounds increase in eps0 and eps1, so this is the smallest
            # precision on the (k, eps1) grid; fmin skips the NaN of a k
            # where phi(k) overflows.
            e1_min = math.exp(_LOG_E1_GRID[estimator][0])
            prec = _precision(estimator, consts, 0.0, e1_min)
            raise InfeasibleTargetError(
                f"no parameters reach precision {target_eps} with confidence "
                f"{target_perr} within n <= 1e{_LOG10_N_MAX:g}",
                best_precision=float(np.fmin.reduce(prec)),
            )
        if best is None or log10_n[i] < best[0]:
            best = (log10_n[i], k_grid[i], log_e1[i], [v[i : i + 1] for v in consts])
        k_grid = np.linspace(max(best[1] - dk, 1e-3), best[1] + dk, _ZOOM_POINTS)
        dk /= 4.0
    _, k, log_e1, consts = best
    e1 = np.exp([log_e1])
    log10_n, e0, a0, a1 = (
        float(v[0]) for v in _certify(estimator, consts, e1, target_eps, target_perr)
    )
    return ComplexityResult(
        log10_n, estimator, float(k), e0, float(e1[0]), a0, a1, target_eps, target_perr
    )
