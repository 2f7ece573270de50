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


def _minimize_over_v(log_base: np.ndarray, v_grid: np.ndarray) -> np.ndarray:
    """Minimum over v of the Lemma 2 objective, per entry of log_base.

    A scan of v_grid brackets each minimum; a golden-section refinement
    then runs on all brackets at once, each entry taking its own branch.
    """
    vals = _lemma2_objective(v_grid, _gamma(v_grid + 0.5), log_base[:, None])
    i = np.argmin(vals, axis=1)
    a = v_grid[np.maximum(i - 1, 0)]
    b = v_grid[np.minimum(i + 1, v_grid.size - 1)]

    def objective(v):
        return _lemma2_objective(v, _gamma(v + 0.5), log_base)

    # The objective is smooth and unimodal in practice on each bracket.
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(60):
        left = f1 <= f2
        b = np.where(left, x2, b)
        a = np.where(left, a, x1)
        x_new = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        f_new = objective(x_new)
        x1, x2 = np.where(left, x_new, x2), np.where(left, x1, x_new)
        f1, f2 = np.where(left, f_new, f2), np.where(left, f1, f_new)
    return np.minimum(np.minimum(f1, f2), vals[np.arange(i.size), i])


def lemma2_tail(
    k_n,
    snr: float,
    second_moment: float,
    alpha: float | None = None,
    v_search_grid: np.ndarray | None = None,
):
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
    grid = _V_GRID if v_search_grid is None else np.asarray(v_search_grid, float)
    k_sq = k.ravel() ** 2
    log_base = np.log((snr * second_moment + 1.0) / k_sq)
    if alpha is not None:
        sub_g = math.log(2.0) + (alpha**2 * snr - k_sq) / 2.0
        log_base = np.concatenate([log_base, sub_g])
    # One row per branch; the bound is the smaller of the two.
    out = _minimize_over_v(log_base, grid).reshape(-1, *k.shape).min(axis=0)
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


def channel_score_integrals(
    model: ChannelModel, k_n: float, grid_points: int = 2001
) -> tuple[float, float]:
    """(int |rho_Y|, int rho_Y^2) over [-k_n, k_n] for a built-in channel."""
    phi1 = integrate(lambda t: np.abs(true_score(model, t)), -k_n, k_n, grid_points)
    phi2 = integrate(lambda t: true_score(model, t) ** 2, -k_n, k_n, grid_points)
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


@dataclass(frozen=True)
class ComplexitySearchSpec:
    """Deterministic grids for the sample-complexity optimization."""

    k_grid: np.ndarray = None
    e0_points: int = 60
    e1_points: int = 72
    log10_n_max: float = 40.0
    bisect_iters: int = 60

    def __post_init__(self):
        if self.k_grid is None:
            object.__setattr__(self, "k_grid", np.linspace(0.8, 8.0, 60))


def _concentration_rates(e0, e1):
    """Rate-optimal bandwidths and per-sample rates A_r of the two sup-norm
    tail bounds for the budgets (e0, e1)."""
    a0, a1 = rate_optimal_bandwidth(0, e0), rate_optimal_bandwidth(1, e1)
    return a0, a1, deviation_rate(0, a0, e0), deviation_rate(1, a1, e1)


#: Relative slack when pruning by bracket: far above the rounding error of
#: the bracket ends and of the bisection, so no possible tie is pruned.
_BRACKET_MARGIN = 1e-9


def _vector_bisect_log10n(rate0, rate1, target_perr, lo, hi, iters):
    """Smallest log10 n with 2 e^(-A0 n) + 2 e^(-A1 n) <= target, per entry."""

    def conf(l10):
        n = 10.0**l10
        return 2.0 * np.exp(-rate0 * n) + 2.0 * np.exp(-rate1 * n)

    lo_v = np.full_like(rate0, lo)
    hi_v = np.full_like(rate0, hi)
    feasible = conf(hi_v) <= target_perr
    for _ in range(iters):
        mid = 0.5 * (lo_v + hi_v)
        ok = conf(mid) <= target_perr
        hi_v = np.where(ok, mid, hi_v)
        lo_v = np.where(ok, lo_v, mid)
    return np.where(feasible, hi_v, np.inf)


def _complexity_pass(
    estimator: EstimatorKind,
    channel: ChannelModel,
    tail: TailModel,
    k_grid: np.ndarray,
    b0_grid: np.ndarray,
    e1_grid: np.ndarray,
    target_eps: float,
    target_perr: float,
    spec: ComplexitySearchSpec,
):
    """One grid pass of the sample-complexity search.

    For the plug-in estimator b0 is the dimensionless budget
    x0 = eps0 * phi(k) in (0, 1); for the clipped estimator b0 is eps0
    directly. Returns (best tuple or None, smallest precision seen).
    """
    c_grid = tail.c_tail(k_grid)
    b0g, e1g = np.meshgrid(b0_grid, e1_grid, indexing="ij")
    log_2_p, log_4_p = math.log(2.0 / target_perr), math.log(4.0 / target_perr)
    best_prec = np.inf
    best_upper = spec.log10_n_max
    survivors = []
    for k, c_k in zip(k_grid, c_grid):
        if estimator is EstimatorKind.BHATTACHARYA:
            phi_k = float(tail.phi(k))
            e0g = b0g / phi_k
            prec = _plugin_error(b0g, e1g, k, phi_k, tail.rho_max(k)) + c_k
        else:
            phi1_max, phi2_max = tail.rho_bar_integrals(k)
            if channel.input is InputLaw.CUSTOM:
                score_phi1, score_phi2 = phi1_max, phi2_max
            else:
                score_phi1, score_phi2 = channel_score_integrals(channel, k)
            e0g = b0g
            prec = _clipped_two_sided(
                e0g, e1g, phi1_max, phi2_max, score_phi1, score_phi2, c_k
            )
        best_prec = min(best_prec, float(prec.min()))
        mask = prec <= target_eps
        if not mask.any():
            continue
        e0m, e1m = e0g[mask], e1g[mask]
        a0m, a1m, r0, r1 = _concentration_rates(e0m, e1m)
        # Bracket of the bisection's answer; see sample_complexity.
        rate = np.minimum(r0, r1)
        with np.errstate(divide="ignore"):
            lower = np.clip(np.log10(log_2_p / rate), 1.0, spec.log10_n_max)
            upper = np.clip(np.log10(log_4_p / rate), 1.0, spec.log10_n_max)
        best_upper = min(best_upper, float(upper.min()))
        win = lower <= best_upper * (1.0 + _BRACKET_MARGIN)
        point = (np.full(e0m.size, k), b0g[mask], e0m, e1m, a0m, a1m, r0, r1)
        survivors.append([column[win] for column in point])
    if not survivors:
        return None, best_prec
    *point, r0, r1 = (np.concatenate(column) for column in zip(*survivors))
    log10n = _vector_bisect_log10n(
        r0, r1, target_perr, 1.0, spec.log10_n_max, spec.bisect_iters
    )
    i = int(np.argmin(log10n))
    if not np.isfinite(log10n[i]):
        return None, best_prec
    return tuple(float(column[i]) for column in (log10n, *point)), best_prec


def sample_complexity(
    target_eps: float,
    target_perr: float,
    estimator: EstimatorKind,
    channel: ChannelModel,
    spec: ComplexitySearchSpec | None = None,
) -> ComplexityResult:
    """Smallest sample size guaranteeing |estimate - truth| <= target_eps
    with probability >= 1 - target_perr, by grid search over the free
    parameters (k_n, eps0, eps1) with per-point optimal bandwidths and
    bisection on log10 n.

    The precision term is n-free, so each grid point is first screened
    against target_eps. The confidence 2 e^(-A0 n) + 2 e^(-A1 n) lies
    between 2 e^(-m n) and 4 e^(-m n) with m = min(A0, A1), so the n that
    brings it down to target_perr lies in [ln(2/p)/m, ln(4/p)/m]. A point
    whose lower end (in log10 n, clamped to the bisection range) exceeds
    another point's upper end cannot win, and only the remaining points
    enter the confidence bisection. A global grid pass is followed by zoom
    refinement passes around the incumbent optimum. Deterministic for a
    fixed search spec; ties are broken by grid order (k, eps0, eps1).
    """
    if not (0.0 < target_eps <= 1.0):
        raise ValueError("target_eps must lie in (0, 1]")
    if not (0.0 < target_perr < 1.0):
        raise ValueError("target_perr must lie in (0, 1)")
    if estimator not in (EstimatorKind.BHATTACHARYA, EstimatorKind.CLIPPED):
        raise ValueError("sample_complexity supports the Fisher estimators only")
    spec = spec or ComplexitySearchSpec()
    tail = tail_model_for_channel(channel)

    k_grid = np.asarray(spec.k_grid, dtype=float)
    if estimator is EstimatorKind.BHATTACHARYA:
        b0_grid = np.geomspace(1e-6, 0.999, spec.e0_points)
        e1_grid = np.geomspace(1e-7, 1.0, spec.e1_points)
    else:
        b0_grid = np.geomspace(1e-9, 0.5, spec.e0_points)
        e1_grid = np.geomspace(1e-9, 0.5, spec.e1_points)

    best, best_prec = _complexity_pass(
        estimator, channel, tail, k_grid, b0_grid, e1_grid,
        target_eps, target_perr, spec,
    )
    if best is not None:
        dk = float(k_grid[1] - k_grid[0]) if k_grid.size > 1 else 0.5
        r0 = b0_grid[1] / b0_grid[0]
        r1 = e1_grid[1] / e1_grid[0]
        for _ in range(3):
            _, k, b0, _, e1, _, _ = best
            k_local = np.linspace(max(k - dk, 1e-3), k + dk, 9)
            b0_local = np.geomspace(b0 / r0, min(b0 * r0, 0.999), 17)
            e1_local = np.geomspace(e1 / r1, e1 * r1, 17)
            refined, _ = _complexity_pass(
                estimator, channel, tail, k_local, b0_local, e1_local,
                target_eps, target_perr, spec,
            )
            if refined is None or refined[0] >= best[0]:
                break
            best = refined
            dk /= 4.0
            r0 = r0 ** (1.0 / 8.0)
            r1 = r1 ** (1.0 / 8.0)
    if best is None:
        raise InfeasibleTargetError(
            f"no parameters reach precision {target_eps} with confidence "
            f"{target_perr} within n <= 1e{spec.log10_n_max:g}",
            best_precision=best_prec,
        )
    log10_n, k, _, e0, e1, a0, a1 = best
    return ComplexityResult(
        log10_n=log10_n,
        estimator=estimator,
        k_n=k,
        eps0=e0,
        eps1=e1,
        a0=a0,
        a1=a1,
        target_eps=target_eps,
        target_perr=target_perr,
    )
