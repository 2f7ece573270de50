"""Finite-sample error bounds and sample-complexity optimization.

Everything here is deterministic arithmetic on the bound formulas for the
plug-in (Bhattacharya) and clipped Fisher-information estimators under
Gaussian-noise data:

* deterministic error bounds given sup-norm estimation errors (eps0, eps1)
  on the density and its derivative over [-k_n, k_n] (Theorems 2-4), all
  reading the sampled density through one TailModel;
* TailModel, a value of three moments of the signal S = sqrt(snr) X and an
  optional built-in channel, whose methods give the inverse-density
  envelope phi, the score envelope rho_max and its integrals, the score
  integrals and the tail mass c(k_n);
* the precision/confidence schedules (Theorems 5 and 6): Theorems 2 and 4
  at a = n^-w, k_n = sqrt(u log n) (plug-in) and a_r = n^-w_r, k_n = n^u
  (clipped);
* a numeric search for the smallest sample size guaranteeing a target
  precision with a target confidence.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, InputLaw, true_score
from .errors import HypothesisViolationError, InfeasibleTargetError
from .estimators import EstimatorKind, lemma_clip_envelope
from .kernels import LOG10_N_MAX, certified_log10_n, sup_deviation_tail
from .quadrature import integrate

_SQRT_2PI = math.sqrt(2.0 * math.pi)
#: Largest x with sqrt(2 pi) e^x finite, less a margin for the rounding of exp.
_PHI_EXP_MAX = math.log(sys.float_info.max / _SQRT_2PI) - 1e-9
#: |t| past which phi(t) overflows for any shift; phi caps |t| here to square it.
_PHI_T_MAX = math.sqrt(_PHI_EXP_MAX) + 1.0


# ---------------------------------------------------------------------------
# Gaussian-channel tail model


_V_GRID = np.arange(0.05, 5.0 + 1e-12, 0.05)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _as_output(x):
    """A float for a scalar result, the array otherwise."""
    x = np.asarray(x, dtype=float)
    return float(x) if x.ndim == 0 else x


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


def lemma2_tail(k_n, s_m2: float, s_alpha2: float | None = None):
    """Upper bound on the Fisher-information mass outside [-k_n, k_n].

    Minimizes over the Holder exponent v > 0. Always evaluates the
    second-moment branch on s_m2 = E[S^2]; given s_alpha2, the squared
    sub-Gaussian proxy of |S|, also evaluates the Chernoff branch and
    returns the smaller (TailModel.c_tail). The result may exceed 1 and is
    returned as-is.

    Accepts scalar or array k_n.
    """
    k = np.asarray(k_n, dtype=float)
    if not np.all(k > 0):
        raise ValueError("k_n must be positive")
    k_sq = k.ravel() ** 2
    log_base = np.log((s_m2 + 1.0) / k_sq)
    if s_alpha2 is not None:
        sub_g = math.log(2.0) + (s_alpha2 - k_sq) / 2.0
        log_base = np.concatenate([log_base, sub_g])

    def objective(v):
        return _lemma2_objective(v, _gamma(v + 0.5), log_base)

    scan = _lemma2_objective(_V_GRID, _gamma(_V_GRID + 0.5), log_base[:, None])
    _, tail = _golden_minimum(objective, _V_GRID, scan, 60)
    # One row per branch; the bound is the smaller of the two.
    return _as_output(tail.reshape(-1, *k.shape).min(axis=0))


@dataclass(frozen=True)
class TailModel:
    """Envelopes and tail functionals of the density of Y = S + Z, Z standard
    Gaussian, from s_var = Var S, s_m2 = E[S^2] and s_alpha2, the squared
    sub-Gaussian proxy of |S|: snr Var X, snr E[X^2] and snr alpha^2 for
    S = sqrt(snr) X. channel, a built-in ChannelModel, supplies the true
    score; for_channel builds both from a channel.

    phi(t) = sqrt(2 pi) exp(t^2 + s_m2) bounds 1/f on [-t, t] (Lemma 1; inf
    where it overflows). rho_max is Lemma 1's score envelope rho_bar =
    lemma_clip_envelope(s_var), the one the clipped estimator caps at; it
    grows in |t|, so it bounds sup_{|t|<=k} |f'/f| too. rho_bar_integrals(k)
    is (int |rho_bar|, int rho_bar^2) over [-k, k], exact polynomials in k
    and c = rho_bar(0); score_integrals(k) is the same pair for the true
    score, or for rho_bar where the score is unknown. c_tail(k) is Lemma 2's
    bound on the Fisher-information mass outside [-k, k]. Each method
    accepts scalar or array k.
    """

    s_var: float
    s_m2: float
    s_alpha2: float | None = None
    channel: ChannelModel | None = None

    def __post_init__(self):
        s_alpha2 = 0.0 if self.s_alpha2 is None else self.s_alpha2
        given = (self.s_var, self.s_m2, s_alpha2)
        if not all(0.0 <= v < math.inf for v in given) or self.s_m2 < self.s_var:
            raise ValueError("need finite s_m2 >= s_var >= 0 and s_alpha2 >= 0")

    @classmethod
    def for_channel(cls, model: ChannelModel) -> "TailModel":
        """The channel's signal moments; a built-in input also gives its true
        score (channel_score_integrals)."""
        snr = model.snr
        return cls(
            snr * model.variance,
            snr * model.second_moment,
            model.alpha**2 * snr,
            None if model.input is InputLaw.CUSTOM else model,
        )

    def phi(self, t):
        # sqrt(2 pi) e^x, with inf past the largest finite value.
        x = np.square(np.minimum(np.abs(t), _PHI_T_MAX)) + self.s_m2
        return np.where(
            x <= _PHI_EXP_MAX, _SQRT_2PI * np.exp(np.minimum(x, _PHI_EXP_MAX)), np.inf
        )

    def rho_max(self, k):
        return lemma_clip_envelope(self.s_var)(k)

    def rho_bar_integrals(self, k):
        c = float(self.rho_max(0.0))
        return (
            2.0 * c * k + 3.0 * k**2,
            2.0 * c**2 * k + 6.0 * c * k**2 + 6.0 * k**3,
        )

    def score_integrals(self, k):
        if self.channel is None:
            return self.rho_bar_integrals(k)
        return channel_score_integrals(self.channel, k)

    def c_tail(self, k):
        return lemma2_tail(k, self.s_m2, self.s_alpha2)


# ---------------------------------------------------------------------------
# Deterministic error bounds


def _check_inputs(eps0, eps1, k_n):
    if np.any(np.asarray(eps0) < 0) or np.any(np.asarray(eps1) < 0):
        raise ValueError("eps0 and eps1 must be nonnegative")
    if not np.all(np.isfinite(k_n) & (np.asarray(k_n) > 0)):
        raise ValueError(f"k_n must be finite and positive, got {k_n}")


def _check_phi_hypothesis(eps0, k_n, tail: TailModel) -> np.ndarray:
    phi_k = np.asarray(tail.phi(k_n), dtype=float)
    if not np.all(np.isfinite(phi_k)):
        raise HypothesisViolationError(
            f"phi(k_n) overflows at k_n = {float(np.max(k_n))}; the bound does "
            "not apply"
        )
    x0 = eps0 * phi_k
    if not np.all(x0 < 1.0):
        raise HypothesisViolationError(
            f"eps0 * phi(k_n) = {float(np.max(x0))} >= 1; the bound does not apply"
        )
    return phi_k


def _plugin_error(x0, eps1, k, phi_k, rho_m):
    """Theorem 2 without c(k), in terms of x0 = eps0 * phi(k) < 1. I_max = 1:
    the Fisher information of Gaussian-noise data never exceeds the
    pure-noise value."""
    return (4.0 * eps1 * k * rho_m + 2.0 * eps1**2 * k * phi_k + x0) / (1.0 - x0)


def bhattacharya_error_bound(eps0, eps1, k_n, tail: TailModel):
    """Theorem 2: deterministic error bound for the plug-in estimator.

    (4 eps1 k rho_max + 2 eps1^2 k phi + eps0 phi I_max) / (1 - eps0 phi)
    + c(k) with I_max = 1, valid when eps0 * phi(k) < 1. Accepts scalars or
    arrays that broadcast together.
    """
    _check_inputs(eps0, eps1, k_n)
    phi_k = _check_phi_hypothesis(eps0, k_n, tail)
    return _as_output(
        _plugin_error(eps0 * phi_k, eps1, k_n, phi_k, tail.rho_max(k_n))
        + tail.c_tail(k_n)
    )


def modified_error_bound(
    eps0: float,
    eps1: float,
    k_n: float,
    tail: TailModel,
    d_f: int,
    d_fn: int,
) -> float:
    """Theorem 3: log-envelope error bound for the plug-in estimator.

    Replaces the phi factor by the much slower-growing |log f_n| envelope
    psi, at the price of the derivative zero counts d_f of f and d_fn of f_n.
    psi = max(log(sup f + eps0), log(phi/(1 - eps0 phi))) needs no sup f:
    in Gaussian noise sup f <= 1/sqrt(2 pi), and phi >= sqrt(2 pi) with
    eps0 phi < 1, so the first term is below log(2/sqrt(2 pi)) < 0 and the
    second at least log(sqrt(2 pi)) > 0.91.
    """
    _check_inputs(eps0, eps1, k_n)
    if d_f < 0 or d_fn < 0:
        raise ValueError("zero counts d_f and d_fn must be nonnegative")
    phi_k = float(_check_phi_hypothesis(eps0, k_n, tail))
    psi = math.log(phi_k / (1.0 - eps0 * phi_k))
    rho_m = float(tail.rho_max(k_n))
    lead = eps1 * (4.0 + d_f + d_fn) + eps0 * (2.0 + d_fn) * rho_m
    return lead * psi + float(tail.c_tail(k_n))


def _clipped_summed(eps0, eps1, phi1, phi2, c_k):
    """Theorem 4, summed form: 4 eps1 Phi1 + 2 eps0 Phi2 + c(k)."""
    return 4.0 * eps1 * phi1 + 2.0 * eps0 * phi2 + c_k


def _clipped_two_sided(eps0, eps1, phi1_max, phi2_max, score_phi1, score_phi2, c_k):
    """Theorem 4, max form: the summed form on the true-score integrals,
    or 3 eps1 Phi1_max + eps0 Phi2_max on the envelope integrals. Where the
    score integrals are the envelope's, the summed form is the larger."""
    return np.maximum(
        _clipped_summed(eps0, eps1, score_phi1, score_phi2, c_k),
        3.0 * eps1 * phi1_max + eps0 * phi2_max,
    )


def _finite_integrals(integrals, k_n):
    # Past k_n ~ 1e102 the envelope polynomials overflow (a float k_n raises).
    with np.errstate(over="ignore"):
        try:
            phi1, phi2 = integrals(k_n)
        except OverflowError:
            phi1 = phi2 = math.inf
    if not (np.all(np.isfinite(phi1)) and np.all(np.isfinite(phi2))):
        raise ValueError("score envelope integrals must be finite on [-k_n, k_n]")
    return phi1, phi2


def clipped_error_bound(eps0, eps1, k_n, tail: TailModel):
    """Theorem 4: deterministic error bound for the clipped estimator,

    max(4 eps1 Phi1 + 2 eps0 Phi2 + c(k), 3 eps1 Phi1_max + eps0 Phi2_max),

    with Phi_r the tail's score_integrals and Phi_r_max its
    rho_bar_integrals over [-k_n, k_n]. On an envelope-only tail this is the
    summed form on the envelope integrals. Accepts scalars or arrays that
    broadcast together.
    """
    _check_inputs(eps0, eps1, k_n)
    phi1_max, phi2_max = _finite_integrals(tail.rho_bar_integrals, k_n)
    phi1, phi2 = _finite_integrals(tail.score_integrals, k_n)
    return _as_output(
        _clipped_two_sided(
            eps0, eps1, phi1_max, phi2_max, phi1, phi2, tail.c_tail(k_n)
        )
    )


def channel_score_integrals(model: ChannelModel, k_n):
    """(int |rho_Y|, int rho_Y^2) over [-k_n, k_n] for a built-in channel,
    by Simpson's rule on 2001 nodes; scalar or array k_n. One integrate call
    takes both: the intervals are stacked twice on a leading axis, and
    true_score runs once on the nodes of the first copy."""
    k = np.broadcast_to(k_n, (2, *np.shape(k_n)))

    def integrands(t):
        score = true_score(model, t[0])
        return np.stack([np.abs(score), np.square(score, out=score)])

    return tuple(integrate(integrands, -k, k, 2001))


# ---------------------------------------------------------------------------
# Precision/confidence schedules (a = n^-w, k_n growing with n)


def _check_open(name: str, value: float, lo: float, hi: float):
    if value is None or not (lo < value < hi):
        raise HypothesisViolationError(
            f"{name} must lie in the open interval ({lo}, {hi}); got {value}"
        )


def _sample_sizes(n) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    if np.any(n < 2):
        raise HypothesisViolationError("n must be >= 2")
    return n


def bhattacharya_schedule(n, u: float, w: float):
    """(eps0, eps1, k_n) of the plug-in schedule: a = eps0 = eps1 = n^-w,
    k_n = sqrt(u log n), with 0 < u < w < 1/6."""
    _check_open("w", w, 0.0, 1.0 / 6.0)
    _check_open("u", u, 0.0, w)
    n = _sample_sizes(n)
    eps = n ** (-w)
    return eps, eps, np.sqrt(u * np.log(n))


def clipped_schedule(n, u: float, w0: float, w1: float):
    """(eps0, eps1, k_n) of the clipped schedule: a_r = eps_r = n^-w_r,
    k_n = n^u, with w0 < 1/4, w1 < 1/6 and 0 < u < min(w0/3, w1/2)."""
    _check_open("w0", w0, 0.0, 1.0 / 4.0)
    _check_open("w1", w1, 0.0, 1.0 / 6.0)
    _check_open("u", u, 0.0, min(w0 / 3.0, w1 / 2.0))
    n = _sample_sizes(n)
    return n ** (-w0), n ** (-w1), n**u


def confidence_bound(n, w0: float, w1: float):
    """Failure probability of the schedule a_r = eps_r = n^-w_r: the sum of
    the two sup-deviation tails at (n, a_r, a_r), with exponents
    c1 n^(1-4w0) and c2 n^(1-6w1) for w0 < 1/4 and w1 < 1/6. The plug-in
    schedule has w0 = w1 = w."""
    _check_open("w0", w0, 0.0, 1.0 / 4.0)
    _check_open("w1", w1, 0.0, 1.0 / 6.0)
    n = np.asarray(n, dtype=float)
    a0, a1 = n ** -w0, n ** -w1
    return sup_deviation_tail(0, n, a0, a0) + sup_deviation_tail(1, n, a1, a1)


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
        return {**dataclasses.asdict(self), "estimator": self.estimator.value}


#: Search grids: truncation half-widths k_n, and log eps1 per estimator.
_K_GRID = np.linspace(0.8, 8.0, 60)
_LOG_E1_GRID = {
    EstimatorKind.BHATTACHARYA: np.log(np.geomspace(1e-7, 1.0, 72)),
    EstimatorKind.CLIPPED: np.log(np.geomspace(1e-9, 0.5, 72)),
}
#: Zoom passes over k around the incumbent, points per pass, and
#: golden-section iterations over log eps1 at each k.
_ZOOM_PASSES, _ZOOM_POINTS, _GOLDEN_ITERS = 3, 9, 12
#: Relative margin of eps0 inside the precision boundary: far above the
#: rounding of the closed form, so the bound checked at eps0 meets the
#: target as the public evaluators compute it.
_EPS0_MARGIN = 1e-12


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
    log10_n, a0, a1 = certified_log10_n(np.where(ok, e0, np.nan), e1, target_perr)
    return log10_n, e0, a0, a1


def _best_per_k(estimator, tail, k, target_eps, target_perr):
    """Per k: the smallest log10 n over log eps1 and its log eps1, plus the
    per-k constants of the bound, in the order _precision reads them."""
    c = tail.c_tail(k)
    if estimator is EstimatorKind.BHATTACHARYA:
        # Where 4 k phi(k) overflows, Theorem 2's hypothesis needs eps0 <
        # 1e-300, far below any eps0 certifiable with n <= 1e40. NaN marks
        # such k infeasible before the eps1^2 k phi term overflows.
        phi = tail.phi(k)
        phi = np.where(phi < sys.float_info.max / (4.0 * k), phi, np.nan)
        consts = (k, phi, tail.rho_max(k), c)
    else:
        consts = (*tail.rho_bar_integrals(k), *tail.score_integrals(k), c)
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
    tail = TailModel.for_channel(channel)

    k_grid, best = _K_GRID, None
    dk = float(k_grid[1] - k_grid[0])
    for _ in range(1 + _ZOOM_PASSES):
        log10_n, log_e1, consts = _best_per_k(
            estimator, tail, k_grid, target_eps, target_perr
        )
        i = int(np.argmin(log10_n))
        if best is None and not np.isfinite(log10_n[i]):
            # The bounds increase in eps0 and eps1, so this is the smallest
            # precision on the (k, eps1) grid; fmin skips the NaN of a k
            # where phi(k) overflows.
            e1_min = math.exp(_LOG_E1_GRID[estimator][0])
            prec = _precision(estimator, consts, 0.0, e1_min)
            best_prec = float(np.fmin.reduce(prec))
            raise InfeasibleTargetError(
                f"no parameters reach precision {target_eps} with confidence "
                f"{target_perr} within n <= 1e{LOG10_N_MAX:g}; the smallest "
                f"precision bound on the search grid is {best_prec:.6g}",
                best_precision=best_prec,
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
