"""Tests for the error bounds, concentration constants, and the
sample-complexity search."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fisherinfo import (
    ChannelModel,
    EstimatorConfig,
    EstimatorKind,
    InputLaw,
    SampleSet,
    binary_channel,
    estimate,
    gaussian_channel,
    lemma_clip_envelope,
    true_score,
)
from fisherinfo import bounds as bounds_mod
from fisherinfo.bounds import (
    TailModel,
    _clipped_summed,
    bhattacharya_error_bound,
    bhattacharya_schedule,
    channel_score_integrals,
    clipped_error_bound,
    clipped_schedule,
    confidence_bound,
    lemma2_tail,
    modified_error_bound,
    sample_complexity,
)
from fisherinfo.errors import HypothesisViolationError, InfeasibleTargetError
from fisherinfo.kernels import (
    _BIAS_SLOPE,
    _solve_log10_n,
    _tail,
    deviation_rate,
    sup_deviation_tail,
)
from fisherinfo.quadrature import integrate

_SQRT_2PI = math.sqrt(2 * math.pi)


@pytest.fixture(scope="module")
def unit_tail():
    """Tail model for the Gaussian channel at snr = Var = E[X^2] = alpha = 1,
    so s_var = s_m2 = s_alpha2 = 1."""
    return TailModel(1.0, 1.0, 1.0)


def _simpson_envelope_integrals(rho_bar, k_n):
    """(int |rho_bar|, int rho_bar^2) over [-k_n, k_n] by Simpson's rule:
    the oracle for TailModel.rho_bar_integrals."""
    phi1 = integrate(lambda t: np.abs(rho_bar(t)), -k_n, k_n, 2001)
    phi2 = integrate(lambda t: rho_bar(t) ** 2, -k_n, k_n, 2001)
    return phi1, phi2


def _scalar_lemma2_tail(k_n, snr, second_moment, alpha=None):
    """One-k-at-a-time golden-section search for the Lemma 2 tail: the
    reference the array form of lemma2_tail is held to."""
    v_grid = np.arange(0.05, 5.0 + 1e-12, 0.05)
    golden = (math.sqrt(5.0) - 1.0) / 2.0

    def objective(v, log_base):
        v = np.asarray(v, dtype=float)
        prefactor = (
            2.0
            * np.vectorize(math.gamma)(v + 0.5) ** (1.0 / (1.0 + v))
            / math.pi ** (1.0 / (2.0 * (1.0 + v)))
        )
        return prefactor * np.exp(v / (1.0 + v) * log_base)

    def minimize(log_base):
        vals = objective(v_grid, log_base)
        i = int(np.argmin(vals))
        a = float(v_grid[max(i - 1, 0)])
        b = float(v_grid[min(i + 1, v_grid.size - 1)])
        x1 = b - golden * (b - a)
        x2 = a + golden * (b - a)
        f1 = float(objective(x1, log_base))
        f2 = float(objective(x2, log_base))
        for _ in range(60):
            if f1 <= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - golden * (b - a)
                f1 = float(objective(x1, log_base))
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + golden * (b - a)
                f2 = float(objective(x2, log_base))
        return min(f1, f2, float(vals[i]))

    best = minimize(math.log((snr * second_moment + 1.0) / k_n**2))
    if alpha is not None:
        best = min(best, minimize(math.log(2.0) + (alpha**2 * snr - k_n**2) / 2.0))
    return best


def _certified_tails(res):
    """Sum of the sup-deviation tails of f_n and f_n' at a certified point."""
    n = 10.0**res.log10_n
    return sup_deviation_tail(0, n, res.a0, res.eps0) + sup_deviation_tail(
        1, n, res.a1, res.eps1
    )


class TestConstants:
    def test_c1_c2_from_first_principles(self):
        # The schedule rate constants c_r = deviation_rate(r, 1, 1) =
        # 2 (1 - delta_r)^2 / V_r^2 with V0^2 = 2/pi, V1^2 = 8/(e pi).
        c1 = math.pi * (1 - 1 / math.sqrt(2 * math.pi * math.e)) ** 2
        c2 = math.e * math.pi * (1 - (2 / math.e + 1) / _SQRT_2PI) ** 2 / 4
        assert deviation_rate(0, 1.0, 1.0) == pytest.approx(c1, rel=1e-12)
        assert deviation_rate(1, 1.0, 1.0) == pytest.approx(c2, rel=1e-12)
        assert deviation_rate(0, 1.0, 1.0) == pytest.approx(1.80519, abs=1e-4)
        assert deviation_rate(1, 1.0, 1.0) == pytest.approx(0.20191, abs=1e-4)

    def test_moment_validation(self):
        with pytest.raises(ValueError):
            TailModel(2.0, 1.0)
        # s_alpha2 is a square: a negative one would shrink the Chernoff tail.
        with pytest.raises(ValueError):
            TailModel(1.0, 1.0, -1.0)

    @pytest.mark.parametrize(
        "args",
        [
            (math.nan, 1.0, None),
            (1.0, math.nan, None),
            (1.0, math.inf, None),
            (1.0, 1.0, math.nan),
        ],
    )
    def test_non_finite_parameters_rejected(self, args):
        with pytest.raises(ValueError, match="finite"):
            TailModel(*args)


class TestLemma1Constants:
    def test_zero_variance_zero_truncation(self):
        env = TailModel(0.0, 1.0)
        assert env.rho_max(0.0) == 0.0

    def test_phi_at_origin_zero_snr(self):
        env = TailModel(0.0, 0.0)
        assert float(env.phi(0.0)) == pytest.approx(_SQRT_2PI, abs=1e-4)

    def test_phi_overflows_to_inf_without_warning(self):
        # Past k^2 + s_m2 ~ 709 sqrt(2 pi) e^x is not a finite double;
        # phi reports inf (pytest turns any RuntimeWarning into an error).
        env = TailModel(1.0, 1.0)
        phi = env.phi(np.array([2.0, 26.0, 27.0, 1e3]))
        assert phi[0] == _SQRT_2PI * math.exp(5.0)
        assert np.isfinite(phi[1]) and np.all(np.isinf(phi[2:]))

    def test_phi_overflow_named_by_the_hypothesis_check(self, unit_tail):
        with pytest.raises(HypothesisViolationError, match="overflows"):
            bhattacharya_error_bound(0.0, 0.0, 27.0, unit_tail)

    def test_invalid_moments(self):
        with pytest.raises(ValueError):
            TailModel(2.0, 1.0)


class TestTruncationTail:
    def test_fixed_v_one_branch_dominates_result(self):
        # At v = 1 the second-moment branch reduces to the c4/k form.
        snr, ex2, k = 1.0, 1.0, 3.0
        fixed_v1 = (
            2 * math.sqrt(math.gamma(1.5)) / math.pi**0.25
            * math.sqrt(snr * ex2 + 1) / k
        )
        assert lemma2_tail(k, snr * ex2) <= fixed_v1 + 1e-12

    def test_sub_gaussian_branch_also_dominates(self):
        snr, ex2, alpha, k = 1.0, 1.0, 1.0, 3.0
        fixed_v1_sub = (
            2 * math.sqrt(math.gamma(1.5)) / math.pi**0.25
            * math.sqrt(2 * math.exp((alpha**2 * snr - k**2) / 2))
        )
        out = lemma2_tail(k, snr * ex2, alpha**2 * snr)
        assert out <= fixed_v1_sub + 1e-12

    def test_matches_dense_brute_force(self):
        snr, ex2, alpha, k = 1.0, 1.0, 1.0, 3.0
        dense = np.linspace(0.01, 6.0, 20_000)
        gamma = np.vectorize(math.gamma)

        def branch(log_base):
            pref = (
                2 * gamma(dense + 0.5) ** (1 / (1 + dense))
                / math.pi ** (1 / (2 * (1 + dense)))
            )
            return float(np.min(pref * np.exp(dense / (1 + dense) * log_base)))

        brute = min(
            branch(math.log((snr * ex2 + 1) / k**2)),
            branch(math.log(2.0) + (alpha**2 * snr - k**2) / 2),
        )
        got = lemma2_tail(k, snr * ex2, alpha**2 * snr)
        assert got == pytest.approx(brute, rel=1e-4)

    def test_vanishes_monotonically_for_large_k(self):
        values = [lemma2_tail(k, 1.0, 1.0) for k in (4, 6, 8, 12, 16)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-20

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            lemma2_tail(0.0, 1.0)

    @pytest.mark.parametrize("alpha", [None, 1.0])
    def test_array_matches_scalar_oracle(self, alpha):
        k = np.linspace(0.5, 16.0, 63)
        got = lemma2_tail(k, 1.0, None if alpha is None else alpha**2)
        want = [_scalar_lemma2_tail(float(x), 1.0, 1.0, alpha) for x in k]
        assert got.shape == k.shape
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_scalar_in_float_out(self):
        assert type(lemma2_tail(3.0, 1.0)) is float
        assert type(lemma2_tail(np.float64(3.0), 1.0, 1.0)) is float
        assert lemma2_tail(np.full((2, 3), 3.0), 1.0).shape == (2, 3)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_invalid_k_in_array(self, bad):
        with pytest.raises(ValueError, match="positive"):
            lemma2_tail(np.array([1.0, bad, 3.0]), 1.0)

    @pytest.mark.parametrize("snr", [1.0, 5.0])
    @pytest.mark.parametrize("factory", [gaussian_channel, binary_channel])
    def test_dominates_monte_carlo_tail_integral(self, factory, snr):
        # The bound caps E[rho^2(Y); |Y| >= k], estimated here by brute
        # force with the closed-form score.
        model = factory(snr)
        gen = np.random.Generator(np.random.Philox(31))
        from fisherinfo import sample_channel

        y = sample_channel(model, 1_000_000, seed=31).values
        k = 3.0
        contrib = np.where(np.abs(y) >= k, true_score(model, y) ** 2, 0.0)
        mc, se = contrib.mean(), contrib.std() / 1000.0
        bound = lemma2_tail(k, snr * model.second_moment, model.alpha**2 * snr)
        assert bound >= mc - 3 * se


def _custom_channel(snr, alpha, variance, second_moment):
    return ChannelModel(
        InputLaw.CUSTOM, snr=snr, alpha=alpha, variance=variance,
        second_moment=second_moment, sampler=lambda gen, n: gen.standard_normal(n),
    )


def _certified(estimator, model):
    """sample_complexity at (0.5, 0.2) as a dict, or its best precision
    where the target is infeasible."""
    try:
        return sample_complexity(0.5, 0.2, estimator, model).to_dict()
    except InfeasibleTargetError as exc:
        return {"best_precision": exc.best_precision}


_CUSTOM_MOMENTS = {
    "snr": st.floats(0.0, 50.0, allow_subnormal=False),
    "alpha": st.floats(0.1, 3.0),
    "variance": st.floats(0.0, 4.0, allow_subnormal=False),
    "excess": st.floats(0.0, 4.0, allow_subnormal=False),
}


class TestSignalMoments:
    """The bounds read the input only through s_var = snr Var X,
    s_m2 = snr E[X^2] and s_alpha2 = snr alpha^2."""

    @settings(max_examples=60, deadline=None)
    @given(**_CUSTOM_MOMENTS)
    def test_channel_tail_is_the_signal_moment_tail(
        self, snr, alpha, variance, excess
    ):
        model = _custom_channel(snr, alpha, variance, variance + excess)
        got = TailModel.for_channel(model)
        want = TailModel(
            snr * model.variance, snr * model.second_moment, alpha**2 * snr
        )
        k = np.array([0.3, 1.0, 2.5, 4.0, 8.0, 30.0])
        for name in ("phi", "rho_max", "c_tail"):
            assert np.array_equal(getattr(got, name)(k), getattr(want, name)(k)), name
        assert np.array_equal(got.rho_bar_integrals(k), want.rho_bar_integrals(k))
        # The array form, on the products, against the X-scale oracle.
        assert got.c_tail(2.5) == pytest.approx(
            _scalar_lemma2_tail(2.5, snr, model.second_moment, alpha),
            rel=1e-14, abs=0.0,
        )

    @settings(max_examples=12, deadline=None)
    @given(**_CUSTOM_MOMENTS, j=st.integers(-3, 3))
    def test_equal_products_certify_equal_sample_sizes(
        self, snr, alpha, variance, excess, j
    ):
        # Scaling snr by 4^j and the input by 2^-j is exact in floating
        # point away from subnormals, so the products stay bit-equal.
        base = _custom_channel(snr, alpha, variance, variance + excess)
        scaled = _custom_channel(
            snr * 4.0**j, alpha / 2.0**j, variance / 4.0**j,
            base.second_moment / 4.0**j,
        )

        def products(m):
            return m.snr * m.variance, m.snr * m.second_moment, m.alpha**2 * m.snr

        assume(products(base) == products(scaled))
        for estimator in EstimatorKind:
            assert _certified(estimator, base) == _certified(estimator, scaled)


class TestPluginErrorBound:
    def test_zero_errors_leave_truncation_only(self, unit_tail):
        assert bhattacharya_error_bound(0.0, 0.0, 5.0, unit_tail) == pytest.approx(
            float(unit_tail.c_tail(5.0))
        )

    def test_hypothesis_boundary(self, unit_tail):
        eps0 = 1.0 / float(unit_tail.phi(2.0))
        with pytest.raises(HypothesisViolationError):
            bhattacharya_error_bound(eps0, 0.0, 2.0, unit_tail)

    def test_term_by_term_rederivation(self, unit_tail):
        eps0 = eps1 = 1e-6
        k = 2.0
        phi_k = _SQRT_2PI * math.exp(k**2 + 1.0)
        rho_max = math.sqrt(3.0) + 3 * k
        expected = (
            4 * eps1 * k * rho_max + 2 * eps1**2 * k * phi_k + eps0 * phi_k * 1.0
        ) / (1 - eps0 * phi_k) + lemma2_tail(k, 1.0, 1.0)
        assert bhattacharya_error_bound(eps0, eps1, k, unit_tail) == pytest.approx(
            expected, rel=1e-12
        )

    def test_negative_eps_rejected(self, unit_tail):
        with pytest.raises(ValueError):
            bhattacharya_error_bound(-1e-9, 0.0, 2.0, unit_tail)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0, max_value=1e-6),
        st.floats(min_value=0, max_value=1e-3),
        st.floats(min_value=0, max_value=5e-7),
        st.floats(min_value=0, max_value=5e-4),
    )
    def test_monotone_in_errors(self, e0, e1, d0, d1):
        tail = TailModel(1.0, 1.0, 1.0)
        base = bhattacharya_error_bound(e0, e1, 2.0, tail)
        assert bhattacharya_error_bound(e0 + d0, e1 + d1, 2.0, tail) >= base

    def test_single_sample_empirical_soundness(self, unit_tail):
        # A single sample at 0 with bandwidth a gives f_n = N(0, a^2)
        # exactly. Take the unknown truth to be N(0, 1) (the snr -> 0
        # channel), measure eps0/eps1 on a fine grid, and check the
        # deterministic bound covers the actual estimation error.
        a, k = 0.99, 1.5
        tail = TailModel(0.0, 0.0, 1e-12)
        grid = np.linspace(-k, k, 20_001)
        f = np.exp(-0.5 * grid**2) / _SQRT_2PI
        fp = -grid * f
        fn = np.exp(-0.5 * (grid / a) ** 2) / (a * _SQRT_2PI)
        fnp = -(grid / a**2) * fn
        eps0 = float(np.max(np.abs(fn - f)))
        eps1 = float(np.max(np.abs(fnp - fp)))
        config = EstimatorConfig(a0=a, a1=a, k_n=k, grid_points=4001)
        estimate_value = estimate(SampleSet([0.0]), config).value
        actual_error = abs(1.0 - estimate_value)  # I(N(0,1)) = 1
        bound = bhattacharya_error_bound(eps0, eps1, k, tail)
        assert actual_error <= bound


class TestLogEnvelopeBound:
    def test_zero_errors(self, unit_tail):
        value = modified_error_bound(0.0, 0.0, 5.0, unit_tail, 1, 1)
        assert value == pytest.approx(float(unit_tail.c_tail(5.0)))

    def test_zero_counts_reduction(self, unit_tail):
        # d_f = d_fn = 0 and eps0 = 0 leaves 4 eps1 psi + c(k).
        eps1, k = 1e-3, 3.0
        psi = math.log(float(unit_tail.phi(k)))
        expected = 4 * eps1 * psi + float(unit_tail.c_tail(k))
        got = modified_error_bound(0.0, eps1, k, unit_tail, 0, 0)
        assert got == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        snr=st.floats(0.0, 50.0),
        ex2=st.floats(0.0, 10.0),
        k=st.floats(1e-6, 25.0),
        x0=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_phi_term_dominates_any_noise_density_sup(self, snr, ex2, k, x0):
        # psi = max(log(sup f + eps0), log(phi/(1 - eps0 phi))), and Gaussian
        # noise caps sup f at 1/sqrt(2 pi): the phi term is always the max,
        # so Theorem 3 needs no sup f.
        phi = float(TailModel(snr * ex2, snr * ex2).phi(k))
        eps0 = x0 / phi
        assume(eps0 * phi < 1.0)
        assert math.log(phi / (1.0 - eps0 * phi)) > 0.0 > math.log(
            1.0 / _SQRT_2PI + eps0
        )

    def test_sharper_than_plugin_bound_at_wide_truncation(self, unit_tail):
        # psi grows like log(phi) while the plug-in bound carries phi itself.
        eps0, eps1, k = 1e-9, 1e-9, 4.0
        sharp = modified_error_bound(eps0, eps1, k, unit_tail, 1, 1)
        blunt = bhattacharya_error_bound(eps0, eps1, k, unit_tail)
        assert sharp < blunt


class TestClippedErrorBound:
    def test_zero_errors(self, unit_tail):
        assert clipped_error_bound(0.0, 0.0, 5.0, unit_tail) == pytest.approx(
            float(unit_tail.c_tail(5.0))
        )

    def test_envelope_integrals_match_closed_forms(self, unit_tail):
        rho_bar = lemma_clip_envelope(1.0)
        for k in (1.0, 2.5, 5.0):
            phi1, phi2 = unit_tail.rho_bar_integrals(k)
            want1, want2 = _simpson_envelope_integrals(rho_bar, k)
            assert phi1 == pytest.approx(want1, abs=1e-8)
            assert phi2 == pytest.approx(want2, abs=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(
        snr=st.floats(0.0, 10.0),
        variance=st.floats(0.0, 4.0),
        k=st.floats(0.1, 12.0),
    )
    def test_envelope_integrals_match_simpson(self, snr, variance, k):
        tail = TailModel(snr * variance, snr * variance)
        got = tail.rho_bar_integrals(k)
        want = _simpson_envelope_integrals(lemma_clip_envelope(snr * variance), k)
        assert got == pytest.approx(want, rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        snr=st.floats(0.0, 1e3),
        variance=st.floats(0.0, 1e3),
        k=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=5),
    )
    def test_rho_max_is_the_estimator_envelope(self, snr, variance, k):
        # Theorem 4 integrates the envelope the clipped estimator caps at.
        tail = TailModel(snr * variance, snr * variance)
        rho_bar = lemma_clip_envelope(snr * variance)
        assert np.array_equal(tail.rho_max(np.array(k)), rho_bar(np.array(k)))
        assert float(tail.rho_max(k[0])).hex() == float(rho_bar(k[0])).hex()

    def test_non_finite_envelope_rejected(self, monkeypatch):
        # The channel's score integrals stay finite, so only the envelope
        # integrals' check can raise.
        tail = TailModel.for_channel(gaussian_channel(1.0))
        monkeypatch.setattr(
            TailModel, "rho_bar_integrals", lambda self, k: (np.inf, np.nan)
        )
        with pytest.raises(ValueError, match="finite"):
            clipped_error_bound(1e-3, 1e-3, 2.0, tail)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0, max_value=0.1),
        st.floats(min_value=0, max_value=0.1),
        st.floats(min_value=0, max_value=0.05),
    )
    def test_monotone_in_eps1(self, e0, e1, d1):
        tail = TailModel(1.0, 1.0, 1.0)
        assert clipped_error_bound(e0, e1 + d1, 3.0, tail) >= clipped_error_bound(
            e0, e1, 3.0, tail
        )

    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(min_value=1e-6, max_value=0.1),
        st.floats(min_value=1e-6, max_value=0.1),
        st.floats(min_value=1.0, max_value=6.0),
    )
    def test_two_sided_form_dominated_by_summed_form(self, e0, e1, k):
        # The max form on the true-score integrals of a built-in channel
        # never exceeds the summed form on the envelope integrals.
        tail = TailModel(1.0, 1.0, 1.0)
        sharp = clipped_error_bound(
            e0, e1, k, TailModel.for_channel(gaussian_channel(1.0))
        )
        blunt = clipped_error_bound(e0, e1, k, tail)
        assert sharp <= blunt + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        snr=st.floats(0.0, 10.0),
        variance=st.floats(0.0, 4.0),
        alpha=st.one_of(st.none(), st.floats(0.1, 3.0)),
        e0=st.floats(0.0, 0.1),
        e1=st.floats(0.0, 0.1),
        k=st.floats(0.1, 12.0),
    )
    def test_envelope_only_tail_gives_summed_form(self, snr, variance, alpha, e0, e1, k):
        # With the envelope integrals standing in for the score integrals the
        # max form is the summed form, bit for bit.
        s_alpha2 = None if alpha is None else alpha**2 * snr
        tail = TailModel(snr * variance, snr * variance, s_alpha2)
        want = _clipped_summed(e0, e1, *tail.rho_bar_integrals(k), tail.c_tail(k))
        assert clipped_error_bound(e0, e1, k, tail) == want

    @settings(max_examples=20, deadline=None)
    @given(
        snr=st.floats(0.1, 5.0),
        e0=st.floats(0.0, 0.1),
        e1=st.floats(0.0, 0.1),
        k=st.floats(0.5, 8.0),
    )
    def test_binary_channel_score_integrals_never_loosen(self, snr, e0, e1, k):
        model = binary_channel(snr)
        envelope = TailModel(
            snr * model.variance, snr * model.second_moment, model.alpha**2 * snr
        )
        sharp = clipped_error_bound(e0, e1, k, TailModel.for_channel(model))
        assert sharp <= clipped_error_bound(e0, e1, k, envelope)

    def test_score_integrals_against_adaptive_quadrature(self):
        for model in (gaussian_channel(1.0), binary_channel(1.0)):
            for k in (0.8, 2.5, 4.0, 8.0):
                phi1, phi2 = channel_score_integrals(model, k)
                # |score| has a kink at 0, where quad is told to split.
                q1, _ = quad(lambda t: abs(true_score(model, t)), -k, k, points=[0.0])
                q2, _ = quad(lambda t: true_score(model, t) ** 2, -k, k)
                assert phi1 == pytest.approx(q1, abs=1e-8), (model, k)
                assert phi2 == pytest.approx(q2, abs=1e-8), (model, k)

    def test_score_integrals_far_tail(self):
        # f_Y and f_Y' both underflow to 0 at |t| = 60; the score does not.
        phi1, phi2 = channel_score_integrals(gaussian_channel(1.0), 60.0)
        assert phi1 == pytest.approx(60.0**2 / 2.0, rel=1e-12)
        assert phi2 == pytest.approx(2.0 * 60.0**3 / (3.0 * 2.0**2), rel=1e-12)
        model = binary_channel(3.0)
        phi1, phi2 = channel_score_integrals(model, 60.0)
        # |score| has kinks at 0 and at the roots of t = m tanh(m t).
        m = math.sqrt(3.0)
        root = m
        for _ in range(50):
            root -= (m * math.tanh(m * root) - root) / (
                m * m / math.cosh(m * root) ** 2 - 1.0
            )
        points = [-root, 0.0, root]
        q1, _ = quad(lambda t: abs(true_score(model, t)), -60, 60, points=points)
        q2, _ = quad(lambda t: true_score(model, t) ** 2, -60, 60, points=points)
        assert phi1 == pytest.approx(q1, rel=1e-5)
        assert phi2 == pytest.approx(q2, rel=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(
        factory=st.sampled_from([gaussian_channel, binary_channel]),
        snr=st.floats(0.0, 10.0),
        k=st.lists(st.floats(0.1, 12.0), min_size=1, max_size=8),
    )
    def test_score_integrals_batched_equals_per_k(self, factory, snr, k):
        # One call on a k array gives each k's scalar call bit for bit.
        model = factory(snr)
        phi1, phi2 = channel_score_integrals(model, np.array(k))
        assert phi1.shape == phi2.shape == (len(k),)
        for i, x in enumerate(k):
            assert (phi1[i], phi2[i]) == channel_score_integrals(model, x)
        tail = TailModel.for_channel(model)
        assert np.array_equal(tail.score_integrals(np.array(k))[1], phi2)


class TestTruncationRange:
    @pytest.mark.parametrize("k_n", [math.nan, math.inf, 0.0, -1.0])
    def test_evaluators_reject_k_n(self, unit_tail, k_n):
        with pytest.raises(ValueError, match="k_n must be finite and positive"):
            bhattacharya_error_bound(1e-6, 1e-6, k_n, unit_tail)
        with pytest.raises(ValueError, match="k_n must be finite and positive"):
            modified_error_bound(1e-6, 1e-6, k_n, unit_tail, 0, 0)
        with pytest.raises(ValueError, match="k_n must be finite and positive"):
            clipped_error_bound(1e-3, 1e-3, np.array([2.0, k_n]), unit_tail)

    def test_huge_k_n_without_overflow(self, unit_tail):
        # phi caps |t| before squaring, and the envelope integrals that
        # overflow are reported as non-finite; warnings fail this suite.
        assert unit_tail.phi(1e200) == math.inf
        assert np.array_equal(unit_tail.phi(np.array([-1e200, 1e300])), [math.inf] * 2)
        with pytest.raises(HypothesisViolationError, match="overflows"):
            bhattacharya_error_bound(1e-6, 1e-6, 1e200, unit_tail)
        for k_n in (1e200, np.array([3.0, 1e200])):
            with pytest.raises(ValueError, match="must be finite on"):
                clipped_error_bound(1e-3, 1e-3, k_n, unit_tail)


class TestPrecisionSchedules:
    def test_plugin_range_validation(self, unit_tail):
        for n, u, w in ((1e6, 0.05, 1.0 / 6.0), (1e6, 0.2, 0.15), (1.0, 0.05, 0.15)):
            with pytest.raises(HypothesisViolationError):
                bhattacharya_error_bound(*bhattacharya_schedule(n, u, w), unit_tail)

    def test_plugin_decreasing_over_wide_scan(self, unit_tail):
        # eps0 phi(k_n) = sqrt(2 pi) e n^(u-w) < 1 from n ~ 2.2e8 on.
        n = np.logspace(9, 30, 400)
        point = bhattacharya_schedule(n, 0.05, 0.15)
        eps = bhattacharya_error_bound(*point, unit_tail)
        assert np.all(np.diff(eps) < 0)

    def test_plugin_raises_below_theorem_2_hypothesis(self, unit_tail):
        for n in (1e6, 1e8, np.array([1e8, 1e9])):
            point = bhattacharya_schedule(n, 0.05, 0.15)
            with pytest.raises(HypothesisViolationError, match="phi"):
                bhattacharya_error_bound(*point, unit_tail)
        bhattacharya_error_bound(*bhattacharya_schedule(1e9, 0.05, 0.15), unit_tail)

    def test_plugin_vanishes_in_the_limit(self, unit_tail):
        # Every term vanishes as n grows. At n = 1e300 the schedule's eps
        # terms are below 1e-28, so the Lemma 2 tail at k_n is all that is
        # left.
        at_20, at_300 = (
            bhattacharya_error_bound(*bhattacharya_schedule(n, 0.05, 0.15), unit_tail)
            for n in (1e20, 1e300)
        )
        assert at_300 < at_20
        k = math.sqrt(0.05 * math.log(1e300))
        assert at_300 == pytest.approx(lemma2_tail(k, 1.0, 1.0), rel=1e-12)

    def test_plugin_sub_gaussian_variant(self, unit_tail):
        # A sub-Gaussian proxy adds Lemma 2's Chernoff branch to c(k_n); it
        # wins once k_n is large.
        plain = TailModel(1.0, 1.0)
        for n in (1e20, 1e100, 1e300):
            point = bhattacharya_schedule(n, 0.05, 0.15)
            sub = bhattacharya_error_bound(*point, unit_tail)
            assert sub <= bhattacharya_error_bound(*point, plain)
        assert sub < bhattacharya_error_bound(*point, plain) / 1e4

    def test_clipped_range_validation(self, unit_tail):
        with pytest.raises(HypothesisViolationError):
            clipped_error_bound(*clipped_schedule(1e6, 0.05, 0.25, 0.1), unit_tail)
        with pytest.raises(HypothesisViolationError):
            clipped_error_bound(*clipped_schedule(1e6, 0.1, 0.2, 0.1), unit_tail)

    def test_clipped_small_u_limit_substitution(self, unit_tail):
        # As u -> 0, k_n = n^u -> 1: the Theorem 4 bound at k_n = 1.
        n, w0, w1 = 1e10, 0.2, 0.12
        limit = clipped_error_bound(n**-w0, n**-w1, 1.0, unit_tail)
        point = clipped_schedule(n, 1e-9, w0, w1)
        assert clipped_error_bound(*point, unit_tail) == pytest.approx(limit, rel=1e-6)

    def test_clipped_polynomial_decay_slope(self, unit_tail):
        # With a sub-Gaussian proxy c(k_n) falls faster than any power of n,
        # and 4 eps1 Phi1 ~ 12 n^(2u - w1) leads 2 eps0 Phi2 ~ 12 n^(3u - w0).
        u, w0, w1 = 0.02, 0.2, 0.12
        n1, n2 = 1e80, 1e100
        e1 = clipped_error_bound(*clipped_schedule(n1, u, w0, w1), unit_tail)
        e2 = clipped_error_bound(*clipped_schedule(n2, u, w0, w1), unit_tail)
        slope = (math.log10(e2) - math.log10(e1)) / 20.0
        expected = -min(w0 - 3 * u, w1 - 2 * u)
        assert slope == pytest.approx(expected, abs=0.02)

    def test_clipped_beats_plugin_at_matched_confidence(self, unit_tail):
        # Compare the best achievable precision of each schedule at
        # n = 10^15, over the (u, w) where Theorem 2 applies; the clipped
        # schedule wins, and at these n the confidence terms are all
        # indistinguishable from zero.
        n = 1e15

        def plugin(u, w):
            try:
                point = bhattacharya_schedule(n, u, w)
                return bhattacharya_error_bound(*point, unit_tail)
            except HypothesisViolationError:
                return math.inf

        plug = min(
            plugin(u, w)
            for w in np.linspace(0.02, 0.166, 30)
            for u in np.linspace(1e-3, w - 1e-3, 30)
        )
        clip = min(
            clipped_error_bound(*clipped_schedule(n, u, w0, w1), unit_tail)
            for w0 in np.linspace(0.05, 0.2499, 20)
            for w1 in np.linspace(0.05, 0.166, 20)
            for u in np.linspace(1e-3, min(w0 / 3, w1 / 2) - 1e-3, 10)
        )
        assert math.isfinite(plug)
        assert clip < plug
        conf_plug = confidence_bound(n, 0.15, 0.15)
        conf_clip = confidence_bound(n, 0.2, 0.15)
        assert conf_clip <= conf_plug + 1e-300


class TestSchedulesAreErrorBounds:
    """Theorems 5 and 6 are Theorems 2 and 4 at the schedule point, composed
    as `fisherinfo bounds` does: bound(*schedule(n, ...), tail)."""

    # numpy's array and scalar pow may differ in the last bit, so an array
    # of n and its scalar calls agree to rounding only.
    @settings(max_examples=60, deadline=None)
    @given(
        log10_n=st.lists(st.floats(9.0, 300.0), min_size=1, max_size=5),
        w=st.floats(0.06, 0.16),
        u_frac=st.floats(0.01, 0.5),
        s_alpha2=st.sampled_from([None, 1.0]),
    )
    def test_plugin_schedule_is_theorem_2(self, log10_n, w, u_frac, s_alpha2):
        tail = TailModel(1.0, 1.0, s_alpha2)
        u = u_frac * w
        n = 10.0 ** np.array(log10_n)
        eps0, eps1, k = bhattacharya_schedule(n, u, w)
        if np.any(eps0 * tail.phi(k) >= 1.0):
            with pytest.raises(HypothesisViolationError):
                bhattacharya_error_bound(eps0, eps1, k, tail)
            return
        got = bhattacharya_error_bound(eps0, eps1, k, tail)
        assert got.shape == n.shape
        for x, value in zip(n, got):
            scalar = bhattacharya_error_bound(*bhattacharya_schedule(x, u, w), tail)
            assert scalar == pytest.approx(value, rel=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(
        log10_n=st.lists(st.floats(1.0, 60.0), min_size=1, max_size=5),
        w0=st.floats(0.05, 0.24),
        w1=st.floats(0.05, 0.16),
        u_frac=st.floats(0.01, 0.99),
        s_alpha2=st.sampled_from([None, 1.0]),
    )
    def test_clipped_schedule_is_theorem_4(self, log10_n, w0, w1, u_frac, s_alpha2):
        tail = TailModel(1.0, 1.0, s_alpha2)
        u = u_frac * min(w0 / 3.0, w1 / 2.0)
        n = 10.0 ** np.array(log10_n)
        got = clipped_error_bound(*clipped_schedule(n, u, w0, w1), tail)
        assert got.shape == n.shape
        for x, value in zip(n, got):
            scalar = clipped_error_bound(*clipped_schedule(x, u, w0, w1), tail)
            assert scalar == pytest.approx(value, rel=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(log10_n=st.floats(0.5, 20.0), w=st.floats(0.02, 0.16), u_frac=st.floats(0.01, 0.99))
    def test_plugin_raises_exactly_outside_the_hypothesis(self, log10_n, w, u_frac):
        tail = TailModel(1.0, 1.0, 1.0)
        u = u_frac * w
        eps0, eps1, k = bhattacharya_schedule(10.0**log10_n, u, w)
        if eps0 * float(tail.phi(k)) >= 1.0:
            with pytest.raises(HypothesisViolationError):
                bhattacharya_error_bound(eps0, eps1, k, tail)
        else:
            assert bhattacharya_error_bound(eps0, eps1, k, tail) > 0

    @settings(max_examples=40, deadline=None)
    @given(log10_n=st.floats(0.5, 300.0), w=st.floats(0.02, 0.16),
           w0=st.floats(0.02, 0.24), u_frac=st.floats(0.01, 0.99))
    def test_schedule_points(self, log10_n, w, w0, u_frac):
        n = 10.0**log10_n
        eps0, eps1, k = bhattacharya_schedule(n, u_frac * w, w)
        assert eps0 == eps1 == pytest.approx(n**-w, rel=1e-12)
        assert k == pytest.approx(math.sqrt(u_frac * w * math.log(n)), rel=1e-12)
        u = u_frac * min(w0 / 3.0, w / 2.0)
        point = clipped_schedule(n, u, w0, w)
        assert point == pytest.approx((n**-w0, n**-w, n**u), rel=1e-12)

    def test_corrected_schedule_values(self):
        # The closed forms these replace printed 1.42558 and 25.333.
        assert bhattacharya_error_bound(
            *bhattacharya_schedule(1e20, 0.05, 0.15), TailModel(1.0, 1.0, 1.0)
        ) == pytest.approx(1.39596, abs=1e-5)
        assert clipped_error_bound(
            *clipped_schedule(1e6, 0.05, 0.2, 0.15), TailModel(4.0, 4.0)
        ) == pytest.approx(36.947, abs=1e-3)


class TestConfidenceBound:
    def test_boundary_rejected(self):
        with pytest.raises(HypothesisViolationError):
            confidence_bound(1e6, 1.0 / 6.0, 1.0 / 6.0)

    def test_clipped_rate_ranges(self):
        # w0 < 1/4 and w1 < 1/6, each checked on its own.
        assert math.isfinite(confidence_bound(1e6, 0.24, 0.1))
        for w0, w1 in ((0.25, 0.1), (0.2, 1.0 / 6.0), (0.0, 0.1), (0.2, None)):
            with pytest.raises(HypothesisViolationError):
                confidence_bound(1e20, w0, w1)

    def test_decreasing_in_n(self):
        n = np.logspace(1, 5, 50)
        p = confidence_bound(n, 0.1, 0.1)
        assert np.all(np.diff(p) < 0)

    @pytest.mark.parametrize("n", [1e4, 1e8, 1e20])
    def test_backed_by_kernel_tails(self, n):
        # With a_r = eps_r = n^-w_r the schedule's failure probability is the
        # sum of the two sup-deviation tails (1e-9: rounding of the exponents).
        def tails(w0, w1):
            a0, a1 = n**-w0, n**-w1
            return sup_deviation_tail(0, n, a0, a0) + sup_deviation_tail(1, n, a1, a1)

        for w in (0.05, 0.1, 0.12, 0.15):
            p = confidence_bound(n, w, w)
            assert tails(w, w) <= p * (1 + 1e-9), w
        for w0, w1 in ((0.2, 0.1), (0.2, 0.15), (0.24, 0.05)):
            p = confidence_bound(n, w0, w1)
            assert tails(w0, w1) <= p * (1 + 1e-9), (w0, w1)

    @settings(max_examples=100, deadline=None)
    @given(
        r=st.integers(0, 1),
        points=st.lists(
            st.tuples(st.floats(1.0, 1e12), st.floats(1e-6, 1.0), st.floats(1e-9, 1.0)),
            min_size=1, max_size=8,
        ),
        w0=st.floats(0.01, 0.24),
        w1=st.floats(0.01, 0.16),
    )
    def test_one_tail_formula(self, r, points, w0, w1):
        # sup_deviation_tail on arrays is its scalar calls, bit for bit, on
        # any broadcast; and confidence_bound is the sum of the two tails at
        # the schedule point, for scalar and array n alike.
        n, a, excess = (np.array(v) for v in zip(*points))
        eps = a * _BIAS_SLOPE[r] + excess
        grid = sup_deviation_tail(r, n[:, None], a, eps)
        assert grid.shape == (n.size, a.size)
        for i, j in np.ndindex(grid.shape):
            assert grid[i, j] == sup_deviation_tail(r, n[i], a[j], eps[j])
        n = np.maximum(n, 2.0)
        u = min(w0 / 3.0, w1 / 2.0) / 2.0
        for x in n:
            eps0, eps1, _ = clipped_schedule(x, u, w0, w1)
            p = sup_deviation_tail(0, x, eps0, eps0) + sup_deviation_tail(
                1, x, eps1, eps1
            )
            assert confidence_bound(x, w0, w1) == p
        assert confidence_bound(n, w0, w1).tolist() == [
            confidence_bound(x, w0, w1) for x in n
        ]

    def test_constructed_failure_probability(self):
        # Making both exponents equal ln 20 simultaneously would need
        # n < 1 here (the two rate constants differ), so instead solve
        # p(n) = 0.2 for n at fixed w and verify the solution by
        # substitution: the construction is exact by bisection.
        w = 0.1
        lo, hi = 1.0, 1e8
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            p = confidence_bound(mid, w, w)
            if p > 0.2:
                lo = mid
            else:
                hi = mid
        n = math.sqrt(lo * hi)
        p = confidence_bound(n, w, w)
        assert p == pytest.approx(0.2, abs=1e-9)


class TestZeroCounting:
    def test_validation(self, unit_tail):
        # A negative count would shrink the log-envelope bound.
        for d_f, d_fn in ((-3, 0), (0, -1)):
            with pytest.raises(ValueError, match="nonnegative"):
                modified_error_bound(1e-4, 1e-4, 2.0, unit_tail, d_f, d_fn)


class TestSampleComplexity:
    def test_argument_validation(self):
        model = gaussian_channel(1.0)
        with pytest.raises(ValueError):
            sample_complexity(0.0, 0.2, EstimatorKind.BHATTACHARYA, model)
        with pytest.raises(ValueError):
            sample_complexity(0.5, 1.0, EstimatorKind.BHATTACHARYA, model)

    def test_phi_overflow_is_infeasible_without_warnings(self):
        # snr E[X^2] = 700: phi(k) overflows from k ~ 3.1 on.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InfeasibleTargetError) as exc:
                sample_complexity(
                    0.5, 0.2, EstimatorKind.BHATTACHARYA, gaussian_channel(700.0)
                )
        assert exc.value.best_precision == 7.714285673797628e290

    def test_infeasible_target_reports_best(self):
        model = gaussian_channel(1.0)
        with pytest.raises(InfeasibleTargetError) as exc:
            sample_complexity(1e-12, 0.2, EstimatorKind.CLIPPED, model)
        assert exc.value.best_precision is not None
        assert exc.value.best_precision > 1e-12
        # The message says how close the search got.
        assert str(exc.value).endswith(
            f"the smallest precision bound on the search grid is "
            f"{exc.value.best_precision:.6g}"
        )

    def test_deterministic(self):
        model = gaussian_channel(1.0)
        a = sample_complexity(0.5, 0.2, EstimatorKind.CLIPPED, model)
        b = sample_complexity(0.5, 0.2, EstimatorKind.CLIPPED, model)
        assert a == b

    def test_result_parameters_are_consistent(self):
        # The kernel tails at the returned parameters meet the target at the
        # returned sample size.
        model = gaussian_channel(1.0)
        res = sample_complexity(0.5, 0.2, EstimatorKind.CLIPPED, model)
        assert _certified_tails(res) <= 0.2

    def test_certified_tails_meet_perr_exactly(self):
        # Here the search's two tails sum to exactly 0.2, so a second
        # formula for the tail that rounds otherwise (math.exp gives
        # 0.20000000000000004) would read the certified n as infeasible.
        model = gaussian_channel(3.0)
        res = sample_complexity(0.3, 0.2, EstimatorKind.BHATTACHARYA, model)
        assert _certified_tails(res) <= 0.2

    def test_easier_targets_need_fewer_samples(self):
        model = gaussian_channel(1.0)
        hard = sample_complexity(0.3, 0.2, EstimatorKind.CLIPPED, model)
        easy = sample_complexity(0.7, 0.2, EstimatorKind.CLIPPED, model)
        assert easy.log10_n < hard.log10_n

    @settings(max_examples=300, deadline=None)
    @given(
        rate0=st.floats(1e-30, 1.0),
        rate1=st.floats(1e-30, 1.0),
        perr=st.floats(1e-6, 0.99, exclude_min=True, exclude_max=True),
    )
    # The Newton root and the point one ulp above it both round to a
    # confidence above p; two ulps above it is feasible.
    @example(
        rate0=0.12127559375236888,
        rate1=0.052845419339232716,
        perr=0.8959276218892389,
    )
    def test_n_solve_is_feasible_and_tight(self, rate0, rate1, perr):
        # 2 e^(-m n) <= 2 e^(-A0 n) + 2 e^(-A1 n) <= 4 e^(-m n), m = min(A0, A1),
        # so the root lies in [ln(2/p)/m, ln(4/p)/m], clamped to [10, 1e40].
        r0, r1 = np.array([rate0]), np.array([rate1])
        got = _solve_log10_n(r0, r1, perr)

        def confidence(n):
            # As the search computes it: feasibility is exact, not approximate.
            return (2.0 * np.exp(-r0 * n) + 2.0 * np.exp(-r1 * n))[0]

        m = min(rate0, rate1)
        lower = min(max(math.log10(math.log(2.0 / perr) / m), 1.0), 40.0)
        upper = min(max(math.log10(math.log(4.0 / perr) / m), 1.0), 40.0)
        assert lower - 1e-12 <= got[0] <= upper + 1e-12
        n = 10.0**got
        assert confidence(n) <= perr
        if got[0] > 1.0:  # not clamped to the smallest n searched
            assert confidence(n * (1.0 - 1e-9)) > perr

    @settings(max_examples=200, deadline=None)
    @given(
        rates=st.lists(st.tuples(st.floats(1e-30, 1.0), st.floats(1e-30, 1.0)),
                       min_size=1, max_size=8),
        perr=st.floats(1e-6, 0.99, exclude_min=True, exclude_max=True),
    )
    # Checked at numpy's n alone, this cell certified a log10 n an ulp too
    # small for Python's n.
    @example(
        rates=[(0.016430536750020736, 2.8666648999623186e-10)],
        perr=0.053247029169979435,
    )
    def test_n_solve_holds_at_n_as_python_computes_it(self, rates, perr):
        # Callers read n as 10**log10_n in Python, which can differ from
        # numpy's array power by an ulp: the certificate must hold there too.
        r0, r1 = (np.array(r) for r in zip(*rates))
        l10 = _solve_log10_n(r0, r1, perr)
        finite = np.isfinite(l10)
        n = np.array([10 ** float(l) for l in l10[finite]])
        assert np.all(_tail(n, r0[finite]) + _tail(n, r1[finite]) <= perr)

    # log10 n per (eps, p_err) cell of the 9+9-cell table on
    # gaussian_channel(1.0): (eps, p_err, plug-in, clipped). The (0.5, 0.2)
    # cell lies on both sweeps and is listed once. RECORDED_TABLE is the
    # boundary search's answer; GRID_SEARCH_TABLE is the earlier 3-D grid
    # search over (k_n, eps0, eps1), which the boundary search must not lose
    # to.
    RECORDED_TABLE = [
        (0.1, 0.2, 29.940046051698335, 19.973355451205276),
        (0.2, 0.2, 25.934096408695645, 17.805859271719875),
        (0.3, 0.2, 23.620791150883303, 16.491618250368493),
        (0.4, 0.2, 21.996039754564315, 15.527679804851168),
        (0.5, 0.2, 20.744380991516483, 14.755973718306809),
        (0.6, 0.2, 19.72542023910187, 14.100216498459218),
        (0.7, 0.2, 18.864497406946032, 13.52859467916398),
        (0.8, 0.2, 18.117166339125152, 13.009220682294863),
        (0.9, 0.2, 17.45474781359121, 12.529865886608047),
        (0.5, 0.1, 20.835144733120813, 14.860624207297086),
        (0.5, 0.3, 20.680874154264966, 14.680008517177237),
        (0.5, 0.4, 20.629387596066, 14.61627898337431),
        (0.5, 0.5, 20.584735032003998, 14.556725944874934),
        (0.5, 0.6, 20.544458499304355, 14.502255033533453),
        (0.5, 0.7, 20.507173132435938, 14.450724868258321),
        (0.5, 0.8, 20.472002932935617, 14.400046672063649),
        (0.5, 0.9, 20.438328422081735, 14.349275358624839),
    ]
    GRID_SEARCH_TABLE = [
        (0.1, 0.2, 30.02966632752025, 20.02408020632855),
        (0.2, 0.2, 25.969161221337593, 17.80677190169347),
        (0.3, 0.2, 23.621263659856865, 16.530804968388605),
        (0.4, 0.2, 21.99653118773541, 15.528760427080002),
        (0.5, 0.2, 20.748804186405266, 14.76701943590257),
        (0.6, 0.2, 19.727595838721005, 14.109824419866952),
        (0.7, 0.2, 18.869504638937237, 13.621894811061258),
        (0.8, 0.2, 18.11860780079167, 13.009366279326098),
        (0.9, 0.2, 17.457958410371052, 12.530906950614778),
        (0.5, 0.1, 20.835875854219935, 14.88062691266283),
        (0.5, 0.3, 20.685536777060126, 14.684581611006756),
        (0.5, 0.4, 20.63433055113194, 14.69682495622866),
        (0.5, 0.5, 20.59000156189417, 14.6320062170141),
        (0.5, 0.6, 20.55010060096525, 14.570767724273495),
        (0.5, 0.7, 20.51325407100849, 14.511268636814007),
        (0.5, 0.8, 20.478602635146686, 14.45219577964269),
        (0.5, 0.9, 20.439582570803726, 14.392482520699183),
    ]

    @pytest.mark.parametrize("factory", [gaussian_channel, binary_channel])
    def test_certified_point_meets_printed_bound(self, factory):
        # The search evaluates the Theorem 2 and 4 formulas of the public
        # evaluators and the tail of sup_deviation_tail, so its optimum meets
        # the printed bound and the target confidence with no slack.
        model = factory(1.0)
        tail = TailModel.for_channel(model)
        for eps, perr, _, _ in self.RECORDED_TABLE:
            r = sample_complexity(eps, perr, EstimatorKind.BHATTACHARYA, model)
            assert bhattacharya_error_bound(r.eps0, r.eps1, r.k_n, tail) <= eps
            assert _certified_tails(r) <= perr, (eps, perr)
            r = sample_complexity(eps, perr, EstimatorKind.CLIPPED, model)
            bound = clipped_error_bound(r.eps0, r.eps1, r.k_n, tail)
            assert bound <= eps, (eps, perr)
            assert _certified_tails(r) <= perr, (eps, perr)

    def test_table_matches_recorded_values(self):
        model = gaussian_channel(1.0)
        for eps, perr, plug, clip in self.RECORDED_TABLE:
            for kind, want in ((EstimatorKind.BHATTACHARYA, plug),
                               (EstimatorKind.CLIPPED, clip)):
                got = sample_complexity(eps, perr, kind, model).log10_n
                assert got == pytest.approx(want, rel=1e-12), (eps, perr, kind)

    def test_table_no_worse_than_grid_search(self):
        model = gaussian_channel(1.0)
        for eps, perr, plug, clip in self.GRID_SEARCH_TABLE:
            for kind, bound in ((EstimatorKind.BHATTACHARYA, plug),
                                (EstimatorKind.CLIPPED, clip)):
                got = sample_complexity(eps, perr, kind, model).log10_n
                assert got <= bound + 1e-12, (eps, perr, kind)

    @pytest.mark.parametrize("factory", [gaussian_channel, binary_channel])
    def test_sweeps_strictly_decreasing(self, factory):
        # A looser precision or confidence target never needs more samples.
        model = factory(1.0)
        steps = [round(0.1 * i, 1) for i in range(1, 10)]
        for kind in (EstimatorKind.BHATTACHARYA, EstimatorKind.CLIPPED):
            by_eps = [sample_complexity(e, 0.2, kind, model).log10_n for e in steps]
            by_perr = [sample_complexity(0.5, p, kind, model).log10_n for p in steps]
            for sweep in (by_eps, by_perr):
                assert all(b < a for a, b in zip(sweep, sweep[1:])), (kind, sweep)

    def test_finer_k_grid_never_worse(self, monkeypatch):
        # The converged search: the nested 2x refinement of the k grid finds
        # nothing the default grid misses.
        model = gaussian_channel(1.0)
        coarse = bounds_mod._K_GRID
        cells = [(eps, perr, kind) for eps, perr, _, _ in self.RECORDED_TABLE
                 for kind in (EstimatorKind.BHATTACHARYA, EstimatorKind.CLIPPED)]
        default = [sample_complexity(*cell, model).log10_n for cell in cells]
        monkeypatch.setattr(
            bounds_mod, "_K_GRID", np.linspace(coarse[0], coarse[-1], 2 * coarse.size - 1)
        )
        for cell, want in zip(cells, default):
            assert sample_complexity(*cell, model).log10_n <= want + 1e-12, cell
