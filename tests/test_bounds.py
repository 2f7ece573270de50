"""Tests for the error bounds, concentration constants, and the
sample-complexity search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fisherinfo import (
    EstimatorConfig,
    EstimatorKind,
    SampleSet,
    bhattacharya,
    binary_channel,
    gaussian_channel,
    lemma_clip_envelope,
    true_score,
)
from fisherinfo import bounds as bounds_mod
from fisherinfo.bounds import (
    GaussianBoundConstants,
    _solve_log10_n,
    bhattacharya_error_bound,
    bhattacharya_precision,
    channel_score_integrals,
    clipped_error_bound,
    clipped_error_bound_two_sided,
    clipped_precision,
    confidence_bound,
    count_derivative_zeros,
    gaussian_tail_model,
    lemma2_tail,
    modified_error_bound,
    sample_complexity,
    tail_model_for_channel,
)
from fisherinfo.errors import HypothesisViolationError, InfeasibleTargetError
from fisherinfo.kernels import sup_deviation_tail
from fisherinfo.quadrature import integrate

_SQRT_2PI = math.sqrt(2 * math.pi)


@pytest.fixture(scope="module")
def unit_tail():
    """Tail model for the Gaussian channel at snr = Var = E[X^2] = alpha = 1."""
    return gaussian_tail_model(1.0, 1.0, 1.0, alpha=1.0, f0=1.0 / _SQRT_2PI)


def _simpson_envelope_integrals(rho_bar, k_n):
    """(int |rho_bar|, int rho_bar^2) over [-k_n, k_n] by Simpson's rule:
    the oracle for TailModel.rho_bar_integrals."""
    phi1 = integrate(lambda t: np.abs(rho_bar(t)), -k_n, k_n, 2001)
    phi2 = integrate(lambda t: rho_bar(t) ** 2, -k_n, k_n, 2001)
    return phi1, phi2


@pytest.fixture(scope="module")
def unit_constants():
    return GaussianBoundConstants(snr=1.0, variance=1.0, second_moment=1.0,
                                  alpha=1.0)


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
    def test_c1_c2_from_first_principles(self, unit_constants):
        # c_r = 2 (1 - delta_r)^2 / V_r^2 with V0^2 = 2/pi, V1^2 = 8/(e pi).
        c1 = math.pi * (1 - 1 / math.sqrt(2 * math.pi * math.e)) ** 2
        c2 = math.e * math.pi * (1 - (2 / math.e + 1) / _SQRT_2PI) ** 2 / 4
        assert unit_constants.c1 == pytest.approx(c1, rel=1e-12)
        assert unit_constants.c2 == pytest.approx(c2, rel=1e-12)
        assert unit_constants.c1 == pytest.approx(1.80519, abs=1e-4)
        assert unit_constants.c2 == pytest.approx(0.20191, abs=1e-4)

    def test_c3_to_c6_defining_expressions(self, unit_constants):
        c = unit_constants
        assert c.c3 == pytest.approx(math.sqrt(3.0), rel=1e-12)
        assert c.c4 == pytest.approx(
            2 * math.sqrt(math.gamma(1.5)) * math.sqrt(2.0) / math.pi**0.25
            / math.sqrt(2.0) * math.sqrt(2.0),
            rel=1e-12,
        )
        assert c.c4 == pytest.approx(2.0, rel=1e-12)
        assert c.c5 == pytest.approx(_SQRT_2PI * math.e, rel=1e-12)
        assert c.c6 == pytest.approx(
            2**1.5 * math.sqrt(math.gamma(1.5)) * math.exp(0.25) / math.pi**0.25,
            rel=1e-12,
        )

    def test_c6_requires_alpha(self):
        c = GaussianBoundConstants(snr=1.0, variance=1.0, second_moment=1.0)
        with pytest.raises(ValueError, match="alpha"):
            c.c6

    def test_moment_validation(self):
        with pytest.raises(ValueError):
            GaussianBoundConstants(snr=1.0, variance=2.0, second_moment=1.0)


class TestLemma1Constants:
    def test_zero_variance_zero_truncation(self):
        env = gaussian_tail_model(1.0, 0.0, 1.0)
        assert env.rho_max(0.0) == 0.0

    def test_phi_at_origin_zero_snr(self):
        env = gaussian_tail_model(0.0, 0.0, 0.0)
        assert float(env.phi(0.0)) == pytest.approx(_SQRT_2PI, abs=1e-4)

    def test_invalid_moments(self):
        with pytest.raises(ValueError):
            gaussian_tail_model(1.0, 2.0, 1.0)


class TestTruncationTail:
    def test_fixed_v_one_branch_dominates_result(self):
        # At v = 1 the second-moment branch reduces to the c4/k form.
        snr, ex2, k = 1.0, 1.0, 3.0
        fixed_v1 = (
            2 * math.sqrt(math.gamma(1.5)) / math.pi**0.25
            * math.sqrt(snr * ex2 + 1) / k
        )
        assert lemma2_tail(k, snr, ex2) <= fixed_v1 + 1e-12

    def test_sub_gaussian_branch_also_dominates(self):
        snr, ex2, alpha, k = 1.0, 1.0, 1.0, 3.0
        fixed_v1_sub = (
            2 * math.sqrt(math.gamma(1.5)) / math.pi**0.25
            * math.sqrt(2 * math.exp((alpha**2 * snr - k**2) / 2))
        )
        out = lemma2_tail(k, snr, ex2, alpha)
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
        assert lemma2_tail(k, snr, ex2, alpha) == pytest.approx(brute, rel=1e-4)

    def test_vanishes_monotonically_for_large_k(self):
        values = [lemma2_tail(k, 1.0, 1.0, 1.0) for k in (4, 6, 8, 12, 16)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-20

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            lemma2_tail(0.0, 1.0, 1.0)

    @pytest.mark.parametrize("alpha", [None, 1.0])
    def test_array_matches_scalar_oracle(self, alpha):
        k = np.linspace(0.5, 16.0, 63)
        got = lemma2_tail(k, 1.0, 1.0, alpha)
        want = [_scalar_lemma2_tail(float(x), 1.0, 1.0, alpha) for x in k]
        assert got.shape == k.shape
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_scalar_in_float_out(self):
        assert type(lemma2_tail(3.0, 1.0, 1.0)) is float
        assert type(lemma2_tail(np.float64(3.0), 1.0, 1.0, 1.0)) is float
        assert lemma2_tail(np.full((2, 3), 3.0), 1.0, 1.0).shape == (2, 3)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_invalid_k_in_array(self, bad):
        with pytest.raises(ValueError, match="positive"):
            lemma2_tail(np.array([1.0, bad, 3.0]), 1.0, 1.0)

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
        assert lemma2_tail(k, snr, model.second_moment, model.alpha) >= mc - 3 * se


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
        ) / (1 - eps0 * phi_k) + lemma2_tail(k, 1.0, 1.0, 1.0)
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
        tail = gaussian_tail_model(1.0, 1.0, 1.0, alpha=1.0)
        base = bhattacharya_error_bound(e0, e1, 2.0, tail)
        assert bhattacharya_error_bound(e0 + d0, e1 + d1, 2.0, tail) >= base

    def test_single_sample_empirical_soundness(self, unit_tail):
        # A single sample at 0 with bandwidth a gives f_n = N(0, a^2)
        # exactly. Take the unknown truth to be N(0, 1) (the snr -> 0
        # channel), measure eps0/eps1 on a fine grid, and check the
        # deterministic bound covers the actual estimation error.
        a, k = 0.99, 1.5
        tail = gaussian_tail_model(1e-12, 0.0, 0.0, alpha=1.0)
        grid = np.linspace(-k, k, 20_001)
        f = np.exp(-0.5 * grid**2) / _SQRT_2PI
        fp = -grid * f
        fn = np.exp(-0.5 * (grid / a) ** 2) / (a * _SQRT_2PI)
        fnp = -(grid / a**2) * fn
        eps0 = float(np.max(np.abs(fn - f)))
        eps1 = float(np.max(np.abs(fnp - fp)))
        config = EstimatorConfig(a0=a, a1=a, k_n=k, grid_points=4001)
        estimate_value = bhattacharya(SampleSet([0.0]), config).value
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
        f0 = unit_tail.f0
        psi = max(math.log(f0), math.log(float(unit_tail.phi(k))))
        expected = 4 * eps1 * psi + float(unit_tail.c_tail(k))
        got = modified_error_bound(0.0, eps1, k, unit_tail, 0, 0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_requires_f0(self):
        tail = gaussian_tail_model(1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="f0"):
            modified_error_bound(0.0, 1e-3, 3.0, tail, 1, 1)

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
        rho_bar = lemma_clip_envelope(1.0, 1.0)
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
        tail = gaussian_tail_model(snr, variance, variance)
        got = tail.rho_bar_integrals(k)
        want = _simpson_envelope_integrals(lemma_clip_envelope(snr, variance), k)
        assert got == pytest.approx(want, rel=1e-9)

    def test_non_finite_envelope_rejected(self, unit_tail):
        import dataclasses

        bad = dataclasses.replace(
            unit_tail, rho_bar_integrals=lambda k: (np.inf, np.nan)
        )
        with pytest.raises(ValueError, match="finite"):
            clipped_error_bound(1e-3, 1e-3, 2.0, bad)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0, max_value=0.1),
        st.floats(min_value=0, max_value=0.1),
        st.floats(min_value=0, max_value=0.05),
    )
    def test_monotone_in_eps1(self, e0, e1, d1):
        tail = gaussian_tail_model(1.0, 1.0, 1.0, alpha=1.0)
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
        tail = gaussian_tail_model(1.0, 1.0, 1.0, alpha=1.0)
        phi1, phi2 = channel_score_integrals(gaussian_channel(1.0), k)
        sharp = clipped_error_bound_two_sided(e0, e1, k, tail, phi1, phi2)
        blunt = clipped_error_bound(e0, e1, k, tail)
        assert sharp <= blunt + 1e-12

    def test_score_integrals_against_adaptive_quadrature(self):
        model = gaussian_channel(1.0)
        phi1, phi2 = channel_score_integrals(model, 4.0)
        q1, _ = quad(lambda t: abs(true_score(model, t)), -4, 4)
        q2, _ = quad(lambda t: true_score(model, t) ** 2, -4, 4)
        assert phi1 == pytest.approx(q1, abs=1e-8)
        assert phi2 == pytest.approx(q2, abs=1e-8)


class TestPrecisionSchedules:
    def test_plugin_range_validation(self, unit_constants):
        with pytest.raises(HypothesisViolationError):
            bhattacharya_precision(1e6, 0.05, 1.0 / 6.0, unit_constants)
        with pytest.raises(HypothesisViolationError):
            bhattacharya_precision(1e6, 0.2, 0.15, unit_constants)
        with pytest.raises(HypothesisViolationError):
            bhattacharya_precision(1.0, 0.05, 0.15, unit_constants)

    def test_plugin_decreasing_over_wide_scan(self, unit_constants):
        n = np.logspace(3, 30, 400)
        eps = bhattacharya_precision(n, 0.05, 0.15, unit_constants)
        assert np.all(np.diff(eps) < 0)

    def test_plugin_vanishes_in_the_limit(self, unit_constants):
        # Every term vanishes as n grows, but the dominant one only like
        # 1/sqrt(u log n), so the approach to zero is extremely slow.
        at_20 = bhattacharya_precision(1e20, 0.05, 0.15, unit_constants)
        at_300 = bhattacharya_precision(1e300, 0.05, 0.15, unit_constants)
        assert at_300 < at_20
        assert at_300 == pytest.approx(
            unit_constants.c4 / math.sqrt(0.05 * math.log(1e300)), rel=0.05
        )

    def test_plugin_sub_gaussian_variant(self, unit_constants):
        plain = bhattacharya_precision(1e20, 0.05, 0.15, unit_constants)
        sub = bhattacharya_precision(
            1e20, 0.05, 0.15, unit_constants, sub_gaussian=True
        )
        assert math.isfinite(sub) and sub > 0
        assert sub != plain

    def test_clipped_range_validation(self, unit_constants):
        with pytest.raises(HypothesisViolationError):
            clipped_precision(1e6, 0.05, 0.25, 0.1, unit_constants)
        with pytest.raises(HypothesisViolationError):
            clipped_precision(1e6, 0.1, 0.2, 0.1, unit_constants)

    def test_clipped_small_u_limit_substitution(self, unit_constants):
        # As u -> 0 the formula approaches 4n^-w0 (c3+6) + 4n^-w1 (2c3+3)
        # plus the c4 term.
        n, w0, w1 = 1e10, 0.2, 0.12
        u = 1e-9
        c3, c4 = unit_constants.c3, unit_constants.c4
        limit = (
            4 * n**-w0 * (c3 + 6) + 4 * n**-w1 * (2 * c3 + 3) + c4 * n**-u
        )
        assert clipped_precision(n, u, w0, w1, unit_constants) == pytest.approx(
            limit, rel=1e-6
        )

    def test_clipped_polynomial_decay_slope(self, unit_constants):
        u, w0, w1 = 0.02, 0.2, 0.12
        n1, n2 = 1e25, 1e30
        e1 = clipped_precision(n1, u, w0, w1, unit_constants)
        e2 = clipped_precision(n2, u, w0, w1, unit_constants)
        slope = (math.log10(e2) - math.log10(e1)) / 5.0
        expected = -min(w0 - 3 * u, w1 - 2 * u, u)
        assert slope == pytest.approx(expected, abs=0.02)

    def test_clipped_beats_plugin_at_matched_confidence(self, unit_constants):
        # Compare the best achievable precision of each schedule at
        # n = 10^15; the clipped schedule wins, and at these n the
        # confidence terms are all indistinguishable from zero.
        n = 1e15
        plug = min(
            bhattacharya_precision(n, u, w, unit_constants)
            for w in np.linspace(0.02, 0.166, 30)
            for u in np.linspace(1e-3, w - 1e-3, 30)
        )
        clip = min(
            clipped_precision(n, u, w0, w1, unit_constants)
            for w0 in np.linspace(0.05, 0.2499, 20)
            for w1 in np.linspace(0.05, 0.166, 20)
            for u in np.linspace(1e-3, min(w0 / 3, w1 / 2) - 1e-3, 10)
        )
        assert clip < plug
        conf_plug = confidence_bound(n, EstimatorKind.BHATTACHARYA, w=0.15)
        conf_clip = confidence_bound(n, EstimatorKind.CLIPPED, w0=0.2, w1=0.15)
        assert conf_clip <= conf_plug + 1e-300


class TestConfidenceBound:
    def test_boundary_rejected(self):
        with pytest.raises(HypothesisViolationError):
            confidence_bound(1e6, EstimatorKind.BHATTACHARYA, w=1.0 / 6.0)

    def test_decreasing_in_n(self):
        n = np.logspace(1, 5, 50)
        p = confidence_bound(n, EstimatorKind.BHATTACHARYA, w=0.1)
        assert np.all(np.diff(p) < 0)

    @pytest.mark.parametrize("n", [1e4, 1e8, 1e20])
    def test_backed_by_kernel_tails(self, n):
        # With a_r = eps_r = n^-w_r the schedule's failure probability is the
        # sum of the two sup-deviation tails (1e-9: rounding of the exponents).
        def tails(w0, w1):
            a0, a1 = n**-w0, n**-w1
            return sup_deviation_tail(0, n, a0, a0) + sup_deviation_tail(1, n, a1, a1)

        for w in (0.05, 0.1, 0.12, 0.15):
            p = confidence_bound(n, EstimatorKind.BHATTACHARYA, w=w)
            assert tails(w, w) <= p * (1 + 1e-9), w
        for w0, w1 in ((0.2, 0.1), (0.2, 0.15), (0.24, 0.05)):
            p = confidence_bound(n, EstimatorKind.CLIPPED, w0=w0, w1=w1)
            assert tails(w0, w1) <= p * (1 + 1e-9), (w0, w1)

    def test_constructed_failure_probability(self):
        # Making both exponents equal ln 20 simultaneously would need
        # n < 1 here (the two rate constants differ), so instead solve
        # p(n) = 0.2 for n at fixed w and verify the solution by
        # substitution: the construction is exact by bisection.
        w = 0.1
        lo, hi = 1.0, 1e8
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            p = confidence_bound(mid, EstimatorKind.BHATTACHARYA, w=w)
            if p > 0.2:
                lo = mid
            else:
                hi = mid
        n = math.sqrt(lo * hi)
        p = confidence_bound(n, EstimatorKind.BHATTACHARYA, w=w)
        assert p == pytest.approx(0.2, abs=1e-9)


class TestZeroCounting:
    def test_standard_normal_derivative(self):
        deriv = lambda t: -t * np.exp(-0.5 * t**2)
        assert count_derivative_zeros(deriv, 3.0) == 1

    def test_bimodal_mixture(self):
        def deriv(t):
            return -(t - 3) * np.exp(-0.5 * (t - 3) ** 2) - (t + 3) * np.exp(
                -0.5 * (t + 3) ** 2
            )

        assert count_derivative_zeros(deriv, 6.0) == 3

    def test_constant_sign(self):
        assert count_derivative_zeros(lambda t: np.ones_like(t) * 2.0, 4.0) == 0

    def test_merging_close_changes(self):
        # sin(40 t) has zeros every ~0.0785; a huge tolerance merges them.
        fn = lambda t: np.sin(40 * t)
        merged = count_derivative_zeros(fn, 1.0, tolerance=10.0)
        assert merged == 1

    def test_scalar_only_callable(self):
        assert count_derivative_zeros(lambda t: float(t), 2.0) == 1

    def test_validation(self, unit_tail):
        with pytest.raises(ValueError):
            count_derivative_zeros(lambda t: t, 1.0, grid_points=2)
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
        with pytest.raises(ValueError):
            sample_complexity(0.5, 0.2, EstimatorKind.MMSE_BHATTACHARYA, model)

    def test_infeasible_target_reports_best(self):
        model = gaussian_channel(1.0)
        with pytest.raises(InfeasibleTargetError) as exc:
            sample_complexity(1e-12, 0.2, EstimatorKind.CLIPPED, model)
        assert exc.value.best_precision is not None
        assert exc.value.best_precision > 1e-12

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
        assert _certified_tails(res) <= 0.2 * (1 + 1e-9)

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
        # evaluators, so its optimum meets them with no slack, and its
        # confidence through the kernel tails.
        model = factory(1.0)
        tail = tail_model_for_channel(model)
        for eps, perr, _, _ in self.RECORDED_TABLE:
            r = sample_complexity(eps, perr, EstimatorKind.BHATTACHARYA, model)
            assert bhattacharya_error_bound(r.eps0, r.eps1, r.k_n, tail) <= eps
            assert _certified_tails(r) <= perr * (1 + 1e-9), (eps, perr)
            r = sample_complexity(eps, perr, EstimatorKind.CLIPPED, model)
            bound = clipped_error_bound_two_sided(
                r.eps0, r.eps1, r.k_n, tail, *channel_score_integrals(model, r.k_n)
            )
            assert bound <= eps, (eps, perr)
            assert _certified_tails(r) <= perr * (1 + 1e-9), (eps, perr)

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
