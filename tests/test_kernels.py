"""Tests for kernel density estimation and the concentration machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fisherinfo import (
    SampleSet,
    dkw_tail,
    empirical_cdf,
    gaussian_channel,
    integrate,
    kde_at,
    kde_deriv_at,
    kde_profile,
    sample_channel,
    true_density,
)
from fisherinfo.errors import HypothesisViolationError
from fisherinfo.kernels import (
    _BIAS_SLOPE,
    _TOTAL_VARIATION,
    deviation_rate,
    rate_optimal_bandwidth,
    sup_deviation_tail,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)

finite_samples = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    min_size=1,
    max_size=30,
)


class TestKernelConstants:
    def test_total_variations_match_quadrature(self):
        # v_r is the integral of |K^(r+1)|; compute both independently.
        k = lambda t: math.exp(-0.5 * t * t) / _SQRT_2PI
        v0, _ = quad(lambda t: abs(-t * k(t)), -12, 12)
        v1, _ = quad(lambda t: abs((t * t - 1) * k(t)), -12, 12)
        assert _TOTAL_VARIATION[0] == pytest.approx(v0, abs=1e-10)
        assert _TOTAL_VARIATION[1] == pytest.approx(v1, abs=1e-10)

    def test_closed_forms(self):
        assert _TOTAL_VARIATION[0] == pytest.approx(math.sqrt(2 / math.pi))
        assert _TOTAL_VARIATION[1] == pytest.approx(
            2 * math.sqrt(2 / (math.e * math.pi))
        )
        assert _BIAS_SLOPE[0] == pytest.approx(
            1 / math.sqrt(2 * math.pi * math.e)
        )
        assert _BIAS_SLOPE[1] == pytest.approx(
            (2 / math.e + 1) / _SQRT_2PI
        )

    def test_order_validation(self):
        with pytest.raises(ValueError):
            deviation_rate(2, 0.1, 0.1)


class TestKdeAt:
    def test_single_sample_at_center(self):
        assert kde_at(SampleSet([0.0]), 1.0, 0.0) == pytest.approx(
            1 / _SQRT_2PI, abs=1e-6
        )

    def test_duplicates_average_identically(self):
        assert kde_at(SampleSet([0.0, 0.0]), 1.0, 0.0) == pytest.approx(
            1 / _SQRT_2PI, abs=1e-6
        )

    def test_monte_carlo_standard_normal(self):
        rng = np.random.Generator(np.random.Philox(42))
        s = SampleSet(rng.standard_normal(100_000))
        assert kde_at(s, 0.2, 0.0) == pytest.approx(1 / _SQRT_2PI, abs=0.01)

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            kde_at(SampleSet([0.0]), 0.0, 0.0)
        with pytest.raises(ValueError):
            kde_at(SampleSet([0.0]), -1.0, 0.0)

    def test_array_argument(self):
        out = kde_at(SampleSet([0.0]), 1.0, np.array([0.0, 1.0]))
        assert out.shape == (2,)
        assert out[0] > out[1]

    @settings(max_examples=30, deadline=None)
    @given(finite_samples, st.floats(min_value=0.1, max_value=2))
    def test_density_nonnegative_and_normalized(self, values, a):
        s = SampleSet(values)
        lo = min(values) - 10 * a
        hi = max(values) + 10 * a
        mass = integrate(lambda t: kde_at(s, a, t), lo, hi, 2001)
        dens = kde_at(s, a, np.linspace(lo, hi, 64))
        assert np.all(dens >= 0)
        assert mass == pytest.approx(1.0, abs=1e-6)


class TestKdeDerivAt:
    def test_odd_symmetry_at_center(self):
        assert kde_deriv_at(SampleSet([0.0]), 1.0, 0.0) == pytest.approx(0.0)

    def test_single_sample_analytic(self):
        # d/dt K(t) at t = 1 is -K(1).
        expected = -math.exp(-0.5) / _SQRT_2PI
        assert kde_deriv_at(SampleSet([0.0]), 1.0, 1.0) == pytest.approx(
            expected, abs=1e-9
        )
        assert expected == pytest.approx(-0.241971, abs=1e-6)

    def test_central_difference_oracle(self):
        rng = np.random.Generator(np.random.Philox(3))
        s = SampleSet(rng.standard_normal(200))
        h = 1e-5
        for t in rng.uniform(-3, 3, size=100):
            fd = (kde_at(s, 0.5, t + h) - kde_at(s, 0.5, t - h)) / (2 * h)
            assert kde_deriv_at(s, 0.5, t) == pytest.approx(fd, abs=1e-6)

    def test_profile_matches_separate_calls(self):
        rng = np.random.Generator(np.random.Philox(4))
        s = SampleSet(rng.standard_normal(500))
        grid = np.linspace(-3, 3, 41)
        dens, deriv = kde_profile(s, 0.4, 0.7, grid)
        assert np.allclose(dens, kde_at(s, 0.4, grid))
        assert np.allclose(deriv, kde_deriv_at(s, 0.7, grid))


class TestEmpiricalCdf:
    def test_direct_count(self):
        assert empirical_cdf(SampleSet([1.0, 2.0, 3.0]), 2.0) == pytest.approx(2 / 3)

    def test_boundaries(self):
        s = SampleSet([1.0, 2.0, 3.0])
        assert empirical_cdf(s, 0.0) == 0.0
        assert empirical_cdf(s, 3.0) == 1.0
        assert empirical_cdf(s, 99.0) == 1.0

    def test_single_step(self):
        assert empirical_cdf(SampleSet([5.0]), 5.0) == 1.0

    @settings(max_examples=30, deadline=None)
    @given(finite_samples, st.floats(min_value=-12, max_value=12, allow_nan=False))
    def test_range_and_monotonicity(self, values, t):
        s = SampleSet(values)
        v = empirical_cdf(s, t)
        assert 0.0 <= v <= 1.0
        assert empirical_cdf(s, t + 1.0) >= v


class TestDkwTail:
    def test_direct_evaluation(self):
        assert dkw_tail(100, 0.1) == pytest.approx(2 * math.exp(-2), abs=1e-9)

    def test_small_eps_limit(self):
        assert dkw_tail(10, 1e-12) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            dkw_tail(0, 0.1)
        with pytest.raises(ValueError):
            dkw_tail(10, 0.0)

    def test_empirical_violation_rate_below_bound(self):
        # 10^4 resamples of n = 200 uniform draws; the sup-deviation of the
        # empirical CDF from the identity has a closed order-statistics form.
        rng = np.random.Generator(np.random.Philox(7))
        n, resamples, eps = 200, 10_000, 0.1
        u = np.sort(rng.uniform(size=(resamples, n)), axis=1)
        upper = np.arange(1, n + 1) / n
        lower = np.arange(0, n) / n
        sup = np.maximum((upper - u).max(axis=1), (u - lower).max(axis=1))
        rate = float(np.mean(sup > eps))
        bound = dkw_tail(n, eps)
        sigma = math.sqrt(bound * (1 - bound) / resamples)
        assert rate <= bound + 3 * sigma


class TestSupDeviationTail:
    def test_substitution_cancels_n(self):
        # eps = delta + v0/sqrt(2n) makes the exponent n-free: 2 e^(-a^2).
        a, n = 0.1, 5000
        delta = a * _BIAS_SLOPE[0]
        eps = delta + _TOTAL_VARIATION[0] / math.sqrt(2 * n)
        assert sup_deviation_tail(0, n, a, eps) == pytest.approx(
            2 * math.exp(-(a**2)), rel=1e-9
        )

    def test_hypothesis_boundary_rejected(self):
        a = 0.2
        delta = a * _BIAS_SLOPE[1]
        with pytest.raises(HypothesisViolationError):
            sup_deviation_tail(1, 100, a, delta)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=1, max_value=10_000),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.3, max_value=1.0),
    )
    def test_decreasing_in_n(self, r, n, a, eps):
        # eps chosen above the largest possible bias (a <= 1, slopes < 1.2).
        if eps <= a * _BIAS_SLOPE[r]:
            return
        smaller = sup_deviation_tail(r, n + 1, a, eps)
        larger = sup_deviation_tail(r, n, a, eps)
        if larger == 0.0:  # both underflowed; monotonicity is vacuous
            assert smaller == 0.0
        else:
            assert smaller < larger

    def test_in_unit_probability_range_when_loose(self):
        assert 0 < sup_deviation_tail(0, 10, 0.5, 1.0) <= 2.0

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=1),
        st.floats(min_value=1e-9, max_value=1.0),
        st.floats(min_value=1e-3, max_value=0.5),
    )
    def test_optimal_bandwidth_maximizes_rate(self, r, eps, step):
        a = rate_optimal_bandwidth(r, eps)
        best = deviation_rate(r, a, eps)
        for other in (a * (1 - step), a * (1 + step)):
            assert deviation_rate(r, other, eps) <= best * (1 + 1e-12)


class TestBiasBound:
    def test_mean_kde_within_bias_envelope(self):
        # The expected kernel density at bandwidth a deviates from the
        # Gaussian-noise-smoothed truth by at most delta_0 = a * slope.
        channel = gaussian_channel(1.0)
        a, n, resamples = 0.4, 400, 2000
        t_grid = np.array([-2.0, -1.0, -0.3, 0.0, 0.7, 1.5, 2.5])
        estimates = np.empty((resamples, t_grid.size))
        for i in range(resamples):
            s = sample_channel(channel, n, seed=1000 + i)
            estimates[i] = kde_at(s, a, t_grid)
        mean_fn = estimates.mean(axis=0)
        std_err = estimates.std(axis=0) / math.sqrt(resamples)
        bias = np.abs(mean_fn - true_density(channel, t_grid))
        delta0 = a * _BIAS_SLOPE[0]
        assert np.all(bias <= delta0 + 3 * std_err)
