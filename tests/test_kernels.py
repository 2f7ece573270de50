"""Tests for kernel density estimation and the concentration machinery."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fisherinfo import (
    SampleSet,
    gaussian_channel,
    integrate,
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


def density(s, a, t):
    """f_n at bandwidth a on the points t."""
    return kde_profile(s, a, a, np.atleast_1d(np.asarray(t, dtype=float)))[0]


def deriv(s, a, t):
    """f_n' at bandwidth a on the points t."""
    return kde_profile(s, a, a, np.atleast_1d(np.asarray(t, dtype=float)))[1]


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
        assert density(SampleSet([0.0]), 1.0, 0.0)[0] == pytest.approx(
            1 / _SQRT_2PI, abs=1e-6
        )

    def test_duplicates_average_identically(self):
        assert density(SampleSet([0.0, 0.0]), 1.0, 0.0)[0] == pytest.approx(
            1 / _SQRT_2PI, abs=1e-6
        )

    def test_monte_carlo_standard_normal(self):
        rng = np.random.Generator(np.random.Philox(42))
        s = SampleSet(rng.standard_normal(100_000))
        assert density(s, 0.2, 0.0)[0] == pytest.approx(1 / _SQRT_2PI, abs=0.01)

    def test_bad_bandwidth(self):
        grid = np.array([0.0])
        for a0, a1 in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, math.inf)):
            with pytest.raises(ValueError):
                kde_profile(SampleSet([0.0]), a0, a1, grid)

    def test_array_argument(self):
        dens, deriv_ = kde_profile(SampleSet([0.0]), 1.0, 1.0, np.array([0.0, 1.0]))
        assert dens.shape == deriv_.shape == (2,)
        assert dens[0] > dens[1]

    @pytest.mark.parametrize("grid", [0.5, [[0.0, 1.0, 2.0]]])
    def test_grid_must_be_one_dimensional(self, grid):
        # Unchecked, a (1, 3) grid broadcasts against n = 3 samples into a
        # wrong answer: 0.133 at every point.
        with pytest.raises(ValueError, match="1-D"):
            kde_profile(SampleSet([0.0, 1.0, 2.0]), 1.0, 1.0, grid)

    @settings(max_examples=30, deadline=None)
    @given(finite_samples, st.floats(min_value=0.1, max_value=2))
    def test_density_nonnegative_and_normalized(self, values, a):
        s = SampleSet(values)
        lo = min(values) - 10 * a
        hi = max(values) + 10 * a
        mass = integrate(lambda t: density(s, a, t), lo, hi, 2001)
        dens = density(s, a, np.linspace(lo, hi, 64))
        assert np.all(dens >= 0)
        assert mass == pytest.approx(1.0, abs=1e-6)


class TestKdeDerivAt:
    def test_odd_symmetry_at_center(self):
        assert deriv(SampleSet([0.0]), 1.0, 0.0)[0] == pytest.approx(0.0)

    def test_single_sample_analytic(self):
        # d/dt K(t) at t = 1 is -K(1).
        expected = -math.exp(-0.5) / _SQRT_2PI
        assert deriv(SampleSet([0.0]), 1.0, 1.0)[0] == pytest.approx(
            expected, abs=1e-9
        )
        assert expected == pytest.approx(-0.241971, abs=1e-6)

    def test_central_difference_oracle(self):
        rng = np.random.Generator(np.random.Philox(3))
        s = SampleSet(rng.standard_normal(200))
        h = 1e-5
        t = rng.uniform(-3, 3, size=100)
        fd = (density(s, 0.5, t + h) - density(s, 0.5, t - h)) / (2 * h)
        assert np.allclose(deriv(s, 0.5, t), fd, rtol=0, atol=1e-6)

    def test_profile_matches_separate_calls(self):
        # Distinct bandwidths take separate kernel sums; each must match
        # the shared-exponential pass at its own bandwidth.
        rng = np.random.Generator(np.random.Philox(4))
        s = SampleSet(rng.standard_normal(500))
        grid = np.linspace(-3, 3, 41)
        dens, deriv_ = kde_profile(s, 0.4, 0.7, grid)
        assert np.allclose(dens, density(s, 0.4, grid))
        assert np.allclose(deriv_, deriv(s, 0.7, grid))


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
    # Both tails round to the subnormal 2e-323: their true ratio, about
    # 0.81, is finer than the subnormal spacing of 5e-324.
    @example(r=0, n=3436, a=0.9453125, eps=0.5063748551568883)
    def test_decreasing_in_n(self, r, n, a, eps):
        # eps chosen above the largest possible bias (a <= 1, slopes < 1.2).
        if eps <= a * _BIAS_SLOPE[r]:
            return
        smaller = sup_deviation_tail(r, n + 1, a, eps)
        larger = sup_deviation_tail(r, n, a, eps)
        if larger < sys.float_info.min:
            # Subnormal or zero: too coarse to resolve one more sample.
            assert smaller <= larger
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
            estimates[i] = density(s, a, t_grid)
        mean_fn = estimates.mean(axis=0)
        std_err = estimates.std(axis=0) / math.sqrt(resamples)
        bias = np.abs(mean_fn - true_density(channel, t_grid))
        delta0 = a * _BIAS_SLOPE[0]
        assert np.all(bias <= delta0 + 3 * std_err)
