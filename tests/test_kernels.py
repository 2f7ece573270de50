"""Tests for kernel density estimation and the concentration machinery."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fisherinfo import (
    EstimatorConfig,
    SampleSet,
    binary_channel,
    estimate,
    gaussian_channel,
    integrate,
    kde_profile,
    sample_channel,
    true_density,
)
from fisherinfo.errors import HypothesisViolationError
from fisherinfo.estimators import DEFAULT_DENSITY_FLOOR
from fisherinfo.kernels import (
    _BIAS_SLOPE,
    _TOTAL_VARIATION,
    _binned_grid,
    _binned_sums,
    _kernel_sums,
    _lattice,
    deviation_rate,
    rate_optimal_bandwidth,
    sup_deviation_tail,
)
from fisherinfo.quadrature import simpson_nodes

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_EPS = float(np.finfo(float).eps)
# sup|K^(j)| for j = 0..3: K(0), K(1), K(0), and |K'''| at u^2 = 3 - sqrt(6).
_SUP_K = (
    1 / _SQRT_2PI,
    math.exp(-0.5) / _SQRT_2PI,
    1 / _SQRT_2PI,
    math.sqrt(6 * (3 - math.sqrt(6))) * math.exp(-(3 - math.sqrt(6)) / 2) / _SQRT_2PI,
)

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


def binned_tolerance(r, values, a, grid):
    """_binned_sums' stated bound on |binned - exact| for f_n^(r) on a
    linspace grid: the interpolation term h_b^2/8 sup|K^(r+2)| / a^(r+3) and
    the taps beyond 13a, sup_{|u| >= 13} |K^(r)(u)| / a^(r+1), plus rounding:
    a few ulps per summand (samples and taps) of the largest term, and a few
    ulps of the lattice's extent in node and bin positions times the slope
    sup|K^(r+1)| / a^(r+2)."""
    h = (grid[-1] - grid[0]) / (grid.size - 1)
    _, h_b, m = _lattice(a, h)
    interpolation = h_b**2 / 8 * _SUP_K[r + 2] / a ** (r + 3)
    taps = 13.0**r * math.exp(-0.5 * 13.0**2) / _SQRT_2PI / a ** (r + 1)
    extent = np.max(np.abs(grid)) + (m + 1) * h_b
    rounding = 8 * _EPS * (
        (values.size + 2 * m + 1) * _SUP_K[r] / a ** (r + 1)
        + extent * _SUP_K[r + 1] / a ** (r + 2)
    )
    return interpolation + taps + rounding


near_or_far = st.one_of(
    st.floats(min_value=-12, max_value=12), st.floats(min_value=-1e6, max_value=1e6)
)


class TestBinnedSums:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(near_or_far, min_size=1, max_size=200),
        st.floats(min_value=0.02, max_value=1.0),
        st.floats(min_value=-8.0, max_value=0.0),
        st.floats(min_value=2.0, max_value=16.0),
        st.integers(min_value=2, max_value=201),
    )
    def test_within_stated_bound_of_exact_sums(self, values, a, lo, width, size):
        # Any sample count, samples far off the grid, and coarse grids (h > a,
        # so s > 1 bins per grid step): _binned_sums whatever the dispatch.
        values = np.asarray(values)
        grid = np.linspace(lo, lo + width, size)
        h = (grid[-1] - grid[0]) / (size - 1)
        s, h_b, m = _lattice(a, h)
        assert s == math.ceil(4 * h / a)
        assert h_b <= a / 4 * (1 + 4 * _EPS) and m * h_b >= 13 * a * (1 - 4 * _EPS)
        binned = _binned_sums(values, a, grid[0], (s, h_b, m), size,
                              want_deriv=True)
        exact = _kernel_sums(values, a, grid, want_deriv=True)
        for r in (0, 1):
            err = np.max(np.abs(binned[r] - exact[r]))
            assert err <= binned_tolerance(r, values, a, grid), (r, err)

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.1, max_value=0.4),
        st.floats(min_value=0.1, max_value=0.4),
        st.sampled_from([201, 401, 2001]),
    )
    def test_two_bandwidths_each_within_bound(self, seed, a0, a1, size):
        # Each bandwidth has its own lattice; both take the binned path here.
        rng = np.random.default_rng(seed)
        values = np.concatenate([rng.standard_normal(5000), rng.uniform(-50, 50, 20)])
        grid = simpson_nodes(-6.0, 6.0, size)
        assert _binned_grid(a0, grid) is not None
        assert _binned_grid(a1, grid) is not None
        dens, deriv_ = kde_profile(SampleSet(values), a0, a1, grid)
        exact_dens = _kernel_sums(values, a0, grid, want_deriv=False)[0]
        exact_deriv = _kernel_sums(values, a1, grid, want_deriv=True)[1]
        assert np.max(np.abs(dens - exact_dens)) <= binned_tolerance(0, values, a0, grid)
        assert np.max(np.abs(deriv_ - exact_deriv)) <= binned_tolerance(
            1, values, a1, grid
        )

    @pytest.mark.parametrize("a0, a1", [(0.3, 0.3), (0.3, 0.5)])
    def test_exact_sums_bit_for_bit_where_binning_does_not_apply(self, a0, a1):
        values = np.random.default_rng(11).standard_normal(5000)
        uniform = simpson_nodes(-6.0, 6.0, 2001)
        bent = uniform.copy()
        bent[1000] += 1e-3
        cases = [
            ("non-uniform", 1.0, bent),
            ("geometric", 1.0, np.geomspace(0.01, 6.0, 2001)),
            ("one node", 1.0, np.array([0.5])),
            ("descending", 1.0, uniform[::-1]),
            # Past _MAX_BINNED_WORK: a step far above the bandwidth needs
            # s = 4h/a bins per step, one far below needs 26a/h taps.
            ("step >> a", 1e-5, uniform),
            ("step << a", 1.0, np.linspace(0.0, 0.01, 101)),
        ]
        for name, scale, grid in cases:
            b0, b1 = a0 * scale, a1 * scale
            for a in (b0, b1):
                assert _binned_grid(a, grid) is None, name
            dens, deriv_ = kde_profile(SampleSet(values), b0, b1, grid)
            assert np.array_equal(dens, _kernel_sums(values, b0, grid, False)[0]), name
            assert np.array_equal(deriv_, _kernel_sums(values, b1, grid, True)[1]), name

    @pytest.mark.parametrize("n", [100, 1000])
    def test_small_samples_binned_on_estimator_grid(self, n):
        # The sample size never decides the path: binning also pays here
        # (2001 nodes: about 2.4 ms against 5.5 ms exact at n = 100, and
        # 0.9 ms against 44 ms at n = 1000).
        config = EstimatorConfig(n ** (-1 / 6), n ** (-1 / 6), math.log(n))
        grid = simpson_nodes(-config.k_n, config.k_n, config.grid_points)
        assert _binned_grid(config.a0, grid) is not None

    @pytest.mark.parametrize("channel", [gaussian_channel(1.0), binary_channel(1.0)])
    def test_floored_fraction_within_one_node_of_exact(self, channel):
        # The benchmark's repeated-trial cases. Taps cut at 10a instead of 13a
        # leave tens of nodes at 0 where the exact density is above the floor.
        n = 10_000
        config = EstimatorConfig(n ** (-1 / 6), n ** (-1 / 6), math.log(n))
        samples = sample_channel(channel, n, seed=3)
        grid = simpson_nodes(-config.k_n, config.k_n, config.grid_points)
        assert _binned_grid(config.a0, grid) is not None
        exact_dens = _kernel_sums(samples.values, config.a0, grid, False)[0]
        exact = np.mean(exact_dens < DEFAULT_DENSITY_FLOOR)
        binned = estimate(samples, config).floored_fraction
        assert abs(binned - exact) <= 1 / config.grid_points


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
