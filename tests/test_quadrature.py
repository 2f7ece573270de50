"""Tests for the composite Simpson quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fisherinfo import integrate, integrate_values, simpson_nodes
from fisherinfo.errors import QuadratureError


class TestNodes:
    def test_endpoints_and_count(self):
        nodes = simpson_nodes(-1.0, 3.0, 5)
        assert nodes[0] == -1.0 and nodes[-1] == 3.0 and nodes.size == 5

    def test_even_count_rejected(self):
        with pytest.raises(ValueError):
            simpson_nodes(0.0, 1.0, 4)

    def test_too_few_rejected(self):
        with pytest.raises(ValueError):
            simpson_nodes(0.0, 1.0, 1)

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            simpson_nodes(1.0, 0.0, 5)


class TestIntegrate:
    def test_constant_exact(self):
        assert integrate(lambda t: np.ones_like(t), 0.0, 1.0, 101) == 1.0

    def test_quadratic(self):
        assert integrate(lambda t: t**2, 0.0, 1.0, 101) == pytest.approx(
            1.0 / 3.0, abs=1e-10
        )

    def test_normal_density_mass(self):
        density = lambda t: np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        assert integrate(density, -10.0, 10.0, 2001) == pytest.approx(1.0, abs=1e-8)

    def test_non_finite_integrand_named_node(self):
        fn = lambda t: np.where(t == 0.0, np.inf, 1.0)
        with pytest.raises(QuadratureError, match="node"):
            integrate(fn, -1.0, 1.0, 5)

    def test_non_finite_batched_integrand_named_node(self):
        fn = lambda t: np.where(t == 0.5, np.nan, t)
        with pytest.raises(QuadratureError, match=r"node 2 of interval \(0,\)"):
            integrate(fn, np.array([0.0, -1.0]), np.array([1.0, 1.0]), 5)

    def test_wrong_shape_integrand_rejected(self):
        # Only vectorized integrands: a scalar-only callable is an error.
        with pytest.raises(ValueError, match=r"gave shape \(\) for nodes \(5,\)"):
            integrate(lambda t: 1.0, 0.0, 1.0, 5)
        with pytest.raises(ValueError, match="shape"):
            integrate(lambda t: t[..., :-1], np.zeros(3), np.ones(3), 5)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-10, max_value=10, allow_nan=False),
                st.floats(min_value=1e-3, max_value=10, allow_nan=False),
            ),
            min_size=1, max_size=6,
        )
    )
    def test_batched_equals_per_interval(self, intervals):
        # One call over an array of intervals gives each interval's scalar
        # integral bit for bit.
        lo = np.array([a for a, _ in intervals])
        hi = lo + np.array([w for _, w in intervals])
        fn = lambda t: np.exp(-0.5 * t * t) * np.cos(2.0 * t) + t**3
        batched = integrate(fn, lo, hi, 201)
        assert batched.shape == lo.shape
        for i, (a, b) in enumerate(zip(lo, hi)):
            assert batched[i] == integrate(fn, a, b, 201)
        stacked = integrate(fn, np.stack([lo, lo - 1.0]), np.stack([hi, hi]), 201)
        assert np.array_equal(stacked[0], batched)

    def test_integrate_values_matches_fn_form(self):
        nodes = simpson_nodes(0.0, 1.0, 51)
        assert integrate_values(nodes**2, 0.0, 1.0) == integrate(
            lambda t: t**2, 0.0, 1.0, 51
        )

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            min_size=4, max_size=4,
        )
    )
    def test_exact_on_cubics(self, coeffs):
        # Simpson's rule integrates polynomials up to degree 3 exactly.
        a, b, c, d = coeffs
        fn = lambda t: a + b * t + c * t**2 + d * t**3
        exact = a * 2 + (c / 3.0) * 2  # odd terms vanish on [-1, 1]
        assert integrate(fn, -1.0, 1.0, 11) == pytest.approx(exact, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(min_value=-2, max_value=2, allow_nan=False),
        st.floats(min_value=0.5, max_value=2, allow_nan=False),
    )
    def test_against_adaptive_quadrature_oracle(self, mu, sigma):
        fn = lambda t: np.exp(-0.5 * ((t - mu) / sigma) ** 2)
        expected, _ = quad(fn, -8.0, 8.0)
        assert integrate(fn, -8.0, 8.0, 2001) == pytest.approx(expected, abs=1e-8)
