"""Tests for the plug-in and clipped Fisher estimators and the MMSE
transform."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fisherinfo import (
    EstimatorConfig,
    EstimatorKind,
    SampleSet,
    ScoreEnvelope,
    default_bandwidth,
    default_truncation,
    estimate,
    gaussian_channel,
    integrate,
    kde_profile,
    mmse_from_fisher,
    sample_channel,
)
from fisherinfo.estimators import EstimateResult

finite_samples = st.lists(
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    min_size=1,
    max_size=25,
)


def truncated_gaussian_fisher(sigma: float, k: float) -> float:
    """Closed-form ∫_{|t|<=k} (f')^2/f dt for f = N(0, sigma^2).

    The integrand is (t/sigma^2)^2 f(t), so the integral is
    (1/sigma^2) * P[|T| <= k] - 2k f(k)/sigma^2 ... derived via
    integration by parts; evaluated here by high-resolution quadrature of
    the analytic integrand instead, which is an independent oracle for the
    kernel-based path.
    """
    f = lambda t: np.exp(-0.5 * (t / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    return integrate(lambda t: (t / sigma**2) ** 2 * f(t), -k, k, 40_001)


class TestConfigValidation:
    def test_positive_parameters(self):
        for bad in ({"a0": 0.0}, {"a1": -1.0}, {"k_n": 0.0}):
            kwargs = {"a0": 0.3, "a1": 0.3, "k_n": 5.0, **bad}
            with pytest.raises(ValueError):
                EstimatorConfig(**kwargs)

    @pytest.mark.parametrize("name", ["a0", "a1", "k_n"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameters(self, name, value):
        kwargs = {"a0": 0.3, "a1": 0.3, "k_n": 5.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            EstimatorConfig(**kwargs)

    def test_grid_points_odd(self):
        with pytest.raises(ValueError):
            EstimatorConfig(a0=0.3, a1=0.3, k_n=5.0, grid_points=100)

    @pytest.mark.parametrize("grid_points", [101.9, 101.0, True, "101"])
    def test_grid_points_integer(self, grid_points):
        # A fractional grid size is refused, never truncated to its floor.
        with pytest.raises(ValueError, match="grid_points must be an integer"):
            EstimatorConfig(a0=0.3, a1=0.3, k_n=5.0, grid_points=grid_points)
        config = EstimatorConfig(a0=0.3, a1=0.3, k_n=5.0, grid_points=np.int64(101))
        assert config.grid_points == 101

    @pytest.mark.parametrize("name", ["a0", "a1", "k_n"])
    @pytest.mark.parametrize("value", ["0.3", None, True])
    def test_parameters_must_be_real_numbers(self, name, value):
        # A JSON string, null or bool is refused by name, not read as 0.3 or 1.
        kwargs = {"a0": 0.3, "a1": 0.3, "k_n": 5.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            EstimatorConfig(**kwargs)

    def test_defaults(self):
        assert default_bandwidth(10_000) == pytest.approx(10_000 ** (-1 / 6))
        assert default_truncation(10_000) == pytest.approx(math.log(10_000))


class TestScoreAt:
    # The score f_n'/f_n that the plug-in estimator integrates against f_n'.
    def test_single_sample_analytic(self):
        # One sample at 0 with a = 1: f_n = N(0,1), score(t) = -t.
        dens, deriv = kde_profile(SampleSet([0.0]), 1.0, 1.0, np.array([2.0]))
        assert deriv[0] / dens[0] == pytest.approx(-2.0, abs=1e-9)

    def test_symmetric_samples_zero_at_origin(self):
        dens, deriv = kde_profile(SampleSet([-1.0, 1.0]), 0.5, 0.5, np.array([0.0]))
        assert deriv[0] / dens[0] == pytest.approx(0.0)

    def test_floor_keeps_result_finite(self):
        # f_n underflows to 0 far out on [-100, 100]; the floor absorbs it.
        config = EstimatorConfig(a0=0.1, a1=0.1, k_n=100.0)
        result = estimate(SampleSet([0.0]), config)
        assert math.isfinite(result.value)
        assert result.floored_fraction > 0.9


class TestBhattacharya:
    def test_single_sample_unit_bandwidth(self):
        # f_n is exactly N(0,1); its Fisher information is 1.
        config = EstimatorConfig(a0=1.0, a1=1.0, k_n=10.0)
        result = estimate(SampleSet([0.0]), config)
        assert result.value == pytest.approx(1.0, abs=1e-4)
        assert result.estimator is EstimatorKind.BHATTACHARYA

    def test_single_sample_half_bandwidth(self):
        # f_n = N(0, 0.25): Fisher information 1/a^2 = 4.
        config = EstimatorConfig(a0=0.5, a1=0.5, k_n=10.0)
        assert estimate(SampleSet([0.0]), config).value == pytest.approx(
            4.0, abs=1e-3
        )

    def test_truncated_oracle(self):
        # Narrow truncation against the closed-form truncated integral.
        config = EstimatorConfig(a0=1.0, a1=1.0, k_n=1.5)
        expected = truncated_gaussian_fisher(1.0, 1.5)
        assert estimate(SampleSet([0.0]), config).value == pytest.approx(
            expected, abs=1e-4
        )

    def test_desk_scale_accuracy_single_trial(self):
        n = 10_000
        a = default_bandwidth(n)
        config = EstimatorConfig(a0=a, a1=a, k_n=default_truncation(n))
        s = sample_channel(gaussian_channel(1.0), n, seed=11)
        assert estimate(s, config).value == pytest.approx(0.5, abs=0.05)

    @settings(max_examples=25, deadline=None)
    @given(finite_samples, st.floats(min_value=0.2, max_value=2))
    def test_nonnegative(self, values, a):
        config = EstimatorConfig(a0=a, a1=a, k_n=5.0)
        assert estimate(SampleSet(values), config).value >= 0.0


class TestClipped:
    def test_huge_constant_envelope_matches_plugin(self):
        s = SampleSet([-0.5, 0.2, 1.0])
        config = EstimatorConfig(a0=0.8, a1=0.8, k_n=6.0)
        loose = ScoreEnvelope(1e12)
        assert estimate(s, config, loose).value == pytest.approx(
            estimate(s, config).value, abs=1e-9
        )

    def test_zero_envelope_gives_zero(self):
        config = EstimatorConfig(a0=0.5, a1=0.5, k_n=5.0)
        result = estimate(SampleSet([0.0, 1.0]), config, ScoreEnvelope(0.0))
        assert result.value == 0.0
        assert result.clip_active_fraction > 0.9

    def test_lemma_envelope_matches_plugin_on_channel_data(self):
        s = sample_channel(gaussian_channel(1.0), 10_000, seed=3)
        base = EstimatorConfig(a0=0.3, a1=0.3, k_n=10.0)
        assert estimate(s, base, ScoreEnvelope.lemma1(1.0)).value == pytest.approx(
            estimate(s, base).value, abs=1e-6
        )

    def test_clip_dominance(self):
        # clipped <= integral of |rho_bar| * |f_n'| on the same grid.
        s = SampleSet([-1.0, 0.0, 2.0])
        env = ScoreEnvelope.lemma1(1.0)
        config = EstimatorConfig(a0=0.4, a1=0.4, k_n=6.0)
        value = estimate(s, config, env).value
        upper = integrate(
            lambda t: np.abs(env(t)) * np.abs(kde_profile(s, 0.4, 0.4, t)[1]),
            -6.0, 6.0, config.grid_points,
        )
        assert value <= upper + 1e-12

    def test_inactivity_identity_exact(self):
        # With an envelope above the realized score everywhere, the two
        # estimators integrate identical values.
        s = SampleSet([0.0, 0.5])
        base = EstimatorConfig(a0=1.0, a1=1.0, k_n=3.0)
        result = estimate(s, base, ScoreEnvelope(100.0))
        assert result.clip_active_fraction == 0.0
        assert result.value == estimate(s, base).value

    @pytest.mark.parametrize("s_var", [-1.0, math.inf, math.nan])
    def test_lemma_envelope_needs_finite_signal_variance(self, s_var):
        with pytest.raises(ValueError, match="snr Var X must be finite"):
            ScoreEnvelope.lemma1(s_var)

    @settings(max_examples=25, deadline=None)
    @given(finite_samples, st.floats(min_value=0.3, max_value=2))
    def test_nonnegative(self, values, a):
        config = EstimatorConfig(a0=a, a1=a, k_n=5.0)
        env = ScoreEnvelope.lemma1(1.0)
        assert estimate(SampleSet(values), config, env).value >= 0.0


class TestScoreEnvelope:
    @pytest.mark.parametrize("name", ["level", "slope"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0, -1e-300])
    def test_rejects_negative_or_non_finite_level_or_slope(self, name, value):
        # A cap that is not a finite nonnegative number never reaches estimate.
        kwargs = {"level": 1.0, "slope": 1.0, name: value}
        with pytest.raises(ValueError, match=rf"envelope {name} must be in \[0, inf\)"):
            ScoreEnvelope(**kwargs)

    def test_lemma1_is_a_line(self):
        env = ScoreEnvelope.lemma1(4.0)
        assert env == ScoreEnvelope(math.sqrt(12.0), 3.0)
        assert np.array_equal(env(np.array([-2.0, 0.0, 1.0])),
                              math.sqrt(12.0) + 3.0 * np.array([2.0, 0.0, 1.0]))
        assert ScoreEnvelope(2.5)(np.array([-7.0, 3.0])).tolist() == [2.5, 2.5]


class TestMmse:
    def test_point_mass_case(self):
        assert mmse_from_fisher(1.0, 2.0) == 0.0

    def test_gaussian_truth_at_unit_snr(self):
        assert mmse_from_fisher(0.5, 1.0) == pytest.approx(0.5)

    def test_high_snr_value(self):
        assert mmse_from_fisher(0.0909, 10.0) == pytest.approx(0.09091, abs=1e-4)

    def test_invalid_snr(self):
        with pytest.raises(ValueError):
            mmse_from_fisher(0.5, 0.0)

    @pytest.mark.parametrize("snr", [-1.0, math.inf, math.nan])
    def test_snr_must_be_positive_and_finite(self, snr):
        with pytest.raises(ValueError, match="snr must be positive and finite"):
            mmse_from_fisher(0.5, snr)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0, max_value=1, allow_nan=False),
        st.floats(min_value=0.01, max_value=100, allow_nan=False),
    )
    def test_brown_consistency(self, fisher, snr):
        assert mmse_from_fisher(fisher, snr) * snr + fisher == pytest.approx(
            1.0, abs=1e-12
        )


class TestDispatch:
    def test_two_way_dispatch(self):
        # The kind follows from the envelope: given, clipped; absent, plug-in.
        assert [k.value for k in EstimatorKind] == ["bhattacharya", "clipped"]
        s = sample_channel(gaussian_channel(1.0), 500, seed=9)
        config = EstimatorConfig(a0=0.3, a1=0.3, k_n=8.0)
        env = ScoreEnvelope.lemma1(1.0)
        assert estimate(s, config).estimator is EstimatorKind.BHATTACHARYA
        assert estimate(s, config, env).estimator is EstimatorKind.CLIPPED

    def test_result_serialization(self):
        config = EstimatorConfig(a0=1.0, a1=1.0, k_n=5.0)
        d = estimate(SampleSet([0.0]), config).to_dict()
        assert set(d) == {
            "value", "estimator", "clip_active_fraction", "floored_fraction"
        }


class TestShiftEquivariance:
    def test_shift_and_widen_leaves_estimate(self):
        rng = np.random.Generator(np.random.Philox(21))
        s = SampleSet(rng.standard_normal(300))
        c = 1.0
        base = EstimatorConfig(a0=0.5, a1=0.5, k_n=20.0)
        wide = EstimatorConfig(a0=0.5, a1=0.5, k_n=21.0, grid_points=2101)
        before = estimate(s, base).value
        after = estimate(SampleSet(s.values + c), wide).value
        assert after == pytest.approx(before, abs=1e-8)


class TestScaling:
    # I(cY) = I(Y)/c^2: scale the samples, bandwidths and window by c and a
    # constant envelope by 1/c, and f_n becomes f_n(t/c)/c, so both
    # integrands scale by 1/c^3 on a window c times as wide.
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(min_value=-2, max_value=2), min_size=1, max_size=25),
        st.floats(min_value=0.5, max_value=2),
        st.floats(min_value=0.1, max_value=10),
        st.floats(min_value=0.1, max_value=10),
    )
    def test_scaling_law(self, values, a, c, level):
        s, k = SampleSet(values), 3.0
        base = EstimatorConfig(a0=a, a1=a, k_n=k)
        scaled = EstimatorConfig(a0=c * a, a1=c * a, k_n=c * k)
        pairs = [
            (estimate(s, base), estimate(SampleSet(c * s.values), scaled)),
            (
                estimate(s, base, ScoreEnvelope(level)),
                estimate(SampleSet(c * s.values), scaled,
                        ScoreEnvelope(level / c)),
            ),
        ]
        for before, after in pairs:
            assume(before.floored_fraction == after.floored_fraction == 0.0)
            assert after.value * c**2 == pytest.approx(before.value, rel=1e-9)
