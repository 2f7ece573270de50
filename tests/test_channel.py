"""Tests for the Gaussian-noise channel sampler and its ground-truth
oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fisherinfo import (
    ChannelModel,
    InputLaw,
    binary_channel,
    gaussian_channel,
    integrate,
    sample_channel,
    trial_seed,
    true_density,
    true_density_deriv,
    true_fisher,
    true_mmse,
    true_score,
)
from fisherinfo.bounds import TailModel
from fisherinfo.errors import UnsupportedOracleError

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _custom(snr=1.0):
    return ChannelModel(
        InputLaw.CUSTOM, snr=snr, sampler=lambda gen, n: gen.uniform(-1, 1, n)
    )


def binary_mmse_monte_carlo(snr: float, n: int, seed: int):
    """Brute-force E[(X - E[X|Y])^2] for the binary input: an independent
    oracle for the quadrature formula. Returns (estimate, standard error)."""
    gen = np.random.Generator(np.random.Philox(seed))
    x = gen.integers(0, 2, size=n) * 2.0 - 1.0
    y = math.sqrt(snr) * x + gen.standard_normal(n)
    cond_mean = np.tanh(math.sqrt(snr) * y)
    sq = (x - cond_mean) ** 2
    return float(sq.mean()), float(sq.std() / math.sqrt(n))


def binary_mmse_quad(snr: float) -> float:
    """E[sech(U)^2], U ~ N(snr, snr), by adaptive quadrature of the
    integrand's exponential in log space: an oracle for the binary MMSE at
    any snr, whose value falls like e^(-snr/2)."""
    m = math.sqrt(snr)

    def integrand(u):
        a = abs(u)
        log_sech2 = 2.0 * (math.log(2.0) - a - math.log1p(math.exp(-2.0 * a)))
        log_normal = -((u - snr) ** 2) / (2.0 * snr) - math.log(m * _SQRT_2PI)
        return math.exp(log_sech2 + log_normal)

    lo, hi = snr - 40.0 * m, snr + 40.0 * m
    peaks = sorted(p for p in (0.0, snr) if lo < p < hi)
    value, _ = quad(integrand, lo, hi, points=peaks, epsabs=0.0, epsrel=1e-13, limit=500)
    return value


class TestChannelModel:
    def test_builtin_moments(self):
        for model in (gaussian_channel(2.0), binary_channel(2.0)):
            assert model.variance == 1.0
            assert model.second_moment == 1.0
            assert model.alpha == 1.0

    def test_moment_consistency_enforced(self):
        with pytest.raises(ValueError):
            ChannelModel(InputLaw.GAUSSIAN_STD, snr=1.0, variance=2.0,
                         second_moment=1.0)

    @pytest.mark.parametrize("law", [InputLaw.GAUSSIAN_STD, InputLaw.BINARY_PM1])
    @pytest.mark.parametrize(
        "moments",
        [{"variance": 0.01, "second_moment": 0.01}, {"alpha": 2.0},
         {"second_moment": 4.0}],
    )
    def test_builtin_moments_cannot_be_set(self, law, moments):
        # The sampler draws the law whatever the moments say, while the
        # bounds read them: a binary input at snr 25 with variance 0.01
        # would certify a sample size the law does not reach.
        with pytest.raises(ValueError, match="only a CUSTOM input"):
            ChannelModel(law, snr=25.0, **moments)

    @pytest.mark.parametrize("law", [InputLaw.GAUSSIAN_STD, InputLaw.BINARY_PM1])
    def test_builtin_sampler_cannot_be_set(self, law):
        # sample_channel draws a built-in law whatever sampler is given.
        with pytest.raises(ValueError, match="only a CUSTOM input"):
            ChannelModel(law, snr=1.0, sampler=lambda gen, n: np.zeros(n))

    def test_custom_sets_its_moments(self):
        model = ChannelModel(InputLaw.CUSTOM, snr=1.0, alpha=1.0, variance=1 / 3,
                             second_moment=1 / 3,
                             sampler=lambda gen, n: gen.uniform(-1, 1, n))
        assert model.variance == 1 / 3

    def test_custom_requires_sampler(self):
        with pytest.raises(ValueError):
            ChannelModel(InputLaw.CUSTOM, snr=1.0)

    @pytest.mark.parametrize("snr", [math.inf, 1e400, math.nan, -math.inf, -1.0])
    def test_snr_must_be_finite_and_nonnegative(self, snr):
        with pytest.raises(ValueError, match="snr must be finite and nonnegative"):
            gaussian_channel(snr)
        # An snr_grid point reaches the channel through dataclasses.replace.
        with pytest.raises(ValueError, match="snr"):
            dataclasses.replace(binary_channel(1.0), snr=snr)
        with pytest.raises(ValueError, match="snr"):
            ChannelModel.from_config_dict({"input": "gaussian", "snr": snr})

    @pytest.mark.parametrize("snr", [None, True, "1", "inf"])
    def test_snr_must_be_a_real_number(self, snr):
        # float() would read "1" and True as 1.0, and None would end in a
        # TypeError that names no field.
        with pytest.raises(ValueError, match="snr must be a real number"):
            gaussian_channel(snr)
        with pytest.raises(ValueError, match="snr must be a real number"):
            ChannelModel.from_config_dict({"input": "gaussian", "snr": snr})

    def test_config_round_trip(self):
        model = binary_channel(3.0)
        assert ChannelModel.from_config_dict(model.to_config_dict()) == model

    def test_config_has_input_and_snr_only(self):
        assert binary_channel(3.0).to_config_dict() == {"input": "binary", "snr": 3.0}

    def test_unknown_config_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ChannelModel.from_config_dict({"input": "gaussian", "snr": 1, "x": 2})

    @pytest.mark.parametrize(
        "moments",
        [{"variance": 0.01, "second_moment": 0.01}, {"alpha": 1.0},
         {"second_moment": 1.0}],
    )
    def test_moment_config_keys_rejected(self, moments):
        with pytest.raises(ValueError, match="unknown channel keys"):
            ChannelModel.from_config_dict({"input": "binary", "snr": 25, **moments})

    def test_custom_not_configurable(self):
        with pytest.raises(ValueError):
            ChannelModel.from_config_dict({"input": "custom", "snr": 1})


class TestSampling:
    def test_determinism(self):
        a = sample_channel(gaussian_channel(1.0), 500, seed=42)
        b = sample_channel(gaussian_channel(1.0), 500, seed=42)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(
            a.values, sample_channel(gaussian_channel(1.0), 500, seed=43).values
        )

    def test_pure_noise_limit_variance(self):
        s = sample_channel(gaussian_channel(1e-12), 40_000, seed=1)
        assert s.values.var() == pytest.approx(1.0, abs=4 / math.sqrt(40_000) * 3)

    def test_snr_three_variance(self):
        s = sample_channel(gaussian_channel(3.0), 40_000, seed=2)
        assert s.values.var() == pytest.approx(4.0, rel=0.05)

    def test_binary_support(self):
        s = sample_channel(binary_channel(100.0), 2000, seed=3)
        # At snr 100 the two lobes at +/-10 are well separated.
        assert np.all(np.abs(np.abs(s.values) - 10.0) < 6.0)

    def test_custom_sampler_used(self):
        s = sample_channel(_custom(snr=1e-18), 1000, seed=4)
        assert s.n == 1000

    def test_custom_sampler_bad_shape(self):
        model = ChannelModel(
            InputLaw.CUSTOM, snr=1.0, sampler=lambda gen, n: gen.uniform(size=n + 1)
        )
        with pytest.raises(ValueError, match="shape"):
            sample_channel(model, 10, seed=0)

    def test_trial_seed_scheme(self):
        assert trial_seed(0b1100, 0b1010) == 0b0110
        seeds = {trial_seed(99, t) for t in range(100)}
        assert len(seeds) == 100


class TestTruths:
    def test_gaussian_fisher_half(self):
        assert true_fisher(gaussian_channel(1.0)) == pytest.approx(0.5, abs=1e-6)

    def test_binary_fisher_marker(self):
        assert true_fisher(binary_channel(1.0)) == pytest.approx(0.55040, abs=1e-4)

    def test_zero_snr_limit(self):
        for model in (gaussian_channel(1e-9), binary_channel(1e-9)):
            assert true_fisher(model) == pytest.approx(1.0, abs=1e-6)

    def test_gaussian_mmse(self):
        assert true_mmse(gaussian_channel(1.0)) == pytest.approx(0.5)

    def test_binary_mmse_marker(self):
        assert true_mmse(binary_channel(2.5)) == pytest.approx(0.16879, abs=1e-3)

    def test_binary_mmse_decreasing_to_zero(self):
        values = [true_mmse(binary_channel(s)) for s in (1, 2, 5, 10, 20, 40)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-6

    def test_custom_unsupported(self):
        for oracle in (true_fisher, true_mmse):
            with pytest.raises(UnsupportedOracleError):
                oracle(_custom())
        with pytest.raises(UnsupportedOracleError):
            true_density(_custom(), 0.0)

    def test_brown_identity_closure(self):
        for factory in (gaussian_channel, binary_channel):
            for snr in np.arange(0.1, 10.01, 0.3):
                model = factory(float(snr))
                assert 1.0 - snr * true_mmse(model) == pytest.approx(
                    true_fisher(model), abs=1e-10
                )

    def test_fisher_in_unit_interval(self):
        for factory in (gaussian_channel, binary_channel):
            for snr in (0.01, 0.5, 1, 3, 10, 50):
                assert 0.0 < true_fisher(factory(snr)) <= 1.0

    @pytest.mark.parametrize(
        "snr", [0.01, 0.1, 1.0, 3.0, 5.0, 10.0, 20.0, 30.0, 100.0, 300.0, 1000.0]
    )
    def test_binary_mmse_against_quadrature(self, snr):
        # At snr >= 100 the MMSE is below 1e-22, and 1 - E[tanh] would
        # cancel to a negative value; E[sech^2] stays positive.
        model = binary_channel(snr)
        assert true_mmse(model) == pytest.approx(binary_mmse_quad(snr), rel=1e-10)
        assert true_mmse(model) > 0.0
        assert true_fisher(model) <= 1.0

    @pytest.mark.parametrize("snr", [1.0, 3.0])
    def test_binary_sech2_form_is_one_minus_tanh(self, snr):
        # E[tanh(U)] = E[tanh(U)^2], so 1 - E[tanh(U)] = E[sech(U)^2]; where
        # 1 - tanh does not cancel, the two integrals agree.
        m = math.sqrt(snr)
        one_minus_tanh, _ = quad(
            lambda z: (1.0 - math.tanh(snr + m * z)) * math.exp(-z * z / 2.0),
            -40.0, 40.0, points=[-m], epsabs=0.0, epsrel=1e-13, limit=500,
        )
        one_minus_tanh /= _SQRT_2PI
        assert binary_mmse_quad(snr) == pytest.approx(one_minus_tanh, rel=1e-11)

    def test_binary_mmse_at_zero_snr(self):
        assert true_mmse(binary_channel(0.0)) == 1.0

    @pytest.mark.parametrize("snr", [1.0, 5.0])
    def test_binary_mmse_against_monte_carlo(self, snr):
        mc, se = binary_mmse_monte_carlo(snr, 2_000_000, seed=123)
        assert true_mmse(binary_channel(snr)) == pytest.approx(mc, abs=3 * se)


class TestDensities:
    def test_gaussian_density_at_zero(self):
        assert true_density(gaussian_channel(1.0), 0.0) == pytest.approx(
            1 / math.sqrt(4 * math.pi), abs=1e-6
        )

    def test_binary_derivative_zero_at_origin(self):
        assert true_density_deriv(binary_channel(2.0), 0.0) == pytest.approx(0.0)

    def test_normalization(self):
        for factory in (gaussian_channel, binary_channel):
            model = factory(4.0)
            half = 12 + math.sqrt(model.snr)
            mass = integrate(
                lambda t: true_density(model, t), -half, half, 4001
            )
            assert mass == pytest.approx(1.0, abs=1e-8)

    def test_derivative_is_density_gradient(self):
        model = binary_channel(3.0)
        h = 1e-6
        for t in (-2.0, -0.5, 0.3, 1.7):
            fd = (true_density(model, t + h) - true_density(model, t - h)) / (2 * h)
            assert true_density_deriv(model, t) == pytest.approx(fd, abs=1e-8)

    @pytest.mark.parametrize("snr", [1.0, 5.0])
    def test_inverse_density_envelope_sound(self, snr):
        # phi(t) from the channel envelopes dominates 1/f_Y on |t| <= 6.
        grid = np.linspace(-6, 6, 241)
        for factory in (gaussian_channel, binary_channel):
            model = factory(snr)
            phi = TailModel(snr * model.variance, snr * model.second_moment).phi
            assert np.all(1.0 / true_density(model, grid) <= phi(grid) + 1e-9)

    @pytest.mark.parametrize("factory", [gaussian_channel, binary_channel])
    @pytest.mark.parametrize("snr", [0.0, 0.5, 3.0])
    def test_score_closed_form(self, factory, snr):
        # f'/f where neither underflows; finite and linear in the far tail.
        model = factory(snr)
        grid = np.linspace(-6, 6, 241)
        ratio = true_density_deriv(model, grid) / true_density(model, grid)
        np.testing.assert_allclose(true_score(model, grid), ratio, rtol=1e-9, atol=1e-12)
        if factory is gaussian_channel:
            expected = [200.0 / (1.0 + snr), -200.0 / (1.0 + snr)]
        else:
            expected = [200.0 - math.sqrt(snr), math.sqrt(snr) - 200.0]
        far = true_score(model, np.array([-200.0, 200.0]))
        np.testing.assert_allclose(far, expected, rtol=1e-12)

    @pytest.mark.parametrize("snr", [1.0, 5.0])
    def test_score_envelope_sound(self, snr):
        grid = np.linspace(-6, 6, 241)
        bound = math.sqrt(3 * snr) + 3 * np.abs(grid)
        for factory in (gaussian_channel, binary_channel):
            score = np.abs(true_score(factory(snr), grid))
            assert np.all(score <= bound + 1e-9)


class TestSeedIndependence:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31), st.integers(0, 1000))
    def test_per_trial_streams_reproducible(self, master, trial):
        seed = trial_seed(master, trial)
        a = sample_channel(gaussian_channel(1.0), 16, seed)
        b = sample_channel(gaussian_channel(1.0), 16, seed)
        assert np.array_equal(a.values, b.values)
