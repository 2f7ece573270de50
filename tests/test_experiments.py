"""Tests for the experiment harness and its artifacts."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fisherinfo
import fisherinfo.experiments as experiments
from fisherinfo import (
    ChannelModel,
    EstimatorConfig,
    EstimatorKind,
    ExperimentConfig,
    ExperimentKind,
    InputLaw,
    gaussian_channel,
    sample_channel,
    true_fisher,
)
from fisherinfo.experiments import (
    _READS,
    DataSeries,
    _metadata,
    run_complexity,
    run_density_overlay,
    run_experiment,
    run_histogram,
    run_snr_sweep,
)


def _config(**overrides):
    """A small config; the defaults below are set only where the kind
    reads them."""
    kind = overrides.get("kind", ExperimentKind.HISTOGRAM)
    defaults = dict(
        kind=kind,
        channel=gaussian_channel(1.0),
        n_list=(200,),
        trials=5,
        seed=7,
        output_path="exp",
    )
    reads = _READS[kind] | {"kind", "channel", "output_path"}
    defaults = {k: v for k, v in defaults.items() if k in reads}
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            _config(trials=0)
        with pytest.raises(ValueError):
            _config(n_list=())
        with pytest.raises(ValueError):
            _config(kind=ExperimentKind.SNR_SWEEP, snr_grid=())

    @pytest.mark.parametrize(
        "key, value, field",
        [("trials", 2.5, "trials"), ("trials", True, "trials"),
         ("seed", 1.5, "seed"), ("n_list", [1e3], "n_list entry"),
         ("n_list", [1000, 200.5], "n_list entry"), ("threads", 2.0, "threads")],
    )
    def test_integer_fields_rejected_when_not_integers(self, key, value, field):
        # A float count or seed is refused by name, never truncated by int().
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ExperimentConfig.from_dict(
                {"kind": "histogram", "channel": {"input": "gaussian", "snr": 1},
                 key: value}
            )

    @pytest.mark.parametrize("key, value", [("n_list", 5), ("snr_grid", 0.5),
                                            ("n_list", "1000")])
    def test_sequence_fields_rejected_when_not_lists(self, key, value):
        # tuple(5) would end in a TypeError that names no field.
        with pytest.raises(ValueError, match=f"{key} must be a list"):
            ExperimentConfig.from_dict(
                {"kind": "snr_sweep", "channel": {"input": "gaussian", "snr": 1},
                 key: value}
            )

    def test_negative_seed_rejected(self):
        # numpy would refuse it only at sampling time, without naming the field.
        with pytest.raises(ValueError, match="seed must be >= 0"):
            _config(seed=-1)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
    def test_snr_grid_entry_rejected_before_any_work(self, bad, monkeypatch):
        # Each snr_grid point is a ChannelModel snr, checked at construction.
        monkeypatch.setattr(experiments, "sample_channel", None)
        with pytest.raises(ValueError, match="snr must be finite and nonnegative"):
            _config(kind=ExperimentKind.SNR_SWEEP, snr_grid=(1.0, bad))

    def test_estimator_config_grid_points_from_json_rejected(self):
        with pytest.raises(ValueError, match="grid_points must be an integer"):
            ExperimentConfig.from_dict(
                {"kind": "histogram", "channel": {"input": "gaussian", "snr": 1},
                 "estimator_config": {"a0": 0.3, "a1": 0.3, "k_n": 5,
                                      "grid_points": 101.9}}
            )

    def test_from_dict_fail_closed(self):
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig.from_dict(
                {"kind": "histogram", "channel": {"input": "gaussian", "snr": 1},
                 "bogus": 1}
            )
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig.from_dict(
                {"kind": "histogram",
                 "channel": {"input": "gaussian", "snr": 1},
                 "estimator_config": {"a0": 0.3, "a1": 0.3, "k_n": 5, "junk": 1}}
            )

    @pytest.mark.parametrize("kind", ["mmse_bhattacharya", "mmse_clipped"])
    def test_mmse_estimator_rejected(self, kind):
        # The MMSE is mmse_from_fisher of a Fisher estimate, not an estimator.
        with pytest.raises(ValueError, match=kind):
            ExperimentConfig.from_dict(
                {"kind": "histogram", "channel": {"input": "gaussian", "snr": 1},
                 "estimator": kind}
            )

    def test_json_round_trip(self, tmp_path):
        config = _config(estimator_config=EstimatorConfig(a0=0.3, a1=0.3, k_n=5.0))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        loaded = ExperimentConfig.from_json_file(path)
        assert loaded == config

    def test_non_object_config_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="object"):
            ExperimentConfig.from_json_file(path)

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            (ExperimentKind.DENSITY_OVERLAY, "trials", 3),
            (ExperimentKind.SNR_SWEEP, "threads", 2),
            (ExperimentKind.COMPLEXITY, "estimator", EstimatorKind.CLIPPED),
            (ExperimentKind.HISTOGRAM, "snr_grid", (1.0,)),
            (ExperimentKind.COMPLEXITY, "n_list", (200,)),
            (ExperimentKind.COMPLEXITY, "seed", 7),
            (ExperimentKind.COMPLEXITY, "estimator_config",
             EstimatorConfig(a0=0.3, a1=0.3, k_n=5.0)),
            (ExperimentKind.DENSITY_OVERLAY, "estimator_config",
             EstimatorConfig(a0=0.3, a1=0.3, k_n=5.0)),
        ],
    )
    def test_unread_field_rejected(self, kind, field, value):
        extra = {"snr_grid": (1.0,)} if kind is ExperimentKind.SNR_SWEEP else {}
        _config(kind=kind, **extra)
        with pytest.raises(ValueError, match=f"do not read {field}"):
            _config(kind=kind, **{**extra, field: value})

    def test_unread_key_in_file_rejected(self):
        with pytest.raises(ValueError, match="do not read n_list, seed"):
            ExperimentConfig.from_dict(
                {"kind": "complexity", "channel": {"input": "gaussian", "snr": 1},
                 "n_list": [100], "seed": 3}
            )

    def test_snr_sweep_reads_one_sample_size(self):
        with pytest.raises(ValueError, match="one sample size"):
            _config(kind=ExperimentKind.SNR_SWEEP, snr_grid=(1.0,), n_list=(100, 200))

    def test_envelope_in_estimator_config_rejected(self):
        with pytest.raises(ValueError, match="unknown estimator_config keys"):
            ExperimentConfig.from_dict(
                {"kind": "histogram", "channel": {"input": "gaussian", "snr": 1},
                 "estimator_config": {"a0": 0.3, "a1": 0.3, "k_n": 5,
                                      "clip_envelope": 1.0}}
            )

    def test_kind_mismatch(self):
        with pytest.raises(ValueError, match="kind"):
            run_density_overlay(_config())


class TestDensityOverlay:
    def test_report_structure_and_symmetry(self, monkeypatch):
        monkeypatch.setattr(experiments, "OVERLAY_GRID_POINTS", 201)
        config = _config(kind=ExperimentKind.DENSITY_OVERLAY, n_list=(50, 500))
        report = run_density_overlay(config)
        grid = report.series.rows[:, 0]
        assert np.allclose(grid, -grid[::-1])
        assert report.series.columns[:3] == ("t", "f_true", "f_deriv_true")
        assert "f_n50" in report.series.columns
        assert report.metadata["config"]["seed"] == 7

    def test_larger_n_describes_density_better(self, monkeypatch):
        # Paired comparison across independent seeds.
        monkeypatch.setattr(experiments, "OVERLAY_GRID_POINTS", 401)
        wins_density, wins_deriv_worse = 0, 0
        seeds = range(10)
        for seed in seeds:
            config = _config(
                kind=ExperimentKind.DENSITY_OVERLAY, n_list=(50, 5000), seed=seed,
            )
            report = run_density_overlay(config)
            errs = report.summary["sup_density_error"]
            derrs = report.summary["sup_deriv_error"]
            if errs["5000"] < errs["50"]:
                wins_density += 1
            # The derivative is harder to estimate than the density at the
            # same n (compare like-for-like at n = 5000).
            if derrs["5000"] > errs["5000"]:
                wins_deriv_worse += 1
        assert wins_density >= 9
        assert wins_deriv_worse >= 9


class TestSnrSweep:
    def test_columns_and_brown_identity(self):
        config = _config(
            kind=ExperimentKind.SNR_SWEEP, n_list=(2000,),
            snr_grid=(1.0, 3.0), trials=1,
        )
        report = run_snr_sweep(config)
        rows = report.series.rows
        assert rows.shape == (2, 7)
        snr = rows[:, 0]
        # snr*mmse + fisher = 1 exactly for both estimator columns.
        assert np.allclose(snr * rows[:, 3] + rows[:, 1], 1.0, atol=1e-12)
        assert np.allclose(snr * rows[:, 4] + rows[:, 2], 1.0, atol=1e-12)

    def test_estimate_matches_truth_at_snr_five(self):
        config = _config(
            kind=ExperimentKind.SNR_SWEEP, n_list=(10_000,), snr_grid=(5.0,),
        )
        report = run_snr_sweep(config)
        fisher = report.series.rows[0, 1]
        assert fisher == pytest.approx(1.0 / 6.0, abs=0.02)
        assert fisher == pytest.approx(0.172, abs=0.02)

    def test_clipped_coincides_with_plugin(self):
        config = _config(
            kind=ExperimentKind.SNR_SWEEP, n_list=(5000,),
            snr_grid=tuple(float(s) for s in range(1, 6)),
        )
        rows = run_snr_sweep(config).series.rows
        assert np.all(np.abs(rows[:, 1] - rows[:, 2]) < 1e-6)


@st.composite
def _tables(draw):
    """A DataSeries of random finite floats under random column names."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 5))
    names = draw(st.lists(st.from_regex(r"[a-z_][a-z0-9_]*", fullmatch=True),
                          min_size=cols, max_size=cols))
    values = draw(arrays(np.float64, (rows, cols),
                         elements=st.floats(allow_nan=False, allow_infinity=False)))
    return DataSeries(tuple(names), values)


class TestDataSeries:
    @settings(max_examples=100, deadline=None)
    @given(table=_tables())
    def test_write_is_lf_csv_that_parses_back(self, table, tmp_path_factory):
        path = tmp_path_factory.mktemp("series") / "table.csv"
        table.write(path)
        text = path.read_bytes().decode()
        assert "\r" not in text and text.endswith("\n")
        header, *lines = text.splitlines()
        assert header == "# " + ",".join(table.columns)
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines])
        parsed = parsed.reshape(table.rows.shape)
        assert parsed.tobytes() == table.rows.tobytes()


class TestHistogram:
    def test_statistics_and_mass(self):
        config = _config(trials=20)
        report = run_histogram(config)
        estimates = report.per_trial_estimates["n200"]
        assert estimates.shape == (20,)
        truth = true_fisher(gaussian_channel(1.0))
        assert report.summary["bias"]["n200"] == pytest.approx(
            float(np.mean(estimates)) - truth, abs=1e-12
        )
        for hist in report.summary["histograms"].values():
            assert sum(hist["counts"]) == 20

    def test_clipped_custom_channel_needs_no_alpha(self):
        # The clipped cap reads only snr * Var X, so a CUSTOM input with no
        # known sub-Gaussian proxy still runs clipped trials.
        channel = ChannelModel(InputLaw.CUSTOM, snr=1.0, alpha=math.inf,
                               sampler=lambda rng, n: rng.standard_normal(n))
        report = run_histogram(_config(channel=channel, trials=2,
                                       estimator=EstimatorKind.CLIPPED))
        assert np.all(np.isfinite(report.per_trial_estimates["n200"]))

    def test_single_trial_degenerate(self):
        report = run_histogram(_config(trials=1))
        assert report.summary["variance"]["n200"] == 0.0
        assert report.summary["degenerate_variance"]["n200"] is True

    def test_threading_is_deterministic(self):
        serial = run_histogram(_config(trials=8, threads=1))
        threaded = run_histogram(_config(trials=8, threads=4))
        assert np.array_equal(
            serial.per_trial_estimates["n200"], threaded.per_trial_estimates["n200"]
        )

    def test_artifacts_byte_identical(self, tmp_path):
        # output_path and threads change no computed number, so they may
        # not change a byte either.
        (tmp_path / "a").mkdir()
        paths = []
        for threads, base in ((1, tmp_path / "a" / "exp"), (3, tmp_path / "b")):
            config = _config(trials=4, threads=threads, output_path=str(base))
            paths.append(run_histogram(config).write(config.output_path))
        for first, second in zip(*paths):
            assert first.read_bytes() == second.read_bytes()

    def test_csv_header_comment(self, tmp_path):
        report = run_histogram(_config(trials=2))
        csv_path, json_path = report.write(tmp_path / "exp")
        assert csv_path.name == "exp_hist.csv"
        first = csv_path.read_text().splitlines()[0]
        assert first.startswith("#") and "estimate" in first
        parsed = json.loads(json_path.read_text())
        assert parsed["kind"] == "histogram"
        assert set(parsed) == {"kind", "summary", "per_trial_estimates", "metadata"}

    def test_seed_scheme_gives_fresh_trials(self):
        estimates = run_histogram(_config(trials=6)).per_trial_estimates["n200"]
        assert len(set(np.round(estimates, 12))) == 6


class TestComplexity:
    def test_table_shape_and_dominance(self, monkeypatch):
        monkeypatch.setattr(experiments, "EPS_GRID", (0.4, 0.6))
        monkeypatch.setattr(experiments, "PERR_GRID", (0.3,))
        report = run_complexity(_config(kind=ExperimentKind.COMPLEXITY))
        rows = report.series.rows
        assert rows.shape == (3, 5)
        assert np.all(rows[:, 4] < rows[:, 3])  # clipped needs fewer samples
        assert report.summary["infeasible_cells"] == 0

    def test_shared_cell_solved_once(self, monkeypatch):
        calls = []
        solve = experiments.sample_complexity

        def counted(eps, perr, kind, channel):
            calls.append((eps, perr, kind))
            return solve(eps, perr, kind, channel)

        monkeypatch.setattr(experiments, "sample_complexity", counted)
        # (EPS_FIXED, PERR_FIXED) = (0.5, 0.2) lies on both sweeps.
        monkeypatch.setattr(experiments, "EPS_GRID", (0.4, 0.5))
        monkeypatch.setattr(experiments, "PERR_GRID", (0.2, 0.3))
        rows = run_complexity(_config(kind=ExperimentKind.COMPLEXITY)).series.rows
        assert len(calls) == len(set(calls)) == 6
        np.testing.assert_array_equal(rows[1], [0.0, 0.5, 0.2, *rows[2, 3:]])
        np.testing.assert_array_equal(rows[2, :3], [1.0, 0.5, 0.2])

    def test_infeasible_cells_marked_not_fatal(self, monkeypatch):
        monkeypatch.setattr(experiments, "EPS_GRID", (1e-12,))
        monkeypatch.setattr(experiments, "PERR_GRID", ())
        report = run_complexity(_config(kind=ExperimentKind.COMPLEXITY))
        assert math.isinf(report.series.rows[0, 3])
        assert report.summary["infeasible_cells"] == 1


class TestMetadata:
    def test_version_is_the_package_version(self):
        # Report bytes must not depend on whether the package is installed.
        pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
        declared = re.search(r'^version = "([^"]+)"', pyproject, re.MULTILINE)
        version = _metadata(_config())["version"]
        assert version == fisherinfo.__version__ == declared.group(1)


class TestDispatch:
    def test_run_experiment_routes_by_kind(self):
        report = run_experiment(_config(trials=2))
        assert report.kind is ExperimentKind.HISTOGRAM

    @pytest.mark.parametrize(
        "name", ["complexity_curves", "density_overlay", "histograms", "snr_sweep"]
    )
    def test_example_config_runs(self, name, tmp_path):
        path = Path(__file__).parent.parent / "examples" / f"{name}.json"
        config = ExperimentConfig.from_json_file(path)
        small = {"n_list": (200,), "trials": min(config.trials, 2),
                 "output_path": str(tmp_path / name)}
        config = dataclasses.replace(config, **{
            k: v for k, v in small.items() if k in _READS[config.kind] | {"output_path"}
        })
        paths = run_experiment(config).write(config.output_path)
        assert all(p.stat().st_size > 0 for p in paths)
