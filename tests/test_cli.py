"""Tests for the command-line front end (run in-process)."""

import json

import numpy as np
import pytest

from fisherinfo import (
    EstimatorConfig,
    EstimatorKind,
    SampleSet,
    bhattacharya,
    gaussian_channel,
    sample_channel,
)
from fisherinfo.bounds import confidence_bound
from fisherinfo.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_channel_estimate_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--channel", "gaussian", "--snr", "1",
            "--n", "10000", "--seed", "7", "--estimator", "bhattacharya",
            "--a0", "0.3", "--a1", "0.3", "--kn", "10",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(0.5, abs=0.05)
        assert payload["mmse"] == pytest.approx(1.0 - payload["value"])

    def test_matches_library_call(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--channel", "gaussian", "--snr", "1",
            "--n", "2000", "--seed", "3", "--estimator", "bhattacharya",
            "--a0", "0.3", "--a1", "0.3", "--kn", "8",
        )
        samples = sample_channel(gaussian_channel(1.0), 2000, 3)
        config = EstimatorConfig(a0=0.3, a1=0.3, k_n=8.0)
        assert json.loads(out)["value"] == bhattacharya(samples, config).value

    def test_seed_determinism(self, capsys):
        args = (
            "estimate", "--channel", "binary", "--snr", "2", "--n", "500",
            "--seed", "11", "--estimator", "bhattacharya",
            "--a0", "0.3", "--a1", "0.3", "--kn", "6",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_scientific_notation_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--channel", "gaussian", "--snr", "1e0",
            "--n", "1e3", "--seed", "1", "--estimator", "bhattacharya",
            "--a0", "3e-1", "--a1", "3e-1", "--kn", "1e1",
        )
        assert code == 0
        assert json.loads(out)["n"] == 1000

    def test_clipped_from_file_without_envelope_is_usage_error(
        self, capsys, tmp_path
    ):
        path = tmp_path / "vals.txt"
        SampleSet(np.linspace(-1, 1, 50)).to_file(path)
        code, _, err = run_cli(
            capsys, "estimate", "--input", str(path), "--estimator", "clipped",
            "--a0", "0.3", "--a1", "0.3", "--kn", "5",
        )
        assert code == 1
        assert "rho-bar" in err

    def test_clipped_with_const_envelope_from_file(self, capsys, tmp_path):
        path = tmp_path / "vals.txt"
        SampleSet(np.linspace(-1, 1, 50)).to_file(path)
        code, out, _ = run_cli(
            capsys, "estimate", "--input", str(path), "--estimator", "clipped",
            "--a0", "0.3", "--a1", "0.3", "--kn", "5", "--rho-bar", "const:10",
        )
        assert code == 0
        assert json.loads(out)["value"] >= 0

    def test_zero_bandwidth_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "estimate", "--channel", "gaussian", "--snr", "1",
            "--n", "100", "--estimator", "bhattacharya",
            "--a0", "0", "--a1", "0.3", "--kn", "5",
        )
        assert code == 1

    def test_missing_source_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "estimate", "--estimator", "bhattacharya",
            "--a0", "0.3", "--a1", "0.3", "--kn", "5",
        )
        assert code == 1

    def test_missing_input_file_is_io_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "estimate", "--input", "/nonexistent/file.txt",
            "--estimator", "bhattacharya",
            "--a0", "0.3", "--a1", "0.3", "--kn", "5",
        )
        assert code == 3


class TestDensity:
    def test_writes_rows(self, capsys, tmp_path):
        out_path = tmp_path / "density.csv"
        code, out, _ = run_cli(
            capsys, "density", "--channel", "binary", "--snr", "1",
            "--n", "1000", "--seed", "2", "--a", "0.18",
            "--grid-range", "-6:6", "--grid-points", "601",
            "--output", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 602
        density = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert np.all(density >= 0)

    def test_bad_grid_range(self, capsys):
        code, _, _ = run_cli(
            capsys, "density", "--channel", "gaussian", "--snr", "1",
            "--n", "100", "--a", "0.3", "--grid-range", "oops",
        )
        assert code == 1


class TestBounds:
    def test_schedule_bound_prints_constants(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--theorem", "5", "--n", "1e20", "--u", "0.05",
            "--w", "0.15", "--snr", "1", "--var", "1", "--ex2", "1",
            "--alpha", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["c1"] == pytest.approx(1.80519, abs=1e-4)
        assert payload["eps_n"] > 0
        assert 0 <= payload["p_err"] <= 1

    def test_error_bound_reports_envelopes(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--theorem", "2", "--eps0", "1e-6",
            "--eps1", "1e-6", "--kn", "2", "--snr", "1", "--var", "1",
            "--ex2", "1", "--alpha", "1",
        )
        assert code == 0
        payload = json.loads(out)
        for key in ("phi_kn", "rho_max_kn", "c_kn", "bound"):
            assert key in payload

    def test_hypothesis_violation_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "--theorem", "2", "--eps0", "1", "--eps1", "0",
            "--kn", "2", "--snr", "1", "--var", "1", "--ex2", "1",
        )
        assert code == 2
        assert "phi" in err

    def test_negative_zero_count_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "--theorem", "3", "--eps0", "1e-4", "--eps1",
            "1e-4", "--kn", "2", "--snr", "1", "--var", "1", "--ex2", "1",
            "--f0", "0.3", "--df", "-3",
        )
        assert code == 1
        assert "nonnegative" in err

    @pytest.mark.parametrize(
        "argv, vacuous",
        [
            (("--theorem", "5", "--n", "1e12", "--u", "0.05", "--w", "0.16",
              "--alpha", "1"), True),
            (("--theorem", "6", "--n", "50", "--u", "0.01", "--w0", "0.24",
              "--w1", "0.16"), True),
            (("--theorem", "5", "--n", "1e20", "--u", "0.05", "--w", "0.15",
              "--alpha", "1"), False),
        ],
    )
    def test_vacuous_confidence_flagged(self, capsys, argv, vacuous):
        code, out, _ = run_cli(
            capsys, "bounds", *argv, "--snr", "1", "--var", "1", "--ex2", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["vacuous"] is vacuous
        assert (payload["p_err"] >= 1.0) is vacuous
        # The raw tail sum is printed unclipped.
        kind = EstimatorKind.BHATTACHARYA if argv[1] == "5" else EstimatorKind.CLIPPED
        flags = dict(zip(argv[::2], argv[1::2]))
        widths = {k.lstrip("-"): float(flags[k]) for k in ("--w", "--w0", "--w1")
                  if k in flags}
        assert payload["p_err"] == confidence_bound(float(flags["--n"]), kind, **widths)

    def test_missing_moments_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "bounds", "--theorem", "2", "--kn", "2")
        assert code == 1


class TestComplexity:
    def test_clipped_target(self, capsys):
        code, out, _ = run_cli(
            capsys, "complexity", "--eps", "0.5", "--perr", "0.2",
            "--estimator", "clipped", "--channel", "gaussian", "--snr", "1",
        )
        assert code == 0
        assert json.loads(out)["log10_n"] == pytest.approx(15.0, abs=0.5)

    def test_infeasible_exit_two(self, capsys):
        code, _, _ = run_cli(
            capsys, "complexity", "--eps", "1e-12", "--perr", "0.2",
            "--estimator", "clipped", "--channel", "gaussian", "--snr", "1",
        )
        assert code == 2


class TestExperiment:
    def test_runs_config_and_writes_artifacts(self, capsys, tmp_path):
        config = {
            "kind": "histogram",
            "channel": {"input": "gaussian", "snr": 1.0},
            "n_list": [200],
            "trials": 3,
            "seed": 5,
            "output_path": str(tmp_path / "fig5"),
        }
        path = tmp_path / "fig5.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 0
        assert (tmp_path / "fig5_hist.csv").exists()
        report = json.loads((tmp_path / "fig5_report.json").read_text())
        assert report["kind"] == "histogram"

    def test_bad_config_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "histogram"}))
        code, _, _ = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 1


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "estimate", "--frobnicate")[0] == 1
