"""Tests for the command-line front end (run in-process)."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from fisherinfo import (
    EstimatorConfig,
    SampleSet,
    estimate,
    gaussian_channel,
    lemma_clip_envelope,
    mmse_from_fisher,
    sample_channel,
)
from fisherinfo.bounds import (
    bhattacharya_error_bound,
    clipped_error_bound,
    confidence_bound,
    gaussian_tail_model,
)
from fisherinfo.cli import _print_json, main


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
        assert json.loads(out)["value"] == estimate(samples, config).value

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

    @pytest.mark.parametrize("count", ["1000.7", "1000.5", "1e-1"])
    def test_fractional_sample_count_is_usage_error(self, capsys, count):
        code, out, err = run_cli(
            capsys, "estimate", "--channel", "gaussian", "--snr", "1",
            "--n", count, "--estimator", "bhattacharya",
            "--a0", "0.3", "--a1", "0.3", "--kn", "6",
        )
        assert code == 1 and out == ""
        assert "argument --n: must be an integer" in err

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

    def test_zero_snr_mmse_is_usage_error(self, capsys, tmp_path):
        # Brown's identity mmse = (1 - I)/snr needs snr > 0.
        path = tmp_path / "vals.txt"
        SampleSet(np.linspace(-1, 1, 50)).to_file(path)
        code, out, err = run_cli(
            capsys, "estimate", "--input", str(path), "--estimator",
            "bhattacharya", "--a0", "0.5", "--a1", "0.5", "--kn", "3",
            "--grid", "101", "--snr", "0",
        )
        assert code == 1
        assert out == ""
        assert "snr" in err

    @pytest.mark.parametrize("estimator", ["bhattacharya", "clipped"])
    def test_mmse_key_is_brown_transform_of_value(self, capsys, estimator):
        code, out, _ = run_cli(
            capsys, "estimate", "--channel", "gaussian", "--snr", "1",
            "--n", "1000", "--estimator", estimator,
            "--a0", "0.3", "--a1", "0.3", "--kn", "8",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["estimator"] == estimator
        assert payload["mmse"] == mmse_from_fisher(payload["value"], 1.0)

    def test_mmse_only_when_snr_known(self, capsys, tmp_path):
        path = tmp_path / "vals.txt"
        SampleSet(np.linspace(-1, 1, 50)).to_file(path)
        argv = ("estimate", "--input", str(path), "--estimator", "bhattacharya",
                "--a0", "0.5", "--a1", "0.5", "--kn", "3", "--grid", "101")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "mmse" not in json.loads(out)
        code, out, _ = run_cli(capsys, *argv, "--snr", "2")
        payload = json.loads(out)
        assert payload["mmse"] == mmse_from_fisher(payload["value"], 2.0)

    @pytest.mark.parametrize("estimator", ["mmse_bhattacharya", "mmse_clipped"])
    def test_mmse_estimator_kinds_are_usage_errors(self, capsys, estimator):
        code, out, err = run_cli(
            capsys, "estimate", "--channel", "gaussian", "--snr", "1",
            "--n", "1000", "--estimator", estimator,
            "--a0", "0.3", "--a1", "0.3", "--kn", "8",
        )
        assert code == 1
        assert out == ""
        assert "invalid choice" in err

    @pytest.mark.parametrize("flag", ["--a0", "--a1", "--kn"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_config_is_usage_error(self, capsys, flag, value):
        argv = {"--a0": "0.3", "--a1": "0.3", "--kn": "8", flag: value}
        code, out, err = run_cli(
            capsys, "estimate", "--channel", "gaussian", "--snr", "1",
            "--n", "1000", "--estimator", "bhattacharya",
            *(tok for item in argv.items() for tok in item),
        )
        assert code == 1
        assert out == ""
        name = {"--a0": "a0", "--a1": "a1", "--kn": "k_n"}[flag]
        assert f"{name} must be positive and finite" in err

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


class TestEnvelopeFlags:
    """--rho-bar is read only by the clipped estimator, and --var only by
    --rho-bar lemma1 on a sample file; anywhere else each is exit 1."""

    BANDS = ("--a0", "0.3", "--a1", "0.3", "--kn", "5", "--grid", "101")
    CHANNEL = ("--channel", "binary", "--snr", "25", "--n", "200")

    @pytest.fixture
    def sample_file(self, tmp_path):
        path = tmp_path / "vals.txt"
        SampleSet(np.linspace(-1, 1, 50)).to_file(path)
        return ("--input", str(path))

    def test_lemma1_from_file_reads_var(self, capsys, sample_file):
        code, out, _ = run_cli(
            capsys, "estimate", *sample_file, "--estimator", "clipped", *self.BANDS,
            "--rho-bar", "lemma1", "--snr", "2", "--var", "0.5",
        )
        assert code == 0
        samples = SampleSet.from_file(sample_file[1])
        config = EstimatorConfig(a0=0.3, a1=0.3, k_n=5.0, grid_points=101)
        want = estimate(samples, config, lemma_clip_envelope(2.0 * 0.5))
        assert json.loads(out)["value"] == want.value

    @pytest.mark.parametrize("source", ["file", "channel"])
    @pytest.mark.parametrize("rho_bar", ["lemma1", "const:10"])
    def test_rho_bar_with_plugin_is_usage_error(
        self, capsys, sample_file, source, rho_bar
    ):
        src = sample_file if source == "file" else self.CHANNEL
        code, out, err = run_cli(
            capsys, "estimate", *src, "--estimator", "bhattacharya", *self.BANDS,
            "--rho-bar", rho_bar,
        )
        assert (code, out) == (1, "")
        assert "--rho-bar is read only with --estimator clipped" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--estimator", "bhattacharya"),
            ("--estimator", "clipped", "--rho-bar", "const:10"),
            ("--estimator", "clipped", "--rho-bar", "lemma1"),
            ("--estimator", "clipped"),
        ],
    )
    def test_var_with_a_channel_is_usage_error(self, capsys, argv):
        # A built-in law's moments are its own: --var cannot rewrite them.
        code, out, err = run_cli(
            capsys, "estimate", *self.CHANNEL, *argv, *self.BANDS, "--var", "0.01"
        )
        assert (code, out) == (1, "")
        assert ("--var is read only with --input --estimator clipped "
                "--rho-bar lemma1") in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--estimator", "bhattacharya", "--snr", "2"),
            ("--estimator", "clipped", "--rho-bar", "const:10"),
        ],
    )
    def test_var_unread_on_a_file_is_usage_error(self, capsys, sample_file, argv):
        code, out, err = run_cli(
            capsys, "estimate", *sample_file, *argv, *self.BANDS, "--var", "1"
        )
        assert (code, out) == (1, "")
        assert ("--var is read only with --input --estimator clipped "
                "--rho-bar lemma1") in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("complexity", "--eps", "0.9", "--perr", "0.2", "--estimator",
             "clipped", "--channel", "binary", "--snr", "25"),
            ("density", "--channel", "gaussian", "--snr", "1", "--n", "100",
             "--a", "0.3", "--output", "unused.csv"),
        ],
    )
    def test_var_is_no_flag_of_other_subcommands(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--var", "0.01")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --var" in err


class TestUnreadFlags:
    """A flag its mode does not read must stay unset, and a flag its mode
    needs must be given: either way exit 1, naming the flag."""

    BANDS = ("--estimator", "bhattacharya", "--a0", "0.3", "--a1", "0.3",
             "--kn", "5", "--grid", "101")
    THEOREM_2 = ("bounds", "--theorem", "2", "--eps0", "1e-6", "--eps1", "1e-6",
                 "--kn", "2", "--var", "1", "--ex2", "1")
    THEOREM_5 = ("bounds", "--theorem", "5", "--n", "1e20", "--var", "1", "--ex2", "1")

    @pytest.fixture
    def sample_file(self, tmp_path):
        path = tmp_path / "vals.txt"
        SampleSet(np.linspace(-1, 1, 300)).to_file(path)
        return str(path)

    @pytest.mark.parametrize(
        "extra, named",
        [
            (("--channel", "binary", "--n", "50", "--seed", "9"),
             ("--channel", "--n", "--seed")),
            (("--seed", "0"), ("--seed",)),
            (("--n", "50"), ("--n",)),
        ],
    )
    @pytest.mark.parametrize("subcommand", ["estimate", "density"])
    def test_file_source_reads_no_channel_flags(
        self, capsys, sample_file, tmp_path, subcommand, extra, named
    ):
        args = self.BANDS if subcommand == "estimate" else (
            "--a", "0.3", "--output", str(tmp_path / "d.csv"))
        code, out, err = run_cli(
            capsys, subcommand, "--input", sample_file, *args, *extra
        )
        assert (code, out) == (1, "")
        for flag in named:
            assert f"{flag} is read only without --input" in err

    def test_density_from_file_reads_no_snr(self, capsys, sample_file, tmp_path):
        code, out, err = run_cli(
            capsys, "density", "--input", sample_file, "--a", "0.3",
            "--output", str(tmp_path / "d.csv"), "--snr", "1",
        )
        assert (code, out) == (1, "")
        assert "--snr is read only without --input" in err
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize(
        "argv, named",
        [
            (THEOREM_2 + ("--df", "7", "--u", "0.1", "--n", "100"),
             ("--df", "--u", "--n")),
            (THEOREM_5 + ("--u", "0.05", "--w", "0.15", "--kn", "2"), ("--kn",)),
            (("bounds", "--theorem", "4", "--eps0", "1e-3", "--eps1", "1e-3",
              "--kn", "3", "--var", "1", "--ex2", "1", "--df", "1"),
             ("--df",)),
            (THEOREM_2 + ("--w0", "0.1"), ("--w0",)),
        ],
    )
    def test_bounds_flag_of_another_theorem(self, capsys, argv, named):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        for flag in named:
            assert f"{flag} is read only with --theorem" in err

    @pytest.mark.parametrize(
        "argv, missing",
        [
            (THEOREM_5, "bounds with --theorem 5 needs --u, --w"),
            (("bounds", "--theorem", "6", "--n", "1e6", "--u", "0.05", "--w0",
              "0.2", "--var", "4", "--ex2", "4"),
             "bounds with --theorem 6 needs --w1"),
            (("bounds", "--theorem", "3", "--var", "1", "--ex2", "1"),
             "bounds with --theorem 2, 3 or 4 needs --kn"),
            (("estimate", "--channel", "gaussian", "--snr", "1") + BANDS,
             "estimate without --input needs --n"),
        ],
    )
    def test_missing_needed_flag_is_usage_error(self, capsys, argv, missing):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert missing in err


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
        assert b"\r" not in out_path.read_bytes()
        lines = out_path.read_text().splitlines()
        assert lines[0] == "# t,f_n,f_n_deriv"
        assert len(lines) == 602
        density = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert np.all(density >= 0)

    def test_bad_grid_range(self, capsys):
        code, _, _ = run_cli(
            capsys, "density", "--channel", "gaussian", "--snr", "1",
            "--n", "100", "--a", "0.3", "--grid-range", "oops",
        )
        assert code == 1

    @pytest.mark.parametrize("grid_range", ["nan:1", "inf:2", "5:-5", "1:1"])
    def test_grid_range_not_finite_and_increasing_usage_error(
        self, capsys, tmp_path, grid_range
    ):
        out_path = tmp_path / "d.csv"
        code, out, err = run_cli(
            capsys, "density", "--channel", "gaussian", "--snr", "1",
            "--n", "100", "--a", "0.3", "--grid-range", grid_range,
            "--grid-points", "5", "--output", str(out_path),
        )
        assert (code, out) == (1, "")
        assert "--grid-range" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_fewer_than_two_grid_points_usage_error(self, capsys, tmp_path, points):
        out_path = tmp_path / "d.csv"
        code, out, err = run_cli(
            capsys, "density", "--channel", "gaussian", "--snr", "1",
            "--n", "100", "--a", "0.3", "--grid-points", points,
            "--output", str(out_path),
        )
        assert (code, out) == (1, "")
        assert "--grid-points" in err
        assert not out_path.exists()


def _readme_bounds_examples():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = re.findall(r"^fisherinfo (bounds .*)$", readme.replace("\\\n", " "), re.M)
    return [shlex.split(line) for line in lines]


class TestBounds:
    def test_readme_examples_with_snr_fail(self, capsys):
        # The bounds read the signal's moments; a command line written for
        # the X-scale flags, which all carried --snr, must not run.
        examples = _readme_bounds_examples()
        assert len(examples) == 5
        for argv in examples:
            assert run_cli(capsys, *argv)[0] == 0
            code, out, err = run_cli(capsys, *argv, "--snr", "1")
            assert (code, out) == (1, ""), argv
            assert "--snr" in err

    def test_schedule_bound_prints_constants(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--theorem", "5", "--n", "1e20", "--u", "0.05",
            "--w", "0.15", "--var", "1", "--ex2", "1", "--alpha", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "phi_kn", "rho_max_kn", "c_kn", "k_n", "eps0", "eps1", "eps_n",
            "p_err", "vacuous",
        }
        # Theorem 5 is Theorem 2 at the schedule point.
        assert payload["eps0"] == payload["eps1"] == pytest.approx(1e-3)
        assert payload["eps_n"] == bhattacharya_error_bound(
            payload["eps0"], payload["eps1"], payload["k_n"],
            gaussian_tail_model(1.0, 1.0, 1.0),
        )
        assert payload["eps_n"] == pytest.approx(1.39596, abs=1e-5)
        assert 0 <= payload["p_err"] <= 1

    def test_clipped_schedule_is_theorem_4(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--theorem", "6", "--n", "1e6", "--u", "0.05",
            "--w0", "0.2", "--w1", "0.15", "--var", "4", "--ex2", "4",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["eps_n"] == pytest.approx(36.947, abs=1e-3)
        assert payload["eps_n"] == clipped_error_bound(
            payload["eps0"], payload["eps1"], payload["k_n"],
            gaussian_tail_model(4.0, 4.0),
        )

    def test_schedule_below_theorem_2_hypothesis_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "--theorem", "5", "--n", "1e6", "--u", "0.05",
            "--w", "0.15", "--var", "1", "--ex2", "1",
        )
        assert code == 2
        assert "phi" in err

    def test_phi_overflow_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "--theorem", "2", "--kn", "27", "--var", "1",
            "--ex2", "1",
        )
        assert code == 2
        assert "phi(k_n) overflows" in err

    def test_overflowing_phi_prints_null(self, capsys):
        def strict(const):
            raise ValueError(f"non-finite JSON constant {const}")

        code, out, _ = run_cli(
            capsys, "bounds", "--theorem", "4", "--eps0", "1e-3", "--eps1",
            "1e-3", "--kn", "27", "--var", "1", "--ex2", "1",
            "--alpha", "1",
        )
        assert code == 0
        payload = json.loads(out, parse_constant=strict)
        assert payload["phi_kn"] is None
        assert payload["bound"] > 0

    @pytest.mark.parametrize(
        "theorem, extra, code_want, message",
        [
            ("2", (), 2, "phi(k_n) overflows"),
            ("3", (), 2, "phi(k_n) overflows"),
            ("4", (), 1, "score envelope integrals must be finite"),
        ],
    )
    def test_huge_kn(self, capsys, theorem, extra, code_want, message):
        code, out, err = run_cli(
            capsys, "bounds", "--theorem", theorem, "--eps0", "1e-6", "--eps1",
            "1e-6", "--kn", "1e200", "--var", "1", "--ex2", "1",
            *extra,
        )
        assert (code, out) == (code_want, "")
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("theorem", ["2", "3", "4"])
    @pytest.mark.parametrize("kn", ["nan", "inf", "0", "-2"])
    def test_non_finite_or_non_positive_kn_usage_error(self, capsys, theorem, kn):
        code, out, err = run_cli(
            capsys, "bounds", "--theorem", theorem, "--kn", kn, "--var", "1",
            "--ex2", "1",
        )
        assert (code, out) == (1, "")
        assert "k_n must be finite and positive" in err

    @pytest.mark.parametrize("flag", ["--var", "--alpha"])
    def test_non_finite_parameter_usage_error(self, capsys, flag):
        argv = {"--var": "1", "--ex2": "1", flag: "nan"}
        code, out, err = run_cli(
            capsys, "bounds", "--theorem", "2", "--eps0", "1e-6", "--eps1",
            "1e-6", "--kn", "2", *[x for kv in argv.items() for x in kv],
        )
        assert code == 1
        assert out == ""
        assert "finite" in err

    def test_pure_noise_is_valid(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--theorem", "2", "--eps0", "1e-6", "--eps1",
            "1e-6", "--kn", "2", "--var", "0", "--ex2", "0",
        )
        assert code == 0
        assert json.loads(out)["rho_max_kn"] == 6.0

    def test_error_bound_reports_envelopes(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--theorem", "2", "--eps0", "1e-6",
            "--eps1", "1e-6", "--kn", "2", "--var", "1", "--ex2", "1",
            "--alpha", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"phi_kn", "rho_max_kn", "c_kn", "bound"}

    def test_hypothesis_violation_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "--theorem", "2", "--eps0", "1", "--eps1", "0",
            "--kn", "2", "--var", "1", "--ex2", "1",
        )
        assert code == 2
        assert "phi" in err

    def test_negative_zero_count_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "--theorem", "3", "--eps0", "1e-4", "--eps1",
            "1e-4", "--kn", "2", "--var", "1", "--ex2", "1", "--df", "-3",
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
            capsys, "bounds", *argv, "--var", "1", "--ex2", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["vacuous"] is vacuous
        assert (payload["p_err"] >= 1.0) is vacuous
        # The raw tail sum is printed unclipped.
        # The plug-in schedule has w0 = w1 = w.
        flags = dict(zip(argv[::2], argv[1::2]))
        w0, w1 = (float(flags.get(k, flags.get("--w"))) for k in ("--w0", "--w1"))
        assert payload["p_err"] == confidence_bound(float(flags["--n"]), w0, w1)

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

    @pytest.mark.parametrize(
        "key, value", [("trials", 2.5), ("n_list", [1e3]), ("seed", 1.5)]
    )
    def test_non_integer_field_usage_error(self, capsys, tmp_path, key, value):
        config = {"kind": "histogram", "channel": {"input": "gaussian", "snr": 1.0},
                  "n_list": [200], key: value, "output_path": str(tmp_path / "x")}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "must be an integer" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    def test_bad_config_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "histogram"}))
        code, _, _ = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 1


class TestStrictJson:
    def test_non_finite_payload_is_refused(self, capsys):
        # No payload can print NaN or Infinity: the writer refuses them.
        with pytest.raises(ValueError):
            _print_json({"x": float("inf")})
        assert capsys.readouterr().out == ""


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "estimate", "--frobnicate")[0] == 1
