"""fisherinfo benchmark: end-to-end and per-layer performance.

Run from the root of a checkout:

    python3 bench/run.py --workload trials --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each exists):

* ``trials``     -- repeated-trial estimation through
                    ``experiments.run_histogram`` with artifacts written;
* ``complexity`` -- the 9+9-cell sample-complexity table for both
                    estimators, one ``bounds.sample_complexity`` call per cell;
* ``cli_file``   -- ``cli.main(["estimate", "--input", FILE, ...])`` on one
                    n = 1e5 sample file written during set-up.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it sets up once with tracing on, runs an untraced pass for
half of ``--seconds``, replays the same calls with every layer wrapped
(see spans.py), checks that both passes gave identical outputs, and
reports the per-layer metrics.

Standard output ends with two JSON lines: a record of the environment,
parameters and result checksums, then the result
``{"correct", "attempted", "failed", "metrics"}``. The package is imported
from ``src/`` of the checkout; if it is missing the run exits non-zero
without a result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per untraced run; setup_s is their median.
SETUP_REPS = 5

_MODULES = ("bounds", "channel", "cli", "estimators", "experiments", "kernels", "samples")


def import_fisherinfo() -> SimpleNamespace:
    """Import fisherinfo afresh from the checkout's src/ (numpy stays loaded),
    so every set-up pays the package's own import cost."""
    for name in [m for m in sys.modules if m == "fisherinfo" or m.startswith("fisherinfo.")]:
        del sys.modules[name]
    pkg = importlib.import_module("fisherinfo")
    if Path(pkg.__file__).resolve().parent != SRC / "fisherinfo":
        raise ImportError(f"fisherinfo imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"fisherinfo.{m}") for m in _MODULES})


def derive_seed(seed: int, *key: int) -> int:
    """A 64-bit seed for one purpose, derived from the benchmark seed.

    The low 8 bits are clear, so the library's per-trial seeds
    master ^ trial (trial < 256) of two distinct masters never coincide.
    """
    hi, lo = np.random.SeedSequence(seed, spawn_key=key).generate_state(2, np.uint32)
    return ((int(hi) << 32 | int(lo)) >> 8) << 8


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


@dataclass
class Checked:
    """One call as the benchmark judged it."""

    items: int
    ms: float = 0.0
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    abs_errors: list[float] = field(default_factory=list)
    key: object = None
    value: object = None


# ---------------------------------------------------------------------------
# Workloads. Each calls into fisherinfo only through module attributes
# (fi.experiments.run_histogram, ...), so the traced run's wrappers see it.

_SEED_FILE, _SEED_BATCH, _SEED_WARMUP, _SEED_ORDER = range(4)


class Workload:
    name = ""
    #: Calls in one round, which visits every input kind once. Passes end on
    #: a round boundary, so every run sees the same mix of calls.
    round = 1
    threads = 1
    predicted_zero: tuple[str, ...] = ()

    def reset_seeds(self) -> None:
        """Forget the seeds used so far (before a deliberate replay)."""

    def finish(self, checked: list[Checked]) -> None:
        """Checks that span several calls; they add to each call's problems."""

    def log10_means(self, checked: list[Checked]) -> dict[str, float]:
        """Mean certified log10 n per estimator, for workloads that certify."""
        return {}


class Trials(Workload):
    """Repeated-trial estimation, both input laws x both Fisher estimators."""

    name = "trials"
    n = 10_000
    trials = 2
    threads = 2
    round = 4
    tolerance = 0.05
    predicted_zero = (
        "bounds.sample_complexity.calls",
        "bounds.lemma2_tail.calls",
        "bounds.channel_score_integrals.calls",
        "samples.from_file.calls",
        "cli.main.calls",
    )

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.trial_seeds: set[int] = set()
        self.params = {
            "n": self.n,
            "trials_per_call": self.trials,
            "threads": self.threads,
            "laws": ["gaussian", "binary"],
            "snr": 1.0,
            "estimators": ["bhattacharya", "clipped"],
            "schedule": "a = n^-1/6, k_n = log n, grid 2001",
            "tolerance": self.tolerance,
        }

    def reset_seeds(self) -> None:
        self.trial_seeds.clear()

    def setup(self, fi, rep: int) -> None:
        self.combos = [
            (law, kind)
            for law in (fi.channel.gaussian_channel(1.0), fi.channel.binary_channel(1.0))
            for kind in (fi.estimators.EstimatorKind.BHATTACHARYA,
                         fi.estimators.EstimatorKind.CLIPPED)
        ]
        self.truth = {c.input: fi.channel.true_fisher(c) for c, _ in self.combos}
        warm = (self.combos[0], derive_seed(self.seed, _SEED_WARMUP, rep),
                self.workdir / f"warmup{rep}")
        checked = self.check(fi, warm, self.call(fi, warm))
        if checked.problems:
            raise RuntimeError(f"warm-up call failed: {checked.problems}")

    def args(self, fi, i: int):
        master = derive_seed(self.seed, _SEED_BATCH, i)
        return self.combos[i % len(self.combos)], master, self.workdir / f"b{i}"

    def call(self, fi, args):
        (channel, kind), master, path = args
        seeds = {fi.channel.trial_seed(master, t) for t in range(self.trials)}
        if len(seeds) < self.trials or seeds & self.trial_seeds:
            raise RuntimeError(f"trial seed collision for master seed {master}")
        self.trial_seeds |= seeds
        config = fi.experiments.ExperimentConfig(
            kind=fi.experiments.ExperimentKind.HISTOGRAM,
            channel=channel,
            n_list=(self.n,),
            trials=self.trials,
            estimator=kind,
            seed=master,
            output_path=str(path),
            threads=self.threads,
        )
        report = fi.experiments.run_histogram(config)
        return report, report.write(config.output_path)

    def check(self, fi, args, out) -> Checked:
        (channel, _), _, _ = args
        report, paths = out
        label = f"n{self.n}"
        est = np.asarray(report.per_trial_estimates.get(label, []), dtype=float)
        res = Checked(items=self.trials)
        if est.shape != (self.trials,) or not np.all(np.isfinite(est)):
            res.problems.append(f"estimates not {self.trials} finite values: {est}")
            return res
        res.abs_errors = [float(e) for e in np.abs(est - self.truth[channel.input])]
        if max(res.abs_errors) > self.tolerance:
            res.problems.append(f"estimate off truth by {max(res.abs_errors)}")
        csv_path, json_path = paths
        csv_text, json_text = Path(csv_path).read_text(), Path(json_path).read_text()
        res.digest = _digest(csv_text.encode(), json_text.encode())
        rows = [r for r in csv.reader(io.StringIO(csv_text)) if r and not r[0].startswith("#")]
        if [float(r[2]) for r in rows] != list(est):
            res.problems.append("CSV estimates do not match the report")
        payload = json.loads(json_text)
        if payload.get("per_trial_estimates", {}).get(label) != list(est):
            res.problems.append("JSON estimates do not match the report")
        return res


class Complexity(Workload):
    """The 9+9-cell sample-complexity table for both estimators."""

    name = "complexity"
    snr = 1.0
    grid = tuple(round(0.1 * i, 1) for i in range(1, 10))
    eps_fixed = 0.5
    perr_fixed = 0.2
    predicted_zero = (
        "kernels.kde_profile.calls",
        "estimators.estimate.calls",
        "channel.sample_channel.calls",
        "samples.from_file.calls",
        "cli.main.calls",
    )

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        # (sweep, eps, p_err): sweep 0 varies eps, sweep 1 varies p_err. Both
        # sweeps hold (0.5, 0.2), as in experiments.run_complexity.
        cells = [(0, eps, self.perr_fixed) for eps in self.grid]
        cells += [(1, self.eps_fixed, perr) for perr in self.grid]
        self.cells = [cell + (kind,) for cell in cells for kind in ("bhattacharya", "clipped")]
        self.round = len(self.cells)
        # Each pass visits the cells in a seed-dependent order.
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_SEED_ORDER,)))
        self.order = [int(j) for j in rng.permutation(len(self.cells))]
        self.params = {
            "channel": "gaussian",
            "snr": self.snr,
            "eps_grid": list(self.grid),
            "perr_fixed": self.perr_fixed,
            "perr_grid": list(self.grid),
            "eps_fixed": self.eps_fixed,
            "cells": len(self.cells),
        }

    def setup(self, fi, rep: int) -> None:
        self.channel = fi.channel.gaussian_channel(self.snr)
        # The same cell every time, so set-up does the same work for every seed.
        warm = (0, self.eps_fixed, self.perr_fixed, "bhattacharya")
        checked = self.check(fi, warm, self.call(fi, warm))
        if checked.problems:
            raise RuntimeError(f"warm-up call failed: {checked.problems}")

    def args(self, fi, i: int):
        return self.cells[self.order[i % len(self.cells)]]

    def call(self, fi, args):
        _, eps, perr, kind = args
        return fi.bounds.sample_complexity(
            eps, perr, fi.estimators.EstimatorKind(kind), self.channel
        )

    def check(self, fi, args, out) -> Checked:
        res = Checked(items=1, key=args, value=out.log10_n)
        res.digest = _digest(json.dumps(out.to_dict(), sort_keys=True).encode())
        if not (math.isfinite(out.log10_n) and out.log10_n > 0):
            res.problems.append(f"cell {args}: log10 n = {out.log10_n}")
        return res

    def finish(self, checked: list[Checked]) -> None:
        """Cross-cell checks: every repeat of a cell gives the same result,
        and the clipped certificate is below the plug-in one in every cell."""
        first: dict[object, Checked] = {}
        for c in checked:
            if c.key is None:
                continue
            if c.key in first and c.digest != first[c.key].digest:
                c.problems.append(f"cell {c.key}: result differs from its first run")
            first.setdefault(c.key, c)
        for sweep, eps, perr, kind in self.cells:
            if kind != "clipped":
                continue
            plug = first.get((sweep, eps, perr, "bhattacharya"))
            clip = first.get((sweep, eps, perr, kind))
            if plug is None or clip is None or plug.problems or clip.problems:
                continue
            if not clip.value < plug.value:
                msg = f"cell ({eps}, {perr}): clipped {clip.value} >= plug-in {plug.value}"
                clip.problems.append(msg)
                plug.problems.append(msg)

    def log10_means(self, checked: list[Checked]) -> dict[str, float]:
        per_kind: dict[str, dict] = {"bhattacharya": {}, "clipped": {}}
        for c in checked:
            if c.key is not None and not c.problems:
                per_kind[c.key[3]].setdefault(c.key[:3], c.value)
        return {kind: statistics.fmean(v.values()) if v else 0.0 for kind, v in per_kind.items()}


class CliFile(Workload):
    """In-process CLI estimates on one n = 1e5 sample file."""

    name = "cli_file"
    n = 100_000
    snr = 1.0
    round = 2
    tolerance = 0.03
    #: Grid of the set-up's warm-up call. It runs every code path of a timed
    #: call, file parsing included, without a full O(n*G) kernel sum.
    warmup_grid = 5
    predicted_zero = (
        "bounds.sample_complexity.calls",
        "bounds.lemma2_tail.calls",
        "bounds.channel_score_integrals.calls",
        "experiments.run_histogram.busy_s",
    )

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.path = workdir / "samples.txt"
        a = float(self.n) ** (-1.0 / 6.0)
        self.base_argv = [
            "estimate", "--input", str(self.path), "--a0", repr(a), "--a1", repr(a),
            "--kn", repr(math.log(self.n)),
        ]
        self.params = {
            "n": self.n,
            "channel": "gaussian",
            "snr": self.snr,
            "estimators": ["bhattacharya", "clipped --rho-bar lemma1"],
            "schedule": "a = n^-1/6, k_n = log n, grid 2001",
            "warmup_grid": self.warmup_grid,
            "tolerance": self.tolerance,
        }

    def setup(self, fi, rep: int) -> None:
        channel = fi.channel.gaussian_channel(self.snr)
        self.truth = fi.channel.true_fisher(channel)
        samples = fi.channel.sample_channel(channel, self.n, derive_seed(self.seed, _SEED_FILE))
        samples.to_file(self.path)
        warm = self.base_argv + ["--estimator", "bhattacharya", "--grid", str(self.warmup_grid)]
        code, stdout, stderr = self.call(fi, warm)
        if code != 0 or json.loads(stdout)["n"] != self.n:
            raise RuntimeError(f"warm-up call failed with exit code {code}: {stderr}")

    def args(self, fi, i: int):
        if i % 2 == 0:
            return self.base_argv + ["--estimator", "bhattacharya", "--grid", "2001"]
        return self.base_argv + ["--estimator", "clipped", "--grid", "2001", "--rho-bar",
                                 "lemma1", "--snr", repr(self.snr), "--var", "1.0"]

    def call(self, fi, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fi.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def check(self, fi, argv, out) -> Checked:
        code, stdout, stderr = out
        res = Checked(items=1, digest=_digest(stdout.encode()))
        if code != 0:
            res.problems.append(f"exit code {code}: {stderr.strip()}")
            return res
        try:
            payload = json.loads(stdout)
            value, n = float(payload["value"]), int(payload["n"])
        except (ValueError, KeyError, TypeError) as exc:
            res.problems.append(f"unreadable CLI output: {exc}")
            return res
        if not math.isfinite(value):
            res.problems.append(f"non-finite estimate {value}")
            return res
        res.abs_errors = [abs(value - self.truth)]
        if res.abs_errors[0] > self.tolerance:
            res.problems.append(f"estimate {value} off truth {self.truth}")
        if n != self.n:
            res.problems.append(f"CLI reports n = {n}, file holds {self.n}")
        return res


WORKLOADS = {w.name: w for w in (Trials, Complexity, CliFile)}


# ---------------------------------------------------------------------------
# Harness


def run_pass(wl, fi, seconds: float | None, count: int | None = None, tracer=None):
    """Call the workload in whole rounds until `seconds` have passed, or
    exactly `count` times. Outputs are checked after the pass, outside the
    timed wall."""
    raw = []
    t0 = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i % wl.round == 0 and i > 0 and time.perf_counter() - t0 >= seconds:
            break
        args = wl.args(fi, i)
        if tracer is not None:
            tracer.call = i
        start = time.perf_counter()
        try:
            out, error = wl.call(fi, args), None
        except Exception:  # a failed call is counted, and the run goes on
            out, error = None, traceback.format_exc()
        raw.append((args, out, error, time.perf_counter() - start))
        i += 1
    wall = time.perf_counter() - t0
    checked = []
    for args, out, error, dt in raw:
        if error is None:
            try:
                c = wl.check(fi, args, out)
            except Exception:
                c = Checked(items=0, problems=[traceback.format_exc()])
        else:
            c = Checked(items=0, problems=[error])
        c.ms = dt * 1e3
        checked.append(c)
    wl.finish(checked)
    for c in checked:
        if c.problems:
            print(f"call failed: {c.problems[0]}", file=sys.stderr)
    return checked, wall


def tail_rank(count: int) -> int:
    """Index into the sorted latencies of the highest percentile with at
    least 10 samples beyond it; the maximum when there are 10 or fewer."""
    return count - 11 if count > 10 else count - 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def quality(wl, checked: list[Checked]) -> dict[str, float]:
    errs = [e for c in checked if not c.problems for e in c.abs_errors]
    out = {"estimators.abs_err_p50": statistics.median(errs) if errs else 0.0}
    means = wl.log10_means(checked)
    out["bounds.log10_n_bhattacharya"] = means.get("bhattacharya", 0.0)
    out["bounds.log10_n_clipped"] = means.get("clipped", 0.0)
    return out


def record(wl, args, checked: list[Checked], extra: dict) -> dict:
    usable = len(os.sched_getaffinity(0))
    rec = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable,
        "params": wl.params,
        "calls": len(checked),
        "result_checksum": _digest(*(c.digest.encode() for c in checked)),
        "quality": quality(wl, checked),
    }
    if wl.threads > usable:
        rec["oversubscribed"] = f"{wl.threads} threads on {usable} usable CPUs"
        print(f"warning: {wl.name} oversubscribes: {rec['oversubscribed']}", file=sys.stderr)
    rec.update(extra)
    return rec


def untraced_run(wl, args) -> tuple[dict, dict]:
    setup_times = []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        fi = import_fisherinfo()
        wl.setup(fi, rep)
        setup_times.append(time.perf_counter() - t0)
    checked, wall = run_pass(wl, fi, args.seconds)
    ms = sorted(c.ms for c in checked)
    rank = tail_rank(len(ms))
    failed = sum(1 for c in checked if c.problems)
    metrics = {
        "items_per_s": (sum(c.items for c in checked if not c.problems) / wall, "1/s"),
        "call_ms_p50": (statistics.median(ms), "ms"),
        "call_ms_tail": (ms[rank], "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_frac": (1.0 - failed / len(checked), "frac"),
    }
    extra = {
        "setup_s_each": setup_times,
        "timed_wall_s": wall,
        "call_ms_tail_percentile": 100.0 * (rank + 1) / len(ms),
        "call_ms_tail_beyond": len(ms) - 1 - rank,
    }
    result = {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record(wl, args, checked, extra)


def traced_run(wl, args) -> tuple[dict, dict]:
    tracer = spans.Tracer()
    fi = import_fisherinfo()
    tracer.call = spans.SETUP
    tracer.install(fi)
    try:
        wl.setup(fi, 0)
    finally:
        tracer.restore()
    problems = [f"not restored after set-up: {n}" for n in spans.leftover_wrappers()]

    plain, plain_wall = run_pass(wl, fi, args.seconds / 2.0)
    wl.reset_seeds()
    tracer.install(fi)
    try:
        traced, traced_wall = run_pass(wl, fi, None, count=len(plain), tracer=tracer)
    finally:
        tracer.restore()
    problems += [f"not restored after the traced pass: {n}" for n in spans.leftover_wrappers()]
    differ = [i for i, (a, b) in enumerate(zip(plain, traced)) if a.digest != b.digest]
    if differ:
        problems.append(f"traced outputs differ from untraced ones at calls {differ}")

    metrics = spans.layer_metrics(tracer, rounds=len(traced) // wl.round)
    problems += [f"{name} = {metrics[name]}, predicted 0"
                 for name in wl.predicted_zero if metrics[name] != 0]
    metrics.update(quality(wl, plain))
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    for p in problems:
        print(f"trace self-test: {p}", file=sys.stderr)

    checked = plain + traced
    failed = sum(1 for c in checked if c.problems)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": spans.unit(k)} for k, v in metrics.items()},
    }
    extra = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
             "spans": len(tracer.spans), "self_test_problems": problems}
    return result, record(wl, args, plain, extra)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    sys.path.insert(0, str(SRC))
    workdir = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        run = traced_run if args.trace else untraced_run
        result, rec = run(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"record": rec}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
