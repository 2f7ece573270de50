"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of each ``fisherinfo`` module at the
name its caller looks up (``from .x import y`` binds ``y`` in the caller at
import time, so a wrapper has to go into the caller's namespace), records
one span per call, and puts every original back in ``restore``. Nothing
under ``src/`` is edited.

A span has a name, start and end (``time.perf_counter``), the id of the
span that was open when it started, and the benchmark call it belongs to.
Work that ``experiments`` hands to its thread pool starts on a worker
thread with an empty stack; it is parented to the span open on the main
thread, which is the ``run_histogram`` call waiting on the pool.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from dataclasses import dataclass

_MARK = "_bench_traced"

#: Tracer.call while the benchmark sets up; any other value is a call index.
SETUP = "setup"


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    call: object


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.call: object = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self) -> tuple[list[int], int | None]:
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            return stack, stack[-1]
        # Slice, not index: the main thread may pop between a check and a read.
        top = self._stacks.get(self._main, [])[-1:]
        return stack, (top[0] if top else None)

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        stack, parent = self._open()
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, self.call))

    def _wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.run(name, fn, *args, **kwargs)
            if count is not None and self.call != SETUP:
                for key, amount in count(args, kwargs, out).items():
                    self.add(key, amount)
            return out

        setattr(traced, _MARK, True)
        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr (a module function, a method or a classmethod)
        by a traced wrapper."""
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            wrapper = classmethod(self._wrap(name, original.__func__, count))
        else:
            wrapper = self._wrap(name, original, count)
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def install(self, fi) -> None:
        for owner, attr, name, count in layer_patches(fi):
            self.patch(owner, attr, name, count)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def leftover_wrappers() -> list[str]:
    """Names in any loaded fisherinfo module or class that still hold a
    traced wrapper; empty after a correct restore."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "fisherinfo" or modname.startswith("fisherinfo.")):
            continue
        for attr, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append(f"{modname}.{attr}")
            if isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in vars(value).items():
                    inner = getattr(cvalue, "__func__", cvalue)
                    if getattr(inner, _MARK, False):
                        found.append(f"{modname}.{attr}.{cattr}")
    return found


# ---------------------------------------------------------------------------
# Layer map: where each public function is looked up, and what it counts.


def _samples_drawn(args, kwargs, out):
    return {"channel.samples_drawn": out.n}


def _file_bytes(args, kwargs, out):
    # Wrapped as a classmethod: args[0] is the class.
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"samples.from_file.bytes": os.path.getsize(path)}


def _pair_evals(args, kwargs, out):
    # kde_profile(samples, a0, a1, grid): one direct-sum pass over n x G
    # pairs per distinct bandwidth.
    samples, a0, a1, grid = args[:4]
    passes = 1 if float(a0) == float(a1) else 2
    return {"kernels.pair_evals": passes * samples.n * len(grid)}


def _written_bytes(args, kwargs, out):
    return {"experiments.write.bytes": sum(os.path.getsize(p) for p in out)}


def layer_patches(fi):
    """(owner, attribute, span name, counter) for every wrapped call site."""
    return [
        (fi.experiments, "sample_channel", "channel.sample_channel", _samples_drawn),
        (fi.cli, "sample_channel", "channel.sample_channel", _samples_drawn),
        (fi.channel, "sample_channel", "channel.sample_channel", _samples_drawn),
        (fi.samples.SampleSet, "from_file", "samples.from_file", _file_bytes),
        (fi.samples.SampleSet, "to_file", "samples.to_file", None),
        (fi.estimators, "kde_profile", "kernels.kde_profile", _pair_evals),
        (fi.cli, "kde_profile", "kernels.kde_profile", _pair_evals),
        (fi.kernels, "kde_profile", "kernels.kde_profile", _pair_evals),
        (fi.estimators, "integrate_values", "quadrature.integrate_values", None),
        (fi.bounds, "integrate", "quadrature.integrate", None),
        (fi.experiments, "estimate", "estimators.estimate", None),
        (fi.cli, "estimate", "estimators.estimate", None),
        (fi.bounds, "sample_complexity", "bounds.sample_complexity", None),
        (fi.experiments, "sample_complexity", "bounds.sample_complexity", None),
        (fi.bounds, "lemma2_tail", "bounds.lemma2_tail", None),
        (fi.bounds, "channel_score_integrals", "bounds.channel_score_integrals", None),
        (fi.experiments, "run_histogram", "experiments.run_histogram", None),
        (fi.experiments.ExperimentReport, "write", "experiments.write", _written_bytes),
        (fi.cli, "main", "cli.main", None),
    ]


# ---------------------------------------------------------------------------
# Per-layer metrics from the recorded spans.

#: Bytes one direct-sum pair evaluation computes: the scaled difference u
#: and its exponential, as float64. A model of the O(n*G) sums, not a
#: measurement of memory traffic.
BYTES_PER_PAIR_EVAL = 16


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes") or metric.endswith("bytes_computed"):
        return "B"
    if metric.startswith("bounds.log10_n"):
        return "log10_n"
    if metric.endswith("_frac") or metric == "experiments.concurrency":
        return "ratio"
    if metric == "trace.rounds":
        return "count"
    if metric == "estimators.abs_err_p50":
        return "fisher"
    return "count"


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def _self_time(span: Span, children: list[Span]) -> float:
    covered = _union_length(
        [(max(c.start, span.start), min(c.end, span.end)) for c in children]
    )
    return (span.end - span.start) - covered


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer metrics of the traced pass, per round of calls.

    Counts and times are divided by the number of rounds replayed; rates and
    ratios are not. samples.to_file runs only in set-up, so its busy time
    is that of the one traced set-up.
    """
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in tracer.spans:
        if s.call == SETUP:
            continue
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(s.end - s.start for s in by_name.get(name, ()))

    def self_s(name):
        return sum(_self_time(s, children.get(s.sid, [])) for s in by_name.get(name, ()))

    def child_busy(name):
        return sum(
            c.end - c.start for s in by_name.get(name, ()) for c in children.get(s.sid, [])
        )

    counts = tracer.counts
    pair_evals = counts.get("kernels.pair_evals", 0)
    total = {
        "channel.sample_channel.calls": calls("channel.sample_channel"),
        "channel.sample_channel.busy_s": busy("channel.sample_channel"),
        "channel.samples_drawn": counts.get("channel.samples_drawn", 0),
        "samples.from_file.calls": calls("samples.from_file"),
        "samples.from_file.busy_s": busy("samples.from_file"),
        "samples.from_file.bytes": counts.get("samples.from_file.bytes", 0),
        "kernels.kde_profile.calls": calls("kernels.kde_profile"),
        "kernels.kde_profile.busy_s": busy("kernels.kde_profile"),
        "kernels.pair_evals": pair_evals,
        "kernels.bytes_computed": pair_evals * BYTES_PER_PAIR_EVAL,
    }
    for name in ("quadrature.integrate_values", "quadrature.integrate",
                 "estimators.estimate", "bounds.sample_complexity",
                 "bounds.lemma2_tail", "bounds.channel_score_integrals", "cli.main"):
        total[f"{name}.calls"] = calls(name)
        total[f"{name}.busy_s"] = busy(name)
    for name in ("estimators.estimate", "bounds.sample_complexity", "cli.main"):
        total[f"{name}.self_s"] = self_s(name)
    total["experiments.run_histogram.busy_s"] = busy("experiments.run_histogram")
    total["experiments.self_s"] = self_s("experiments.run_histogram")
    total["experiments.write.busy_s"] = busy("experiments.write")
    total["experiments.write.bytes"] = counts.get("experiments.write.bytes", 0)

    out = {k: v / rounds for k, v in total.items()}
    out["samples.to_file.busy_s"] = sum(
        s.end - s.start for s in tracer.spans if s.name == "samples.to_file"
    )
    kde_busy = total["kernels.kde_profile.busy_s"]
    out["kernels.pair_evals_per_s"] = pair_evals / kde_busy if kde_busy > 0 else 0.0
    hist_busy = total["experiments.run_histogram.busy_s"]
    out["experiments.concurrency"] = (
        child_busy("experiments.run_histogram") / hist_busy if hist_busy > 0 else 0.0
    )
    out["trace.rounds"] = rounds
    return out
