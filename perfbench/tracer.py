"""Spans and counters recorded around snailopt's layer entry points.

The benchmark measures each layer from outside: :func:`instrument`
swaps the names ``snailopt.harness`` looks up at call time (``run``,
the artifact writers and readers, the statistics functions) for timed
wrappers, and restores them on exit.  No code in ``src/`` is changed.

Hot calls (one per objective evaluation or engine iteration) are
summed into counters and charged to the span they ran in as
``child_busy``; everything else is a span kept in memory until the
benchmark writes it out.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time
from contextlib import contextmanager

from measure import percentile, self_times

perf_counter = time.perf_counter

#: span name -> layer, for the self-time table
LAYER_OF = {
    "rep": "benchmark",
    "harness.campaign": "harness",
    "harness.write": "harness",
    "harness.load": "harness",
    "shms.run": "shms",
    "report.generate": "stats",
    "stats.friedman": "stats",
    "stats.wilcoxon": "stats",
    "stats.closeness": "stats",
}


class Tracer:
    """Spans ``(id, name, start, end, parent, child_busy)`` plus counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.busy: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {}

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": perf_counter(), "end": None, "child_busy": 0.0}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def add_busy(self, name: str, seconds: float, calls: int) -> None:
        """Charge ``seconds`` of ``calls`` un-spanned calls to the open span."""
        self.busy[name] = self.busy.get(name, 0.0) + seconds
        self.count(name, calls)
        if self._open:
            self.spans[self._open[-1]]["child_busy"] += seconds

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def sample(self, name: str, values) -> None:
        self.samples.setdefault(name, []).extend(values)

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


class _ObjectiveProbe:
    """Objective wrapper: busy time, calls, and calls that lowered the best."""

    __slots__ = ("func", "busy", "calls", "improved", "best")

    def __init__(self, func):
        self.func = func
        self.busy = 0.0
        self.calls = 0
        self.improved = 0
        self.best = float("inf")

    def __call__(self, x):
        t0 = perf_counter()
        value = self.func(x)
        self.busy += perf_counter() - t0
        self.calls += 1
        if value < self.best:
            self.best = value
            self.improved += 1
        return value


class _ObserverProbe:
    """Engine observer: iteration timestamps, plus the wrapped observer's time.

    An iteration's time runs from the end of one observer call to the
    start of the next, so neither the harness observer nor this probe
    is counted in it.
    """

    def __init__(self, inner, t_start):
        self.inner = inner
        self.busy = 0.0
        self.calls = 0
        self.init_s = None
        self.iter_s: list[float] = []
        self._last = t_start

    def __call__(self, colony):
        t = perf_counter()
        if self.init_s is None:
            self.init_s = t - self._last
        else:
            self.iter_s.append(t - self._last)
        if self.inner is not None:
            self.inner(colony)
            self.calls += 1
            self.busy += perf_counter() - t
        self._last = perf_counter()


@contextmanager
def instrument(tracer: Tracer):
    """Install the timed wrappers into ``snailopt.harness`` for the block."""
    from snailopt import harness

    def traced_run(problem, cfg, observer=None):
        probe = _ObjectiveProbe(problem.func)
        problem = dataclasses.replace(problem, func=probe)
        with tracer.span("shms.run"):
            obs = _ObserverProbe(observer, perf_counter())
            rec = original["run"](problem, cfg, observer=obs)
            tracer.add_busy("objective", probe.busy, probe.calls)
            tracer.add_busy("harness.observer", obs.busy, obs.calls)
        tracer.count("objective.improved", probe.improved)
        tracer.count("shms.evals", rec.evals)
        tracer.sample("shms.init_s", [obs.init_s])
        tracer.sample("shms.iter_s", obs.iter_s)
        return rec

    def spanned(name, func, path_arg=None):
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = func(*args, **kwargs)
            if path_arg is not None:
                path = result if path_arg == "return" else args[path_arg]
                tracer.count("harness.files")
                tracer.count("harness.bytes", os.path.getsize(path))
            return result
        return wrapper

    original = {name: getattr(harness, name) for name in (
        "run", "write_trial_record", "write_trace_csv", "write_scatter_csv",
        "write_summary", "write_table_csv", "load_campaign", "friedman_ranks",
        "wilcoxon_signed_rank", "closeness_percent", "published_tables")}
    wrapped = {
        "run": traced_run,
        "write_trial_record": spanned("harness.write", original["write_trial_record"], "return"),
        "write_trace_csv": spanned("harness.write", original["write_trace_csv"], "return"),
        "write_scatter_csv": spanned("harness.write", original["write_scatter_csv"], "return"),
        "write_summary": spanned("harness.write", original["write_summary"], "return"),
        "write_table_csv": spanned("harness.write", original["write_table_csv"], 0),
        "load_campaign": spanned("harness.load", original["load_campaign"]),
        "friedman_ranks": spanned("stats.friedman", original["friedman_ranks"]),
        "wilcoxon_signed_rank": spanned("stats.wilcoxon", original["wilcoxon_signed_rank"]),
        "closeness_percent": spanned("stats.closeness", original["closeness_percent"]),
        "published_tables": spanned("stats.closeness", original["published_tables"]),
    }
    for name, func in wrapped.items():
        setattr(harness, name, func)
    try:
        yield
    finally:
        for name, func in original.items():
            setattr(harness, name, func)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics as ``name -> (value, unit, sample count)``.

    Totals are sums over the run the tracer saw; the sample count of
    a total is the number of calls or spans it sums.
    """
    spans = tracer.spans
    n_spans = {name: sum(1 for s in spans if s["name"] == name) for name in LAYER_OF}
    selfs = self_times(spans)
    run_s = tracer.total("shms.run")
    calls = tracer.counts.get("objective", 0)
    busy = tracer.busy.get("objective", 0.0)
    evals = tracer.counts.get("shms.evals", 0)
    files = tracer.counts.get("harness.files", 0)
    shms_self = selfs.get("shms.run", 0.0)
    iters = tracer.samples.get("shms.iter_s", [])
    inits = tracer.samples.get("shms.init_s", [])
    p50, n_it = percentile(iters, 50) if iters else (0.0, 0)
    p99, _ = percentile(iters, 99) if iters else (0.0, 0)
    return {
        "objective.calls": (calls, "count", calls),
        "objective.busy_s": (busy, "s", calls),
        "objective.us_per_call": (1e6 * busy / calls if calls else 0.0, "us", calls),
        "objective.share": (busy / run_s if run_s else 0.0, "ratio", n_spans["shms.run"]),
        "shms.evals": (evals, "count", n_spans["shms.run"]),
        "shms.iterations": (len(iters), "count", n_spans["shms.run"]),
        "shms.self_s": (shms_self, "s", n_spans["shms.run"]),
        "shms.us_per_eval": (1e6 * shms_self / evals if evals else 0.0, "us", evals),
        "shms.init_ms": (1e3 * statistics.median(inits) if inits else 0.0, "ms", len(inits)),
        "shms.iter_ms_p50": (1e3 * p50, "ms", n_it),
        "shms.iter_ms_p99": (1e3 * p99, "ms", n_it),
        "shms.improve_share": (tracer.counts.get("objective.improved", 0) / calls
                               if calls else 0.0, "ratio", calls),
        "harness.observer_s": (tracer.busy.get("harness.observer", 0.0), "s",
                               tracer.counts.get("harness.observer", 0)),
        "harness.write_s": (tracer.total("harness.write"), "s", n_spans["harness.write"]),
        "harness.files": (files, "count", files),
        "harness.bytes": (tracer.counts.get("harness.bytes", 0), "B", files),
        "harness.load_s": (tracer.total("harness.load"), "s", n_spans["harness.load"]),
        "report.generate_s": (tracer.total("report.generate"), "s", n_spans["report.generate"]),
        "stats.friedman_s": (tracer.total("stats.friedman"), "s", n_spans["stats.friedman"]),
        "stats.wilcoxon_s": (tracer.total("stats.wilcoxon"), "s", n_spans["stats.wilcoxon"]),
        "stats.wilcoxon_calls": (n_spans["stats.wilcoxon"], "count", n_spans["stats.wilcoxon"]),
        "stats.closeness_s": (tracer.total("stats.closeness"), "s", n_spans["stats.closeness"]),
    }


def layer_self_times(tracer: Tracer) -> dict[str, float]:
    """Self time per layer: span self times grouped by layer, plus counters."""
    out: dict[str, float] = {}
    for name, seconds in self_times(tracer.spans).items():
        layer = LAYER_OF[name]
        out[layer] = out.get(layer, 0.0) + seconds
    out["objective"] = tracer.busy.get("objective", 0.0)
    out["harness"] = out.get("harness", 0.0) + tracer.busy.get("harness.observer", 0.0)
    return out
