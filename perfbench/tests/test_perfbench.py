"""Tests of the benchmark's own arithmetic, tracing and checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from measure import (fingerprint, gap_floor, orders_gained,  # noqa: E402
                     parse_importtime, percentile, quartile_spread, self_times)


def test_percentile_is_nearest_rank_with_count():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(xs, 50) == (3.0, 5)
    assert percentile(xs, 100) == (5.0, 5)
    assert percentile(xs, 1) == (1.0, 5)
    # 200 samples: p99 is the 198th smallest, two samples lie beyond it
    assert percentile(range(200), 99) == (197, 200)
    assert percentile([7.0], 99) == (7.0, 1)
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_orders_gained_and_its_floor():
    assert orders_gained(1000.0, 1.0, 0.0) == pytest.approx(3.0)
    # relative to a non-zero reference
    assert orders_gained(-1.0 + 10.0, -1.0 + 0.01, -1.0) == pytest.approx(3.0)
    # reaching the reference exactly scores log10(gap0 / floor), not inf
    assert gap_floor(0.0) == 1e-12 and gap_floor(-200.0) == pytest.approx(2e-10)
    assert orders_gained(1.0, 0.0, 0.0) == pytest.approx(12.0)
    assert orders_gained(2.0, -10.0, -10.0) == pytest.approx(math.log10(12.0 / 1e-11))
    # a start already at the reference gains nothing
    assert orders_gained(0.0, 0.0, 0.0) == 0.0
    # rounding below the reference is floored too
    assert orders_gained(1.0, -1e-20, 0.0) == pytest.approx(12.0)


def test_self_times_subtract_children_and_busy_counters():
    spans = [
        {"id": 0, "name": "rep", "parent": None, "start": 0.0, "end": 10.0, "child_busy": 0.0},
        {"id": 1, "name": "harness.campaign", "parent": 0, "start": 1.0, "end": 8.0,
         "child_busy": 0.0},
        {"id": 2, "name": "shms.run", "parent": 1, "start": 1.5, "end": 6.5, "child_busy": 2.0},
        {"id": 3, "name": "harness.write", "parent": 1, "start": 6.5, "end": 7.0,
         "child_busy": 0.0},
        {"id": 4, "name": "shms.run", "parent": 1, "start": 7.0, "end": 7.5, "child_busy": 0.1},
    ]
    st = self_times(spans)
    assert st["rep"] == pytest.approx(3.0)
    assert st["harness.campaign"] == pytest.approx(7.0 - 5.0 - 0.5 - 0.5)
    assert st["shms.run"] == pytest.approx(3.0 + 0.4)
    assert st["harness.write"] == pytest.approx(0.5)


def test_fingerprint_is_bitwise_and_ordered():
    a = ([3.0, 2.0, 1.0], [0.5, -0.5], 60)
    b = ([9.0, 9.0], [1.0], 30)
    fp = fingerprint([a, b])
    assert fp == fingerprint([([3.0, 2.0, 1.0], [0.5, -0.5], 60), b])
    assert len(fp) == 16
    assert fp != fingerprint([b, a])
    assert fp != fingerprint([([3.0, 2.0, 1.0], [0.5, -0.5], 61), b])
    assert fp != fingerprint([([3.0, 2.0, math.nextafter(1.0, 0.0)], [0.5, -0.5], 60), b])
    # moving a value from the trace to final_x changes the hash
    assert fingerprint([([1.0, 2.0], [3.0], 1)]) != fingerprint([([1.0], [2.0, 3.0], 1)])


def test_quartile_spread_matches_statistics_quantiles():
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)
    assert quartile_spread([2.0] * 10) == 0.0


def test_parse_importtime_takes_cumulative_top_level_snailopt():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:       900 |     500000 |       numpy",
        "import time:      1000 |     900000 |     snailopt.stats",
        "import time:       500 |    1200000 |   snailopt",
        "import time:      2000 |    1250000 | snailopt.cli",
    ])
    prof = parse_importtime(stderr)
    assert prof[""] == pytest.approx(1.25)
    assert prof["snailopt.stats"] == pytest.approx(0.9)
    assert prof["numpy"] == pytest.approx(0.5)


def _small_steps():
    from workloads import Step
    return [Step("run", ("--problem", "F16", "--seed", "5", "--trials", "5",
                         "--max-evals", "300"), "a"),
            Step("run", ("--problem", "F16", "--seed", "50", "--trials", "5",
                         "--max-evals", "300", "--label", "b", "--scatter"), "b"),
            Step("report", ())]


def test_traced_run_matches_untraced_and_passes_checks(tmp_path):
    from checks import check_rep
    from run import inprocess_rep
    from tracer import Tracer, layer_metrics

    steps = _small_steps()
    tables = ("friedman_published.csv", "wilcoxon_pairwise.csv")
    inprocess_rep(steps, tmp_path / "plain")
    tracer = Tracer()
    inprocess_rep(steps, tmp_path / "traced", tracer)
    plain = check_rep(tmp_path / "plain", steps, tables)
    traced = check_rep(tmp_path / "traced", steps, tables)
    assert plain.violations == [] and traced.violations == []
    assert fingerprint(plain.trials) == fingerprint(traced.trials)
    assert plain.evals == 3000 and plain.attempted == 10 and plain.failed == 0

    m = layer_metrics(tracer)
    assert m["objective.calls"][0] == m["shms.evals"][0] == 3000
    assert 0 < m["shms.improve_share"][0] < 1
    assert m["shms.iterations"][0] == sum(len(t) - 1 for t, _x, _e in traced.trials)
    assert m["shms.iter_ms_p99"][2] == m["shms.iterations"][0]
    assert m["stats.wilcoxon_calls"][0] == 1
    # 2 campaigns x (5 trials + 5 traces + summary) + 5 scatters
    # + 2 report tables + report.txt: every file the run left behind
    written = [f for f in (tmp_path / "traced").rglob("*") if f.is_file()]
    assert m["harness.files"][0] == len(written) == 30
    assert m["harness.bytes"][0] == sum(f.stat().st_size for f in written)
    # the scatter observer runs after init and after every iteration of "b"
    assert m["harness.observer_s"][2] == sum(len(t) for t, _x, _e in traced.trials[5:])
    assert all(s["end"] >= s["start"] for s in tracer.spans)

    # wrappers are removed again
    from snailopt import harness
    assert harness.run.__module__ == "snailopt.shms"


def test_checks_flag_a_tampered_trial(tmp_path):
    from checks import check_rep
    from run import inprocess_rep

    steps = _small_steps()
    inprocess_rep(steps, tmp_path)
    trial = tmp_path / "a" / "trial_001.json"
    rec = json.loads(trial.read_text())
    rec["final_f"] += 1e-9
    rec["best_trace"][1] = rec["best_trace"][0] + 1.0
    trial.write_text(json.dumps(rec))
    (tmp_path / "wilcoxon_pairwise.csv").unlink()
    res = check_rep(tmp_path, steps, ("friedman_published.csv", "wilcoxon_pairwise.csv"))
    text = "\n".join(res.violations)
    assert "does not re-derive" in text
    assert "f(final_x)" in text and "best_trace[-1]" in text
    assert "best_trace increases" in text
    assert "wilcoxon_pairwise.csv: missing" in text
