"""Campaign harness tests: persistence, reproducibility, reports, CLI."""

import dataclasses
import functools
import json
import logging
import multiprocessing
import os
import pickle
import platform
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import snailopt
from snailopt import cli, harness
from snailopt.benchmarks import known_optimum
from snailopt.harness import (BENCHMARK_BUDGET_LARGE, BENCHMARK_BUDGET_SMALL,
                              ENGINE_KEYS, SCATTER_SCHEMA, STHE_BUDGETS,
                              SUMMARY_SCHEMA, TRACE_SCHEMA, TRIAL_SCHEMA,
                              CampaignConfig, ScatterRecorder, default_budget,
                              generate_reports, load_campaign,
                              output_schemas, published_friedman_rows,
                              read_summary, read_trace_csv,
                              read_trial_record, resolve_problem,
                              run_campaign)
from snailopt.objective import (BoundedProblem, EvalCounter, NonFiniteObjective,
                                evaluate)
from snailopt.stats import wilcoxon_signed_rank
from snailopt.sthe import (LOWER, UPPER, DomainError, evaluate_design,
                           make_case, published_tables)
from table_io import read_table_csv


def small_cfg(out_dir, **kw):
    """A campaign that finishes in well under a second."""
    base = dict(problem="F16", trials=5, base_seed=7, max_evals=400,
                out_dir=str(out_dir))
    base.update(kw)
    return CampaignConfig(**base)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(trials=0)
    with pytest.raises(ValueError):
        CampaignConfig(problem="F99")
    with pytest.raises(ValueError):
        CampaignConfig(engine={"population": 50})


def test_config_problem_keys():
    assert CampaignConfig(problem="F1").problem_key == "F1-d30"
    assert CampaignConfig(problem="F1", dim=500).problem_key == "F1-d500"
    assert CampaignConfig(problem="F16").problem_key == "F16-d2"
    assert CampaignConfig(problem="sthe2").problem_key == "sthe2"
    assert CampaignConfig(problem="F9", label="mine").display_label == "mine"


def test_config_dict_round_trip():
    cfg = small_cfg("somewhere", label="x", engine={"homes": 5})
    d = cfg.to_dict()
    assert d["schema"] == "snailopt.campaign_config/1"
    assert CampaignConfig.from_dict(d) == cfg
    assert CampaignConfig.from_dict(json.loads(json.dumps(d))) == cfg
    with pytest.raises(ValueError, match="surprise"):
        CampaignConfig.from_dict({"problem": "F1", "surprise": 1})


def test_documented_config_fields_match_the_dataclass():
    documented = output_schemas()["schemas"]["snailopt.campaign_config/1"]["fields"]
    assert list(documented) == [f.name for f in dataclasses.fields(CampaignConfig)]


def test_documented_engine_overrides_are_the_engine_keys():
    documented = output_schemas()["schemas"]["snailopt.campaign_config/1"]["fields"]
    names = documented["engine"].split(": ", 1)[1]
    assert names.split(", ") == list(ENGINE_KEYS)


def test_documented_trial_fields_match_the_written_record(tmp_path):
    cfg = small_cfg(tmp_path / "camp", trials=1)
    run_campaign(cfg)
    written = json.loads((tmp_path / "camp" / "trial_000.json").read_text())
    documented = output_schemas()["schemas"][TRIAL_SCHEMA]["fields"]
    assert list(written) == ["schema", *documented]


def test_documented_summary_fields_match_the_written_summary(tmp_path):
    run_campaign(small_cfg(tmp_path / "camp", trials=1))
    written = read_summary(tmp_path / "camp" / "summary.json")
    documented = output_schemas()["schemas"][SUMMARY_SCHEMA]["fields"]
    assert list(written) == ["schema", *documented]
    assert written["provenance"] == {
        "snailopt": snailopt.__version__, "python": platform.python_version(),
        "numpy": np.__version__, "machine": platform.machine()}


def test_a_summary_without_provenance_still_loads(tmp_path):
    emitted = run_campaign(small_cfg(tmp_path / "camp"))
    path = tmp_path / "camp" / "summary.json"
    payload = read_summary(path)
    del payload["provenance"]
    path.write_text(json.dumps(payload))
    assert load_campaign(path)[1] == emitted
    generate_reports(tmp_path)
    assert f"skipped {path}" not in (tmp_path / "report.txt").read_text()


def test_resolve_problem_checks_dimensions():
    assert resolve_problem(CampaignConfig(problem="sthe1")).dim == 4
    assert resolve_problem(CampaignConfig(problem="sthe1", dim=4)).dim == 4
    with pytest.raises(ValueError):
        resolve_problem(CampaignConfig(problem="sthe1", dim=10))
    with pytest.raises(ValueError):
        resolve_problem(CampaignConfig(problem="F16", dim=5))
    assert resolve_problem(CampaignConfig(problem="F1", dim=100)).dim == 100


def test_exchanger_budgets_are_the_published_average_evaluations():
    performance = published_tables()["performance"]
    assert {int(k): row["avg_evals"] for k, row in performance.items()} == STHE_BUDGETS


def test_default_budgets():
    assert default_budget(CampaignConfig(problem="F1"),
                          resolve_problem(CampaignConfig(problem="F1"))) \
        == BENCHMARK_BUDGET_SMALL
    big = CampaignConfig(problem="F1", dim=500)
    assert default_budget(big, resolve_problem(big)) == BENCHMARK_BUDGET_LARGE
    for cid in (1, 2, 3):
        cfg = CampaignConfig(problem=f"sthe{cid}")
        assert default_budget(cfg, resolve_problem(cfg)) == STHE_BUDGETS[cid]
    override = CampaignConfig(problem="F1", max_evals=123)
    assert default_budget(override, resolve_problem(override)) == 123


# ---------------------------------------------------------------------------
# campaign execution and persistence
# ---------------------------------------------------------------------------

def test_run_campaign_persists_everything(tmp_path):
    cfg = small_cfg(tmp_path / "camp")
    summary = run_campaign(cfg)
    out = Path(cfg.out_dir)
    assert summary.trials == 5 and summary.completed == 5
    assert summary.best <= summary.mean <= summary.worst
    assert summary.problem_key == "F16-d2"
    assert (out / "summary.json").exists()
    for i in range(5):
        rec = read_trial_record(out / f"trial_{i:03d}.json")
        assert rec["schema"] == TRIAL_SCHEMA
        assert rec["seed"] == cfg.base_seed + i
        assert rec["max_evals"] == 400
        assert rec["evals"] <= 400
        assert rec["best_trace"][-1] == rec["final_f"]
        trace = read_trace_csv(out / f"trace_{i:03d}.csv")
        assert [v for _, v in trace] == rec["best_trace"]
        assert [k for k, _ in trace] == list(range(len(trace)))


def trial_files(out: Path) -> dict:
    """Every trial record of a campaign, without its wall time."""
    records = {}
    for path in sorted(out.glob("trial_*.json")):
        records[path.name] = json.loads(path.read_text())
        records[path.name].pop("wall_time")
    return records


def test_f7_campaign_replays_bit_for_bit_with_its_noise(tmp_path):
    cfg = CampaignConfig(problem="F7", dim=5, trials=3, base_seed=3,
                         max_evals=600, out_dir=str(tmp_path / "a"))
    run_campaign(cfg)
    run_campaign(CampaignConfig.from_dict({**cfg.to_dict(),
                                           "out_dir": str(tmp_path / "b")}))
    a, b = trial_files(tmp_path / "a"), trial_files(tmp_path / "b")
    assert len(a) == 3 and a == b
    # the noise is on: final_f is not the noise-free value at final_x
    clean = resolve_problem(cfg)
    for rec in a.values():
        assert rec["final_f"] > clean.func(np.array(rec["final_x"]))


def test_f7_campaigns_carry_the_published_noise(tmp_path):
    # uniform [0, 1) noise per evaluation bounds the mean final far from
    # the noise-free 1e-19 (the paper reports ~5e-3 at d = 30)
    summary = run_campaign(CampaignConfig(problem="F7", dim=30, trials=3,
                                          base_seed=101, out_dir=str(tmp_path)))
    assert summary.completed == 3
    assert summary.mean >= 1e-4


def test_campaign_finds_the_known_minimum(tmp_path):
    summary = run_campaign(small_cfg(tmp_path / "camp", max_evals=1500))
    f_min, _ = known_optimum("F16")
    assert summary.best == pytest.approx(f_min, abs=1e-6)


def test_failing_objective_is_logged_not_fatal(tmp_path, monkeypatch, caplog):
    evil = BoundedProblem(
        name="evil", dim=2,
        lower=np.full(2, -1.0), upper=np.full(2, 1.0),
        func=lambda x: float("nan"),
    )
    monkeypatch.setattr(harness, "resolve_problem", lambda cfg: evil)
    cfg = small_cfg(tmp_path / "camp", trials=3)
    with caplog.at_level(logging.WARNING, logger="snailopt.harness"):
        summary = run_campaign(cfg)
    assert summary.completed == 0 and summary.trials == 3
    assert summary.best is None
    assert sum("aborted" in r.message for r in caplog.records) == 3
    payload = read_summary(Path(cfg.out_dir) / "summary.json")
    assert [f["trial"] for f in payload["failures"]] == [0, 1, 2]
    assert payload["record_files"] == []


def artifacts(out_dir):
    """A campaign's files by name: CSVs as bytes, JSON without wall times."""
    files = {}
    for path in sorted(Path(out_dir).iterdir()):
        if path.suffix == ".csv":
            files[path.name] = path.read_bytes()
        else:
            payload = json.loads(path.read_text())
            payload.pop("wall_time", None)
            payload.get("summary", {}).pop("avg_wall_time", None)
            files[path.name] = payload
    return files


# an exchanger case, and two catalog problems with scatter files, one on
# each side of the engine's float/numpy move kernels
@pytest.mark.parametrize("problem,dim,scatter,files", [
    ("sthe1", None, False, 9), ("F16", None, True, 13), ("F1", 200, True, 13)],
    ids=["sthe1", "F16", "F1-d200"])
def test_pool_writes_the_same_artifacts_as_a_serial_run(tmp_path, monkeypatch,
                                                        problem, dim, scatter,
                                                        files):
    contexts = []
    real_get_context = multiprocessing.get_context

    def spy(method=None):
        contexts.append(method)
        return real_get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", spy)
    # both sides write to one directory: summary.json records out_dir
    cfg = CampaignConfig(problem=problem, dim=dim, trials=4, max_evals=2000,
                         export_scatter=scatter, out_dir=str(tmp_path / "camp"))
    serial = run_campaign(cfg, workers=1)
    assert contexts == []
    (tmp_path / "camp").rename(tmp_path / "serial")
    pooled = run_campaign(cfg, workers=2)
    assert contexts == ["fork"]
    assert artifacts(tmp_path / "camp") == artifacts(tmp_path / "serial")
    assert len(artifacts(tmp_path / "camp")) == files
    assert dataclasses.replace(pooled, avg_wall_time=0.0) == \
        dataclasses.replace(serial, avg_wall_time=0.0)


def test_one_trial_or_no_fork_runs_serially(tmp_path, monkeypatch):
    def no_pool(method=None):
        raise RuntimeError("a pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    summary = run_campaign(small_cfg(tmp_path / "one", trials=1), workers=4)
    assert summary.completed == 1

    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    summary = run_campaign(small_cfg(tmp_path / "three", trials=3), workers=2)
    assert summary.completed == 3


def test_failing_objective_under_the_pool(tmp_path, monkeypatch, caplog):
    # the workers inherit the patched resolve_problem and its lambda
    evil = BoundedProblem(
        name="evil", dim=2,
        lower=np.full(2, -1.0), upper=np.full(2, 1.0),
        func=lambda x: float("nan"),
    )
    monkeypatch.setattr(harness, "resolve_problem", lambda cfg: evil)
    failures = {}
    for workers in (1, 2):
        cfg = small_cfg(tmp_path / f"w{workers}", trials=3)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="snailopt.harness"):
            summary = run_campaign(cfg, workers=workers)
        assert summary.completed == 0
        assert sum("aborted" in r.message for r in caplog.records) == 3
        failures[workers] = read_summary(
            Path(cfg.out_dir) / "summary.json")["failures"]
    assert failures[2] == failures[1]
    assert [f["trial"] for f in failures[2]] == [0, 1, 2]


def test_a_bug_in_a_worker_propagates(tmp_path, monkeypatch):
    def broken(x):
        raise ZeroDivisionError("objective bug")

    bug = BoundedProblem(name="bug", dim=2, lower=np.full(2, -1.0),
                         upper=np.full(2, 1.0), func=broken)
    monkeypatch.setattr(harness, "resolve_problem", lambda cfg: bug)
    cfg = small_cfg(tmp_path / "camp", trials=3)
    with pytest.raises(ZeroDivisionError, match="objective bug"):
        run_campaign(cfg, workers=2)
    assert not (tmp_path / "camp" / "summary.json").exists()


def test_the_package_exceptions_pickle():
    # a pool pickles what a worker raises back to the parent
    nan = BoundedProblem(name="nan", dim=2, lower=np.full(2, -1.0),
                         upper=np.full(2, 1.0), func=lambda x: float("nan"))
    with pytest.raises(NonFiniteObjective) as non_finite:
        evaluate(nan, np.array([0.5, -0.25]), EvalCounter())
    assert str(non_finite.value) == \
        "objective 'nan' returned non-finite value nan at x=[0.5, -0.25]"
    with pytest.raises(DomainError) as domain:
        evaluate_design(make_case(1), np.zeros(4))
    for exc in (non_finite.value, domain.value):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)


def test_a_trial_runs_from_its_pickled_config_and_index(tmp_path):
    cfg = small_cfg(tmp_path / "camp", trials=3)
    run_campaign(cfg)
    alone = dataclasses.replace(cfg, out_dir=str(tmp_path / "alone"))
    (tmp_path / "alone").mkdir()
    job = pickle.loads(pickle.dumps(functools.partial(harness.run_trial, alone)))
    record = job(1)
    assert record == read_trial_record(tmp_path / "alone" / "trial_001.json")
    assert sorted(p.name for p in (tmp_path / "alone").iterdir()) == \
        ["trace_001.csv", "trial_001.json"]
    campaign = read_trial_record(tmp_path / "camp" / "trial_001.json")
    assert {**record, "wall_time": 0} == {**campaign, "wall_time": 0}
    assert (tmp_path / "alone" / "trace_001.csv").read_bytes() == \
        (tmp_path / "camp" / "trace_001.csv").read_bytes()


def test_a_lone_trial_creates_its_directory(tmp_path):
    out = tmp_path / "missing" / "nested"
    record = harness.run_trial(small_cfg(out, trials=1), 0)
    assert record == read_trial_record(out / "trial_000.json")


def test_progress_is_logged_per_trial_in_order(tmp_path, caplog):
    cfg = small_cfg(tmp_path / "camp", trials=3)
    with caplog.at_level(logging.INFO, logger="snailopt.harness"):
        run_campaign(cfg, workers=2)
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert len(lines) == 3
    for i, line in enumerate(lines):
        rec = read_trial_record(Path(cfg.out_dir) / f"trial_{i:03d}.json")
        assert line.startswith(f"trial {i} (seed {cfg.base_seed + i}): "
                               f"final_f {rec['final_f']:.10g}, "
                               f"{rec['evals']} evals, ")


def test_a_failed_write_leaves_no_file(tmp_path, monkeypatch):
    rec = snailopt.run(resolve_problem(small_cfg(tmp_path)),
                       snailopt.ShmsConfig(max_evals=100, seed=1))
    cfg = small_cfg(tmp_path)

    def refuse(src, dst):
        raise OSError("disk full")

    with monkeypatch.context() as m:
        m.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            harness.write_trial_record(tmp_path,
                                       harness.trial_record(cfg, 0, rec))
    assert list(tmp_path.iterdir()) == []

    path = harness.write_trace_csv(tmp_path, 0, rec)
    before = path.read_bytes()
    longer = dataclasses.replace(rec, best_trace=rec.best_trace * 2)
    with monkeypatch.context() as m:
        m.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            harness.write_trace_csv(tmp_path, 0, longer)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == before


def test_readers_reject_foreign_files(tmp_path):
    bogus = tmp_path / "x.json"
    bogus.write_text(json.dumps({"schema": "other/1"}))
    with pytest.raises(ValueError):
        read_trial_record(bogus)
    with pytest.raises(ValueError):
        read_summary(bogus)
    truncated = tmp_path / "cut.json"
    truncated.write_text("{")
    for reader in (read_trial_record, read_summary):
        with pytest.raises(ValueError, match=f"^{re.escape(str(truncated))}: Expecting"):
            reader(truncated)
    csv_file = tmp_path / "x.csv"
    csv_file.write_text("iteration,best_f\n0,1.0\n")
    with pytest.raises(ValueError):
        read_trace_csv(csv_file)


# ---------------------------------------------------------------------------
# scatter export
# ---------------------------------------------------------------------------

def test_scatter_recorder_keeps_powers_of_two_and_final():
    rec = ScatterRecorder()
    snail = SimpleNamespace(home_id=0, x=np.array([0.5]))
    for it in range(11):
        rec(SimpleNamespace(iteration=it, snails=[snail]))
    rec.flush()
    assert sorted({row[0] for row in rec.rows}) == [0, 1, 2, 4, 8, 10]
    rec.flush()  # a second flush must not duplicate the final snapshot
    assert sum(row[0] == 10 for row in rec.rows) == 1


def test_scatter_csv_export(tmp_path):
    cfg = small_cfg(tmp_path / "camp", trials=1, export_scatter=True)
    run_campaign(cfg)
    path = Path(cfg.out_dir) / "scatter_000.csv"
    lines = path.read_text().splitlines()
    assert SCATTER_SCHEMA in lines[0]
    assert lines[1] == "iteration,snail,home_id,x0,x1"
    first = lines[2].split(",")
    assert first[0] == "0" and len(first) == 5


def test_scatter_export_holds_less_than_its_file(tmp_path):
    # the recorder keeps the colony's own arrays and the CSV streams row by
    # row; Python-float copies of the positions, or the file's text in
    # one string, would each take more than the file itself
    cfg = CampaignConfig(problem="F1", dim=500, trials=1, max_evals=6000,
                         out_dir=str(tmp_path), export_trace=False,
                         export_scatter=True)
    tracemalloc.start()
    try:
        run_campaign(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "scatter_000.csv").stat().st_size
    assert size > 2_000_000
    assert peak < size, (peak, size)


def test_an_interrupted_streamed_write_leaves_the_old_file(tmp_path):
    def lines():
        yield "a,b\n"
        yield "1,2\n"
        raise RuntimeError("row failed")

    target = tmp_path / "table.csv"
    with pytest.raises(RuntimeError, match="row failed"):
        harness.write_atomic(tmp_path / "new.csv", lines())
    target.write_text("old\n")
    with pytest.raises(RuntimeError, match="row failed"):
        harness.write_atomic(target, lines())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]
    assert target.read_bytes() == b"old\n"
    harness.write_atomic(target, iter(["x\n", "y\n"]))
    assert target.read_bytes() == b"x\ny\n"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_published_friedman_rows_spot_checks():
    rows = published_friedman_rows()
    tables = {r["table"] for r in rows}
    assert tables == {"dim30", "dim100", "dim500", "dim1000", "fixed"}
    assert len(rows) == 5 * 13
    d30 = {r["algorithm"]: r for r in rows if r["table"] == "dim30"}
    assert d30["AVOA"]["mean_rank"] == pytest.approx(2.5, abs=1e-4)
    assert d30["AVOA"]["rank"] == 1
    assert d30["SHMS"]["mean_rank"] == pytest.approx(3.2692, abs=1e-3)
    assert d30["SHMS"]["rank"] == 2


def test_reports_for_overlapping_campaigns(tmp_path):
    run_campaign(small_cfg(tmp_path / "a", label="seed-7"))
    run_campaign(small_cfg(tmp_path / "b", label="seed-99", base_seed=99))
    files = generate_reports(tmp_path)
    names = {p.name for p in files}
    assert {"friedman_published.csv", "wilcoxon_pairwise.csv",
            "report.txt"} <= names
    rows = read_table_csv(tmp_path / "wilcoxon_pairwise.csv")
    assert len(rows) == 1
    row = rows[0]
    assert row["problem"] == "F16-d2"
    assert {row["a"], row["b"]} == {"seed-7", "seed-99"}
    assert row["test"] == "rank-sum"  # seeds 7-11 and 99-103 are disjoint
    assert 0.0 < row["p_value"] <= 1.0
    text = (tmp_path / "report.txt").read_text()
    assert "seed-7" in text and "seed-99" in text


def test_reports_name_repeated_labels_apart(tmp_path):
    # the third "a" must not take the name "a#2" that a campaign holds
    finals = {}
    for name, label, seed in (("c1", "a", 1), ("c2", "a#2", 11), ("c3", "a", 21)):
        run_campaign(small_cfg(tmp_path / name, label=label, base_seed=seed, trials=6))
        finals[name] = read_summary(tmp_path / name / "summary.json")["finals"]
    generate_reports(tmp_path)
    rows = read_table_csv(tmp_path / "wilcoxon_pairwise.csv")
    assert [(row["a"], row["b"]) for row in rows] == [("a", "a#2"), ("a", "a#3"), ("a#2", "a#3")]
    column = {"a": finals["c1"], "a#2": finals["c2"], "a#3": finals["c3"]}
    for row in rows:
        # seeds 1-6, 11-16 and 21-26 are disjoint: independent samples
        want = wilcoxon_signed_rank(column[row["a"]], column[row["b"]],
                                    labels=(row["a"], row["b"]), paired=False)
        assert row == {"problem": "F16-d2", "a": row["a"], "b": row["b"],
                       "test": "rank-sum", **dataclasses.asdict(want)}
    # report.txt names each campaign as the table does
    text = (tmp_path / "report.txt").read_text()
    assert [line.split()[0] for line in text.splitlines()
            if line.startswith("  ")] == ["a", "a#2", "a#3"]


def test_reports_closeness_for_exchanger_campaigns(tmp_path):
    # two campaigns share a label: the second is named apart here too
    for name in ("sthe", "sthe_again"):
        run_campaign(small_cfg(tmp_path / name, problem="sthe1", trials=2,
                               max_evals=600, label="exchanger"))
    files = generate_reports(tmp_path)
    assert any(p.name == "closeness_sthe.csv" for p in files)
    rows = read_table_csv(tmp_path / "closeness_sthe.csv")
    refs = len(published_tables()["closeness"]["1"])
    assert [row["campaign"] for row in rows] == ["exchanger"] * refs + ["exchanger#1"] * refs
    for row in rows:
        assert row["case"] == 1
        assert row["direction"] in ("↑", "↓")
        assert (row["closeness_percent"] >= 0) == (row["direction"] == "↑")


@pytest.mark.parametrize("table,problem", [("wilcoxon_pairwise.csv", "F16"),
                                            ("closeness_sthe.csv", "sthe1")])
def test_reports_delete_a_table_they_no_longer_write(tmp_path, table, problem):
    # campaign "b" alone makes the table: once it is gone, so is the table
    run_campaign(small_cfg(tmp_path / "a", label="a"))
    run_campaign(small_cfg(tmp_path / "b", problem=problem, label="b", base_seed=99))
    generate_reports(tmp_path)
    assert (tmp_path / table).exists()
    shutil.rmtree(tmp_path / "b")
    generate_reports(tmp_path)
    assert not (tmp_path / table).exists()
    assert f"note: removed {table} left by an earlier report" in \
        (tmp_path / "report.txt").read_text()


def test_reports_on_an_empty_directory(tmp_path):
    (tmp_path / "nothing").mkdir()
    files = generate_reports(tmp_path / "nothing")
    names = {p.name for p in files}
    assert names == {"friedman_published.csv", "report.txt"}
    assert "no campaigns found" in (tmp_path / "nothing" / "report.txt").read_text()


def test_reports_refuse_a_missing_directory(tmp_path):
    with pytest.raises(NotADirectoryError):
        generate_reports(tmp_path / "nothing")
    assert not (tmp_path / "nothing").exists()


def test_campaigns_opting_out_of_statistics_are_skipped(tmp_path):
    # a summary stored while an export_stats switch existed, with it off:
    # the key is unknown now
    run_campaign(small_cfg(tmp_path / "a", label="counts"))
    run_campaign(small_cfg(tmp_path / "b", label="private", base_seed=99))
    path = tmp_path / "b" / "summary.json"
    payload = json.loads(path.read_text())
    payload["config"]["export_stats"] = False
    path.write_text(json.dumps(payload))
    generate_reports(tmp_path)
    text = (tmp_path / "report.txt").read_text()
    assert f"skipped {path}: unknown config key(s): ['export_stats']" in text
    assert not (tmp_path / "wilcoxon_pairwise.csv").exists()


def test_reports_rerun_campaigns_as_no_information(tmp_path):
    # same problem, same seeds: every paired difference is zero
    run_campaign(small_cfg(tmp_path / "a", label="first"))
    run_campaign(small_cfg(tmp_path / "b", label="rerun"))
    generate_reports(tmp_path)
    rows = read_table_csv(tmp_path / "wilcoxon_pairwise.csv")
    assert len(rows) == 1
    row = rows[0]
    assert {row["a"], row["b"]} == {"first", "rerun"}
    assert row["winner"] == "no information"
    assert row["method"] == "none"
    assert row["p_value"] == 1.0
    assert row["n_nonzero"] == 0 and row["significant"] is False


def test_reports_pair_trials_by_seed_not_by_position(tmp_path):
    # trial 0 of "gap" failed (NonFiniteObjective leaves no record): the
    # 5 seeds both campaigns hold are reruns of each other
    for label in ("full", "gap"):
        run_campaign(small_cfg(tmp_path / label, label=label, trials=6))
    out = tmp_path / "gap"
    payload = read_summary(out / "summary.json")
    cfg = CampaignConfig.from_dict(payload["config"])
    (out / "trial_000.json").unlink()
    records = [read_trial_record(out / name) for name in payload["record_files"][1:]]
    payload.update(summary=dataclasses.asdict(harness.summarize(cfg, records)),
                   finals=payload["finals"][1:],
                   record_files=payload["record_files"][1:],
                   failures=[{"trial": 0, "seed": 7, "error": "non-finite"}])
    (out / "summary.json").write_text(json.dumps(payload))
    generate_reports(tmp_path)
    [row] = read_table_csv(tmp_path / "wilcoxon_pairwise.csv")
    assert (row["test"], row["winner"], row["n_nonzero"]) == \
        ("signed-rank", "no information", 0)


def test_reports_pair_overlapping_seed_ranges_on_the_shared_seeds(tmp_path):
    # seeds 1-10 and 6-15: only seeds 6-10 pair, whatever the positions
    finals = {}
    for label, seed, evals in (("low", 1, 300), ("high", 6, 200)):
        assert cli.main(["run", "--problem", "F16", "--trials", "10",
                         "--max-evals", str(evals), "--seed", str(seed),
                         "--out", str(tmp_path / label), "--label", label]) == 0
        finals[label] = read_summary(tmp_path / label / "summary.json")["finals"]
    assert cli.main(["report", "--in", str(tmp_path)]) == 0
    [row] = read_table_csv(tmp_path / "wilcoxon_pairwise.csv")
    a, b = row["a"], row["b"]
    shared = {"low": finals["low"][5:], "high": finals["high"][:5]}
    want = wilcoxon_signed_rank(shared[a], shared[b], labels=(a, b))
    assert row == {"problem": "F16-d2", "a": a, "b": b, "test": "signed-rank",
                   **dataclasses.asdict(want)}


def test_reports_skip_pairs_sharing_fewer_than_five_seeds(tmp_path):
    # seeds 7-12 and 10-15 share three: too few to pair, yet not independent
    run_campaign(small_cfg(tmp_path / "a", label="a", trials=6))
    run_campaign(small_cfg(tmp_path / "b", label="b", trials=6, base_seed=10))
    generate_reports(tmp_path)
    assert not (tmp_path / "wilcoxon_pairwise.csv").exists()
    text = (tmp_path / "report.txt").read_text()
    assert ("note: F16-d2: fewer than 5 trials to compare a and b "
            "(3 seeds shared); pair skipped") in text


def test_report_headers_match_the_documented_columns(tmp_path):
    # a rerun pairs as "no information", which still fills every column
    run_campaign(small_cfg(tmp_path / "a", label="first"))
    run_campaign(small_cfg(tmp_path / "b", label="rerun"))
    run_campaign(small_cfg(tmp_path / "sthe", problem="sthe1", trials=2,
                           max_evals=600))
    written = {p.name for p in generate_reports(tmp_path)}
    schemas = output_schemas()["schemas"]
    for name in ("friedman_published.csv", "wilcoxon_pairwise.csv",
                 "closeness_sthe.csv"):
        assert name in written
        header = (tmp_path / name).read_text().splitlines()[0]
        assert header.split(",") == list(schemas[f"report: {name}"]["columns"])
    rows = read_table_csv(tmp_path / "wilcoxon_pairwise.csv")
    assert [row["winner"] for row in rows] == ["no information"]
    documented = schemas["report: closeness_sthe.csv"]["columns"]["direction"]
    rows = read_table_csv(tmp_path / "closeness_sthe.csv")
    assert rows and all(row["direction"] in documented for row in rows)


def damaged_summaries(payload):
    """summary.json texts that must not survive loading, by case name."""
    tampered = list(payload["finals"])
    tampered[0] += 1.0
    return {
        "not-json": "{not json",
        "not-an-object": "[]",
        "record-file-not-a-name": json.dumps({**payload, "record_files": [5]}),
        "record-file-outside-the-campaign": json.dumps(  # the intact campaign's records
            {**payload, "record_files": [f"../intact/{n}" for n in payload["record_files"]]}),
        "config-not-an-object": json.dumps({**payload, "config": [1, 2]}),
        "config-foreign-schema": json.dumps(
            {**payload, "config": {**payload["config"],
                                   "schema": "snailopt.campaign_config/9"}}),
        "finals-missing": json.dumps({k: v for k, v in payload.items()
                                      if k != "finals"}),
        "finals-tampered": json.dumps({**payload, "finals": tampered}),
        # one trial listed twice: its seed would pair twice
        "record-file-repeated": json.dumps(
            {**payload, "record_files": payload["record_files"][:1] * 2,
             "finals": payload["finals"][:1] * 2}),
    }


def test_unreadable_summary_is_reported_not_fatal(tmp_path):
    # each damaged summary sits next to an intact campaign on the same
    # problem, so one that slipped through would reach the pairing loop
    template = tmp_path / "template"
    run_campaign(small_cfg(template, label="intact"))
    payload = read_summary(template / "summary.json")
    for case, text in damaged_summaries(payload).items():
        root = tmp_path / case
        shutil.copytree(template, root / "intact")
        shutil.copytree(template, root / "broken")
        (root / "broken" / "summary.json").write_text(text)
        files = generate_reports(root)
        assert any(p.name == "report.txt" for p in files), case
        report = (root / "report.txt").read_text()
        assert f"skipped {root / 'broken' / 'summary.json'}" in report, case
        assert "campaigns found: 1" in report, case


def test_wrongly_shaped_campaign_is_a_value_error(tmp_path):
    # the callers of load_campaign catch ValueError; a TypeError would
    # escape them, and a config given as [key, value] pairs must not load
    run_campaign(small_cfg(tmp_path, trials=1))
    summary, trial = tmp_path / "summary.json", tmp_path / "trial_000.json"
    payload, record = read_summary(summary), read_trial_record(trial)
    for damaged in [{"config": [1, 2]}, {"config": list(payload["config"].items())},
                    {"record_files": [5]}, {"record_files": 5}]:
        summary.write_text(json.dumps({**payload, **damaged}))
        with pytest.raises(ValueError):
            load_campaign(summary)
    summary.write_text(json.dumps(payload))
    for damaged in [{"final_f": [1.0]}, {"evals": None}, {"wall_time": "0.1"}]:
        trial.write_text(json.dumps({**record, **damaged}))
        with pytest.raises(ValueError):
            load_campaign(summary)


def test_foreign_trial_seed_is_reported_not_fatal(tmp_path):
    # the report pairs on the records' seeds, so a record whose seed is
    # not base_seed + trial is refused instead of paired
    run_campaign(small_cfg(tmp_path / "intact", label="intact"))
    run_campaign(small_cfg(tmp_path / "damaged", label="damaged"))
    path = tmp_path / "damaged" / "trial_001.json"
    trial = json.loads(path.read_text())
    trial["seed"] = 1_000
    path.write_text(json.dumps(trial))
    generate_reports(tmp_path)
    text = (tmp_path / "report.txt").read_text()
    assert (f"note: skipped {tmp_path / 'damaged' / 'summary.json'}: "
            "trial_001.json: seed 1000 is not base_seed + trial or repeats") in text
    assert "campaigns found: 1" in text
    assert not (tmp_path / "wilcoxon_pairwise.csv").exists()


def test_nonpositive_exchanger_cost_is_reported_not_fatal(tmp_path, capsys):
    # a hand-edited but self-consistent record: an exchanger cost below
    # zero is impossible, so that campaign is skipped with a notice and
    # enters neither the summary lines nor any table
    for label in ("damaged", "intact"):
        run_campaign(CampaignConfig(problem="sthe1", trials=5, max_evals=300,
                                    label=label, out_dir=str(tmp_path / label)))
    out = tmp_path / "damaged"
    trial = json.loads((out / "trial_000.json").read_text())
    summary = json.loads((out / "summary.json").read_text())
    trial["final_f"] = trial["best_trace"][-1] = summary["finals"][0] = -5.0
    (out / "trial_000.json").write_text(json.dumps(trial))
    (out / "summary.json").write_text(json.dumps(summary))
    assert cli.main(["report", "--in", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    assert "closeness_sthe.csv" in printed
    assert "wilcoxon_pairwise.csv" not in printed
    report = (tmp_path / "report.txt").read_text()
    assert (f"note: skipped {out / 'summary.json'}: "
            "exchanger cost -5.0 is not positive") in report
    assert "campaigns found: 1" in report
    assert "  intact " in report and "damaged " not in report
    rows = read_table_csv(tmp_path / "closeness_sthe.csv")
    assert {r["campaign"] for r in rows} == {"intact"}


def test_missing_trial_file_is_reported_not_fatal(tmp_path):
    run_campaign(small_cfg(tmp_path / "damaged", trials=3))
    run_campaign(small_cfg(tmp_path / "intact", trials=3, label="intact"))
    (tmp_path / "damaged" / "trial_001.json").unlink()
    generate_reports(tmp_path)
    text = (tmp_path / "report.txt").read_text()
    assert "skipped" in text and "trial_001.json" in text
    assert "campaigns found: 1" in text and "intact" in text


@pytest.mark.parametrize("where, key, edit", [
    ("config", "problem", lambda v: "F17"),
    ("config", "max_evals", lambda v: 301),
    ("config", "max_evals", lambda v: 10**400),
    ("trial", "max_evals", lambda v: 301),
    ("trial", "evals", lambda v: 999),
    ("trial", "problem", lambda v: "F17-d2"),
    ("trial", "best_trace", lambda t: t[:-1] + [-5.0]),
    ("trial", "final_x", lambda x: x[:-1]),
], ids=["config-problem", "config-budget", "config-budget-huge", "record-budget",
        "record-evals", "record-problem", "record-trace-end", "record-final-x-short"])
def test_a_record_that_contradicts_its_campaign_is_reported_not_fatal(
        tmp_path, where, key, edit):
    # each edit leaves every file loadable; the report's own pass refuses
    # the campaign, naming trial_000.json and the field that disagrees
    run_campaign(small_cfg(tmp_path / "intact", label="intact"))
    run_campaign(small_cfg(tmp_path / "damaged", label="damaged"))
    summary = tmp_path / "damaged" / "summary.json"
    path = summary if where == "config" else tmp_path / "damaged" / "trial_000.json"
    payload = json.loads(path.read_text())
    edited = payload["config"] if where == "config" else payload
    edited[key] = edit(edited[key])
    path.write_text(json.dumps(payload))
    load_campaign(summary)  # the loader itself still accepts the campaign
    generate_reports(tmp_path)
    text = (tmp_path / "report.txt").read_text()
    assert f"note: skipped {summary}: trial_000.json: '{key}' " in text
    assert "campaigns found: 1" in text and "  intact " in text
    assert not (tmp_path / "wilcoxon_pairwise.csv").exists()


def test_summary_invariants_raise_value_error():
    args = dict(problem_key="F16", label="F16", trials=2, completed=2,
                worst=3.0, std=0.5, avg_evals=10.0, avg_wall_time=0.1)
    with pytest.raises(ValueError, match="best <= mean <= worst"):
        harness.CampaignSummary(best=2.5, mean=2.0, **args)
    with pytest.raises(ValueError, match="std >= 0"):
        harness.CampaignSummary(best=1.0, mean=2.0, **{**args, "std": -1.0})


def test_output_schemas_cover_every_artifact():
    docs = output_schemas()
    text = json.dumps(docs)
    for tag in (TRIAL_SCHEMA, SUMMARY_SCHEMA, TRACE_SCHEMA, SCATTER_SCHEMA):
        assert tag in text, tag
    for name in ("friedman_published.csv", "wilcoxon_pairwise.csv",
                 "closeness_sthe.csv", "report.txt"):
        assert name in text, name


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def test_cli_run_then_report(tmp_path, capsys):
    out = tmp_path / "camp"
    code = cli.main(["run", "--problem", "F16", "--trials", "2",
                     "--max-evals", "300", "--seed", "3",
                     "--out", str(out), "--label", "cli-camp"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "cli-camp" in stdout and "2/2 trials" in stdout
    assert (out / "summary.json").exists()

    assert cli.main(["report", "--in", str(tmp_path)]) == 0
    listed = capsys.readouterr().out
    assert "friedman_published.csv" in listed and "report.txt" in listed


#: run in a fresh interpreter where any scipy import raises ImportError;
#: the budgets differ, so shared seeds give different finals: the two
#: 21-trial campaigns pair on 21 seeds (signed-rank, normal), each of
#: them with "mid" on 5 (signed-rank, exact) and with "apart", whose
#: seeds are its own, as 26 independent values (rank-sum, normal);
#: "mid" and "apart" are 10 such values (rank-sum, exact)
SCIPY_FREE_CAMPAIGNS = """
import sys
sys.modules["scipy"] = None
from snailopt import cli
out = sys.argv[1]
for label, trials, seed, evals in (("long-a", 21, 1, 100), ("long-b", 21, 1, 200),
                                   ("mid", 5, 1, 300), ("apart", 5, 101, 100)):
    assert cli.main(["run", "--problem", "F16", "--trials", str(trials),
                     "--max-evals", str(evals), "--seed", str(seed),
                     "--out", f"{out}/{label}", "--label", label]) == 0
assert cli.main(["report", "--in", out]) == 0
"""


def run_python(code, *args):
    src = str(Path(snailopt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


def test_runtime_never_imports_scipy(tmp_path):
    plain = run_python("import sys, snailopt.cli; print(sorted("
                       "m for m in sys.modules if m.startswith('scipy')))")
    assert plain.returncode == 0, plain.stderr
    assert plain.stdout.strip() == "[]"

    blocked = run_python(SCIPY_FREE_CAMPAIGNS, str(tmp_path))
    assert blocked.returncode == 0, blocked.stderr
    rows = read_table_csv(tmp_path / "wilcoxon_pairwise.csv")
    assert sorted((r["test"], r["method"]) for r in rows) == [
        ("rank-sum", "exact"), ("rank-sum", "normal"), ("rank-sum", "normal"),
        ("signed-rank", "exact"), ("signed-rank", "exact"),
        ("signed-rank", "normal")]


#: the last line a probe in a fresh interpreter prints
NUMPY_MODULES = "print(sorted(m for m in sys.modules if m.startswith('numpy.')))"


def test_cli_import_report_and_catalog_load_no_numpy(tmp_path):
    # an exchanger campaign (closeness rows) and three on one problem: "a"
    # and "c" share seeds (a signed-rank pair), "b" shares none (rank-sum
    # pairs), so the report reaches every table and test it writes
    for label, problem, seed, evals in (("a", "F16", 1, 300), ("b", "F16", 11, 300),
                                        ("c", "F16", 1, 200), ("s", "sthe1", 1, 300)):
        run_campaign(CampaignConfig(problem=problem, trials=5, max_evals=evals,
                                    base_seed=seed, label=label,
                                    out_dir=str(tmp_path / label)))
    for command in ("pass", "cli.main(['report', '--in', sys.argv[1]])",
                    "cli.main(['catalog'])"):
        proc = run_python(f"import sys\nfrom snailopt import cli\n{command}\n"
                          + NUMPY_MODULES, str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]", command
    rows = read_table_csv(tmp_path / "wilcoxon_pairwise.csv")
    assert {row["test"] for row in rows} == {"signed-rank", "rank-sum"}
    assert all(row["method"] == "exact" for row in rows)
    assert (tmp_path / "closeness_sthe.csv").is_file()


def test_missing_numpy_is_a_plain_import_error():
    # numpy is bound lazily, yet a missing numpy still fails the import
    # as it would without the lazy binding
    proc = run_python("import importlib.util\n"
                      "find_spec = importlib.util.find_spec\n"
                      "importlib.util.find_spec = lambda name, *a: "
                      "None if name == 'numpy' else find_spec(name, *a)\n"
                      "import snailopt.cli")
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == \
        "ModuleNotFoundError: No module named 'numpy'"


#: run in a fresh interpreter: is numpy loaded when the pool is set up?
NUMPY_BEFORE_THE_POOL = """
import multiprocessing, sys
from snailopt.harness import CampaignConfig, run_campaign
loaded = []
real_get_context = multiprocessing.get_context

def spy(method=None):
    loaded.append(any(m.startswith("numpy.") for m in sys.modules))
    return real_get_context(method)

multiprocessing.get_context = spy
cfg = CampaignConfig(problem="F16", trials=2, max_evals=300, out_dir=sys.argv[1])
loaded.append(any(m.startswith("numpy.") for m in sys.modules))
run_campaign(cfg, workers=2)
print(loaded)
"""


def test_numpy_loads_before_the_pool_forks(tmp_path):
    # each forked worker would otherwise import numpy on its own
    proc = run_python(NUMPY_BEFORE_THE_POOL, str(tmp_path / "camp"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, True]"


#: run in a fresh interpreter pinned to one CPU: does run start a pool?
PINNED_RUN = """
import multiprocessing, os, sys
from snailopt import cli
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

def no_pool(method=None):
    raise RuntimeError("a pool was started")

multiprocessing.get_context = no_pool
code = cli.main(["run", "--problem", "F16", "--trials", "3",
                 "--max-evals", "300", "--out", sys.argv[1]])
print(cli.usable_cpus(), code)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity on this platform")
def test_run_pinned_to_one_cpu_is_serial(tmp_path):
    proc = run_python(PINNED_RUN, str(tmp_path / "camp"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "1 0"


def test_cli_import_loads_no_pool_machinery():
    code = ("import sys, snailopt.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_catalog(capsys):
    assert cli.main(["catalog"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[1]
    dims = slice(header.index("dims"), header.index("box"))
    rows = {line.split()[0]: line for line in lines
            if line.startswith("  F")}
    assert list(rows) == [f"F{k}" for k in range(1, 24)]
    assert rows["F1"][dims].strip() == "30,100,500,1000"
    assert rows["F16"][dims].strip() == "2"
    assert [fid for fid, line in rows.items()
            if line.endswith(" per dim")] == ["F8"]
    cases = [line.split()[0] for line in lines if line.startswith("  sthe")]
    assert cases == ["sthe1", "sthe2", "sthe3"]


#: text of a --config file -> what refusing it must name
BAD_CONFIGS = {
    '{"trials": "3"}': "'trials'",
    '{"engine": {"homes": "3"}}': "'homes'",
    '{"trials": 2.5}': "'trials'",
    '{"base_seed": "1"}': "'base_seed'",
    '{"engine": 3}': "'engine'",
    "{\n": "job.json: Expecting property name",
    '{"engine": {"home_switch_prob": NaN}}': "home_switch_prob",
    '{"engine": {"homes": 0}}': "homes must be >= 1",
    '{"engine": {"neighborhood_fraction": Infinity}}': "neighborhood_fraction",
}
#: refused after the cases above, so that they keep their ids; the stop
#: rule's window is an engine constant, not an engine key
FOREIGN_CONFIGS = {'{"schema": "snailopt.campaign_config/9"}': "'schema'",
                   '[{"problem": "F16"}]': "job.json: not a JSON object",
                   '{"engine": {"stagnation_window": 5}}': "'stagnation_window'",
                   "[" * 100_000 + "]" * 100_000: "job.json: nested too deeply"}


@pytest.mark.parametrize("flags", [
    ["--problem", "F16", "--max-evals", "10"],
    ["--problem", "F99"],
    ["--problem", "sthe1", "--dim", "5"],
    ["--config", "missing.json"],
    *(["--config", text] for text in BAD_CONFIGS),
    ["--problem", "F16", "--seed", "-1"],
    *(["--config", text] for text in FOREIGN_CONFIGS),
])
def test_cli_refuses_a_bad_campaign_before_writing(tmp_path, capsys, flags):
    out = tmp_path / "camp"
    named = {**BAD_CONFIGS, **FOREIGN_CONFIGS}.get(flags[-1], "")
    if named:
        conf = tmp_path / "job.json"
        conf.write_text(flags[-1])
        flags = ["--config", str(conf)]
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", *flags, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("snailopt: error: ")
    assert named in err.splitlines()[-1]
    assert not out.exists()


def test_cli_run_has_no_engine_flags(tmp_path, capsys):
    # engine values are set only in the config file's engine block
    out = tmp_path / "camp"
    for flag in ("--homes", "--snails", "--switch-prob", "--neighborhood-frac"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--problem", "F16", flag, "4", "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == \
            f"snailopt: error: unrecognized arguments: {flag} 4"
    assert list(tmp_path.iterdir()) == []


def test_cli_config_engine_block_reaches_the_engine(tmp_path):
    # a colony of 2 x 3 fits a budget of 6, the default 3 x 10 does not
    conf = tmp_path / "job.json"
    conf.write_text(json.dumps({"engine": {"homes": 2, "snails_per_home": 3}}))
    assert cli.main(["run", "--config", str(conf), "--problem", "F16",
                     "--trials", "1", "--max-evals", "6",
                     "--out", str(tmp_path / "camp")]) == 0
    record = read_trial_record(tmp_path / "camp" / "trial_000.json")
    assert record["evals"] == 6
    assert len(record["best_trace"]) == 1


@pytest.mark.parametrize("sub", ["", "sub"])
def test_cli_refuses_an_output_path_under_a_file(tmp_path, capsys, sub):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--problem", "F16", "--out", str(taken / sub)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines()
            if line.startswith("snailopt: error: ")] == [err.splitlines()[-1]]
    assert str(taken) in err.splitlines()[-1]
    assert sorted(tmp_path.iterdir()) == [taken]


def test_cli_report_refuses_a_missing_directory(tmp_path, capsys):
    missing = tmp_path / "nodir" / "a" / "b"
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--in", str(missing)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines()
            if line.startswith("snailopt: error: ")] == [err.splitlines()[-1]]
    assert str(missing) in err.splitlines()[-1]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("table", ["wilcoxon_pairwise.csv", "closeness_sthe.csv"])
def test_cli_report_notes_a_table_path_that_is_a_directory(tmp_path, capsys, table):
    for label in ("a", "b"):  # two exchanger campaigns: both tables have rows
        run_campaign(CampaignConfig(problem="sthe1", trials=5, max_evals=300,
                                    label=label, out_dir=str(tmp_path / label)))
    (tmp_path / table).mkdir()
    assert cli.main(["report", "--in", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert str(tmp_path / table) not in printed
    other = ({"wilcoxon_pairwise.csv", "closeness_sthe.csv"} - {table}).pop()
    assert str(tmp_path / other) in printed
    assert (tmp_path / table).is_dir()
    assert f"note: {table} is a directory; table not written" in \
        (tmp_path / "report.txt").read_text()


def test_cli_report_refuses_a_report_txt_that_is_a_directory(tmp_path, capsys):
    run_campaign(small_cfg(tmp_path / "camp"))
    (tmp_path / "report.txt").mkdir()
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--in", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("snailopt: error: ")
    assert str(tmp_path / "report.txt") in err.splitlines()[-1]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["camp", "report.txt"]


def test_cli_report_skips_a_summary_nested_too_deep(tmp_path, capsys):
    run_campaign(small_cfg(tmp_path / "intact", label="intact"))
    deep = tmp_path / "deep" / "summary.json"
    deep.parent.mkdir()
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert cli.main(["report", "--in", str(tmp_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    text = (tmp_path / "report.txt").read_text()
    assert f"note: skipped {deep}: {deep}: nested too deeply" in text
    assert "campaigns found: 1" in text


def test_cli_config_file_takes_an_integer_for_a_float(tmp_path):
    conf = tmp_path / "job.json"
    conf.write_text(json.dumps({"engine": {"home_switch_prob": 0}}))
    assert cli.main(["run", "--config", str(conf), "--problem", "F16",
                     "--trials", "1", "--max-evals", "300",
                     "--out", str(tmp_path / "camp")]) == 0
    payload = read_summary(tmp_path / "camp" / "summary.json")
    assert payload["config"]["engine"] == {"home_switch_prob": 0}


def test_a_campaign_with_no_completed_trial(tmp_path, monkeypatch, capsys):
    # run exits 1, and the report names the exchanger campaign without
    # comparing it with the published costs
    evil = BoundedProblem(name="evil", dim=4, lower=np.array(LOWER),
                          upper=np.array(UPPER), func=lambda x: float("nan"))
    monkeypatch.setattr(harness, "resolve_problem", lambda cfg: evil)
    assert cli.main(["run", "--problem", "sthe1", "--trials", "2",
                     "--label", "broken", "--out", str(tmp_path / "camp")]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "broken: no trial completed"

    def refuse(token):
        raise ValueError(f"summary.json holds {token}")

    # strict JSON: the statistics of no trial are null, not NaN
    summary = json.loads((tmp_path / "camp" / "summary.json").read_text(),
                         parse_constant=refuse)["summary"]
    assert [summary[k] for k in ("completed", "best", "worst", "mean", "std",
                                 "avg_evals", "avg_wall_time")] == [0] + [None] * 6
    # and the summary re-derived from the (no) trial files is the stored one
    assert dataclasses.asdict(load_campaign(tmp_path / "camp" / "summary.json")[1]) == summary
    files = generate_reports(tmp_path)
    assert "closeness_sthe.csv" not in {p.name for p in files}
    text = (tmp_path / "report.txt").read_text()
    assert "  broken               no completed trials" in text
    assert "note: exchanger campaigns present but none completed" in text


def test_cli_does_not_catch_errors_raised_in_a_trial(tmp_path, monkeypatch):
    def broken(x):
        raise ValueError("objective bug")

    bug = BoundedProblem(name="bug", dim=2, lower=np.full(2, -1.0),
                         upper=np.full(2, 1.0), func=broken)
    monkeypatch.setattr(harness, "resolve_problem", lambda cfg: bug)
    with pytest.raises(ValueError, match="objective bug"):
        cli.main(["run", "--problem", "F16", "--trials", "1",
                  "--out", str(tmp_path / "camp")])


def test_cli_config_file_with_flag_overrides(tmp_path):
    conf = tmp_path / "job.json"
    conf.write_text(json.dumps({
        "problem": "F16", "trials": 1, "max_evals": 300,
        "out_dir": str(tmp_path / "camp"), "base_seed": 1,
    }))
    code = cli.main(["run", "--config", str(conf), "--trials", "2"])
    assert code == 0
    payload = read_summary(tmp_path / "camp" / "summary.json")
    assert payload["config"]["trials"] == 2        # flag beats file
    assert payload["config"]["max_evals"] == 300   # file value kept
    assert len(payload["record_files"]) == 2
