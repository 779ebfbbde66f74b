"""Correctness checks on the artifacts one pass of a workload wrote.

Every violation is returned as a line of text; the benchmark prints
them, counts them as failures and exits non-zero.  Checks per trial:

* ``final_f`` equals the objective re-evaluated at ``final_x`` and
  equals ``best_trace[-1]``;
* ``best_trace`` never increases;
* ``evals <= max_evals``, and ``max_evals`` is the campaign's budget.

It also collects what the quality metric needs: per trial the start
value, the final value and the reference ``f_ref``.

Checks per campaign and report: ``summary.json`` re-derives from its
trial files (``load_campaign``), every artifact carries its schema tag,
and every report table exists with the columns documented for it.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
from snailopt.benchmarks import known_optimum
from snailopt.harness import (REPORT_SCHEMA, SCATTER_SCHEMA,
                              default_budget, load_campaign, output_schemas,
                              read_trace_csv, read_trial_record, resolve_problem)
from snailopt.sthe import published_tables


@dataclasses.dataclass
class RepResult:
    """What the checks read back from the output directory of one pass."""

    violations: list[str]
    trials: list[tuple]     # (best_trace, final_x, evals), in campaign/trial order
    quality: list[tuple]    # (start, final_f, f_ref) for orders_gained
    evals: int = 0
    attempted: int = 0      # trials configured
    failed: int = 0         # trials listed as failures in summary.json


def original_design_cost(problem: str) -> float:
    """Published cost of the original-study design of exchanger case ``stheN``.

    Quality on the exchanger cases is measured from this fixed start: the
    best of the 30 random initial designs (``best_trace[0]``) varies so
    much between seeds that orders gained from it spread by a third of
    their median over ten seeds.
    """
    refs = published_tables()["closeness"][problem[-1]]
    return next(float(r["c_total"]) for r in refs if r["name"] == "Original Study")


def _first_line(path: Path) -> str:
    with open(path) as fh:
        return fh.readline().rstrip("\n")


def check_campaign(out: Path, res: RepResult) -> None:
    bad = res.violations.append
    summary_path = out / "summary.json"
    try:
        cfg, recomputed, payload = load_campaign(summary_path)
    except (OSError, ValueError, KeyError) as exc:
        bad(f"{out.name}: campaign does not reload: {exc}")
        return
    if dataclasses.asdict(recomputed) != payload["summary"]:
        bad(f"{out.name}: summary.json does not re-derive from its trial files")
    res.attempted += cfg.trials
    res.failed += len(payload["failures"])
    if len(payload["record_files"]) + len(payload["failures"]) != cfg.trials:
        bad(f"{out.name}: {cfg.trials} trials configured, "
            f"{len(payload['record_files'])} recorded, {len(payload['failures'])} failed")
    problem = resolve_problem(cfg)
    budget = default_budget(cfg, problem)
    f_ref = 0.0 if cfg.is_sthe else known_optimum(cfg.problem, cfg.dim)[0]
    start = original_design_cost(cfg.problem) if cfg.is_sthe else None
    for name in payload["record_files"]:
        rec = read_trial_record(out / name)
        tag = f"{out.name}/{name}"
        trace, final_f, evals = rec["best_trace"], rec["final_f"], rec["evals"]
        refound = float(problem.func(np.asarray(rec["final_x"], dtype=float)))
        if refound != final_f:
            bad(f"{tag}: final_f {final_f!r} but f(final_x) = {refound!r}")
        if trace[-1] != final_f:
            bad(f"{tag}: final_f {final_f!r} != best_trace[-1] {trace[-1]!r}")
        if any(b > a for a, b in zip(trace, trace[1:])):
            bad(f"{tag}: best_trace increases")
        if not evals <= rec["max_evals"] == budget:
            bad(f"{tag}: evals {evals} / max_evals {rec['max_evals']} / budget {budget}")
        stem = name[len("trial_"):-len(".json")]
        if cfg.export_trace:
            try:
                if [v for _k, v in read_trace_csv(out / f"trace_{stem}.csv")] != trace:
                    bad(f"{tag}: trace CSV differs from best_trace")
            except (OSError, ValueError) as exc:
                bad(f"{tag}: trace CSV unreadable: {exc}")
        if cfg.export_scatter:
            scatter = out / f"scatter_{stem}.csv"
            if not scatter.is_file() or _first_line(scatter) != f"# schema: {SCATTER_SCHEMA}":
                bad(f"{tag}: scatter CSV missing or without its schema tag")
        res.trials.append((trace, rec["final_x"], evals))
        res.quality.append((trace[0] if start is None else start, final_f, f_ref))
        res.evals += evals


def check_report(root: Path, tables, res: RepResult) -> None:
    bad = res.violations.append
    report = root / "report.txt"
    if not report.is_file() or _first_line(report) != f"# schema: {REPORT_SCHEMA}":
        bad("report.txt missing or without its schema tag")
    # report tables carry no tag line; their schema is the documented column set
    schemas = output_schemas()["schemas"]
    for name in tables:
        path = root / name
        if not path.is_file():
            bad(f"{name}: missing")
            continue
        header = _first_line(path).split(",")
        if header != list(schemas[f"report: {name}"]["columns"]):
            bad(f"{name}: header {header} differs from its documented schema")


def check_rep(root: Path, steps, tables) -> RepResult:
    """Run every check on the pass written under ``root``."""
    res = RepResult(violations=[], trials=[], quality=[])
    for step in steps:
        if step.command == "run":
            check_campaign(root / step.out, res)
    check_report(root, tables, res)
    return res
