"""Campaign runner: multi-trial experiments, persistence, and reports.

A *campaign* solves one problem (a catalogued benchmark function or one
of the exchanger sizing cases) over a number of independent seeded
trials and persists everything needed to reproduce or re-analyse it:

* one JSON record per trial, the engine's run record (:func:`trial_record`),
* an optional per-iteration convergence trace CSV per trial,
* an optional colony scatter CSV per trial (snapshots of snail
  positions and home assignments, for plotting),
* one JSON summary with the campaign configuration embedded.

Seeds are derived as ``base_seed + trial_index``, so a campaign is
fully reproducible from its config file alone.  Trials whose objective
evaluation fails are logged and skipped; the campaign carries on.

Trials share nothing, so ``run_trial(cfg, i)`` runs one of them from
its config and index alone: it builds the problem, runs the engine,
writes that trial's files and returns the trial record, or a failure
dict.  :func:`run_campaign` maps it over the trial indices, serially or
on a pool of forked workers, summarizes the records in trial order and
writes ``summary.json`` last; :func:`load_campaign` re-derives the
summary from the same records on disk.  Only data crosses the pool:
the pickled ``(cfg, i)``, and back a record, a failure dict or an
exception; fork just spares the workers the imports.  The artifacts
are byte-identical to a serial run apart from the wall-time fields.
The library default is serial: callers that wrap ``run`` or the
writers in-process (counting objective calls, timing layers) would see
nothing of what a worker does.  The CLI passes the number of CPUs the
process may use.

Every file is written to a temporary name in its target directory and
then renamed over the target, so an interrupted run leaves whole files
only.

:func:`generate_reports` turns a directory of campaigns into the
statistics artifacts: a Friedman ranking table computed from the
bundled published per-problem means, a pairwise Wilcoxon table where
two or more campaigns cover the same problem (one row per pair: the
problem, the two campaigns' names, the test and the fields of
:class:`~snailopt.stats.WilcoxonResult`), and a closeness table
comparing exchanger campaign results against the published designs.
A pair gets the signed-rank test on the trial seeds both campaigns
share (a rerun reads "no information"), the rank-sum test on none.
A campaign's name is its label, given a ``#N`` suffix when an earlier
campaign in the report holds it; every report file uses that name.

Every output file carries a schema tag; the column layouts are
documented in ``data/output_schemas.json``.  Every JSON file, written
here or bundled, is read back by :func:`snailopt.data.read_json`.

``report`` never loads numpy (bound lazily, in ``_numpy``): configs take
the dimension from the catalog's rule, summaries and statistics are
plain floats.  :func:`run_campaign` loads it before its pool forks, but
not ``numpy.random``: each forked worker imports that on its first
trial, which adds about 20 ms to it (a short F16 trial took 41 ms,
against 20 ms with the module loaded, on a 2-vCPU VM).  Loading it in
the parent instead costs 15-18.5 ms there, before the fork: about what
the workers, importing side by side, save.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import itertools
import json
import logging
import math
import operator
import os
import typing
from dataclasses import dataclass, field
from pathlib import Path

from ._numpy import np
from .benchmarks import CATALOG, _resolve_dim, make_benchmark
from .data import load, read_json
from .objective import BoundedProblem, NonFiniteObjective
from .shms import RunRecord, ShmsConfig, run
from .stats import _pairwise_sum, friedman_ranks, wilcoxon_signed_rank
from .sthe import (closeness_direction, closeness_percent, make_problem,
                   published_tables)

log = logging.getLogger("snailopt.harness")

TRIAL_SCHEMA = "snailopt.trial/1"
TRIAL_FILE = "trial_{:03d}.json"
SUMMARY_SCHEMA = "snailopt.summary/1"
TRACE_SCHEMA = "snailopt.trace/1"
SCATTER_SCHEMA = "snailopt.scatter/1"
REPORT_SCHEMA = "snailopt.report/1"
CONFIG_SCHEMA = "snailopt.campaign_config/1"

#: evaluation budgets used when the config leaves ``max_evals`` unset:
#: benchmarks get a dimension-dependent default, the exchanger cases
#: mirror the published average evaluation counts.
BENCHMARK_BUDGET_SMALL = 30_000   # dim <= 100
BENCHMARK_BUDGET_LARGE = 100_000  # dim > 100
STHE_BUDGETS = {1: 20_510, 2: 17_235, 3: 44_721}

#: ShmsConfig fields a config file may override (the campaign sets the rest).
ENGINE_KEYS = tuple(f.name for f in dataclasses.fields(ShmsConfig)
                    if f.name not in ("max_evals", "seed"))


@dataclass(frozen=True)
class CampaignConfig:
    """Everything needed to rerun a campaign.

    Construction checks every value a run depends on (types, problem,
    dimension, engine overrides, budget) and raises ``ValueError``, so
    a config that constructs can run.

    Parameters
    ----------
    problem : str
        ``"F1"``..``"F23"`` for the benchmark catalog, or ``"sthe1"``,
        ``"sthe2"``, ``"sthe3"`` for the exchanger cases.
    dim : int, optional
        Dimension for scalable benchmarks (default 30).  Fixed-
        dimension functions and the exchanger cases ignore it (and
        reject a mismatch).
    trials : int
        Number of independent runs (default 30).
    base_seed : int
        Trial ``i`` runs with seed ``base_seed + i``.
    max_evals : int, optional
        Per-trial evaluation budget; ``None`` picks the documented
        default for the problem type.
    out_dir : str
        Directory the campaign writes into (created if missing).
    label : str, optional
        Name used in reports; defaults to the problem key.
    engine : dict
        ``ShmsConfig`` overrides, keys restricted to
        :data:`ENGINE_KEYS`.
    export_trace, export_scatter : bool
        Artifact switches: per-trial trace CSVs and per-trial scatter
        CSVs.  ``summary.json`` is always written, and report generation
        uses every campaign it can load.
    """

    problem: str = "F1"
    dim: int | None = None
    trials: int = 30
    base_seed: int = 1
    max_evals: int | None = None
    out_dir: str = "results"
    label: str | None = None
    engine: dict = field(default_factory=dict)
    export_trace: bool = True
    export_scatter: bool = False

    def __post_init__(self):
        _check_types(CampaignConfig, vars(self), "config key")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not (self.problem in CATALOG
                or self.problem in {f"sthe{k}" for k in STHE_BUDGETS}):
            raise ValueError(f"unknown problem {self.problem!r}")
        bad = set(self.engine) - set(ENGINE_KEYS)
        if bad:
            raise ValueError(f"unknown engine override(s): {sorted(bad)}")
        _check_types(ShmsConfig, self.engine, "engine key")
        # default_budget checks the dimension, the engine its values
        ShmsConfig(max_evals=default_budget(self), seed=self.base_seed,
                   **self.engine)

    @property
    def is_sthe(self) -> bool:
        return self.problem.startswith("sthe")

    @property
    def problem_dim(self) -> int:
        """The problem's dimension by the catalog's rule, without building
        the problem; ``ValueError`` for a dimension the problem rejects."""
        if not self.is_sthe:
            return _resolve_dim(CATALOG[self.problem], self.dim)
        if self.dim not in (None, 4):
            raise ValueError("exchanger cases are 4-dimensional; drop --dim")
        return 4

    @property
    def problem_key(self) -> str:
        """Problem identity used to align campaigns in reports."""
        return self.problem if self.is_sthe else f"{self.problem}-d{self.problem_dim}"

    @property
    def display_label(self) -> str:
        return self.label if self.label else self.problem_key

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["schema"] = CONFIG_SCHEMA
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignConfig":
        if not isinstance(d, dict):
            raise ValueError(f"a config must be a JSON object; got {d!r}")
        d = dict(d)
        if (schema := d.pop("schema", CONFIG_SCHEMA)) != CONFIG_SCHEMA:
            raise ValueError(f"config key 'schema' must be {CONFIG_SCHEMA!r}; got {schema!r}")
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown config key(s): {sorted(unknown)}")
        return cls(**d)


def _check_types(cls, values: dict, what: str) -> None:
    """Raise ``ValueError`` naming the first of ``values`` not of its type
    in dataclass ``cls`` (an int passes as a float, a bool not as an int)."""
    hints = typing.get_type_hints(cls)
    for key, value in values.items():
        allowed = typing.get_args(hints[key]) or (hints[key],)
        allowed += (int,) if float in allowed else ()
        if (isinstance(value, bool) != (bool in allowed)
                or not isinstance(value, allowed)):
            kind = getattr(hints[key], "__name__", hints[key])
            raise ValueError(f"{what} {key!r} must be {kind}; got {value!r}")


@dataclass(frozen=True)
class CampaignSummary:
    """Aggregate statistics over the completed trials of a campaign; with
    none completed the six statistics are ``None`` (``null`` in the file)."""

    problem_key: str
    label: str
    trials: int
    completed: int
    best: float | None
    worst: float | None
    mean: float | None
    std: float | None
    avg_evals: float | None
    avg_wall_time: float | None

    def __post_init__(self):
        if self.completed > 0:
            if not self.best <= self.mean <= self.worst:
                raise ValueError(f"summary needs best <= mean <= worst; got "
                                 f"{self.best!r}, {self.mean!r}, {self.worst!r}")
            if not self.std >= 0.0:
                raise ValueError(f"summary needs std >= 0; got {self.std!r}")


def resolve_problem(cfg: CampaignConfig) -> BoundedProblem:
    """Instantiate the problem a config refers to (F7 noise-free; a
    campaign's trials add the noise, see :func:`run_trial`)."""
    if cfg.is_sthe:
        return make_problem(int(cfg.problem[-1]))
    return make_benchmark(cfg.problem, cfg.dim)


def default_budget(cfg: CampaignConfig, problem=None) -> int:
    """The evaluation budget implied by the config (or its default).

    The dimension comes from :attr:`CampaignConfig.problem_dim`;
    ``problem`` is ignored.  It stays while the benchmark's
    ``perfbench/checks.py::check_campaign`` passes it positionally, as
    do ``tests/test_golden.py`` and ``tests/test_harness.py``.
    """
    dim = cfg.problem_dim
    if cfg.max_evals is not None:
        return int(cfg.max_evals)
    if cfg.is_sthe:
        return STHE_BUDGETS[int(cfg.problem[-1])]
    if dim <= 100:
        return BENCHMARK_BUDGET_SMALL
    return BENCHMARK_BUDGET_LARGE


def summarize(cfg: CampaignConfig, records: list[dict]) -> CampaignSummary:
    """Aggregate the completed trials' records (:func:`trial_record`);
    pure, so a summary re-derives exactly from the records on disk.  Mean
    and std are numpy's, bit for bit, summed in numpy's order on floats.
    Best and worst are Python's ``min``/``max``, which keep the first of
    tied +0.0 and -0.0; numpy's choice follows no single rule (numpy
    2.4: the last tie, except at n = 9, 17, 25, ...), so those may differ."""
    n = len(records)
    if not n:
        return CampaignSummary(cfg.problem_key, cfg.display_label, cfg.trials,
                               0, *[None] * 6)
    finals = [float(r["final_f"]) for r in records]
    best, worst = min(finals), max(finals)
    mean = _pairwise_sum(finals) / n
    return CampaignSummary(
        problem_key=cfg.problem_key,
        label=cfg.display_label,
        trials=cfg.trials,
        completed=n,
        best=best,
        worst=worst,
        # summation round-off can push the mean of near-identical finals a
        # few ulps past the extremes; the true mean always lies between them
        mean=min(max(mean, best), worst),
        std=math.sqrt(_pairwise_sum([(f - mean) * (f - mean) for f in finals]) / n),
        avg_evals=_pairwise_sum([float(r["evals"]) for r in records]) / n,
        avg_wall_time=_pairwise_sum([float(r["wall_time"]) for r in records]) / n,
    )


# ---------------------------------------------------------------------------
# artifact writers / readers
# ---------------------------------------------------------------------------

def write_atomic(path: Path, text: str | typing.Iterable[str]) -> Path:
    """Write ``text``, a string or an iterable of lines, to ``path``
    through a temporary file and a rename.

    Lines are written as they come, so a large file is never held
    whole.  The temporary file sits in the target directory (a rename
    does not cross file systems) and carries the writer's pid
    (concurrent writers never share one).  Readers see the old file or
    the whole new one, and a failed write (an exception from ``text``
    too) leaves neither a target nor a temporary file behind.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as f:
            f.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def trial_record(cfg: CampaignConfig, i: int, rec: RunRecord) -> dict:
    """Trial ``i``'s record: its problem and index, then ``rec``'s fields."""
    return {"schema": TRIAL_SCHEMA, "problem": cfg.problem_key, "trial": i,
            **vars(rec), "final_x": rec.final_x.tolist()}


def write_trial_record(out: Path, record: dict) -> Path:
    return write_atomic(out / TRIAL_FILE.format(record["trial"]),
                        json.dumps(record, allow_nan=False))


def read_trial_record(path) -> dict:
    d = read_json(path, TRIAL_SCHEMA)
    if not all(type(d.get(k)) in (int, float) for k in ("final_f", "evals", "wall_time")):
        raise ValueError(f"{path}: final_f, evals and wall_time must be numbers")
    return d


def write_trace_csv(out: Path, i: int, rec: RunRecord) -> Path:
    path = out / f"trace_{i:03d}.csv"
    lines = [f"# schema: {TRACE_SCHEMA}", "iteration,best_f"]
    lines += [f"{k},{v!r}" for k, v in enumerate(rec.best_trace)]
    return write_atomic(path, "\n".join(lines) + "\n")


def read_trace_csv(path) -> list[tuple[int, float]]:
    rows = []
    lines = Path(path).read_text().splitlines()
    if not lines or TRACE_SCHEMA not in lines[0]:
        raise ValueError(f"{path}: not a {TRACE_SCHEMA} file")
    for line in lines[2:]:
        k, v = line.split(",")
        rows.append((int(k), float(v)))
    return rows


class ScatterRecorder:
    """Observer that snapshots colony positions for scatter export.

    Records the colony at iteration 0, every power-of-two iteration,
    and (via :meth:`flush`) the final state, so file size grows
    logarithmically with run length.

    Between recordings it keeps only the colony: ``run`` passes the same
    object on every call and changes nothing after the last one, so
    :meth:`flush` reads the final state from it after the run.  Each row
    ``(iteration, snail, home_id, x)`` holds the snail's own position
    array, not a copy: positions are replaced, never mutated
    (:class:`~snailopt.shms.SnailState`), so a snapshot keeps its values
    and holds memory only for the arrays the colony has since replaced.
    """

    def __init__(self):
        self.rows: list[tuple] = []
        self._colony = None

    def __call__(self, colony) -> None:
        self._colony = colony
        if not colony.iteration & (colony.iteration - 1):  # 0 or a power of 2
            self.flush()

    def flush(self) -> None:
        """Record the latest colony unless it is recorded already."""
        c = self._colony
        if c is not None and not (self.rows and self.rows[-1][0] == c.iteration):
            self.rows.extend((c.iteration, j, s.home_id, s.x)
                             for j, s in enumerate(c.snails))


def write_scatter_csv(out: Path, i: int, recorder: ScatterRecorder,
                      dim: int) -> Path:
    path = out / f"scatter_{i:03d}.csv"
    cols = ",".join(f"x{d}" for d in range(dim))
    head = f"# schema: {SCATTER_SCHEMA}\niteration,snail,home_id,{cols}\n"
    rows = (f"{it},{j},{home},{','.join(map(repr, x.tolist()))}\n"
            for it, j, home, x in recorder.rows)
    return write_atomic(path, itertools.chain((head,), rows))


def provenance() -> dict:
    """What a campaign's bits rest on: the objectives compute on CPython
    floats, libm ``pow`` and numpy's SIMD ``exp``/``power``, so results
    are bitwise only for the same versions and machine."""
    import platform

    from . import __version__
    return {"snailopt": __version__, "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine()}


def write_summary(out: Path, cfg: CampaignConfig, summary: CampaignSummary,
                  records: list[dict], failures: list[dict]) -> Path:
    payload = {
        "schema": SUMMARY_SCHEMA,
        "config": cfg.to_dict(),
        "summary": dataclasses.asdict(summary),
        "finals": [r["final_f"] for r in records],
        "record_files": [TRIAL_FILE.format(r["trial"]) for r in records],
        "failures": failures,
        "provenance": provenance(),
    }
    return write_atomic(out / "summary.json",
                        json.dumps(payload, indent=1, allow_nan=False))


def read_summary(path) -> dict:
    return read_json(path, SUMMARY_SCHEMA)


def write_table_csv(path, rows: list[dict]) -> Path:
    """Write a list of uniform dict rows; floats round-trip exactly."""
    buf = io.StringIO(newline="")
    if rows:
        w = csv.DictWriter(buf, fieldnames=list(rows[0]))
        w.writeheader()
        for row in rows:
            w.writerow({k: repr(v) if isinstance(v, float) else v
                        for k, v in row.items()})
    return write_atomic(Path(path), buf.getvalue())


# ---------------------------------------------------------------------------
# campaign execution
# ---------------------------------------------------------------------------

def run_trial(cfg: CampaignConfig, i: int) -> dict:
    """Run trial ``i`` of a campaign and write its files.

    The config and the index are the whole job: the problem and budget
    come from ``cfg``.  Returns the trial record written to
    ``trial_NNN.json`` (:func:`trial_record`), or ``{"trial", "seed",
    "error"}`` when the objective turned non-finite (no file is written
    then).  Any other exception propagates.
    """
    seed = cfg.base_seed + i
    if cfg.problem == "F7":
        # the published F7's uniform [0, 1) noise, from a stream of its own:
        # a child of SeedSequence(seed), so independent of the engine's
        # default_rng(seed), and replayed by the same config
        noise = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        problem = make_benchmark("F7", cfg.dim, noise_rng=noise)
    else:
        problem = resolve_problem(cfg)
    shms_cfg = ShmsConfig(max_evals=default_budget(cfg), seed=seed,
                          **cfg.engine)
    recorder = ScatterRecorder() if cfg.export_scatter else None
    try:
        rec = run(problem, shms_cfg, observer=recorder)
    except NonFiniteObjective as exc:
        return {"trial": i, "seed": seed, "error": str(exc)}
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    record = trial_record(cfg, i, rec)
    write_trial_record(out, record)
    if cfg.export_trace:
        write_trace_csv(out, i, rec)
    if recorder is not None:
        recorder.flush()
        write_scatter_csv(out, i, recorder, problem.dim)
    return record


def _trial_results(cfg: CampaignConfig, workers: int):
    """``run_trial(cfg, i)`` for every trial index, in order, on up to
    ``workers`` forked processes (serially where there is no fork)."""
    trial = functools.partial(run_trial, cfg)
    workers = min(workers, cfg.trials)
    if workers > 1:
        # load numpy here, once, not in every forked worker; each worker
        # still imports numpy.random on its first trial (module docstring)
        np.ndarray
        import multiprocessing
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            pass
        else:
            from concurrent.futures import ProcessPoolExecutor
            # the job and its result are pickled; a worker that dies
            # raises BrokenProcessPool instead of hanging
            pool = ProcessPoolExecutor(workers, mp_context=ctx)
            try:
                yield from pool.map(trial, range(cfg.trials))
            finally:
                pool.shutdown(cancel_futures=True)
            return
    yield from map(trial, range(cfg.trials))


def run_campaign(cfg: CampaignConfig, workers: int = 1) -> CampaignSummary:
    """Run all trials of a campaign and persist the artifacts.

    Returns the summary (also written to ``summary.json``, last).  A
    trial that raises :class:`NonFiniteObjective` is logged and skipped;
    any other exception propagates (it is a bug, not a data issue).
    With ``workers > 1`` the trials run on that many forked processes,
    each given ``(cfg, i)``; the artifacts are the same apart from wall
    times.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    records: list[dict] = []
    failures: list[dict] = []
    for r in _trial_results(cfg, workers):
        if "error" in r:
            log.warning("trial %(trial)d (seed %(seed)d) aborted: %(error)s", r)
            failures.append(r)
        else:
            log.info("trial %(trial)d (seed %(seed)d): final_f %(final_f).10g, "
                     "%(evals)d evals, %(wall_time).3f s", r)
            records.append(r)

    summary = summarize(cfg, records)
    write_summary(out, cfg, summary, records, failures)
    return summary


def load_campaign(summary_path) -> tuple[CampaignConfig, CampaignSummary, dict]:
    """Reload a campaign from its ``summary.json``.

    Returns the parsed config, a summary *recomputed from the per-trial
    record files* (so corruption or hand-editing is caught), and the
    raw summary payload.  A file of the wrong shape, or one naming a
    record outside its own directory, raises ``ValueError``.
    """
    payload = read_summary(summary_path)
    cfg = CampaignConfig.from_dict(payload["config"])
    names = payload["record_files"]
    if not (isinstance(names, list)
            and all(isinstance(n, str) and Path(n).name == n for n in names)):
        raise ValueError(f"{summary_path}: 'record_files' must be a list of file names")
    base = Path(summary_path).parent
    records = [read_trial_record(base / name) for name in names]
    return cfg, summarize(cfg, records), payload


def _check_record(name: str, rec: dict, cfg: CampaignConfig, budget: int) -> None:
    """Raise ``ValueError`` naming ``name`` and the field unless trial
    record ``rec`` is one of ``cfg``'s: its problem key and budget, int
    ``trial`` and ``evals`` with 1 <= evals <= max_evals, a non-empty,
    non-increasing ``best_trace`` of finite numbers that ends at
    ``final_f``, and a ``final_x`` of the problem's dimension."""
    trace, evals = rec["best_trace"], rec["evals"]
    if rec["problem"] != cfg.problem_key:
        raise ValueError(f"{name}: 'problem' {rec['problem']!r} is not the "
                         f"campaign's {cfg.problem_key!r}")
    if rec["max_evals"] != budget:
        raise ValueError(f"{name}: 'max_evals' {rec['max_evals']!r} is not the campaign's budget")
    if type(rec["trial"]) is not int:
        raise ValueError(f"{name}: 'trial' {rec['trial']!r} is not an int")
    if type(evals) is not int or not 1 <= evals <= budget:
        raise ValueError(f"{name}: 'evals' {evals!r} is not an int in [1, max_evals]")
    # non-increasing (a NaN compares false) between finite ends: all finite
    if not (isinstance(trace, list) and trace and set(map(type, trace)) <= {int, float}
            and math.isfinite(trace[0]) and math.isfinite(trace[-1])
            and trace[-1] == rec["final_f"] and all(map(operator.ge, trace, trace[1:]))):
        raise ValueError(f"{name}: 'best_trace' is not a non-increasing list of "
                         "finite numbers that ends at final_f")
    if not isinstance(rec["final_x"], list) or len(rec["final_x"]) != cfg.problem_dim:
        raise ValueError(f"{name}: 'final_x' does not hold {cfg.problem_dim} entries")


def _check_finals(summary_path, cfg: CampaignConfig, payload: dict) -> dict:
    """The records' ``final_f`` by seed, the report's pairing key; raises
    ``ValueError`` unless each record is one of the campaign's
    (:func:`_check_record`), each seed is ``base_seed + trial`` and its own,
    ``finals`` is the records' ``final_f`` in order and exchanger costs > 0.

    The record checks live here, in the report's pass, and not in
    :func:`load_campaign`, which must still load a record that
    contradicts its campaign so that perfbench's ``check_campaign`` can
    name each violation."""
    base, budget = Path(summary_path).parent, default_budget(cfg)
    finals = {}
    for name in payload["record_files"]:
        rec = read_trial_record(base / name)
        _check_record(name, rec, cfg, budget)
        if rec["seed"] != cfg.base_seed + rec["trial"] or rec["seed"] in finals:
            raise ValueError(f"{name}: seed {rec['seed']!r} is not base_seed + trial or repeats")
        finals[rec["seed"]] = rec["final_f"]
    if payload.get("finals") != list(finals.values()):
        raise ValueError(f"{summary_path}: 'finals' is missing or does not "
                         "match the trial records")
    if cfg.is_sthe and min(finals.values(), default=1.0) <= 0.0:
        raise ValueError(f"exchanger cost {min(finals.values())!r} is not positive")
    return finals


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def published_friedman_rows() -> list[dict]:
    """Friedman mean ranks recomputed from the bundled published means.

    One block per published table, in the file's order: the four
    scalable-function dimensions, then the fixed set (``"fixed"``).
    """
    data = load("published_means.json")
    rows = []
    for key, table in data["tables"].items():
        res = friedman_ranks(table["means"], data["algorithms"])
        for lab, mr, rk in zip(res.labels, res.mean_ranks, res.ordering):
            rows.append({"table": key, "algorithm": lab,
                         "mean_rank": mr, "rank": rk})
    return rows


def generate_reports(results_dir) -> list[Path]:
    """Build report files for every campaign found under ``results_dir``.

    Always emits ``friedman_published.csv`` (it depends only on bundled
    data) and ``report.txt``; adds ``wilcoxon_pairwise.csv`` when at
    least two campaigns share a problem and ``closeness_sthe.csv`` when
    exchanger campaigns exist, and deletes a stale copy of either table
    it does not write.  Each campaign is loaded once and keeps one name
    in every file (see the module docstring); one that does not load, or
    whose records contradict it (:func:`_check_finals`), is skipped with
    a notice.  Returns the written paths.
    Raises ``NotADirectoryError`` when ``results_dir`` is not a directory
    and ``IsADirectoryError`` when its ``report.txt`` is one, before
    writing anything; a table path that is a directory gets a notice.
    """
    root = Path(results_dir)
    if not root.is_dir():
        raise NotADirectoryError(f"{root} is not a directory of results")
    if (root / "report.txt").is_dir():
        raise IsADirectoryError(f"{root / 'report.txt'} is a directory; "
                                "the report cannot be written")
    written: list[Path] = []
    notices: list[str] = []

    campaigns = []  # (name, cfg, summary, {seed: final_f}), in path order
    for path in sorted(root.rglob("summary.json")):
        try:
            cfg, summary, payload = load_campaign(path)
            by_seed = _check_finals(path, cfg, payload)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            notices.append(f"skipped {path}: {exc}")
            continue
        names = {n for n, *_ in campaigns}
        name, k = cfg.display_label, len(campaigns)
        while name in names:  # a repeated label, or one a suffix took
            name, k = f"{cfg.display_label}#{k}", k + 1
        campaigns.append((name, cfg, summary, by_seed))

    def write_or_drop(name, rows):
        """Write table ``name``, or delete a stale copy when ``rows`` is empty."""
        path = root / name
        if path.is_dir():
            notices.append(f"{name} is a directory; table not written")
        elif rows:
            written.append(write_table_csv(path, rows))
        elif path.exists():
            path.unlink()
            notices.append(f"removed {name} left by an earlier report")
        return bool(rows)

    # Friedman table from the bundled published means (always available)
    write_or_drop("friedman_published.csv", published_friedman_rows())

    # campaigns on one problem pair on their shared seeds (common random
    # numbers); sharing none, all their finals are independent samples
    wil_rows = []
    keys = [cfg.problem_key for _n, cfg, _s, _f in campaigns]
    for key in sorted(set(keys)):
        runs = [(n, f) for n, cfg, _s, f in campaigns if cfg.problem_key == key]
        for (a, fa), (b, fb) in itertools.combinations(runs, 2):
            shared = fa.keys() & fb.keys()
            xa, xb = ([run[s] for s in shared or run] for run in (fa, fb))
            if min(len(xa), len(xb)) < 5:
                notices.append(f"{key}: fewer than 5 trials to compare {a} and {b} "
                               f"({len(shared)} seeds shared); pair skipped")
                continue
            res = wilcoxon_signed_rank(xa, xb, labels=(a, b), paired=bool(shared))
            wil_rows.append({"problem": key, "a": a, "b": b,
                             "test": "signed-rank" if shared else "rank-sum",
                             **dataclasses.asdict(res)})
    if not write_or_drop("wilcoxon_pairwise.csv", wil_rows) and \
            len(set(keys)) == len(keys):
        notices.append("no problem is covered by two campaigns; "
                       "pairwise Wilcoxon table skipped")

    # closeness table for exchanger campaigns
    close_rows = []
    published = None
    for name, cfg, summary, _f in campaigns:
        if not cfg.is_sthe or summary.completed == 0:
            continue
        if published is None:
            published = published_tables()
        case_id = cfg.problem[-1]
        for ref in published["closeness"][case_id]:
            value = closeness_percent(ref["c_total"], summary.best)
            close_rows.append({
                "case": int(case_id), "campaign": name,
                "reference": ref["name"], "reference_c_total": ref["c_total"],
                "our_best": summary.best,
                "closeness_percent": value,
                "direction": closeness_direction(value),
            })
    if not write_or_drop("closeness_sthe.csv", close_rows) and \
            any(cfg.is_sthe for _n, cfg, _s, _f in campaigns):
        notices.append("exchanger campaigns present but none completed")

    lines = [f"# schema: {REPORT_SCHEMA}", ""]
    if campaigns:
        lines.append(f"campaigns found: {len(campaigns)}")
        for name, _cfg, summary, _f in campaigns:
            if summary.completed:
                lines.append(
                    f"  {name:<20} best {summary.best:.6g}  "
                    f"mean {summary.mean:.6g}  worst {summary.worst:.6g}  "
                    f"std {summary.std:.6g}  "
                    f"avg evals {summary.avg_evals:.0f}  "
                    f"avg wall {summary.avg_wall_time:.3f}s")
            else:
                lines.append(f"  {name:<20} no completed trials")
    else:
        lines.append("no campaigns found")
    lines.append("")
    lines += [f"note: {n}" for n in notices]
    lines.append(f"files: {', '.join(p.name for p in written)}")
    written.append(write_atomic(root / "report.txt", "\n".join(lines) + "\n"))
    return written


def output_schemas() -> dict:
    """The bundled description of every artifact's columns/fields."""
    return load("output_schemas.json")
