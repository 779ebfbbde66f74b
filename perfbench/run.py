"""Campaign benchmark for snailopt: end-to-end CLI timings, checked results.

Run from the repository root::

    python3 perfbench/run.py --workload d500 --seed 1 --seconds 15 --trace 0

The benchmark is one closed-loop client: it launches the real CLI
(``python -m snailopt.cli run|report``) one command at a time, with at
most one child process alive.  It runs the workload's command sequence
once, then re-launches the idempotent final ``report`` until
``--seconds`` have been spent (at least ``MIN_REPORT_LAUNCHES`` report
launches in all).  Afterwards it checks every artifact the CLI wrote
(see ``checks.py``).

With ``--trace 1`` it then runs the same campaigns in-process through
``harness.run_campaign`` / ``harness.generate_reports``, twice without
and twice with the layer timers of ``tracer.py`` installed, and prints
the per-layer metrics.  The traced run's fingerprint must equal the
CLI's.

Text lines go to stdout first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is non-zero when a check fails or a command fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from importlib import metadata
from pathlib import Path

from measure import fingerprint, orders_gained, parse_importtime
from workloads import REPORT_TABLES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
SETUP_LAUNCHES = 3
MIN_REPORT_LAUNCHES = 3
CHILD_TIMEOUT_S = 150

perf_counter = time.perf_counter


def provenance(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def launch(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run one child Python process to completion; return its wall time."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return perf_counter() - t0, proc


def timed_launches(argv: list[str], n: int) -> list[tuple[float, str]]:
    """``n`` launches of ``argv``; any failure aborts the benchmark."""
    out = []
    for _ in range(n):
        seconds, proc = launch(argv)
        if proc.returncode != 0:
            raise SystemExit(f"{' '.join(argv)} failed:\n{proc.stderr}")
        out.append((seconds, proc.stderr))
    return out


def launch_step(step, rep_dir: Path, rep: dict) -> None:
    """Launch one CLI command, filing its wall time under its command name."""
    seconds, proc = launch(["-m", "snailopt.cli", *step.argv(str(rep_dir))])
    rep[step.command].append(seconds)
    if proc.returncode != 0:
        rep["failed_cmds"].append(f"{step.command} {step.out}: exit "
                                  f"{proc.returncode}: {proc.stderr.strip()[-300:]}")


def cli_rep(steps, rep_dir: Path) -> dict:
    """Launch each CLI command of the workload once; time the whole sequence."""
    rep = {"wall": 0.0, "run": [], "report": [], "failed_cmds": []}
    t0 = perf_counter()
    for step in steps:
        launch_step(step, rep_dir, rep)
    rep["wall"] = perf_counter() - t0
    return rep


def inprocess_rep(steps, rep_dir: Path, tracer=None) -> float:
    """Run the same commands in-process through the harness; return wall time."""
    from snailopt import cli, harness
    from tracer import instrument

    parser = cli.build_parser()
    span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    t0 = perf_counter()
    with instrument(tracer) if tracer is not None else nullcontext(), span("rep"):
        for step in steps:
            args = parser.parse_args(step.argv(str(rep_dir)))
            if step.command == "run":
                with span("harness.campaign"):
                    harness.run_campaign(cli.config_from_args(args))
            else:
                with span("report.generate"):
                    written = harness.generate_reports(args.results_dir)
                if tracer is not None:
                    # report.txt is written by generate_reports itself, not
                    # through a wrapped writer: count it here
                    tracer.count("harness.files")
                    tracer.count("harness.bytes", os.path.getsize(written[-1]))
    return perf_counter() - t0


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def print_metric(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<24} {value:>14.6g} {unit:<6} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure this long (the command sequence runs once in any case)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "snailopt" / "cli.py").is_file():
        print(f"no snailopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import snailopt
    if Path(snailopt.__file__).resolve().parent != SRC / "snailopt":
        print(f"snailopt resolves to {snailopt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from checks import check_rep

    name, steps, tables = args.workload, WORKLOADS[args.workload](args.seed), REPORT_TABLES[args.workload]
    work = fresh(WORK / f"{name}-{args.seed}")
    prov = provenance(args.seed)
    print(f"workload {name}  seed {args.seed}  provenance {json.dumps(prov)}")

    # set-up: the fixed cost every CLI command pays before doing any work
    setup = [s for s, _ in timed_launches(["-c", "import snailopt.cli"], SETUP_LAUNCHES)]

    t_start = perf_counter()
    rep_dir = fresh(work / "rep")
    rep = cli_rep(steps, rep_dir)
    # the final report is idempotent: re-launch it until --seconds are spent
    while (len(rep["report"]) < MIN_REPORT_LAUNCHES
           or perf_counter() - t_start + rep["report"][-1] <= args.seconds):
        launch_step(steps[-1], rep_dir, rep)
    measured_s = perf_counter() - t_start
    result = check_rep(rep_dir, steps, tables)
    shutil.rmtree(rep_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    violations = result.violations + rep["failed_cmds"]
    fp = fingerprint(result.trials)
    quality = [orders_gained(*q) for q in result.quality]
    attempted = result.attempted + len(rep["run"]) + len(rep["report"])

    # wall_s and evals_per_s are one sample each: the command sequence
    # runs once.  Launch timings with several samples report the median.
    reports = rep["report"]
    e2e = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} launches"),
        "wall_s": (rep["wall"], "s", "one pass of the command sequence"),
        "evals_per_s": (result.evals / sum(rep["run"]), "1/s",
                        f"{result.evals} evals over {len(rep['run'])} run commands"),
        "report_s": (statistics.median(reports), "s",
                     f"median of {len(reports)} launches, best {min(reports):.4g}"),
        "peak_rss_mb": (peak_rss_mb, "MB", "largest child max-RSS"),
        "orders_gained_mean": (statistics.mean(quality) if quality else float("nan"),
                               "log10", f"mean over {len(quality)} trials"),
    }
    print(f"end to end ({measured_s:.1f} s measured, fingerprint {fp}):")
    for key, (value, unit, note) in e2e.items():
        print_metric(key, value, unit, note)
    metrics = {k: {"value": v, "unit": u} for k, (v, u, _n) in e2e.items()}

    if args.trace:
        metrics = trace_run(steps, tables, work, fp, e2e, violations)

    for v in violations:
        print(f"VIOLATION {v}")
    # failed trials, failed commands and check violations all count
    failed = result.failed + len(violations)
    print_metric("failed_share", failed / attempted, "ratio",
                 f"{failed} of {attempted} trials and commands attempted")
    print(json.dumps({"correct": not violations, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def trace_run(steps, tables, work: Path, cli_fp: str, e2e: dict, violations: list) -> dict:
    """Per-layer metrics: import profile plus traced in-process runs."""
    from checks import check_rep
    from tracer import Tracer, layer_metrics, layer_self_times

    interp = [s for s, _ in timed_launches(["-c", "pass"], SETUP_LAUNCHES)]
    profiles = [parse_importtime(err) for _s, err in
                timed_launches(["-X", "importtime", "-c", "import snailopt.cli"], SETUP_LAUNCHES)]
    # Tracer overhead: untraced and traced in-process runs in the order
    # plain, traced, traced, plain, best of two on each side, so that a
    # machine speeding up or slowing down during the run does not count
    # as overhead.  Layer metrics come from the first traced run.
    walls = {"plain": [], "traced": []}
    tracer = None
    for kind in ("plain", "traced", "traced", "plain"):
        this = Tracer() if kind == "traced" else None
        rep_dir = fresh(work / kind)
        walls[kind].append(inprocess_rep(steps, rep_dir, this))
        if this is not None and tracer is None:
            tracer = this
            traced = check_rep(rep_dir, steps, tables)
            violations += [f"traced run: {v}" for v in traced.violations]
            if fingerprint(traced.trials) != cli_fp:
                violations.append(f"traced fingerprint {fingerprint(traced.trials)} "
                                  f"!= CLI {cli_fp}")
        shutil.rmtree(rep_dir)
    plain_wall, traced_wall = min(walls["plain"]), min(walls["traced"])

    n = len(profiles)
    m = {
        "cli.interp_s": (statistics.median(interp), "s", n),
        "cli.import_s": (statistics.median(p[""] for p in profiles), "s", n),
        "cli.import_stats_s": (statistics.median(p.get("snailopt.stats", 0.0) for p in profiles), "s", n),
    }
    m.update(layer_metrics(tracer))
    m["trace.overhead_share"] = (traced_wall / plain_wall - 1.0, "ratio", 2)

    print("per layer (in-process runs, best of 2: traced "
          f"{traced_wall:.3f} s, untraced {plain_wall:.3f} s):")
    for key, (value, unit, count) in m.items():
        print_metric(key, value, unit, f"n={count}")
    noise = (max(walls["plain"]) - plain_wall) / plain_wall
    overhead = m["trace.overhead_share"][0]
    verdict = ("below that noise: no overhead measurable" if overhead <= noise
               else "above that noise")
    print(f"  (the two untraced runs differ by {noise:.3f}; trace.overhead_share "
          f"{overhead:.3f} is {verdict})")
    wall = e2e["wall_s"][0]
    launches = len(steps)
    run_s = tracer.total("shms.run")
    shares = {
        "shms.self_s / shms.run time": (m["shms.self_s"][0], run_s),
        "objective.busy_s / shms.run time": (m["objective.busy_s"][0], run_s),
        f"{launches} x cli.import_s / wall_s": (launches * m["cli.import_s"][0], wall),
        "(harness.observer_s + harness.write_s) / wall_s":
            (m["harness.observer_s"][0] + m["harness.write_s"][0], wall),
    }
    print("shares (part / base):")
    for key, (part, base) in shares.items():
        print(f"  {key:<52} {part / base if base else 0.0:8.3f}  ({part:.4g} s / {base:.4g} s)")
    print("self time by layer (traced run):")
    for layer, seconds in sorted(layer_self_times(tracer).items()):
        print(f"  {layer:<12} {seconds:10.4f} s")
    (work / "spans.json").write_text(json.dumps(
        {"spans": tracer.spans, "busy": tracer.busy, "counts": tracer.counts}))
    return {k: {"value": v, "unit": u} for k, (v, u, _n) in m.items()}


if __name__ == "__main__":
    sys.exit(main())
