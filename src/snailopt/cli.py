"""Command-line front end: ``run``, ``report``, and ``catalog``.

``run`` executes a campaign described by CLI flags, a JSON config file,
or both (flags win); its trials run in parallel on the CPUs the process
may use (``taskset`` limits them), with the same artifacts as a serial
run.  ``report`` builds the statistics artifacts from a
directory of campaigns.  ``catalog`` lists the solvable problems.

Examples
--------
::

    snailopt run --problem F9 --dim 30 --trials 10 --seed 1 --out runs/f9
    snailopt run --config campaign.json --trials 5
    snailopt run --problem sthe1 --trials 10 --out runs/sthe1
    snailopt report --in runs
    snailopt catalog
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .benchmarks import catalog_json
from .harness import (CampaignConfig, STHE_BUDGETS, generate_reports,
                      run_campaign)
from .sthe import make_case

log = logging.getLogger("snailopt.cli")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snailopt",
        description="Snail-colony search: campaign runner and report generator.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one campaign")
    p_run.add_argument("--config", type=Path, default=None,
                       help="JSON file mirroring the campaign config; "
                            "flags given here override its values")
    p_run.add_argument("--problem", default=None,
                       help="F1..F23 or sthe1|sthe2|sthe3")
    p_run.add_argument("--dim", type=int, default=None,
                       help="dimension for scalable benchmarks (default 30)")
    p_run.add_argument("--trials", type=int, default=None,
                       help="independent runs (default 30)")
    p_run.add_argument("--max-evals", type=int, default=None,
                       help="evaluation budget per trial (default: documented "
                            "per-problem value)")
    p_run.add_argument("--seed", type=int, default=None,
                       help="base seed; trial i uses seed+i (default 1)")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--label", default=None, help="label used in reports")
    p_run.add_argument("--no-trace", action="store_true",
                       help="skip per-trial convergence CSVs")
    p_run.add_argument("--scatter", action="store_true",
                       help="write per-trial colony snapshot CSVs")
    p_run.add_argument("--homes", type=int, default=None,
                       help="override: number of homes")
    p_run.add_argument("--snails", type=int, default=None,
                       help="override: snails per home")
    p_run.add_argument("--switch-prob", type=float, default=None,
                       help="override: per-iteration home-switch probability")
    p_run.add_argument("--neighborhood-frac", type=float, default=None,
                       help="override: home neighbourhood fraction")

    p_rep = sub.add_parser("report", help="build reports from campaigns")
    p_rep.add_argument("--in", dest="results_dir", required=True,
                       help="directory containing campaign outputs")

    sub.add_parser("catalog", help="list benchmark functions and exchanger cases")
    return parser


def config_from_args(args: argparse.Namespace) -> CampaignConfig:
    """Merge defaults, the optional config file, and CLI flags."""
    values: dict = {}
    if args.config is not None:
        values = json.loads(Path(args.config).read_text())
        values.pop("schema", None)
    overrides = {
        "problem": args.problem,
        "dim": args.dim,
        "trials": args.trials,
        "max_evals": args.max_evals,
        "base_seed": args.seed,
        "out_dir": args.out,
        "label": args.label,
    }
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    if args.no_trace:
        values["export_trace"] = False
    if args.scatter:
        values["export_scatter"] = True
    engine = dict(values.get("engine", {}))
    engine_flags = {
        "homes": args.homes,
        "snails_per_home": args.snails,
        "home_switch_prob": args.switch_prob,
        "neighborhood_fraction": args.neighborhood_frac,
    }
    for key, val in engine_flags.items():
        if val is not None:
            engine[key] = val
    if engine:
        values["engine"] = engine
    return CampaignConfig.from_dict(values)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_run(args: argparse.Namespace) -> int:
    cfg = config_from_args(args)
    summary = run_campaign(cfg, workers=usable_cpus())
    if summary.completed == 0:
        print(f"{cfg.display_label}: no trial completed", file=sys.stderr)
        return 1
    print(f"{cfg.display_label}: {summary.completed}/{summary.trials} trials, "
          f"best {summary.best:.10g}, mean {summary.mean:.10g}, "
          f"worst {summary.worst:.10g}, std {summary.std:.6g}, "
          f"avg evals {summary.avg_evals:.0f} -> {cfg.out_dir}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    files = generate_reports(args.results_dir)
    for path in files:
        print(path)
    return 0


def cmd_catalog() -> int:
    cat = catalog_json()
    print("benchmark functions:")
    print(f"  {'id':<4} {'name':<22} {'dims':<18} {'box':<16} f_min")
    for fn in cat["functions"]:
        dims = ",".join(str(d) for d in fn["dims"]) if fn["scalable"] else str(fn["dims"][0])
        box = f"[{fn['range'][0]:g}, {fn['range'][1]:g}]"
        fmin = fn["f_min"]
        note = " per dim" if fn["f_min_per_dim"] else ""
        print(f"  {fn['id']:<4} {fn['name']:<22} {dims:<18} {box:<16} {fmin:g}{note}")
    print("\nexchanger sizing cases:")
    for cid in (1, 2, 3):
        case = make_case(cid)
        print(f"  sthe{cid}  {case.label:<40} "
              f"default budget {STHE_BUDGETS[cid]} evals")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if args.command == "run":
        return cmd_run(args)
    if args.command == "report":
        return cmd_report(args)
    return cmd_catalog()


if __name__ == "__main__":
    sys.exit(main())
