"""Command-line front end: ``run``, ``report``, and ``catalog``.

``run`` executes a campaign described by CLI flags, a JSON config file,
or both (flags win: each flag given is stored under its config key).
The engine's values (``homes``, ``snails_per_home`` and the rest of
``ENGINE_KEYS``) have no flags; the config file's ``engine`` block sets
them.  The trials run in parallel on the CPUs the process may use
(``taskset`` limits them), with the same artifacts as a serial run.  A
config that does not construct (a bad value, or a config file that is
not JSON, nests too deeply or is not an object) is a usage error: one
``snailopt: error: …`` line, exit status 2, nothing written.
``report`` builds the statistics artifacts from a directory of
campaigns, and refuses one that does not exist the same way.
``catalog`` lists the solvable problems.

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
import logging
import os
import sys
from pathlib import Path

from .benchmarks import CANONICAL_DIMS, CATALOG
from .data import read_json
from .harness import (STHE_BUDGETS, CampaignConfig, generate_reports,
                      run_campaign)
from .sthe import make_case


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snailopt",
        description="Snail-colony search: campaign runner and report generator.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag that is not given sets nothing; one that is given is stored
    # under its campaign config key
    p_run = sub.add_parser("run", help="run one campaign",
                           argument_default=argparse.SUPPRESS)
    p_run.add_argument("--config", type=Path,
                       help="JSON file mirroring the campaign config, whose "
                            "'engine' block is the only way to set engine "
                            "values; flags given here override its values")
    p_run.add_argument("--problem", help="F1..F23 or sthe1|sthe2|sthe3")
    p_run.add_argument("--dim", type=int,
                       help="dimension for scalable benchmarks (default 30)")
    p_run.add_argument("--trials", type=int,
                       help="independent runs (default 30)")
    p_run.add_argument("--max-evals", type=int,
                       help="evaluation budget per trial (default: documented "
                            "per-problem value)")
    p_run.add_argument("--seed", type=int, dest="base_seed", metavar="SEED",
                       help="base seed; trial i uses seed+i (default 1)")
    p_run.add_argument("--out", dest="out_dir", metavar="OUT",
                       help="output directory")
    p_run.add_argument("--label", help="label used in reports")
    p_run.add_argument("--no-trace", action="store_false", dest="export_trace",
                       help="skip per-trial convergence CSVs")
    p_run.add_argument("--scatter", action="store_true", dest="export_scatter",
                       help="write per-trial colony snapshot CSVs")

    p_rep = sub.add_parser("report", help="build reports from campaigns")
    p_rep.add_argument("--in", dest="results_dir", required=True,
                       help="directory containing campaign outputs")

    sub.add_parser("catalog", help="list benchmark functions and exchanger cases")
    return parser


def config_from_args(args: argparse.Namespace) -> CampaignConfig:
    """Merge the optional config file and the flags given (flags win)."""
    flags = {k: v for k, v in vars(args).items()
             if k not in ("command", "verbose", "config")}
    values = read_json(args.config) if "config" in args else {}
    values.update(flags)
    return CampaignConfig.from_dict(values)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_run(cfg: CampaignConfig) -> int:
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
    print("benchmark functions:")
    print(f"  {'id':<4} {'name':<22} {'dims':<18} {'box':<16} f_min")
    for spec in CATALOG.values():
        dims = (",".join(map(str, CANONICAL_DIMS)) if spec.fixed_dim is None
                else str(spec.fixed_dim))
        box = f"[{spec.lower:g}, {spec.upper:g}]"
        note = " per dim" if spec.f_min_per_dim else ""
        print(f"  {spec.fid:<4} {spec.name:<22} {dims:<18} {box:<16} "
              f"{spec.f_min:g}{note}")
    print("\nexchanger sizing cases:")
    for cid, budget in STHE_BUDGETS.items():
        print(f"  sthe{cid}  {make_case(cid).label:<40} "
              f"default budget {budget} evals")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if args.command == "report":
        try:
            return cmd_report(args)
        # a mistyped --in, or a report.txt that is a directory, writes nothing
        except (NotADirectoryError, IsADirectoryError) as exc:
            parser.error(str(exc))
    if args.command == "catalog":
        return cmd_catalog()
    # a bad flag value, config file or output path is a usage error,
    # refused before any trial runs; errors inside the trials are not caught
    try:
        cfg = config_from_args(args)
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    return cmd_run(cfg)


if __name__ == "__main__":
    sys.exit(main())
