"""Record the benchmark's results for one change in ``BENCH_<pr>.json``.

Run from the repository root, on the tree to be committed::

    python3 scripts/bench_record.py --pr N

For every workload in ``BENCHMARK.json`` and for ``--trace 0`` and
``--trace 1`` it runs ``python3 perfbench/run.py --workload W --seed 1
--seconds 15 --trace T`` and keeps the run's first output line (the
provenance) and its last (the JSON with the metrics and check counts).
It records what perfbench printed and judges nothing: a run whose checks
fail is written down with its counts.  The ``tree`` block names the tree
measured: ``HEAD``, whether tracked files differ from it, and if they do
a ``git stash create`` commit that holds them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "snailopt.bench/1"
SEED = 1


def record_run(command: list, workload: str, seconds: int, trace: int):
    """``(provenance, result)`` of one perfbench run."""
    out = subprocess.run(
        [*command, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    ).stdout.splitlines()
    if not out or "provenance " not in out[0]:
        raise RuntimeError(f"{workload} --trace {trace}: no provenance line")
    return json.loads(out[0].split("provenance ", 1)[1]), json.loads(out[-1])


def tree_identity() -> dict:
    """``HEAD``, a dirty flag and the uncommitted tracked changes' commit."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {"head": git("rev-parse", "HEAD"), "dirty": dirty,
            "stash": git("stash", "create") if dirty else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="number of the change; names BENCH_<pr>.json")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    tree = tree_identity()
    workloads = {}
    for w in bench["workloads"]:
        for trace in (0, 1):
            provenance, result = record_run(bench["command"], w["name"],
                                            bench["run_seconds"], trace)
            workloads.setdefault(w["name"], {})[f"trace{trace}"] = result
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps({"schema": SCHEMA, "pr": args.pr,
                               "tree": tree, "provenance": provenance,
                               "workloads": workloads}, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
