"""Run the benchmark on several seeds and print each metric's spread.

    python3 perfbench/steadiness.py --workload sthe_cases --seeds 1 2 3 4 5

For every end-to-end metric it prints the median over the runs and the
inter-quartile distance as a share of that median
(``statistics.quantiles(values, n=4)``), next to the metric's bound in
``BENCHMARK.json``.  Runs are sequential; each is one ``run.py`` child.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from measure import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, sep="\n")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={m['value']:.5g}"
                                          for k, m in result["metrics"].items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) >= 2 else float("nan")
        print(f"{name:<20} median {statistics.median(vals):12.6g}  spread {spread:7.4f}  "
              f"bound {bounds.get(name, float('nan'))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
