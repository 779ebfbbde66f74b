"""Record the benchmark's results for one change in ``BENCH_<pr>.json``.

Run from the repository root, on the tree to be committed::

    python3 scripts/bench_record.py --pr N
    python3 scripts/bench_record.py --pr N --base REV

For every workload in ``BENCHMARK.json`` and for ``--trace 0`` and
``--trace 1`` it runs ``python3 perfbench/run.py --workload W --seed 1
--seconds 15 --trace T`` and keeps the run's first output line (the
provenance) and its last (the JSON with the metrics and check counts).
It records what perfbench printed and judges nothing: a run whose checks
fail is written down with its counts.  The ``tree`` block names the tree
measured: ``HEAD``, whether tracked files differ from it, and if they do
a ``git stash create`` commit that holds them.

With ``--base REV`` it also times the revision ``REV`` against this
tree in ten alternating pairs per workload (``--trace 0``, ``PAIRS``):
``REV`` is checked out into a temporary ``git worktree`` (local, removed
afterwards), and each tree's ``perfbench/run.py`` times its own
``src/``.  The first side of a pair alternates from pair to pair, so a
slow phase of the machine falls on both sides alike.  The ``pairs``
block holds, per workload and end-to-end metric, every value, both
medians, the base's quartiles and the number of pairs the tree won; and
whether every run of both sides had one and the same fingerprint and
``orders_gained_mean``.  Each metric also gets the exact two-sided p of
the paired Wilcoxon signed-rank test, tree against base (``p``), and that
p adjusted by Holm over every metric of the block (``p_holm``), and the
claim rule's three flags, judged with the metric's ``bound`` from
``BENCHMARK.json`` (:func:`claim_flags`): ``gain_shown``,
``worse_beyond_bound`` and ``unresolved``.  It also prints one line per
workload and end-to-end metric: base median -> tree median with the
signed change, the tree's wins, both p-values, the flags that hold, and
whether the fingerprints match.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # this tree's numpy-free statistics

from snailopt.stats import holm, wilcoxon_signed_rank  # noqa: E402

SCHEMA = "snailopt.bench/1"
SEED = 1
PAIRS = 10  # the fewest alternating pairs a speed claim may rest on
#: the claim rule's flags (:func:`claim_flags`), as a printed line names them
FLAGS = (("gain_shown", "gain shown"), ("worse_beyond_bound", "WORSE beyond bound"),
         ("unresolved", "unresolved"))


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                          text=True, check=True).stdout.strip()


def record_run(command: list, workload: str, seconds: int, trace: int,
               root: Path = ROOT):
    """``(provenance, fingerprint, result)`` of one perfbench run in ``root``.

    Raises ``RuntimeError`` with the exit status and the tail of stderr
    when the run printed no provenance line or no JSON result last."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True,
    )
    out = proc.stdout.splitlines()
    try:
        provenance = json.loads(out[0].split("provenance ", 1)[1])
        result = json.loads(out[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict):
        tail = "\n".join(proc.stderr.splitlines()[-5:])
        raise RuntimeError(f"{workload} --trace {trace}: no result "
                           f"(exit status {proc.returncode}):\n{tail}")
    fingerprint = next((m.group(1) for line in out
                        if (m := re.search(r"fingerprint (\w+)", line))), None)
    return provenance, fingerprint, result


def tree_identity() -> dict:
    """``HEAD``, a dirty flag and the uncommitted tracked changes' commit."""
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {"head": git("rev-parse", "HEAD"), "dirty": dirty,
            "stash": git("stash", "create") if dirty else None}


def compare(runs: dict, end_to_end: list) -> dict:
    """Per metric: the values, medians, base quartiles and the tree's wins."""
    out = {}
    for m in end_to_end:
        name = m["name"]
        base, tree = ([r["metrics"][name]["value"] for _fp, r in runs[side]]
                      for side in ("base", "tree"))
        sign = -1.0 if m["better"] == "lower" else 1.0
        out[name] = {
            "unit": m["unit"], "better": m["better"],
            "base": base, "tree": tree,
            "base_median": statistics.median(base),
            "tree_median": statistics.median(tree),
            "base_quartiles": statistics.quantiles(base, n=4,
                                                   method="inclusive")[::2],
            "tree_wins": sum(sign * (t - b) > 0 for b, t in zip(base, tree)),
        }
    return out


def exact_tests(block: dict) -> dict:
    """Give each metric of a ``pairs`` block its exact paired p, tree
    against base, and that p adjusted by Holm over the whole block."""
    metrics = [m for w in block.values() for m in w["metrics"].values()]
    for m in metrics:
        m["p"] = wilcoxon_signed_rank(m["tree"], m["base"], paired=True).p_value
    for m, adjusted in zip(metrics, holm([m["p"] for m in metrics])):
        m["p_holm"] = adjusted
    return block


def claim_flags(block: dict, end_to_end: list) -> dict:
    """Give each metric of a ``pairs`` block the claim rule's three flags,
    with the metric's ``bound`` from ``end_to_end`` as a share of the base
    median: ``gain_shown`` when the tree won at least nine tenths of the
    pairs and its median beats the base's by more than the base's
    interquartile distance; ``worse_beyond_bound`` when the tree's median
    is worse than the base's by more than the bound; ``unresolved`` when
    the base's interquartile distance exceeds the bound and not every
    tree run beats every base run."""
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    for w in block.values():
        for name, m in w["metrics"].items():
            sign = -1.0 if m["better"] == "lower" else 1.0
            lo, hi = m["base_quartiles"]
            bound = bounds[name] * abs(m["base_median"])
            gain = sign * (m["tree_median"] - m["base_median"])
            m["gain_shown"] = 10 * m["tree_wins"] >= 9 * w["pairs"] and gain > hi - lo
            m["worse_beyond_bound"] = -gain > bound
            m["unresolved"] = (hi - lo > bound and
                               min(sign * t for t in m["tree"]) <= max(sign * b for b in m["base"]))
    return block


def pair_lines(block: dict) -> list[str]:
    """One line per workload and end-to-end metric of a ``pairs`` block."""
    lines = []
    for workload, w in block.items():
        prints = "fingerprints match" if w["fingerprints_match"] else "FINGERPRINTS DIFFER"
        for name, m in w["metrics"].items():
            base, tree = m["base_median"], m["tree_median"]
            change = f"{(tree - base) / abs(base):+.1%}" if base else "n/a"
            flags = "".join(f", {label}" for key, label in FLAGS if m[key])
            lines.append(f"{workload} {name}: {base:.4g} -> {tree:.4g} {m['unit']} ({change}), "
                         f"tree wins {m['tree_wins']}/{w['pairs']}, p {m['p']:.2g} "
                         f"(Holm {m['p_holm']:.2g}){flags}, {prints}")
    return lines


def paired(bench: dict, base_root: Path) -> dict:
    """``PAIRS`` alternating base/tree runs of every workload, compared."""
    block = {}
    for w in bench["workloads"]:
        runs = {"base": [], "tree": []}
        for k in range(PAIRS):
            for side in (("base", "tree") if k % 2 == 0 else ("tree", "base")):
                _prov, fp, result = record_run(
                    bench["command"], w["name"], bench["run_seconds"], 0,
                    base_root if side == "base" else ROOT)
                runs[side].append((fp, result))
        fingerprints = {fp for side in runs.values() for fp, _r in side}
        gained = {r["metrics"]["orders_gained_mean"]["value"]
                  for side in runs.values() for _fp, r in side}
        block[w["name"]] = {
            "pairs": PAIRS,
            "fingerprints": sorted(fingerprints, key=str),
            "fingerprints_match": len(fingerprints) == 1,
            "orders_gained_match": len(gained) == 1,
            "failed": {side: [r["failed"] for _fp, r in v]
                       for side, v in runs.items()},
            "metrics": compare(runs, bench["end_to_end"]),
        }
    return block


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="number of the change; names BENCH_<pr>.json")
    parser.add_argument("--base", metavar="REV",
                        help="also time revision REV against this tree")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"schema": SCHEMA, "pr": args.pr, "tree": tree_identity()}
    if args.base:
        tmp = Path(tempfile.mkdtemp(prefix="bench-base-"))
        base_root = tmp / "base"
        git("worktree", "add", "--detach", str(base_root), args.base)
        try:
            record["base"] = git("rev-parse", "HEAD", cwd=base_root)
            record["pairs"] = claim_flags(exact_tests(paired(bench, base_root)),
                                          bench["end_to_end"])
        finally:
            git("worktree", "remove", "--force", str(base_root))
            shutil.rmtree(tmp, ignore_errors=True)
    workloads = {}
    for w in bench["workloads"]:
        for trace in (0, 1):
            provenance, _fp, result = record_run(
                bench["command"], w["name"], bench["run_seconds"], trace)
            workloads.setdefault(w["name"], {})[f"trace{trace}"] = result
    record.update(provenance=provenance, workloads=workloads)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(pair_lines(record.get("pairs", {})) + [str(out)]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
