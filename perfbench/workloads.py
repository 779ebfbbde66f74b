"""The benchmark's workloads: fixed sequences of ``snailopt`` CLI commands.

A workload is a list of steps, each the argument list of one
``snailopt run`` or ``snailopt report`` command, made from the workload
seed alone.  The untraced run launches every step as its own CLI
process; the traced run hands the very same argument lists to the
CLI's parser in-process, so both run identical campaigns.

Why each workload exists (which layer it stresses, and which it
leaves alone) is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

FIXED_DIM_FUNCTIONS = tuple(f"F{k}" for k in range(14, 24))


@dataclass(frozen=True)
class Step:
    """One CLI command.  ``out`` is the campaign directory of a ``run``."""

    command: str           # "run" | "report"
    args: tuple[str, ...]  # flags, without --out / --in
    out: str = ""

    def argv(self, rep_dir: str) -> list[str]:
        if self.command == "report":
            return ["report", "--in", rep_dir, *self.args]
        return ["run", *self.args, "--out", f"{rep_dir}/{self.out}"]


def _campaign_seed(seed: int, k: int) -> int:
    """Base seed of campaign ``k``; trial seeds ``base..base+trials-1`` never overlap."""
    return 1_000_000 * seed + 1_000 * k + 1


def _run(out: str, problem: str, seed: int, *flags: str) -> Step:
    return Step("run", ("--problem", problem, "--seed", str(seed), *flags), out)


REPORT = Step("report", ())


def d500(seed: int) -> list[Step]:
    base = _campaign_seed(seed, 0)
    # the same seed twice: the 30k-eval scatter run replays the first 30k
    # evaluations of the plain run, with the observer and scatter CSV on top
    return [_run("F1-d500", "F1", base, "--dim", "500", "--trials", "1", "--no-trace"),
            _run("F1-d500-scatter", "F1", base, "--dim", "500", "--trials", "1",
                 "--max-evals", "30000", "--scatter", "--label", "F1-d500-scatter"),
            REPORT]


#: per-case evaluation caps, near the median stagnation stop of each case:
#: about a third of the trials still stop on stagnation, the rest on the
#: cap, so the work per seed varies little (without caps the evaluation
#: total of 5 trials per case spread by 0.13 over ten seeds, with them 0.01)
STHE_CAPS = {1: 5500, 2: 8000, 3: 7000}


def sthe_cases(seed: int) -> list[Step]:
    return [_run(f"sthe{c}", f"sthe{c}", _campaign_seed(seed, c), "--trials", "5",
                 "--max-evals", str(cap))
            for c, cap in STHE_CAPS.items()] + [REPORT]


def catalog_report(seed: int) -> list[Step]:
    flags = ("--trials", "10", "--max-evals", "1000", "--scatter")
    steps = [_run(fid, fid, _campaign_seed(seed, k), *flags)
             for k, fid in enumerate(FIXED_DIM_FUNCTIONS)]
    # a second F16 campaign under its own label makes `report` build
    # the signed-rank table
    steps.append(_run("F16-b", "F16", _campaign_seed(seed, len(steps)), *flags,
                      "--label", "F16-b"))
    return steps + [REPORT]


WORKLOADS = {
    "d500": d500,
    "sthe_cases": sthe_cases,
    "catalog_report": catalog_report,
}

#: report files every workload's ``report`` must produce, beyond report.txt
REPORT_TABLES = {
    "d500": ("friedman_published.csv",),
    "sthe_cases": ("friedman_published.csv", "closeness_sthe.csv"),
    "catalog_report": ("friedman_published.csv", "wilcoxon_pairwise.csv"),
}
