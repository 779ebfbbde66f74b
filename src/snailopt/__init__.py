"""snailopt: snail-colony search with a benchmark and design-case harness.

A population metaheuristic modelled on land-snail homing and mating
behaviour (homes, slime-trail following, love-dart fecundity cues),
packaged with:

* the classical 23-function benchmark catalog (``benchmarks``),
* a shell-and-tube heat exchanger sizing application with three
  published reference cases (``sthe``),
* the statistics behind the report's tables: exact Wilcoxon tests,
  signed-rank on paired samples and rank-sum on independent ones, and
  Friedman mean ranks (``stats``),
* a campaign runner / report generator and its CLI (``harness``,
  ``cli``).

Quick start::

    from snailopt import ShmsConfig, make_benchmark, run

    record = run(make_benchmark("F9", 30), ShmsConfig(seed=1))
    print(record.final_f)
"""

from .objective import BoundedProblem, EvalCounter, NonFiniteObjective
from .benchmarks import CATALOG, CANONICAL_DIMS, known_optimum, make_benchmark
from .shms import RunRecord, ShmsConfig, run
from .stats import (FriedmanResult, WilcoxonResult, friedman_ranks,
                    wilcoxon_signed_rank)
from .sthe import (DomainError, StheCase, StheDesign, closeness_percent,
                   evaluate_design, make_case, make_problem, total_cost)
from .harness import (CampaignConfig, CampaignSummary, generate_reports,
                      run_campaign)

__version__ = "0.1.0"

__all__ = [
    "BoundedProblem",
    "CANONICAL_DIMS",
    "CATALOG",
    "CampaignConfig",
    "CampaignSummary",
    "DomainError",
    "EvalCounter",
    "FriedmanResult",
    "NonFiniteObjective",
    "RunRecord",
    "ShmsConfig",
    "StheCase",
    "StheDesign",
    "WilcoxonResult",
    "closeness_percent",
    "evaluate_design",
    "friedman_ranks",
    "generate_reports",
    "known_optimum",
    "make_benchmark",
    "make_case",
    "make_problem",
    "run",
    "run_campaign",
    "total_cost",
    "wilcoxon_signed_rank",
]
