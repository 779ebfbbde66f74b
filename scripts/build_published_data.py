"""Assemble the bundled reference-results dataset (JSON).

Transcribes the published mean results of 13 optimizers on the
23-function benchmark suite (30 runs per problem), plus the published
per-dimension mean-rank tables, into
``src/snailopt/data/published_means.json``.  The tests check that the
committed file is this script's output byte for byte, and acceptance
criterion 08 that :func:`snailopt.stats.friedman_ranks` applied to the
bundled means reproduces the published mean ranks.

A handful of cells are unreadable or malformed in the source tables
(broken exponents such as "2.01,199" or "8.618+03"); they are stored
with the obvious intended value and listed under ``corrections`` with
the original rendering.  One published mean-rank cell (AVOA, fixed-
dimension table) reads 13.35, which exceeds the largest possible mean
rank (13) and breaks the required column sum k(k+1)/2 = 91; the
corrected 3.35 restores the sum exactly and is stored alongside the
printed value.

Run from the repository root:  python3 scripts/build_published_data.py
"""

import json
import pathlib

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "snailopt" / "data" / "published_means.json"

ALGORITHMS = ["AVOA", "PSO", "GWO", "FFA", "WOA", "TLBO", "MFO",
              "BBO", "DE", "SSA", "GSA", "IPO", "SHMS"]

F1_13 = [f"F{i}" for i in range(1, 14)]
F14_23 = [f"F{i}" for i in range(14, 24)]

MEANS = {
    "dim30": {
        "F1": [2.01e-199, 2.37e3, 2.59e-27, 7.88e-7, 8.04e-71, 1.66e-96, 1.66e3, 4.47, 3.36e-4, 2.07e-7, 2.88e-4, 4.76e-11, 0.0],
        "F2": [8.72e-104, 1.91e1, 9.02e-17, 3.82e-6, 7.41e-50, 1.89e-49, 2.92e1, 5.05e-1, 3.48e-3, 2.39, 1.40e-1, 8.28e-7, 0.0],
        "F3": [7.83e-145, 9.20e3, 4.02e-5, 5.03e3, 4.18e4, 3.35e-22, 2.23e4, 4.98e2, 3.64e4, 1.83e3, 1.09e3, 2.41, 0.0],
        "F4": [1.03e-103, 2.14e1, 7.54e-7, 1.64e1, 4.94e1, 9.51e-41, 6.77e1, 1.56, 9.40, 1.06e1, 7.43, 4.59e-2, 0.0],
        "F5": [6.50e-3, 5.15e5, 2.70e1, 7.31e1, 2.76e1, 2.72e1, 2.69e6, 2.24e2, 6.00e1, 1.85e2, 8.34e1, 2.27e2, 2.90e1],
        "F6": [2.43e-6, 2.35e3, 7.34e-1, 4.26e-3, 3.80e-1, 1.06e-5, 2.66e3, 2.36, 2.65e-4, 9.76e-6, 1.83e-4, 9.33e-1, 0.0],
        "F7": [2.52e-4, 3.77e-1, 2.35e-3, 5.03e-2, 3.24e-3, 1.27e-3, 1.33, 1.62e-2, 4.90e-2, 1.71e-1, 8.69e-2, 2.75e-2, 4.88e-3],
        "F8": [-1.25e3, -3.82e3, -5.99e3, -6.89e3, -9.69e3, -7.39e3, -8.51e3, -8.10e3, -6.72e3, -7.32e3, -2.47e3, -3.28e3, 0.0],
        "F9": [0.0, 1.48e2, 2.00, 7.96e1, 0.0, 2.08e1, 1.55e2, 5.22e1, 1.57e2, 5.05e1, 2.92e1, 1.68e1, 0.0],
        "F10": [8.88e-16, 1.02e1, 9.70e-14, 3.44e-4, 4.08e-15, 5.98e-15, 1.40e1, 5.90e-1, 5.19e-3, 2.99, 6.95e-2, 2.30, 4.44e-16],
        "F11": [0.0, 2.11e1, 4.70e-3, 6.41e-3, 2.21e-2, 4.98e-6, 8.37, 1.01, 1.44e-2, 1.69e-2, 2.88e1, 1.10e-2, 0.0],
        "F12": [3.79e-7, 2.74e2, 5.22e-2, 1.32e-1, 2.95e-2, 1.25e-6, 1.80e2, 8.11e-3, 3.92e-4, 7.24, 2.01, 3.75e-1, 0.0],
        "F13": [1.10e-5, 1.66e5, 6.10e-1, 4.78e-2, 5.38e-1, 4.38e-1, 1.24e2, 1.23e-1, 1.60e-3, 1.80e1, 1.17e1, 1.21e-1, 2.76],
    },
    "dim100": {
        "F1": [1.35e-194, 1.38e4, 1.89e-12, 2.43e3, 5.62e-71, 1.30e-90, 5.84e4, 2.17e2, 3.50e3, 1.51e3, 4.25e3, 1.01, 0.0],
        "F2": [1.66e-104, 8.92e1, 3.85e-8, 2.65e1, 6.24e-50, 4.27e-46, 2.42e2, 1.01e1, 6.26e1, 5.13e1, 1.84e1, 6.53, 0.0],
        "F3": [1.28e-133, 9.60e4, 6.03e2, 2.14e5, 1.06e6, 7.90e-10, 2.34e5, 5.01e4, 4.76e5, 5.10e4, 1.54e4, 4.76e3, 0.0],
        "F4": [9.17e-102, 3.07e1, 5.79e-1, 9.53e1, 8.22e1, 1.17e-37, 9.36e1, 2.04e1, 9.49e1, 2.92e1, 1.95e1, 1.06e1, 0.0],
        "F5": [5.12e-2, 4.75e6, 9.77e1, 1.17e7, 9.79e1, 9.76e1, 1.50e8, 5.31e3, 5.34e6, 1.31e5, 1.15e5, 1.07e4, 2.90e1],
        "F6": [7.23e-4, 1.44e4, 1.00e1, 2.41e3, 4.26, 7.39, 5.91e4, 2.30e2, 3.39e3, 1.52e3, 4.65e3, 1.27e2, 0.0],
        "F7": [1.83e-4, 7.55, 6.72e-3, 1.37e1, 3.53e-3, 1.77e-3, 2.41e2, 1.25e-1, 6.56, 2.75, 4.38, 4.49, 6.30e-3],
        "F8": [-4.14e4, -7.62e3, -1.58e4, -1.36e4, -3.40e4, -1.69e4, -2.17e4, -2.25e4, -1.18e4, -2.14e4, -4.05e3, -1.07e4, -1.23e3],
        "F9": [0.0, 7.36e2, 8.83, 8.92e2, 0.0, 0.0, 8.64e2, 3.17e2, 9.80e2, 2.35e2, 1.93e2, 2.79e2, 0.0],
        "F10": [8.88e-16, 1.19e1, 1.30e-7, 8.68, 4.08e-15, 7.63e-15, 1.99e1, 3.42, 9.11, 1.01e1, 4.96, 4.93, 4.44e-16],
        "F11": [0.0, 1.23e2, 5.30e-3, 2.29e1, 0.0, 0.0, 5.33e2, 3.17, 3.13e1, 1.34e1, 6.92e2, 8.22e-1, 0.0],
        "F12": [6.55e-6, 1.21e5, 3.07e-1, 2.26e7, 5.34e-2, 1.17e-1, 2.84e8, 4.05, 9.18e6, 3.23e1, 1.17e1, 6.92, 0.0],
        "F13": [7.54e-4, 3.39e6, 6.72, 5.33e7, 2.75, 8.09, 5.71e8, 1.13e1, 1.68e7, 6.04e3, 4.90e3, 3.59e1, 0.0],
    },
    "dim500": {
        "F1": [1.04e-200, 9.80e4, 1.57e-3, 5.25e5, 2.05e-67, 4.13e-86, 1.12e6, 7.15e3, 5.63e5, 9.33e4, 5.57e4, 1.13e4, 0.0],
        "F2": [3.38e-101, 5.33e2, 1.09e-2, 2.36e116, 3.89e-48, 3.95e-44, 6.04e118, 2.29e2, 1.50e3, 5.31e2, 1.08e269, 1.81e2, 0.0],
        "F3": [2.98e-103, 2.29e6, 3.57e5, 5.57e6, 3.04e7, 6.76e-4, 4.80e6, 1.55e6, 1.16e7, 1.24e6, 1.17e6, 1.48e5, 0.0],
        "F4": [1.47e-101, 3.82e1, 6.47e1, 9.89e1, 8.19e1, 8.65e-36, 9.85e1, 5.27e1, 9.89e1, 4.03e1, 2.87e1, 2.04e1, 0.0],
        "F5": [3.66, 4.31e7, 4.94e2, 2.30e9, 4.93e2, 4.95e2, 5.02e9, 8.44e5, 2.82e9, 3.71e7, 8.69e6, 2.85e6, 2.90e1],
        "F6": [5.90e-2, 9.65e4, 9.14e1, 5.29e5, 3.24e1, 9.42e1, 1.15e6, 7.35e3, 5.50e5, 9.42e4, 5.70e4, 1.96e4, 0.0],
        "F7": [2.09e-4, 3.50e2, 5.20e-2, 1.59e4, 4.65e-3, 1.67e-3, 3.87e4, 4.96e2, 1.55e4, 2.75e2, 9.88e2, 2.86e3, 1.02e-2],
        "F8": [-2.12e5, -1.78e4, -5.80e4, -2.73e4, -1.69e5, -3.96e4, -6.22e4, -7.07e4, -2.55e4, -6.08e4, -1.10e4, -3.06e4, -2.75e3],
        "F9": [0.0, 4.61e3, 7.88e1, 6.84e3, 0.0, 0.0, 6.93e3, 6.05e3, 6.75e3, 3.16e3, 2.73e3, 3.33e3, 0.0],
        "F10": [8.88e-16, 1.30e1, 1.90e-3, 1.97e1, 4.44e-15, 7.87e-15, 2.04e1, 2.03e1, 1.95e1, 1.42e1, 1.05e1, 1.41e1, 4.44e-16],
        "F11": [0.0, 9.41e2, 3.35e-2, 4.71e3, 0.0, 0.0, 1.02e4, 3.02e3, 5.03e3, 8.46e2, 8.61e3, 9.61e1, 0.0],
        "F12": [4.19e-5, 4.05e6, 7.43e-1, 7.44e9, 8.59e-2, 6.52e-1, 1.20e10, 4.95e8, 1.13e10, 1.39e6, 1.46e4, 1.92e1, 0.0],
        "F13": [2.52e-2, 5.34e7, 5.11e1, 1.13e10, 1.80e1, 4.99e1, 2.21e10, 1.35e9, 1.47e10, 3.32e7, 3.89e6, 2.73e4, 5.00e1],
    },
    "dim1000": {
        "F1": [1.05e-194, 2.16e5, 2.42e-1, 1.43e6, 1.80e-68, 2.44e-85, 2.73e6, 6.69e5, 1.60e6, 2.37e5, 1.31e5, 4.60e4, 0.0],
        "F2": [6.75e-114, 1.00e300, 7.17e-1, 1.00e300, 1.93e-48, 1.00e300, 1.00e300, 1.00e300, 1.00e300, 1.19e3, 3.46e288, 4.60e2, 0.0],
        "F3": [1.76e-112, 8.18e6, 1.67e6, 2.15e7, 1.32e8, 1.13e-2, 1.85e7, 9.66e6, 4.77e7, 5.92e6, 6.53e6, 5.55e5, 0.0],
        "F4": [4.47e-102, 4.23e1, 7.90e1, 9.92e1, 8.23e1, 2.97e-35, 9.92e1, 8.60e1, 9.91e1, 4.48e1, 3.40e1, 2.35e1, 0.0],
        "F5": [5.80, 9.78e7, 1.02e3, 8.51e9, 9.93e2, 9.94e2, 1.24e10, 9.58e8, 1.48e10, 1.14e8, 2.47e7, 1.36e7, 2.90e1],
        "F6": [1.27e-1, 1.99e5, 2.00e2, 1.41e6, 7.29e1, 2.13e2, 2.72e6, 6.66e5, 1.63e6, 2.37e5, 1.31e5, 6.24e4, 0.0],
        "F7": [2.85e-4, 1.57e3, 1.48e-1, 1.10e5, 3.54e-3, 2.01e-3, 1.97e5, 1.34e4, 2.05e5, 1.69e3, 6.43e3, 2.20e4, 1.02e-2],
        "F8": [-4.17e5, -2.58e4, -8.58e4, -3.72e4, -3.27e5, -5.87e4, -8.72e4, -7.80e4, -3.64e4, -8.72e4, -1.34e4, -5.47e4, 0.0],
        "F9": [0.0, 9.66e3, 1.90e2, 1.43e4, 0.0, 0.0, 1.52e4, 1.17e4, 1.41e4, 7.57e3, 6.69e3, 7.79e3, 0.0],
        "F10": [8.88e-16, 1.37e1, 1.83e-2, 2.00e1, 3.01e-15, 4.29e-1, 2.05e1, 2.00e1, 2.03e1, 1.46e1, 1.12e1, 1.45e1, 4.44e-16],
        "F11": [0.0, 1.87e3, 5.11e-2, 1.28e4, 0.0, 3.33e-17, 2.46e4, 5.86e3, 1.45e4, 2.07e3, 2.05e4, 5.44e2, 0.0],
        "F12": [6.76e-5, 1.09e7, 1.18, 3.17e10, 1.05e-1, 8.54e-1, 3.04e10, 8.87e8, 3.68e10, 1.11e7, 1.88e5, 5.47e1, 0.0],
        "F13": [5.76e-2, 1.15e8, 1.18e2, 4.44e10, 3.65e1, 9.94e1, 5.55e10, 2.78e9, 6.70e10, 1.46e8, 1.60e7, 6.38e5, 1.00e2],
    },
    "fixed": {
        "F14": [1.26, 5.95, 4.06, 1.91, 2.57, 9.98e-1, 2.87, 3.27, 1.39, 1.39, 5.41, 2.61, 1.27e1],
        "F15": [4.65e-4, 1.07e-2, 4.39e-3, 5.90e-4, 6.55e-4, 1.09e-3, 1.93e-3, 4.79e-3, 1.14e-3, 4.28e-3, 4.35e-3, 4.30e-4, 2.75e-3],
        "F16": [-1.03, -1.03, -1.03, -1.03, -1.03, -1.03, -1.03, -1.03, -1.03, -1.03, -1.03, -1.03, -1.03],
        "F17": [3.98e-1, 4.62e-1, 3.98e-1, 3.98e-1, 3.98e-1, 3.98e-1, 3.98e-1, 4.77e-1, 3.98e-1, 3.98e-1, 3.98e-1, 3.98e-1, 9.72],
        "F18": [3.00, 1.06e1, 3.00, 3.00, 3.00, 3.00, 3.00, 7.51, 3.00, 3.00, 3.00, 3.00, 8.90],
        "F19": [-3.86, -3.80, -3.86, -3.86, -3.85, -3.86, -3.86, -3.86, -3.86, -3.86, -3.86, -3.86, -3.59],
        "F20": [-3.31, -2.77, -3.27, -3.30, -3.19, -3.29, -3.22, -3.28, -3.29, -3.23, -3.32, -3.31, -1.82],
        "F21": [-1.02e1, -3.78, -8.15, -9.02, -7.66, -9.26, -5.56, -5.07, -9.40, -6.30, -7.03, -8.07, -1.25],
        "F22": [-1.04e1, -5.04, -1.04e1, -9.68, -7.79, -8.70, -9.05, -5.96, -9.85, -8.89, -9.79, -9.89, -1.34],
        "F23": [-1.05e1, -4.89, -1.03e1, -9.81, -6.81, -9.87, -8.68, -5.28, -1.03e1, -8.53, -9.49, -7.81, -1.35],
    },
}

# published per-table mean ranks and final ordering (same column order)
RANK_TABLES = {
    "dim30": {
        "mean_ranks": [2.5, 11.6923, 5.2308, 7.3077, 5.8462, 3.6923, 11.5385,
                       7.7692, 7.5385, 8.6154, 8.7692, 7.2308, 3.2692],
        "ranking": [1, 13, 4, 7, 5, 3, 12, 9, 8, 10, 11, 6, 2],
    },
    "dim100": {
        "mean_ranks": [1.8462, 10.6923, 4.8462, 10.4615, 4.3846, 3.5385,
                       11.7692, 6.4615, 10.7692, 8.2308, 8.6923, 6.8462, 2.4615],
        "ranking": [1, 11, 5, 10, 4, 3, 13, 6, 12, 8, 9, 7, 2],
    },
    "dim500": {
        "mean_ranks": [1.7692, 8.7692, 5.2308, 11.0385, 4.1538, 3.6923,
                       11.8462, 7.9231, 11.3462, 7.6154, 8.2308, 6.6923, 2.6923],
        "ranking": [1, 10, 5, 11, 4, 3, 13, 8, 12, 7, 9, 6, 2],
    },
    "dim1000": {
        "mean_ranks": [1.7308, 8.0385, 5.0, 10.9615, 4.0385, 4.3077, 11.4231,
                       9.5385, 11.8077, 7.5769, 7.5385, 6.3846, 2.6538],
        "ranking": [1, 9, 5, 11, 3, 4, 12, 10, 13, 8, 7, 6, 2],
    },
    "fixed": {
        # AVOA cell printed as 13.35: impossible (max mean rank is 13) and
        # breaks the required sum 13*14/2 = 91; 3.35 restores it exactly.
        "mean_ranks": [3.35, 11.6, 6.15, 5.05, 7.7, 5.1, 7.25, 9.65, 4.7,
                       7.0, 6.45, 5.2, 11.8],
        "mean_ranks_as_printed": [13.35, 11.6, 6.15, 5.05, 7.7, 5.1, 7.25,
                                  9.65, 4.7, 7.0, 6.45, 5.2, 11.8],
        # printed ranking presupposes the impossible 13.35 and additionally
        # contradicts the printed means (FFA 5.05 behind TLBO 5.1/IPO 5.2);
        # ranking below follows from the corrected means row.
        "ranking": [1, 12, 6, 3, 10, 4, 9, 11, 2, 8, 7, 5, 13],
        "ranking_as_printed": [13, 11, 5, 4, 9, 2, 8, 10, 1, 7, 6, 3, 12],
    },
}

CORRECTIONS = [
    {"table": "dim30", "problem": "F1", "algorithm": "AVOA",
     "stored": 2.01e-199, "printed_as": "2.01,199",
     "reason": "malformed exponent in the source table"},
    {"table": "dim500", "problem": "F11", "algorithm": "GSA",
     "stored": 8.61e3, "printed_as": "8.618+03",
     "reason": "malformed exponent in the source table"},
    {"table": "dim500", "problem": "F11", "algorithm": "IPO",
     "stored": 9.61e1, "printed_as": "9.618+01",
     "reason": "malformed exponent in the source table"},
    {"table": "fixed", "problem": "F18", "algorithm": "BBO",
     "stored": 7.51, "printed_as": "7.510+00",
     "reason": "malformed exponent in the source table"},
    {"table": "fixed", "problem": "F18", "algorithm": "DE",
     "stored": 3.00, "printed_as": "3.000+00",
     "reason": "malformed exponent in the source table"},
    {"table": "dim30", "problem": "F8", "algorithm": "AVOA",
     "stored": -1.25e3, "printed_as": "-1.25E+04",
     "reason": "printed mean duplicates the column's Best cell and "
               "contradicts the published mean ranks (which place AVOA "
               "second-worst on exactly one dim-30 problem; only this cell "
               "fits); the exponent fix restores every published dim-30 "
               "mean rank"},
    {"table": "dim100", "problem": "F13", "algorithm": "SHMS",
     "stored": 0.0, "printed_as": "1.00E+01",
     "reason": "contradicts the published mean ranks (which place SHMS "
               "ahead of AVOA/WOA/GWO/TLBO on exactly one dim-100 problem; "
               "only this cell fits); any value below 7.54e-4 restores "
               "every published dim-100 mean rank"},
    {"table": "fixed", "rank_cell": "AVOA mean rank",
     "stored": 3.35, "printed_as": "13.35",
     "reason": "exceeds the maximum possible mean rank (13) and breaks the "
               "required sum of mean ranks k(k+1)/2 = 91; 3.35 restores the "
               "sum exactly"},
]


def build() -> dict:
    # the tables keep MEANS's order, which is the order report writes them in
    tables = {}
    for key, rows in MEANS.items():
        problems = F1_13 if key != "fixed" else F14_23
        assert list(rows) == problems, key
        for p, vals in rows.items():
            assert len(vals) == len(ALGORITHMS), (key, p)
        tables[key] = {
            "problems": problems,
            "means": [rows[p] for p in problems],
        }
    return {
        "description": "Published mean results (30 runs per problem) of 12 "
                       "competing optimizers and SHMS on the 23-function "
                       "benchmark suite, with the published mean-rank "
                       "summaries; used to reproduce the reference ranking "
                       "analysis without re-running the competitors.",
        "algorithms": ALGORITHMS,
        "tables": tables,
        "rank_tables": RANK_TABLES,
        "corrections": CORRECTIONS,
    }


def render(data: dict) -> str:
    """The text of ``OUT`` for ``data``."""
    return json.dumps(data, indent=1) + "\n"


if __name__ == "__main__":
    OUT.write_text(render(build()))
    print(f"wrote {OUT}")
