"""Test-side brute-force oracle for the exact signed-rank p-value."""

import itertools

import numpy as np
from scipy.stats import rankdata


def brute_force_p(diffs):
    """Two-sided exact p by enumerating all 2^n sign assignments.

    Independent of the library's integer-convolution shortcut; uses the
    same doubled-midrank integer arithmetic so equality is bit-for-bit.
    """
    d = np.asarray(diffs, dtype=float)
    d = d[d != 0.0]
    ranks = rankdata(np.abs(d))
    t_low = min(ranks[d > 0].sum(), ranks[d < 0].sum())
    weights = [int(round(2.0 * r)) for r in ranks]
    threshold = int(round(2.0 * t_low))
    tail = sum(
        1 for signs in itertools.product((0, 1), repeat=len(weights))
        if sum(w for w, s in zip(weights, signs) if s) <= threshold
    )
    return min(1.0, 2.0 * tail / 2.0 ** len(weights))
