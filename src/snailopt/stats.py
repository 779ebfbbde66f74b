"""Nonparametric paired comparisons for algorithm result tables.

Two tools cover the usual "is optimizer A actually better than B"
workflow on per-problem result vectors:

* :func:`wilcoxon_signed_rank` — two-sided paired signed-rank test.
  Zero differences are dropped (Wilcoxon's original treatment); when
  all of them are zero the result reads "no information" (p = 1).
  Tied absolute differences receive midranks, and the p-value is
  computed EXACTLY for up to 20 non-zero pairs by counting sign
  assignments with an integer convolution (no 2^n enumeration),
  falling back to a normal approximation with continuity and tie
  corrections beyond that.
* :func:`friedman_ranks` — mean ranks across problems (ascending:
  rank 1 is best for minimization) plus the final ordering.

Both need only midranks, computed in numpy, and the normal branch one
tail probability, from :func:`math.erfc`; scipy is not needed at run
time (the tests use ``scipy.stats`` as the oracle for both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FriedmanResult",
    "WilcoxonResult",
    "friedman_ranks",
    "wilcoxon_signed_rank",
]

#: switch point between the exact sign-assignment count and the
#: normal approximation
EXACT_LIMIT = 20

#: significance level of the ``significant`` flag
ALPHA = 0.05


@dataclass(frozen=True)
class WilcoxonResult:
    """Outcome of one two-sided paired signed-rank comparison.

    ``t_plus`` is the rank sum of pairs where the first sample is
    larger (its losses, for minimization), ``t_minus`` the rank sum
    where the second sample is larger.  ``winner`` names the sample
    with the smaller loss rank sum — reported descriptively even when
    the difference is not significant; check ``significant`` before
    reading anything into it.  The fields are in the column order of
    the report's ``wilcoxon_pairwise.csv``.
    """

    n_nonzero: int
    p_value: float
    t_plus: float
    t_minus: float
    winner: str
    significant: bool
    method: str  # "exact", "normal", or "none" (no non-zero difference)


@dataclass(frozen=True)
class FriedmanResult:
    """Mean ranks per algorithm and the implied ordering (1 = best)."""

    labels: tuple[str, ...]
    mean_ranks: np.ndarray
    ordering: np.ndarray  # ordering[j] = final rank of labels[j]


def _midranks(values) -> np.ndarray:
    """Ascending 1-based ranks; tied values share their mean position.

    Each tie group gets the mean of its first and last position, an
    exact half in float64, so the result equals
    ``scipy.stats.rankdata(values)`` bit for bit.  NaN has no rank and
    raises ``ValueError``.
    """
    v = np.asarray(values, dtype=float)
    if np.isnan(v).any():
        raise ValueError("cannot rank NaN values")
    order = np.argsort(v, kind="stable")
    ascending = v[order]
    new_group = np.concatenate(([True], ascending[1:] != ascending[:-1]))
    first = np.flatnonzero(new_group)  # 0-based start of each tie group
    last = np.append(first[1:], v.size)  # 1-based end of each tie group
    ranks = np.empty(v.size)
    ranks[order] = (0.5 * (first + 1 + last))[np.cumsum(new_group) - 1]
    return ranks


def _exact_two_sided_p(ranks: np.ndarray, t_low: float) -> float:
    """Exact two-sided p for the smaller rank sum ``t_low``.

    Counts sign assignments whose positive-rank sum is ≤ ``t_low``
    over all ``2^n`` equally likely assignments, doubles the tail and
    caps at 1.  Midranks are halves, so everything is doubled once to
    stay in integer arithmetic; Python integers keep the counts exact.
    """
    weights = [int(round(2.0 * r)) for r in ranks]
    total = sum(weights)
    counts = [0] * (total + 1)
    counts[0] = 1
    for w in weights:
        for t in range(total, w - 1, -1):
            counts[t] += counts[t - w]
    threshold = int(round(2.0 * t_low))
    tail = sum(counts[: threshold + 1])
    return min(1.0, 2.0 * tail / 2.0 ** len(weights))


def wilcoxon_signed_rank(a, b,
                         labels: tuple[str, str] = ("A", "B")) -> WilcoxonResult:
    """Two-sided paired signed-rank test between result vectors.

    Parameters
    ----------
    a, b : array-like
        Equal-length (>= 5) paired results, e.g. per-problem means of
        two optimizers (lower is better).
    labels : (str, str)
        Names for the two samples, used for the ``winner`` field.

    If every difference is exactly zero there is nothing to rank: the
    result has ``n_nonzero == 0``, ``p_value == 1.0``, winner
    ``"no information"`` and method ``"none"``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("samples must be equal-length 1-D vectors")
    if a.size < 5:
        raise ValueError("need at least 5 pairs")
    d = a - b
    d = d[d != 0.0]
    n = int(d.size)
    if n == 0:
        return WilcoxonResult(0, 1.0, 0.0, 0.0, "no information", False, "none")
    ranks = _midranks(np.abs(d))
    t_plus = float(ranks[d > 0].sum())
    t_minus = float(ranks[d < 0].sum())
    t_low = min(t_plus, t_minus)
    if n <= EXACT_LIMIT:
        p = _exact_two_sided_p(ranks, t_low)
        method = "exact"
    else:
        mu = n * (n + 1) / 4.0
        sigma = math.sqrt(float(np.sum(ranks ** 2)) / 4.0)
        z = (t_low - mu + 0.5) / sigma  # continuity correction toward center
        # two-sided: 2 * Phi(z) = erfc(-z / sqrt(2))
        p = min(1.0, math.erfc(-z / math.sqrt(2.0)))
        method = "normal"
    if t_plus < t_minus:
        winner = labels[0]
    elif t_minus < t_plus:
        winner = labels[1]
    else:
        winner = "tie"
    return WilcoxonResult(n, p, t_plus, t_minus, winner, p < ALPHA, method)


def friedman_ranks(mean_matrix, labels=None) -> FriedmanResult:
    """Mean ranks of algorithms (columns) across problems (rows).

    Within every problem row the algorithms are ranked ascending by
    value (minimization; ties get midranks); the per-algorithm ranks
    are averaged over problems and the final ordering sorts ascending
    mean rank (stable: earlier column wins exact ties).
    """
    m = np.asarray(mean_matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] < 2 or m.shape[1] < 2:
        raise ValueError("need a problems x algorithms matrix, at least 2x2")
    if labels is None:
        labels = tuple(f"alg{j}" for j in range(m.shape[1]))
    labels = tuple(labels)
    if len(labels) != m.shape[1]:
        raise ValueError("one label per column required")
    row_ranks = np.vstack([_midranks(row) for row in m])
    mean_ranks = row_ranks.mean(axis=0)
    order = np.argsort(mean_ranks, kind="stable")
    ordering = np.empty(len(labels), dtype=int)
    ordering[order] = np.arange(1, len(labels) + 1)
    return FriedmanResult(labels=labels, mean_ranks=mean_ranks,
                          ordering=ordering)
