"""Nonparametric comparisons for algorithm result tables.

Two tools cover the usual "is optimizer A actually better than B"
workflow on per-problem result vectors:

* :func:`wilcoxon_signed_rank` — two-sided Wilcoxon test.  Paired
  samples get the signed-rank test: zero differences are dropped
  (Wilcoxon's original treatment), and when all of them are zero the
  result reads "no information" (p = 1).  Independent samples
  (``paired=False``) get the rank-sum test (Mann-Whitney U), where
  samples that never differ read the same.  Tied values receive
  midranks, and the p-value is computed EXACTLY for up to 20 ranked
  values by counting sign assignments or splits with an integer
  convolution (no 2^n enumeration), falling back to a normal
  approximation with continuity and tie corrections beyond that.
* :func:`friedman_ranks` — mean ranks across problems (ascending:
  rank 1 is best for minimization) plus the final ordering.
* :func:`holm` — Holm's step-down adjustment of a family of p-values.

Both need only midranks (exact halves, so rank sums are exact in any
order) and the normal branch one tail probability, from :func:`math.erfc`:
plain Python, no numpy or scipy (the tests use ``scipy.stats`` as the
oracle).  :func:`_pairwise_sum` is numpy's float64 summation order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

__all__ = [
    "FriedmanResult",
    "WilcoxonResult",
    "friedman_ranks",
    "holm",
    "wilcoxon_signed_rank",
]

#: switch point (ranked values) between the exact count of sign
#: assignments or splits and the normal approximation
EXACT_LIMIT = 20

#: significance level of the ``significant`` flag
ALPHA = 0.05


@dataclass(frozen=True)
class WilcoxonResult:
    """Outcome of one two-sided Wilcoxon comparison.

    ``t_plus`` measures where the first sample is larger (its losses,
    for minimization), ``t_minus`` where the second is: the rank sums of
    those pairs for the signed-rank test, each sample's Mann-Whitney U
    for the rank-sum test.  ``n_nonzero`` counts the ranked values: the
    non-zero differences, or both samples' values.  ``winner`` names the
    sample with the smaller loss statistic — reported descriptively even
    when the difference is not significant; check ``significant`` before
    reading anything into it.  The fields are in the column order of
    the report's ``wilcoxon_pairwise.csv``.
    """

    n_nonzero: int
    p_value: float
    t_plus: float
    t_minus: float
    winner: str
    significant: bool
    method: str  # "exact", "normal", or "none" (nothing differs)


@dataclass(frozen=True)
class FriedmanResult:
    """Mean ranks per algorithm and the implied ordering (1 = best)."""

    labels: tuple[str, ...]
    mean_ranks: tuple[float, ...]
    ordering: tuple[int, ...]  # ordering[j] = final rank of labels[j]


def _pairwise_sum(v: list[float]) -> float:
    """``float(np.sum(v))`` for a list: numpy's float64 summation order."""
    n = len(v)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(v[:half]) + _pairwise_sum(v[half:])
    total, end = 0.0, n - n % 8
    if end:  # eight running sums, then a tree, then the tail
        r = v[:8]
        for i in range(8, end, 8):
            r = [a + b for a, b in zip(r, v[i:i + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for x in v[end:]:
        total += x
    return 0.0 + total  # numpy's sum of -0.0s is +0.0


def _floats(values, ndim: int = 1) -> list:
    """``values`` as (nested) lists of floats; ``ValueError`` unless ``ndim``-D."""
    try:
        if getattr(values, "ndim", ndim) == ndim:
            return [_floats(v) if ndim == 2 else float(v) for v in values]
    except TypeError:
        pass
    raise ValueError(f"expected a {ndim}-D sequence of numbers")


def _midranks(values: list[float]) -> list[float]:
    """Ascending 1-based ranks; tied values share their mean position.

    Each tie group gets the mean of its first and last position, an
    exact half, so the result equals ``scipy.stats.rankdata(values)``
    bit for bit.  NaN has no rank and raises ``ValueError``.
    """
    if any(math.isnan(v) for v in values):
        raise ValueError("cannot rank NaN values")
    ranks = [0.0] * len(values)
    first = 0  # 0-based start of the tie group
    order = sorted(range(len(values)), key=values.__getitem__)
    for _, group in itertools.groupby(order, key=values.__getitem__):
        group = list(group)
        for k in group:
            ranks[k] = 0.5 * (first + 1 + first + len(group))
        first += len(group)
    return ranks


def _exact_two_sided_p(ranks: list[float], t_low: float,
                       size: int | None = None) -> float:
    """Exact two-sided p of the rank sum ``t_low``: its smaller tail,
    doubled and capped at 1.

    Counts the subsets of ``ranks`` whose sum is ``<= t_low`` and those
    whose sum is ``>= t_low``, over all equally likely subsets: of any
    size (the ``2^n`` sign assignments of the signed-rank test), or of
    ``size`` elements (the ``C(n, size)`` splits of the rank-sum test).
    One count serves both tails, as the sums ``>= t_low`` are all but
    those ``< t_low``, so no count goes past ``t_low``.  Midranks are
    halves, so everything is doubled once to stay in integer arithmetic;
    Python integers keep the counts exact.
    """
    weights = [int(round(2.0 * r)) for r in ranks]
    top = int(round(2.0 * t_low))
    n = len(weights)
    # rows[k][t]: subsets of k weights (of any number: rows[0]) summing to t
    rows = [[1] + [0] * top] + [[0] * (top + 1) for _ in range(size or 0)]
    for i, w in enumerate(weights):
        if size is None:
            rows[0][w:] = [x + y for x, y in zip(rows[0][w:], rows[0])]
            continue
        # row k is reachable after i + 1 weights, and reaches size with the rest
        for k in range(min(i + 1, size), max(0, size - n + i), -1):
            rows[k][w:] = [x + y for x, y in zip(rows[k][w:], rows[k - 1])]
    counts = rows[-1]
    total = 2 ** n if size is None else math.comb(n, size)
    tail = sum(counts)
    tail = min(tail, total - tail + counts[top])
    return min(1.0, 2.0 * tail / total)


def wilcoxon_signed_rank(a, b, labels: tuple[str, str] = ("A", "B"),
                         paired: bool = True) -> WilcoxonResult:
    """Two-sided Wilcoxon test between result vectors (lower is better).

    Parameters
    ----------
    a, b : array-like
        With ``paired``, equal-length (>= 5) paired results, e.g. the
        finals of two optimizers on the same seeds: Wilcoxon's
        signed-rank test.  Without, two independent samples of >= 5
        values each: Wilcoxon's rank-sum test (Mann-Whitney U).
    labels : (str, str)
        Names for the two samples, used for the ``winner`` field.

    If nothing differs (every paired difference is zero, or every value
    of both samples is equal) there is nothing to rank: the result has
    ``n_nonzero == 0``, ``p_value == 1.0``, winner ``"no information"``
    and method ``"none"``.
    """
    a, b = _floats(a), _floats(b)
    if paired:
        if len(a) != len(b):
            raise ValueError("samples must be equal-length 1-D vectors")
        if len(a) < 5:
            raise ValueError("need at least 5 pairs")
        d = [v for v in (x - y for x, y in zip(a, b)) if v != 0.0]
        n = len(d)
        ranks = _midranks([abs(v) for v in d])
        t_plus = math.fsum(r for r, v in zip(ranks, d) if v > 0)
        t_minus = math.fsum(r for r, v in zip(ranks, d) if v < 0)
        # the rank sum the exact count tails at, and the subset size
        r_low, size, mu = min(t_plus, t_minus), None, n * (n + 1) / 4.0
        var = math.fsum(r * r for r in ranks) / 4.0
    else:
        if min(len(a), len(b)) < 5:
            raise ValueError("need at least 5 values per sample")
        n = len(a) + len(b)
        ranks = _midranks(a + b)
        r_a, r_b = math.fsum(ranks[:len(a)]), math.fsum(ranks[len(a):])
        t_plus = r_a - len(a) * (len(a) + 1) / 2.0
        t_minus = r_b - len(b) * (len(b) + 1) / 2.0
        r_low, size = (r_a, len(a)) if t_plus <= t_minus else (r_b, len(b))
        mu = len(a) * len(b) / 2.0
        var = (len(a) * len(b) * (math.fsum(r * r for r in ranks)
                                  - n * (n + 1) ** 2 / 4.0) / (n * (n - 1)))
    if var == 0.0:  # no non-zero difference, or every value ties
        return WilcoxonResult(0, 1.0, 0.0, 0.0, "no information", False, "none")
    if n <= EXACT_LIMIT:
        p = _exact_two_sided_p(ranks, r_low, size)
        method = "exact"
    else:
        # continuity correction toward the center
        z = (min(t_plus, t_minus) - mu + 0.5) / math.sqrt(var)
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
    m = _floats(mean_matrix, 2)
    if len(m) < 2 or len(m[0]) < 2 or any(len(row) != len(m[0]) for row in m):
        raise ValueError("need a problems x algorithms matrix, at least 2x2")
    if labels is None:
        labels = tuple(f"alg{j}" for j in range(len(m[0])))
    labels = tuple(labels)
    if len(labels) != len(m[0]):
        raise ValueError("one label per column required")
    row_ranks = [_midranks(row) for row in m]
    mean_ranks = tuple(math.fsum(col) / len(m) for col in zip(*row_ranks))
    order = sorted(range(len(labels)), key=mean_ranks.__getitem__)
    ordering = [0] * len(labels)
    for rank, j in enumerate(order, 1):
        ordering[j] = rank
    return FriedmanResult(labels=labels, mean_ranks=mean_ranks,
                          ordering=tuple(ordering))


def holm(pvalues) -> list[float]:
    """Holm's step-down adjusted p-values, in the order given.

    The i-th smallest of m p-values (i from 0) becomes ``(m - i) * p``,
    capped at 1 and raised to the largest adjusted value before it, so the
    adjusted values keep the p-values' order (Holm 1979, Scand. J. Stat.).
    Rejecting where the adjusted value is at most alpha holds the
    family-wise error rate at alpha.
    """
    p = _floats(pvalues)
    adjusted, running = [0.0] * len(p), 0.0
    for i, k in enumerate(sorted(range(len(p)), key=p.__getitem__)):
        running = max(running, min(1.0, (len(p) - i) * p[k]))
        adjusted[k] = running
    return adjusted
