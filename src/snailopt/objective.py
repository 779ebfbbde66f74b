"""Bounded objective functions and evaluation bookkeeping.

Every search problem handled by this package is a box-constrained
minimization problem: a callable objective together with elementwise
lower/upper bounds.  This module defines the problem container, the
evaluation counter used for budget accounting, and ``evaluate``, the
one primitive every evaluation goes through.  Box projection lives in
the engine: ``init_colony`` clips with ``np.clip``, and the move kernels
clamp each candidate to ``lower``/``upper`` themselves.

Keeping all evaluations behind :func:`evaluate` guarantees that budget
accounting is exact and that non-finite objective values are caught at
the point of evaluation rather than corrupting a search later on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from ._numpy import np

__all__ = [
    "BoundedProblem",
    "EvalCounter",
    "NonFiniteObjective",
    "evaluate",
]


class NonFiniteObjective(RuntimeError):
    """Raised when an objective returns NaN or +/-inf inside its box.  It
    holds only its message, which names the objective, the value and the
    input vector, so it pickles like any ``RuntimeError``."""


@dataclass(frozen=True)
class BoundedProblem:
    """A box-constrained minimization problem.

    Parameters
    ----------
    name : str
        Human-readable identifier (shows up in logs and result files).
    dim : int
        Number of decision variables.
    lower, upper : ndarray, shape (dim,)
        Elementwise bounds; ``lower < upper`` in every coordinate.
    func : callable
        Maps a ``(dim,)`` float64 array to a scalar objective value.
        It is handed the array as given (:func:`evaluate` converts
        nothing), so it may call ``x.tolist()``.
    """

    name: str
    dim: int
    lower: np.ndarray
    upper: np.ndarray
    func: Callable[[np.ndarray], float]

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if lo.shape != (self.dim,) or hi.shape != (self.dim,):
            raise ValueError(
                f"bounds must have shape ({self.dim},); got {lo.shape} and {hi.shape}"
            )
        if not np.all(lo < hi):
            raise ValueError("every lower bound must be strictly below its upper bound")

    @property
    def width(self) -> np.ndarray:
        """Box edge lengths, ``upper - lower``."""
        return self.upper - self.lower

    @cached_property
    def bound_lists(self) -> tuple[list[float], list[float]]:
        """``lower`` and ``upper`` as lists of Python floats, built once and shared."""
        return self.lower.tolist(), self.upper.tolist()


@dataclass
class EvalCounter:
    """Counts objective evaluations; one increment per :func:`evaluate`."""

    count: int = 0


def evaluate(problem: BoundedProblem, x: np.ndarray, counter: EvalCounter) -> float:
    """Evaluate ``problem`` at ``x``, incrementing ``counter`` by one.

    ``x`` must be a ``(dim,)`` float64 array; it goes to the objective
    unconverted (the engine's candidates are such arrays already).

    Raises
    ------
    NonFiniteObjective
        If the objective returns NaN or an infinity.  Objectives are
        required to be finite everywhere inside their box; a violation
        here is a bug in the objective, not in the caller.
    """
    value = float(problem.func(x))
    counter.count += 1
    if not math.isfinite(value):
        raise NonFiniteObjective(
            f"objective {problem.name!r} returned non-finite value {value!r} "
            f"at x={np.asarray(x).tolist()}")
    return value
