"""Unit tests for the problem container and evaluation bookkeeping."""

import numpy as np
import pytest

from snailopt.objective import (BoundedProblem, EvalCounter, NonFiniteObjective,
                                evaluate)


def make_problem(dim=3, lo=-2.0, hi=2.0, func=None):
    if func is None:
        def func(x):
            return float(np.sum(x * x))
    return BoundedProblem("test", dim, np.full(dim, lo), np.full(dim, hi), func)


def test_valid_problem_roundtrip():
    p = make_problem()
    assert p.dim == 3
    assert np.all(p.width == 4.0)
    c = EvalCounter()
    f = evaluate(p, np.zeros(3), c)
    assert f == 0.0
    assert c.count == 1


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        BoundedProblem("bad", 3, np.zeros(2), np.ones(3), lambda x: 0.0)


def test_inverted_bounds_rejected():
    with pytest.raises(ValueError):
        BoundedProblem("bad", 2, np.ones(2), np.zeros(2), lambda x: 0.0)


def test_nonfinite_bounds_rejected():
    with pytest.raises(ValueError):
        BoundedProblem("bad", 2, np.array([0.0, np.nan]), np.ones(2),
                       lambda x: 0.0)


def test_nonpositive_dim_rejected():
    with pytest.raises(ValueError):
        BoundedProblem("bad", 0, np.zeros(0), np.zeros(0), lambda x: 0.0)


def test_counter_tracks_every_evaluation():
    p = make_problem()
    c = EvalCounter()
    for k in range(7):
        evaluate(p, np.zeros(3), c)
    assert c.count == 7


def test_nonfinite_value_raises():
    p = make_problem(func=lambda x: float("nan"))
    with pytest.raises(NonFiniteObjective):
        evaluate(p, np.zeros(3), EvalCounter())
    p = make_problem(func=lambda x: float("inf"))
    with pytest.raises(NonFiniteObjective) as e:
        evaluate(p, np.ones(3), EvalCounter())
    assert "test" in str(e.value)


def test_counter_counts_failed_evaluations():
    p = make_problem(func=lambda x: float("nan"))
    c = EvalCounter()
    with pytest.raises(NonFiniteObjective):
        evaluate(p, np.zeros(3), c)
    assert c.count == 1
