"""The fixed-dimension objectives on Python floats against their numpy form.

F15-F23 compute on ``x.tolist()`` in the order of the numpy formulation
they replaced (see the ``snailopt.benchmarks`` module).  The numpy
versions are kept here, verbatim, as the oracle: every value must have
the same bits (``float.hex``) on seeded in-box points, on every face
and corner, at the catalog's optimum, and with signed zeros wherever the
box holds 0.
"""

import itertools
import math

import numpy as np
import pytest

from snailopt.benchmarks import CATALOG, known_optimum, make_benchmark
from snailopt.objective import EvalCounter, NonFiniteObjective, evaluate


# the numpy formulations the float code replaced; tables as arrays

def numpy_kowalik(a, b, x):
    num = x[0] * (b ** 2 + b * x[1])
    den = b ** 2 + b * x[2] + x[3]
    return float(np.sum((a - num / den) ** 2))


def numpy_camel6(x):
    x1, x2 = x[0], x[1]
    return float((4.0 - 2.1 * x1 ** 2 + x1 ** 4 / 3.0) * x1 ** 2
                 + x1 * x2 + (-4.0 + 4.0 * x2 ** 2) * x2 ** 2)


def numpy_branin(x):
    x1, x2 = x[0], x[1]
    return float((x2 - 5.1 * x1 ** 2 / (4.0 * np.pi ** 2) + 5.0 * x1 / np.pi - 6.0) ** 2
                 + 10.0 * (1.0 - 1.0 / (8.0 * np.pi)) * np.cos(x1) + 10.0)


def numpy_goldstein_price(x):
    x1, x2 = x[0], x[1]
    a = 1.0 + (x1 + x2 + 1.0) ** 2 * (19.0 - 14.0 * x1 + 3.0 * x1 ** 2
                                      - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * x2 ** 2)
    b = 30.0 + (2.0 * x1 - 3.0 * x2) ** 2 * (18.0 - 32.0 * x1 + 12.0 * x1 ** 2
                                             + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * x2 ** 2)
    return float(a * b)


def numpy_hartman(a, p, c, x):
    inner = np.sum(a * (x - p) ** 2, axis=1)
    return float(-np.sum(c * np.exp(-inner)))


def numpy_shekel(a, c, x):
    d = a - x
    return float(-np.sum(1.0 / (np.sum(d * d, axis=1) + c)))


ORACLES = {
    "F15": lambda x, t=CATALOG["F15"].tables: numpy_kowalik(np.array(t[0]), np.array(t[1]), x),
    "F16": numpy_camel6,
    "F17": numpy_branin,
    "F18": numpy_goldstein_price,
}
for _fid in ("F19", "F20"):
    ORACLES[_fid] = lambda x, t=CATALOG[_fid].tables: numpy_hartman(*map(np.array, t), x)
for _fid in ("F21", "F22", "F23"):
    ORACLES[_fid] = lambda x, t=CATALOG[_fid].tables: numpy_shekel(*map(np.array, t), x)

IN_BOX = 20_000
PER_FACE = 200


def oracle_points(fid: str) -> np.ndarray:
    """Seeded in-box points, points on each face, every corner, the known
    optimum, and (where the box holds 0) points with +0.0 and -0.0."""
    problem = make_benchmark(fid)
    lo, hi, d = problem.lower, problem.upper, problem.dim
    rng = np.random.default_rng(int(fid[1:]))
    points = [lo + rng.random((IN_BOX, d)) * (hi - lo)]
    for j, bound in itertools.product(range(d), (lo, hi)):
        face = lo + rng.random((PER_FACE, d)) * (hi - lo)
        face[:, j] = bound[j]
        points.append(face)
    points.append(np.array(list(itertools.product(*zip(lo, hi)))))
    points.append(known_optimum(fid)[1][None, :])
    if lo[0] <= 0.0 <= hi[0]:
        for zero in (0.0, -0.0):
            signed = lo + rng.random((PER_FACE, d)) * (hi - lo)
            signed[rng.random((PER_FACE, d)) < 0.5] = zero
            signed[0] = zero
            points.append(signed)
    return np.vstack(points)


@pytest.mark.parametrize("fid", list(ORACLES))
def test_float_objective_equals_its_numpy_form(fid):
    func, oracle = make_benchmark(fid).func, ORACLES[fid]
    points = oracle_points(fid)
    assert len(points) >= IN_BOX
    mismatched = [x.tolist() for x in points
                  if func(x).hex() != oracle(x).hex()]
    assert not mismatched, (len(mismatched), mismatched[:3])


def test_kowalik_pole_is_non_finite_like_numpy():
    # b = 1 is the third table entry: den = 1 + x2 + x3 is exactly 0 here
    func = make_benchmark("F15").func
    for x0, expect in ((0.25, math.isinf), (0.0, math.isnan)):
        x = np.array([x0, 0.5, -0.5, -0.5])
        with np.errstate(all="ignore"):
            assert expect(ORACLES["F15"](x))
        assert expect(func(x))
        with pytest.raises(NonFiniteObjective):
            evaluate(make_benchmark("F15"), x, EvalCounter())
