"""Benchmark catalog tests: minimizer oracles, shapes, and edge cases."""

import math

import numpy as np
import pytest

from snailopt.benchmarks import (CANONICAL_DIMS, CATALOG, known_optimum,
                                 make_benchmark)

#: Round-off allowed around a stored optimum, in ulp of ``f_min`` (of 1.0
#: where ``f_min`` is 0).  Measured: ``f(x_min)`` is ``f_min`` exactly
#: except F8 (1-3 ulp below, d = 30 to 1000), F10 (2 ulp of 1.0 above 0)
#: and F12/F13 (below 1.6e-32); the closest lower neighbour found is 3 ulp
#: below ``f_min`` on F15 and 112 ulp on F18.
ROUNDOFF_ULPS = 4
#: Goldstein-Price (F18) is >= 3 everywhere, but its computed value falls
#: as far as 176 ulp below 3 within 1e-8 of (0, -1), so a neighbour that
#: evaluates below 3 is round-off, not a better point.
F18_ROUNDOFF_ULPS = 256


@pytest.mark.parametrize("fid", list(CATALOG))
def test_catalog_minimizer_reproduces_minimum(fid):
    """The stored ``(f_min, x_min)`` is exact and locally minimal.

    A fixed-dimension entry runs at its own dimension, a scalable one at
    each of CANONICAL_DIMS, F7 without noise.  At each, the shapes match
    and ``f(x_min)`` is ``f_min`` within ROUNDOFF_ULPS.  At the first
    (d = 30 for scalable entries), no step of one coordinate by +-1, 16,
    256 or 4,096 ulp, and none of twenty random 1e-4 nudges, evaluates
    below ``f_min`` by more than the round-off bound; stepping every
    coordinate at d = 100 to 1000 as well would take seconds.
    """
    spec = CATALOG[fid]
    dims = (spec.fixed_dim,) if spec.fixed_dim else CANONICAL_DIMS
    for dim in dims:
        problem = make_benchmark(fid, dim)
        f_min, x_min = known_optimum(fid, dim)
        assert problem.dim == dim and x_min.shape == (dim,), (fid, dim)
        ulp = math.ulp(f_min or 1.0)
        value = problem.func(x_min)
        assert abs(value - f_min) <= ROUNDOFF_ULPS * ulp, (fid, dim, value, f_min)
        if dim != dims[0]:
            continue
        floor = f_min - (F18_ROUNDOFF_ULPS if fid == "F18" else ROUNDOFF_ULPS) * ulp
        for i in range(dim):
            for k in (1, 16, 256, 4096):
                for step in (k, -k):
                    x = x_min.copy()
                    x[i] += step * math.ulp(x_min[i])
                    assert problem.func(x) >= floor, (fid, i, step)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = x_min + rng.normal(size=dim) * 1e-4
            assert problem.func(x) >= floor, (fid, x)


@pytest.mark.parametrize("fid", list(CATALOG))
def test_minimizer_lies_inside_box(fid):
    problem = make_benchmark(fid)
    _, x_min = known_optimum(fid)
    assert np.all(x_min >= problem.lower) and np.all(x_min <= problem.upper)


def test_fixed_dim_functions_reject_other_dims():
    with pytest.raises(ValueError):
        make_benchmark("F14", 5)
    # matching or omitted dim is fine
    assert make_benchmark("F14", 2).dim == 2
    assert make_benchmark("F20").dim == 6


def test_scalable_functions_reject_one_dimension():
    with pytest.raises(ValueError, match="F1 needs dim >= 2; got 1"):
        make_benchmark("F1", 1)


def test_unknown_id_rejected():
    with pytest.raises(KeyError):
        make_benchmark("F24")


def test_quartic_noise_stream_is_callers():
    rng = np.random.default_rng(42)
    noisy = make_benchmark("F7", 30, noise_rng=rng)
    clean = make_benchmark("F7", 30)
    x = np.zeros(30)
    assert clean.func(x) == 0.0
    draws = [noisy.func(x) for _ in range(100)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert len(set(draws)) > 90  # genuinely random, not a constant offset
    # same seed, same stream
    rng2 = np.random.default_rng(42)
    noisy2 = make_benchmark("F7", 30, noise_rng=rng2)
    assert [noisy2.func(x) for _ in range(100)] == draws


def test_product_term_function_survives_extreme_inputs():
    # the |x| sum+product function must not overflow to inf at the corner
    problem = make_benchmark("F2", 1000)
    value = problem.func(problem.upper.copy())
    assert np.isfinite(value) and value > 0.0
