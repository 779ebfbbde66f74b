"""Benchmark catalog tests: minimizer oracles, shapes, and edge cases."""

import numpy as np
import pytest

from snailopt.benchmarks import (CANONICAL_DIMS, CATALOG, known_optimum,
                                 make_benchmark)
from snailopt.objective import EvalCounter, evaluate

#: functions whose minimum sits at the origin with value exactly zero
ORIGIN_ZERO = {"F1", "F2", "F3", "F4", "F7", "F9", "F10", "F11"}


@pytest.mark.parametrize("fid", list(CATALOG))
def test_catalog_minimizer_reproduces_minimum(fid):
    problem = make_benchmark(fid)
    f_min, x_min = known_optimum(fid)
    value = evaluate(problem, x_min, EvalCounter())
    tol = 1e-8 if fid in ORIGIN_ZERO else 1e-4
    assert abs(value - f_min) <= tol, (fid, value, f_min)


@pytest.mark.parametrize("fid", list(CATALOG))
def test_minimizer_lies_inside_box(fid):
    problem = make_benchmark(fid)
    _, x_min = known_optimum(fid)
    assert x_min.shape == (problem.dim,)
    assert np.all(x_min >= problem.lower) and np.all(x_min <= problem.upper)


@pytest.mark.parametrize("dim", CANONICAL_DIMS)
def test_scalable_functions_scale(dim):
    for fid in ("F1", "F8", "F9"):
        problem = make_benchmark(fid, dim)
        assert problem.dim == dim
        f_min, x_min = known_optimum(fid, dim)
        value = evaluate(problem, x_min, EvalCounter())
        tol = 1e-8 if fid in ORIGIN_ZERO else 1e-4 * dim / 30.0
        assert abs(value - f_min) <= tol, (fid, dim, value, f_min)


def test_fixed_dim_functions_reject_other_dims():
    with pytest.raises(ValueError):
        make_benchmark("F14", 5)
    # matching or omitted dim is fine
    assert make_benchmark("F14", 2).dim == 2
    assert make_benchmark("F20").dim == 6


def test_unknown_id_rejected():
    with pytest.raises(KeyError):
        make_benchmark("F24")


def test_minimum_is_locally_minimal():
    # nudging the minimizer in a few random directions never improves it
    rng = np.random.default_rng(0)
    for fid in ("F1", "F8", "F9", "F10", "F16", "F19", "F22"):
        problem = make_benchmark(fid)
        f_min, x_min = known_optimum(fid)
        for _ in range(20):
            step = rng.normal(size=problem.dim) * 1e-4
            x = np.clip(x_min + step, problem.lower, problem.upper)
            assert problem.func(x) >= f_min - 1e-9, fid


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


def test_reference_values_spot_checks():
    # fixed-dimension minima against their catalogued constants
    expect = {
        "F14": 0.9980038377944498,
        "F15": 3.074859878056051e-4,
        "F16": -1.0316284534898774,
        "F17": 0.39788735772973816,
        "F18": 3.0,
        "F19": -3.862779787332663,
        "F20": -3.3223680114155147,
        "F21": -10.153199679058229,
        "F22": -10.402940566818662,
        "F23": -10.536409816692045,
    }
    for fid, ref in expect.items():
        f_min, _ = known_optimum(fid)
        assert abs(f_min - ref) < 1e-12, fid


def test_schwefel_minimum_scales_per_dimension():
    f30, _ = known_optimum("F8", 30)
    f100, _ = known_optimum("F8", 100)
    assert abs(f30 / 30 - f100 / 100) < 1e-9
    assert abs(f30 - 30 * -418.9828872724336) < 1e-6
