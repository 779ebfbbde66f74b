"""Golden trajectories: bitwise pins on a few seeded runs.

Each pin is the SHA-256 of a run's ``best_trace``, ``final_x`` and
``evals``, of the bytes of a scatter CSV, of the exchanger objective
over a seeded set of designs, or of every catalog objective over seeded
points with its recorded optimum and bounds.  A refactor that claims to
keep behaviour must keep every pin; a change that alters trajectories
on purpose must update them and say why in CHANGES.md.  The pins hold
for one interpreter/numpy/CPU combination: the objectives' ufuncs may
round differently elsewhere.
"""

import hashlib
import itertools

import numpy as np
import pytest

from snailopt.benchmarks import CATALOG, known_optimum, make_benchmark
from snailopt.harness import (CampaignConfig, default_budget, resolve_problem,
                              run_campaign)
from snailopt.shms import ShmsConfig, run
from snailopt.sthe import LOWER, UPPER, make_case, published_tables, total_cost
from build_sthe_data import case_variant


def trajectory_digest(rec) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(rec.best_trace, dtype="<f8").tobytes())
    h.update(np.asarray(rec.final_x, dtype="<f8").tobytes())
    h.update(str(rec.evals).encode())
    return h.hexdigest()


# (problem, dim, seed, max_evals or None for the campaign default) -> digest
TRIAL_PINS = {
    ("F9", 30, 1, None): "fa206fd7c2fa749da8bd67204d9a3884e837c0d445fe52800a2c3966f6eef002",
    ("F1", 500, 1, 20_000): "d17b502ac473857c1664de4d0e6279122e5e6eda7ae2ed13b2348b84b7f225d0",
    ("sthe1", None, 1, None): "41df0482c6de7515db2a9fb5c8b1a508f2e56b3c682c31a6fa24dba07d3ef850",
    ("sthe2", None, 1, None): "35bfbf41aafd320a8f2f6e9839ee13e6641021ee9caf4dbfa2dc2f7328d2a246",
    ("sthe3", None, 1, None): "26f723d9a4a0f5ccef13b286c94052651a9c28b275aca2fffdabd269685f6390",
    ("F16", None, 7, None): "fede01d0ff026c58314a19ef6b382d9e443ee09b50c3a0d091d65d2002dcff75",
}

# pins on both sides of FLOAT_MOVE_DIM (12), where the engine's candidate
# moves switch from Python floats to numpy, and on the emigration path;
# (problem, dim, seed, homes, home_switch_prob) -> digest at the default budget
MOVE_PINS = {
    ("F19", None, 1, 3, 0.1): "8b3c585893af67e1281efe3f7342a462381fb355f57f5567c5b23f6d01d125de",
    ("F9", 12, 1, 3, 0.1): "503235087e3833d8906c9907b373ee87400de78f6df35292c1b8dfaddb76765e",
    ("F9", 13, 1, 3, 0.1): "e509bdd5837a1d936d5e871b2ffa869d4e33584f8db6c41add1d6a132ff42337",
    ("sthe3", None, 1, 5, 0.5): "d3fd3a0c2dcea0dadcd420f60bf780af084eee5822a9f2043b3b4853209e855a",
}


@pytest.mark.parametrize("key", list(MOVE_PINS), ids=lambda k: "{}-d{}-s{}-h{}-p{}".format(*k))
def test_move_kernel_trajectory_is_pinned(key):
    problem_id, dim, seed, homes, switch_prob = key
    cfg = CampaignConfig(problem=problem_id, dim=dim)
    problem = resolve_problem(cfg)
    rec = run(problem, ShmsConfig(homes=homes, home_switch_prob=switch_prob,
                                  max_evals=default_budget(cfg, problem), seed=seed))
    assert trajectory_digest(rec) == MOVE_PINS[key]


SCATTER_PIN = "6d920204e1a55056ecf15512f6e18d31cf9cc15b0540d1b14849c573a75c797a"


@pytest.mark.parametrize("key", list(TRIAL_PINS), ids=lambda k: f"{k[0]}-s{k[2]}")
def test_trial_trajectory_is_pinned(key):
    problem_id, dim, seed, max_evals = key
    cfg = CampaignConfig(problem=problem_id, dim=dim, max_evals=max_evals)
    problem = resolve_problem(cfg)
    rec = run(problem, ShmsConfig(max_evals=default_budget(cfg, problem), seed=seed))
    assert trajectory_digest(rec) == TRIAL_PINS[key]


def test_scatter_csv_is_pinned(tmp_path):
    # 3003 evaluations end mid-iteration at a non-power-of-two iteration,
    # so the final snapshot comes from flush()
    cfg = CampaignConfig(problem="F1", dim=5, trials=1, base_seed=3,
                         max_evals=3003, out_dir=str(tmp_path),
                         export_scatter=True)
    run_campaign(cfg)
    data = (tmp_path / "scatter_000.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == SCATTER_PIN


# above FLOAT_MOVE_DIM the moves run on numpy arrays, which the recorder
# keeps by reference: an engine that wrote into a snail's array in place
# would rewrite the earlier snapshots
NUMPY_SCATTER_PIN = "35e7323fc1ee5909a983f324efe22b3ed76c1146c358dfc59fa910d6e46a594d"


def test_numpy_kernel_scatter_csv_is_pinned(tmp_path):
    # 3003 evaluations end mid-iteration at iteration 115, so the final
    # snapshot comes from flush()
    cfg = CampaignConfig(problem="F1", dim=20, trials=1, base_seed=3,
                         max_evals=3003, out_dir=str(tmp_path),
                         export_scatter=True)
    run_campaign(cfg)
    data = (tmp_path / "scatter_000.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == NUMPY_SCATTER_PIN


# sthe1-3 plus the case-1 "Original Study" profile: geometry area,
# square pitch, pump efficiency 0.7 applied to the shell side too
STHE_COST_PIN = "1d02401b1c9707e4c6eaae3e8b009149ae3e1f0485d13e833a9026ddd1aae45e"


def sthe_pin_designs() -> np.ndarray:
    """In-box draws, draws from a box 50 % wider on every side (mostly
    out of bounds), the 16 box corners and four non-finite vectors."""
    rng = np.random.default_rng(2026)
    lo, hi = np.array(LOWER), np.array(UPPER)
    inside = lo + rng.random((500, 4)) * (hi - lo)
    wide = lo - 0.5 * (hi - lo) + rng.random((500, 4)) * 2.0 * (hi - lo)
    corners = np.array(list(itertools.product(*zip(LOWER, UPPER))))
    bad = np.tile(inside[:1], (4, 1))
    bad[:, 3] = [np.nan, np.inf, -np.inf, np.nan]
    bad[3, 0] = np.inf
    return np.vstack([inside, wide, corners, bad])


def test_sthe_total_cost_is_pinned():
    original = next(e for e in published_tables()["cases"]["1"]["designs"]
                    if e["name"] == "Original Study")
    cases = [make_case(c) for c in (1, 2, 3)]
    cases.append(case_variant(1, original["profile"]))
    designs = sthe_pin_designs()
    h = hashlib.sha256()
    for case in cases:
        costs = [total_cost(case, d) for d in designs]
        h.update(np.asarray(costs, dtype="<f8").tobytes())
    assert h.hexdigest() == STHE_COST_PIN


def catalog_cases():
    """F1-F13 at d = 2, 30 and 500; F14-F23 at their fixed dimensions."""
    for fid, spec in CATALOG.items():
        for dim in ((2, 30, 500) if spec.fixed_dim is None else (spec.fixed_dim,)):
            yield fid, dim


def catalog_digest() -> str:
    """Every objective (F7 noise-free) at 200 seeded in-box points plus
    both corners, with each entry's known optimum and bounds."""
    h = hashlib.sha256()
    for fid, dim in catalog_cases():
        problem = make_benchmark(fid, dim)
        rng = np.random.default_rng(2026)
        points = problem.lower + rng.random((200, dim)) * (problem.upper - problem.lower)
        points = np.vstack([points, problem.lower, problem.upper])
        values = [problem.func(x) for x in points]
        f_min, x_min = known_optimum(fid, dim)
        h.update(f"{fid}-d{dim}".encode())
        h.update(np.asarray(values, dtype="<f8").tobytes())
        h.update(np.asarray([f_min], dtype="<f8").tobytes())
        h.update(np.asarray(x_min, dtype="<f8").tobytes())
        h.update(np.concatenate([problem.lower, problem.upper]).astype("<f8").tobytes())
    return h.hexdigest()


CATALOG_PIN = "d10662e78d07b92c0f465a52108ef7314a09f2dac26d7b5bf318d47981186bd1"


def test_catalog_values_are_pinned():
    assert catalog_digest() == CATALOG_PIN
