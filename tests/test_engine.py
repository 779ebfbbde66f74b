"""Engine tests: mating operators, the trail-following move, and full runs."""

import dataclasses
import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from snailopt.benchmarks import make_benchmark
from snailopt.objective import BoundedProblem, EvalCounter
from snailopt.shms import (LARGE_LD, Anchor, ColonyState, ShmsConfig,
                           SnailState, _mate, init_colony, run,
                           selection_probabilities, step,
                           trail_following_update)


def sphere(dim=3, lo=-5.0, hi=5.0, shift=0.0):
    return BoundedProblem(
        name=f"sphere-d{dim}",
        dim=dim,
        lower=np.full(dim, lo),
        upper=np.full(dim, hi),
        func=lambda x: float(np.sum((x - shift) ** 2)),
    )


def make_colony(problem, positions, home_ids, c_value=0.5):
    """Hand-build a colony from explicit positions (no RNG consumed)."""
    snails = []
    for x, h in zip(positions, home_ids):
        x = np.asarray(x, dtype=float)
        f = problem.func(x)
        snails.append(SnailState(x=x.copy(), f=f, f_hist=(f, f, f), home_id=h))
    anchors = []
    for h in range(max(home_ids) + 1):
        members = [s for s in snails if s.home_id == h]
        best = min(members, key=lambda s: s.f)
        anchors.append(Anchor(x=best.x.copy(), f=best.f))
    gbest = min(snails, key=lambda s: s.f)
    return ColonyState(
        snails=snails,
        home_anchor=anchors,
        global_best=Anchor(x=gbest.x.copy(), f=gbest.f),
        c=np.full(problem.dim, float(c_value)),
        iteration=0,
        counter=EvalCounter(),
    )


# ---------------------------------------------------------------------------
# mating: fecundity, the fecund snail's roulette, love darts
# ---------------------------------------------------------------------------

class Uniforms:
    """Stands in for the generator: ``random()`` returns the given
    uniforms in turn, and one draw too many fails."""

    def __init__(self, *us):
        self.us = list(us)

    def random(self):
        return self.us.pop(0)


def snail(f, fecundity=0.5, hist=None):
    """A snail at value ``f`` whose history ``(f, f + fecundity, f + 1)``
    has that fecundity index exactly (for dyadic values), or ``hist``."""
    return SnailState(x=np.zeros(1), f=f, f_hist=hist or (f, f + fecundity, f + 1.0),
                      home_id=0)


def test_fecundity_index_is_recent_improvement_ratio():
    # histories (5, 7, 9) and (1, 4, 2) give 2/4 and 3/1; the regular path
    # draws nothing, so the roulette's 0.0 (the first snail) is the only draw
    home = [snail(0.0), snail(5.0, hist=(5.0, 7.0, 9.0)),
            snail(1.0, hist=(1.0, 4.0, 2.0)), snail(2.0, 0.25)]
    rng = Uniforms(0.0)
    k, darts = _mate(home, rng)
    assert k == 0 and rng.us == []
    raw = [1 / (0.5 * 5.0), 1 / (3.0 * 1.0), 1 / (0.25 * 2.0)]
    lo, hi = min(raw), max(raw)
    assert darts == [(r - lo) / (hi - lo) for r in raw]


def test_fecundity_index_degenerate_falls_back_to_uniform():
    # a degenerate history draws one uniform: in member order, the fecund
    # snail's (0.875, unused) too, and before the roulette's 0.0
    for hist in [(3.0, 3.0, 3.0),        # flat history: zero/zero
                 (3.0, 3.0, 9.0),        # zero numerator
                 (3.0, 7.0, 3.0),        # vanishing denominator
                 (3.0, math.inf, 9.0)]:  # non-finite quotient
        home = [snail(0.0, hist=(0.0, 0.0, 0.0)), snail(1.0),
                snail(3.0, hist=hist), snail(2.0, 1.0)]
        rng = Uniforms(0.875, 0.25, 0.0)
        k, darts = _mate(home, rng)
        assert k == 0 and rng.us == [], hist
        raw = [1 / (0.5 * 1.0), 1 / (0.25 * 3.0), 1 / (1.0 * 2.0)]
        lo, hi = min(raw), max(raw)
        assert darts == [(r - lo) / (hi - lo) for r in raw], hist


def test_love_dart_raw_examples():
    # 1 / (I * (f_s - f_fecund)) against the fecund snail at 1.0, with
    # I = 0.5, 2 and 4: 1, -0.25 and 0.5, then min-max normalized
    home = [snail(1.0), snail(3.0, 0.5), snail(-1.0, 2.0), snail(1.5, 4.0)]
    k, darts = _mate(home, Uniforms(0.0))
    assert k == 0
    raw = [1 / (0.5 * 2.0), 1 / (2.0 * -2.0), 1 / (4.0 * 0.5)]
    assert darts == [(r + 0.25) / 1.25 for r in raw]


def test_love_dart_ties_and_overflows_saturate_to_one():
    # a tie (within 1e-30), a quotient that overflows (either sign), a
    # finite dart of LARGE_LD or more and a zero fecundity all give 1.0;
    # the other darts are min-max normalized among themselves
    up, down = math.nextafter(1.0, 2.0), math.nextafter(-1.0, -2.0)
    saturated = [snail(0.0), snail(1e-31),
                 snail(1.0, hist=(1.0, up, 1e300)),       # I ~ 2e-316
                 snail(-1.0, hist=(-1.0, down, -1e300)),
                 snail(2.0 ** -60, 2.0 ** -50),            # dart 2 ** 110
                 snail(5.0, hist=(5.0, 5.0, 5.0))]         # draws I = 0.0
    assert 1 / (2.0 ** -50 * 2.0 ** -60) >= LARGE_LD
    home = [snail(0.0), *saturated, snail(1.0), snail(2.0), snail(4.0)]
    rng = Uniforms(0.0, 0.0)
    k, darts = _mate(home, rng)
    assert k == 0 and rng.us == []
    raw = [1 / (0.5 * 1.0), 1 / (0.5 * 2.0), 1 / (0.5 * 4.0)]
    assert darts == [1.0] * len(saturated) + [(r - 0.5) / 1.5 for r in raw]


def test_normalize_ld_examples():
    # raw darts -1, 0.5 and 2 against the fecund snail at 2.0
    home = [snail(2.0), snail(1.0, 1.0), snail(6.0, 0.5), snail(3.0, 0.5)]
    assert _mate(home, Uniforms(0.0)) == (0, [0.0, 0.5, 1.0])
    # equal raw darts (all 1), a single dart and only ties: no range
    home = [snail(0.0), snail(1.0, 1.0), snail(2.0, 0.5), snail(4.0, 0.25)]
    assert _mate(home, Uniforms(0.0)) == (0, [0.5, 0.5, 0.5])
    assert _mate([snail(0.0), snail(4.0)], Uniforms(0.0)) == (0, [0.5])
    assert _mate([snail(0.0)] * 3, Uniforms(0.0)) == (0, [1.0, 1.0])


@given(st.lists(st.floats(min_value=-1e12, max_value=1e12), min_size=1, max_size=20))
def test_normalize_ld_stays_in_unit_interval(fs):
    # flat histories: every fecundity is the drawn 0.5, and the roulette's
    # 0.0 makes the first snail, at 0.0, the fecund one
    home = [snail(f, hist=(f, f, f)) for f in [0.0, *fs]]
    k, darts = _mate(home, Uniforms(*[0.5] * len(home), 0.0))
    assert k == 0 and len(darts) == len(fs)
    assert all(type(v) is float and 0.0 <= v <= 1.0 for v in darts)
    raw = [1 / (0.5 * f) if abs(f) > 1e-30 else math.inf for f in fs]
    kept = [r for r in raw if abs(r) < LARGE_LD]
    if kept and max(kept) - min(kept) > 1e-30:
        assert darts[raw.index(min(kept))] == 0.0
        assert darts[raw.index(max(kept))] == 1.0


# ---------------------------------------------------------------------------
# selection probabilities
# ---------------------------------------------------------------------------

def test_selection_probabilities_inverse_proportionality():
    p = np.asarray(selection_probabilities([1.0, 3.0]))
    assert p[0] == pytest.approx(0.75, abs=1e-12)
    assert p[1] == pytest.approx(0.25, abs=1e-12)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_selection_probabilities_handles_nonpositive_values():
    p = np.asarray(selection_probabilities([-2.0, 0.0, 2.0]))
    assert np.all(p > 0.0)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert p[0] > p[1] > p[2]


def test_selection_probabilities_rejects_bad_shapes():
    with pytest.raises(ValueError):
        selection_probabilities([])
    with pytest.raises(ValueError):
        selection_probabilities([[1.0, 2.0]])


@given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=15))
def test_selection_probabilities_order_property(values):
    p = np.asarray(selection_probabilities(values))
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(p > 0.0)
    order = np.argsort(values, kind="stable")
    # lower objective -> probability at least as high (strictly when distinct)
    ranked = p[order]
    assert np.all(np.diff(ranked) <= 1e-15)


def test_roulette_select_frequency_matches_probabilities():
    # values 1 and 3: selection probabilities 3/4 and 1/4
    home = [snail(1.0), snail(3.0)]
    rng = np.random.default_rng(7)
    hits = sum(_mate(home, rng)[0] == 0 for _ in range(100_000))
    assert abs(hits / 100_000 - 0.75) < 0.01, hits


def test_roulette_select_never_overflows_index():
    # the largest uniform lies in the rounding slack above this home's
    # last cumulative sum, and still picks the last snail
    values = [3.0, 4.0, 5.0, 6.0, 7.0]
    u = math.nextafter(1.0, 0.0)
    assert list(accumulate(selection_probabilities(values)))[-1] < u
    assert _mate([snail(v) for v in values], Uniforms(u))[0] == 4


# ---------------------------------------------------------------------------
# trail-following move
# ---------------------------------------------------------------------------

def trail_case(positions, home_ids, lo=-5.0, hi=5.0, c_value=0.5):
    """A hand-built colony on ``positions``, over a sphere of their dimension."""
    problem = sphere(dim=len(positions[0]), lo=lo, hi=hi)
    return problem, make_colony(problem, positions, home_ids, c_value)


def test_trail_zero_intensity_reproduces_best_position():
    problem, colony = trail_case([[1.0, -2.0, 3.0], [0.5, 0.5, 0.5]], [0, 0])
    mover = colony.snails[0]
    mover.ld_norm = 0.0
    cfg = ShmsConfig(homes=1, home_switch_prob=0.0)
    y = trail_following_update(mover, colony, problem, cfg, np.random.default_rng(3))
    assert y is None            # the best position, already evaluated


def test_trail_snail_on_best_position_stays_exactly():
    best = [0.1, 0.2, -0.3, 0.4]
    problem, colony = trail_case([best, [2.0, 2.0, 2.0, 2.0]], [0, 0])
    mover = colony.snails[0]    # already sits on the global best
    mover.ld_norm = 0.83
    cfg = ShmsConfig(homes=1, home_switch_prob=0.0)
    y = trail_following_update(mover, colony, problem, cfg, np.random.default_rng(11))
    assert y is None


def test_trail_draw_is_uniform_around_best():
    # best at 2, snail at 0, intensity 0.5 -> y ~ U(1, 3) in one dimension
    problem, colony = trail_case([[0.0], [2.0]], [0, 0], lo=-10.0, hi=10.0)
    best = np.array([2.0])
    colony.global_best = Anchor(x=best, f=problem.func(best))
    mover = colony.snails[0]
    mover.ld_norm = 0.5
    cfg = ShmsConfig(homes=1, home_switch_prob=0.0)
    rng = np.random.default_rng(19)
    draws = np.array([
        trail_following_update(mover, colony, problem, cfg, rng)[0]
        for _ in range(2000)
    ])
    assert np.all(draws >= 1.0) and np.all(draws <= 3.0)
    pvalue = sps.kstest(draws, "uniform", args=(1.0, 2.0)).pvalue
    assert pvalue > 1e-4, pvalue


def test_trail_candidate_is_clamped_to_box():
    # the best sits inside the box, so a draw clipped to the bound is
    # neither the best nor the snail's position and comes back
    problem, colony = trail_case([[-1.0], [2.0]], [0, 0], lo=-1.0, hi=2.5)
    best = np.array([2.0])
    colony.global_best = Anchor(x=best, f=problem.func(best))
    mover = colony.snails[0]
    mover.ld_norm = 1.0         # interval [-1, 5] before clamping
    cfg = ShmsConfig(homes=1, home_switch_prob=0.0)
    rng = np.random.default_rng(5)
    draws = np.array([
        trail_following_update(mover, colony, problem, cfg, rng)[0]
        for _ in range(500)
    ])
    assert np.all(draws >= -1.0) and np.all(draws <= 2.5)
    assert np.any(draws == 2.5)  # the upper part of the interval got cut


def test_home_switch_reassigns_home_and_redraws_one_coordinate():
    positions = [[1.0] * 5, [0.0] * 5, [3.0] * 5, [-3.0] * 5]
    problem, colony = trail_case(positions, [0, 0, 1, 2], c_value=0.25)
    mover = colony.snails[0]
    mover.ld_norm = 0.0         # dense part lands exactly on the best
    cfg = ShmsConfig(homes=3, home_switch_prob=1.0)
    for seed in range(30):
        mover.home_id = 0
        y = trail_following_update(mover, colony, problem, cfg,
                                   np.random.default_rng(seed))
        assert mover.home_id in (1, 2)          # never the home it left
        anchor = colony.home_anchor[mover.home_id].x
        changed = np.flatnonzero(y != colony.global_best.x)
        assert changed.size == 1                # exactly one coordinate redrawn
        d = changed[0]
        assert abs(y[d] - anchor[d]) <= colony.c[d]


def test_trail_candidate_is_fresh_and_leaves_positions_untouched():
    problem, colony = trail_case([[0.9, -0.9, 0.5], [0.0, 0.1, 0.2]], [0, 0],
                                 lo=-1.0, hi=1.0)
    mover = colony.snails[0]
    mover.ld_norm = 1.0
    before = (mover.x.copy(), colony.global_best.x.copy())
    cfg = ShmsConfig(homes=1, home_switch_prob=0.0)
    y = trail_following_update(mover, colony, problem, cfg, np.random.default_rng(4))
    assert y is not None
    assert y is not mover.x and y is not colony.global_best.x
    assert np.array_equal(mover.x, before[0])
    assert np.array_equal(colony.global_best.x, before[1])


def test_home_switch_is_impossible_with_a_single_home():
    problem, colony = trail_case([[1.0, 1.0], [0.0, 0.0]], [0, 0])
    mover = colony.snails[0]
    mover.ld_norm = 0.0
    cfg = ShmsConfig(homes=1, home_switch_prob=1.0)
    y = trail_following_update(mover, colony, problem, cfg, np.random.default_rng(2))
    assert mover.home_id == 0
    assert y is None


def test_trail_move_consumes_the_stream_in_a_fixed_order():
    positions = [[1.0, -2.0, 3.0], [0.5, 0.5, 0.5], [2.0, 2.0, 2.0], [-1.0, 0.0, 1.0]]
    problem, colony = trail_case(positions, [0, 0, 1, 2], c_value=0.25)
    mover, dim = colony.snails[0], problem.dim
    mover.ld_norm = 0.0
    rng, replay = np.random.default_rng(8), np.random.default_rng(8)
    # a zero-trail skip: the switch uniform and the trail uniforms only
    stay = ShmsConfig(homes=3, home_switch_prob=0.0)
    assert trail_following_update(mover, colony, problem, stay, rng) is None
    replay.random(dim + 1)
    assert rng.bit_generator.state == replay.bit_generator.state
    # an emigrant: then its new home, its coordinate and the redraw there
    leave = ShmsConfig(homes=3, home_switch_prob=1.0)
    y = trail_following_update(mover, colony, problem, leave, rng)
    replay.random(dim + 1)
    home = 1 + int(replay.integers(2))      # home 0 is the one it left
    d = int(replay.integers(dim))
    redrawn = colony.home_anchor[home].x[d] + colony.c[d] * (2.0 * replay.random() - 1.0)
    assert rng.bit_generator.state == replay.bit_generator.state
    assert mover.home_id == home
    want = colony.global_best.x.copy()
    want[d] = redrawn
    assert y.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_colony_spends_exactly_the_initial_budget():
    problem = sphere(dim=6)
    cfg = ShmsConfig(homes=4, snails_per_home=7, max_evals=1000, seed=123)
    colony = init_colony(problem, cfg, np.random.default_rng(cfg.seed))
    assert colony.counter.count == 4 * 7
    assert len(colony.snails) == 4 * 7
    assert len(colony.home_anchor) == 4
    for s in colony.snails:
        assert np.all(s.x >= problem.lower) and np.all(s.x <= problem.upper)
        assert s.f_hist == (s.f, s.f, s.f)
    best = min(s.f for s in colony.snails)
    assert colony.global_best.f == best
    for h in range(4):
        members = colony.members(h)
        assert len(members) == 7
        assert colony.home_anchor[h].f == min(s.f for s in members)


def test_init_colony_neighbourhood_halfwidth_fixed_from_box():
    problem = BoundedProblem(
        name="box", dim=2,
        lower=np.array([0.0, -10.0]), upper=np.array([1.0, 10.0]),
        func=lambda x: float(np.sum(x ** 2)),
    )
    cfg = ShmsConfig(neighborhood_fraction=0.1, max_evals=100)
    colony = init_colony(problem, cfg, np.random.default_rng(0))
    assert np.allclose(colony.c, [0.1, 2.0])


def test_snails_start_within_c_of_their_anchor():
    problem = sphere(dim=3, lo=-5.0, hi=5.0)
    cfg = ShmsConfig(homes=3, snails_per_home=10, max_evals=100, seed=9)
    colony = init_colony(problem, cfg, np.random.default_rng(cfg.seed))
    for h in range(3):
        centre = colony.home_anchor[h].x
        for s in colony.members(h):
            # clamping can only pull a coordinate closer to the box,
            # never push it beyond the drawn cube
            assert np.all(np.abs(s.x - centre) <= colony.c + 1e-12)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"homes": 0},
    {"snails_per_home": 1},
    {"neighborhood_fraction": 0.0},
    {"home_switch_prob": -0.1},
    {"home_switch_prob": 1.5},
    {"homes": 5, "snails_per_home": 10, "max_evals": 49},
    {"stagnation_window": 0},
    {"stagnation_tol": -1e-9},
    {"neighborhood_fraction": float("inf")},
    {"neighborhood_fraction": float("nan")},
    {"stagnation_tol": float("inf")},
    {"stagnation_tol": float("nan")},
    {"seed": -1},
])
def test_config_rejects_invalid_values(kwargs):
    with pytest.raises(ValueError):
        ShmsConfig(**kwargs)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_runs_with_different_seeds_differ():
    problem = sphere(dim=5)
    a = run(problem, ShmsConfig(max_evals=2000, seed=1))
    b = run(problem, ShmsConfig(max_evals=2000, seed=2))
    assert a.best_trace != b.best_trace


def test_run_minimizes_a_shifted_sphere_without_origin_bias():
    # the box is asymmetric around the optimum on purpose
    problem = sphere(dim=5, lo=-5.0, hi=5.0, shift=2.75)
    rec = run(problem, ShmsConfig(max_evals=20_000, seed=4))
    assert rec.final_f < 1e-8
    assert np.all(np.abs(rec.final_x - 2.75) < 1e-3)


def test_run_stops_on_stagnation():
    # constant objective: no improvement is ever possible
    problem = BoundedProblem(
        name="flat", dim=2,
        lower=np.full(2, -1.0), upper=np.full(2, 1.0),
        func=lambda x: 1.0,
    )
    cfg = ShmsConfig(max_evals=1_000_000, stagnation_window=5, seed=0)
    rec = run(problem, cfg)
    assert rec.evals < 10_000
    assert len(rec.best_trace) <= cfg.stagnation_window + 2
    assert rec.final_f == 1.0


def test_observer_sees_init_plus_every_iteration():
    problem = sphere(dim=3)
    counts = []

    def observer(colony):
        counts.append(colony.iteration)

    rec = run(problem, ShmsConfig(max_evals=800, seed=21), observer=observer)
    assert counts == list(range(len(rec.best_trace)))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("fid, dim", [("F16", None), ("F9", 30)])
def test_emigrants_mate_and_move_again_in_a_later_home(fid, dim, seed, monkeypatch):
    # every move emigrates: home 0's nine movers join home 1, which then
    # mates and moves 18 snails, so one step spends 9 + 18 evaluations
    # (grouping the snails once per iteration would spend 9 + 9)
    problem = make_benchmark(fid, dim)
    cfg = ShmsConfig(homes=2, snails_per_home=10, home_switch_prob=1.0,
                     max_evals=1000, seed=seed)
    rng = np.random.default_rng(seed)
    colony = init_colony(problem, cfg, rng)
    gathered = []
    members = ColonyState.members
    monkeypatch.setattr(ColonyState, "members",
                        lambda self, h: gathered.append(h) or members(self, h))
    step(colony, problem, cfg, rng)
    assert gathered == [0, 1]  # each home's members gathered once
    assert colony.counter.count == 20 + 27
    assert [len(members(colony, h)) for h in range(2)] == [19, 1]
    # the budget is tested before each home's mating: a run that can
    # afford home 0's moves stops at home 1's turn
    rec = run(problem, dataclasses.replace(cfg, max_evals=29))
    assert rec.evals == 29


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=2, max_value=10),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=200))
def test_small_random_runs_hold_the_core_invariants(dim, seed, homes, snails,
                                                     switch, extra):
    # the box is asymmetric around the optimum, so a move that leaves it
    # is not pulled back by the objective alone
    problem = sphere(dim=dim, lo=-2.0, hi=1.0)
    cfg = ShmsConfig(homes=homes, snails_per_home=snails,
                     home_switch_prob=switch,
                     max_evals=homes * snails + extra, seed=seed)
    occupied, inside = [], []

    def observer(colony):
        occupied.append({s.home_id for s in colony.snails})
        inside.extend(bool(np.all(s.x >= problem.lower)
                           and np.all(s.x <= problem.upper))
                      for s in colony.snails)

    rec = run(problem, cfg, observer=observer)
    # no home is ever empty, so step needs no guard for one: a home's
    # snails emigrate only in its own turn, and its fecund snail stays
    assert occupied == [set(range(homes))] * len(rec.best_trace)
    assert inside and all(inside)
    again = run(problem, cfg)
    assert rec.best_trace == again.best_trace
    assert np.array_equal(rec.final_x, again.final_x)
    assert rec.evals == again.evals
    assert homes * snails <= rec.evals <= cfg.max_evals
    assert all(a >= b for a, b in zip(rec.best_trace, rec.best_trace[1:]))
    assert rec.final_f == rec.best_trace[-1] == problem.func(rec.final_x)
    assert np.all(rec.final_x >= problem.lower)
    assert np.all(rec.final_x <= problem.upper)
    assert rec.seed == seed
    assert rec.wall_time >= 0.0
