"""The engine's Python-float code against the numpy code it replaces.

The per-home mating bookkeeping and the candidate move at low dimension
run on Python floats (see the ``snailopt.shms`` docstring).  These
properties check that they give the same bits as numpy and consume the
same random draws, which is what keeps the golden trajectories.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from snailopt.harness import CampaignConfig, summarize
from snailopt.objective import BoundedProblem, EvalCounter
from snailopt.shms import (FLOAT_MOVE_DIM, Anchor, ColonyState, ShmsConfig,
                           SnailState, _trail_floats, roulette_select,
                           selection_probabilities, trail_following_update)
from snailopt.stats import _pairwise_sum


# the numpy versions these functions had before they moved to lists
def numpy_selection_probabilities(values) -> np.ndarray:
    f = np.asarray(values, dtype=float)
    m = float(f.min())
    g = f - min(m, 0.0) + 1e-12 * (1.0 + abs(m))
    w = 1.0 / g
    return w / w.sum()


def numpy_roulette_select(probabilities, rng) -> int:
    p = np.asarray(probabilities, dtype=float)
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(p), u, side="right"))
    return min(idx, p.size - 1)


# ---------------------------------------------------------------------------
# summation order
# ---------------------------------------------------------------------------

def test_pairwise_sum_is_numpys_sum():
    rng = np.random.default_rng(2026)
    for n in range(1, 301):
        for _ in range(5):
            v = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-20.0, 20.0, n)
            assert _pairwise_sum(list(v)) == float(v.sum()), n
            w = 10.0 ** rng.uniform(-20.0, 20.0, n)     # one sign: no cancellation
            assert _pairwise_sum(w.tolist()) == float(w.sum()), n


def signed(magnitude):
    return st.tuples(magnitude, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


@given(st.lists(signed(st.floats(min_value=1e-20, max_value=1e20)),
                min_size=1, max_size=300),
       st.floats(min_value=-1e3, max_value=1e3))
def test_summary_statistics_are_numpys_bit_for_bit(finals, offset):
    # finals of every magnitude, and near-identical ones around an offset
    # (where round-off can push a mean past the extremes)
    for sample in (finals, [offset + v * 1e-30 for v in finals]):
        records = [{"final_f": v, "evals": 17 * k + 3, "wall_time": v * 1e-3}
                   for k, v in enumerate(sample)]
        got = summarize(CampaignConfig(problem="F16"), records)
        arr = np.array(sample)
        best, worst = float(arr.min()), float(arr.max())
        want = (best, worst, min(max(float(arr.mean()), best), worst),
                float(arr.std()),
                float(np.mean([float(r["evals"]) for r in records])),
                float(np.mean([r["wall_time"] for r in records])))
        assert [v.hex() for v in (got.best, got.worst, got.mean, got.std,
                                  got.avg_evals, got.avg_wall_time)] == \
            [v.hex() for v in want]
    # signed zeros: numpy sums -0.0s to +0.0; best and worst stay Python's
    # min/max, whose tie-break between +0.0 and -0.0 numpy does not share
    for zeros in ([math.copysign(0.0, v) for v in finals], [-0.0] * len(finals)):
        got = summarize(CampaignConfig(problem="F16"),
                        [{"final_f": v, "evals": 1, "wall_time": 0.0} for v in zeros])
        arr = np.array(zeros)
        assert [got.mean.hex(), got.std.hex()] == \
            [float(arr.mean()).hex(), float(arr.std()).hex()]


# ---------------------------------------------------------------------------
# mate selection
# ---------------------------------------------------------------------------

values = st.lists(st.floats(min_value=-1e20, max_value=1e20), min_size=1, max_size=40)


@given(values)
def test_selection_probabilities_equal_the_numpy_version(vals):
    assert selection_probabilities(vals) == numpy_selection_probabilities(vals).tolist()


@given(values, st.integers(min_value=0, max_value=2**32))
def test_roulette_select_equals_the_numpy_version(vals, seed):
    probs = numpy_selection_probabilities(vals)
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        assert (roulette_select(selection_probabilities(vals), rng_a)
                == numpy_roulette_select(probs, rng_b))
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


class FixedRng:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_roulette_select_splits_at_numpys_cumulative_sums():
    # a uniform on a boundary, or one ulp to either side of it, shows
    # the order in which the probabilities were accumulated
    rng = np.random.default_rng(7)
    for n in range(2, 33):
        probs = selection_probabilities(rng.random(n).tolist())
        for edge in np.cumsum(probs):
            for u in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0)):
                assert (roulette_select(probs, FixedRng(float(u)))
                        == numpy_roulette_select(probs, FixedRng(float(u))))


def test_mating_on_colony_sized_homes():
    rng = np.random.default_rng(2026)
    for n in range(1, 33):
        for scale in (1e-12, 1.0, 1e9):
            vals = (rng.standard_normal(n) * scale).tolist()
            probs = selection_probabilities(vals)
            assert probs == numpy_selection_probabilities(vals).tolist()
            seed = int(rng.integers(2**32))
            assert (roulette_select(probs, np.random.default_rng(seed))
                    == numpy_roulette_select(probs, np.random.default_rng(seed)))


# ---------------------------------------------------------------------------
# candidate move
# ---------------------------------------------------------------------------

BOXES = [(-5.0, 5.0), (0.0, 1.0), (-1.0, 0.0), (0.0, 100.0)]


def colony_for(dim, lo, hi, rng):
    """Three homes of three snails, some on a bound, one on the best."""
    problem = BoundedProblem(name="box", dim=dim, lower=np.full(dim, lo),
                             upper=np.full(dim, hi), func=lambda x: 0.0)
    snails = []
    for i in range(9):
        x = lo + rng.random(dim) * (hi - lo)
        if i % 3 == 1:
            x[rng.random(dim) < 0.5] = rng.choice([lo, hi])
        snails.append(SnailState(x=x, f=float(i), f_hist=(i, i, i), home_id=i % 3))
    best = snails[0].x.copy()
    best[rng.random(dim) < 0.3] = rng.choice([lo, hi])   # bests near the edges
    snails[3].x = best.copy()                             # a snail on the best
    return problem, ColonyState(
        snails=snails,
        home_anchor=[Anchor(x=s.x.copy(), f=s.f) for s in snails[:3]],
        global_best=Anchor(x=best, f=-1.0),
        c=0.3 * problem.width,
        iteration=0,
        counter=EvalCounter(),
    )


def both_kernels(problem, colony, snail_index, cfg, seed):
    """Run each kernel on its own copy of the colony from the same stream."""
    col_a, col_b = copy.deepcopy(colony), copy.deepcopy(colony)
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    y = trail_following_update(col_a.snails[snail_index], col_a, problem, cfg, rng_a)
    s = col_b.snails[snail_index]
    y_list = _trail_floats(s, s.x.tolist(), col_b.global_best.x.tolist(),
                           problem.lower.tolist(), problem.upper.tolist(),
                           col_b, cfg, rng_b)
    assert all(type(v) is float for v in y_list)
    assert np.array(y_list).tobytes() == y.tobytes()          # bitwise, signed zeros too
    assert s.home_id == col_a.snails[snail_index].home_id
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    return y


@pytest.mark.parametrize("dim", range(1, FLOAT_MOVE_DIM + 3))
@pytest.mark.parametrize("switch_prob", [0.0, 0.5, 1.0])
def test_float_move_equals_the_numpy_move(dim, switch_prob):
    rng = np.random.default_rng(dim)
    cfg = ShmsConfig(homes=3, home_switch_prob=switch_prob)
    clipped = {"lower": 0, "upper": 0}
    for lo, hi in BOXES:
        problem, colony = colony_for(dim, lo, hi, rng)
        for i, snail in enumerate(colony.snails):
            for ld in (0.0, 1.0, float(rng.random())):
                snail.ld_norm = ld
                y = both_kernels(problem, colony, i, cfg, int(rng.integers(2**32)))
                clipped["lower"] += int(np.sum(y == lo))
                clipped["upper"] += int(np.sum(y == hi))
    # ld = 1 around a best on an edge overshoots both bounds
    assert clipped["lower"] > 0 and clipped["upper"] > 0


@pytest.mark.parametrize("lo, hi", [(-1.0, 0.0), (0.0, 1.0)])
def test_float_move_clips_signed_zeros_like_numpy(lo, hi):
    # -0.0 against a bound at 0.0 is the one tie where the clip's
    # comparison direction shows in the bits
    for seed in range(20):
        problem, colony = colony_for(3, lo, hi, np.random.default_rng(seed))
        colony.global_best.x[:] = -0.0
        for i, snail in enumerate(colony.snails):
            snail.x = np.where(np.arange(3) == 0, -0.0, snail.x)
            snail.ld_norm = 0.5
            both_kernels(problem, colony, i, ShmsConfig(homes=3, home_switch_prob=0.5), seed)
