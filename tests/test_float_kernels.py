"""The engine's Python-float code against the numpy code it replaces.

A home's mating pass (``_mate``) and the candidate move at low dimension
run on Python floats (see the ``snailopt.shms`` docstring).  These
properties check that they give the same bits as numpy and consume the
same random draws, which is what keeps the golden trajectories.  The two
move kernels draw nothing, so they are compared on the same inputs.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from snailopt.harness import CampaignConfig, summarize
from snailopt.objective import BoundedProblem
from snailopt.shms import (FLOAT_MOVE_DIM, SnailState, _mate, _trail_array,
                           _trail_floats, selection_probabilities)
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


def home(values):
    """Snails at ``values`` with regular histories (``f0 - f1 = d`` and
    ``f0 - f2 = 2d`` for a ``d >= |f0|``), so a home's one draw is the
    roulette's."""
    return [SnailState(x=np.zeros(1), f=v, f_hist=(v, v - d, v - 2 * d), home_id=0)
            for v in values for d in [max(1.0, abs(v))]]


@given(values, st.integers(min_value=0, max_value=2**32))
def test_roulette_select_equals_the_numpy_version(vals, seed):
    probs = numpy_selection_probabilities(vals)
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        assert _mate(home(vals), rng_a)[0] == numpy_roulette_select(probs, rng_b)
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
        vals = rng.random(n).tolist()
        probs = selection_probabilities(vals)
        for edge in np.cumsum(probs):
            for u in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0)):
                assert (_mate(home(vals), FixedRng(float(u)))[0]
                        == numpy_roulette_select(probs, FixedRng(float(u))))


def test_mating_on_colony_sized_homes():
    rng = np.random.default_rng(2026)
    for n in range(1, 33):
        for scale in (1e-12, 1.0, 1e9):
            vals = (rng.standard_normal(n) * scale).tolist()
            probs = selection_probabilities(vals)
            assert probs == numpy_selection_probabilities(vals).tolist()
            seed = int(rng.integers(2**32))
            assert (_mate(home(vals), np.random.default_rng(seed))[0]
                    == numpy_roulette_select(probs, np.random.default_rng(seed)))


# ---------------------------------------------------------------------------
# candidate move
# ---------------------------------------------------------------------------

BOXES = [(-5.0, 5.0), (0.0, 1.0), (-1.0, 0.0), (0.0, 100.0)]


def move_inputs(dim, lo, hi, edge, rng):
    """A box, a best and nine positions: some on a bound, one on the best,
    one on the best but for coordinate 0.  The best has coordinate 0, and
    some others, on ``edge``, or lies inside the box when it is None."""
    problem = BoundedProblem(name="box", dim=dim, lower=np.full(dim, lo),
                             upper=np.full(dim, hi), func=lambda x: 0.0)
    xs = []
    for i in range(9):
        x = lo + rng.random(dim) * (hi - lo)
        if i % 3 == 1:
            x[rng.random(dim) < 0.5] = rng.choice([lo, hi])
        xs.append(x)
    best = xs[0].copy()
    if edge is not None:
        best[0] = edge
        best[rng.random(dim) < 0.3] = edge
    xs[3] = best.copy()                                   # a snail on the best
    xs[5] = best.copy()
    xs[5][0] = lo + (hi - lo) * float(rng.random())
    return problem, xs, best


def both_kernels(x, best, ld, r, problem, redraw):
    """Run the two kernels on the same inputs: the same bytes (signed
    zeros too), or ``None`` from both; neither writes its inputs."""
    before = [a.tobytes() for a in (x, best, r)]
    y = _trail_array(x, best, ld, r, problem, redraw)
    y_floats = _trail_floats(x, best, ld, r, problem, redraw)
    assert [a.tobytes() for a in (x, best, r)] == before
    if y is None:
        assert y_floats is None
    else:
        assert y_floats is not None and y_floats.tobytes() == y.tobytes()
        assert y is not x and y is not best
    return y


@pytest.mark.parametrize("dim", range(1, FLOAT_MOVE_DIM + 3))
@pytest.mark.parametrize("switch_prob", [0.0, 0.5, 1.0])
def test_float_move_equals_the_numpy_move(dim, switch_prob):
    # switch_prob is the share of moves that carry an emigrant's redraw
    rng = np.random.default_rng(dim)
    seen = dict.fromkeys(["past lower", "past upper", "None, snail on the best",
                          "None, trail to the best", "None, emigrant back at x",
                          "emigrant kept at the best"], 0)
    for lo, hi, edge in [(lo, hi, edge) for lo, hi in BOXES for edge in (lo, hi, None)]:
        problem, xs, best = move_inputs(dim, lo, hi, edge, rng)
        for i, x in enumerate(xs):
            d = 0 if i == 5 else int(rng.integers(dim))
            # redraws in the box, past either bound, on a bound, and on
            # the best's or the snail's own coordinate
            span = (hi - lo) * float(rng.random())
            values = (lo + span, lo - span, hi + span, lo, hi, float(best[d]), float(x[d]))
            for ld in (0.0, 1.0, float(rng.random())):
                for v in values:
                    redraw = (d, v) if rng.random() < switch_prob else None
                    r = rng.random(dim + 1)
                    trail = np.abs(x - best) * ld * (2.0 * r[1:] - 1.0) + best
                    seen["past lower"] += int(np.sum(trail < lo))
                    seen["past upper"] += int(np.sum(trail > hi))
                    y = both_kernels(x, best, ld, r, problem, redraw)
                    if y is None:
                        seen["None, snail on the best" if np.array_equal(x, best) else
                             "None, trail to the best" if redraw is None else
                             "None, emigrant back at x"] += 1
                    else:
                        seen["emigrant kept at the best"] += np.array_equal(y, best)
    # ld = 1 around a best on an edge overshoots that bound, and every
    # discard rule, and the emigrant's exemption from one, is reached
    unreachable = {0.0: {"None, emigrant back at x", "emigrant kept at the best"},
                   1.0: {"None, trail to the best"}}.get(switch_prob, set())
    assert {k for k, n in seen.items() if n} == set(seen) - unreachable, seen


@pytest.mark.parametrize("lo, hi", [(-1.0, 0.0), (0.0, 1.0)])
def test_float_move_clips_signed_zeros_like_numpy(lo, hi):
    # -0.0 against a bound at 0.0 is the one tie where the clip's
    # comparison direction shows in the bits
    for seed in range(20):
        rng = np.random.default_rng(seed)
        problem, xs, best = move_inputs(3, lo, hi, None, rng)
        best[:] = -0.0
        for x in xs:
            x = np.where(np.arange(3) == 0, -0.0, x)
            for redraw in (None, (0, -0.0), (1, 0.0)):
                both_kernels(x, best, 0.5, rng.random(4), problem, redraw)
