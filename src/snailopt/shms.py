"""Snail homing and mating search (SHMS): a colony-based metaheuristic.

The population is organised into a small number of *homes*.  Each home
holds a group of snails.  One iteration applies, home by home:

1. every snail computes a *fecundity index* from its last three
   objective values (a normalized recent-improvement ratio, replaced by
   a uniform random draw whenever the ratio is degenerate);
2. a *fecund snail* is chosen by roulette selection with probability
   inversely proportional to objective value (minimization: better
   snails are more attractive mates);
3. every other snail computes a *love dart* value against the fecund
   snail, which is min-max normalized within the home to [0, 1];
4. each snail then follows the strongest mucus trail in the colony —
   the one leading to the best position found so far: per coordinate it
   resamples uniformly inside an interval centred on the best-known
   position whose half-width is the normalized love dart times the
   coordinate distance separating the snail from that position.  With a
   small probability the snail instead emigrates: it joins another
   home, and one randomly chosen coordinate of its candidate is redrawn
   inside the new home's fixed neighbourhood (a coarse probe that keeps
   single coordinates exploring long after the cloud has tightened).

Trail-following moves are accepted elitistically (a snail keeps its new
position only if it does not get worse); emigration moves are always
accepted — the snail changed homes, not necessarily fortunes — which
keeps the population spread out instead of piling onto one point.  The
fecund snail itself stays put for the iteration (it is the trail
source, not a follower).

Homes keep an *anchor* — the best position/value associated with the
home so far — refreshed after every iteration but never allowed to
regress.  Search stops on an evaluation budget or when the global best
has stopped improving.

All randomness flows through a single ``numpy.random.Generator`` seeded
from the config, so runs are bit-reproducible.

A home's mating (steps 1-3) is one pass on Python floats, :func:`_mate`.
The move is one function, :func:`trail_following_update`; its
arithmetic runs on Python floats up to ``FLOAT_MOVE_DIM`` dimensions
(every fixed-dimension function and exchanger case; numpy wins from d
of about 15-20) and on arrays above.  Both repeat numpy's operations in
numpy's order: the same bits.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from ._numpy import np
from .objective import BoundedProblem, EvalCounter, evaluate
from .stats import _pairwise_sum

__all__ = [
    "LARGE_LD",
    "Anchor",
    "ColonyState",
    "RunRecord",
    "ShmsConfig",
    "SnailState",
    "init_colony",
    "run",
    "selection_probabilities",
    "step",
    "trail_following_update",
]

#: love-dart saturation threshold: a raw value this large normalizes to 1.0
LARGE_LD = 1e30

# denominators at or below this magnitude are treated as degenerate
_EPS_DEN = 1e-30

#: largest dimension whose candidate moves run on Python floats
FLOAT_MOVE_DIM = 12


@dataclass(frozen=True)
class ShmsConfig:
    """Tuning knobs for one SHMS run.

    Parameters
    ----------
    homes : int
        Number of homes H (>= 1).
    snails_per_home : int
        Snails initially placed in each home S (>= 2).
    neighborhood_fraction : float
        Fraction of each box edge used as the home neighbourhood
        half-width ``c`` (fixed at initialization and reused when a
        snail resettles at another home).
    home_switch_prob : float
        Per-snail, per-iteration probability of abandoning the current
        home and resettling near another home's anchor.
    max_evals : int
        Objective evaluation budget (>= homes * snails_per_home).
    stagnation_window : int
        Stop when the global best improves by less than
        ``stagnation_tol`` over this many iterations.
    stagnation_tol : float
        Minimum improvement considered progress.
    seed : int
        Seed for the run's random stream (>= 0).
    """

    homes: int = 3
    snails_per_home: int = 10
    neighborhood_fraction: float = 0.1
    home_switch_prob: float = 0.1
    max_evals: int = 30_000
    stagnation_window: int = 200
    stagnation_tol: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if self.homes < 1:
            raise ValueError("homes must be >= 1")
        if self.snails_per_home < 2:
            raise ValueError("snails_per_home must be >= 2")
        if not (0.0 < self.neighborhood_fraction < math.inf):
            raise ValueError("neighborhood_fraction must be positive and finite")
        if not (0.0 <= self.home_switch_prob <= 1.0):
            raise ValueError("home_switch_prob must be in [0, 1]")
        if self.max_evals < self.homes * self.snails_per_home:
            raise ValueError("max_evals must cover at least the initial population")
        if self.stagnation_window < 1:
            raise ValueError("stagnation_window must be >= 1")
        if not (0.0 <= self.stagnation_tol < math.inf):
            raise ValueError("stagnation_tol must be >= 0 and finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class SnailState:
    """One snail: position, value, short history and mating bookkeeping.

    ``f_hist`` holds the objective at the current position followed by
    the values at the end of the two previous iterations (backfilled
    with the initial value right after initialization).

    Positions are replaced, never mutated: a move assigns a fresh array
    to ``x``, so an array once held by a snail (or an :class:`Anchor`)
    keeps its values.  Observers may keep references instead of copies.
    """

    x: np.ndarray
    f: float
    f_hist: tuple[float, float, float]
    home_id: int
    ld_norm: float = 0.0


@dataclass
class Anchor:
    """A remembered best position/value (per home, or global)."""

    x: np.ndarray
    f: float


@dataclass
class ColonyState:
    """Full mutable state of a search in progress."""

    snails: list[SnailState]
    home_anchor: list[Anchor]
    global_best: Anchor
    c: np.ndarray  # per-coordinate neighbourhood half-width, fixed at init
    iteration: int
    counter: EvalCounter

    def members(self, home_id: int) -> list[SnailState]:
        """Snails currently assigned to ``home_id``, in stable order."""
        return [s for s in self.snails if s.home_id == home_id]


@dataclass
class RunRecord:
    """Immutable summary of one completed run.

    The fields are in the order of the trial record's keys.
    ``best_trace[0]`` is the best value right after initialization (the
    colony's first assessment) and each subsequent entry is the best
    after one more iteration, so the final objective always equals the
    last trace entry even when the budget allows no iterations at all.
    """

    seed: int
    max_evals: int
    final_f: float
    final_x: np.ndarray
    evals: int
    wall_time: float
    best_trace: list[float]


# ---------------------------------------------------------------------------
# mating
# ---------------------------------------------------------------------------

def selection_probabilities(values) -> list[float]:
    """Mate-selection probabilities, inversely proportional to objective.

    The weights are ``1 / g_s`` where ``g_s`` is the objective shifted
    so the smallest value is a tiny positive epsilon away from zero:
    ``g = f - min(min(f), 0) + 1e-12 * (1 + |min(f)|)``.  For strictly
    positive inputs this reproduces the plain rule ``P_s ∝ 1/f_s`` up
    to the epsilon; for zero or negative inputs (where inverse
    proportionality is undefined) the shift keeps every weight finite
    and positive.  Either way the ordering is preserved: lower
    objective, strictly higher probability.
    """
    try:
        f = [float(v) for v in values]
        m = min(f)
    except (TypeError, ValueError):
        raise ValueError("values must be a non-empty 1-D sequence of numbers") from None
    shift, eps = min(m, 0.0), 1e-12 * (1.0 + abs(m))
    w = [1.0 / (v - shift + eps) for v in f]
    total = _pairwise_sum(w)
    return [v / total for v in w]


def _mate(members: list[SnailState], rng: np.random.Generator) -> tuple[int, list[float]]:
    """One home's mating: the fecund snail's index in ``members`` and, in
    member order, the other members' normalized love darts.

    A snail's fecundity index ``I`` is its recent-improvement ratio
    ``|f0-f1| / |f0-f2|`` over ``f_hist``, or a uniform [0, 1) draw where
    that ratio is degenerate (zero numerator, vanishing denominator or a
    non-finite quotient), which keeps mating alive on plateaus and in the
    first iterations.  One more uniform picks the fecund snail by
    cumulative-sum inversion of :func:`selection_probabilities`.  So the
    draws come in member order, the fecund snail's included, then the
    roulette's.

    Every other snail's love dart is ``1 / (I * (f_s - f_fecund))``.  A tie
    with the fecund snail, or a dart of magnitude ``LARGE_LD`` or more (an
    infinite one included), saturates to 1.0; the others are min-max
    normalized among themselves, all to 0.5 when their range is degenerate.
    """
    fecundity = []
    for s in members:
        f0, f1, f2 = s.f_hist
        den = abs(f0 - f2)
        q = abs(f0 - f1) / den if den > _EPS_DEN else 0.0
        fecundity.append(q if q != 0.0 and math.isfinite(q) else rng.random())
    cum = list(accumulate(selection_probabilities([s.f for s in members])))
    k = min(bisect_right(cum, rng.random()), len(cum) - 1)
    f_k, darts = members[k].f, []
    for j, (s, fi) in enumerate(zip(members, fecundity)):
        if j != k:
            gap = s.f - f_k
            p = fi * gap  # 0.0 when fi is 0.0 or the product underflows: an infinite dart
            darts.append(1.0 / p if p and abs(gap) > _EPS_DEN else math.inf)
    kept = [r for r in darts if abs(r) < LARGE_LD]
    lo, hi = min(kept, default=0.0), max(kept, default=0.0)
    span = hi - lo
    return k, [1.0 if abs(r) >= LARGE_LD else (r - lo) / span if span > _EPS_DEN
               else 0.5 for r in darts]


# ---------------------------------------------------------------------------
# colony lifecycle
# ---------------------------------------------------------------------------

def init_colony(problem: BoundedProblem, cfg: ShmsConfig,
                rng: np.random.Generator) -> ColonyState:
    """Draw homes and snails, evaluate everyone once.

    Home anchor positions are drawn uniformly in the box; each home's
    snails are drawn uniformly in the cube of half-width ``c`` around
    the anchor (clamped to the box).  Exactly ``homes *
    snails_per_home`` evaluations are spent.  Right after
    initialization an anchor's position is its drawn centre while its
    value is the best objective among the home's snails; from the first
    iteration on, anchors track the best position a home has held.
    """
    dim = problem.dim
    c = cfg.neighborhood_fraction * problem.width
    counter = EvalCounter()
    snails: list[SnailState] = []
    anchors: list[Anchor] = []
    for h in range(cfg.homes):
        centre = problem.lower + rng.random(dim) * problem.width
        home_best = math.inf
        for _ in range(cfg.snails_per_home):
            x = np.clip(centre + c * (2.0 * rng.random(dim) - 1.0),
                        problem.lower, problem.upper)
            f = evaluate(problem, x, counter)
            snails.append(SnailState(x=x, f=f, f_hist=(f, f, f), home_id=h))
            home_best = min(home_best, f)
        anchors.append(Anchor(x=centre, f=home_best))
    best = min(snails, key=lambda s: s.f)
    return ColonyState(
        snails=snails,
        home_anchor=anchors,
        global_best=Anchor(x=best.x.copy(), f=best.f),
        c=c,
        iteration=0,
        counter=counter,
    )


def trail_following_update(snail: SnailState, colony: ColonyState,
                           problem: BoundedProblem, cfg: ShmsConfig,
                           rng: np.random.Generator) -> np.ndarray | None:
    """Draw one candidate position for ``snail`` (clamped to the box).

    The snail follows the strongest trail in the colony — the one laid
    down at the best position found so far.  Per coordinate it samples
    uniformly in the interval centred on that position with half-width
    ``ld_norm * |x_s - x_best|``, so ``ld_norm = 0`` (or a snail
    already sitting on the best position) reproduces the best position
    exactly, while ``ld_norm = 1`` explores the whole box spanned
    between the snail and the best.  The home's fecund snail set the
    trail-following intensity through ``ld_norm``; by construction it
    rests on (or near) the best position its home knows about.

    With probability ``home_switch_prob`` the snail instead emigrates:
    it is reassigned to a uniformly chosen *other* home and one
    randomly chosen coordinate of the candidate is redrawn uniformly in
    the new home's fixed neighbourhood ``anchor[d] ± c[d]``.  The
    membership change persists even if the position is later discarded
    — the snail changed homes, not necessarily fortunes.  Callers can
    detect emigration by comparing ``snail.home_id`` before and after.

    Returns ``None`` when the candidate needs no evaluation: it equals
    the snail's position, or, for a snail that did not emigrate, the
    best position (already evaluated).  Otherwise the candidate is a
    fresh array; neither ``snail.x`` nor the best position is touched.
    """
    # one draw for the switch uniform and the dim trail uniforms: PCG64
    # yields the same doubles as a scalar draw followed by a vector draw
    r = rng.random(problem.dim + 1)
    switch = r[0] < cfg.home_switch_prob and cfg.homes > 1
    if not switch and snail.ld_norm == 0.0:
        return None  # a zero half-width reproduces the best position
    redraw = _emigrate(snail, colony, cfg, rng) if switch else None
    kernel = _trail_floats if problem.dim <= FLOAT_MOVE_DIM else _trail_array
    return kernel(snail.x, colony.global_best.x, snail.ld_norm, r, problem, redraw)


def _emigrate(snail: SnailState, colony: ColonyState, cfg: ShmsConfig,
              rng: np.random.Generator) -> tuple[int, float]:
    """Move ``snail`` to another home; return a coordinate and its redraw there."""
    k = int(rng.integers(cfg.homes - 1))
    if k >= snail.home_id:
        k += 1
    snail.home_id = k
    d = int(rng.integers(colony.c.size))
    return d, float(colony.home_anchor[k].x[d] + colony.c[d] * (2.0 * rng.random() - 1.0))


def _trail_array(x: np.ndarray, best: np.ndarray, ld: float, r: np.ndarray,
                 problem: BoundedProblem, redraw: tuple | None) -> np.ndarray | None:
    """The move's arithmetic from the uniforms ``r[1:]``, the emigrant's
    ``(d, value)`` set before the clip; writes none of its arguments."""
    u = r[1:] * 2.0
    u -= 1.0
    y = np.subtract(x, best)
    np.abs(y, out=y)
    y *= ld
    y *= u
    y += best
    if redraw is not None:
        d, y[d] = redraw
    # maximum-then-minimum is what np.clip computes, without its wrapper
    np.maximum(y, problem.lower, out=y)
    np.minimum(y, problem.upper, out=y)
    # count_nonzero of != is np.array_equal at half the call overhead
    if not np.count_nonzero(y != x) or (redraw is None and not np.count_nonzero(y != best)):
        return None
    return y


def _trail_floats(x: np.ndarray, best: np.ndarray, ld: float, r: np.ndarray,
                  problem: BoundedProblem, redraw: tuple | None) -> np.ndarray | None:
    """:func:`_trail_array` on lists of floats, in numpy's order: the same bits.
    Like np.maximum/np.minimum, the clip keeps the bound on a tie."""
    x, best = x.tolist(), best.tolist()
    lower, upper = problem.bound_lists
    # one pass: the trail draw, then the clip (maximum, then minimum)
    y = [(v if v < hi else hi) if (v := abs(a - b) * ld * (2.0 * u - 1.0) + b) > lo else lo
         for a, b, u, lo, hi in zip(x, best, r.tolist()[1:], lower, upper)]
    if redraw is not None:
        d, v = redraw
        y[d] = (v if v < upper[d] else upper[d]) if v > lower[d] else lower[d]
    if y == x or (redraw is None and y == best):
        return None
    return np.array(y)


def step(colony: ColonyState, problem: BoundedProblem, cfg: ShmsConfig,
         rng: np.random.Generator) -> None:
    """Advance the colony by one iteration (budget-safe, in place).

    Homes are processed in id order and their members in stable snail
    order, so a run is fully determined by the seed.  Per home: mate
    (:func:`_mate` picks the fecund snail and the others' love darts),
    then move every snail except the fecund one
    (:func:`trail_following_update`, whose ``None`` skips the
    evaluation).  Emigration moves are always accepted; trail-following
    moves only if they do not get worse.

    The evaluation budget is checked before each home's mating and
    before every move: once it is spent the iteration stops, leaving
    already-accepted moves in place.  A home's members are gathered at
    its turn, so snails that emigrated from an earlier home this
    iteration mate and move again there.
    """
    for h in range(cfg.homes):
        if colony.counter.count >= cfg.max_evals:
            break
        # never empty: init_colony gives every home >= 2 snails, and a
        # home's snails leave only in its own turn, never the fecund one
        members = colony.members(h)
        k, darts = _mate(members, rng)
        del members[k]
        for s, ld in zip(members, darts):
            if colony.counter.count >= cfg.max_evals:
                break
            s.ld_norm = ld
            home_before = s.home_id
            y = trail_following_update(s, colony, problem, cfg, rng)
            if y is None:
                continue
            fy = evaluate(problem, y, colony.counter)
            if s.home_id != home_before or fy <= s.f:
                s.x = y
                s.f = fy
                if fy <= colony.global_best.f:
                    # positions are replaced, never mutated: y can be shared
                    colony.global_best = Anchor(x=y, f=fy)

    # one pass: histories shift, each home's first lowest snail is found
    home_best: dict[int, SnailState] = {}
    for s in colony.snails:
        s.f_hist = (s.f, s.f_hist[0], s.f_hist[1])
        if s.f < home_best.setdefault(s.home_id, s).f:
            home_best[s.home_id] = s
    for h, b in home_best.items():
        if b.f <= colony.home_anchor[h].f:
            colony.home_anchor[h] = Anchor(x=b.x, f=b.f)  # shared, like y
    colony.iteration += 1


def run(problem: BoundedProblem, cfg: ShmsConfig, observer=None) -> RunRecord:
    """Run SHMS on ``problem`` until the budget or stagnation stops it.

    Parameters
    ----------
    problem : BoundedProblem
    cfg : ShmsConfig
    observer : callable, optional
        Called as ``observer(colony)`` with the same colony object after
        initialization and after every iteration; nothing changes it
        after the last call.  Must not consume the run's random stream
        or mutate the colony; intended for trace/scatter exporters.

    Returns
    -------
    RunRecord
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    colony = init_colony(problem, cfg, rng)
    trace, w = [], cfg.stagnation_window
    while True:
        trace.append(colony.global_best.f)
        if observer is not None:
            observer(colony)
        if colony.counter.count >= cfg.max_evals or (
                len(trace) > w and trace[-1 - w] - trace[-1] < cfg.stagnation_tol):
            break
        step(colony, problem, cfg, rng)
    return RunRecord(
        seed=cfg.seed,
        max_evals=cfg.max_evals,
        final_f=colony.global_best.f,
        final_x=colony.global_best.x.copy(),
        evals=colony.counter.count,
        wall_time=time.perf_counter() - t0,
        best_trace=trace,
    )
