"""Classic continuous test functions (F1-F23) with a machine-readable catalog.

The suite is the standard 23-function set used throughout the
metaheuristics literature: seven unimodal functions (F1-F7), six
scalable multimodal functions (F8-F13) and ten fixed-dimension
multimodal functions (F14-F23); F1, F4, F6, F7, F8 and F9 are
separable.  Each entry records its search box, its global minimum
value and a minimizer, so tests can verify the implementations
directly against the catalog.

Notes on the catalog values
---------------------------
* For functions whose optimum is a closed form (origin / all-ones /
  known per-coordinate root), ``f_min`` is exact.
* For the fixed-dimension functions the catalog stores numerically
  polished minimizers and the value each evaluates to.  Rounded
  textbook values such as -10.5363 for Shekel-10 agree with these to
  the printed precision.
* ``tests/test_benchmarks.py::test_catalog_minimizer_reproduces_minimum``
  checks every entry: ``f(x_min)`` is ``f_min`` within 4 ulp at each
  dimension it runs at, and no one-coordinate step of 1 to 4,096 ulp
  and no small random nudge evaluates below ``f_min`` by more than
  round-off (4 ulp; 256 for Goldstein-Price, whose computed value dips
  176 ulp below its minimum of 3 near (0, -1)).
* F7 (Quartic) adds uniform [0,1) observation noise per evaluation.
  The noise stream is supplied by the caller; without one the function
  is deterministic (noise term zero), which is the variant used by
  exactness tests.
* F2's product term overflows double precision in very high dimension
  near the box corners; it is capped at 1e300 so the objective stays
  finite everywhere inside the box (comparison data in the literature
  caps at the same magnitude).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from ._numpy import np
from .objective import BoundedProblem
from .stats import _pairwise_sum

__all__ = [
    "BenchmarkSpec",
    "CATALOG",
    "known_optimum",
    "make_benchmark",
]

CANONICAL_DIMS = (30, 100, 500, 1000)

_PROD_CAP = 1e300


# ---------------------------------------------------------------------------
# function definitions (each maps a (dim,) float array to a scalar)
# ---------------------------------------------------------------------------

def _sphere(x):
    return float(np.dot(x, x))


def _schwefel_2_22(x):
    a = np.abs(x)
    with np.errstate(over="ignore"):
        prod = float(np.prod(a))
    if not math.isfinite(prod) or prod > _PROD_CAP:
        prod = _PROD_CAP
    return float(np.sum(a)) + prod


def _schwefel_1_2(x):
    c = np.cumsum(x)
    return float(np.dot(c, c))


def _schwefel_2_21(x):
    return float(np.max(np.abs(x)))


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (x[:-1] - 1.0) ** 2))


def _step(x):
    f = np.floor(x + 0.5)
    return float(np.dot(f, f))


def _quartic_core(x):
    i = np.arange(1, x.size + 1)
    return float(np.sum(i * x ** 4))


def _schwefel(x):
    return float(-np.sum(x * np.sin(np.sqrt(np.abs(x)))))


def _rastrigin(x):
    return float(np.sum(x ** 2 - 10.0 * np.cos(2.0 * np.pi * x) + 10.0))


def _ackley(x):
    n = x.size
    s1 = np.dot(x, x) / n
    s2 = np.sum(np.cos(2.0 * np.pi * x)) / n
    return float(-20.0 * np.exp(-0.2 * np.sqrt(s1)) - np.exp(s2) + 20.0 + np.e)


def _griewank(x):
    i = np.arange(1, x.size + 1)
    return float(np.sum(x ** 2) / 4000.0 - np.prod(np.cos(x / np.sqrt(i))) + 1.0)


def _u_penalty(x, a, k, m):
    out = np.zeros_like(x)
    hi = x > a
    lo = x < -a
    out[hi] = k * (x[hi] - a) ** m
    out[lo] = k * (-x[lo] - a) ** m
    return out


def _penalized(x):
    n = x.size
    y = 1.0 + (x + 1.0) / 4.0
    term = (10.0 * np.sin(np.pi * y[0]) ** 2
            + np.sum((y[:-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * y[1:]) ** 2))
            + (y[-1] - 1.0) ** 2)
    return float(np.pi / n * term + np.sum(_u_penalty(x, 10.0, 100.0, 4.0)))


def _penalized2(x):
    term = (np.sin(3.0 * np.pi * x[0]) ** 2
            + np.sum((x[:-1] - 1.0) ** 2 * (1.0 + np.sin(3.0 * np.pi * x[1:]) ** 2))
            + (x[-1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * x[-1]) ** 2))
    return float(0.1 * term + np.sum(_u_penalty(x, 5.0, 100.0, 4.0)))


# The fixed-dimension functions below take their constant tables, as
# lists, before ``x``; make_benchmark binds them.  F15-F23 compute on
# ``x.tolist()`` and repeat the numpy formulation's operations in its
# order, so their values are numpy's bit for bit: an array's ``** 2`` is
# ``t * t`` while a scalar's is ``pow`` (Python's ``**``), a reduction of
# up to seven terms adds left to right, a longer one goes through
# ``_pairwise_sum``, and the builtin ``sum`` (compensated from Python
# 3.12) is never used.  F14 stays on numpy (libm ``pow`` is not numpy's
# array ``power``), and so does Hartman's ``exp`` (``math.exp`` is not
# numpy's SIMD ``exp``).
_FOX_GRID = [-32.0, -16.0, 0.0, 16.0, 32.0]
_FOX = ([float(j) for j in range(1, 26)], _FOX_GRID * 5,
        [g for g in _FOX_GRID for _ in range(5)])


def _foxholes(j, a1, a2, x):
    """Takes its tables as arrays (see make_benchmark)."""
    denom = j + (x[0] - a1) ** 6 + (x[1] - a2) ** 6
    return float(1.0 / (1.0 / 500.0 + np.sum(1.0 / denom)))


_KOWALIK_B = [1.0 / v for v in (0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0)]
_KOWALIK = ([0.1957, 0.1947, 0.1735, 0.16, 0.0844, 0.0627,
             0.0456, 0.0342, 0.0323, 0.0235, 0.0246],
            _KOWALIK_B, [b * b for b in _KOWALIK_B])


def _kowalik(a, b, bb, x):
    x0, x1, x2, x3 = x.tolist()
    terms = []
    for ai, bi, bbi in zip(a, b, bb):
        num = x0 * (bbi + bi * x1)
        den = bbi + bi * x2 + x3
        if den:
            t = ai - num / den
            terms.append(t * t)
        else:  # numpy's num / 0 is +-inf, and 0 / 0 is nan
            terms.append(math.inf if num else math.nan)
    return _pairwise_sum(terms)


def _camel6(x):
    x1, x2 = x.tolist()
    return ((4.0 - 2.1 * x1 ** 2 + x1 ** 4 / 3.0) * x1 ** 2
            + x1 * x2 + (-4.0 + 4.0 * x2 ** 2) * x2 ** 2)


def _branin(x):
    x1, x2 = x.tolist()
    return ((x2 - 5.1 * x1 ** 2 / (4.0 * math.pi ** 2) + 5.0 * x1 / math.pi - 6.0) ** 2
            + 10.0 * (1.0 - 1.0 / (8.0 * math.pi)) * math.cos(x1) + 10.0)


def _goldstein_price(x):
    x1, x2 = x.tolist()
    a = 1.0 + (x1 + x2 + 1.0) ** 2 * (19.0 - 14.0 * x1 + 3.0 * x1 ** 2
                                      - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * x2 ** 2)
    b = 30.0 + (2.0 * x1 - 3.0 * x2) ** 2 * (18.0 - 32.0 * x1 + 12.0 * x1 ** 2
                                             + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * x2 ** 2)
    return a * b


_H_C = [1.0, 1.2, 3.0, 3.2]
_H3 = ([[3.0, 10.0, 30.0],
        [0.1, 10.0, 35.0],
        [3.0, 10.0, 30.0],
        [0.1, 10.0, 35.0]],
       [[1e-4 * v for v in row] for row in ([3689.0, 1170.0, 2673.0],
                                            [4699.0, 4387.0, 7470.0],
                                            [1091.0, 8732.0, 5547.0],
                                            [381.0, 5743.0, 8828.0])],
       _H_C)
_H6 = ([[10.0, 3.0, 17.0, 3.5, 1.7, 8.0],
        [0.05, 10.0, 17.0, 0.1, 8.0, 14.0],
        [3.0, 3.5, 1.7, 10.0, 17.0, 8.0],
        [17.0, 8.0, 0.05, 10.0, 0.1, 14.0]],
       [[1e-4 * v for v in row] for row in ([1312.0, 1696.0, 5569.0, 124.0, 8283.0, 5886.0],
                                            [2329.0, 4135.0, 8307.0, 3736.0, 1004.0, 9991.0],
                                            [2348.0, 1451.0, 3522.0, 2883.0, 3047.0, 6650.0],
                                            [4047.0, 8828.0, 8732.0, 5743.0, 1091.0, 381.0])],
       _H_C)


def _hartman(a, p, c, x):
    x = x.tolist()
    exponents = []
    for ai, pi in zip(a, p):
        s = 0.0
        for aij, pij, xj in zip(ai, pi, x):
            t = xj - pij
            s += aij * (t * t)
        exponents.append(-s)
    s = 0.0
    for ci, e in zip(c, np.exp(exponents).tolist()):
        s += ci * e
    return -s


_SHEKEL_A = [[4.0, 4.0, 4.0, 4.0],
             [1.0, 1.0, 1.0, 1.0],
             [8.0, 8.0, 8.0, 8.0],
             [6.0, 6.0, 6.0, 6.0],
             [3.0, 7.0, 3.0, 7.0],
             [2.0, 9.0, 2.0, 9.0],
             [5.0, 5.0, 3.0, 3.0],
             [8.0, 1.0, 8.0, 1.0],
             [6.0, 2.0, 6.0, 2.0],
             [7.0, 3.6, 7.0, 3.6]]
_SHEKEL_C = [0.1, 0.2, 0.2, 0.4, 0.4, 0.6, 0.3, 0.7, 0.5, 0.5]


def _shekel(a, c, x):
    x0, x1, x2, x3 = x.tolist()
    terms = []
    for (a0, a1, a2, a3), ci in zip(a, c):
        d0, d1, d2, d3 = a0 - x0, a1 - x1, a2 - x2, a3 - x3
        terms.append(1.0 / (d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3 + ci))
    return -_pairwise_sum(terms)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkSpec:
    """Static description of one test function.

    ``x_min`` is one global minimizer (several functions have more by
    symmetry): for scalable functions a per-coordinate value broadcast
    to the requested dimension, for fixed-dimension functions the full
    vector.  ``f_min_per_dim`` marks minima that scale linearly with
    the dimension (only F8).  ``func`` takes the ``tables`` before
    ``x``; :func:`make_benchmark` binds them.
    """

    fid: str
    name: str
    fixed_dim: int | None  # None => scalable (any dim >= 2)
    lower: float
    upper: float
    f_min: float
    x_min: float | tuple  # scalable: broadcast coordinate; fixed-dim: vector
    func: Callable[..., float]
    f_min_per_dim: bool = False
    tables: tuple = ()


CATALOG: dict[str, BenchmarkSpec] = {s.fid: s for s in [
    BenchmarkSpec("F1", "Sphere", None, -100.0, 100.0, 0.0, 0.0, _sphere),
    BenchmarkSpec("F2", "Schwefel 2.22", None, -10.0, 10.0, 0.0, 0.0, _schwefel_2_22),
    BenchmarkSpec("F3", "Schwefel 1.2", None, -100.0, 100.0, 0.0, 0.0, _schwefel_1_2),
    BenchmarkSpec("F4", "Schwefel 2.21", None, -100.0, 100.0, 0.0, 0.0, _schwefel_2_21),
    BenchmarkSpec("F5", "Rosenbrock", None, -30.0, 30.0, 0.0, 1.0, _rosenbrock),
    BenchmarkSpec("F6", "Step", None, -100.0, 100.0, 0.0, 0.0, _step),
    # Quartic's customary box is [-1.28, 1.28]; see module docstring for noise.
    BenchmarkSpec("F7", "Quartic", None, -1.28, 1.28, 0.0, 0.0, _quartic_core),
    BenchmarkSpec("F8", "Schwefel", None, -500.0, 500.0, -418.9828872724336,
                  420.9687474737558, _schwefel, f_min_per_dim=True),
    BenchmarkSpec("F9", "Rastrigin", None, -5.12, 5.12, 0.0, 0.0, _rastrigin),
    BenchmarkSpec("F10", "Ackley", None, -32.0, 32.0, 0.0, 0.0, _ackley),
    BenchmarkSpec("F11", "Griewank", None, -600.0, 600.0, 0.0, 0.0, _griewank),
    BenchmarkSpec("F12", "Penalized", None, -50.0, 50.0, 0.0, -1.0, _penalized),
    BenchmarkSpec("F13", "Penalized 2", None, -50.0, 50.0, 0.0, 1.0, _penalized2),
    BenchmarkSpec("F14", "Foxholes", 2, -65.0, 65.0, 0.9980038377944498,
                  (-31.97833357139726, -31.978336789414364), _foxholes, tables=_FOX),
    BenchmarkSpec("F15", "Kowalik", 4, -5.0, 5.0, 3.074859878056051e-04,
                  (0.19283345304274813, 0.19083624027597035,
                   0.12311729907598003, 0.13576599033984466), _kowalik, tables=_KOWALIK),
    BenchmarkSpec("F16", "Six-Hump Camel", 2, -5.0, 5.0, -1.0316284534898774,
                  (0.08984200893527233, -0.712656403019058), _camel6),
    BenchmarkSpec("F17", "Branin", 2, -5.0, 5.0, 0.39788735772973816,
                  (math.pi, 2.275), _branin),
    BenchmarkSpec("F18", "Goldstein-Price", 2, -2.0, 2.0, 3.0, (0.0, -1.0),
                  _goldstein_price),
    # Hartman functions live on the unit cube in every primary source we
    # could check; minima printed elsewhere agree only on that domain.
    BenchmarkSpec("F19", "Hartman 3", 3, 0.0, 1.0, -3.862779787332663,
                  (0.11458886908541062, 0.5556488928322367, 0.8525469854282611),
                  _hartman, tables=_H3),
    BenchmarkSpec("F20", "Hartman 6", 6, 0.0, 1.0, -3.3223680114155147,
                  (0.20168950909365746, 0.15001069354111374, 0.4768739729250998,
                   0.2753324275220782, 0.3116516172395686, 0.6573005345536702),
                  _hartman, tables=_H6),
    BenchmarkSpec("F21", "Shekel 5", 4, 0.0, 10.0, -10.153199679058229,
                  (4.000037152376549, 4.000133278657566,
                   4.000037151057555, 4.000133277090425), _shekel,
                  tables=(_SHEKEL_A[:5], _SHEKEL_C[:5])),
    BenchmarkSpec("F22", "Shekel 7", 4, 0.0, 10.0, -10.402940566818662,
                  (4.000572914277084, 4.000689366040889,
                   3.9994897107938447, 3.9996061600067923), _shekel,
                  tables=(_SHEKEL_A[:7], _SHEKEL_C[:7])),
    BenchmarkSpec("F23", "Shekel 10", 4, 0.0, 10.0, -10.536409816692045,
                  (4.000746530253313, 4.000592936779709,
                   3.9996633957714787, 3.9995097993299975), _shekel,
                  tables=(_SHEKEL_A, _SHEKEL_C)),
]}


def _resolve_dim(spec: BenchmarkSpec, dim: int | None) -> int:
    if spec.fixed_dim is not None:
        if dim not in (None, spec.fixed_dim):
            raise ValueError(f"{spec.fid} ({spec.name}) is fixed at dim={spec.fixed_dim}")
        return spec.fixed_dim
    if dim is None:
        return 30
    if dim < 2:
        raise ValueError(f"{spec.fid} needs dim >= 2; got {dim}")
    return int(dim)


def make_benchmark(fid: str, dim: int | None = None,
                   noise_rng: np.random.Generator | None = None) -> BoundedProblem:
    """Instantiate catalog entry ``fid`` at dimension ``dim``.

    Parameters
    ----------
    fid : str
        Function id, ``"F1"`` .. ``"F23"``.
    dim : int, optional
        Dimension for the scalable functions (default 30).  Must be
        omitted or match for the fixed-dimension functions.
    noise_rng : numpy Generator, optional
        Noise stream for F7.  When given, every evaluation adds an
        independent uniform [0, 1) draw; when omitted F7 is noise-free.
        Ignored by every other function.

    Returns
    -------
    BoundedProblem
    """
    try:
        spec = CATALOG[fid]
    except KeyError:
        raise KeyError(f"unknown benchmark id {fid!r}; expected F1..F23") from None
    n = _resolve_dim(spec, dim)
    func = spec.func
    if spec.tables:
        tables = map(np.array, spec.tables) if fid == "F14" else spec.tables
        func = functools.partial(func, *tables)
    if fid == "F7" and noise_rng is not None:
        def func(x, _base=spec.func, _rng=noise_rng):
            return _base(x) + float(_rng.uniform())

    return BoundedProblem(
        name=f"{fid}-{spec.name}-d{n}",
        dim=n,
        lower=np.full(n, spec.lower),
        upper=np.full(n, spec.upper),
        func=func,
    )


def known_optimum(fid: str, dim: int | None = None) -> tuple[float, np.ndarray]:
    """Return ``(f_min, x_min)`` for catalog entry ``fid`` at ``dim``; a
    scalable entry's ``x_min`` coordinate is broadcast to ``dim``."""
    spec = CATALOG[fid]
    n = _resolve_dim(spec, dim)
    x = (np.full(n, spec.x_min, dtype=float) if spec.fixed_dim is None
         else np.array(spec.x_min, dtype=float))
    f = spec.f_min * n if spec.f_min_per_dim else spec.f_min
    return f, x

