"""One-off: polish literature minimizers for the fixed-dimension test
functions to full float precision so the catalog can store a
self-consistent (x_min, f_min) pair.  Results are frozen into
snailopt/benchmarks.py; this script is kept for provenance.

It needs scipy (``scipy.optimize``), which the package itself does not;
``pip install -e ".[test]"`` installs it."""

import numpy as np
from scipy.optimize import minimize

# --- definitions (duplicated from the package on purpose: this ran first) ---

_FOX_A1 = np.tile([-32.0, -16.0, 0.0, 16.0, 32.0], 5)
_FOX_A2 = np.repeat([-32.0, -16.0, 0.0, 16.0, 32.0], 5)


def foxholes(x):
    j = np.arange(1, 26)
    denom = j + (x[0] - _FOX_A1) ** 6 + (x[1] - _FOX_A2) ** 6
    return 1.0 / (1.0 / 500.0 + np.sum(1.0 / denom))


_KOW_A = np.array([0.1957, 0.1947, 0.1735, 0.16, 0.0844, 0.0627,
                   0.0456, 0.0342, 0.0323, 0.0235, 0.0246])
_KOW_B = 1.0 / np.array([0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0])


def kowalik(x):
    num = x[0] * (_KOW_B ** 2 + _KOW_B * x[1])
    den = _KOW_B ** 2 + _KOW_B * x[2] + x[3]
    return float(np.sum((_KOW_A - num / den) ** 2))


def camel6(x):
    x1, x2 = x
    return (4 - 2.1 * x1 ** 2 + x1 ** 4 / 3) * x1 ** 2 + x1 * x2 + (-4 + 4 * x2 ** 2) * x2 ** 2


def branin(x):
    x1, x2 = x
    return ((x2 - 5.1 * x1 ** 2 / (4 * np.pi ** 2) + 5 * x1 / np.pi - 6) ** 2
            + 10 * (1 - 1 / (8 * np.pi)) * np.cos(x1) + 10)


def goldstein_price(x):
    x1, x2 = x
    a = 1 + (x1 + x2 + 1) ** 2 * (19 - 14 * x1 + 3 * x1 ** 2 - 14 * x2 + 6 * x1 * x2 + 3 * x2 ** 2)
    b = 30 + (2 * x1 - 3 * x2) ** 2 * (18 - 32 * x1 + 12 * x1 ** 2 + 48 * x2 - 36 * x1 * x2 + 27 * x2 ** 2)
    return a * b


_H3_A = np.array([[3, 10, 30], [0.1, 10, 35], [3, 10, 30], [0.1, 10, 35]], dtype=float)
_H3_P = 1e-4 * np.array([[3689, 1170, 2673], [4699, 4387, 7470],
                         [1091, 8732, 5547], [381, 5743, 8828]], dtype=float)
_H_C = np.array([1.0, 1.2, 3.0, 3.2])


def hartman3(x):
    inner = np.sum(_H3_A * (x - _H3_P) ** 2, axis=1)
    return float(-np.sum(_H_C * np.exp(-inner)))


_H6_A = np.array([[10, 3, 17, 3.5, 1.7, 8],
                  [0.05, 10, 17, 0.1, 8, 14],
                  [3, 3.5, 1.7, 10, 17, 8],
                  [17, 8, 0.05, 10, 0.1, 14]], dtype=float)
_H6_P = 1e-4 * np.array([[1312, 1696, 5569, 124, 8283, 5886],
                         [2329, 4135, 8307, 3736, 1004, 9991],
                         [2348, 1451, 3522, 2883, 3047, 6650],
                         [4047, 8828, 8732, 5743, 1091, 381]], dtype=float)


def hartman6(x):
    inner = np.sum(_H6_A * (x - _H6_P) ** 2, axis=1)
    return float(-np.sum(_H_C * np.exp(-inner)))


_SHEKEL_A = np.array([[4, 4, 4, 4], [1, 1, 1, 1], [8, 8, 8, 8], [6, 6, 6, 6],
                      [3, 7, 3, 7], [2, 9, 2, 9], [5, 5, 3, 3], [8, 1, 8, 1],
                      [6, 2, 6, 2], [7, 3.6, 7, 3.6]], dtype=float)
_SHEKEL_C = np.array([0.1, 0.2, 0.2, 0.4, 0.4, 0.6, 0.3, 0.7, 0.5, 0.5])


def shekel(m):
    def f(x):
        d = _SHEKEL_A[:m] - x
        return float(-np.sum(1.0 / (np.sum(d * d, axis=1) + _SHEKEL_C[:m])))
    return f


def polish(name, fun, x0):
    res = minimize(fun, x0, method="Nelder-Mead",
                   options=dict(xatol=1e-14, fatol=1e-16, maxiter=20000, maxfev=40000))
    # second pass from the first result to squeeze out the simplex
    res = minimize(fun, res.x, method="Nelder-Mead",
                   options=dict(xatol=1e-15, fatol=1e-17, maxiter=20000, maxfev=40000))
    print(f"{name}:")
    print(f"  x* = {res.x.tolist()!r}")
    print(f"  f* = {res.fun!r}")
    return res


polish("F14 foxholes", foxholes, np.array([-32.0, -32.0]))
polish("F15 kowalik", kowalik, np.array([0.1928, 0.1908, 0.1231, 0.1358]))
polish("F16 camel6", camel6, np.array([0.0898, -0.7126]))
polish("F17 branin", branin, np.array([np.pi, 2.275]))
polish("F18 goldstein-price", goldstein_price, np.array([0.0, -1.0]))
polish("F19 hartman3", hartman3, np.array([0.1146, 0.5556, 0.8525]))
polish("F20 hartman6", hartman6,
       np.array([0.20169, 0.150011, 0.476874, 0.275332, 0.311652, 0.6573]))
polish("F21 shekel5", shekel(5), np.array([4.0, 4.0, 4.0, 4.0]))
polish("F22 shekel7", shekel(7), np.array([4.0, 4.0, 4.0, 4.0]))
polish("F23 shekel10", shekel(10), np.array([4.0, 4.0, 4.0, 4.0]))

# sanity against the textbook values
print("\nSchwefel per-dim check:",
      420.9687474737558 * np.sin(np.sqrt(420.9687474737558)))
