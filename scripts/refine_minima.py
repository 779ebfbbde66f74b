"""One-off: polish literature minimizers for the fixed-dimension test
functions to full float precision so the catalog can store a
self-consistent (x_min, f_min) pair.  Results are frozen into
snailopt/benchmarks.py; this script is kept for provenance.

It needs scipy (``scipy.optimize``), which the package itself does not;
``pip install -e ".[test]"`` installs it.

Run from the repository root:  python3 scripts/refine_minima.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np
from scipy.optimize import minimize

from snailopt.benchmarks import make_benchmark


def polish(name, fid, x0):
    fun = make_benchmark(fid).func
    res = minimize(fun, x0, method="Nelder-Mead",
                   options=dict(xatol=1e-14, fatol=1e-16, maxiter=20000, maxfev=40000))
    # second pass from the first result to squeeze out the simplex
    res = minimize(fun, res.x, method="Nelder-Mead",
                   options=dict(xatol=1e-15, fatol=1e-17, maxiter=20000, maxfev=40000))
    print(f"{fid} {name}:")
    print(f"  x* = {res.x.tolist()!r}")
    print(f"  f* = {res.fun!r}")
    return res


polish("foxholes", "F14", np.array([-32.0, -32.0]))
polish("kowalik", "F15", np.array([0.1928, 0.1908, 0.1231, 0.1358]))
polish("camel6", "F16", np.array([0.0898, -0.7126]))
polish("branin", "F17", np.array([np.pi, 2.275]))
polish("goldstein-price", "F18", np.array([0.0, -1.0]))
polish("hartman3", "F19", np.array([0.1146, 0.5556, 0.8525]))
polish("hartman6", "F20",
       np.array([0.20169, 0.150011, 0.476874, 0.275332, 0.311652, 0.6573]))
polish("shekel5", "F21", np.array([4.0, 4.0, 4.0, 4.0]))
polish("shekel7", "F22", np.array([4.0, 4.0, 4.0, 4.0]))
polish("shekel10", "F23", np.array([4.0, 4.0, 4.0, 4.0]))

# sanity against the textbook values
print("\nSchwefel per-dim check:",
      420.9687474737558 * np.sin(np.sqrt(420.9687474737558)))
