"""Pure arithmetic of the benchmark: percentiles, quality, spans, hashes.

Nothing here imports snailopt or touches the clock, so the tests in
``perfbench/tests`` can pin every formula the reported numbers rest on.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import struct


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile of ``values`` and the sample count.

    The nearest rank is ``ceil(q/100 * n)``, so the result is always one
    of the samples; with fewer than ``100 / (100 - q)`` samples the top
    percentile is simply the maximum, which the count makes visible.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must be in (0, 100]")
    rank = max(1, math.ceil(q / 100.0 * n))
    return xs[rank - 1], n


def gap_floor(f_ref: float) -> float:
    """Smallest gap to the reference that still counts: ``1e-12*max(1,|f_ref|)``."""
    return 1e-12 * max(1.0, abs(f_ref))


def orders_gained(first: float, final: float, f_ref: float) -> float:
    """Orders of magnitude the gap to ``f_ref`` shrank over one trial.

    ``log10((first - f_ref) / (final - f_ref))`` with both gaps floored
    at :func:`gap_floor`, so reaching the reference scores a finite
    value and a start already at the reference scores zero.
    """
    floor = gap_floor(f_ref)
    return math.log10(max(first - f_ref, floor) / max(final - f_ref, floor))


def fingerprint(trials) -> str:
    """Bitwise hash of ``(best_trace, final_x, evals)`` over trials, in order.

    Floats are hashed as their IEEE-754 bytes, so two runs agree only
    when every value is bit-identical.
    """
    h = hashlib.sha256()
    for trace, final_x, evals in trials:
        for seq in (trace, final_x):
            h.update(struct.pack("<q", len(seq)))
            h.update(struct.pack(f"<{len(seq)}d", *seq))
        h.update(struct.pack("<q", int(evals)))
    return h.hexdigest()[:16]


def self_times(spans) -> dict[str, float]:
    """Self time per span name, summed over spans of that name.

    Each span is a mapping with ``id``, ``name``, ``start``, ``end``,
    ``parent`` (an id or ``None``) and ``child_busy``: time spent in
    calls too frequent to keep as spans, charged to the span they ran
    in.  Self time is the span's duration minus its child spans'
    durations minus ``child_busy``.
    """
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + (s["end"] - s["start"])
    out: dict[str, float] = {}
    for s in spans:
        own = (s["end"] - s["start"]) - children.get(s["id"], 0.0) - s["child_busy"]
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def quartile_spread(values) -> float:
    """Inter-quartile distance over the median, as the acceptance check takes it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output.

    Keys are module names; the special key ``""`` sums the top-level
    (unindented) imports of the ``snailopt`` package, i.e. the whole
    cost of the import statement that was timed.
    """
    out: dict[str, float] = {"": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|")
        seconds = int(cumulative) * 1e-6
        module = name.strip()
        out[module] = seconds
        if module.startswith("snailopt") and name.startswith(" ") and not name.startswith("  "):
            out[""] += seconds
    return out
