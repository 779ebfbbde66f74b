#!/usr/bin/env python3
"""Re-derive the fitted fields of the bundled exchanger comparison data.

``src/snailopt/data/sthe_published.json`` is edited by hand: it holds
the designs a dozen prior studies report for the three sizing cases
(``rows``, with ``null`` for cells printed as '-' or left blank), the
closeness and performance tables, the suspect cells and each design's
exclusion and outlier notes.  The studies do not share every modelling
convention (tube-side fouling, elbow loss, pitch layout, pump
efficiency), so this script fits, per design, the small discrete
convention set that best reproduces its printed total cost, and
rewrites every field that follows from the transcription: ``label``,
``decision``, ``printed_passes``, ``c_total``, ``profile`` and
``outlier``.  The tests check that the committed file is this script's
output byte for byte; to change the data, edit ``rows``, run

    python3 scripts/build_sthe_data.py

from the repository root, and run the tests.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from snailopt.sthe import DomainError, evaluate_design, make_case  # noqa: E402

OUT = Path(__file__).resolve().parent.parent / "src" / "snailopt" / "data" / "sthe_published.json"


# Pump conventions seen across the studies: tube-side-only efficiency,
# efficiency on the full sum, a poorer pump, and no efficiency at all.
PUMP_OPTIONS = ((0.8, False), (0.8, True), (0.7, True), (1.0, True))


def profile(case, decision, printed_total):
    """The convention record of ``case`` and its total for ``decision``."""
    total = evaluate_design(case, decision).total
    return {
        "tube_fouling": case.tube.fouling,
        "layout": case.layout,
        "elbow_loss": case.elbow_loss,
        "passes": case.passes,
        "pump_efficiency": case.pump_efficiency,
        "efficiency_on_shell": case.efficiency_on_shell,
        "area_convention": case.area_convention,
        "model_c_total": total,
        "rel_error": abs(total - printed_total) / printed_total,
    }


def case_variant(case_id, conventions):
    """Case ``case_id`` under the convention record ``profile`` writes."""
    case = make_case(case_id)
    return replace(
        case, tube=replace(case.tube, fouling=conventions["tube_fouling"]),
        layout=conventions["layout"], elbow_loss=conventions["elbow_loss"],
        passes=conventions["passes"],
        pump_efficiency=conventions["pump_efficiency"],
        efficiency_on_shell=conventions["efficiency_on_shell"],
        area_convention=conventions["area_convention"],
    )


def fit_column(case, decision, printed_total, printed_passes):
    """Search the small convention grid for the best C_total match (the
    first of equal errors, in grid order)."""
    foulings = [0.00002, 0.0002] if case.case_id == 1 else [case.tube.fouling]
    best = None
    for fouling, layout, elbow, passes, (eff, on_shell), area in itertools.product(
            foulings, ("triangular", "square"), (4.0, 2.5),
            [printed_passes] if printed_passes else [1, 2, 4],
            PUMP_OPTIONS, ("duty", "geometry")):
        trial = case_variant(case.case_id, {
            "tube_fouling": fouling, "layout": layout, "elbow_loss": elbow,
            "passes": passes, "pump_efficiency": eff,
            "efficiency_on_shell": on_shell, "area_convention": area,
        })
        try:
            record = profile(trial, decision, printed_total)
        except DomainError:
            continue
        if best is None or record["rel_error"] < best["rel_error"]:
            best = record
    return best


def build():
    """The data of ``OUT`` with its derived fields recomputed from the
    hand-entered ones."""
    data = json.loads(OUT.read_text())
    for case_id, table in data["cases"].items():
        case = make_case(int(case_id))
        rows, hand = table["rows"], {d["name"]: d for d in table["designs"]}
        table["label"] = case.label
        table["designs"] = []
        for j, name in enumerate(table["columns"]):
            own = hand.get(name, {})
            decision = [rows[key][j] for key in ("d_o", "D_s", "b", "L")]
            entry = {"name": name, "decision": decision,
                     "printed_passes": rows["n_t"][j], "c_total": rows["C_total"][j],
                     "excluded": own.get("excluded", False),
                     "exclude_reason": own.get("exclude_reason"), "profile": None}
            table["designs"].append(entry)
            if entry["excluded"]:
                continue
            if name in ("SHMS", "ARGA"):  # the chain's own conventions; no fitting
                record, fitted = profile(case, decision, entry["c_total"]), False
            else:
                record, fitted = fit_column(case, decision, entry["c_total"],
                                            entry["printed_passes"]), True
            entry["profile"] = {**record, "fitted": fitted}
            entry["outlier"] = record["rel_error"] > 0.02
            if entry["outlier"]:
                entry["outlier_note"] = own.get(
                    "outlier_note",
                    "no convention combination reproduces the printed total")
    return data


def render(data):
    """The text of ``OUT`` for ``data``."""
    return json.dumps(data, indent=1)


def main():
    OUT.write_text(render(build()))
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
