"""Test-side rebuild of the exchanger model variants stored with the published tables."""

import dataclasses

from snailopt.sthe import make_case


def case_with_profile(case_id, profile):
    """Rebuild the exact model variant a stored column was fitted with."""
    case = make_case(case_id)
    tube = dataclasses.replace(case.tube, fouling=profile["tube_fouling"])
    return dataclasses.replace(
        case, tube=tube, layout=profile["layout"],
        elbow_loss=profile["elbow_loss"], passes=profile["passes"],
        area_convention=profile["area_convention"],
        pump_efficiency=profile["pump_efficiency"],
        efficiency_on_shell=profile["efficiency_on_shell"],
    )
