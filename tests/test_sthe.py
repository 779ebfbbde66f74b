"""Exchanger model tests: physics chain, costs, and the published tables."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snailopt.sthe import (INFEASIBLE_COST, LOWER, UPPER, DomainError,
                           closeness_direction, closeness_percent,
                           evaluate_design, make_case, make_problem,
                           published_tables, total_cost)
from build_sthe_data import case_variant


@pytest.fixture(scope="module")
def tables():
    return published_tables()


# ---------------------------------------------------------------------------
# case definitions
# ---------------------------------------------------------------------------

def test_make_case_rejects_unknown_ids():
    for bad in (0, 4, -1):
        with pytest.raises(ValueError):
            make_case(bad)


@pytest.mark.parametrize("case_id,lmtd,f_corr", [
    (1, 30.7856, 0.8121),
    (2, 84.5470, 0.8915),
    (3, 6.3119, 0.9447),
])
def test_case_temperature_constants(case_id, lmtd, f_corr):
    case = make_case(case_id)
    # printed constants carry rounded intermediates; 1e-3 absolute
    assert case.lmtd == pytest.approx(lmtd, abs=1e-3)
    assert case.correction_factor == pytest.approx(f_corr, abs=1e-3)


def test_cached_case_constants_follow_replace():
    case = make_case(1)
    before = case.lmtd
    warmer = dataclasses.replace(
        case, shell=dataclasses.replace(case.shell, t_out=50.0))
    # 95 -> 50 degC against 25 -> 40 degC: end differences 55 and 25
    assert warmer.lmtd == pytest.approx(30.0 / math.log(55.0 / 25.0), rel=1e-12)
    assert warmer.lmtd != before
    assert case.lmtd == before


def test_case_bounds_are_the_documented_box():
    problem = make_problem(1)
    assert np.allclose(problem.lower, [0.010, 0.10, 0.05, 0.50])
    assert np.allclose(problem.upper, [0.051, 1.50, 0.60, 6.00])


def test_case_rejects_inconsistent_streams():
    case = make_case(1)
    cold = dataclasses.replace(case.shell, t_in=20.0, t_out=40.0)
    with pytest.raises(ValueError, match="hot"):
        dataclasses.replace(case, shell=cold)
    cooled = dataclasses.replace(case.tube, t_in=40.0, t_out=25.0)
    with pytest.raises(ValueError, match="cold"):
        dataclasses.replace(case, tube=cooled)
    with pytest.raises(ValueError):
        dataclasses.replace(case, layout="hexagonal")
    with pytest.raises(ValueError):
        dataclasses.replace(case, area_convention="frontal")


def with_outlets(shell_out, tube_out, case_id=1):
    case = make_case(case_id)
    return dataclasses.replace(
        case, shell=dataclasses.replace(case.shell, t_out=shell_out),
        tube=dataclasses.replace(case.tube, t_out=tube_out))


def test_a_temperature_cross_is_out_of_domain():
    # the tube stream leaves at 100 degC, above the shell inlet's 95
    with pytest.raises(ValueError, match=r"^case 1 \(.*\): temperature cross"):
        with_outlets(40.0, 100.0)


def test_outlets_one_shell_pass_cannot_reach_are_refused():
    # 95 -> 40 against 25 -> 80 degC: R = 1 and P = 0.79, beyond what a
    # single shell pass can exchange, so F has no value
    with pytest.raises(ValueError, match=r"^case 1 \(.*\): one shell pass"):
        with_outlets(40.0, 80.0)


def test_equal_capacity_rates_take_the_limits_of_the_general_forms():
    # 95 -> 60 degC against 25 -> 60 degC: both ends differ by 35 and
    # R = 1, where the general LMTD and F expressions divide by zero
    case = with_outlets(60.0, 60.0)
    assert case.lmtd == 35.0
    for eps in (1e-3, -1e-3):
        near = with_outlets(60.0, 60.0 + eps)
        assert near.lmtd == pytest.approx(35.0, abs=1e-3)
        assert near.correction_factor == pytest.approx(case.correction_factor,
                                                      rel=1e-4)
    assert 0.5 < case.correction_factor < 1.0


# ---------------------------------------------------------------------------
# derived-geometry identities
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=200)
@given(st.tuples(*(st.floats(lo, hi) for lo, hi in zip(LOWER, UPPER))),
       st.sampled_from(["triangular", "square"]),
       st.sampled_from([1, 2, 3]))
def test_shell_side_geometry_is_positive_in_the_box(d, layout, case_id):
    # evaluate_design divides by both without a guard
    case = dataclasses.replace(make_case(case_id), layout=layout)
    design = evaluate_design(case, d)
    assert design.cross_area > 0.0
    ratio = {"triangular": 0.71, "square": 0.99}[layout]
    assert design.d_equiv == pytest.approx(ratio * design.d_o, rel=0.01)


def test_fixed_geometric_ratios():
    case = make_case(1)
    design = evaluate_design(case, [0.02, 0.8, 0.3, 4.0])
    assert design.d_i == pytest.approx(0.8 * design.d_o, rel=1e-12)
    assert design.pitch == pytest.approx(1.25 * design.d_o, rel=1e-12)
    assert design.clearance == pytest.approx(0.25 * design.d_o, rel=1e-12)
    assert design.passes == case.passes


def test_duty_convention_area_closes_the_heat_balance():
    case = make_case(1)
    design = evaluate_design(case, [0.02, 0.8, 0.3, 4.0])
    required = case.duty / (design.u_overall * design.correction_factor
                            * design.lmtd)
    assert design.area == pytest.approx(required, rel=1e-12)


def test_geometry_convention_area_is_the_tube_surface():
    case = dataclasses.replace(make_case(1), area_convention="geometry")
    d = [0.02, 0.8, 0.3, 4.0]
    design = evaluate_design(case, d)
    assert design.area == pytest.approx(
        math.pi * design.d_o * design.length * design.tube_count, rel=1e-12)


def test_record_fields_hold_the_named_quantities():
    # the record is built positionally; recompute each field by name
    case = make_case(1)
    d = [0.02, 0.8, 0.3, 4.0]
    r = evaluate_design(case, d)
    tube, shell = case.tube, case.shell
    assert [r.d_o, r.shell_diameter, r.baffle_spacing, r.length] == d
    assert r.tube_count == pytest.approx(0.249 * (0.8 / 0.02) ** 2.207, rel=1e-12)
    assert r.re_tube == pytest.approx(
        tube.density * r.v_tube * r.d_i / tube.viscosity, rel=1e-12)
    assert r.pr_tube == tube.prandtl and r.pr_shell == shell.prandtl
    assert r.f_tube == pytest.approx(
        (1.82 * math.log10(r.re_tube) - 1.64) ** -2, rel=1e-12)
    assert r.dp_tube == pytest.approx(
        tube.density * r.v_tube ** 2 / 2.0
        * (r.length / r.d_i * r.f_tube + case.elbow_loss) * r.passes, rel=1e-12)
    assert r.cross_area == pytest.approx(
        r.shell_diameter * r.baffle_spacing * r.clearance / r.pitch, rel=1e-12)
    assert r.v_shell == pytest.approx(
        shell.mass_flow / (shell.density * r.cross_area), rel=1e-12)
    assert r.re_shell == pytest.approx(
        shell.density * r.v_shell * r.d_equiv / shell.viscosity, rel=1e-12)
    assert r.f_shell == pytest.approx(1.44 * r.re_shell ** -0.15, rel=1e-12)
    assert r.dp_shell == pytest.approx(
        shell.density * r.v_shell ** 2 / 2.0 * (r.length / r.baffle_spacing)
        * (r.shell_diameter / r.d_equiv) * r.f_shell, rel=1e-12)
    assert 1.0 / r.u_overall == pytest.approx(
        1.0 / r.h_shell + shell.fouling
        + (r.d_o / r.d_i) * (tube.fouling + 1.0 / r.h_tube), rel=1e-12)
    power = (tube.mass_flow * r.dp_tube / tube.density / case.pump_efficiency
             + shell.mass_flow * r.dp_shell / shell.density)
    assert r.pumping_power == pytest.approx(power, rel=1e-12)


def test_cost_identity_and_discounting():
    case = make_case(2)
    report = evaluate_design(case, [0.015, 0.5, 0.3, 3.0])
    assert report.total == pytest.approx(
        report.investment + report.discounted_operating, rel=1e-12)
    # 10 years at 10%: annuity factor (1 - 1.1^-10) / 0.1
    assert report.discounted_operating == pytest.approx(
        report.annual_operating * 6.1445671, rel=1e-6)
    assert report.pumping_power > 0.0


def test_investment_grows_with_exchange_area():
    case = make_case(1)
    small = evaluate_design(case, [0.02, 0.5, 0.3, 3.0])
    large = evaluate_design(case, [0.02, 1.2, 0.3, 3.0])
    assert small.area != large.area
    if small.area < large.area:
        assert small.investment < large.investment
    else:
        assert small.investment > large.investment


def test_tube_side_regime_switches_with_velocity():
    case = make_case(1)
    # few tubes -> fast flow -> turbulent; huge shell -> many tubes -> laminar
    fast = evaluate_design(case, [0.051, 0.2, 0.3, 3.0])
    slow = evaluate_design(case, [0.012, 1.5, 0.3, 3.0])
    assert fast.re_tube > slow.re_tube
    assert fast.h_tube > slow.h_tube


# ---------------------------------------------------------------------------
# domain handling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("vec", [
    [0.005, 0.8, 0.3, 4.0],   # d_o below its bound
    [0.02, 1.6, 0.3, 4.0],    # shell too wide
    [0.02, 0.8, 0.01, 4.0],   # baffle spacing too tight
    [0.02, 0.8, 0.3, 7.0],    # tubes too long
])
def test_out_of_bounds_designs_raise(vec):
    with pytest.raises(DomainError):
        evaluate_design(make_case(1), vec)


def test_malformed_vectors_raise():
    case = make_case(1)
    for shape_bad in ([0.02, 0.8, 0.3], np.full((2, 2), 0.3)):
        with pytest.raises(DomainError, match="shape"):
            evaluate_design(case, shape_bad)
    # the bounds test rejects non-finite entries too
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DomainError, match="outside case-1 bounds"):
            evaluate_design(case, [0.02, 0.8, 0.3, value])


def test_total_cost_maps_domain_errors_to_penalty():
    case = make_case(1)
    assert total_cost(case, [0.005, 0.8, 0.3, 4.0]) == INFEASIBLE_COST
    assert total_cost(case, [0.02, 0.8, 0.3, 4.0]) < INFEASIBLE_COST


def test_make_problem_wraps_the_case():
    problem = make_problem(3)
    assert problem.dim == 4
    case = make_case(3)
    assert np.array_equal(problem.lower, LOWER)
    assert np.array_equal(problem.upper, UPPER)
    x = np.array([0.015, 0.6, 0.3, 3.0])
    assert problem.func(x) == total_cost(case, x)


# ---------------------------------------------------------------------------
# published-table reproduction
# ---------------------------------------------------------------------------

def test_every_stored_profile_recomputes_its_model_total(tables):
    checked = 0
    for cid in (1, 2, 3):
        for entry in tables["cases"][str(cid)]["designs"]:
            if entry["excluded"]:
                assert entry["exclude_reason"]
                continue
            profile = entry["profile"]
            case = case_variant(cid, profile)
            got = total_cost(case, entry["decision"])
            assert got == pytest.approx(profile["model_c_total"], rel=1e-12)
            rel = abs(got - entry["c_total"]) / entry["c_total"]
            assert rel == pytest.approx(profile["rel_error"], abs=1e-9)
            assert entry["outlier"] == (rel > 0.02)
            if entry["outlier"]:
                assert entry["outlier_note"]
            checked += 1
    assert checked >= 30


def test_printed_reynolds_agrees_with_printed_velocity(tables):
    # internal consistency of the tables themselves: Re recomputed from
    # the printed velocity and diameter must match the printed Re
    targets = {1: ("GA", "SHMS"), 2: ("SHMS",), 3: ("SHMS",)}
    for cid, names in targets.items():
        case = make_case(cid)
        block = tables["cases"][str(cid)]
        for name in names:
            j = block["columns"].index(name)
            v_t = block["rows"]["v_t"][j]
            re_printed = block["rows"]["Re_t"][j]
            d_i = 0.8 * block["rows"]["d_o"][j]
            re_calc = case.tube.density * v_t * d_i / case.tube.viscosity
            assert re_calc == pytest.approx(re_printed, rel=0.02), (cid, name)


def test_published_closeness_rows_recompute(tables):
    for cid, rows in tables["closeness"].items():
        best = tables["performance"][cid]["best"]
        for row in rows:
            printed = row["closeness_percent"]
            if row["direction"] == "down":
                printed = -printed
            calc = closeness_percent(row["c_total"], best)
            assert calc == pytest.approx(printed, abs=1e-3), (cid, row["name"])


def test_suspect_cells_are_documented(tables):
    for cell in tables["suspect_cells"]:
        assert cell["case"] in (1, 2, 3)
        assert cell["note"]


# ---------------------------------------------------------------------------
# closeness helper
# ---------------------------------------------------------------------------

def test_closeness_percent_examples():
    assert closeness_percent(100.0, 99.0) == pytest.approx(1.0, abs=1e-12)
    assert closeness_percent(100.0, 104.0) == pytest.approx(-4.0, abs=1e-12)
    assert closeness_percent(50793.0, 41718.6558) == pytest.approx(
        17.8653, abs=1e-3)
    assert closeness_percent(123.4, 123.4) == 0.0


def test_closeness_percent_rejects_nonpositive_costs():
    with pytest.raises(ValueError):
        closeness_percent(0.0, 10.0)
    with pytest.raises(ValueError):
        closeness_percent(10.0, -1.0)


def test_closeness_direction_flags():
    assert closeness_direction(0.46) == "↑"
    assert closeness_direction(-0.1) == "↓"
    assert closeness_direction(0.0) == "↑"
