"""Exchanger model tests: physics chain, costs, and the published tables."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snailopt import sthe
from snailopt.sthe import (INFEASIBLE_COST, LOWER, UPPER, DomainError,
                           StheDesign, closeness_direction, closeness_percent,
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
    # the chain too: the replaced case builds its own, the original keeps its cost
    d = [0.02, 0.8, 0.3, 4.0]
    cost = total_cost(case, d)
    assert warmer.chain is not case.chain
    assert total_cost(warmer, d) != cost
    assert total_cost(case, d) == cost


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
    assert np.array_equal(problem.lower, LOWER)
    assert np.array_equal(problem.upper, UPPER)
    lo, hi = problem.lower, problem.upper
    for case_id in (1, 2, 3):
        case, func = make_case(case_id), make_problem(case_id).func
        # a box twice as wide: about 15 of 16 points are infeasible
        rng = np.random.default_rng(case_id)
        points = lo - (hi - lo) / 2.0 + rng.random((2000, 4)) * 2.0 * (hi - lo)
        for j, bad in enumerate((math.nan, math.inf, -math.inf)):
            points[j, j] = bad
        values = [(func(x).hex(), total_cost(case, x).hex()) for x in points]
        assert all(a == b for a, b in values)
        assert 0 < sum(a == INFEASIBLE_COST.hex() for a, _ in values) < len(values)


# ---------------------------------------------------------------------------
# the case's chain against the evaluation it replaced
# ---------------------------------------------------------------------------

# The per-call evaluation the chain replaced, kept verbatim as the oracle:
# every field of every design must have the same bits (float.hex).

def oracle_nusselt(case, re_t, pr_t, f_t, d_i, length):
    if re_t < 2300.0:
        x = re_t * pr_t * d_i / length
        num = 0.0677 * x ** 1.33
        den = 1.0 + 0.1 * pr_t * (re_t * d_i / length) ** 0.3
        return 3.657 + num / den
    if re_t < 1.0e4:
        fac = f_t / 8.0
        num = fac * (re_t - 1000.0) * pr_t
        den = 1.0 + 12.7 * math.sqrt(fac) * (pr_t ** (2.0 / 3.0) - 1.0)
        return num / den * (1.0 + (d_i / length) ** 0.67)
    return (
        0.027 * re_t ** 0.8 * pr_t ** (1.0 / 3.0) * case.tube.wall_correction
    )


def oracle_design(case, d):
    vec = np.asarray(d, dtype=float)
    if vec.shape != (4,):
        raise DomainError(f"decision vector must have shape (4,); got {vec.shape}")
    x = vec.tolist()
    if not all(lo <= v <= hi for lo, v, hi in zip(LOWER, x, UPPER)):
        raise DomainError(f"decision vector {x} outside case-{case.case_id} bounds")
    d_o, shell_d, baffle, length = x

    d_i = sthe.BORE_RATIO * d_o
    pitch = sthe.PITCH_RATIO * d_o
    clearance = sthe.CLEARANCE_RATIO * d_o
    k1, n1 = sthe.LAYOUT_CONSTANTS[(case.layout, case.passes)]
    tube_count = k1 * (shell_d / d_o) ** n1

    tube, shell = case.tube, case.shell
    flow_area = math.pi / 4.0 * d_i * d_i * tube_count / case.passes
    v_t = tube.mass_flow / (tube.density * flow_area)
    re_t = tube.density * v_t * d_i / tube.viscosity
    pr_t = tube.prandtl
    if re_t <= 0.0 or not math.isfinite(re_t):
        raise DomainError("tube-side Reynolds number out of domain")
    f_t = (1.82 * math.log10(re_t) - 1.64) ** -2
    nu_t = oracle_nusselt(case, re_t, pr_t, f_t, d_i, length)
    h_t = nu_t * tube.conductivity / d_i
    dp_t = (
        tube.density * v_t * v_t / 2.0
        * ((length / d_i) * f_t + case.elbow_loss)
        * case.passes
    )

    cross_area = shell_d * baffle * clearance / pitch
    if case.layout == "triangular":
        d_e = 4.0 * (0.43 * pitch * pitch - math.pi * d_o * d_o / 8.0) / (
            math.pi * d_o / 2.0
        )
    else:
        d_e = 4.0 * (pitch * pitch - math.pi * d_o * d_o / 4.0) / (math.pi * d_o)
    v_s = shell.mass_flow / (shell.density * cross_area)
    re_s = shell.density * v_s * d_e / shell.viscosity
    pr_s = shell.prandtl
    h_s = (
        0.36
        * (shell.conductivity / d_e)
        * re_s ** 0.55
        * pr_s ** (1.0 / 3.0)
        * shell.wall_correction
    )
    f_s = 1.44 * re_s ** -0.15
    dp_s = (
        shell.density * v_s * v_s / 2.0
        * (length / baffle)
        * (shell_d / d_e)
        * f_s
    )

    u = 1.0 / (
        1.0 / h_s
        + shell.fouling
        + (d_o / d_i) * (tube.fouling + 1.0 / h_t)
    )
    lmtd = case.lmtd
    f_corr = case.correction_factor
    if case.area_convention == "geometry":
        area = math.pi * d_o * length * tube_count
    else:
        area = case.duty / (u * f_corr * lmtd)
    if not (area > 0.0 and math.isfinite(area)):
        raise DomainError("required area out of domain")

    investment = sthe.BASE_COST + sthe.AREA_COEFF * area ** sthe.AREA_EXP
    p_tube = tube.mass_flow * dp_t / tube.density
    p_shell = shell.mass_flow * dp_s / shell.density
    if case.efficiency_on_shell:
        power = (p_tube + p_shell) / case.pump_efficiency
    else:
        power = p_tube / case.pump_efficiency + p_shell
    annual = sthe.ENERGY_PRICE * sthe.HOURS_PER_YEAR * power / 1000.0
    discounted = annual * sthe.ANNUITY
    total = investment + discounted
    if not math.isfinite(total):
        raise DomainError("cost diverged")

    return StheDesign(
        d_o, d_i, shell_d, baffle, length, pitch, clearance, case.passes,
        tube_count, v_t, re_t, pr_t, h_t, f_t, dp_t,
        cross_area, d_e, v_s, re_s, pr_s, h_s, f_s, dp_s,
        u, lmtd, f_corr, area,
        investment, annual, discounted, total, power,
    )


def hexed(design):
    """Every field's type and bits."""
    assert type(design) is StheDesign and len(design) == 32
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in design]


def domain_error(evaluate, case, d):
    with pytest.raises(DomainError) as info:
        evaluate(case, d)
    return str(info.value)


VARIANTS = [dataclasses.replace(make_case(cid), layout=layout, passes=passes,
                                area_convention=area, efficiency_on_shell=on_shell)
            for cid, layout, passes, area, on_shell in itertools.product(
                (1, 2, 3), ("triangular", "square"), (1, 2, 4),
                ("duty", "geometry"), (False, True))]
IN_BOX = 600  # per variant, with 8 face points and 16 corners: 45k in all


def box_points(seed):
    """Seeded in-box points, one on each face and every corner."""
    lo, hi = np.array(LOWER), np.array(UPPER)
    rng = np.random.default_rng(seed)
    points = lo + rng.random((IN_BOX + 8, 4)) * (hi - lo)
    for k, (j, bound) in enumerate(itertools.product(range(4), (lo, hi))):
        points[IN_BOX + k, j] = bound[j]
    corners = np.array(list(itertools.product(*zip(LOWER, UPPER))))
    return np.vstack([points, corners]).tolist()


def test_the_chain_gives_the_bits_of_the_evaluation_it_replaced():
    regimes = set()
    for seed, case in enumerate(VARIANTS):
        for d in box_points(seed):
            want = oracle_design(case, d)
            regimes.add((want.re_tube >= 2300.0) + (want.re_tube >= 1.0e4))
            assert hexed(evaluate_design(case, d)) == hexed(want), (case, d)
    assert regimes == {0, 1, 2}  # laminar, transition and turbulent


def with_stream(case, side, **props):
    return dataclasses.replace(case, **{side: dataclasses.replace(getattr(case, side), **props)})


@pytest.mark.parametrize("case, d, message", [
    (make_case(2), [0.005, 0.8, 0.3, 4.0], r"decision vector \[0.005, .*\] outside case-2"),
    (make_case(3), [0.02, 0.8, 0.3, 6.000001], "outside case-3 bounds"),
    *[(make_case(1), [0.02, 0.8, 0.3, 4.0][:j] + [bad] + [0.02, 0.8, 0.3, 4.0][j + 1:],
       "outside case-1 bounds")
      for j in range(4) for bad in (math.nan, math.inf, -math.inf)],
    (make_case(1), [0.02, 0.8, 0.3], "shape"),
    (with_stream(make_case(1), "tube", viscosity=-0.0008), [0.02, 0.8, 0.3, 4.0],
     "tube-side Reynolds"),
    (with_stream(make_case(1), "shell", fouling=-1.0), [0.02, 0.8, 0.3, 4.0],
     "required area"),
    (with_stream(make_case(1), "shell", mass_flow=1e300), [0.02, 0.8, 0.3, 4.0],
     "cost diverged"),
])
def test_the_chain_raises_where_the_evaluation_it_replaced_did(case, d, message):
    got = domain_error(evaluate_design, case, d)
    assert got == domain_error(oracle_design, case, d)
    assert re.search(message, got)


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
