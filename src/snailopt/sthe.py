"""Shell-and-tube heat exchanger sizing and economics objective.

Three classic design cases are provided:

* case 1 — 4.34 MW methanol / brackish-water exchanger,
* case 2 — 1.44 MW kerosene / crude-oil exchanger,
* case 3 — 0.46 MW distilled-water / raw-water exchanger.

A candidate design is the vector ``(d_o, D_s, b, L)``: tube outer
diameter, shell inside diameter, baffle spacing and tube length, all in
metres.  From those four numbers the module derives the complete
thermo-hydraulic chain — tube count from the shell layout correlation,
tube-side velocity/Reynolds/Prandtl and film coefficient (Hausen,
Gnielinski with entrance correction, or Sieder-Tate depending on
regime), tube-side friction and pressure drop, Kern's shell-side
equivalent diameter/velocity/film coefficient and pressure drop, the
fouled overall coefficient, and finally the required area from the duty
and the corrected log-mean temperature difference.

The economics price that chain with the constants of Caputo et al.
(2008), shared by all three cases: capital cost is the power law
``C_inv = BASE_COST + AREA_COEFF * S**AREA_EXP`` of the required area S,
pumping power is billed at ``ENERGY_PRICE`` euro/kWh over
``HOURS_PER_YEAR`` hours a year, and that bill is discounted by
``ANNUITY`` (10 % over 10 years).  The optimization objective is the
sum ``C_total = C_inv + C_total_disc``.  The decision box ``LOWER`` ..
``UPPER`` is also shared by the three cases.

:func:`evaluate_design` returns one immutable record,
:class:`StheDesign`, holding the derived chain and its five cost
fields; :func:`total_cost` reads its ``total``.

Notes on conventions (kept because the published reference designs are
only reproducible with them):

* the pass-count and the pitch layout are fixed per case, not
  optimized;
* pump efficiency divides the tube-side hydraulic power only; the
  shell-side term enters at face value (``efficiency_on_shell=True``
  divides both, as some of the reference studies do);
* the required area is by default taken directly from duty/(U·F·LMTD)
  — the tube length is an independent decision variable and the
  geometric area ``pi*d_o*L*N_t`` is NOT forced to match; the older
  reference studies sized L from the required area instead, so their
  columns are reproduced with ``area_convention="geometry"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from ._numpy import np
from .data import load
from .objective import BoundedProblem

__all__ = [
    "DomainError",
    "StheCase",
    "StheDesign",
    "StreamState",
    "INFEASIBLE_COST",
    "closeness_percent",
    "closeness_direction",
    "evaluate_design",
    "make_case",
    "make_problem",
    "published_tables",
    "total_cost",
]

# Pressure-drop penalty returned for infeasible / out-of-domain designs.
INFEASIBLE_COST = 1.0e12

# Fixed geometric ratios used throughout the published reference designs:
# tube pitch, baffle-to-tube clearance and bore all scale with d_o.
PITCH_RATIO = 1.25
CLEARANCE_RATIO = 0.25
BORE_RATIO = 0.8

# Cost model constants (see the module docstring).
BASE_COST = 8000.0  # euro
AREA_COEFF = 259.2
AREA_EXP = 0.91
ENERGY_PRICE = 0.12  # euro / kWh
HOURS_PER_YEAR = 7000.0
# Present-value factor of one euro/year over 10 years at 10 %.
ANNUITY = sum((1.0 + 0.10) ** -k for k in range(1, 11))

# Decision box (d_o, D_s, b, L) in metres.
LOWER = (0.010, 0.10, 0.05, 0.50)
UPPER = (0.051, 1.50, 0.60, 6.00)

# Tube-count correlation N_t = K1 * (D_s/d_o)^n1, keyed by
# (pitch layout, number of tube passes).
LAYOUT_CONSTANTS = {
    ("triangular", 1): (0.319, 2.142),
    ("triangular", 2): (0.249, 2.207),
    ("triangular", 4): (0.175, 2.285),
    ("triangular", 6): (0.0743, 2.499),
    ("triangular", 8): (0.0365, 2.675),
    ("square", 1): (0.215, 2.207),
    ("square", 2): (0.156, 2.291),
    ("square", 4): (0.158, 2.263),
    ("square", 6): (0.0402, 2.617),
    ("square", 8): (0.0331, 2.643),
}


class DomainError(ValueError):
    """A design left the validity domain of the sizing correlations."""


@dataclass(frozen=True)
class StreamState:
    """One side of the exchanger: flow rate, temperatures and properties.

    Temperatures are in degrees Celsius (only differences matter), the
    remaining properties in SI units.  ``wall_viscosity`` is the fluid
    viscosity evaluated at the wall temperature; it feeds the
    ``(mu/mu_wall)**0.14`` correction and may be ``None`` when the case
    omits the correction.
    """

    mass_flow: float  # kg/s
    t_in: float  # degC
    t_out: float  # degC
    density: float  # kg/m^3
    heat_capacity: float  # J/(kg K)
    viscosity: float  # Pa s
    conductivity: float  # W/(m K)
    fouling: float  # m^2 K / W
    wall_viscosity: float | None = None

    @cached_property
    def wall_correction(self) -> float:
        if self.wall_viscosity is None:
            return 1.0
        return (self.viscosity / self.wall_viscosity) ** 0.14

    @cached_property
    def prandtl(self) -> float:
        return self.viscosity * self.heat_capacity / self.conductivity


@dataclass(frozen=True)
class StheCase:
    """Complete parameter set of one exchanger sizing case.

    Construction raises ``ValueError`` for a set no design can meet:
    streams the wrong way round, a temperature cross, or outlets a
    single shell pass cannot reach.
    """

    case_id: int
    label: str
    duty: float  # W
    shell: StreamState  # hot stream (shell side in all three cases)
    tube: StreamState  # cold stream
    passes: int = 2
    layout: str = "triangular"
    elbow_loss: float = 4.0  # velocity heads lost per tube pass
    # "duty": S = Q/(U*F*LMTD) with L free (our solver's convention);
    # "geometry": S = pi*d_o*L*N_t (the older reference studies derive L
    # from the required area, so for them the two coincide by
    # construction and the geometric form reproduces their tables).
    area_convention: str = "duty"
    # pump efficiency divides the tube-side hydraulic power, and the
    # shell-side term too when efficiency_on_shell is set
    pump_efficiency: float = 0.8
    efficiency_on_shell: bool = False

    def __post_init__(self):
        if self.shell.t_in <= self.shell.t_out:
            raise ValueError("shell stream must be the hot (cooling) stream")
        if self.tube.t_in >= self.tube.t_out:
            raise ValueError("tube stream must be the cold (heated) stream")
        if (self.layout, self.passes) not in LAYOUT_CONSTANTS:
            raise ValueError(f"no tube-count constants for {self.layout!r} x {self.passes} passes")
        if self.area_convention not in ("duty", "geometry"):
            raise ValueError(f"unknown area convention {self.area_convention!r}")
        # computed once, here, so evaluation never meets a case-level error
        try:
            self.lmtd
            self.correction_factor
        except ValueError as exc:
            raise ValueError(f"case {self.case_id} ({self.label}): {exc}") from None

    @cached_property
    def lmtd(self) -> float:
        """Counter-flow log-mean temperature difference."""
        dt1 = self.shell.t_in - self.tube.t_out
        dt2 = self.shell.t_out - self.tube.t_in
        if dt1 <= 0.0 or dt2 <= 0.0:
            raise ValueError("temperature cross: LMTD undefined")
        if abs(dt1 - dt2) < 1e-12 * max(dt1, dt2):
            return dt1
        return (dt1 - dt2) / math.log(dt1 / dt2)

    @cached_property
    def correction_factor(self) -> float:
        """LMTD correction F for one shell pass and 2+ tube passes."""
        hot, cold = self.shell, self.tube
        big_r = (hot.t_in - hot.t_out) / (cold.t_out - cold.t_in)
        big_p = (cold.t_out - cold.t_in) / (hot.t_in - cold.t_in)
        rad = math.sqrt(big_r * big_r + 1.0)
        if abs(big_r - 1.0) < 1e-9:
            num = big_p * rad / (1.0 - big_p)
        else:
            num = rad / (big_r - 1.0) * math.log((1.0 - big_p) / (1.0 - big_p * big_r))
        low = 2.0 - big_p * (big_r + 1.0 + rad)
        if low <= 0.0:
            raise ValueError("one shell pass cannot reach these outlet "
                             "temperatures: LMTD correction F undefined")
        den = math.log((2.0 - big_p * (big_r + 1.0 - rad)) / low)
        return num / den


class StheDesign(NamedTuple):
    """Derived geometry/thermo-hydraulics and costs (euro) of one design."""

    d_o: float
    d_i: float
    shell_diameter: float
    baffle_spacing: float
    length: float
    pitch: float
    clearance: float
    passes: int
    tube_count: float
    v_tube: float
    re_tube: float
    pr_tube: float
    h_tube: float
    f_tube: float
    dp_tube: float
    cross_area: float
    d_equiv: float
    v_shell: float
    re_shell: float
    pr_shell: float
    h_shell: float
    f_shell: float
    dp_shell: float
    u_overall: float
    lmtd: float
    correction_factor: float
    area: float
    investment: float
    annual_operating: float  # euro / year
    discounted_operating: float
    total: float
    pumping_power: float  # W


def make_case(case_id: int) -> StheCase:
    """Return the full parameter set of exchanger case 1, 2 or 3.

    Raises
    ------
    ValueError
        For an unknown case id.
    """
    if case_id == 1:
        return StheCase(
            case_id=1,
            label="methanol / brackish water, 4.34 MW",
            duty=4.34e6,
            shell=StreamState(
                mass_flow=27.8,
                t_in=95.0,
                t_out=40.0,
                density=750.0,
                heat_capacity=2840.0,
                viscosity=0.00034,
                conductivity=0.19,
                fouling=0.00033,
                wall_viscosity=0.00038,
            ),
            tube=StreamState(
                mass_flow=68.9,
                t_in=25.0,
                t_out=40.0,
                density=995.0,
                heat_capacity=4200.0,
                viscosity=0.0008,
                conductivity=0.59,
                fouling=0.00002,
                wall_viscosity=0.00052,
            ),
            elbow_loss=4.0,
        )
    if case_id == 2:
        return StheCase(
            case_id=2,
            label="kerosene / crude oil, 1.44 MW",
            duty=1.44e6,
            shell=StreamState(
                mass_flow=5.52,
                t_in=199.0,
                t_out=93.3,
                density=850.0,
                heat_capacity=2470.0,
                viscosity=0.0004,
                conductivity=0.13,
                fouling=0.00061,
                wall_viscosity=0.000213,
            ),
            tube=StreamState(
                mass_flow=18.8,
                t_in=37.8,
                t_out=76.7,
                density=995.0,
                heat_capacity=2050.0,
                viscosity=0.00358,
                conductivity=0.13,
                fouling=0.00061,
            ),
            elbow_loss=2.5,
        )
    if case_id == 3:
        return StheCase(
            case_id=3,
            label="distilled water / raw water, 0.46 MW",
            duty=0.46e6,
            shell=StreamState(
                mass_flow=22.07,
                t_in=33.9,
                t_out=29.4,
                density=995.0,
                heat_capacity=4180.0,
                viscosity=0.0008,
                conductivity=0.62,
                fouling=0.00017,
            ),
            tube=StreamState(
                mass_flow=35.31,
                t_in=23.9,
                t_out=26.7,
                density=999.0,
                heat_capacity=4180.0,
                viscosity=0.00092,
                conductivity=0.62,
                fouling=0.00017,
            ),
            elbow_loss=2.5,
        )
    raise ValueError(f"unknown exchanger case {case_id!r} (expected 1, 2 or 3)")


def _tube_nusselt(case: StheCase, re_t: float, pr_t: float, f_t: float,
                  d_i: float, length: float) -> float:
    """Tube-side Nusselt number by flow regime.

    Laminar (< 2300): Hausen, developing-flow form (depends on L).
    Transition (2300..1e4): Gnielinski with the (1+(d_i/L)^0.67)
    entrance-length factor.  Turbulent (>= 1e4): Sieder-Tate with the
    wall-viscosity correction.
    """
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


def evaluate_design(case: StheCase, d) -> StheDesign:
    """Derive the full chain and its costs for decision vector ``d``.

    Parameters
    ----------
    case : StheCase
    d : array-like, shape (4,)
        ``(d_o, D_s, b, L)`` in metres.

    Raises
    ------
    DomainError
        When the vector is outside the case bounds or a correlation is
        evaluated outside its validity domain.  Errors are reported,
        never silently clamped.
    """
    vec = np.asarray(d, dtype=float)
    if vec.shape != (4,):
        raise DomainError(f"decision vector must have shape (4,); got {vec.shape}")
    x = vec.tolist()
    # also rejects NaN and +-inf
    if not all(lo <= v <= hi for lo, v, hi in zip(LOWER, x, UPPER)):
        raise DomainError(f"decision vector {x} outside case-{case.case_id} bounds")
    d_o, shell_d, baffle, length = x

    d_i = BORE_RATIO * d_o
    pitch = PITCH_RATIO * d_o
    clearance = CLEARANCE_RATIO * d_o
    k1, n1 = LAYOUT_CONSTANTS[(case.layout, case.passes)]
    tube_count = k1 * (shell_d / d_o) ** n1

    tube, shell = case.tube, case.shell
    flow_area = math.pi / 4.0 * d_i * d_i * tube_count / case.passes
    v_t = tube.mass_flow / (tube.density * flow_area)
    re_t = tube.density * v_t * d_i / tube.viscosity
    pr_t = tube.prandtl
    if re_t <= 0.0 or not math.isfinite(re_t):
        raise DomainError("tube-side Reynolds number out of domain")
    f_t = (1.82 * math.log10(re_t) - 1.64) ** -2
    nu_t = _tube_nusselt(case, re_t, pr_t, f_t, d_i, length)
    h_t = nu_t * tube.conductivity / d_i
    dp_t = (
        tube.density * v_t * v_t / 2.0
        * ((length / d_i) * f_t + case.elbow_loss)
        * case.passes
    )

    # both positive in the box: cross_area is 0.2 * D_s * b, and d_e a
    # positive multiple of d_o for either layout
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

    investment = BASE_COST + AREA_COEFF * area ** AREA_EXP
    p_tube = tube.mass_flow * dp_t / tube.density
    p_shell = shell.mass_flow * dp_s / shell.density
    if case.efficiency_on_shell:
        power = (p_tube + p_shell) / case.pump_efficiency
    else:
        power = p_tube / case.pump_efficiency + p_shell
    annual = ENERGY_PRICE * HOURS_PER_YEAR * power / 1000.0
    discounted = annual * ANNUITY
    total = investment + discounted
    if not math.isfinite(total):
        raise DomainError("cost diverged")

    # positional, in field order: keywords cost ~1 us per call
    return StheDesign(
        d_o, d_i, shell_d, baffle, length, pitch, clearance, case.passes,
        tube_count, v_t, re_t, pr_t, h_t, f_t, dp_t,
        cross_area, d_e, v_s, re_s, pr_s, h_s, f_s, dp_s,
        u, lmtd, f_corr, area,
        investment, annual, discounted, total, power,
    )


def total_cost(case: StheCase, d) -> float:
    """Objective value for the optimizer: C_total, or a 1e12 penalty.

    Any :class:`DomainError` (out-of-bounds or out-of-domain design)
    maps to the large finite penalty so an unconstrained search simply
    treats the region as very bad.
    """
    try:
        return evaluate_design(case, d).total
    except DomainError:
        return INFEASIBLE_COST


def make_problem(case_id: int) -> BoundedProblem:
    """Wrap an exchanger case as a :class:`BoundedProblem` (4 variables)."""
    case = make_case(case_id)
    return BoundedProblem(
        name=f"sthe{case_id}",
        dim=4,
        lower=LOWER,
        upper=UPPER,
        func=lambda x, _case=case: total_cost(_case, x),
    )


def published_tables() -> dict:
    """Bundled reference tables for the three cases.

    Returns the parsed ``sthe_published.json`` payload: per-case
    reported design columns (with the fitted model variant that
    reproduces each one, or a note on why none does), the closeness
    table, the paper's reported SHMS statistics, and the list of printed
    cells that contradict their own row/column.
    """
    return load("sthe_published.json")


def closeness_percent(reference: float, candidate: float) -> float:
    """How much cheaper (%) the candidate is than a reference solution.

    Defined as ``100 * (reference - candidate) / reference``: positive
    when the candidate undercuts the reference, negative when it is
    more expensive.

    Raises
    ------
    ValueError
        For non-positive inputs.
    """
    if reference <= 0.0 or candidate <= 0.0:
        raise ValueError("closeness is defined for positive costs only")
    return 100.0 * (reference - candidate) / reference


def closeness_direction(value: float) -> str:
    """Direction flag for a closeness value: up = candidate is better."""
    return "↑" if value >= 0.0 else "↓"
