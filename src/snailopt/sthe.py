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

Each case derives that chain in one function, :attr:`StheCase.chain`,
built once per case with its constants bound, and shared by
:func:`evaluate_design` (which validates an array-like first),
:func:`total_cost` and the objective of :func:`make_problem`.  It
returns one immutable record, :class:`StheDesign`, holding the derived
chain and its five cost fields; the costs read its ``total``.

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

    @cached_property
    def chain(self):
        """``chain(d_o, D_s, b, L)``: the :class:`StheDesign` of four floats.

        Built once per case with the case's constants bound as locals,
        subexpressions of the case alone (``pr ** (1/3)``, ``0.1 * pr``)
        included where the formulas group them first; no product is
        re-associated.  Raises :class:`DomainError` outside the box (NaN
        and +-inf included) or when a correlation leaves its validity
        domain: errors are reported, never clamped.
        """
        case_id, passes, elbow, duty = self.case_id, self.passes, self.elbow_loss, self.duty
        k1, n1 = LAYOUT_CONSTANTS[(self.layout, passes)]
        triangular, geometry = self.layout == "triangular", self.area_convention == "geometry"
        eff, eff_on_shell = self.pump_efficiency, self.efficiency_on_shell
        lmtd, f_corr = self.lmtd, self.correction_factor
        t, s = self.tube, self.shell
        m_t, rho_t, mu_t, k_t, foul_t = (t.mass_flow, t.density, t.viscosity,
                                         t.conductivity, t.fouling)
        m_s, rho_s, mu_s, k_s, foul_s = (s.mass_flow, s.density, s.viscosity,
                                         s.conductivity, s.fouling)
        pr_t, pr_s, wall_t, wall_s = t.prandtl, s.prandtl, t.wall_correction, s.wall_correction
        pr_t_tenth, pr_t_23 = 0.1 * pr_t, pr_t ** (2.0 / 3.0) - 1.0
        pr_t_13, pr_s_13 = pr_t ** (1.0 / 3.0), pr_s ** (1.0 / 3.0)
        (lo_o, lo_s, lo_b, lo_l), (hi_o, hi_s, hi_b, hi_l) = LOWER, UPPER
        pi, log10, sqrt, inf = math.pi, math.log10, math.sqrt, math.inf
        quarter_pi, price = pi / 4.0, ENERGY_PRICE * HOURS_PER_YEAR
        new, design = tuple.__new__, StheDesign

        def chain(d_o, shell_d, baffle, length):
            # chained comparisons also reject NaN and +-inf
            if not (lo_o <= d_o <= hi_o and lo_s <= shell_d <= hi_s
                    and lo_b <= baffle <= hi_b and lo_l <= length <= hi_l):
                raise DomainError(f"decision vector {[d_o, shell_d, baffle, length]} "
                                  f"outside case-{case_id} bounds")
            d_i = BORE_RATIO * d_o
            pitch, clearance = PITCH_RATIO * d_o, CLEARANCE_RATIO * d_o
            tube_count = k1 * (shell_d / d_o) ** n1

            flow_area = quarter_pi * d_i * d_i * tube_count / passes
            v_t = m_t / (rho_t * flow_area)
            re_t = rho_t * v_t * d_i / mu_t
            if not 0.0 < re_t < inf:
                raise DomainError("tube-side Reynolds number out of domain")
            f_t = (1.82 * log10(re_t) - 1.64) ** -2
            # tube-side Nusselt number.  Laminar (< 2300): Hausen,
            # developing flow (depends on L).  Transition: Gnielinski with
            # the (1+(d_i/L)^0.67) entrance factor.  Turbulent (>= 1e4):
            # Sieder-Tate with the wall-viscosity correction.
            if re_t < 2300.0:
                x = re_t * pr_t * d_i / length
                nu_t = 3.657 + 0.0677 * x ** 1.33 / (
                    1.0 + pr_t_tenth * (re_t * d_i / length) ** 0.3)
            elif re_t < 1.0e4:
                fac = f_t / 8.0
                nu_t = (fac * (re_t - 1000.0) * pr_t / (1.0 + 12.7 * sqrt(fac) * pr_t_23)
                        * (1.0 + (d_i / length) ** 0.67))
            else:
                nu_t = 0.027 * re_t ** 0.8 * pr_t_13 * wall_t
            h_t = nu_t * k_t / d_i
            dp_t = rho_t * v_t * v_t / 2.0 * ((length / d_i) * f_t + elbow) * passes

            # both positive in the box: cross_area is 0.2 * D_s * b, and d_e
            # a positive multiple of d_o for either layout
            cross_area = shell_d * baffle * clearance / pitch
            if triangular:
                d_e = 4.0 * (0.43 * pitch * pitch - pi * d_o * d_o / 8.0) / (pi * d_o / 2.0)
            else:
                d_e = 4.0 * (pitch * pitch - pi * d_o * d_o / 4.0) / (pi * d_o)
            v_s = m_s / (rho_s * cross_area)
            re_s = rho_s * v_s * d_e / mu_s
            h_s = 0.36 * (k_s / d_e) * re_s ** 0.55 * pr_s_13 * wall_s
            f_s = 1.44 * re_s ** -0.15
            dp_s = rho_s * v_s * v_s / 2.0 * (length / baffle) * (shell_d / d_e) * f_s

            u = 1.0 / (1.0 / h_s + foul_s + (d_o / d_i) * (foul_t + 1.0 / h_t))
            if geometry:
                area = pi * d_o * length * tube_count
            else:
                area = duty / (u * f_corr * lmtd)
            if not 0.0 < area < inf:
                raise DomainError("required area out of domain")

            investment = BASE_COST + AREA_COEFF * area ** AREA_EXP
            p_tube = m_t * dp_t / rho_t
            p_shell = m_s * dp_s / rho_s
            if eff_on_shell:
                power = (p_tube + p_shell) / eff
            else:
                power = p_tube / eff + p_shell
            annual = price * power / 1000.0
            discounted = annual * ANNUITY
            total = investment + discounted
            if not -inf < total < inf:
                raise DomainError("cost diverged")
            # in field order; tuple.__new__ skips the 32-argument __new__
            return new(design, (
                d_o, d_i, shell_d, baffle, length, pitch, clearance, passes,
                tube_count, v_t, re_t, pr_t, h_t, f_t, dp_t,
                cross_area, d_e, v_s, re_s, pr_s, h_s, f_s, dp_s,
                u, lmtd, f_corr, area, investment, annual, discounted, total, power,
            ))

        return chain


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
        For a vector of the wrong shape, and where :attr:`StheCase.chain`
        raises it.
    """
    vec = np.asarray(d, dtype=float)
    if vec.shape != (4,):
        raise DomainError(f"decision vector must have shape (4,); got {vec.shape}")
    return case.chain(*vec.tolist())


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
    """Wrap an exchanger case as a :class:`BoundedProblem` (4 variables).

    Its objective is :func:`total_cost` on the float64 ``(4,)`` array
    ``evaluate`` guarantees: ``x.tolist()`` goes straight to the chain.
    """
    chain = make_case(case_id).chain

    def cost(x):
        try:
            return chain(*x.tolist()).total
        except DomainError:
            return INFEASIBLE_COST

    return BoundedProblem(name=f"sthe{case_id}", dim=4, lower=LOWER, upper=UPPER, func=cost)


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
