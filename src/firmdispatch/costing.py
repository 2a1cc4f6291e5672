"""Annualized system cost of a capacity mix.

Capital is converted to an annual payment with the capital recovery factor,
fixed operation and maintenance is charged per installed kW and year, and
fuel is charged per MWh of dispatchable generation through a heat rate.
Baseload is treated as existing plant: it carries no capital, O&M, or fuel
in the objective.  The headline figure is total annual cost divided by
energy served, in USD/MWh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .dispatch import CapacityMix

KW_PER_GW = 1e6
MWH_PER_TWH = 1e6


@dataclass(frozen=True)
class CostBook:
    """Price and financing assumptions.

    Overnight capital is USD per kW for generators and USD per kWh for
    battery energy capacity.  Fixed O&M is USD per kW-year (battery O&M is
    charged on power).  Fuel enters as USD per GJ with a heat rate in GJ per
    MWh of generation.
    """

    capex_wind_usd_per_kw: float = 1200.0
    capex_pv_usd_per_kw: float = 1000.0
    capex_dispatch_usd_per_kw: float = 800.0
    capex_battery_usd_per_kwh: float = 200.0
    interest_rate: float = 0.08
    life_wind_years: int = 30
    life_pv_years: int = 30
    life_dispatch_years: int = 30
    life_battery_years: int = 15
    fixed_om_wind_usd_per_kw_yr: float = 0.0
    fixed_om_pv_usd_per_kw_yr: float = 0.0
    fixed_om_dispatch_usd_per_kw_yr: float = 8.0
    fixed_om_battery_usd_per_kw_yr: float = 0.0
    fuel_price_usd_per_gj: float = 20.0
    heat_rate_gj_per_mwh: float = 10.0

    def __post_init__(self) -> None:
        for name in _PRICES:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not (0.0 < self.interest_rate < 1.0):
            raise ValueError(f"interest_rate must be in (0, 1), got {self.interest_rate!r}")
        for name in _LIFETIMES:
            value = getattr(self, name)
            if not (isinstance(value, int) and value >= 1):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")


# The prices that must be finite and >= 0 and the lifetimes that must be
# positive integers, by declared type, in field order.
_PRICES = tuple(
    f.name for f in fields(CostBook) if f.type == "float" and f.name != "interest_rate"
)
_LIFETIMES = tuple(f.name for f in fields(CostBook) if f.type == "int")

DEFAULT_BOOK = CostBook()


@dataclass(frozen=True)
class SystemCost:
    """Annual cost components in USD per year, plus the per-MWh figures."""

    annualized_capital_usd: float
    fixed_om_usd: float
    fuel_usd: float
    total_usd: float
    energy_served_mwh: float
    unit_cost_usd_per_mwh: float
    capacity_payment_usd_per_kw_yr: float
    capacity_payment_usd_per_mwh: float


def crf(rate: float, years: int) -> float:
    """Capital recovery factor.

    Fraction of an overnight cost payable each year to amortize it over
    ``years`` at annual interest ``rate``:
    ``rate * (1 + rate)**years / ((1 + rate)**years - 1)``.
    """
    if not (0.0 < rate < 1.0):
        raise ValueError(f"rate must be in (0, 1), got {rate!r}")
    if not (isinstance(years, int) and years >= 1):
        raise ValueError(f"years must be a positive integer, got {years!r}")
    growth = (1.0 + rate) ** years
    return rate * growth / (growth - 1.0)


def annualized_capital(mix: CapacityMix, book: CostBook) -> float:
    """Annual capital payment in USD for the whole mix, baseload excluded."""
    rate = book.interest_rate
    return (
        mix.wind_gw * KW_PER_GW * book.capex_wind_usd_per_kw * crf(rate, book.life_wind_years)
        + mix.pv_gw * KW_PER_GW * book.capex_pv_usd_per_kw * crf(rate, book.life_pv_years)
        + mix.dispatch_gw
        * KW_PER_GW
        * book.capex_dispatch_usd_per_kw
        * crf(rate, book.life_dispatch_years)
        + mix.battery_energy_gwh
        * KW_PER_GW
        * book.capex_battery_usd_per_kwh
        * crf(rate, book.life_battery_years)
    )


def fixed_om(mix: CapacityMix, book: CostBook) -> float:
    """Annual fixed O&M in USD; battery O&M is charged on power capacity."""
    return KW_PER_GW * (
        mix.wind_gw * book.fixed_om_wind_usd_per_kw_yr
        + mix.pv_gw * book.fixed_om_pv_usd_per_kw_yr
        + mix.dispatch_gw * book.fixed_om_dispatch_usd_per_kw_yr
        + mix.battery_power_gw * book.fixed_om_battery_usd_per_kw_yr
    )


def fuel_cost_per_mwh(book: CostBook) -> float:
    """Marginal fuel cost of dispatchable generation in USD per MWh."""
    return book.fuel_price_usd_per_gj * book.heat_rate_gj_per_mwh


def fuel_cost(dispatch_energy_twh: float, book: CostBook) -> float:
    """Annual fuel bill in USD for the given dispatchable generation."""
    if not (math.isfinite(dispatch_energy_twh) and dispatch_energy_twh >= 0.0):
        raise ValueError(
            f"dispatch_energy_twh must be finite and >= 0, got {dispatch_energy_twh!r}"
        )
    return dispatch_energy_twh * MWH_PER_TWH * fuel_cost_per_mwh(book)


def cost_from_energy(
    mix: CapacityMix, served_twh: float, dispatch_energy_twh: float, book: CostBook
) -> SystemCost:
    """Assemble the annual cost of a mix from the energy it serves and dispatches.

    The capacity payment is
    the annualized capital and fixed O&M of the dispatchable plant alone,
    expressed per kW-year and spread over every MWh served.
    """
    served_mwh = served_twh * MWH_PER_TWH
    if served_mwh <= 0.0:
        raise ValueError(f"energy served must be positive, got {served_mwh!r} MWh")

    capital = annualized_capital(mix, book)
    om = fixed_om(mix, book)
    fuel = fuel_cost(dispatch_energy_twh, book)
    total = capital + om + fuel

    dispatch_kw_yr = (
        book.capex_dispatch_usd_per_kw * crf(book.interest_rate, book.life_dispatch_years)
        + book.fixed_om_dispatch_usd_per_kw_yr
    )
    return SystemCost(
        annualized_capital_usd=capital,
        fixed_om_usd=om,
        fuel_usd=fuel,
        total_usd=total,
        energy_served_mwh=served_mwh,
        unit_cost_usd_per_mwh=total / served_mwh,
        capacity_payment_usd_per_kw_yr=dispatch_kw_yr,
        capacity_payment_usd_per_mwh=mix.dispatch_gw * KW_PER_GW * dispatch_kw_yr / served_mwh,
    )
