from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest

from firmdispatch import CapacityMix, CostBook, simulate
from firmdispatch.costing import (
    annualized_capital,
    crf,
    fixed_om,
    fuel_cost,
    fuel_cost_per_mwh,
)
from firmdispatch.profiles import scale_demand

from conftest import random_dataset, random_mix
from oracle import system_cost


def test_crf_known_values():
    assert crf(0.08, 30) == pytest.approx(0.08882743338727227, rel=1e-15)
    assert crf(0.08, 15) == pytest.approx(0.11682954493602004, rel=1e-12)
    # one-year amortization repays principal plus one year of interest
    assert crf(0.05, 1) == pytest.approx(1.05, rel=1e-12)
    # long lives converge toward pure interest
    assert crf(0.08, 1000) == pytest.approx(0.08, rel=1e-9)


def test_crf_validation():
    for rate in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError, match="rate"):
            crf(rate, 30)
    for years in (0, -5, 2.5):
        with pytest.raises(ValueError, match="years"):
            crf(0.08, years)


def test_amortized_dispatch_capacity_charge():
    # 800 USD/kW at 8 % over 30 years comes to just over 71 USD/kW-yr
    annual = crf(0.08, 30) * 800.0
    assert annual == pytest.approx(71.06194670981782, rel=1e-12)
    assert abs(annual - 71.0) <= 0.1


def test_capacity_payment_spread_over_served_energy():
    book = CostBook(fixed_om_dispatch_usd_per_kw_yr=40.0)
    per_kw_yr = crf(0.08, 30) * 800.0 + 40.0
    assert abs(per_kw_yr - 111.0) <= 0.5
    per_mwh = 29.0 * 1e6 * per_kw_yr / (231.0 * 1e6)
    assert abs(per_mwh - 14.0) <= 0.5

    # the same numbers through system_cost
    data = random_dataset(np.random.default_rng(8), n_steps=48)
    mix = CapacityMix(dispatch_gw=float(np.max(data.demand.values)))
    cost = system_cost(mix, simulate(mix, data), book)
    assert cost.capacity_payment_usd_per_kw_yr == pytest.approx(per_kw_yr, rel=1e-12)
    assert cost.capacity_payment_usd_per_mwh == pytest.approx(
        mix.dispatch_gw * 1e6 * per_kw_yr / cost.energy_served_mwh, rel=1e-12
    )


def test_fuel_arithmetic():
    book = CostBook()
    assert fuel_cost_per_mwh(book) == 200.0
    assert fuel_cost(1.0, book) == 200.0 * 1e6
    assert fuel_cost(0.0, book) == 0.0
    cheap = CostBook(fuel_price_usd_per_gj=10.0)
    assert fuel_cost_per_mwh(cheap) == 100.0
    with pytest.raises(ValueError, match="dispatch_energy_twh"):
        fuel_cost(-1.0, book)


def test_annualized_capital_longhand():
    book = CostBook()
    mix = CapacityMix(
        wind_gw=64.0, pv_gw=24.0, battery_power_gw=5.0, battery_hours=4.0, dispatch_gw=29.0
    )
    expected = (
        64.0 * 1e6 * 1200.0 * crf(0.08, 30)
        + 24.0 * 1e6 * 1000.0 * crf(0.08, 30)
        + 29.0 * 1e6 * 800.0 * crf(0.08, 30)
        + 20.0 * 1e6 * 200.0 * crf(0.08, 15)
    )
    assert annualized_capital(mix, book) == pytest.approx(expected, rel=1e-12)

    # baseload carries no capital
    with_base = CapacityMix(
        wind_gw=64.0,
        pv_gw=24.0,
        battery_power_gw=5.0,
        battery_hours=4.0,
        dispatch_gw=29.0,
        baseload_gw=10.0,
        baseload_eaf=0.7,
    )
    assert annualized_capital(with_base, book) == annualized_capital(mix, book)


def test_capital_is_additive_in_capacity():
    rng = np.random.default_rng(12)
    book = CostBook()
    for _ in range(10):
        a = random_mix(rng)
        b = random_mix(rng)
        if a.battery_hours != b.battery_hours:
            # battery energy adds only when hours match; pin them
            b = CapacityMix(
                wind_gw=b.wind_gw,
                pv_gw=b.pv_gw,
                battery_power_gw=b.battery_power_gw,
                battery_hours=a.battery_hours,
                dispatch_gw=b.dispatch_gw,
            )
        both = CapacityMix(
            wind_gw=a.wind_gw + b.wind_gw,
            pv_gw=a.pv_gw + b.pv_gw,
            battery_power_gw=a.battery_power_gw + b.battery_power_gw,
            battery_hours=a.battery_hours,
            dispatch_gw=a.dispatch_gw + b.dispatch_gw,
        )
        assert annualized_capital(both, book) == pytest.approx(
            annualized_capital(a, book) + annualized_capital(b, book), rel=1e-12
        )
        assert fixed_om(both, book) == pytest.approx(
            fixed_om(a, book) + fixed_om(b, book), rel=1e-12
        )


def test_battery_capital_charged_on_energy_om_on_power():
    book = CostBook(capex_battery_usd_per_kwh=100.0, fixed_om_battery_usd_per_kw_yr=3.0)
    short = CapacityMix(battery_power_gw=10.0, battery_hours=1.0)
    long = CapacityMix(battery_power_gw=10.0, battery_hours=4.0)
    assert annualized_capital(long, book) == pytest.approx(
        4.0 * annualized_capital(short, book), rel=1e-12
    )
    assert fixed_om(long, book) == fixed_om(short, book)


def test_unit_cost_invariant_under_joint_scaling():
    rng = np.random.default_rng(13)
    book = CostBook()
    for _ in range(5):
        data = random_dataset(rng, n_steps=72)
        mix = random_mix(rng)
        base = system_cost(mix, simulate(mix, data), book)
        for lam in (0.5, 2.0, 10.0):
            scaled_mix = CapacityMix(
                wind_gw=lam * mix.wind_gw,
                pv_gw=lam * mix.pv_gw,
                battery_power_gw=lam * mix.battery_power_gw,
                battery_hours=mix.battery_hours,
                dispatch_gw=lam * mix.dispatch_gw,
            )
            scaled_data = scale_demand(data, lam)
            scaled = system_cost(scaled_mix, simulate(scaled_mix, scaled_data), book)
            assert scaled.unit_cost_usd_per_mwh == pytest.approx(
                base.unit_cost_usd_per_mwh, rel=1e-9
            )
            assert scaled.total_usd == pytest.approx(lam * base.total_usd, rel=1e-9)


def test_system_cost_totals_are_consistent():
    rng = np.random.default_rng(14)
    book = CostBook()
    data = random_dataset(rng, n_steps=96)
    mix = random_mix(rng)
    result = simulate(mix, data)
    cost = system_cost(mix, result, book)
    assert cost.total_usd == cost.annualized_capital_usd + cost.fixed_om_usd + cost.fuel_usd
    assert cost.unit_cost_usd_per_mwh == cost.total_usd / cost.energy_served_mwh
    assert cost.energy_served_mwh == pytest.approx(
        (result.demand_energy_twh - result.unserved_energy_twh) * 1e6, rel=1e-12
    )
    assert cost.fuel_usd == fuel_cost(result.dispatch_energy_twh, book)


def test_system_cost_rejects_nothing_served():
    data = random_dataset(np.random.default_rng(15), n_steps=24)
    mix = CapacityMix()  # nothing installed, all demand unserved
    result = simulate(mix, data)
    with pytest.raises(ValueError, match="energy served"):
        system_cost(mix, result, CostBook())


def test_cost_book_validation():
    with pytest.raises(ValueError, match="interest_rate"):
        CostBook(interest_rate=0.0)
    with pytest.raises(ValueError, match="capex_wind_usd_per_kw"):
        CostBook(capex_wind_usd_per_kw=-1.0)
    with pytest.raises(ValueError, match="life_battery_years"):
        CostBook(life_battery_years=0)
    with pytest.raises(ValueError, match="heat_rate_gj_per_mwh"):
        CostBook(heat_rate_gj_per_mwh=float("nan"))


# Told apart by their defaults, not by their annotations, which the checks read.
PRICES = [
    f.name for f in fields(CostBook) if isinstance(f.default, float) and f.name != "interest_rate"
]
LIFETIMES = [f.name for f in fields(CostBook) if isinstance(f.default, int)]


@pytest.mark.parametrize("value", [-1.0, math.nan])
@pytest.mark.parametrize("name", PRICES)
def test_every_price_is_range_checked(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0"):
        CostBook(**{name: value})


@pytest.mark.parametrize("value", [0, 1.5])
@pytest.mark.parametrize("name", LIFETIMES)
def test_every_lifetime_is_range_checked(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer"):
        CostBook(**{name: value})


def test_cost_book_checks_prices_before_lifetimes():
    assert (len(PRICES), len(LIFETIMES)) == (10, 4)
    with pytest.raises(ValueError, match="^fixed_om_pv_usd_per_kw_yr "):
        CostBook(fixed_om_pv_usd_per_kw_yr=-1.0, life_wind_years=0)
