"""End-to-end acceptance gate.

Twelve checks, one test each, covering the published arithmetic, the
dispatch oracle, the randomized invariant suites, optimizer soundness, the
storage-price and rigidity properties, report identities, and byte-level
determinism.  Each test prints one ``criterion N pass`` line and enforces
its own runtime budget.
"""

import itertools
import time

import numpy as np
import pytest

from firmdispatch import (
    KIND_CAPACITY_FACTOR,
    KIND_DEMAND,
    AlignedDataset,
    CapacityMix,
    CostBook,
    SearchSpace,
    SimParams,
    SizingTable,
    TimeSeries,
    load_series,
    optimize,
    run_pv_only,
    run_rigidity,
    simulate,
    size_dispatch,
)
from firmdispatch.cli import main
from firmdispatch.costing import crf, fuel_cost_per_mwh
from firmdispatch.optimizer import grid_axis
from firmdispatch.profiles import demand_stats, synthesize_dataset
from firmdispatch.scenarios import build_report

from conftest import FIXTURES, random_dataset, random_mix, random_params
from oracle import evaluate, system_cost


def _week_fixture():
    return AlignedDataset(
        demand=load_series(FIXTURES / "demand.csv", KIND_DEMAND),
        wind_cf=load_series(FIXTURES / "wind_cf.csv", KIND_CAPACITY_FACTOR),
        pv_cf=load_series(FIXTURES / "pv_cf.csv", KIND_CAPACITY_FACTOR),
    )


def test_criterion_01_amortized_dispatch_capex():
    annual = crf(0.08, 30) * 800.0
    assert abs(annual - 71.0) <= 0.1
    print(f"criterion 1 pass: crf(0.08, 30) x 800 USD/kW = {annual:.2f} USD/kW/yr")


def test_criterion_02_capacity_payment():
    # 29 GW of firm plant spread over 231 TWh served, fixed O&M 40 USD/kW/yr
    hours = 8760
    level = (231000.0 - 34.0) / (hours - 1)
    demand = np.full(hours, level)
    demand[0] = 34.0
    data = AlignedDataset(
        demand=TimeSeries(demand, 1.0, KIND_DEMAND),
        wind_cf=TimeSeries(np.zeros(hours), 1.0, KIND_CAPACITY_FACTOR),
        pv_cf=TimeSeries(np.zeros(hours), 1.0, KIND_CAPACITY_FACTOR),
    )
    mix = CapacityMix(dispatch_gw=29.0)
    book = CostBook(fixed_om_dispatch_usd_per_kw_yr=40.0)
    cost = system_cost(mix, simulate(mix, data), book)

    assert abs(cost.capacity_payment_usd_per_kw_yr - 111.0) <= 0.5
    assert abs(cost.capacity_payment_usd_per_mwh - 14.0) <= 0.5
    print(
        f"criterion 2 pass: capacity payment {cost.capacity_payment_usd_per_kw_yr:.2f} "
        f"USD/kW/yr, {cost.capacity_payment_usd_per_mwh:.2f} USD/MWh"
    )


def test_criterion_03_fuel_variable_cost():
    assert fuel_cost_per_mwh(CostBook()) == 200.0
    print("criterion 3 pass: 20 USD/GJ x 10 GJ/MWh = 200 USD/MWh exactly")


def test_criterion_04_baseload_energy():
    hours = 8760
    data = AlignedDataset(
        demand=TimeSeries(np.full(hours, 30.0), 1.0, KIND_DEMAND),
        wind_cf=TimeSeries(np.zeros(hours), 1.0, KIND_CAPACITY_FACTOR),
        pv_cf=TimeSeries(np.zeros(hours), 1.0, KIND_CAPACITY_FACTOR),
    )
    mix = CapacityMix(dispatch_gw=30.0, baseload_gw=10.0, baseload_eaf=0.70)
    report = build_report(mix, simulate(mix, data), data)
    assert report.baseload_energy_twh == 10.0 * 0.70 * hours / 1000.0
    assert abs(report.baseload_energy_twh - 61.0) <= 0.5
    print(f"criterion 4 pass: 10 GW x 0.70 x 8760 h = {report.baseload_energy_twh:.2f} TWh")


def test_criterion_05_dispatch_oracle():
    data = AlignedDataset(
        demand=TimeSeries(np.array([10.0, 10.0, 10.0, 10.0]), 1.0, KIND_DEMAND),
        wind_cf=TimeSeries(np.array([1.0, 0.0, 0.5, 0.0]), 1.0, KIND_CAPACITY_FACTOR),
        pv_cf=TimeSeries(np.zeros(4), 1.0, KIND_CAPACITY_FACTOR),
    )
    mix = CapacityMix(wind_gw=20.0, battery_power_gw=5.0, battery_hours=1.0, dispatch_gw=10.0)
    result = simulate(mix, data, SimParams(round_trip_efficiency=0.85))

    assert result.dispatch_energy_twh * 1000.0 == 15.75
    assert result.curtailed_twh * 1000.0 == 5.0
    assert result.peak_dispatch_gw == 10.0
    assert result.final_soc_gwh == 0.0
    assert list(result.trace.soc_gwh) == [4.25, 0.0, 0.0, 0.0]
    print("criterion 5 pass: hand trace gives 15.75 GWh dispatch, 5 GWh curtailed, 10 GW peak, SOC 0")


def test_criterion_06_balance_invariants():
    t0 = time.monotonic()
    rng = np.random.default_rng(1006)
    lambdas = (0.5, 2.0, 10.0)
    for _ in range(1000):
        data = random_dataset(rng)
        mix = random_mix(rng, with_baseload=rng.random() < 0.3)
        params = random_params(rng)
        result = simulate(mix, data, params)
        trace = result.trace
        dt = data.dt_hours

        # the dispatch row is generation to demand; battery charging from
        # spare dispatch sits in its own row outside the demand balance
        served_renewably = trace.renewable_to_demand_gw
        balance = (
            trace.baseload_gw
            + served_renewably
            + trace.battery_discharge_gw
            + trace.dispatch_gw
            + trace.unserved_gw
        )
        np.testing.assert_allclose(balance, data.demand.values, rtol=0, atol=1e-9)

        ren_gen = mix.wind_gw * data.wind_cf.values + mix.pv_gw * data.pv_cf.values
        charge_from_ren = trace.battery_charge_gw - trace.charge_from_dispatch_gw
        split = served_renewably + charge_from_ren + trace.curtailed_gw
        np.testing.assert_allclose(split, ren_gen, rtol=0, atol=1e-9)

        cap = mix.battery_power_gw * mix.battery_hours
        assert np.all(trace.soc_gwh >= -1e-9) and np.all(trace.soc_gwh <= cap + 1e-9)

        soc_prev = np.concatenate(([params.initial_soc_fraction * cap], trace.soc_gwh[:-1]))
        charged = params.round_trip_efficiency * trace.battery_charge_gw * dt
        ledger = soc_prev + charged - trace.battery_discharge_gw * dt
        np.testing.assert_allclose(trace.soc_gwh, ledger, rtol=0, atol=1e-9)

    # homogeneity: scaling demand and every capacity scales every energy
    rng = np.random.default_rng(1606)
    for _ in range(100):
        data = random_dataset(rng)
        mix = random_mix(rng, with_baseload=rng.random() < 0.3)
        params = random_params(rng)
        base = simulate(mix, data, params)
        for lam in lambdas:
            scaled_data = AlignedDataset(
                demand=TimeSeries(data.demand.values * lam, data.dt_hours, KIND_DEMAND),
                wind_cf=data.wind_cf,
                pv_cf=data.pv_cf,
            )
            scaled_mix = CapacityMix(
                wind_gw=mix.wind_gw * lam,
                pv_gw=mix.pv_gw * lam,
                battery_power_gw=mix.battery_power_gw * lam,
                battery_hours=mix.battery_hours,
                dispatch_gw=mix.dispatch_gw * lam,
                baseload_gw=mix.baseload_gw * lam,
                baseload_eaf=mix.baseload_eaf,
            )
            scaled = simulate(scaled_mix, scaled_data, params)
            for field in (
                "dispatch_energy_twh",
                "curtailed_twh",
                "unserved_energy_twh",
                "renewable_gen_twh",
                "wind_energy_twh",
                "pv_energy_twh",
            ):
                np.testing.assert_allclose(
                    getattr(scaled, field), lam * getattr(base, field), rtol=1e-9, atol=1e-12
                )

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 6 pass: 1000 simulations hold all invariants ({elapsed:.1f}s)")


def test_criterion_07_endogenous_sizing():
    t0 = time.monotonic()
    rng = np.random.default_rng(1007)
    deficits = 0
    for _ in range(100):
        n_steps = int(rng.integers(48, 240))
        drought = None
        if rng.random() < 0.4:
            lo = int(rng.integers(0, n_steps - 24))
            drought = (lo, int(rng.integers(lo + 8, min(lo + 72, n_steps))))
        data = random_dataset(rng, n_steps=n_steps, drought=drought)
        candidate = random_mix(rng)
        params = SimParams(
            round_trip_efficiency=0.5 + 0.5 * rng.random(),
            initial_soc_fraction=rng.random(),
        )
        size = size_dispatch(candidate, data, params)
        from dataclasses import replace

        sized = replace(candidate, dispatch_gw=size)
        assert simulate(sized, data, params).unserved_energy_twh == 0.0
        if size > 0.0:
            deficits += 1
            shaved = replace(candidate, dispatch_gw=max(size - 0.01, 0.0))
            assert simulate(shaved, data, params).unserved_energy_twh > 0.0
    elapsed = time.monotonic() - t0
    assert deficits > 0
    assert elapsed < 60.0
    print(f"criterion 7 pass: sizing exact on 100 fixtures, {deficits} with deficits ({elapsed:.1f}s)")


def test_criterion_08_optimizer_vs_brute_force():
    t0 = time.monotonic()
    data = _week_fixture()
    space = SearchSpace(
        wind_gw=(0.0, 40.0, 10.0),
        pv_gw=(0.0, 28.0, 7.0),
        battery_power_gw=(0.0, 20.0, 5.0),
        battery_hours=(0.0, 1.0, 2.0, 4.0, 8.0),
    )
    brute_min = min(
        evaluate(
            CapacityMix(wind_gw=w, pv_gw=p, battery_power_gw=bp, battery_hours=bh), data
        ).cost.unit_cost_usd_per_mwh
        for w, p, bp, bh in itertools.product(
            grid_axis(*space.wind_gw),
            grid_axis(*space.pv_gw),
            grid_axis(*space.battery_power_gw),
            space.battery_hours,
        )
    )
    optim = optimize(space, data)
    elapsed = time.monotonic() - t0
    assert optim.best.cost.unit_cost_usd_per_mwh <= brute_min + 1e-12
    assert elapsed < 300.0
    print(
        f"criterion 8 pass: optimize {optim.best.cost.unit_cost_usd_per_mwh:.4f} <= "
        f"brute force {brute_min:.4f} USD/MWh over 625 mixes ({elapsed:.1f}s)"
    )


def test_criterion_09_cheap_storage_does_not_shrink_firm_capacity():
    t0 = time.monotonic()
    # a year with a 72 h resource drought ending just past the annual demand
    # peak; no candidate battery (10 GW x 24 h) can bridge the ~670 GWh of
    # lead demand, so the peak hour always lands on firm capacity alone
    base = synthesize_dataset(17, 8760)
    t_star = int(np.argmax(base.demand.values))
    data = synthesize_dataset(17, 8760, droughts=((t_star - 60, t_star + 12),))
    space = SearchSpace(
        wind_gw=(0.0, 40.0, 5.0),
        pv_gw=(0.0, 30.0, 5.0),
        battery_power_gw=(0.0, 10.0, 5.0),
        battery_hours=(0.0, 2.0, 8.0, 24.0),
    )
    # the books differ in price only, so their searches share one sizing table
    table = SizingTable(data)
    runs = [
        optimize(space, data, book=CostBook(capex_battery_usd_per_kwh=price), table=table)
        for price in (200.0, 50.0, 10.0)
    ]
    elapsed = time.monotonic() - t0

    dispatch = [o.best.mix.dispatch_gw for o in runs]
    energy = [o.best.result.dispatch_energy_twh for o in runs]
    coarse_step = space.wind_gw[2]
    assert max(dispatch) - min(dispatch) <= coarse_step
    assert energy[0] >= energy[1] >= energy[2]
    assert elapsed < 300.0
    print(
        f"criterion 9 pass: installed dispatch {dispatch[0]:.3f}/{dispatch[1]:.3f}/"
        f"{dispatch[2]:.3f} GW at 200/50/10 USD/kWh, energy {energy[0]:.2f} >= "
        f"{energy[1]:.2f} >= {energy[2]:.2f} TWh ({elapsed:.1f}s)"
    )


def test_criterion_10_pv_only_rigidity():
    t0 = time.monotonic()
    data = synthesize_dataset(seed=3, total_hours=120)
    params = SimParams(initial_soc_fraction=0.5)
    report = run_pv_only(data, params)
    mix = CapacityMix(
        pv_gw=report.pv_gw,
        battery_power_gw=report.battery_power_gw,
        battery_hours=report.battery_hours,
    )
    rigidity = run_rigidity(mix, data, params, step=0.01)
    elapsed = time.monotonic() - t0
    assert rigidity.failure_multiplier <= 1.02 + 1e-12
    assert elapsed < 60.0
    print(
        f"criterion 10 pass: exactly-sized PV-only mix fails at "
        f"{100 * rigidity.failure_multiplier:.0f}% demand ({elapsed:.1f}s)"
    )


def test_criterion_11_report_identities():
    # published system: wind 64 GW, PV 24 GW, dispatch 29 GW against a
    # 34 GW peak and 231 TWh year
    hours = 8760
    level = (231000.0 - 34.0) / (hours - 1)
    demand = np.full(hours, level)
    demand[0] = 34.0
    data = AlignedDataset(
        demand=TimeSeries(demand, 1.0, KIND_DEMAND),
        wind_cf=TimeSeries(np.full(hours, 0.36), 1.0, KIND_CAPACITY_FACTOR),
        pv_cf=TimeSeries(np.full(hours, 0.26), 1.0, KIND_CAPACITY_FACTOR),
    )
    mix = CapacityMix(
        wind_gw=64.0, pv_gw=24.0, battery_power_gw=13.0, battery_hours=4.0, dispatch_gw=29.0
    )
    report = build_report(mix, simulate(mix, data), data)

    stats = demand_stats(data.demand)
    assert report.wind_pct_of_peak == 100.0 * mix.wind_gw / stats.peak_gw
    assert report.pv_pct_of_peak == 100.0 * mix.pv_gw / stats.peak_gw
    assert report.dispatch_pct_of_peak == 100.0 * mix.dispatch_gw / stats.peak_gw
    assert report.dispatch_pct_of_average == 100.0 * mix.dispatch_gw / stats.average_gw
    assert report.battery_energy_gwh == 13.0 * 4.0

    assert abs(report.wind_pct_of_peak - 188.0) <= 2.0
    assert abs(report.pv_pct_of_peak - 70.0) <= 2.0
    assert abs(report.dispatch_pct_of_peak - 84.0) <= 2.0
    assert abs(report.dispatch_pct_of_average - 109.0) <= 2.0
    print(
        f"criterion 11 pass: percent rows recompute exactly; published rows "
        f"{report.wind_pct_of_peak:.1f}/{report.pv_pct_of_peak:.1f}/"
        f"{report.dispatch_pct_of_peak:.1f}/{report.dispatch_pct_of_average:.1f} "
        "within 2 points of 188/70/84/109"
    )


def test_criterion_12_byte_identical_runs(tmp_path):
    t0 = time.monotonic()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    conf = str(FIXTURES / "week.conf")
    assert main(["optimize", "--config", conf, "--out", str(out_a)]) == 0
    assert main(["optimize", "--config", conf, "--out", str(out_b)]) == 0
    elapsed = time.monotonic() - t0
    for name in ("report.csv", "trajectory.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert elapsed < 60.0
    print(f"criterion 12 pass: report and trajectory byte-identical across runs ({elapsed:.1f}s)")
