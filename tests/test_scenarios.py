"""Scenario runners: report assembly, sizing studies, and CSV rendering."""

import csv
import math
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firmdispatch import (
    KIND_CAPACITY_FACTOR,
    KIND_DEMAND,
    AlignedDataset,
    CapacityMix,
    CostBook,
    InfeasibleError,
    OptimizeOptions,
    SearchSpace,
    SimParams,
    TimeSeries,
    run_base,
    run_fuel_sensitivity,
    run_low_storage,
    run_pv_only,
    run_residual_baseload,
    run_rigidity,
    simulate,
    size_dispatch,
    write_report_csv,
)
from firmdispatch import _kernels, dispatch, scenarios
from firmdispatch.dispatch import TRACE_COLUMNS
from firmdispatch.profiles import demand_stats, scale_demand, synthesize_dataset
from firmdispatch.scenarios import (
    SCENARIO_NAMES,
    ScenarioReport,
    build_report,
    low_storage_extra_rows,
    write_rigidity_csv,
)

from conftest import random_dataset, random_mix, random_params
from oracle import evaluate

# stop after the coarse grid so two runs share an identical candidate set
COARSE_ONLY = OptimizeOptions(refine_tolerance_gw=1e9, refine_tolerance_hours=1e9)


def _flat_dataset(demand_gw, wind_cf, pv_cf, n_steps=48, dt_hours=1.0):
    return AlignedDataset(
        demand=TimeSeries(np.full(n_steps, demand_gw), dt_hours, KIND_DEMAND, "flat"),
        wind_cf=TimeSeries(np.full(n_steps, wind_cf), dt_hours, KIND_CAPACITY_FACTOR, "wind"),
        pv_cf=TimeSeries(np.full(n_steps, pv_cf), dt_hours, KIND_CAPACITY_FACTOR, "pv"),
    )


def _day_night_dataset(n_hours=96, day_first=True):
    """Square-wave PV over a flat 1 GW demand, 12 h sun and 12 h dark."""
    assert n_hours % 24 == 0
    cycle = [1.0] * 12 + [0.0] * 12 if day_first else [0.0] * 12 + [1.0] * 12
    pv = np.tile(np.asarray(cycle), n_hours // 24)
    return AlignedDataset(
        demand=TimeSeries(np.ones(n_hours), 1.0, KIND_DEMAND, "flat"),
        wind_cf=TimeSeries(np.zeros(n_hours), 1.0, KIND_CAPACITY_FACTOR, "wind"),
        pv_cf=TimeSeries(pv, 1.0, KIND_CAPACITY_FACTOR, "pv"),
    )


@pytest.fixture(scope="module")
def week_data():
    return synthesize_dataset(seed=11, total_hours=96)


@pytest.fixture(scope="module")
def tiny_space(week_data):
    peak = demand_stats(week_data.demand).peak_gw
    return SearchSpace(
        wind_gw=(0.0, 2.0 * peak, peak),
        pv_gw=(0.0, 2.0 * peak, peak),
        battery_power_gw=(0.0, peak, 0.5 * peak),
        battery_hours=(0.0, 2.0, 8.0),
    )


@pytest.fixture(scope="module")
def base_run(week_data, tiny_space):
    return run_base(week_data, space=tiny_space)


def test_scenario_names():
    assert SCENARIO_NAMES == (
        "base",
        "low-storage",
        "pv-only",
        "rigidity",
        "residual-baseload",
        "fuel-sensitivity",
    )


def test_report_percent_rows_recompute():
    rng = np.random.default_rng(31)
    for _ in range(30):
        data = random_dataset(rng)
        mix = random_mix(rng, with_baseload=rng.random() < 0.5)
        result = simulate(mix, data)
        report = build_report(mix, result, data, label="case")

        stats = demand_stats(data.demand)
        peak = stats.peak_gw
        assert report.label == "case"
        assert report.annual_demand_twh == stats.annual_energy_twh
        assert report.peak_gw == peak
        assert report.average_gw == stats.average_gw

        assert report.wind_pct_of_peak == 100.0 * mix.wind_gw / peak
        assert report.pv_pct_of_peak == 100.0 * mix.pv_gw / peak
        assert report.dispatch_pct_of_peak == 100.0 * mix.dispatch_gw / peak
        assert report.dispatch_pct_of_average == 100.0 * mix.dispatch_gw / stats.average_gw
        assert report.wind_cf_pct == 100.0 * result.wind_cf
        assert report.pv_cf_pct == 100.0 * result.pv_cf
        assert report.dispatch_cf_pct == 100.0 * result.dispatch_cf
        assert report.curtailed_pct == 100.0 * result.curtailed_fraction
        assert report.battery_energy_gwh == mix.battery_power_gw * mix.battery_hours
        assert report.baseload_eaf_pct == 100.0 * mix.baseload_eaf
        assert (
            report.baseload_energy_twh
            == mix.baseload_gw * mix.baseload_eaf * data.total_hours / 1000.0
        )

        baseload_out = mix.baseload_gw * mix.baseload_eaf
        net_peak = float(np.max(np.maximum(data.demand.values - baseload_out, 0.0)))
        assert report.net_peak_gw == net_peak
        if net_peak > 0.0:
            assert report.dispatch_pct_of_net_peak == 100.0 * mix.dispatch_gw / net_peak
        else:
            assert report.dispatch_pct_of_net_peak == 0.0

        assert report.wind_energy_twh == result.wind_energy_twh
        assert report.pv_energy_twh == result.pv_energy_twh
        assert report.dispatch_energy_twh == result.dispatch_energy_twh
        assert report.renewable_gen_twh == result.renewable_gen_twh
        assert report.curtailed_twh == result.curtailed_twh


def test_report_net_peak_clips_at_zero():
    data = _flat_dataset(10.0, 0.0, 0.0, n_steps=24)
    mix = CapacityMix(dispatch_gw=4.0, baseload_gw=20.0, baseload_eaf=1.0)
    report = build_report(mix, simulate(mix, data), data)
    assert report.net_peak_gw == 0.0
    assert report.dispatch_pct_of_net_peak == 0.0
    assert report.baseload_energy_twh == 20.0 * 1.0 * 24 / 1000.0


def test_report_zero_demand_has_no_percent_rows():
    data = _flat_dataset(0.0, 0.5, 0.5, n_steps=24)
    mix = CapacityMix(wind_gw=3.0, pv_gw=2.0, dispatch_gw=1.0)
    report = build_report(mix, simulate(mix, data), data)
    assert report.peak_gw == 0.0
    assert report.wind_pct_of_peak == 0.0
    assert report.pv_pct_of_peak == 0.0
    assert report.dispatch_pct_of_peak == 0.0
    assert report.dispatch_pct_of_average == 0.0
    assert report.dispatch_pct_of_net_peak == 0.0


# ===================== base =====================


def test_run_base_reports_its_optimum(week_data, tiny_space, base_run):
    report, optim = base_run
    assert report.label == "base"
    assert report == build_report(optim.best.mix, optim.best.result, week_data, label="base")
    assert optim.best.result.unserved_energy_twh == 0.0
    assert report.dispatch_gw == optim.best.mix.dispatch_gw


def test_run_base_rejects_baseload_space(week_data, tiny_space):
    spaced = replace(tiny_space, baseload_gw=5.0, baseload_eaf=0.7)
    with pytest.raises(ValueError, match="residual-baseload"):
        run_base(week_data, space=spaced)


# ===================== low storage =====================


def test_low_storage_at_book_price_reproduces_base(week_data, tiny_space, base_run):
    base_report, base_optim = base_run
    book = CostBook()
    report, delta, optim = run_low_storage(
        week_data, space=tiny_space, battery_price=book.capex_battery_usd_per_kwh
    )
    assert report.label == "low-storage"
    assert optim.best.mix == base_optim.best.mix
    assert delta.dispatch_delta_gw == 0.0
    assert delta.base_dispatch_gw == base_optim.best.mix.dispatch_gw
    assert delta.dispatch_gw == base_optim.best.mix.dispatch_gw
    assert delta.base_dispatch_energy_twh == delta.dispatch_energy_twh


def test_low_storage_at_book_price_sizes_each_mix_once(week_data, tiny_space, monkeypatch):
    calls = []
    sized_energy = dispatch.sized_energy
    monkeypatch.setattr(
        dispatch, "sized_energy", lambda *args: calls.append(1) or sized_energy(*args)
    )
    per_search = []
    search = scenarios.optimize

    def counted(*args, **kwargs):
        before = len(calls)
        optim = search(*args, **kwargs)
        per_search.append(len(calls) - before)
        return optim

    monkeypatch.setattr(scenarios, "optimize", counted)
    run_low_storage(
        week_data, space=tiny_space, battery_price=CostBook().capex_battery_usd_per_kwh
    )
    # the second search meets only the mixes the first one sized
    assert len(per_search) == 2
    assert per_search[0] >= 3 * 3 * 3 * 3 and per_search[1] == 0


def test_low_storage_delta_is_consistent(week_data, tiny_space):
    report, delta, optim = run_low_storage(
        week_data, space=tiny_space, battery_price=10.0, options=COARSE_ONLY
    )
    _, base_optim = run_base(week_data, space=tiny_space, options=COARSE_ONLY)

    assert delta.battery_price_usd_per_kwh == 10.0
    assert delta.dispatch_gw == optim.best.mix.dispatch_gw
    assert delta.base_dispatch_gw == base_optim.best.mix.dispatch_gw
    assert delta.dispatch_delta_gw == delta.dispatch_gw - delta.base_dispatch_gw
    assert delta.dispatch_energy_twh == optim.best.result.dispatch_energy_twh
    assert delta.base_dispatch_energy_twh == base_optim.best.result.dispatch_energy_twh
    assert report.dispatch_gw == delta.dispatch_gw

    # over one candidate set, cheaper storage can only lower the optimum and
    # can only grow the battery: (c1-c2)(B1-B2) <= 0 by exchange
    cheap_unit = optim.best.cost.unit_cost_usd_per_mwh
    base_unit = base_optim.best.cost.unit_cost_usd_per_mwh
    assert cheap_unit <= base_unit + 1e-9
    cheap_battery = optim.best.mix.battery_power_gw * optim.best.mix.battery_hours
    base_battery = base_optim.best.mix.battery_power_gw * base_optim.best.mix.battery_hours
    assert cheap_battery >= base_battery - 1e-9


def test_low_storage_rejects_bad_price(week_data, tiny_space):
    for price in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="battery_price"):
            run_low_storage(week_data, space=tiny_space, battery_price=price)


# ===================== pv only =====================


def test_pv_only_flat_sun_needs_no_battery():
    data = _flat_dataset(1.0, 0.0, 1.0, n_steps=48)
    report = run_pv_only(data)
    assert report.label == "pv-only"
    assert report.pv_gw == 1.0
    assert report.battery_power_gw == 0.0
    assert report.battery_hours == 0.0
    assert report.battery_energy_gwh == 0.0
    assert report.wind_gw == 0.0
    assert report.dispatch_gw == 0.0


def test_pv_only_day_night_sizes_exactly():
    data = _day_night_dataset(96, day_first=True)
    params = SimParams(round_trip_efficiency=1.0, initial_soc_fraction=0.0)
    report = run_pv_only(data, params)

    # 1 GW around the clock from a 12 h sun window needs 2 GW of panels:
    # 1 GW to the load and 1 GW into 12 GWh of lossless storage
    assert report.pv_gw == 2.0
    assert abs(report.battery_energy_gwh - 12.0) <= 0.1 + 1e-6
    assert report.battery_power_gw == 1.0
    assert 11.9 <= report.battery_hours <= 12.2
    assert report.dispatch_gw == 0.0
    assert report.curtailed_twh == 0.0


def test_pv_only_initial_charge_must_be_sustained():
    # dataset starts at night, so the initial inventory bootstraps the first
    # 12 GWh; closure then demands the panels refill it, doubling the size
    data = _day_night_dataset(96, day_first=False)
    params = SimParams(round_trip_efficiency=1.0, initial_soc_fraction=0.5)
    report = run_pv_only(data, params)
    assert report.pv_gw == 2.0
    assert 23.8 <= report.battery_energy_gwh <= 24.2


def test_pv_only_infeasible_without_sun():
    data = _flat_dataset(1.0, 0.0, 0.0, n_steps=48)
    # PV doubles from peak demand until it passes a million times peak
    with pytest.raises(InfeasibleError, match="no PV capacity up to 1e"):
        run_pv_only(data)


def test_pv_only_zero_demand_short_circuits():
    data = _flat_dataset(0.0, 0.0, 1.0, n_steps=24)
    report = run_pv_only(data)
    assert report.label == "pv-only"
    assert report.pv_gw == 0.0
    assert report.battery_power_gw == 0.0
    assert report.annual_demand_twh == 0.0


@pytest.mark.parametrize(
    "data, soc_fraction",
    [
        (_day_night_dataset(96, day_first=False), 0.5),
        (_day_night_dataset(96, day_first=True), 0.0),
        (random_dataset(np.random.default_rng(72), n_steps=96), 0.5),
    ],
)
def test_pv_only_runs_no_balance_pass_twice(monkeypatch, data, soc_fraction):
    # the PV bisection's first midpoint can repeat a doubling probe, and each
    # bisection ends on a feasible probe the sizing reads again
    passes = []
    loop = _kernels.balance_loop

    def recording(demand, ren_gen, dt, baseload, power, energy, *rest):
        passes.append((ren_gen.tobytes(), power, energy))
        return loop(demand, ren_gen, dt, baseload, power, energy, *rest)

    monkeypatch.setattr(_kernels, "balance_loop", recording)
    run_pv_only(data, SimParams(initial_soc_fraction=soc_fraction))
    assert len(passes) > 10
    assert len(set(passes)) == len(passes)


@st.composite
def _pv_only_cases(draw):
    """A small dataset with sun by day, and the settings of a pv-only probe.

    Most draws start at sunrise, so an empty battery can be feasible too.
    """
    n = draw(st.integers(12, 72))
    dt = draw(st.sampled_from([1.0, 0.5]))
    demand = np.array(draw(st.lists(st.floats(0.5, 20.0), min_size=n, max_size=n)))
    sun = draw(st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n))
    phase = draw(st.sampled_from([0, 0, 0]) | st.integers(0, 23))
    pv_cf = np.array(sun) * ((np.arange(n) + phase) % 24 < 12)
    data = AlignedDataset(
        demand=TimeSeries(demand, dt, KIND_DEMAND, "demand"),
        wind_cf=TimeSeries(np.zeros(n), dt, KIND_CAPACITY_FACTOR, "wind"),
        pv_cf=TimeSeries(pv_cf, dt, KIND_CAPACITY_FACTOR, "pv"),
    )
    params = SimParams(
        round_trip_efficiency=draw(st.one_of(st.just(1.0), st.floats(0.5, 1.0))),
        initial_soc_fraction=draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)),
    )
    return data, params, float(np.max(demand))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_pv_only_cases(), st.floats(0.0, 20.0), st.floats(0.0, 20.0))
def test_pv_only_feasibility_is_monotone_in_pv_at_the_huge_battery(case, scale, more):
    # the PV bisection rests on it: more panels never turn a served year unserved
    data, params, peak = case
    lo, hi = peak * scale, peak * (scale + more)
    huge_energy = 1e9 * max(peak, 1.0)
    if scenarios._pv_only_probe(data, params, peak, lo, huge_energy)[1]:
        assert scenarios._pv_only_probe(data, params, peak, hi, huge_energy)[1]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_pv_only_cases(), st.floats(0.0, 20.0), st.floats(0.0, 40.0), st.floats(0.0, 40.0))
def test_pv_only_feasibility_is_monotone_in_battery_energy(case, pv_scale, hours, more):
    # the energy bisection rests on it, with a start charge too: a larger
    # battery's charge above its start never falls below a smaller one's
    data, params, peak = case
    pv = peak * pv_scale
    lo, hi = peak * hours, peak * (hours + more)
    if scenarios._pv_only_probe(data, params, peak, pv, lo)[1]:
        assert scenarios._pv_only_probe(data, params, peak, pv, hi)[1]


# ===================== rigidity =====================


def test_rigidity_day_night_exact():
    data = _day_night_dataset(96, day_first=True)
    params = SimParams(round_trip_efficiency=1.0, initial_soc_fraction=0.0)
    mix = CapacityMix(pv_gw=2.0, battery_power_gw=1.0, battery_hours=12.0)
    report = run_rigidity(mix, data, params)

    # surplus 2-m charges 12(2-m) GWh against a 12m GWh night, failing past 1
    assert report.failure_multiplier == 1.01
    # battery has 12*0.99 GWh, final night hour leaves 1.01 - 0.88 GW firm
    assert abs(report.required_dispatch_gw - 0.13) < 1e-9
    assert report.annual_demand_twh == 96 * 1.0 / 1000.0

    scaled_stats_avg = demand_stats(data.demand).average_gw * 1.01
    assert report.test_demand_twh == pytest.approx(report.annual_demand_twh * 1.01, rel=1e-12)
    assert report.dispatch_pct_of_average == pytest.approx(
        100.0 * report.required_dispatch_gw / scaled_stats_avg, rel=1e-12
    )
    assert report.required_dispatch_energy_gwh > 0.0


def test_rigidity_failure_is_monotone_in_demand_without_charging_from_dispatch():
    # run_rigidity stops at the first failing multiplier; every larger one
    # must fail too.  With battery_charges_from_dispatch on this does not
    # hold: a battery run empty stops discharging and spare dispatch then
    # tops it up, so a slightly larger demand can be served again.
    rng = np.random.default_rng(62)
    first_failures = []
    for _ in range(200):
        data = random_dataset(rng, n_steps=int(rng.integers(24, 120)))
        params = replace(random_params(rng), battery_charges_from_dispatch=False)
        mix = random_mix(rng, with_baseload=bool(rng.integers(0, 2)))
        sized = size_dispatch(mix, data, params)
        mix = replace(mix, dispatch_gw=sized * float(rng.uniform(1.0, 1.1)))
        failing = [
            simulate(mix, scale_demand(data, 1.0 + k * 0.01), params).unserved_energy_twh > 0.0
            for k in range(25)
        ]
        assert failing == sorted(failing)
        first_failures.append(failing.index(True) if True in failing else None)
    # most mixes serve the unscaled demand and fail inside the sweep
    assert sum(k is not None and k > 0 for k in first_failures) > 150


def test_rigidity_rejects_bad_inputs():
    data = _day_night_dataset(48, day_first=True)
    params = SimParams(round_trip_efficiency=1.0, initial_soc_fraction=0.0)
    good = CapacityMix(pv_gw=2.0, battery_power_gw=1.0, battery_hours=12.0)

    with pytest.raises(ValueError, match="step"):
        run_rigidity(good, data, params, step=0.0)
    with pytest.raises(ValueError, match="step"):
        run_rigidity(good, data, params, step=1.0)
    with pytest.raises(ValueError, match="does not serve"):
        run_rigidity(CapacityMix(pv_gw=1.9, battery_power_gw=1.0, battery_hours=12.0), data, params)
    firm = CapacityMix(pv_gw=2.0, battery_power_gw=1.0, battery_hours=12.0, dispatch_gw=10.0)
    with pytest.raises(ValueError, match="no failure"):
        run_rigidity(firm, data, params)


def test_rigidity_of_sized_pv_only_mix():
    data = synthesize_dataset(seed=3, total_hours=120)
    params = SimParams(initial_soc_fraction=0.5)
    rigidity = run_rigidity(run_pv_only(data, params).mix, data, params)
    # sized with ~0.01 GW and ~0.1 GWh slack, one or two percent breaks it
    assert rigidity.failure_multiplier <= 1.02 + 1e-12
    assert rigidity.required_dispatch_gw > 0.0


# ===================== residual baseload =====================


def test_residual_baseload_report(week_data, tiny_space):
    report, optim = run_residual_baseload(
        week_data, space=tiny_space, baseload_gw=10.0, eaf=0.7
    )
    assert report.label == "residual-baseload"
    assert report.baseload_gw == 10.0
    assert report.baseload_eaf_pct == pytest.approx(70.0)
    assert report.baseload_energy_twh == 10.0 * 0.7 * week_data.total_hours / 1000.0
    assert optim.best.mix.baseload_gw == 10.0
    assert optim.best.result.unserved_energy_twh == 0.0

    baseload_out = 10.0 * 0.7
    net_peak = float(np.max(np.maximum(week_data.demand.values - baseload_out, 0.0)))
    assert report.net_peak_gw == net_peak
    assert net_peak < report.peak_gw


def test_residual_baseload_covering_demand_needs_no_dispatch(week_data, tiny_space):
    report, optim = run_residual_baseload(
        week_data, space=tiny_space, baseload_gw=20.0, eaf=1.0, options=COARSE_ONLY
    )
    assert report.net_peak_gw == 0.0
    assert report.dispatch_gw == 0.0
    assert report.dispatch_energy_twh == 0.0
    assert report.dispatch_pct_of_net_peak == 0.0


def test_residual_baseload_zero_matches_base(week_data, tiny_space, base_run):
    _, base_optim = base_run
    report, optim = run_residual_baseload(week_data, space=tiny_space, baseload_gw=0.0, eaf=0.7)
    best, base_best = optim.best.mix, base_optim.best.mix
    assert (best.wind_gw, best.pv_gw, best.battery_power_gw, best.battery_hours) == (
        base_best.wind_gw,
        base_best.pv_gw,
        base_best.battery_power_gw,
        base_best.battery_hours,
    )
    assert best.dispatch_gw == base_best.dispatch_gw
    assert optim.best.cost.unit_cost_usd_per_mwh == base_optim.best.cost.unit_cost_usd_per_mwh


def test_residual_baseload_rejects_bad_inputs(week_data, tiny_space):
    with pytest.raises(ValueError, match="baseload_gw"):
        run_residual_baseload(week_data, space=tiny_space, baseload_gw=-1.0)
    with pytest.raises(ValueError, match="eaf"):
        run_residual_baseload(week_data, space=tiny_space, eaf=1.2)


# ===================== fuel sensitivity =====================


def test_fuel_sensitivity_orders_and_labels(week_data, tiny_space):
    runs = run_fuel_sensitivity(
        week_data, space=tiny_space, fuel_prices=(20.0, 10.0), options=COARSE_ONLY
    )
    assert [price for price, _, _ in runs] == [20.0, 10.0]
    assert [report.label for _, report, _ in runs] == ["fuel 20 USD/GJ", "fuel 10 USD/GJ"]

    (p1, r1, o1), (p2, r2, o2) = runs
    # cheaper fuel leans harder on the burner: exchange over one candidate set
    assert r2.dispatch_energy_twh >= r1.dispatch_energy_twh - 1e-12

    # each optimum beats the other's build under its own fuel price
    book1 = CostBook(fuel_price_usd_per_gj=p1)
    rival = evaluate(o2.best.mix, week_data, book=book1)
    assert o1.best.cost.unit_cost_usd_per_mwh <= rival.cost.unit_cost_usd_per_mwh + 1e-9


def test_fuel_sensitivity_at_book_price_is_base(week_data, tiny_space):
    runs = run_fuel_sensitivity(
        week_data, space=tiny_space, fuel_prices=(20.0,), options=COARSE_ONLY
    )
    _, base_optim = run_base(week_data, space=tiny_space, options=COARSE_ONLY)
    assert len(runs) == 1
    assert runs[0][2].best.mix == base_optim.best.mix


def test_fuel_sensitivity_rejects_bad_prices(week_data, tiny_space):
    with pytest.raises(ValueError, match="not be empty"):
        run_fuel_sensitivity(week_data, space=tiny_space, fuel_prices=())
    for price in (0.0, -5.0, math.inf):
        with pytest.raises(ValueError, match="positive"):
            run_fuel_sensitivity(week_data, space=tiny_space, fuel_prices=(price,))


@pytest.mark.parametrize(
    ("prices", "repeated"),
    [((10.0, 10.0000001), "10"), ((20.0, 20.0), "20"), ((3.0, 1.5, 3.0, 1.5), "3, 1.5")],
)
def test_fuel_sensitivity_rejects_prices_that_share_a_label(
    week_data, tiny_space, monkeypatch, prices, repeated
):
    # the label names a report column and the run's output files
    monkeypatch.setattr(scenarios, "optimize", mock.Mock(side_effect=AssertionError("searched")))
    with pytest.raises(ValueError, match=f"repeated: {repeated} USD/GJ"):
        run_fuel_sensitivity(week_data, space=tiny_space, fuel_prices=prices)


# ===================== the mix and result behind a report =====================


def _assert_same_result(got, expected):
    """Equal totals by ``repr`` and the same ledger bit for bit."""
    assert repr(got) == repr(expected)
    for name in TRACE_COLUMNS[1:] + ("charge_from_dispatch_gw",):
        got_column = getattr(got.trace, name)
        expected_column = getattr(expected.trace, name)
        assert np.array_equal(got_column.view(np.int64), expected_column.view(np.int64)), name


def _scenario_runs(name, data, space, params):
    """``(report, optim)`` pairs of one scenario; ``optim`` is None without a search."""
    if name == "base":
        return [run_base(data, params, space=space, options=COARSE_ONLY)]
    if name == "low-storage":
        report, _, optim = run_low_storage(
            data, params, space=space, battery_price=10.0, options=COARSE_ONLY
        )
        return [(report, optim)]
    if name == "pv-only":
        return [(run_pv_only(data, params), None)]
    if name == "residual-baseload":
        return [
            run_residual_baseload(
                data, params, space=space, baseload_gw=10.0, eaf=0.7, options=COARSE_ONLY
            )
        ]
    runs = run_fuel_sensitivity(
        data, params, space=space, fuel_prices=(20.0, 10.0), options=COARSE_ONLY
    )
    return [(report, optim) for _, report, optim in runs]


@pytest.mark.parametrize("charge_from_dispatch", [False, True])
@pytest.mark.parametrize(
    "name", ["base", "low-storage", "pv-only", "residual-baseload", "fuel-sensitivity"]
)
def test_report_carries_the_mix_and_result_it_was_built_from(
    week_data, tiny_space, name, charge_from_dispatch
):
    # half-charged storage lets pv-only's sun-only mix carry the first night
    params = SimParams(initial_soc_fraction=0.5, battery_charges_from_dispatch=charge_from_dispatch)
    for report, optim in _scenario_runs(name, week_data, tiny_space, params):
        if optim is not None:
            assert report.result is optim.best.result
            assert report.mix == optim.best.mix
        assert build_report(report.mix, report.result, week_data, report.label) == report
        _assert_same_result(simulate(report.mix, week_data, params), report.result)


@pytest.mark.parametrize("charge_from_dispatch", [False, True])
@pytest.mark.parametrize("case", ["day-night", "pv-only"])
def test_rigidity_report_carries_its_sized_mix_and_result(case, charge_from_dispatch):
    if case == "day-night":
        data = _day_night_dataset(96, day_first=True)
        params = SimParams(round_trip_efficiency=1.0)
        mix = CapacityMix(pv_gw=2.0, battery_power_gw=1.0, battery_hours=12.0)
    else:
        data = synthesize_dataset(seed=3, total_hours=120)
        params = SimParams(initial_soc_fraction=0.5)
        mix = run_pv_only(data, params).mix
    params = replace(params, battery_charges_from_dispatch=charge_from_dispatch)
    report = run_rigidity(mix, data, params)

    assert report.mix == replace(mix, dispatch_gw=report.required_dispatch_gw)
    assert report.mix.dispatch_gw == report.required_dispatch_gw
    assert report.result.unserved_energy_twh == 0.0
    assert report.result.dispatch_energy_twh * 1000.0 == report.required_dispatch_energy_gwh
    scaled = scale_demand(data, report.failure_multiplier)
    _assert_same_result(simulate(report.mix, scaled, params), report.result)


# ===================== csv rendering =====================


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_write_report_csv_single(tmp_path, week_data, base_run):
    report, _ = base_run
    path = tmp_path / "report.csv"
    write_report_csv(path, report)
    rows = _read_csv(path)

    assert rows[0] == ["row", "base", "unit"]
    names = [r[0] for r in rows[1:]]
    assert "Base load Gen." not in names
    assert "Percent of net Peak demand" not in names
    assert names[:3] == ["Annual Demand", "Peak Rate", "Average Rate"]
    assert names[-3:] == ["Renewable Gen", "Curtailed Renew.", "Percent Curtailed"]

    table = {r[0]: r for r in rows[1:]}
    assert float(table["Installed Wind"][1]) == report.wind_gw
    assert float(table["Installed Dispatch"][1]) == report.dispatch_gw
    assert float(table["Percent Curtailed"][1]) == report.curtailed_pct
    assert table["Installed Wind"][2] == "GW"
    assert table["Wind Percent of Peak Capacity"][2] == "Percent of Peak Gen. Capacity"


def test_write_report_csv_side_by_side(tmp_path, week_data, tiny_space, base_run):
    base_report, _ = base_run
    residual_report, _ = run_residual_baseload(
        week_data, space=tiny_space, baseload_gw=10.0, eaf=0.7, options=COARSE_ONLY
    )
    path = tmp_path / "pair.csv"
    write_report_csv(path, [base_report, residual_report])
    rows = _read_csv(path)

    # one report with baseload pulls the baseload rows in for both columns
    assert rows[0] == ["row", "base", "residual-baseload", "unit"]
    table = {r[0]: r for r in rows[1:]}
    assert float(table["Base load Gen."][1]) == 0.0
    assert float(table["Base load Gen."][2]) == 10.0
    assert float(table["Percent of net Peak demand"][2]) == residual_report.dispatch_pct_of_net_peak
    assert all(len(r) == 4 for r in rows)


def test_write_report_csv_extra_rows_and_quoting(tmp_path, base_run):
    report, _ = base_run
    path = tmp_path / "extra.csv"
    extra = [("Storage Price", 10.0, "USD/kWh"), ("a,b", 1.5, 'say "so"')]
    write_report_csv(path, [report, report], extra_rows=extra)
    rows = _read_csv(path)
    assert rows[-2] == ["Storage Price", "10.0", "", "USD/kWh"]
    assert rows[-1] == ["a,b", "1.5", "", 'say "so"']


def test_write_report_csv_quotes_labels(tmp_path, base_run):
    report, _ = base_run
    path = tmp_path / "labels.csv"
    labels = ['a,"b"', "plain", "a\rb", "a\nb"]
    write_report_csv(path, [replace(report, label=label) for label in labels])
    rows = _read_csv(path)
    assert rows[0] == ["row", *labels, "unit"]
    assert all(len(r) == 6 for r in rows)


def test_write_report_csv_needs_a_report(tmp_path):
    with pytest.raises(ValueError, match="at least one report"):
        write_report_csv(tmp_path / "none.csv", [])


def test_write_report_csv_unlabeled_column(tmp_path, base_run):
    report, _ = base_run
    path = tmp_path / "anon.csv"
    write_report_csv(path, replace(report, label=""))
    assert _read_csv(path)[0] == ["row", "case 0", "unit"]


def test_write_rigidity_csv(tmp_path):
    data = _day_night_dataset(96, day_first=True)
    params = SimParams(round_trip_efficiency=1.0, initial_soc_fraction=0.0)
    mix = CapacityMix(pv_gw=2.0, battery_power_gw=1.0, battery_hours=12.0)
    report = run_rigidity(mix, data, params)

    path = tmp_path / "rigidity.csv"
    write_rigidity_csv(path, report)
    rows = _read_csv(path)
    assert rows[0] == ["row", "value", "unit"]
    assert [(r[0], r[2]) for r in rows[1:]] == [
        ("Annual Demand", "TWh"),
        ("Test Demand", "TWh"),
        ("Percent of Normal", "%"),
        ("Installed Dispatch", "GW"),
        ("Dispatch Energy", "GWh"),
        ("Percent of Average demand", "%"),
    ]
    table = {r[0]: r for r in rows[1:]}
    assert float(table["Percent of Normal"][1]) == 100.0 * report.failure_multiplier
    assert float(table["Installed Dispatch"][1]) == report.required_dispatch_gw
    assert table["Dispatch Energy"][2] == "GWh"


SCENARIO_ROWS = [
    ("Annual Demand", "TWh"),
    ("Peak Rate", "GW"),
    ("Average Rate", "GW"),
    ("Base load Gen.", "GW"),
    ("Base EAF", "%"),
    ("Base Energy", "TWh"),
    ("Installed Wind", "GW"),
    ("Wind Energy", "TWh"),
    ("Wind CF", "%"),
    ("Wind Percent of Peak Capacity", "Percent of Peak Gen. Capacity"),
    ("Installed PV", "GW"),
    ("PV Energy", "TWh"),
    ("PV CF", "%"),
    ("PV Percent of Peak Capacity", "Percent of Peak Gen. Capacity"),
    ("Battery Capacity", "GW"),
    ("Battery Hours", "Hours"),
    ("Battery Energy", "GWh"),
    ("Installed Dispatch", "GW"),
    ("Dispatch Energy", "TWh"),
    ("Dispatch CF", "%"),
    ("Percent of Peak demand", "%"),
    ("Percent of Average demand", "%"),
    ("Percent of net Peak demand", "% of net Peak"),
    ("Renewable Gen", "TWh"),
    ("Curtailed Renew.", "TWh"),
    ("Percent Curtailed", "%"),
]
BASELOAD_ROWS = {"Base load Gen.", "Base EAF", "Base Energy", "Percent of net Peak demand"}


@pytest.mark.parametrize("baseload_gw", [0.0, 10.0])
def test_report_csv_row_sequence(tmp_path, base_run, baseload_gw):
    # row order is field order, so this pins the order of the report's fields
    report, _ = base_run
    path = tmp_path / "report.csv"
    write_report_csv(path, replace(report, baseload_gw=baseload_gw))
    got = [(r[0], r[-1]) for r in _read_csv(path)[1:]]
    expected = [row for row in SCENARIO_ROWS if baseload_gw > 0.0 or row[0] not in BASELOAD_ROWS]
    assert len(got) == (26 if baseload_gw > 0.0 else 22)
    assert got == expected


def test_every_report_figure_but_net_peak_is_a_row():
    floats = [f for f in fields(ScenarioReport) if f.type == "float"]
    assert len(floats) == 27
    assert [f.name for f in floats if "row" not in f.metadata] == ["net_peak_gw"]


def test_low_storage_extra_rows_shape(week_data, tiny_space):
    _, delta, _ = run_low_storage(
        week_data, space=tiny_space, battery_price=10.0, options=COARSE_ONLY
    )
    rows = low_storage_extra_rows(delta)
    assert [(name, unit) for name, _, unit in rows] == [
        ("Base Case Installed Dispatch", "GW"),
        ("Installed Dispatch Change", "GW"),
        ("Base Case Dispatch Energy", "TWh"),
        ("Storage Price", "USD/kWh"),
    ]
    assert rows[0][1] == delta.base_dispatch_gw
    assert rows[1][1] == delta.dispatch_delta_gw
    assert rows[3] == ("Storage Price", 10.0, "USD/kWh")
