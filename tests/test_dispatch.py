from __future__ import annotations

import math
import pickle
import struct
from array import array
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
    SimParams,
    SizingTable,
    TimeSeries,
    _kernels,
    simulate,
    size_dispatch,
)
from firmdispatch import dispatch
from firmdispatch.dispatch import (
    TRACE_COLUMNS,
    DispatchTrace,
    sized_simulation,
    write_trace_csv,
)
from firmdispatch.profiles import scale_demand, synthesize_dataset

import oracle
from conftest import random_dataset, random_mix, random_params, stepped_passes


def _dataset(demand, wind, pv, dt=1.0):
    return AlignedDataset(
        demand=TimeSeries(demand, dt, KIND_DEMAND),
        wind_cf=TimeSeries(wind, dt, KIND_CAPACITY_FACTOR),
        pv_cf=TimeSeries(pv, dt, KIND_CAPACITY_FACTOR),
    )


def test_hand_traced_four_step_case():
    # t0: wind 20 serves 10, charges 5 (soc 4.25 after losses), curtails 5.
    # t1: no wind; battery gives 4.25, dispatch covers 5.75.
    # t2: wind 10 serves demand exactly.  t3: dispatch alone carries 10.
    data = _dataset([10.0] * 4, [1.0, 0.0, 0.5, 0.0], [0.0] * 4)
    mix = CapacityMix(wind_gw=20.0, battery_power_gw=5.0, battery_hours=1.0, dispatch_gw=10.0)
    params = SimParams(round_trip_efficiency=0.85, initial_soc_fraction=0.0)
    result = simulate(mix, data, params)

    assert result.dispatch_energy_twh * 1000.0 == 15.75
    assert result.curtailed_twh * 1000.0 == 5.0
    assert result.peak_dispatch_gw == 10.0
    assert result.unserved_energy_twh == 0.0
    assert result.final_soc_gwh == 0.0

    trace = result.trace
    assert list(trace.soc_gwh) == [4.25, 0.0, 0.0, 0.0]
    assert list(trace.renewable_to_demand_gw) == [10.0, 0.0, 10.0, 0.0]
    assert list(trace.battery_charge_gw) == [5.0, 0.0, 0.0, 0.0]
    assert list(trace.battery_discharge_gw) == [0.0, 4.25, 0.0, 0.0]
    assert list(trace.dispatch_gw) == [0.0, 5.75, 0.0, 10.0]
    assert list(trace.curtailed_gw) == [5.0, 0.0, 0.0, 0.0]
    # t3 needs the full 10 GW with the battery long empty
    assert size_dispatch(mix, data, params) == 10.0


def test_dispatch_alone_serves_everything():
    rng = np.random.default_rng(2)
    data = random_dataset(rng)
    peak = float(np.max(data.demand.values))
    result = simulate(CapacityMix(dispatch_gw=peak), data)
    assert result.unserved_energy_twh == 0.0
    assert result.curtailed_twh == 0.0
    assert result.dispatch_energy_twh == result.demand_energy_twh
    assert result.peak_dispatch_gw == peak


def test_zero_demand_charges_or_curtails_everything():
    n = 48
    data = _dataset(np.zeros(n), np.full(n, 0.5), np.zeros(n))
    mix = CapacityMix(wind_gw=10.0, battery_power_gw=2.0, battery_hours=4.0, dispatch_gw=5.0)
    result = simulate(mix, data)
    assert result.dispatch_energy_twh == 0.0
    assert result.unserved_energy_twh == 0.0
    charged = float(np.sum(result.trace.battery_charge_gw))
    curtailed = float(np.sum(result.trace.curtailed_gw))
    assert charged + curtailed == pytest.approx(0.5 * 10.0 * n, abs=1e-9)


def test_per_step_identities_random():
    rng = np.random.default_rng(20)
    for _ in range(200):
        data = random_dataset(rng)
        mix = random_mix(rng, with_baseload=bool(rng.integers(0, 2)))
        params = random_params(rng)
        result = simulate(mix, data, params)
        tr = result.trace
        dt = data.dt_hours

        served = (
            tr.baseload_gw
            + tr.renewable_to_demand_gw
            + tr.battery_discharge_gw
            + tr.dispatch_gw
            + tr.unserved_gw
        )
        assert np.max(np.abs(served - data.demand.values)) < 1e-9

        ren_gen = mix.wind_gw * data.wind_cf.values + mix.pv_gw * data.pv_cf.values
        charge_from_ren = tr.battery_charge_gw - tr.charge_from_dispatch_gw
        split = tr.renewable_to_demand_gw + charge_from_ren + tr.curtailed_gw
        assert np.max(np.abs(split - ren_gen)) < 1e-9
        if not params.battery_charges_from_dispatch:
            assert np.all(tr.charge_from_dispatch_gw == 0.0)

        cap = mix.battery_energy_gwh
        assert np.all(tr.soc_gwh >= 0.0)
        assert np.all(tr.soc_gwh <= cap + 1e-12)

        soc_prev = np.concatenate([[params.initial_soc_fraction * cap], tr.soc_gwh[:-1]])
        ledger = (
            soc_prev
            + params.round_trip_efficiency * tr.battery_charge_gw * dt
            - tr.battery_discharge_gw * dt
        )
        assert np.max(np.abs(ledger - tr.soc_gwh)) < 1e-9

        assert result.peak_dispatch_gw <= mix.dispatch_gw + 1e-9
        assert np.all(tr.dispatch_gw <= mix.dispatch_gw + 1e-9)

        to_twh = dt / 1000.0
        assert result.unserved_energy_twh == float(np.sum(tr.unserved_gw)) * to_twh
        assert result.battery_discharge_twh == float(np.sum(tr.battery_discharge_gw)) * to_twh
        assert result.curtailed_twh == float(np.sum(tr.curtailed_gw)) * to_twh
        assert result.demand_energy_twh == float(np.sum(data.demand.values)) * to_twh


def test_energy_totals_recompute_from_inputs():
    rng = np.random.default_rng(21)
    data = random_dataset(rng, n_steps=96)
    mix = random_mix(rng)
    result = simulate(mix, data)
    to_twh = data.dt_hours / 1000.0
    assert result.wind_energy_twh == mix.wind_gw * float(np.sum(data.wind_cf.values)) * to_twh
    assert result.pv_energy_twh == mix.pv_gw * float(np.sum(data.pv_cf.values)) * to_twh
    assert result.renewable_gen_twh == result.wind_energy_twh + result.pv_energy_twh
    assert result.wind_cf == pytest.approx(float(np.mean(data.wind_cf.values)), rel=1e-12)
    assert result.pv_cf == pytest.approx(float(np.mean(data.pv_cf.values)), rel=1e-12)


def test_homogeneity_under_joint_scaling():
    rng = np.random.default_rng(22)
    energy_fields = (
        "wind_energy_twh",
        "pv_energy_twh",
        "renewable_gen_twh",
        "baseload_energy_twh",
        "battery_discharge_twh",
        "dispatch_energy_twh",
        "unserved_energy_twh",
        "curtailed_twh",
        "demand_energy_twh",
    )
    ratio_fields = ("dispatch_cf", "wind_cf", "pv_cf", "curtailed_fraction")
    for _ in range(10):
        data = random_dataset(rng)
        mix = random_mix(rng, with_baseload=True)
        params = random_params(rng)
        base = simulate(mix, data, params)
        for lam in (0.5, 2.0, 10.0):
            scaled_mix = CapacityMix(
                wind_gw=lam * mix.wind_gw,
                pv_gw=lam * mix.pv_gw,
                battery_power_gw=lam * mix.battery_power_gw,
                battery_hours=mix.battery_hours,
                dispatch_gw=lam * mix.dispatch_gw,
                baseload_gw=lam * mix.baseload_gw,
                baseload_eaf=mix.baseload_eaf,
            )
            scaled = simulate(scaled_mix, scale_demand(data, lam), params)
            for name in energy_fields:
                assert getattr(scaled, name) == pytest.approx(
                    lam * getattr(base, name), rel=1e-9, abs=1e-15
                )
            assert scaled.peak_dispatch_gw == pytest.approx(
                lam * base.peak_dispatch_gw, rel=1e-9, abs=1e-15
            )
            for name in ratio_fields:
                assert getattr(scaled, name) == pytest.approx(
                    getattr(base, name), rel=1e-9, abs=1e-12
                )


def test_more_renewables_never_increase_dispatch_energy():
    rng = np.random.default_rng(23)
    for _ in range(20):
        data = random_dataset(rng)
        mix = random_mix(rng)
        base = simulate(mix, data).dispatch_energy_twh
        more_wind = CapacityMix(
            wind_gw=mix.wind_gw + 5.0,
            pv_gw=mix.pv_gw,
            battery_power_gw=mix.battery_power_gw,
            battery_hours=mix.battery_hours,
            dispatch_gw=mix.dispatch_gw,
        )
        more_pv = CapacityMix(
            wind_gw=mix.wind_gw,
            pv_gw=mix.pv_gw + 5.0,
            battery_power_gw=mix.battery_power_gw,
            battery_hours=mix.battery_hours,
            dispatch_gw=mix.dispatch_gw,
        )
        assert simulate(more_wind, data).dispatch_energy_twh <= base + 1e-12
        assert simulate(more_pv, data).dispatch_energy_twh <= base + 1e-12


def test_more_dispatch_never_increases_unserved():
    rng = np.random.default_rng(24)
    for _ in range(20):
        data = random_dataset(rng)
        mix = random_mix(rng)
        unserved = [
            simulate(
                CapacityMix(
                    wind_gw=mix.wind_gw,
                    pv_gw=mix.pv_gw,
                    battery_power_gw=mix.battery_power_gw,
                    battery_hours=mix.battery_hours,
                    dispatch_gw=d,
                ),
                data,
            ).unserved_energy_twh
            for d in (0.0, 2.0, 5.0, 20.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(unserved, unserved[1:]))


def test_size_dispatch_is_exact_and_tight():
    rng = np.random.default_rng(25)
    for _ in range(30):
        data = random_dataset(rng)
        mix = random_mix(rng)
        # minimality holds for the default charging model; with
        # charge-from-dispatch enabled the size is only an upper bound
        params = SimParams(
            round_trip_efficiency=float(rng.uniform(0.5, 1.0)),
            initial_soc_fraction=float(rng.uniform(0.0, 1.0)),
        )
        size = size_dispatch(mix, data, params)
        sized = CapacityMix(
            wind_gw=mix.wind_gw,
            pv_gw=mix.pv_gw,
            battery_power_gw=mix.battery_power_gw,
            battery_hours=mix.battery_hours,
            dispatch_gw=size,
            baseload_gw=mix.baseload_gw,
            baseload_eaf=mix.baseload_eaf,
        )
        assert simulate(sized, data, params).unserved_energy_twh == 0.0
        if size > 0.0:
            shaved = CapacityMix(
                wind_gw=mix.wind_gw,
                pv_gw=mix.pv_gw,
                battery_power_gw=mix.battery_power_gw,
                battery_hours=mix.battery_hours,
                dispatch_gw=max(0.0, size - 0.01),
                baseload_gw=mix.baseload_gw,
                baseload_eaf=mix.baseload_eaf,
            )
            assert simulate(shaved, data, params).unserved_energy_twh > 0.0


def test_size_dispatch_is_safe_with_charge_from_dispatch():
    rng = np.random.default_rng(28)
    for _ in range(15):
        data = random_dataset(rng)
        mix = random_mix(rng)
        params = random_params(rng)
        size = size_dispatch(mix, data, params)
        sized = CapacityMix(
            wind_gw=mix.wind_gw,
            pv_gw=mix.pv_gw,
            battery_power_gw=mix.battery_power_gw,
            battery_hours=mix.battery_hours,
            dispatch_gw=size,
            baseload_gw=mix.baseload_gw,
            baseload_eaf=mix.baseload_eaf,
        )
        assert simulate(sized, data, params).unserved_energy_twh == 0.0


def test_size_dispatch_trivial_bounds():
    rng = np.random.default_rng(26)
    data = random_dataset(rng, n_steps=72)
    peak = float(np.max(data.demand.values))
    assert size_dispatch(CapacityMix(), data) == peak
    generous = CapacityMix(wind_gw=1e6, pv_gw=1e6)
    covered = _dataset([1.0, 1.0], [0.5, 0.5], [0.0, 0.0])
    assert size_dispatch(CapacityMix(wind_gw=4.0), covered) == 0.0
    assert size_dispatch(generous, covered) == 0.0


def _sizing_draws(charge_from_dispatch):
    """Random mixes, datasets and storage parameters for one sizing each."""
    rng = np.random.default_rng(61 + charge_from_dispatch)
    for i in range(10):
        data = random_dataset(rng, dt_hours=(1.0, 0.5)[i % 2])
        params = SimParams(
            round_trip_efficiency=float(rng.uniform(0.5, 1.0)),
            initial_soc_fraction=float(rng.choice([0.0, rng.random()])),
            battery_charges_from_dispatch=charge_from_dispatch,
        )
        for _ in range(int(rng.integers(2, 9))):
            mix = CapacityMix(
                wind_gw=float(rng.uniform(0.0, 30.0)),
                pv_gw=float(rng.uniform(0.0, 30.0)),
                # zero power, and zero-hour rungs with power
                battery_power_gw=float(rng.choice([0.0, rng.uniform(0.0, 10.0)])),
                battery_hours=float(rng.choice([0.0, 1.0, 4.0, 12.0])),
                dispatch_gw=float(rng.uniform(0.0, 20.0)),  # ignored by sizing
                # mixes of one draw differ in baseload too
                baseload_gw=float(rng.choice([0.0, rng.uniform(0.0, 6.0)])),
                baseload_eaf=0.8,
            )
            yield mix, data, params


def _sized_figures(mix, data, params):
    """The sized mix and its served and dispatch energy, by ``sized_simulation``."""
    sized, result = sized_simulation(mix, data, params)
    return sized, result.served_energy_twh, result.dispatch_energy_twh


@pytest.mark.parametrize("charge_from_dispatch", [False, True])
def test_sized_energy_matches_size_dispatch_and_simulate(charge_from_dispatch):
    tables = {}
    for mix, data, params in _sizing_draws(charge_from_dispatch):
        sized = replace(mix, dispatch_gw=size_dispatch(mix, data, params))
        result = simulate(sized, data, params)
        expected = repr((sized, result.served_energy_twh, result.dispatch_energy_twh))
        # one table per draw, so later mixes may share earlier mixes' passes
        table = tables.setdefault(id(data), SizingTable(data, params))
        assert repr(table.sized_energy(mix)) == expected
        # met again at another dispatch_gw, the mix is answered from the table
        again = replace(mix, dispatch_gw=mix.dispatch_gw + 1.0)
        assert repr(table.sized_energy(again)) == expected


@pytest.mark.parametrize("charge_from_dispatch", [False, True])
def test_sized_simulation_matches_size_dispatch_and_simulate(charge_from_dispatch):
    for mix, data, params in _sizing_draws(charge_from_dispatch):
        sized = replace(mix, dispatch_gw=size_dispatch(mix, data, params))
        result = simulate(sized, data, params)
        with mock.patch.object(_kernels, "balance_loop", wraps=_kernels.balance_loop) as passes:
            got_mix, got = sized_simulation(mix, data, params)
        # with the flag off the sizing pass is the simulation
        assert passes.call_count == 1 + charge_from_dispatch
        assert repr((got_mix, got)) == repr((sized, result))
        assert got.trace._ledger.tobytes() == result.trace._ledger.tobytes()


@st.composite
def _sizing_cases(draw):
    """A mix, a dataset and storage parameters for one sizing pass."""
    n = draw(st.integers(1, 48))
    dt = draw(st.sampled_from([1.0, 0.5]))
    demand = draw(st.lists(st.floats(0.0, 20.0), min_size=n, max_size=n))
    cf = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    data = _dataset(demand, draw(cf), draw(cf), dt)
    # baseload off, above demand at some steps, or tied to one step's demand
    baseload = draw(st.one_of(st.just(0.0), st.floats(0.0, 25.0), st.sampled_from(demand)))
    some_power = st.floats(0.01, 10.0)
    power, hours = draw(
        st.sampled_from(
            [
                (st.just(0.0), st.sampled_from([0.0, 1.0, 4.0])),  # zero power
                (some_power, st.just(0.0)),  # zero hours
                (some_power, st.floats(0.1, 24.0)),  # ordinary
            ]
        )
    )
    capacity = st.one_of(st.just(0.0), st.floats(0.0, 40.0))
    mix = CapacityMix(
        wind_gw=draw(capacity),
        pv_gw=draw(capacity),
        battery_power_gw=draw(power),
        battery_hours=draw(hours),
        baseload_gw=baseload,
    )
    params = SimParams(
        round_trip_efficiency=draw(st.floats(0.5, 1.0)),
        initial_soc_fraction=draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
    )
    return mix, data, params


def _bits(value):
    return np.float64(value).view(np.int64)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_sizing_cases())
def test_sizing_matches_balance_loop_bitwise(case):
    mix, data, params = case
    demand = data.demand.values
    baseload_out = mix.baseload_gw * mix.baseload_eaf
    soc0 = params.initial_soc_fraction * mix.battery_energy_gwh
    ledger = np.asarray(
        _kernels.balance_loop(
            demand,
            mix.wind_gw,
            data.wind_cf.values,
            mix.pv_gw,
            data.pv_cf.values,
            data.dt_hours,
            baseload_out,
            mix.battery_power_gw,
            mix.battery_energy_gwh,
            params.round_trip_efficiency,
            soc0,
            np.inf,  # sizing: no dispatch cap
            False,  # and no charging from dispatch
        )
    )
    want = ledger[_kernels.ROW_DISPATCH]
    with stepped_passes() as stepped:
        got = dispatch._run_balance(mix, data, params, np.inf, False)._ledger
        got = np.asarray(got).reshape(ledger.shape)
        sized, served, energy = _sized_figures(mix, data, params)
    # a mix without battery energy skips the battery; any other steps it
    assert sum(stepped) == (2 if mix.battery_energy_gwh > 0.0 else 0)
    assert np.array_equal(got.view(np.int64), ledger.view(np.int64))
    assert _bits(sized.dispatch_gw) == _bits(np.max(want))
    assert _bits(energy) == _bits(float(np.sum(want)) * (data.dt_hours / 1000.0))
    assert _bits(served) == _bits(float(np.sum(demand)) * (data.dt_hours / 1000.0))


def test_drought_window_forces_dispatch_floor():
    # The paper's claim: with no wind or sun, only the battery stands between
    # the residual demand and firm capacity.  Sizing charges from renewables
    # only, so baseload surplus is the one thing that can refill the battery
    # inside the window, and it is counted in the residual energy.
    rng = np.random.default_rng(61)
    for _ in range(400):
        n = int(rng.integers(24, 240))
        lo = int(rng.integers(0, n - 1))
        hi = int(rng.integers(lo + 1, n + 1))
        data = random_dataset(rng, n_steps=n, drought=(lo, hi))
        mix = random_mix(rng, with_baseload=bool(rng.integers(0, 2)))
        params = random_params(rng)
        size = size_dispatch(mix, data, params)
        residual = data.demand.values[lo:hi] - mix.baseload_gw * mix.baseload_eaf
        # battery power bounds what storage can shave off the window peak
        assert size >= np.max(residual) - mix.battery_power_gw
        # stored energy bounds total storage help across the window
        hours = (hi - lo) * data.dt_hours
        assert size >= (np.sum(residual) * data.dt_hours - mix.battery_energy_gwh) / hours


def test_drought_peak_after_battery_exhaustion():
    # Constant 10 GW demand, no resource: a 5 GW battery holding 60 GWh
    # carries 12 h at half load, then dispatch must cover the full demand.
    n = 96
    data = _dataset(np.full(n, 10.0), np.zeros(n), np.zeros(n))
    mix = CapacityMix(battery_power_gw=5.0, battery_hours=12.0)
    params = SimParams(initial_soc_fraction=1.0)
    assert size_dispatch(mix, data, params) == 10.0


def test_charge_from_dispatch_flag():
    data = _dataset([5.0, 10.0], [0.0, 0.0], [0.0, 0.0])
    mix = CapacityMix(battery_power_gw=5.0, battery_hours=1.0, dispatch_gw=10.0)
    off = simulate(mix, data, SimParams(round_trip_efficiency=0.8))
    on = simulate(
        mix, data, SimParams(round_trip_efficiency=0.8, battery_charges_from_dispatch=True)
    )

    assert np.all(off.trace.charge_from_dispatch_gw == 0.0)
    assert off.dispatch_energy_twh * 1000.0 == 15.0
    assert off.peak_dispatch_gw == 10.0

    # spare 5 GW charges the battery at t0 (4 GWh stored after losses),
    # the battery gives it back at t1, dispatch tops up the rest
    assert list(on.trace.charge_from_dispatch_gw) == [5.0, 0.0]
    assert list(on.trace.battery_discharge_gw) == [0.0, 4.0]
    assert list(on.trace.dispatch_gw) == [5.0, 6.0]
    assert on.dispatch_energy_twh * 1000.0 == 16.0
    assert on.peak_dispatch_gw == 10.0

    # sizing always charges from renewables only, so the flag cannot move it,
    # and it is the sizing pass alone
    params_on = SimParams(battery_charges_from_dispatch=True)
    with mock.patch.object(_kernels, "balance_loop", wraps=_kernels.balance_loop) as passes:
        sized_on = size_dispatch(mix, data, params_on)
    assert passes.call_count == 1
    assert sized_on == size_dispatch(mix, data, SimParams())


def test_half_hourly_step_scales_energy_without_battery():
    values = [4.0, 8.0, 6.0, 2.0]
    wind = [0.2, 0.9, 0.1, 0.4]
    pv = [0.0, 0.6, 0.3, 0.0]
    mix = CapacityMix(wind_gw=5.0, pv_gw=3.0, dispatch_gw=10.0)
    hourly = simulate(mix, _dataset(values, wind, pv, dt=1.0))
    half = simulate(mix, _dataset(values, wind, pv, dt=0.5))
    for name in ("demand_energy_twh", "dispatch_energy_twh", "curtailed_twh", "wind_energy_twh"):
        assert getattr(half, name) == pytest.approx(0.5 * getattr(hourly, name), rel=1e-12)
    assert half.peak_dispatch_gw == hourly.peak_dispatch_gw
    assert half.wind_cf == hourly.wind_cf


def test_baseload_runs_flat_at_availability():
    demand = np.array([2.0, 5.0, 9.0, 3.0])
    data = _dataset(demand, np.zeros(4), np.zeros(4))
    mix = CapacityMix(dispatch_gw=10.0, baseload_gw=8.0, baseload_eaf=0.5)
    result = simulate(mix, data)
    expected = np.minimum(8.0 * 0.5, demand)
    assert np.array_equal(result.trace.baseload_gw, expected)
    assert result.baseload_energy_twh == float(np.sum(expected)) * (1.0 / 1000.0)
    assert result.unserved_energy_twh == 0.0


def test_initial_soc_is_usable_immediately():
    data = _dataset([10.0], [0.0], [0.0])
    mix = CapacityMix(battery_power_gw=5.0, battery_hours=2.0, dispatch_gw=5.0)
    result = simulate(mix, data, SimParams(initial_soc_fraction=1.0))
    assert list(result.trace.battery_discharge_gw) == [5.0]
    assert result.unserved_energy_twh == 0.0
    assert result.final_soc_gwh == 5.0


def test_trace_sequence_interface_and_csv(tmp_path):
    rng = np.random.default_rng(30)
    data = random_dataset(rng, n_steps=30, dt_hours=1.0)
    mix = random_mix(rng)
    result = simulate(mix, data)
    trace = result.trace

    assert trace.demand_gw.shape == (30,)
    assert np.array_equal(trace.demand_gw, data.demand.values)

    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == 31
    cells = lines[5].split(",")
    assert int(cells[0]) == 4
    assert float(cells[1]) == trace.demand_gw[4]
    assert float(cells[7]) == trace.dispatch_gw[4]
    assert float(cells[9]) == trace.soc_gwh[4]


@pytest.mark.parametrize("chunk_rows", [3, 1024])
def test_write_trace_csv_matches_per_cell_repr(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(dispatch, "TRACE_CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(32)
    n = 10
    # -0.0, subnormals, huge magnitudes and values that need 17 digits
    specials = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300]
    specials += [0.1 + 0.2, 1.0 / 3.0, 12345.678901234567, 9.999999999999998]
    ledger = rng.permutation(np.array(specials * _kernels.N_ROWS)).reshape(_kernels.N_ROWS, n)
    demand = rng.permutation(np.array(specials))
    trace = DispatchTrace(demand, ledger, 1.0)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)

    columns = [getattr(trace, name) for name in TRACE_COLUMNS[1:]]
    expected = [",".join(TRACE_COLUMNS)]
    for i in range(n):
        expected.append(",".join([str(i)] + [repr(float(col[i])) for col in columns]))
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()
    cells = {cell for line in expected[1:] for cell in line.split(",")}
    assert {"-0.0", "5e-324", "1e+300", "0.30000000000000004"} <= cells


# Doubles whose text is an edge of repr: zeros of both signs, the least and
# the largest subnormal, the least normal, 1e16 (the first whole number
# written with an exponent) and the double below it, 1e-05 (the largest
# written with one) and 0.0001, 1e22, the largest double, and the
# non-finite values.
_EDGE_DOUBLES = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1e16, 9999999999999998.0, 1e-05, 0.0001, 1e22, 1.7976931348623157e308,
    -1.7976931348623157e308, math.inf, -math.inf, math.nan,
]


def _formatted_rows(values, start=0):
    """The cells of the lines ``format_rows`` writes for rows ``start`` on of
    one column holding ``values``."""
    column = array("d", values)
    out = array("B", bytes((len(values) - start) * _kernels.row_bytes(1)))
    count = _kernels.format_rows([column.buffer_info()[0]], start, len(values), out)
    lines = out[:count].tobytes().decode("ascii").split("\n")
    assert lines.pop() == ""
    return [line.split(",") for line in lines]


def test_format_rows_writes_edge_doubles_as_repr():
    rows = _formatted_rows(_EDGE_DOUBLES)
    assert rows == [[str(t), repr(x)] for t, x in enumerate(_EDGE_DOUBLES)]
    assert [cell for _, cell in rows[:8]] == [
        "0.0", "-0.0", "5e-324", "-5e-324", "2.225073858507201e-308",
        "2.2250738585072014e-308", "1e+16", "9999999999999998.0",
    ]
    assert [cell for _, cell in rows[-3:]] == ["inf", "-inf", "nan"]
    # rows from the middle of the columns carry their own steps
    assert _formatted_rows(_EDGE_DOUBLES, 13) == rows[13:]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40), st.data())
def test_format_rows_writes_any_double_as_repr(patterns, data):
    values = struct.unpack(f"{len(patterns)}d", struct.pack(f"{len(patterns)}Q", *patterns))
    start = data.draw(st.integers(0, len(values) - 1))
    expected = [[str(t), repr(values[t])] for t in range(start, len(values))]
    assert _formatted_rows(values, start) == expected


def test_format_rows_refuses_a_buffer_too_small():
    column = array("d", [1.0, 2.0])
    out = array("B", bytes(2 * _kernels.row_bytes(1) - 1))
    with pytest.raises(ValueError, match="cannot hold 2 rows"):
        _kernels.format_rows([column.buffer_info()[0]], 0, 2, out)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_write_trace_csv_matches_the_python_writer(tmp_path, extra):
    n = dispatch.TRACE_CHUNK_ROWS + extra
    rng = np.random.default_rng(34 + extra)
    # every 64-bit pattern may be a cell, NaNs and infinities included
    bits = rng.integers(0, 2**64 - 1, size=(_kernels.N_ROWS + 1) * n, dtype=np.uint64)
    values = bits.view(np.float64)
    data = random_dataset(rng, n_steps=n)
    traces = [
        DispatchTrace(values[:n], values[n:], 1.0),
        simulate(random_mix(rng), data, random_params(rng)).trace,
    ]
    for trace in traces:
        write_trace_csv(trace, tmp_path / "trace.csv")
        oracle.write_trace_csv(trace, tmp_path / "oracle.csv")
        written = (tmp_path / "trace.csv").read_bytes()
        assert written == (tmp_path / "oracle.csv").read_bytes()
        assert written.count(b"\n") == n + 1


def test_renewable_energy_that_overflows_is_refused():
    data = synthesize_dataset(1, 48)
    message = (
        r"^the renewable energy of wind_gw 1e\+308 and pv_gw 1e\+308 over the dataset is not finite$"
    )
    mix = CapacityMix(wind_gw=1e308, pv_gw=1e308, dispatch_gw=10.0)
    with pytest.raises(ValueError, match=message):
        simulate(mix, data)
    with pytest.raises(ValueError, match=message):
        sized_simulation(mix, data)
    # one capacity alone overflows too, and the message names both
    with pytest.raises(ValueError, match=r"wind_gw 0\.0 and pv_gw 1e\+308 "):
        simulate(CapacityMix(pv_gw=1e308), data)
    # two hundredths of that stand, and every total is finite
    result = simulate(CapacityMix(wind_gw=1e306, pv_gw=1e306, dispatch_gw=10.0), data)
    totals = [getattr(result, f.name) for f in fields(result) if f.name != "trace"]
    assert all(math.isfinite(x) for x in totals), totals


def test_every_simulate_carries_the_ledger_of_its_pass():
    rng = np.random.default_rng(31)
    for _ in range(20):
        data = random_dataset(rng, n_steps=int(rng.integers(1, 60)))
        mix = random_mix(rng, with_baseload=bool(rng.integers(0, 2)))
        params = random_params(rng)
        trace = simulate(mix, data, params).trace

        demand = data.demand.values
        out = np.asarray(
            _kernels.balance_loop(
                demand,
                mix.wind_gw,
                data.wind_cf.values,
                mix.pv_gw,
                data.pv_cf.values,
                data.dt_hours,
                mix.baseload_gw * mix.baseload_eaf,
                mix.battery_power_gw,
                mix.battery_energy_gwh,
                params.round_trip_efficiency,
                params.initial_soc_fraction * mix.battery_energy_gwh,
                mix.dispatch_gw,
                params.battery_charges_from_dispatch,
            )
        )
        expected = {
            "demand_gw": demand,
            "baseload_gw": out[_kernels.ROW_BASELOAD],
            "renewable_to_demand_gw": out[_kernels.ROW_REN_TO_DEMAND],
            "battery_charge_gw": out[_kernels.ROW_CHARGE],
            "battery_discharge_gw": out[_kernels.ROW_DISCHARGE],
            "curtailed_gw": out[_kernels.ROW_CURTAILED],
            "dispatch_gw": out[_kernels.ROW_DISPATCH],
            "unserved_gw": out[_kernels.ROW_UNSERVED],
            "soc_gwh": out[_kernels.ROW_SOC],
            "charge_from_dispatch_gw": out[_kernels.ROW_CHARGE_FROM_DISPATCH],
            "dispatch_draw_gw": out[_kernels.ROW_DISPATCH_DRAW],
        }
        assert set(TRACE_COLUMNS[1:]) | {"charge_from_dispatch_gw", "dispatch_draw_gw"} == set(
            expected
        )
        for name, column in expected.items():
            assert np.array_equal(getattr(trace, name).view(np.int64), column.view(np.int64)), name
        assert trace.dt_hours == data.dt_hours


def test_every_trace_column_is_a_view_of_the_ledger():
    rng = np.random.default_rng(34)
    data = random_dataset(rng, n_steps=40)
    params = SimParams(battery_charges_from_dispatch=True)
    trace = simulate(random_mix(rng), data, params).trace
    ledger = trace._ledger.obj
    names = TRACE_COLUMNS[2:] + ("charge_from_dispatch_gw", "dispatch_draw_gw")
    for name in names:
        column = trace.column(name)
        assert column.obj is ledger and column.readonly, name
        values = getattr(trace, name)
        assert np.shares_memory(values, np.frombuffer(ledger)) and not values.flags.writeable, name
    # the ten rows, each read by one name
    assert sorted(dispatch._COLUMN_ROWS[name] for name in names) == list(range(_kernels.N_ROWS))
    assert trace.column("demand_gw").obj is data.demand.buffer.obj


def test_a_simulation_pickles_with_its_dataset_and_ledger():
    rng = np.random.default_rng(33)
    data = random_dataset(rng, n_steps=50)
    result = simulate(random_mix(rng), data)
    copied_data, copied = pickle.loads(pickle.dumps((data, result)))
    assert copied == result
    assert copied_data.demand.label == data.demand.label
    for name in TRACE_COLUMNS[1:]:
        got, want = getattr(copied.trace, name), getattr(result.trace, name)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
    for series in ("demand", "wind_cf", "pv_cf"):
        got, want = getattr(copied_data, series).values, getattr(data, series).values
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_validation_errors():
    with pytest.raises(ValueError, match="wind_gw"):
        CapacityMix(wind_gw=-1.0)
    with pytest.raises(ValueError, match="battery_hours"):
        CapacityMix(battery_hours=float("inf"))
    with pytest.raises(ValueError, match="baseload_eaf"):
        CapacityMix(baseload_eaf=1.5)
    with pytest.raises(ValueError, match="round_trip_efficiency"):
        SimParams(round_trip_efficiency=0.0)
    with pytest.raises(ValueError, match="initial_soc_fraction"):
        SimParams(initial_soc_fraction=-0.1)


@pytest.mark.parametrize("value", [-1.0, math.nan])
@pytest.mark.parametrize("name", [f.name for f in fields(CapacityMix) if f.name != "baseload_eaf"])
def test_every_capacity_is_range_checked(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0"):
        CapacityMix(**{name: value})


def test_battery_energy_that_overflows_is_refused():
    # 1e200 * 1e200 GWh is inf, whose start charge 0.0 * inf is nan
    with pytest.raises(
        ValueError,
        match=r"^battery_power_gw \* battery_hours must be finite, got 1e\+200 \* 1e\+200$",
    ):
        CapacityMix(battery_power_gw=1e200, battery_hours=1e200)
    # a product short of overflow stands
    assert CapacityMix(battery_power_gw=1e154, battery_hours=1e154).battery_energy_gwh < math.inf


def test_sizing_table_keeps_exact_coordinates_apart(monkeypatch):
    rng = np.random.default_rng(61)
    data = random_dataset(rng, n_steps=48)
    params = SimParams(initial_soc_fraction=0.3)
    keyed = ("wind_gw", "pv_gw", "battery_power_gw", "battery_hours", "baseload_gw", "baseload_eaf")
    mix = CapacityMix(
        wind_gw=10.0,
        pv_gw=5.0,
        battery_power_gw=2.0,
        battery_hours=4.0,
        baseload_gw=1.0,
        baseload_eaf=0.5,
    )
    zero = CapacityMix(baseload_eaf=0.0)
    mixes = (
        [mix, replace(mix, wind_gw=10)]  # an int apart from the equal float
        + [replace(mix, **{name: math.nextafter(getattr(mix, name), 0.0)}) for name in keyed]
        + [zero]
        + [replace(zero, **{name: -0.0}) for name in keyed]
    )
    want = [repr(_sized_figures(m, data, params)) for m in mixes]
    calls = []
    fresh = dispatch._sized
    monkeypatch.setattr(
        dispatch, "_sized", lambda *args: calls.append(repr(args[0])) or fresh(*args)
    )
    table = SizingTable(data, params)
    assert [repr(table.sized_energy(m)) for m in mixes] == want
    # the idle batteries of -0.0 power and -0.0 hours share zero's
    # storage-free pass; every other mix runs its own
    shared = {repr(replace(zero, **{name: -0.0})) for name in ("battery_power_gw", "battery_hours")}
    sized = [repr(m) for m in mixes if repr(m) not in shared]
    assert calls == sized and len(sized) == len(mixes) - 2 and len(table) == len(mixes)
    # a mix met again is not sized again; its dispatch_gw is not part of the key
    for m in mixes:
        assert table.sized_energy(replace(m, dispatch_gw=7.0)) is table.sized_energy(m)
    assert calls == sized


# The hours ladder of the default search space, with the signed zero, and
# the orders a table may meet its rungs in.
_LADDER = (-0.0, 0.0, 1.0, 2.0, 4.0, 8.0, 12.0, 24.0, 36.0, 48.0)
_ORDERS = ("ascending", "descending", "shuffled")


def _rung_order(rng, order):
    rungs = list(_LADDER)
    if order == "descending":
        rungs.reverse()
    elif order == "shuffled":
        rng.shuffle(rungs)
    return rungs


@pytest.mark.parametrize("order", _ORDERS)
def test_sizing_table_shares_a_pass_only_where_the_sizing_is_equal(monkeypatch, order):
    # every mix the table answers from another mix's pass, by an idle
    # battery (rule 1) or a capacity never reached (rule 2), equals its own
    # sizing by repr
    rng = np.random.default_rng(1900 + _ORDERS.index(order))
    calls = []
    fresh = dispatch._sized
    monkeypatch.setattr(dispatch, "_sized", lambda *args: calls.append(1) or fresh(*args))
    hits = {"idle": 0, "never full": 0}
    for _ in range(30):
        data = random_dataset(rng, n_steps=int(rng.integers(24, 120)))
        params = SimParams(
            round_trip_efficiency=float(rng.choice([1.0, rng.uniform(0.5, 1.0)])),
            initial_soc_fraction=float(rng.choice([0.0, 0.0, -0.0, rng.random(), 1.0])),
            battery_charges_from_dispatch=bool(rng.integers(0, 2)),
        )
        empty_start = repr(params.initial_soc_fraction) == "0.0"
        table = SizingTable(data, params)
        # wind and PV with and without baseload, then wind alone
        wind, pv, baseload = rng.uniform(0.0, 30.0, 3)
        systems = [(wind, pv, 0.0), (wind, pv, baseload / 5.0), (rng.uniform(0.0, 30.0), 0.0, 0.0)]
        for wind, pv, baseload in systems:
            for power in (0.0, -0.0, float(rng.uniform(0.5, 8.0)), float(rng.uniform(0.5, 8.0))):
                for hours in _rung_order(rng, order):
                    mix = CapacityMix(
                        wind_gw=float(wind),
                        pv_gw=float(pv),
                        battery_power_gw=power,
                        battery_hours=hours,
                        dispatch_gw=float(rng.uniform(0.0, 20.0)),
                        baseload_gw=float(baseload),
                        baseload_eaf=0.7,
                    )
                    before = len(calls)
                    got = table.sized_energy(mix)
                    ran = len(calls) > before
                    assert repr(got) == repr(_sized_figures(mix, data, params)), (mix, params)
                    if ran:
                        continue
                    start = params.initial_soc_fraction * mix.battery_energy_gwh
                    if _kernels._battery_is_idle(power, mix.battery_energy_gwh, start):
                        hits["idle"] += 1
                    else:
                        assert empty_start and not params.battery_charges_from_dispatch
                        hits["never full"] += 1
    assert hits["idle"] > 1000 and hits["never full"] > 50, hits


def test_sizing_table_shares_a_pass_at_a_margin_of_exactly_the_power(monkeypatch):
    # 2 GW of surplus, then 1 GW, then deficits: at dt = 1 and efficiency 1
    # the state of charge peaks at 3 GWh under any battery of 2 GW and 3
    # GWh or more.  At 5 GWh the headroom at the peak is the power exactly,
    # so no clamp binds and the pass of a 96 GWh battery is shared; one ulp
    # less capacity runs its own pass.
    data = _dataset(
        np.array([1.0, 1.0, 5.0, 5.0]), np.array([0.75, 0.5, 0.0, 0.0]), np.zeros(4)
    )
    params = SimParams(round_trip_efficiency=1.0)
    big = CapacityMix(wind_gw=4.0, battery_power_gw=2.0, battery_hours=48.0)
    mixes = [replace(big, battery_hours=h) for h in (48.0, 2.5, math.nextafter(2.5, 0.0))]
    want = [repr(_sized_figures(mix, data, params)) for mix in mixes]
    calls = []
    fresh = dispatch._sized
    monkeypatch.setattr(
        dispatch, "_sized", lambda mix, *rest: calls.append(mix) or fresh(mix, *rest)
    )
    table = SizingTable(data, params)
    assert [repr(table.sized_energy(mix)) for mix in mixes] == want
    assert calls == [mixes[0], mixes[2]]
