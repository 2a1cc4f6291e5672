from __future__ import annotations

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
    SimParams,
    SizingTable,
    TimeSeries,
    _kernels,
    simulate,
    size_dispatch,
)
from firmdispatch import dispatch
from firmdispatch.dispatch import TRACE_COLUMNS, DispatchTrace, sized_energy, write_trace_csv
from firmdispatch.profiles import scale_demand

from conftest import random_dataset, random_mix, random_params


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


@pytest.mark.parametrize("charge_from_dispatch", [False, True])
def test_sized_energy_matches_size_dispatch_and_simulate(charge_from_dispatch):
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
            sized = replace(mix, dispatch_gw=size_dispatch(mix, data, params))
            result = simulate(sized, data, params)
            expected = (sized, result.served_energy_twh, result.dispatch_energy_twh)
            assert repr(sized_energy(mix, data, params)) == repr(expected)


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
    ledger = np.empty((_kernels.N_ROWS, demand.shape[0]))
    _kernels.balance_loop(
        demand,
        mix.wind_gw * data.wind_cf.values + mix.pv_gw * data.pv_cf.values,
        data.dt_hours,
        mix.baseload_gw * mix.baseload_eaf,
        mix.battery_power_gw,
        mix.battery_energy_gwh,
        params.round_trip_efficiency,
        params.initial_soc_fraction * mix.battery_energy_gwh,
        np.inf,  # sizing: no dispatch cap
        False,  # and no charging from dispatch
        ledger,
    )
    want = ledger[_kernels.ROW_DISPATCH]
    with mock.patch.object(_kernels, "_battery_steps", wraps=_kernels._battery_steps) as steps:
        row = dispatch._uncapped_dispatch(mix, data, params)
        sized, served, energy = sized_energy(mix, data, params)
    # a mix without battery energy skips the step loop, any other runs it
    assert steps.call_count == (2 if mix.battery_energy_gwh > 0.0 else 0)
    assert np.array_equal(row.view(np.int64), want.view(np.int64))
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

    # sizing always charges from renewables only, so the flag cannot move it
    params_on = SimParams(battery_charges_from_dispatch=True)
    assert size_dispatch(mix, data, params_on) == size_dispatch(mix, data, SimParams())


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


def test_every_simulate_carries_the_ledger_of_its_pass():
    rng = np.random.default_rng(31)
    for _ in range(20):
        data = random_dataset(rng, n_steps=int(rng.integers(1, 60)))
        mix = random_mix(rng, with_baseload=bool(rng.integers(0, 2)))
        params = random_params(rng)
        trace = simulate(mix, data, params).trace

        demand = data.demand.values
        out = np.empty((_kernels.N_ROWS, demand.shape[0]))
        _kernels.balance_loop(
            demand,
            mix.wind_gw * data.wind_cf.values + mix.pv_gw * data.pv_cf.values,
            data.dt_hours,
            mix.baseload_gw * mix.baseload_eaf,
            mix.battery_power_gw,
            mix.battery_energy_gwh,
            params.round_trip_efficiency,
            params.initial_soc_fraction * mix.battery_energy_gwh,
            mix.dispatch_gw,
            params.battery_charges_from_dispatch,
            out,
        )
        expected = {
            "demand_gw": demand,
            "baseload_gw": out[_kernels.ROW_BASELOAD],
            "renewable_to_demand_gw": out[_kernels.ROW_REN_TO_DEMAND],
            "battery_charge_gw": out[_kernels.ROW_CHARGE_FROM_REN]
            + out[_kernels.ROW_CHARGE_FROM_DISPATCH],
            "battery_discharge_gw": out[_kernels.ROW_DISCHARGE],
            "curtailed_gw": out[_kernels.ROW_CURTAILED],
            "dispatch_gw": out[_kernels.ROW_DISPATCH],
            "unserved_gw": out[_kernels.ROW_UNSERVED],
            "soc_gwh": out[_kernels.ROW_SOC],
            "charge_from_dispatch_gw": out[_kernels.ROW_CHARGE_FROM_DISPATCH],
        }
        assert set(TRACE_COLUMNS[1:]) | {"charge_from_dispatch_gw"} == set(expected)
        for name, column in expected.items():
            assert np.array_equal(getattr(trace, name).view(np.int64), column.view(np.int64)), name
        assert trace.dt_hours == data.dt_hours


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


def test_sizing_table_keeps_exact_coordinates_apart(monkeypatch):
    rng = np.random.default_rng(61)
    data = random_dataset(rng, n_steps=48)
    params = SimParams(initial_soc_fraction=0.3)
    calls = []
    monkeypatch.setattr(
        dispatch, "sized_energy", lambda *args: calls.append(args[0]) or sized_energy(*args)
    )
    table = SizingTable(data, params)
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
    for m in mixes:
        assert repr(table.sized_energy(m)) == repr(sized_energy(m, data, params))
    assert calls == mixes and len(table) == len(mixes)
    # a mix met again is not sized again; its dispatch_gw is not part of the key
    for m in mixes:
        assert table.sized_energy(replace(m, dispatch_gw=7.0)) is table.sized_energy(m)
    assert calls == mixes
