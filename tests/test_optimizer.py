from __future__ import annotations

import itertools
from dataclasses import replace

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
    SearchSpace,
    SimParams,
    SizingTable,
    TimeSeries,
    load_series,
    optimize,
    simulate,
)
from firmdispatch import costing
from firmdispatch.costing import crf
from firmdispatch.dispatch import TRACE_COLUMNS
from firmdispatch.optimizer import (
    TRAJECTORY_COLUMNS,
    grid_axis,
    write_trajectory_csv,
)
from firmdispatch.profiles import demand_stats, synthesize_dataset

from conftest import FIXTURES, random_dataset, stepped_passes
from oracle import evaluate


def _flat_dataset(demand_gw, wind_cf, pv_cf, n=168):
    return AlignedDataset(
        demand=TimeSeries(np.full(n, demand_gw), 1.0, KIND_DEMAND),
        wind_cf=TimeSeries(np.full(n, wind_cf), 1.0, KIND_CAPACITY_FACTOR),
        pv_cf=TimeSeries(np.full(n, pv_cf), 1.0, KIND_CAPACITY_FACTOR),
    )


def test_grid_axis_inclusive_bounds():
    assert grid_axis(0.0, 1.0, 0.1) == pytest.approx([k * 0.1 for k in range(11)])
    assert grid_axis(0.0, 1.0, 0.3) == pytest.approx([0.0, 0.3, 0.6, 0.9])
    assert grid_axis(5.0, 5.0, 1.0) == [5.0]
    assert max(grid_axis(0.0, 17.3, 2.0)) <= 17.3
    # the top rung is clamped to hi where lo + k * step rounds above it
    assert grid_axis(0.0, 0.3, 0.1) == [0.0, 0.1, 0.2, 0.3]
    assert grid_axis(0.0, 0.7, 0.1)[-1] == 0.7
    peak = 13.531406977426041  # the week fixture's peak demand, GW
    for hi in (3.0 * peak, 1.5 * peak):
        axis = grid_axis(0.0, hi, 0.1 * peak)
        assert axis[-1] == hi and max(axis) <= hi


def test_search_space_validation():
    good = dict(wind_gw=(0.0, 10.0, 5.0), pv_gw=(0.0, 10.0, 5.0), battery_power_gw=(0.0, 5.0, 5.0))
    SearchSpace(**good)
    with pytest.raises(ValueError, match="wind_gw range"):
        SearchSpace(**{**good, "wind_gw": (10.0, 0.0, 5.0)})
    with pytest.raises(ValueError, match="pv_gw step"):
        SearchSpace(**{**good, "pv_gw": (0.0, 10.0, 0.0)})
    with pytest.raises(ValueError, match="strictly increasing"):
        SearchSpace(**good, battery_hours=(0.0, 4.0, 2.0))
    with pytest.raises(ValueError, match="ladder"):
        SearchSpace(**good, battery_hours=())
    with pytest.raises(ValueError, match="positive"):
        SearchSpace(**good, refine_tolerance_gw=0.0)
    # the largest battery of the grid, 1e200 GW for 1e200 h, holds inf GWh
    huge = {**good, "battery_power_gw": (0.0, 1e200, 1e200), "battery_hours": (0.0, 1e200)}
    with pytest.raises(
        ValueError,
        match=r"^battery_power_gw max \* battery_hours max must be finite, got 1e\+200 \* 1e\+200$",
    ):
        SearchSpace(**huge)
    SearchSpace(**{**huge, "battery_hours": (0.0, 1e100)})


def test_evaluate_all_dispatch_closed_form():
    rng = np.random.default_rng(40)
    data = random_dataset(rng, n_steps=96, dt_hours=1.0)
    book = CostBook()
    ev = evaluate(CapacityMix(), data, book=book)

    peak = float(np.max(data.demand.values))
    served_mwh = float(np.sum(data.demand.values)) * 1000.0
    capital = peak * 1e6 * 800.0 * crf(0.08, 30)
    om = peak * 1e6 * 8.0
    fuel = served_mwh * 200.0
    assert ev.mix.dispatch_gw == peak
    assert ev.result.unserved_energy_twh == 0.0
    assert ev.cost.unit_cost_usd_per_mwh == pytest.approx(
        (capital + om + fuel) / served_mwh, rel=1e-9
    )


def test_evaluate_is_pure():
    rng = np.random.default_rng(41)
    data = random_dataset(rng, n_steps=48)
    candidate = CapacityMix(wind_gw=8.0, pv_gw=3.0, battery_power_gw=2.0, battery_hours=4.0)
    a = evaluate(candidate, data)
    b = evaluate(candidate, data)
    assert a.mix == b.mix
    assert a.cost == b.cost
    assert a.result == b.result


def test_singleton_space_returns_single_evaluation():
    rng = np.random.default_rng(42)
    data = random_dataset(rng, n_steps=48)
    space = SearchSpace(
        wind_gw=(4.0, 4.0, 1.0),
        pv_gw=(2.0, 2.0, 1.0),
        battery_power_gw=(1.0, 1.0, 1.0),
        battery_hours=(2.0,),
    )
    result = optimize(space, data)
    assert result.evaluations == 1
    assert len(result.trajectory) == 1
    assert result.best.mix.wind_gw == 4.0
    assert result.best.mix.battery_hours == 2.0


def test_optimize_never_loses_to_brute_force():
    data = synthesize_dataset(seed=7, total_hours=168)
    space = SearchSpace(
        wind_gw=(0.0, 30.0, 10.0),
        pv_gw=(0.0, 20.0, 10.0),
        battery_power_gw=(0.0, 10.0, 5.0),
        battery_hours=(0.0, 2.0, 8.0),
    )
    result = optimize(space, data)

    brute_best = min(
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
    assert result.best.cost.unit_cost_usd_per_mwh <= brute_best + 1e-12


def test_optimize_is_deterministic_including_trajectory():
    data = synthesize_dataset(seed=3, total_hours=96)
    space = SearchSpace(
        wind_gw=(0.0, 20.0, 10.0),
        pv_gw=(0.0, 20.0, 10.0),
        battery_power_gw=(0.0, 5.0, 5.0),
        battery_hours=(0.0, 4.0),
    )
    a = optimize(space, data)
    b = optimize(space, data)
    assert a.evaluations == b.evaluations
    assert a.best.mix == b.best.mix
    assert a.trajectory == b.trajectory
    assert a.evaluations == len(a.trajectory)


def test_trajectory_candidates_are_feasible_and_contain_best():
    data = synthesize_dataset(seed=5, total_hours=96)
    space = SearchSpace(
        wind_gw=(0.0, 20.0, 10.0),
        pv_gw=(0.0, 10.0, 10.0),
        battery_power_gw=(0.0, 5.0, 5.0),
        battery_hours=(0.0, 2.0),
    )
    result = optimize(space, data)
    costs = [cost for _, cost in result.trajectory]
    assert result.best.cost.unit_cost_usd_per_mwh == min(costs)
    for mix, _ in result.trajectory[::7]:
        assert simulate(mix, data).unserved_energy_twh == 0.0


def test_refinement_improves_on_coarse_grid():
    # Constant profiles put the cost kink at wind = demand/cf = 20.8 GW,
    # between coarse rungs.  Fuel is priced high so the optimizer wants
    # wind right at the kink; refinement must close in on it.
    data = _flat_dataset(10.4, 0.5, 0.0)
    book = CostBook(fuel_price_usd_per_gj=1040.0)
    space = SearchSpace(
        wind_gw=(0.0, 30.0, 5.0),
        pv_gw=(0.0, 0.0, 1.0),
        battery_power_gw=(0.0, 0.0, 1.0),
        battery_hours=(0.0,),
    )
    coarse_only = replace(space, refine_tolerance_gw=1e9, refine_tolerance_hours=1e9)
    coarse = optimize(coarse_only, data, book=book)
    refined = optimize(space, data, book=book)

    assert refined.best.cost.unit_cost_usd_per_mwh < coarse.best.cost.unit_cost_usd_per_mwh
    assert abs(refined.best.mix.wind_gw - 20.8) <= 0.2
    assert refined.evaluations > coarse.evaluations


def test_exact_ties_resolve_to_smallest_build():
    # Free wind with zero resource: every wind size costs the same, so the
    # tie-break on installed capacity must pick zero.
    data = _flat_dataset(5.0, 0.0, 0.0, n=48)
    book = CostBook(capex_wind_usd_per_kw=0.0)
    space = SearchSpace(
        wind_gw=(0.0, 10.0, 5.0),
        pv_gw=(0.0, 0.0, 1.0),
        battery_power_gw=(0.0, 0.0, 1.0),
        battery_hours=(0.0,),
    )
    result = optimize(space, data, book=book)
    assert result.best.mix.wind_gw == 0.0


def test_trajectory_csv_round_trip(tmp_path):
    data = synthesize_dataset(seed=6, total_hours=72)
    space = SearchSpace(
        wind_gw=(0.0, 10.0, 10.0),
        pv_gw=(0.0, 10.0, 10.0),
        battery_power_gw=(0.0, 0.0, 1.0),
        battery_hours=(0.0,),
    )
    result = optimize(space, data)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
    assert len(lines) == len(result.trajectory) + 1
    first_mix, first_cost = result.trajectory[0]
    cells = lines[1].split(",")
    assert cells[0] == "0"
    assert float(cells[1]) == first_mix.wind_gw
    assert float(cells[5]) == first_mix.dispatch_gw
    assert float(cells[6]) == first_cost


def test_dispatch_is_sized_endogenously():
    data = synthesize_dataset(seed=8, total_hours=96)
    stats = demand_stats(data.demand)
    space = SearchSpace(
        wind_gw=(0.0, 2.0 * stats.peak_gw, stats.peak_gw),
        pv_gw=(0.0, stats.peak_gw, stats.peak_gw),
        battery_power_gw=(0.0, 0.0, 1.0),
        battery_hours=(0.0,),
    )
    result = optimize(space, data)
    assert result.best.result.unserved_energy_twh == 0.0
    assert result.best.mix.dispatch_gw <= stats.peak_gw


def _week_fixture():
    return AlignedDataset(
        demand=load_series(FIXTURES / "demand.csv", KIND_DEMAND),
        wind_cf=load_series(FIXTURES / "wind_cf.csv", KIND_CAPACITY_FACTOR),
        pv_cf=load_series(FIXTURES / "pv_cf.csv", KIND_CAPACITY_FACTOR),
    )


@pytest.mark.parametrize(
    "charge_from_dispatch, baseload_gw", [(False, 0.0), (True, 0.0), (False, 4.0), (True, 4.0)]
)
def test_coarse_scan_matches_evaluate_point_by_point(charge_from_dispatch, baseload_gw):
    # 125 of the 225 grid points have no battery energy and skip the step
    # loop; the scan sizes each point in one pass, evaluate in two
    data = _week_fixture()
    space = SearchSpace(
        wind_gw=(0.0, 40.0, 10.0),
        pv_gw=(0.0, 28.0, 7.0),
        battery_power_gw=(0.0, 20.0, 10.0),
        battery_hours=(0.0, 2.0, 8.0),
        baseload_gw=baseload_gw,
        baseload_eaf=0.8,
        refine_tolerance_gw=2.5,
        refine_tolerance_hours=1.0,
    )
    params = SimParams(
        initial_soc_fraction=0.4, battery_charges_from_dispatch=charge_from_dispatch
    )
    result = optimize(space, data, params)

    def reference(mix):
        return evaluate(replace(mix, dispatch_gw=0.0), data, params)

    grid = [
        CapacityMix(
            wind_gw=w,
            pv_gw=p,
            battery_power_gw=bp,
            battery_hours=bh,
            baseload_gw=baseload_gw,
            baseload_eaf=0.8,
        )
        for w, p, bp, bh in itertools.product(
            grid_axis(*space.wind_gw),
            grid_axis(*space.pv_gw),
            grid_axis(*space.battery_power_gw),
            space.battery_hours,
        )
    ]
    expected = [(ev.mix, ev.cost.unit_cost_usd_per_mwh) for ev in map(reference, grid)]
    assert len(result.trajectory) > len(grid)  # refinement ran too
    assert repr(result.trajectory[: len(grid)]) == repr(expected)
    best = reference(result.best.mix)
    assert repr((result.best.mix, result.best.result, result.best.cost)) == repr(
        (best.mix, best.result, best.cost)
    )


@pytest.mark.parametrize("charge_from_dispatch, passes", [(False, 1), (True, 2)])
def test_refinement_point_runs_one_pass_unless_dispatch_charges_the_battery(
    charge_from_dispatch, passes
):
    rng = np.random.default_rng(45)
    data = random_dataset(rng, n_steps=96)
    params = SimParams(
        initial_soc_fraction=0.5, battery_charges_from_dispatch=charge_from_dispatch
    )
    space = SearchSpace(
        wind_gw=(0.0, 16.0, 8.0),
        pv_gw=(0.0, 12.0, 6.0),
        battery_power_gw=(0.0, 6.0, 3.0),
        # the winner has no battery power, so refinement reaches both kinds of point
        battery_hours=(1.0, 4.0),
        baseload_gw=2.0,
        baseload_eaf=0.7,
        refine_tolerance_gw=1.0,
        refine_tolerance_hours=1.0,
    )
    n_coarse = 3 * 3 * 3 * 2
    with stepped_passes() as stepped:
        result = optimize(space, data, params)
    points = [mix for mix, _ in result.trajectory]
    assert len(points) == result.evaluations
    storage_free = [m.battery_energy_gwh == 0.0 for m in points]
    # both kinds of point occur, coarse and refined
    assert {False, True} <= set(storage_free[:n_coarse])
    assert {False, True} <= set(storage_free[n_coarse:])
    # only a point with battery energy steps its battery: once to size it,
    # and once more to simulate it with the flag on; the winner has no
    # battery power, so its final simulation steps nothing
    assert result.best.mix.battery_power_gw == 0.0
    assert sum(stepped) == passes * (len(points) - sum(storage_free))


_COUNTING_SPACE = SearchSpace(
    wind_gw=(0.0, 16.0, 8.0),
    pv_gw=(0.0, 12.0, 6.0),
    battery_power_gw=(0.0, 6.0, 3.0),
    battery_hours=(0.0, 1.0, 4.0),
    baseload_gw=2.0,
    baseload_eaf=0.7,
    refine_tolerance_gw=1.0,
    refine_tolerance_hours=1.0,
)


def test_a_search_calls_crf_nowhere(monkeypatch):
    data = random_dataset(np.random.default_rng(46), n_steps=72)
    book = CostBook(capex_battery_usd_per_kwh=20.0, life_battery_years=12)
    calls = []
    monkeypatch.setattr(costing, "crf", lambda *args: calls.append(args) or crf(*args))
    result = optimize(_COUNTING_SPACE, data, SimParams(), book)
    # the book computed its annuities when it was made
    assert result.evaluations > 0 and calls == []


@pytest.mark.parametrize("charge_from_dispatch", [False, True])
def test_a_new_point_builds_two_mixes(monkeypatch, charge_from_dispatch):
    data = random_dataset(np.random.default_rng(47), n_steps=72)
    params = SimParams(initial_soc_fraction=0.0, battery_charges_from_dispatch=charge_from_dispatch)
    table = SizingTable(data, params)
    built = []
    check = CapacityMix.__post_init__
    monkeypatch.setattr(CapacityMix, "__post_init__", lambda mix: built.append(mix) or check(mix))
    result = optimize(_COUNTING_SPACE, data, params, table=table)
    # the point's mix and the sized mix the table keeps for it
    assert len(built) == 2 * result.evaluations
    # searched again through the same table, a point builds its own mix alone
    built.clear()
    again = optimize(_COUNTING_SPACE, data, params, table=table)
    assert len(built) == again.evaluations == result.evaluations


def test_refinement_path_is_pinned():
    # Cheap wind and storage, dear fuel: refinement walks wind, PV, battery
    # power and hours, clamps at the 40 GW wind bound, halves its steps and
    # meets earlier points again.  Every coordinate is an exact binary
    # fraction, so the sequence is the same on every platform.
    data = _week_fixture()
    space = SearchSpace(
        wind_gw=(0.0, 40.0, 10.0),
        pv_gw=(0.0, 28.0, 7.0),
        battery_power_gw=(0.0, 20.0, 10.0),
        battery_hours=(0.0, 2.0, 8.0),
        refine_tolerance_gw=1.0,
        refine_tolerance_hours=0.5,
    )
    book = CostBook(
        capex_wind_usd_per_kw=100,
        capex_pv_usd_per_kw=60,
        capex_battery_usd_per_kwh=10,
        fuel_price_usd_per_gj=60,
    )
    result = optimize(space, data, book=book)
    refined = [
        (m.wind_gw, m.pv_gw, m.battery_power_gw, m.battery_hours)
        for m, _ in result.trajectory[225:]
    ]
    assert refined == [
        (35.0, 0.0, 20.0, 2.0),
        (40.0, 3.5, 20.0, 2.0),
        (40.0, 0.0, 15.0, 2.0),
        (40.0, 0.0, 15.0, 0.0),
        (40.0, 0.0, 15.0, 5.0),
        (35.0, 0.0, 15.0, 2.0),
        (40.0, 3.5, 15.0, 2.0),
        (37.5, 0.0, 15.0, 2.0),
        (40.0, 1.75, 15.0, 2.0),
        (40.0, 0.0, 12.5, 2.0),
        (40.0, 0.0, 17.5, 2.0),
        (40.0, 0.0, 15.0, 0.5),
        (40.0, 0.0, 15.0, 3.5),
        (38.75, 0.0, 15.0, 2.0),
        (38.75, 0.0, 13.75, 2.0),
        (38.75, 0.0, 16.25, 2.0),
        (38.75, 0.0, 16.25, 1.25),
        (38.75, 0.0, 16.25, 2.75),
        (37.5, 0.0, 16.25, 2.0),
        (40.0, 0.0, 16.25, 2.0),
        (38.75, 0.0, 17.5, 2.0),
    ]
    assert result.evaluations == len(result.trajectory) == 225 + 21
    best = result.best.mix
    assert (best.wind_gw, best.pv_gw, best.battery_power_gw, best.battery_hours) == (
        38.75,
        0.0,
        16.25,
        2.0,
    )


def _ledger_bits(optim):
    trace = optim.best.result.trace
    names = TRACE_COLUMNS[1:] + ("charge_from_dispatch_gw",)
    return np.stack([getattr(trace, name) for name in names]).view(np.int64)


# Capital is spread over the energy of the dataset span, so on 48 steps it
# weighs a hundred times its yearly share or more; only cheap builds make
# the winners differ from book to book.
SHARED_TABLE_BOOKS = (
    CostBook(),
    CostBook(capex_wind_usd_per_kw=20, capex_pv_usd_per_kw=20, capex_battery_usd_per_kwh=2),
    CostBook(capex_wind_usd_per_kw=20, capex_pv_usd_per_kw=60, capex_battery_usd_per_kwh=20),
    CostBook(
        capex_wind_usd_per_kw=60,
        capex_pv_usd_per_kw=20,
        capex_battery_usd_per_kwh=2,
        fuel_price_usd_per_gj=30,
    ),
    CostBook(
        capex_wind_usd_per_kw=100,
        capex_pv_usd_per_kw=60,
        capex_battery_usd_per_kwh=10,
        fuel_price_usd_per_gj=60,
    ),
)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    charge_from_dispatch=st.booleans(),
    baseload_gw=st.sampled_from([0.0, 3.0]),
    ladder=st.sampled_from([(0.0, 2.0, 8.0), (-0.0, 2.0, 8.0)]),
    books=st.lists(st.sampled_from(SHARED_TABLE_BOOKS), min_size=2, max_size=3),
)
def test_searches_sharing_a_table_match_searches_alone(
    seed, charge_from_dispatch, baseload_gw, ladder, books
):
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, n_steps=48)
    params = SimParams(
        initial_soc_fraction=0.4, battery_charges_from_dispatch=charge_from_dispatch
    )
    space = SearchSpace(
        wind_gw=(0.0, 30.0, 10.0),
        pv_gw=(0.0, 20.0, 10.0),
        battery_power_gw=(0.0, 8.0, 4.0),
        battery_hours=ladder,
        baseload_gw=baseload_gw,
        baseload_eaf=0.7,
        refine_tolerance_gw=2.0,
        refine_tolerance_hours=1.0,
    )
    table = SizingTable(data, params)
    shared = [optimize(space, data, params, book, table) for book in books]
    for book, got in zip(books, shared):
        alone = optimize(space, data, params, book)
        assert repr((got.trajectory, got.best, got.evaluations)) == repr(
            (alone.trajectory, alone.best, alone.evaluations)
        )
        assert np.array_equal(_ledger_bits(got), _ledger_bits(alone))
    # every book searched the same coarse grid, sized once
    assert len(table) < sum(optim.evaluations for optim in shared)


def test_optimize_rejects_a_table_of_other_data_or_params():
    rng = np.random.default_rng(47)
    data = random_dataset(rng, n_steps=24)
    space = SearchSpace(
        wind_gw=(0.0, 10.0, 10.0), pv_gw=(0.0, 0.0, 1.0), battery_power_gw=(0.0, 0.0, 1.0)
    )
    params = SimParams(initial_soc_fraction=0.5)
    table = SizingTable(data, params)
    copy = AlignedDataset(demand=data.demand, wind_cf=data.wind_cf, pv_cf=data.pv_cf)
    with pytest.raises(ValueError, match="another dataset"):
        optimize(space, copy, params, table=table)
    for other in (
        SimParams(initial_soc_fraction=0.4),
        SimParams(initial_soc_fraction=0.5, battery_charges_from_dispatch=True),
        SimParams(round_trip_efficiency=0.9, initial_soc_fraction=0.5),
    ):
        with pytest.raises(ValueError, match="SimParams"):
            optimize(space, data, other, table=table)
    # params equal under == but not bit for bit
    with pytest.raises(ValueError, match="SimParams"):
        optimize(space, data, SimParams(initial_soc_fraction=-0.0), table=SizingTable(data))
    assert len(table) == 0
    # params built anew with the same fields are the same params
    optim = optimize(space, data, SimParams(initial_soc_fraction=0.5), table=table)
    assert len(table) == optim.evaluations > 0
