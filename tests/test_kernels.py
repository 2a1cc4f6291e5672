from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firmdispatch._kernels import (
    N_ROWS,
    ROW_BASELOAD,
    ROW_CHARGE_FROM_DISPATCH,
    ROW_CHARGE_FROM_REN,
    ROW_CURTAILED,
    ROW_DISCHARGE,
    ROW_DISPATCH,
    ROW_REN_TO_DEMAND,
    ROW_SOC,
    ROW_UNSERVED,
    balance_loop,
)


def reference_loop(
    demand,
    ren_gen,
    dt,
    baseload_out,
    battery_power,
    battery_energy_cap,
    efficiency,
    soc0,
    dispatch_cap,
    charge_from_dispatch,
    out,
):
    """Frozen element-indexed balance loop: the oracle ``balance_loop`` must match bit for bit."""
    n = demand.shape[0]
    soc = soc0
    for t in range(n):
        d = demand[t]

        base = baseload_out
        if base > d:
            base = d
        residual = d - base

        gen = ren_gen[t]
        to_demand = gen
        if to_demand > residual:
            to_demand = residual
        residual -= to_demand
        surplus = gen - to_demand

        charge = 0.0
        if surplus > 0.0 and battery_power > 0.0:
            charge = surplus
            if charge > battery_power:
                charge = battery_power
            headroom = (battery_energy_cap - soc) / (efficiency * dt)
            if charge > headroom:
                charge = headroom
            if charge < 0.0:
                charge = 0.0
            soc += efficiency * charge * dt
            if soc > battery_energy_cap:
                soc = battery_energy_cap
        curtailed = surplus - charge

        discharge = 0.0
        if residual > 0.0 and battery_power > 0.0:
            discharge = residual
            if discharge > battery_power:
                discharge = battery_power
            available = soc / dt
            if discharge > available:
                discharge = available
            if discharge < 0.0:
                discharge = 0.0
            soc -= discharge * dt
            if soc < 0.0:
                soc = 0.0
            residual -= discharge

        dispatched = residual
        if dispatched > dispatch_cap:
            dispatched = dispatch_cap
        residual -= dispatched

        charge_extra = 0.0
        if charge_from_dispatch and discharge == 0.0:
            spare = dispatch_cap - dispatched
            power_left = battery_power - charge
            if spare > 0.0 and power_left > 0.0:
                charge_extra = spare
                if charge_extra > power_left:
                    charge_extra = power_left
                headroom = (battery_energy_cap - soc) / (efficiency * dt)
                if charge_extra > headroom:
                    charge_extra = headroom
                if charge_extra < 0.0:
                    charge_extra = 0.0
                soc += efficiency * charge_extra * dt
                if soc > battery_energy_cap:
                    soc = battery_energy_cap

        out[ROW_BASELOAD, t] = base
        out[ROW_REN_TO_DEMAND, t] = to_demand
        out[ROW_CHARGE_FROM_REN, t] = charge
        out[ROW_CHARGE_FROM_DISPATCH, t] = charge_extra
        out[ROW_DISCHARGE, t] = discharge
        out[ROW_CURTAILED, t] = curtailed
        out[ROW_DISPATCH, t] = dispatched
        out[ROW_UNSERVED, t] = residual
        out[ROW_SOC, t] = soc


def _random_call(rng):
    n = int(rng.integers(8, 300))
    demand = 20.0 * rng.random(n)
    ren = 25.0 * rng.random(n)
    dt = float(rng.choice([1.0, 0.5]))
    battery_power = float(rng.uniform(0.0, 8.0))
    battery_energy = battery_power * float(rng.choice([0.0, 1.0, 4.0, 12.0]))
    return (
        demand,
        ren,
        dt,
        float(rng.uniform(0.0, 5.0)),  # baseload output
        battery_power,
        battery_energy,
        float(rng.uniform(0.5, 1.0)),  # efficiency
        battery_energy * float(rng.random()),  # initial soc
        float(rng.choice([0.0, 3.0, 8.0, np.inf])),  # dispatch cap
        bool(rng.integers(0, 2)),  # charge from dispatch
    )


def test_python_loop_soc_stays_bounded():
    rng = np.random.default_rng(55)
    for _ in range(30):
        args = _random_call(rng)
        n = args[0].shape[0]
        out = np.empty((N_ROWS, n))
        balance_loop(*args, out)
        cap = args[5]
        assert np.all(out[ROW_SOC] >= 0.0)
        assert np.all(out[ROW_SOC] <= cap)


def _oracle_case(rng, n, dt, cap, charge_from_dispatch, scalar, strided):
    """Inputs of one randomized ``balance_loop`` call, varied as the oracle test needs."""
    # a fifth of demand equals the baseload and 30 % of steps have no
    # renewables, so ties and zero flows reach every clamp
    stride = 3 if strided else 1
    demand = (20.0 * rng.random(n * stride))[::stride]
    ren = 25.0 * rng.random(n) * (rng.random(n) < 0.7)
    baseload_out = float(rng.choice([0.0, rng.uniform(0.0, 6.0)]))
    demand[rng.random(n) < 0.2] = baseload_out
    battery_power = float(rng.choice([0.0, rng.uniform(0.0, 8.0)]))
    battery_energy = battery_power * float(rng.choice([0.0, 1.0, 4.0, 12.0]))
    soc0 = battery_energy * float(rng.choice([0.0, 1.0, rng.random()]))
    efficiency = float(rng.uniform(0.5, 1.0))
    params = [dt, baseload_out, battery_power, battery_energy, efficiency, soc0, cap]
    if scalar:
        params = [np.float64(p) for p in params]
    return (demand, ren, *params, charge_from_dispatch)


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("scalar", [False, True])
def test_balance_loop_matches_element_indexed_loop_bitwise(scalar, strided):
    rng = np.random.default_rng(900 + 2 * scalar + strided)
    for dt in (1.0, 0.5):
        for cap in (0.0, 3.0, 8.0, np.inf):
            for charge_from_dispatch in (False, True):
                for n in (1, 2, int(rng.integers(8, 300))):
                    for _ in range(3):
                        args = _oracle_case(rng, n, dt, cap, charge_from_dispatch, scalar, strided)
                        assert args[0].strides == ((24,) if strided else (8,))
                        inputs = [a.copy() for a in args[:2]]
                        got = np.full((N_ROWS, n), 7.0)
                        want = np.full((N_ROWS, n), -7.0)
                        balance_loop(*args, got)
                        reference_loop(*args, want)
                        assert np.array_equal(got.view(np.int64), want.view(np.int64)), args
                        for before, after in zip(inputs, args[:2]):
                            assert np.array_equal(before.view(np.int64), after.view(np.int64))


def test_balance_loop_rejects_series_of_unequal_length():
    out = np.empty((N_ROWS, 4))
    with pytest.raises(ValueError):
        balance_loop(np.ones(4), np.ones(3), 1.0, 0.0, 0.0, 0.0, 0.85, 0.0, np.inf, False, out)


@pytest.mark.parametrize("soc0", [9.0, -1.0, np.nan])
def test_balance_loop_rejects_a_start_outside_the_battery(soc0):
    out = np.empty((N_ROWS, 4))
    with pytest.raises(ValueError, match="start charge"):
        balance_loop(np.ones(4), np.ones(4), 1.0, 0.0, 2.0, 8.0, 0.85, soc0, np.inf, False, out)


@pytest.mark.parametrize(
    "capacity, soc0, demand, row",
    [
        (8.0, -0.0, 5.0, ROW_DISCHARGE),  # a draw clamps to -0.0 / dt
        (-0.0, 0.0, 0.0, ROW_CHARGE_FROM_REN),  # a charge to (-0.0 - 0.0) / (efficiency * dt)
    ],
    ids=["minus-zero-start", "minus-zero-capacity"],
)
def test_balance_loop_keeps_the_signed_zero_of_a_pinned_battery(capacity, soc0, demand, row):
    # the battery cannot move in the first step, yet the reference loop
    # writes a -0.0 flow there
    demand = np.full(2, demand)
    args = (demand, 5.0 - demand, 1.0, 0.0, 2.0, capacity, 0.9, soc0, np.inf, False)
    got = _bitwise_ledger(args)
    assert got[row, 0] == 0.0 and np.signbit(got[row, 0])


@st.composite
def _kernel_calls(draw):
    """One ``balance_loop`` call whose draws reach the loop's ties and clamps.

    Steps may tie baseload to demand, or generation to the demand baseload
    leaves.  The battery may have no power, or power and no hours (-0.0
    hours too, whose signed zeros the step loop must keep), and it may
    start empty, full, part full, at -0.0, or one charge short of full: the
    first step then has no residual demand and a surplus of exactly the
    headroom.
    """
    n = draw(st.integers(1, 40))
    dt = draw(st.sampled_from([1.0, 0.5]))
    baseload = draw(st.one_of(st.just(0.0), st.floats(0.0, 25.0)))
    demand = np.array(draw(st.lists(st.floats(0.0, 20.0), min_size=n, max_size=n)))
    gen = np.array(draw(st.lists(st.floats(0.0, 30.0), min_size=n, max_size=n)))
    tie_kinds = st.sampled_from(["none", "none", "base", "gen", "both"])
    ties = draw(st.lists(tie_kinds, min_size=n, max_size=n))
    for t, tie in enumerate(ties):
        if tie in ("base", "both"):
            demand[t] = baseload
        if tie in ("gen", "both"):
            gen[t] = demand[t] - (demand[t] if baseload > demand[t] else baseload)

    power = draw(st.one_of(st.just(0.0), st.floats(0.01, 10.0), st.floats(1.0, 10.0)))
    hours = draw(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 4.0]), st.floats(0.0, 24.0)))
    capacity = power * hours
    efficiency = draw(st.one_of(st.just(1.0), st.floats(0.5, 1.0)))
    start = draw(st.sampled_from(["empty", "full", "part", "fill", "-0.0"]))
    if start == "fill":
        short = efficiency * dt * power * draw(st.floats(0.0, 1.0))
        soc0 = capacity - short if capacity > short else 0.0
        demand[0] = baseload
        gen[0] = (capacity - soc0) / (efficiency * dt)
    elif start == "part":
        soc0 = draw(st.floats(0.0, 1.0)) * capacity
    elif start == "-0.0":
        soc0 = -0.0
    else:
        soc0 = (0.0 if start == "empty" else 1.0) * capacity
    cap = draw(st.one_of(st.sampled_from([0.0, np.inf]), st.floats(0.0, 25.0)))
    charge_from_dispatch = draw(st.booleans())
    return (demand, gen, dt, baseload, power, capacity, efficiency, soc0, cap, charge_from_dispatch)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_kernel_calls())
def test_balance_loop_matches_reference_loop_on_drawn_ties(args):
    n = args[0].shape[0]
    got = np.full((N_ROWS, n), 7.0)
    want = np.full((N_ROWS, n), -7.0)
    balance_loop(*args, got)
    reference_loop(*args, want)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ===================== running-sum prefix =====================
#
# With the flag off and a charged start, the battery rows are a running sum
# until the first of four checks binds: headroom or overfill in a charging
# step, availability or underflow in a discharging one.  The passes below
# put that first clamp at a chosen step, by one check alone, and the step
# loop must carry on from there bit for bit.

CHECKS = ("headroom", "overfill", "availability", "underflow")


def _bitwise_ledger(args):
    """``balance_loop``'s ledger for ``args``, once it matches ``reference_loop``'s bit for bit."""
    n = args[0].shape[0]
    got = np.full((N_ROWS, n), 7.0)
    want = np.full((N_ROWS, n), -7.0)
    balance_loop(*args, got)
    reference_loop(*args, want)
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), args
    return got


def _swings(rng, n, size):
    """Demand and generation of ``n`` steps that charge, discharge or idle by
    at most ``size``, with no baseload, so the surplus and the residual are
    the drawn values exactly."""
    kind = rng.integers(0, 3, n)
    value = size * rng.random(n)
    demand = np.where(kind == 1, value, 0.0)
    ren = np.where(kind == 0, value, 0.0)
    return demand, ren


def _binding_checks(soc, value, dt, power, cap, efficiency, charging):
    """The checks of the step loop that bind when ``value`` meets ``soc``."""
    flow = power if value > power else value
    if charging:
        binds = {
            "headroom": flow > (cap - soc) / (efficiency * dt),
            "overfill": soc + efficiency * flow * dt > cap,
        }
    else:
        binds = {"availability": flow > soc / dt, "underflow": soc - flow * dt < 0.0}
    return {name for name, bound in binds.items() if bound}


def _clamp_alone_pass(rng, check, dt):
    """A pass whose first clamp is ``check`` alone at a drawn step, or None.

    Steps before it swing by under 1 % of the capacity from half full, so
    none clamps.  At the chosen step the surplus is the headroom (or one
    ulp above it), or the residual is the stored energy over ``dt`` (or one
    ulp above it): the rounding edges at which each check can bind without
    its partner.
    """
    n = int(rng.integers(20, 80))
    k = int(rng.integers(1, n - 1))
    efficiency = float(rng.uniform(0.5, 1.0))
    cap = float(rng.uniform(10.0, 200.0))
    soc0 = 0.5 * cap
    power = 4.0 * cap / (efficiency * dt)
    demand, ren = _swings(rng, n, 0.01 * cap * min(dt, 1.0))
    head = (demand[:k], ren[:k], dt, 0.0, power, cap, efficiency, soc0, np.inf, False)
    before = np.empty((N_ROWS, k))
    reference_loop(*head, before)
    soc = before[ROW_SOC, -1]

    charging = check in ("headroom", "overfill")
    edge = (cap - soc) / (efficiency * dt) if charging else soc / dt
    value = np.nextafter(edge, np.inf) if check in ("headroom", "availability") else edge
    if _binding_checks(soc, value, dt, power, cap, efficiency, charging) != {check}:
        return None
    demand[k], ren[k] = (0.0, value) if charging else (value, 0.0)
    return (demand, ren, dt, 0.0, power, cap, efficiency, soc0, np.inf, False), k


@pytest.mark.parametrize("check", CHECKS)
def test_prefix_hands_off_at_a_clamp_by_one_check_alone(check):
    # a power-of-two dt scales exactly, so there availability and underflow
    # always bind together; 0.3 and 0.7 reach the edges between them
    rng = np.random.default_rng(1300 + CHECKS.index(check))
    found = {dt: 0 for dt in (1.0, 0.5, 0.3, 0.7)}
    for _ in range(4000):
        dt = float(rng.choice(list(found)))
        case = _clamp_alone_pass(rng, check, dt)
        if case is None:
            continue
        args, k = case
        got = _bitwise_ledger(args)
        # the clamp at k took effect: the state of charge is still in range
        assert 0.0 <= got[ROW_SOC, k] <= args[5]
        found[dt] += 1
        if sum(found.values()) == 40:
            break
    assert sum(found.values()) == 40, found
    assert found[0.3] + found[0.7] > 0


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("dt", [1.0, 0.5])
def test_prefix_covers_a_pass_that_never_clamps(dt, strided):
    # a year of swings far inside a half-full battery: the running sum is the
    # whole pass
    rng = np.random.default_rng(1310 + 2 * strided + (dt == 0.5))
    n = 8760
    demand, ren = _swings(rng, n * (3 if strided else 1), 5.0)
    if strided:
        demand, ren = demand[::3], ren[::3]
    cap = 1e6
    args = (demand, ren, dt, 0.0, 50.0, cap, 0.85, 0.5 * cap, np.inf, False)
    got = _bitwise_ledger(args)
    assert np.all(got[ROW_CURTAILED] == 0.0)
    assert np.all(got[ROW_UNSERVED] == 0.0)


@pytest.mark.parametrize("hours", [0.0, -0.0, 4.0])
def test_prefix_meets_signed_zero_capacity_and_start(hours):
    # -0.0 hours give a -0.0 capacity and start: no running sum is tried,
    # and the step loop keeps the signed zeros
    rng = np.random.default_rng(1320)
    for start in (0.0, 0.5, 1.0):
        demand, ren = _swings(rng, 48, 6.0)
        args = (demand, ren, 0.5, 0.0, 3.0, 3.0 * hours, 0.9, start * 3.0 * hours, 2.0, False)
        _bitwise_ledger(args)


def test_prefix_is_not_tried_with_the_flag_on():
    # spare dispatch tops the battery up in idle and charging steps, which a
    # running sum of surplus and residual alone would miss
    rng = np.random.default_rng(1330)
    demand, ren = _swings(rng, 500, 5.0)
    cap = 1e6
    args = (demand, ren, 1.0, 0.0, 50.0, cap, 0.85, 0.5 * cap, 40.0, True)
    got = _bitwise_ledger(args)
    assert np.any(got[ROW_CHARGE_FROM_DISPATCH] > 0.0)
