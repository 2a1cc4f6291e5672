from __future__ import annotations

import itertools
import os
import subprocess
import sys
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firmdispatch import _kernels
from firmdispatch._kernels import (
    N_ROWS,
    ROW_BASELOAD,
    ROW_CHARGE,
    ROW_CHARGE_FROM_DISPATCH,
    ROW_CURTAILED,
    ROW_DISCHARGE,
    ROW_DISPATCH,
    ROW_DISPATCH_DRAW,
    ROW_REN_TO_DEMAND,
    ROW_SOC,
    ROW_UNSERVED,
    balance_loop,
)

SRC = Path(__file__).resolve().parent.parent / "src"


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
        out[ROW_CHARGE, t] = charge + charge_extra
        out[ROW_CHARGE_FROM_DISPATCH, t] = charge_extra
        out[ROW_DISCHARGE, t] = discharge
        out[ROW_CURTAILED, t] = curtailed
        out[ROW_DISPATCH, t] = dispatched
        out[ROW_UNSERVED, t] = residual
        out[ROW_SOC, t] = soc
        out[ROW_DISPATCH_DRAW, t] = dispatched + charge_extra


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


def _sentinel_ledger(args):
    """``balance_loop(*args)`` as an ndarray, its ledger allocated full of 7.0.

    A new buffer may hand out memory that already holds the right values; a
    ledger that starts as 7.0 in every cell shows any cell the C loop leaves
    unwritten.
    """
    allocated = []

    def sentinel_doubles(size):
        buffer = array("d", [7.0]) * size
        allocated.append(buffer)
        return buffer

    with mock.patch.object(_kernels, "_new_doubles", sentinel_doubles):
        got = balance_loop(*args)
    assert len(allocated) == 1 and got.obj is allocated[0]
    return np.asarray(got)


def test_python_loop_soc_stays_bounded():
    rng = np.random.default_rng(55)
    for _ in range(30):
        args = _random_call(rng)
        out = np.asarray(balance_loop(*args))
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
    # a further fifth of steps has generation equal to demand net of
    # baseload, a flow of +0.0
    tied = rng.random(n) < 0.2
    ren[tied] = (demand - np.minimum(demand, baseload_out))[tied]
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
                        got = _sentinel_ledger(args)
                        want = np.full((N_ROWS, n), -7.0)
                        reference_loop(*args, want)
                        assert np.array_equal(got.view(np.int64), want.view(np.int64)), args
                        for before, after in zip(inputs, args[:2]):
                            assert np.array_equal(before.view(np.int64), after.view(np.int64))


def test_balance_loop_rejects_series_of_unequal_length():
    with pytest.raises(ValueError):
        balance_loop(np.ones(4), np.ones(3), 1.0, 0.0, 0.0, 0.0, 0.85, 0.0, np.inf, False)


@pytest.mark.parametrize("soc0", [9.0, -1.0, np.nan])
def test_balance_loop_rejects_a_start_outside_the_battery(soc0):
    with pytest.raises(ValueError, match="start charge"):
        balance_loop(np.ones(4), np.ones(4), 1.0, 0.0, 2.0, 8.0, 0.85, soc0, np.inf, False)


def test_balance_loop_rejects_float32_series():
    # the C loop reads each series through its own pointer, and a float32
    # one would be read as half as many float64 steps: it is refused even
    # beside a float64 one, whose difference with it is float64
    single, double = np.ones(4, dtype=np.float32), np.full(4, 3.0)
    for demand, generation in ((single, 3 * single), (single, double), (double, single)):
        with pytest.raises(ValueError, match="must be float64"):
            balance_loop(demand, generation, 1.0, 0.0, 2.0, 8.0, 0.85, 4.0, np.inf, False)


@pytest.mark.parametrize("shape", [(4, 2), (4, 3), ()], ids=["4x2", "4x3", "0-d"])
@pytest.mark.parametrize("series", ["demand", "generation"])
def test_balance_loop_rejects_a_series_of_other_than_one_axis(series, shape):
    # the C loop reads the first n doubles of each series: a (4, 2) demand
    # would pass its interleaved columns off as one series of 4 steps
    bad, good = np.full(shape, 2.0), np.full(4, 3.0)
    demand, generation = (bad, good) if series == "demand" else (good, bad)
    with pytest.raises(ValueError, match=f"{series} must be float64 with one axis"):
        balance_loop(demand, generation, 1.0, 0.0, 2.0, 8.0, 0.85, 4.0, np.inf, False)


@pytest.mark.parametrize(
    "capacity, soc0, demand, row, want",
    [
        (8.0, -0.0, 5.0, ROW_DISCHARGE, -0.0),  # a draw clamps to -0.0 / dt
        # a charge clamps to (-0.0 - 0.0) / (efficiency * dt), and the
        # battery charge row adds the +0.0 top-up of a pass with the flag off
        (-0.0, 0.0, 0.0, ROW_CHARGE, 0.0),
    ],
    ids=["minus-zero-start", "minus-zero-capacity"],
)
def test_balance_loop_keeps_the_signed_zero_of_a_pinned_battery(capacity, soc0, demand, row, want):
    # the battery cannot move in the first step, yet the reference loop
    # writes a signed zero there: -0.0 for a draw from a -0.0 start; the
    # -0.0 charge under a -0.0 capacity plus a +0.0 top-up is +0.0, the
    # value of the battery_charge_gw column
    demand = np.full(2, demand)
    args = (demand, 5.0 - demand, 1.0, 0.0, 2.0, capacity, 0.9, soc0, np.inf, False)
    got = _bitwise_ledger(args)
    assert _bits(got[row, 0]) == _bits(want)


@st.composite
def _kernel_calls(draw):
    """One ``balance_loop`` call whose draws reach the loop's ties and clamps.

    Steps may tie baseload to demand, or generation to the demand baseload
    leaves, a flow of +0.0 (or -0.0, from -0.0 generation), and a quarter
    of passes have no surplus at all.  The battery may have no power, or
    power and no hours (-0.0 hours too, whose signed zeros the step loop
    must keep), and it may start empty, full, part full, at -0.0, or one
    charge short of full: the first step then has no residual demand and a
    surplus of exactly the headroom.
    """
    n = draw(st.integers(1, 40))
    dt = draw(st.sampled_from([1.0, 0.5]))
    baseload = draw(st.one_of(st.just(0.0), st.floats(0.0, 25.0)))
    demand = np.array(draw(st.lists(st.floats(0.0, 20.0), min_size=n, max_size=n)))
    gen = np.array(draw(st.lists(st.floats(0.0, 30.0), min_size=n, max_size=n)))
    tie_kinds = st.sampled_from(["none", "none", "base", "gen", "both", "-0.0"])
    ties = draw(st.lists(tie_kinds, min_size=n, max_size=n))
    for t, tie in enumerate(ties):
        if tie in ("base", "both", "-0.0"):
            demand[t] = baseload
        if tie in ("gen", "both"):
            gen[t] = demand[t] - (demand[t] if baseload > demand[t] else baseload)
        if tie == "-0.0":
            # -0.0 generation on demand the baseload meets: a flow of -0.0
            gen[t] = -0.0
    if draw(st.integers(0, 3)) == 0:
        # no step with surplus: generation at most the demand baseload leaves
        gen = np.minimum(gen, demand - np.minimum(demand, baseload))

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
    got = _sentinel_ledger(args)
    want = np.full((N_ROWS, n), -7.0)
    reference_loop(*args, want)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ===================== clamp edges =====================
#
# Four checks clamp a step: headroom or overfill in a charging step,
# availability or underflow in a discharging one.  The passes below put the
# first clamp at a chosen step, by one check alone, at the rounding edges
# where a charge equal to the headroom still overfills or a discharge equal
# to the stored energy still underflows, and the C loop must match the
# reference loop bit for bit there.  The ``test_prefix_*`` names date from
# a numpy running-sum prefix that ran until the first clamp.

CHECKS = ("headroom", "overfill", "availability", "underflow")


def _bitwise_ledger(args):
    """``balance_loop``'s ledger for ``args``, once it matches ``reference_loop``'s bit for bit."""
    n = args[0].shape[0]
    got = _sentinel_ledger(args)
    want = np.full((N_ROWS, n), -7.0)
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
    # a year of swings far inside a half-full battery: no step clamps
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
    # -0.0 hours give a -0.0 capacity and start, whose signed zeros the C
    # loop keeps
    rng = np.random.default_rng(1320)
    for start in (0.0, 0.5, 1.0):
        demand, ren = _swings(rng, 48, 6.0)
        args = (demand, ren, 0.5, 0.0, 3.0, 3.0 * hours, 0.9, start * 3.0 * hours, 2.0, False)
        _bitwise_ledger(args)


@pytest.mark.parametrize("dt", [1.0, 0.5])
def test_prefix_meets_a_subnormal_efficiency(dt):
    # the headroom (cap - soc) / (efficiency * dt) overflows to +inf, where
    # it never binds
    rng = np.random.default_rng(1325)
    demand, ren = _swings(rng, 48, 6.0)
    args = (demand, ren, dt, 0.0, 3.0, 12.0, 1e-320, 6.0, np.inf, False)
    got = _sentinel_ledger(args)
    want = np.full((N_ROWS, 48), -7.0)
    # the oracle steps numpy scalars, whose division warns where Python's does not
    with np.errstate(over="ignore"):
        reference_loop(*args, want)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.any(got[ROW_CHARGE] > 0.0)


def test_prefix_is_not_tried_with_the_flag_on():
    # spare dispatch tops the battery up in idle and charging steps
    rng = np.random.default_rng(1330)
    demand, ren = _swings(rng, 500, 5.0)
    cap = 1e6
    args = (demand, ren, 1.0, 0.0, 50.0, cap, 0.85, 0.5 * cap, 40.0, True)
    got = _bitwise_ledger(args)
    assert np.any(got[ROW_CHARGE_FROM_DISPATCH] > 0.0)


# ===================== empty start =====================
#
# With the flag off, a battery that starts at +0.0 stays there until the
# first step with surplus: each step before it is a deficit on the empty
# battery, which clamps its discharge to a stored energy of +0.0, or a flow
# of +0.0, which takes no branch.  With the flag on, spare dispatch may top
# it up sooner.


@pytest.mark.parametrize("hours", [0.0, -0.0, 4.0, 48.0])
def test_empty_start_waits_for_the_first_surplus(hours):
    rng = np.random.default_rng(1340)
    n = 60
    for first, start, charge_from_dispatch in itertools.product(
        (0, 1, 23, n - 1, n), (0.0, -0.0), (False, True)
    ):
        demand, ren = _swings(rng, n, 6.0)
        # deficits, idle steps and exact ties before the first surplus, none
        # at all for n
        ren[:first] = np.where(rng.random(first) < 0.3, demand[:first], 0.0)
        if first < n:
            demand[first], ren[first] = 0.0, float(rng.uniform(0.1, 6.0))
        cap = 3.0 * hours
        args = (demand, ren, 0.5, 0.0, 3.0, cap, 0.9, start * cap, 2.0, charge_from_dispatch)
        got = _bitwise_ledger(args)
        if hours and not np.signbit(start) and not charge_from_dispatch:
            # +0.0 bits in every step before the first surplus
            assert not np.any(got[ROW_SOC, :first].view(np.int64))


@pytest.mark.parametrize("capacity", [12.0, -0.0])
def test_empty_start_without_surplus_keeps_a_plus_zero_soc(capacity):
    # With the flag off and no surplus, every deficit clamps to a +0.0
    # discharge that leaves a +0.0 SOC, even under a -0.0 capacity, and a
    # zero flow of either sign takes no branch.
    rng = np.random.default_rng(1345)
    n = 200
    demand = 20.0 * rng.random(n)
    demand[rng.random(n) < 0.2] = 1.0  # below the baseload: no residual
    residual = demand - np.minimum(demand, 2.0)
    ren = residual * rng.random(n)
    tied = rng.random(n) < 0.2
    ren[tied] = residual[tied]  # a +0.0 flow
    ren[residual == 0.0] = -0.0  # a -0.0 flow
    args = (demand, ren, 1.0, 2.0, 3.0, capacity, 0.9, 0.0, 5.0, False)
    got = _bitwise_ledger(args)
    assert not np.any(got[ROW_SOC].view(np.int64))
    # one step of surplus, or the flag on, and a battery with room charges
    surplus = ren.copy()
    surplus[n // 2] += 1.0
    for changed in ((demand, surplus, *args[2:]), (*args[:-1], True)):
        got = _bitwise_ledger(changed)
        assert np.any(got[ROW_SOC] > 0.0) == (capacity > 0.0)


# ===================== loader =====================
#
# The C loop is compiled on first import into $XDG_CACHE_HOME/firmdispatch.
# These tests point that at an empty directory of their own.


def _child_imports(cache, code="", count=1):
    """Start ``count`` interpreters at once that run ``code`` and then
    import ``_kernels`` with ``cache`` as the cache home; each prints the
    library it loaded."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "XDG_CACHE_HOME": str(cache)}
    script = f"{code}\nfrom firmdispatch import _kernels\nprint(_kernels._LIBRARY._name)"
    children = [
        subprocess.Popen(
            [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        for _ in range(count)
    ]
    runs = []
    for child in children:
        out, err = child.communicate()
        runs.append((child.returncode, out.decode().strip(), err.decode()))
    return runs


def _libraries(cache):
    return sorted(path.name for path in (cache / "firmdispatch").iterdir())


def test_loader_compiles_a_cold_cache_then_loads(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    library = _kernels._load()
    (name,) = _libraries(tmp_path)
    assert library._name == str(tmp_path / "firmdispatch" / name)
    assert (tmp_path / "firmdispatch").stat().st_mode & 0o777 == 0o700
    # the fresh library runs a pass as the reference loop does
    balance = library.firmdispatch_balance
    balance.argtypes, balance.restype = _kernels._BALANCE.argtypes, None
    monkeypatch.setattr(_kernels, "_BALANCE", balance)
    _bitwise_ledger(_random_call(np.random.default_rng(1350)))


def test_loader_reuses_a_warm_cache_and_starts_no_process(tmp_path):
    ((code, cold, err),) = _child_imports(tmp_path)
    assert code == 0, err
    before = (tmp_path / "firmdispatch" / Path(cold).name).stat().st_mtime_ns
    # an audit hook turns any start of a process into an error
    hook = (
        "import sys\n"
        "def refuse(event, args):\n"
        "    if event in {'subprocess.Popen', 'os.system', 'os.posix_spawn', 'os.spawn',\n"
        "                 'os.fork', 'os.forkpty', 'os.exec'}:\n"
        "        raise RuntimeError(event)\n"
        "sys.addaudithook(refuse)"
    )
    ((code, warm, err),) = _child_imports(tmp_path, hook)
    assert (code, warm) == (0, cold), err
    assert _libraries(tmp_path) == [Path(cold).name]
    assert (tmp_path / "firmdispatch" / Path(cold).name).stat().st_mtime_ns == before
    # the hook does refuse a process
    ((code, _, err),) = _child_imports(tmp_path, hook + "\nimport subprocess; subprocess.run(['true'])")
    assert code != 0 and "RuntimeError: subprocess.Popen" in err


def test_loader_two_processes_on_an_empty_cache_load_the_same_file(tmp_path):
    runs = _child_imports(tmp_path, count=2)
    assert [code for code, _, _ in runs] == [0, 0], runs
    (first, _), (second, _) = [(out, err) for _, out, err in runs]
    assert first == second
    # each compiled under a temporary name and renamed it into place
    assert _libraries(tmp_path) == [Path(first).name]


def test_loader_names_the_compiler_and_its_first_error_line(tmp_path, monkeypatch):
    compiler = tmp_path / "failing-cc"
    compiler.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        "print('_kernels.c: In function f:', file=sys.stderr)\n"
        "print('_kernels.c:3:9: error: expected ; before }', file=sys.stderr)\n"
        "print('_kernels.c:4:1: error: the second error', file=sys.stderr)\n"
        "sys.exit(1)\n",
        encoding="utf-8",
    )
    compiler.chmod(0o755)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_kernels, "_command", lambda output: [str(compiler), "-o", output])
    with pytest.raises(ImportError) as failed:
        _kernels._load()
    message = str(failed.value)
    assert f" with {compiler}: _kernels.c:3:9: error: expected ; before }}" in message
    # the temporary output is gone, and no library was cached
    assert _libraries(tmp_path / "cache") == []
    # a compiler that does not start is named too
    missing = tmp_path / "no-such-cc"
    monkeypatch.setattr(_kernels, "_command", lambda output: [str(missing), "-o", output])
    with pytest.raises(ImportError, match=f"with {missing}: "):
        _kernels._load()
    assert _libraries(tmp_path / "cache") == []


def test_loader_names_a_cache_directory_it_cannot_make(tmp_path):
    # a cache root that is a regular file fails the import with ImportError,
    # not a raw OSError
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("", encoding="utf-8")
    ((code, _, err),) = _child_imports(blocker)
    last = err.strip().splitlines()[-1]
    assert code != 0
    assert last.startswith(f"ImportError: cannot compile {_kernels._SOURCE} into the cache ")
    assert f"directory {blocker / 'firmdispatch'}: " in last and "Not a directory" in last


# ===================== numpy's array work in C =====================
#
# ``scale``, ``total`` and ``peak`` stand in for numpy's elementwise
# ``a * x``, ``np.sum`` and ``np.max``, bit for bit.  Their inputs
# reach pairwise summation's block edges (8 and 128 values, and the halves
# above), signed zeros, subnormals and magnitudes 600 decades apart.

_SPECIALS = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, -1e-310, 1e300, -1e300, 0.1, -1.0]
)


def _drawn_vector(draw, n):
    """``n`` drawn doubles: normal draws over a drawn range of magnitudes,
    some replaced by ``_SPECIALS``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    decades = draw(st.sampled_from([0, 3, 30, 600]))
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-decades // 2, decades // 2 + 1, n)
    if draw(st.booleans()):
        values = np.abs(values)
    special = rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    values[special] = rng.choice(_SPECIALS, int(special.sum()))
    return values


@st.composite
def _vectors(draw):
    """One drawn vector of a length from 0 to 20,000."""
    edges = st.sampled_from([0, 1, 7, 8, 9, 15, 16, 127, 128, 129, 136, 255, 256, 257, 8760])
    return _drawn_vector(draw, draw(st.one_of(edges, st.integers(0, 300), st.integers(0, 20_000))))


def _address(vector):
    """The vector as ``_kernels.doubles`` (to be kept alive) and its address."""
    view = _kernels.doubles(vector)
    return view, _kernels.address(view)


def _bits(value):
    return np.float64(value).view(np.int64)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_vectors())
def test_total_is_np_sum_bitwise(values):
    view, at = _address(values)
    assert _bits(_kernels.total(values.shape[0], at)) == _bits(np.sum(values))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_vectors())
def test_peak_is_np_max_but_for_the_sign_of_a_mixed_zero(values):
    if values.shape[0] == 0:
        with pytest.raises(ValueError):
            _kernels.peak(0, 0)
        return
    view, at = _address(values)
    want = np.max(values)
    if want == 0.0 and np.any((values == 0.0) & ~np.signbit(values)):
        want = 0.0  # zeros of both signs: +0.0, where numpy's sign follows its lanes
    assert _bits(_kernels.peak(values.shape[0], at)) == _bits(want)


@pytest.mark.parametrize("n", [2, 7, 8, 9, 31, 128, 129, 8760])
def test_peak_of_zeros_of_both_signs_is_plus_zero(n):
    rng = np.random.default_rng(1400 + n)
    for _ in range(20):
        values = -rng.random(n) * (rng.random(n) < 0.5)
        zeros = rng.permutation(n)[: int(rng.integers(2, n + 1))]
        values[zeros] = np.where(rng.random(len(zeros)) < 0.5, 0.0, -0.0)
        values[zeros[:2]] = (0.0, -0.0)
        view, at = _address(values)
        assert _bits(_kernels.peak(n, at)) == _bits(0.0)
    # zeros of one sign keep it
    for values, want in (([-0.0] * n, -0.0), ([-1.0] * (n - 1) + [-0.0], -0.0), ([0.0] * n, 0.0)):
        view, at = _address(np.array(values))
        assert _bits(_kernels.peak(n, at)) == _bits(want) == _bits(np.max(values))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 400),
    st.integers(0, 2**32 - 1),
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, 3]), st.floats(0.0, 1e6)),
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, 7]), st.floats(0.0, 1e6)),
)
def test_generation_in_the_loop_is_wind_times_cf_plus_pv_times_cf(n, seed, wind_gw, pv_gw):
    # under a demand no generation reaches, and with no baseload or battery,
    # the renewables-to-demand row is the generation of each step itself
    rng = np.random.default_rng(seed)
    wind, pv = (
        np.where(rng.random(n) < 0.2, rng.choice([0.0, 1.0, 5e-324], n), rng.random(n))
        for _ in range(2)
    )
    generation = _kernels.Generation(wind_gw, wind, pv_gw, pv)
    args = (1.0, 0.0, 0.0, 0.0, 0.85, 0.0, np.inf, False)
    got = np.asarray(_kernels.balance_loop(np.full(n, 1e300), generation, *args))
    want = wind_gw * wind + pv_gw * pv
    assert np.array_equal(got[ROW_REN_TO_DEMAND].view(np.int64), want.view(np.int64))
    # and on drawn demand, with a battery, the ledger is that of the
    # generation computed first
    demand = 20.0 * rng.random(n)
    args = (1.0, 2.0, 5.0, 20.0, 0.85, 10.0, 8.0, bool(seed % 2))
    got = np.asarray(_kernels.balance_loop(demand, generation, *args))
    want = np.asarray(_kernels.balance_loop(demand, want, *args))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_scale_is_numpy_elementwise_bitwise():
    rng = np.random.default_rng(1410)
    for n in (1, 8, 129, 8760):
        a = rng.standard_normal(n) * 1e3
        a[: n // 3] = -0.0
        view, at = _address(a)
        for x in (1.0, 1.37, 3, 0.1, 5e-324):
            got = np.asarray(_kernels.scale(n, at, x))
            assert np.array_equal(got.view(np.int64), (a * x).view(np.int64))


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 127, 128, 129, 8760, 20_000])
def test_total_and_peak_at_the_block_edges(n):
    rng = np.random.default_rng(1420 + n)
    for _ in range(10):
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        special = rng.random(n) < 0.2
        values[special] = rng.choice(_SPECIALS, int(special.sum()))
        view, at = _address(values)
        assert _bits(_kernels.total(n, at)) == _bits(np.sum(values))
        if n and not (np.max(values) == 0.0 and np.any(values == 0.0)):
            assert _bits(_kernels.peak(n, at)) == _bits(np.max(values))
    # numpy adds the pairwise sum to +0.0, so -0.0 alone sums to +0.0
    view, at = _address(np.full(n, -0.0))
    assert _bits(_kernels.total(n, at)) == _bits(np.sum(np.full(n, -0.0))) == _bits(0.0)
