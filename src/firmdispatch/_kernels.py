"""Hot inner loop of the dispatch simulation.

The battery state couples every step to the one before it, so once its
charge or discharge is clamped it cannot be vectorized across time.
Everything else in a step can: ``balance_loop`` runs a pass in three
stages.

1. Baseload, renewables to demand, the surplus, the residual demand and
   the signed flow ``ren_gen - (demand - base)`` depend only on the step's
   inputs, so they are whole-array numpy expressions.  The flow is the
   surplus where it is positive and the residual negated where it is
   negative, bit for bit (``a - b`` is exactly ``-(b - a)``); a zero flow,
   of either sign, is a step with neither.
2. ``_battery_steps`` walks only the flow and writes the charge, the
   discharge and the state of charge.  With ``charge_from_dispatch`` off
   and a charged start it first runs ``_running_sum_prefix``: until a
   clamp binds, the state of charge is a numpy running sum of the steps'
   flows.  From the first clamp on (or from the start), it steps as plain
   Python on Python floats, and only where the battery can move: a surplus
   into a full battery and a deficit on an empty one change nothing, so
   those steps skip the charge and the discharge.  An empty start thus
   walks its deficits cheaply until the first surplus.
3. Curtailment, dispatch and unserved demand follow from those rows as
   whole arrays again.

Each stage uses the float operations of the element-indexed loop in its
order, so the ledger is the same bit for bit.  A battery that cannot act
(no power, or no energy and an empty start) leaves stage 2 with nothing to
do, so it is skipped and the pass is pure numpy.  So is a pass with the
flag off that starts empty at +0.0 and has no surplus: every deficit
clamps its discharge to a stored energy of +0.0, even under a -0.0
capacity, and leaves the SOC at +0.0, and a zero flow takes no branch.

Two tests here let ``dispatch.SizingTable`` answer a mix from another
mix's pass.  ``_battery_is_idle`` says when the battery cannot act on any
flow, so the ledger does not depend on the battery.
``_capacity_never_binds`` says when, with the flag off and a +0.0 start,
no step of a pass meets the capacity, so the ledger is that of every
battery of the same power that clears the same margin.
"""

from __future__ import annotations

import math

import numpy as np

# Row indices of the step ledger filled by the balance loop.
ROW_BASELOAD = 0
ROW_REN_TO_DEMAND = 1
ROW_CHARGE_FROM_REN = 2
ROW_CHARGE_FROM_DISPATCH = 3
ROW_DISCHARGE = 4
ROW_CURTAILED = 5
ROW_DISPATCH = 6
ROW_UNSERVED = 7
ROW_SOC = 8
N_ROWS = 9


def _battery_is_idle(battery_power, battery_energy_cap, soc0):
    """Whether every battery flow of the step loop would be +0.0 and its SOC ``soc0``.

    A battery without power takes no branch of the loop.  One with power
    but no energy that starts empty clamps every flow to a headroom or a
    stored charge of zero; those zeros are +0.0 only when the capacity and
    the start are +0.0 (a -0.0 capacity signs the clamped charge).
    """
    if not battery_power > 0.0:
        return True
    return (
        battery_energy_cap == 0.0
        and soc0 == 0.0
        and math.copysign(1.0, battery_energy_cap) > 0.0
        and math.copysign(1.0, soc0) > 0.0
    )


def balance_loop(
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
    """Run the merit-order balance over all steps, filling ``out`` in place.

    Per step: baseload first, then renewables, surplus renewables charge the
    battery (losses applied on the way in), remaining surplus is curtailed,
    deficits draw the battery and then dispatchable capacity, and whatever
    is left goes unserved.  ``demand`` and ``ren_gen`` must be finite
    float64 vectors of one length, and ``out`` a float64 array of shape
    (N_ROWS, n_steps); ``efficiency`` and ``dt`` must be positive.  All
    power values are GW, state of charge is GWh.

    The start charge ``soc0`` must lie in ``[0, battery_energy_cap]``, or
    ``ValueError`` is raised (a NaN on either side too): the battery step
    relies on it to skip pinned steps and to leave its flows unfloored.
    """
    if demand.shape[0] != ren_gen.shape[0]:
        raise ValueError(
            f"demand has {demand.shape[0]} steps but generation has {ren_gen.shape[0]}"
        )
    battery_energy_cap = float(battery_energy_cap)
    soc0 = float(soc0)
    if not 0.0 <= soc0 <= battery_energy_cap:
        raise ValueError(
            f"the start charge {soc0!r} GWh is outside [0, {battery_energy_cap!r}] GWh"
        )
    dispatch_cap = float(dispatch_cap)

    base = np.where(baseload_out > demand, demand, baseload_out)
    residual = demand - base
    flow = ren_gen - residual  # the surplus where positive, the residual negated where negative
    to_demand = np.where(ren_gen > residual, residual, ren_gen)
    residual -= to_demand
    surplus = ren_gen - to_demand
    out[ROW_BASELOAD] = base
    out[ROW_REN_TO_DEMAND] = to_demand
    out[[ROW_CHARGE_FROM_REN, ROW_CHARGE_FROM_DISPATCH, ROW_DISCHARGE]] = 0.0

    # the +0.0 start is tested first, so a charged start scans no flow
    starts_empty = soc0 == 0.0 and math.copysign(1.0, soc0) > 0.0
    if _battery_is_idle(battery_power, battery_energy_cap, soc0) or (
        starts_empty and not charge_from_dispatch and not (flow > 0.0).any()
    ):
        out[ROW_SOC] = soc0
    else:
        _battery_steps(
            flow,
            float(dt),
            float(battery_power),
            battery_energy_cap,
            float(efficiency),
            soc0,
            dispatch_cap,
            bool(charge_from_dispatch),
            out,
        )
        residual -= out[ROW_DISCHARGE]

    np.subtract(surplus, out[ROW_CHARGE_FROM_REN], out=out[ROW_CURTAILED])
    dispatched = np.where(residual > dispatch_cap, dispatch_cap, residual)
    out[ROW_DISPATCH] = dispatched
    np.subtract(residual, dispatched, out=out[ROW_UNSERVED])


def _battery_steps(
    flow,
    dt,
    battery_power,
    battery_energy_cap,
    efficiency,
    soc,
    dispatch_cap,
    charge_from_dispatch,
    out,
):
    """Step the battery through the signed flow: surplus above zero, residual demand below.

    Writes the charge, top-up and discharge rows, which the caller zeroes,
    only in steps the battery acts, and the state of charge at every step.
    A step with surplus has no residual demand left, so it charges or it
    discharges, never both, and a zero flow does neither.  ``battery_power``
    is positive.  The running-sum prefix writes the steps before the first
    clamp, and the loop the rest.  A battery that starts empty clamps at
    its first deficit, and top-ups from spare dispatch are not in the sum,
    so the prefix is tried only with a positive start and the flag off.

    The loop steps only where the battery can move.  A surplus into a full
    battery would clamp its charge to a headroom of +0.0, and a deficit on
    an empty one its discharge to a stored energy of +0.0: the rows hold
    +0.0 already and the SOC would not change, so such a pinned step skips
    the branch and writes only its SOC.  A pass that starts empty at +0.0
    with the flag off is pinned so until its first surplus; ``balance_loop``
    skips one without surplus.  A top-up from spare dispatch into a full
    battery clamps to a headroom of +0.0 the same way, so it is skipped
    too.  Those zeros are -0.0 instead under a -0.0
    capacity (``-0.0 - 0.0``) or from a -0.0 start (``-0.0 / dt``).  The
    SOC is never -0.0 once the battery has acted, so one flag per pass,
    ``signed``, moves ``full`` and ``empty`` out of reach for those passes,
    and they step every step with no sign test per step.

    The top-up reads the step's charge and discharge from their rows, not
    from the loop's locals, which may still hold an earlier step's: a row
    holds what the branch wrote, or the caller's +0.0 where no branch ran
    or a pinned step skipped it, which is what the branch would have left.
    The residual demand the top-up leaves to dispatch is the flow negated
    in a deficit, and +0.0 otherwise.

    The loop has no floors at zero.  ``balance_loop`` checks that the start
    lies in ``[0, battery_energy_cap]`` and the clamps keep the SOC there,
    so the headroom and the stored energy are never negative, nor is a flow
    clamped to them; a -0.0 is not below zero, so a floor never changed a
    value.

    The flow is read and rows written through memoryviews, so the steps run
    on Python floats: indexing a numpy array yields numpy scalars, whose
    arithmetic costs several times more.
    """
    # a pinned step is skipped unless the pass may sign its zero flows
    signed = battery_energy_cap == 0.0 or math.copysign(1.0, soc) < 0.0
    full = math.inf if signed else battery_energy_cap
    empty = -math.inf if signed else 0.0

    start = 0
    if soc > 0.0 and not charge_from_dispatch:
        start, soc = _running_sum_prefix(
            flow, dt, battery_power, battery_energy_cap, efficiency, soc, out
        )

    charge_row = memoryview(out[ROW_CHARGE_FROM_REN])
    charge_extra_row = memoryview(out[ROW_CHARGE_FROM_DISPATCH])
    discharge_row = memoryview(out[ROW_DISCHARGE])
    soc_row = memoryview(out[ROW_SOC])
    efficiency_dt = efficiency * dt

    for t, step in enumerate(memoryview(flow)[start:], start):
        if step > 0.0:
            if soc < full:
                charge = step
                if charge > battery_power:
                    charge = battery_power
                headroom = (battery_energy_cap - soc) / efficiency_dt
                if charge > headroom:
                    charge = headroom
                soc += efficiency * charge * dt
                if soc > battery_energy_cap:
                    soc = battery_energy_cap
                charge_row[t] = charge
        elif step < 0.0 and soc > empty:
            discharge = -step
            if discharge > battery_power:
                discharge = battery_power
            available = soc / dt
            if discharge > available:
                discharge = available
            soc -= discharge * dt
            if soc < 0.0:
                soc = 0.0
            discharge_row[t] = discharge

        # top up from spare dispatch only in steps the battery is not
        # discharging; simultaneous charge and discharge would be churn
        if charge_from_dispatch and soc < full and discharge_row[t] == 0.0:
            dispatched = -step if step < 0.0 else 0.0
            if dispatched > dispatch_cap:
                dispatched = dispatch_cap
            spare = dispatch_cap - dispatched
            power_left = battery_power - charge_row[t]
            if spare > 0.0 and power_left > 0.0:
                charge_extra = spare
                if charge_extra > power_left:
                    charge_extra = power_left
                headroom = (battery_energy_cap - soc) / efficiency_dt
                if charge_extra > headroom:
                    charge_extra = headroom
                soc += efficiency * charge_extra * dt
                if soc > battery_energy_cap:
                    soc = battery_energy_cap
                charge_extra_row[t] = charge_extra

        soc_row[t] = soc


def _capacity_never_binds(battery_power, battery_energy_cap, efficiency, dt, peak_soc):
    """Whether the capacity binds in no step of a pass whose SOC never exceeds ``peak_soc``.

    Takes the floats ``balance_loop`` hands the step loop, and tests the
    loop's own headroom ``(cap - soc) / (efficiency * dt)`` at the peak.
    Every charge starts from a SOC of at most the peak, and the headroom
    cannot rise with the SOC, rounding included, so when it is at least
    ``battery_power`` at the peak, the headroom clamp never binds on a
    charge of at most that power.  The overfill clamp and the full-battery
    skip need the SOC to reach the capacity, and a peak there has a
    headroom of at most 0.0, so they never bind either.
    """
    return (battery_energy_cap - peak_soc) / (efficiency * dt) >= battery_power


def _running_sum_prefix(flow, dt, battery_power, battery_energy_cap, efficiency, soc0, out):
    """Write the battery rows up to the first step a clamp binds; return that step and its SOC.

    Until then a step with a positive flow charges it and one with a
    negative flow discharges it negated, each capped at ``battery_power``,
    and the state of charge is a running sum of the steps' increments.
    Four checks of the step loop can change that: headroom and overfill in
    a charging step, availability and underflow in a discharging one.  Each
    is evaluated with the loop's own expression on the accumulated SOC, and
    the step loop takes over at the first step one binds (or at ``n`` if
    none does).  No charge or discharge is negative: an unclamped one is
    the least of two positives.

    The sum is one ``np.add.accumulate``, which adds in step order, and a
    discharge adds ``-(discharge * dt)``, which IEEE 754 rounds as the
    loop's subtraction.  An idle step adds +0.0, which leaves any SOC but
    -0.0 as it is; ``soc0`` is positive and a running sum that reaches zero
    reaches +0.0, so none is -0.0.
    """
    charging = flow > 0.0
    discharging = flow < 0.0
    charge = np.where(flow > battery_power, battery_power, flow)
    discharge = np.where(flow < -battery_power, battery_power, -flow)
    increments = np.where(charging, efficiency * charge * dt, 0.0)
    np.copyto(increments, -(discharge * dt), where=discharging)
    soc = np.add.accumulate(np.concatenate(([soc0], increments)))
    before, after = soc[:-1], soc[1:]

    # A subnormal efficiency * dt can overflow the headroom to +inf, as the
    # step loop's own division does; that headroom never binds.
    with np.errstate(over="ignore"):
        headroom = (battery_energy_cap - before) / (efficiency * dt)
    clamps = charging & ((charge > headroom) | (after > battery_energy_cap))
    clamps |= discharging & ((discharge > before / dt) | (after < 0.0))
    hits = np.flatnonzero(clamps)
    stop = int(hits[0]) if hits.shape[0] else clamps.shape[0]

    np.copyto(out[ROW_CHARGE_FROM_REN, :stop], charge[:stop], where=charging[:stop])
    np.copyto(out[ROW_DISCHARGE, :stop], discharge[:stop], where=discharging[:stop])
    out[ROW_SOC, :stop] = after[:stop]
    return stop, float(soc[stop])
