"""Hot inner loop of the dispatch simulation.

The battery state couples every step to the one before it, so once its
charge or discharge is clamped it cannot be vectorized across time.
Everything else in a step can: ``balance_loop`` runs a pass in three
stages.

1. Baseload, renewables to demand, the surplus and the residual demand
   depend only on the step's inputs, so they are whole-array numpy
   expressions.
2. ``_battery_steps`` walks only the surplus and the residual and writes
   the charge, the discharge and the state of charge.  With
   ``charge_from_dispatch`` off and a charged start it first runs
   ``_running_sum_prefix``: until a clamp binds, the state of charge is a
   numpy running sum of the steps' flows.  From the first clamp on (or from
   the start), it steps as plain Python on Python floats, and only where
   the battery can move: a surplus into a full battery and a deficit on an
   empty one change nothing, so those steps skip the charge and the
   discharge.
3. Curtailment, dispatch and unserved demand follow from those rows as
   whole arrays again.

Each stage uses the float operations of the element-indexed loop in its
order, so the ledger is the same bit for bit.  A battery that cannot act
(no power, or no energy and an empty start) leaves stage 2 with nothing to
do, so it is skipped and the pass is pure numpy.
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
    to_demand = np.where(ren_gen > residual, residual, ren_gen)
    residual -= to_demand
    surplus = ren_gen - to_demand
    out[ROW_BASELOAD] = base
    out[ROW_REN_TO_DEMAND] = to_demand
    out[[ROW_CHARGE_FROM_REN, ROW_CHARGE_FROM_DISPATCH, ROW_DISCHARGE]] = 0.0

    if _battery_is_idle(battery_power, battery_energy_cap, soc0):
        out[ROW_SOC] = soc0
    else:
        _battery_steps(
            surplus,
            residual,
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
    surplus,
    residual,
    dt,
    battery_power,
    battery_energy_cap,
    efficiency,
    soc,
    dispatch_cap,
    charge_from_dispatch,
    out,
):
    """Step the battery through the surplus and the residual demand.

    Writes the charge, top-up and discharge rows, which the caller zeroes,
    only in steps the battery acts, and the state of charge at every step.
    A step with surplus has no residual demand left, so it charges or it
    discharges, never both.  ``battery_power`` is positive.  The running-sum
    prefix writes the steps before the first clamp, and the loop the rest.
    A battery that starts empty clamps at its first deficit, and top-ups
    from spare dispatch are not in the sum, so the prefix is tried only
    with a positive start and the flag off.

    The loop steps only where the battery can move.  A surplus into a full
    battery would clamp its charge to a headroom of +0.0, and a deficit on
    an empty one its discharge to a stored energy of +0.0: the rows hold
    +0.0 already and the SOC would not change, so such a pinned step skips
    the branch and writes only its SOC.  A top-up then sees the charge and
    the discharge at 0.0, as after the branch.  Those zeros are -0.0
    instead under a -0.0 capacity (``-0.0 - 0.0``) or from a -0.0 start
    (``-0.0 / dt``).  The SOC is never -0.0 once the battery has acted, so
    one flag per pass, ``signed``, moves ``full`` and ``empty`` out of reach
    for those passes, and they step every step with no sign test per step.

    The loop has no floors at zero.  ``balance_loop`` checks that the start
    lies in ``[0, battery_energy_cap]`` and the clamps keep the SOC there,
    so the headroom and the stored energy are never negative, nor is a flow
    clamped to them; a -0.0 is not below zero, so a floor never changed a
    value.

    Inputs are read and rows written through memoryviews, so the steps run
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
            surplus, residual, dt, battery_power, battery_energy_cap, efficiency, soc, out
        )

    charge_row = memoryview(out[ROW_CHARGE_FROM_REN])
    charge_extra_row = memoryview(out[ROW_CHARGE_FROM_DISPATCH])
    discharge_row = memoryview(out[ROW_DISCHARGE])
    soc_row = memoryview(out[ROW_SOC])
    efficiency_dt = efficiency * dt

    steps = zip(memoryview(surplus)[start:], memoryview(residual)[start:])
    for t, (excess, deficit) in enumerate(steps, start):
        charge = 0.0
        discharge = 0.0
        if excess > 0.0:
            if soc < full:
                charge = excess
                if charge > battery_power:
                    charge = battery_power
                headroom = (battery_energy_cap - soc) / efficiency_dt
                if charge > headroom:
                    charge = headroom
                soc += efficiency * charge * dt
                if soc > battery_energy_cap:
                    soc = battery_energy_cap
                charge_row[t] = charge
        elif deficit > 0.0 and soc > empty:
            discharge = deficit
            if discharge > battery_power:
                discharge = battery_power
            available = soc / dt
            if discharge > available:
                discharge = available
            soc -= discharge * dt
            if soc < 0.0:
                soc = 0.0
            deficit -= discharge
            discharge_row[t] = discharge

        # top up from spare dispatch only in steps the battery is not
        # discharging; simultaneous charge and discharge would be churn
        if charge_from_dispatch and discharge == 0.0:
            dispatched = deficit
            if dispatched > dispatch_cap:
                dispatched = dispatch_cap
            spare = dispatch_cap - dispatched
            power_left = battery_power - charge
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


def _running_sum_prefix(
    surplus, residual, dt, battery_power, battery_energy_cap, efficiency, soc0, out
):
    """Write the battery rows up to the first step a clamp binds; return that step and its SOC.

    Until then each step's flow is the surplus or the residual capped at
    ``battery_power``, and the state of charge is a running sum of the
    steps' increments.  Four checks of the step loop can change that:
    headroom and overfill in a charging step, availability and underflow
    in a discharging one.  Each is evaluated with the loop's own expression
    on the accumulated SOC, and the step loop takes over at the first step
    one binds (or at ``n`` if none does).  No flow is negative: an
    unclamped flow is the least of two positives.

    The sum is one ``np.add.accumulate``, which adds in step order, and a
    discharge adds ``-(discharge * dt)``, which IEEE 754 rounds as the
    loop's subtraction.  An idle step adds +0.0, which leaves any SOC but
    -0.0 as it is; ``soc0`` is positive and a running sum that reaches zero
    reaches +0.0, so none is -0.0.
    """
    charging = surplus > 0.0
    discharging = ~charging & (residual > 0.0)
    charge = np.where(surplus > battery_power, battery_power, surplus)
    discharge = np.where(residual > battery_power, battery_power, residual)
    increments = np.where(charging, efficiency * charge * dt, 0.0)
    np.copyto(increments, -(discharge * dt), where=discharging)
    soc = np.add.accumulate(np.concatenate(([soc0], increments)))
    before, after = soc[:-1], soc[1:]

    clamps = charging & (
        (charge > (battery_energy_cap - before) / (efficiency * dt))
        | (after > battery_energy_cap)
    )
    clamps |= discharging & ((discharge > before / dt) | (after < 0.0))
    hits = np.flatnonzero(clamps)
    stop = int(hits[0]) if hits.shape[0] else clamps.shape[0]

    np.copyto(out[ROW_CHARGE_FROM_REN, :stop], charge[:stop], where=charging[:stop])
    np.copyto(out[ROW_DISCHARGE, :stop], discharge[:stop], where=discharging[:stop])
    out[ROW_SOC, :stop] = after[:stop]
    return stop, float(soc[stop])
