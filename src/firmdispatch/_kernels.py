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
   the start), it steps as plain Python on Python floats.
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
    """
    if demand.shape[0] != ren_gen.shape[0]:
        raise ValueError(
            f"demand has {demand.shape[0]} steps but generation has {ren_gen.shape[0]}"
        )
    dispatch_cap = float(dispatch_cap)
    soc0 = float(soc0)

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
            float(battery_energy_cap),
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

    Inputs are read and rows written through memoryviews, so the steps run
    on Python floats: indexing a numpy array yields numpy scalars, whose
    arithmetic costs several times more.
    """
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
            charge = excess
            if charge > battery_power:
                charge = battery_power
            headroom = (battery_energy_cap - soc) / efficiency_dt
            if charge > headroom:
                charge = headroom
            if charge < 0.0:
                charge = 0.0
            soc += efficiency * charge * dt
            if soc > battery_energy_cap:
                soc = battery_energy_cap
            charge_row[t] = charge
        elif deficit > 0.0:
            discharge = deficit
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
                if charge_extra < 0.0:
                    charge_extra = 0.0
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
    one binds (or at ``n`` if none does).  The loop's floors at zero never
    bind on their own: an unclamped flow is the least of two positives.

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
