"""Hot inner loop of the dispatch simulation.

The battery state couples every step to the one before it, so a balance
pass cannot be vectorized across time.  ``balance_loop`` runs one mix step
by step as plain Python on Python floats, about three times faster than
stepping on numpy scalars and bit for bit the same.  It is the only step
loop: a mix without battery energy needs none, and ``dispatch.sized_energy``
sizes such a mix in closed form.
"""

from __future__ import annotations

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
    is left goes unserved.  ``demand`` and ``ren_gen`` must be float64
    vectors of one length, and ``out`` a float64 array of shape
    (N_ROWS, n_steps).  All power values are GW, state of charge is GWh.

    Inputs are read and rows written through memoryviews, so the steps
    run on Python floats: indexing a numpy array yields numpy scalars,
    whose arithmetic costs several times more, and a 2-D store per row and
    step costs more again.  The float operations and their order are those
    of element-indexed numpy code, so the ledger is the same bit for bit.
    """
    dt = float(dt)
    baseload_out = float(baseload_out)
    battery_power = float(battery_power)
    battery_energy_cap = float(battery_energy_cap)
    efficiency = float(efficiency)
    dispatch_cap = float(dispatch_cap)
    charge_from_dispatch = bool(charge_from_dispatch)
    base_row = memoryview(out[ROW_BASELOAD])
    to_demand_row = memoryview(out[ROW_REN_TO_DEMAND])
    charge_row = memoryview(out[ROW_CHARGE_FROM_REN])
    charge_extra_row = memoryview(out[ROW_CHARGE_FROM_DISPATCH])
    discharge_row = memoryview(out[ROW_DISCHARGE])
    curtailed_row = memoryview(out[ROW_CURTAILED])
    dispatch_row = memoryview(out[ROW_DISPATCH])
    unserved_row = memoryview(out[ROW_UNSERVED])
    soc_row = memoryview(out[ROW_SOC])

    soc = float(soc0)
    for t, (d, gen) in enumerate(zip(memoryview(demand), memoryview(ren_gen), strict=True)):
        base = baseload_out
        if base > d:
            base = d
        residual = d - base

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
        # top up from spare dispatch only in steps the battery is not
        # discharging; simultaneous charge and discharge would be churn
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

        base_row[t] = base
        to_demand_row[t] = to_demand
        charge_row[t] = charge
        charge_extra_row[t] = charge_extra
        discharge_row[t] = discharge
        curtailed_row[t] = curtailed
        dispatch_row[t] = dispatched
        unserved_row[t] = residual
        soc_row[t] = soc

