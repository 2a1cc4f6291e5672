"""Hot inner loops of the dispatch simulation.

The battery state couples every step to the one before it, so a balance
pass cannot be vectorized across time.  ``balance_loop`` runs one mix step
by step as plain Python on Python floats, about three times faster than
stepping on numpy scalars and bit for bit the same.  The batched kernel
below is tested against it for bitwise equality.

Candidate mixes are coupled only through time, never to each other, so
``size_dispatch_batch`` runs the sizing pass of many mixes at once: it
steps through time once and is vectorized across candidates with numpy.
Each numpy step has a fixed cost, so one candidate is sized faster by
``balance_loop`` (on a synthetic hourly year, 2-vCPU VM: about 0.009 s
in the loop, 0.24 s in a batched pass of one, 0.16 s in a batched pass
of 14); ``dispatch.sized_energies`` picks the kernel by the number of
candidates in a chunk.
"""

from __future__ import annotations

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


def size_dispatch_batch(
    demand,
    wind_cf,
    pv_cf,
    dt,
    baseload_out,
    wind,
    pv,
    battery_power,
    battery_energy_cap,
    efficiency,
    soc0,
    out,
):
    """Run the sizing pass of ``balance_loop`` for K candidates at once.

    The sizing pass has no dispatch cap and charges the battery from
    renewables only.  ``wind``, ``pv``, ``battery_power``,
    ``battery_energy_cap`` and ``soc0`` are float64 vectors of length K;
    baseload output and efficiency are shared.  ``out`` must be a C-ordered
    float64 array of shape (K, n_steps).  It first holds each candidate's
    renewable generation, and step ``t`` of it is overwritten with the
    dispatch draw once step ``t`` is done.

    Each element takes the loop's floating-point operations in the loop's
    order, so every row equals the loop's dispatch row bit for bit.  The
    loop's guards (charge only from a surplus, discharge only into a
    deficit, both only with battery power) need no masks here: where a
    guard fails, the clamps already give a zero flow, and a zero flow
    leaves the state of charge and the residual as they were.  The loop's
    clamps of a flow to at least zero never act here, since headroom and
    stored energy are never negative.  numpy's ``minimum`` and ``maximum``
    return their second argument on a tie, so the value being clamped goes
    second, as the loop keeps its current value on a tie.
    """
    for k in range(out.shape[0]):
        np.multiply(wind_cf, wind[k], out=out[k])
        out[k] += pv[k] * pv_cf
    residual0 = demand - np.where(baseload_out > demand, demand, baseload_out)
    soc = np.array(soc0, dtype=np.float64)
    headroom_scale = efficiency * dt
    to_demand, residual, surplus, headroom, charge, discharge, tmp = np.empty(
        (7, out.shape[0]), dtype=np.float64
    )
    for t in range(demand.shape[0]):
        gen = out[:, t]
        np.minimum(residual0[t], gen, out=to_demand)
        np.subtract(residual0[t], to_demand, out=residual)
        np.subtract(gen, to_demand, out=surplus)

        np.subtract(battery_energy_cap, soc, out=headroom)
        np.divide(headroom, headroom_scale, out=headroom)
        np.minimum(battery_power, surplus, out=charge)
        np.minimum(headroom, charge, out=charge)
        np.multiply(efficiency, charge, out=tmp)
        np.multiply(tmp, dt, out=tmp)
        np.add(soc, tmp, out=soc)
        np.minimum(battery_energy_cap, soc, out=soc)

        np.minimum(battery_power, residual, out=discharge)
        np.divide(soc, dt, out=tmp)
        np.minimum(tmp, discharge, out=discharge)
        np.multiply(discharge, dt, out=tmp)
        np.subtract(soc, tmp, out=soc)
        np.maximum(0.0, soc, out=soc)
        np.subtract(residual, discharge, out=gen)
