"""Hot inner loop of the dispatch simulation.

The battery state couples every step to the one before it, so the balance
loop cannot be vectorized.  It is written once in nopython-compatible form
and compiled with numba when numba imports; otherwise the same function
runs as plain Python.  ``balance_loop_python`` stays importable as the
reference the compiled loop is tested against for bitwise equality.
"""

from __future__ import annotations

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def decorator(func):
            return func

        if len(args) == 1 and callable(args[0]):
            return args[0]
        return decorator

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


def _balance_loop(
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
    is left goes unserved.  ``out`` must be a float64 array of shape
    (N_ROWS, n_steps).  All power values are GW, state of charge is GWh.
    """
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

        out[ROW_BASELOAD, t] = base
        out[ROW_REN_TO_DEMAND, t] = to_demand
        out[ROW_CHARGE_FROM_REN, t] = charge
        out[ROW_CHARGE_FROM_DISPATCH, t] = charge_extra
        out[ROW_DISCHARGE, t] = discharge
        out[ROW_CURTAILED, t] = curtailed
        out[ROW_DISPATCH, t] = dispatched
        out[ROW_UNSERVED, t] = residual
        out[ROW_SOC, t] = soc


balance_loop_python = _balance_loop
if HAS_NUMBA:
    balance_loop_numba = njit(cache=True)(_balance_loop)
else:  # pragma: no cover
    balance_loop_numba = None

balance_loop = balance_loop_numba if HAS_NUMBA else balance_loop_python


def active_backend() -> str:
    """Name of the loop implementation selected at import time."""
    return "numba" if HAS_NUMBA else "numpy"
