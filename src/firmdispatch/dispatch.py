"""Merit-order dispatch simulation.

Each step serves demand in a fixed order: baseload runs flat at its energy
availability factor, wind and PV serve what remains, surplus renewables
charge the battery (round-trip losses booked on the way in) and the rest is
curtailed, deficits draw first on the battery and then on firm dispatchable
capacity, and anything left is unserved.  ``_kernels.balance_loop`` runs
that order over a dataset in one pass: every flow that does not depend on
the state of charge is a whole-array numpy expression, and only the
battery is stepped in Python.  With ``battery_charges_from_dispatch`` off
and a charged start, the battery's state of charge is first taken as a
numpy running sum, and the step loop takes over at the first step a clamp
binds (headroom, overfill, availability or underflow); a pass that never
clamps steps nothing in Python.  A mix without battery power or energy
skips the battery, so its pass is numpy alone.  ``simulate`` returns the
energy totals of one pass with its per-step ledger attached as a
``DispatchTrace``; ``write_trace_csv`` writes that ledger under the
header ``TRACE_COLUMNS``.

``size_dispatch`` returns the smallest dispatchable capacity that leaves no
demand unserved, obtained from a single pass with the cap removed.
``sized_energy`` returns the sized mix with the energy it serves and
dispatches, from one such pass for every mix.  ``optimize`` sizes through
a ``SizingTable``, which memoizes ``sized_energy`` for one dataset and one
``SimParams``, so searches under different cost books size each mix once.

One rule lets a sized mix cost one pass: with
``battery_charges_from_dispatch`` off, simulating a mix at its sized
capacity reproduces the sizing pass's ledger exactly, since no step draws
more than the peak and nothing else depends on the cap.  So the dispatch
energy is taken straight from the sizing row.  With the flag on, spare
capacity can charge the battery, so each sized mix is simulated once more.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields, replace

import numpy as np
from numpy.typing import NDArray

from . import _kernels
from .profiles import AlignedDataset

TRACE_COLUMNS = (
    "step",
    "demand_gw",
    "baseload_gw",
    "renewable_to_demand_gw",
    "battery_charge_gw",
    "battery_discharge_gw",
    "curtailed_gw",
    "dispatch_gw",
    "unserved_gw",
    "soc_gwh",
)


@dataclass(frozen=True)
class CapacityMix:
    """Installed capacities of one candidate system.

    ``battery_hours`` is storage duration at full power, so energy capacity
    is ``battery_power_gw * battery_hours`` GWh.  Baseload is existing
    must-run plant described by nameplate GW and an energy availability
    factor; it takes no part in costing.
    """

    wind_gw: float = 0.0
    pv_gw: float = 0.0
    battery_power_gw: float = 0.0
    battery_hours: float = 0.0
    dispatch_gw: float = 0.0
    baseload_gw: float = 0.0
    baseload_eaf: float = 1.0

    def __post_init__(self) -> None:
        for name in _CAPACITIES:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not (0.0 <= self.baseload_eaf <= 1.0):
            raise ValueError(f"baseload_eaf must be in [0, 1], got {self.baseload_eaf!r}")

    @property
    def battery_energy_gwh(self) -> float:
        return self.battery_power_gw * self.battery_hours


# The fields of a mix that must be finite and >= 0, in field order.
_CAPACITIES = tuple(f.name for f in fields(CapacityMix) if f.name != "baseload_eaf")


@dataclass(frozen=True)
class SimParams:
    """Knobs of the storage model.

    round_trip_efficiency
        Fraction of charged energy that becomes stored energy; all loss is
        booked at charge time and discharge is loss free.
    initial_soc_fraction
        Starting state of charge as a fraction of energy capacity.
    battery_charges_from_dispatch
        When true, spare dispatchable capacity tops up the battery after
        demand is served.  That flow is reported inside the battery charge
        column and counted in dispatch energy and peak dispatch draw, so the
        renewable generation split identity only holds with the default
        (false) setting.
    """

    round_trip_efficiency: float = 0.85
    initial_soc_fraction: float = 0.0
    battery_charges_from_dispatch: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.round_trip_efficiency <= 1.0):
            raise ValueError(
                f"round_trip_efficiency must be in (0, 1], got {self.round_trip_efficiency!r}"
            )
        if not (0.0 <= self.initial_soc_fraction <= 1.0):
            raise ValueError(
                f"initial_soc_fraction must be in [0, 1], got {self.initial_soc_fraction!r}"
            )


class DispatchTrace:
    """Per-step ledger, one array per ``TRACE_COLUMNS[1:]`` name plus
    ``charge_from_dispatch_gw``; only ``battery_charge_gw`` is not a view."""

    def __init__(self, demand: NDArray[np.float64], ledger: NDArray[np.float64], dt_hours: float):
        self._ledger = ledger
        self.dt_hours = dt_hours
        self.demand_gw = demand
        self.baseload_gw = ledger[_kernels.ROW_BASELOAD]
        self.renewable_to_demand_gw = ledger[_kernels.ROW_REN_TO_DEMAND]
        self.charge_from_dispatch_gw = ledger[_kernels.ROW_CHARGE_FROM_DISPATCH]
        self.battery_discharge_gw = ledger[_kernels.ROW_DISCHARGE]
        self.curtailed_gw = ledger[_kernels.ROW_CURTAILED]
        self.dispatch_gw = ledger[_kernels.ROW_DISPATCH]
        self.unserved_gw = ledger[_kernels.ROW_UNSERVED]
        self.soc_gwh = ledger[_kernels.ROW_SOC]

    @property
    def battery_charge_gw(self) -> NDArray[np.float64]:
        return self._ledger[_kernels.ROW_CHARGE_FROM_REN] + self.charge_from_dispatch_gw


@dataclass(frozen=True)
class DispatchResult:
    """Aggregated outcome of one simulation.

    Wind and PV energy are total generation (installed capacity times
    resource), not the share delivered to demand.  Dispatch energy includes
    any battery charging from dispatchable plant, since that output burns
    fuel too.  ``trace`` is the per-step ledger of the same pass.
    """

    wind_energy_twh: float
    pv_energy_twh: float
    renewable_gen_twh: float
    baseload_energy_twh: float
    battery_discharge_twh: float
    dispatch_energy_twh: float
    unserved_energy_twh: float
    curtailed_twh: float
    demand_energy_twh: float
    peak_dispatch_gw: float
    dispatch_cf: float
    wind_cf: float
    pv_cf: float
    curtailed_fraction: float
    final_soc_gwh: float
    trace: DispatchTrace = field(compare=False, repr=False)

    @property
    def served_energy_twh(self) -> float:
        return self.demand_energy_twh - self.unserved_energy_twh


DEFAULT_PARAMS = SimParams()

# Rows of a trace formatted per chunk by ``write_trace_csv``.
TRACE_CHUNK_ROWS = 1024


def _twh(values: NDArray[np.float64], dt: float) -> float:
    return float(np.sum(values)) * (dt / 1000.0)


def _renewable_gen(mix: CapacityMix, data: AlignedDataset) -> NDArray[np.float64]:
    return mix.wind_gw * data.wind_cf.values + mix.pv_gw * data.pv_cf.values


def _run_balance(
    mix: CapacityMix,
    data: AlignedDataset,
    params: SimParams,
    dispatch_cap: float,
    charge_from_dispatch: bool,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    demand = data.demand.values
    out = np.empty((_kernels.N_ROWS, demand.shape[0]), dtype=np.float64)
    _kernels.balance_loop(
        demand,
        _renewable_gen(mix, data),
        data.dt_hours,
        mix.baseload_gw * mix.baseload_eaf,
        mix.battery_power_gw,
        mix.battery_energy_gwh,
        params.round_trip_efficiency,
        params.initial_soc_fraction * mix.battery_energy_gwh,
        dispatch_cap,
        charge_from_dispatch,
        out,
    )
    return out, demand


def simulate(
    mix: CapacityMix,
    data: AlignedDataset,
    params: SimParams = DEFAULT_PARAMS,
) -> DispatchResult:
    """Run the merit-order balance for one capacity mix over one dataset.

    Deterministic and side-effect free: equal inputs give equal results.

    Parameters
    ----------
    mix : CapacityMix
        Installed capacities, including the dispatchable cap to respect.
    data : AlignedDataset
        Demand and resource series on a common step grid.
    params : SimParams
        Storage model settings.

    Returns
    -------
    DispatchResult
    """
    out, demand = _run_balance(
        mix, data, params, mix.dispatch_gw, params.battery_charges_from_dispatch
    )
    dt = data.dt_hours
    to_twh = dt / 1000.0
    wind_cf_sum = float(np.sum(data.wind_cf.values))
    pv_cf_sum = float(np.sum(data.pv_cf.values))
    wind_energy = mix.wind_gw * wind_cf_sum * to_twh
    pv_energy = mix.pv_gw * pv_cf_sum * to_twh
    dispatch_draw = out[_kernels.ROW_DISPATCH] + out[_kernels.ROW_CHARGE_FROM_DISPATCH]
    dispatch_energy = _twh(dispatch_draw, dt)
    peak_dispatch = float(np.max(dispatch_draw))
    total_hours = data.total_hours

    dispatch_cf = 0.0
    if mix.dispatch_gw > 0.0:
        dispatch_cf = dispatch_energy / (mix.dispatch_gw * total_hours / 1000.0)
    renewable_gen = wind_energy + pv_energy
    curtailed = _twh(out[_kernels.ROW_CURTAILED], dt)
    curtailed_fraction = curtailed / renewable_gen if renewable_gen > 0.0 else 0.0

    return DispatchResult(
        wind_energy_twh=wind_energy,
        pv_energy_twh=pv_energy,
        renewable_gen_twh=renewable_gen,
        baseload_energy_twh=_twh(out[_kernels.ROW_BASELOAD], dt),
        battery_discharge_twh=_twh(out[_kernels.ROW_DISCHARGE], dt),
        dispatch_energy_twh=dispatch_energy,
        unserved_energy_twh=_twh(out[_kernels.ROW_UNSERVED], dt),
        curtailed_twh=curtailed,
        demand_energy_twh=_twh(demand, dt),
        peak_dispatch_gw=peak_dispatch,
        dispatch_cf=dispatch_cf,
        wind_cf=wind_cf_sum * dt / total_hours,
        pv_cf=pv_cf_sum * dt / total_hours,
        curtailed_fraction=curtailed_fraction,
        final_soc_gwh=float(out[_kernels.ROW_SOC, -1]),
        trace=DispatchTrace(demand, out, dt),
    )


def _uncapped_dispatch(
    mix: CapacityMix, data: AlignedDataset, params: SimParams
) -> NDArray[np.float64]:
    """Dispatch row of one sizing pass: no cap, battery charged from renewables only."""
    out, _ = _run_balance(mix, data, params, np.inf, False)
    return out[_kernels.ROW_DISPATCH]


def size_dispatch(mix: CapacityMix, data: AlignedDataset, params: SimParams = DEFAULT_PARAMS) -> float:
    """Smallest dispatchable capacity in GW that serves all demand.

    One balance pass runs with the dispatch cap removed; the answer is the
    peak draw that remains after baseload, renewables, and the battery.
    Simulating the same mix with ``dispatch_gw`` set to this value leaves
    zero demand unserved.  The battery is charged from renewables only
    during sizing, because charging from an unbounded dispatchable plant
    would understate the capacity needed.  Under the default parameters the
    result is also minimal: one hundredth of a GW less already drops load.
    With ``battery_charges_from_dispatch`` enabled it stays a safe upper
    bound but may exceed the minimum, since spare dispatch can pre-charge
    the battery ahead of the worst deficit.
    """
    return float(np.max(_uncapped_dispatch(mix, data, params)))


def sized_energy(
    mix: CapacityMix, data: AlignedDataset, params: SimParams = DEFAULT_PARAMS
) -> tuple[CapacityMix, float, float]:
    """Size one mix; return ``(sized mix, served TWh, dispatch TWh)``.

    The result equals bit for bit the mix with ``dispatch_gw`` from
    ``size_dispatch`` and the ``served_energy_twh`` and
    ``dispatch_energy_twh`` of its ``simulate``.
    """
    row = _uncapped_dispatch(mix, data, params)
    sized = replace(mix, dispatch_gw=float(np.max(row)))
    if params.battery_charges_from_dispatch:
        result = simulate(sized, data, params)
        return sized, result.served_energy_twh, result.dispatch_energy_twh
    # a sized mix leaves nothing unserved
    return sized, _twh(data.demand.values, data.dt_hours), _twh(row, data.dt_hours)


# The fields of a mix that its sizing reads, in field order; dispatch_gw is replaced.
_sizing_key = operator.attrgetter(
    *(f.name for f in fields(CapacityMix) if f.name != "dispatch_gw")
)


class SizingTable:
    """``sized_energy`` memoized per mix for one dataset and one ``SimParams``.

    A mix's sizing depends on its capacities, the data and the params, never
    on a cost book, so searches that differ only in their books can share
    one table and size each mix once.  An entry is keyed by the ``repr`` of
    every field of the mix but ``dispatch_gw``, which sizing replaces:
    ``repr`` tells apart every two distinct floats, ``-0.0`` and ``0.0``
    included, and an int from the equal float, so a hit returns bit for bit
    what ``sized_energy`` would return for the mix given.
    """

    def __init__(self, data: AlignedDataset, params: SimParams = DEFAULT_PARAMS):
        self.data = data
        self.params = params
        self._entries: dict[str, tuple[CapacityMix, float, float]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def check(self, data: AlignedDataset, params: SimParams) -> None:
        """Raise ``ValueError`` unless the table was built for this very
        ``data`` object and for params of the same ``repr``."""
        if data is not self.data:
            raise ValueError("the sizing table was built for another dataset")
        if repr(params) != repr(self.params):
            raise ValueError(f"the sizing table was built for {self.params!r}, not {params!r}")

    def sized_energy(self, mix: CapacityMix) -> tuple[CapacityMix, float, float]:
        """``sized_energy(mix, data, params)``, sized once per key."""
        key = repr(_sizing_key(mix))
        hit = self._entries.get(key)
        if hit is None:
            hit = self._entries[key] = sized_energy(mix, self.data, self.params)
        return hit


def write_trace_csv(trace: DispatchTrace, path) -> None:
    """Write a per-step ledger to CSV with full float precision.

    Cells are the ``repr`` of the column values as Python floats.  Each
    column is formatted ``TRACE_CHUNK_ROWS`` rows at a time from its
    ``tolist``, which costs less than converting one numpy scalar per cell
    and holds only a chunk of cells at once.
    """
    columns = [getattr(trace, name) for name in TRACE_COLUMNS[1:]]
    n = trace.demand_gw.shape[0]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for start in range(0, n, TRACE_CHUNK_ROWS):
            stop = min(start + TRACE_CHUNK_ROWS, n)
            cells = [map(str, range(start, stop))]
            cells += [list(map(repr, col[start:stop].tolist())) for col in columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))
