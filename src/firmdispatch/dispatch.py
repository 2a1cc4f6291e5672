"""Merit-order dispatch simulation.

Each step serves demand in a fixed order: baseload runs flat at its energy
availability factor, wind and PV serve what remains, surplus renewables
charge the battery (round-trip losses booked on the way in) and the rest is
curtailed, deficits draw first on the battery and then on firm dispatchable
capacity, and anything left is unserved.  ``_kernels.balance_loop`` runs
that order over a dataset in one pass, a C loop over the steps that forms
the renewable output as it goes and writes each flow the program reads
as one ledger row, the battery charge and the draw on dispatchable plant
among them.  Each total and peak of a pass reduces one row in C, so a
simulation needs no numpy.  A mix without battery power or energy skips
the battery.  ``simulate`` returns the energy totals of one pass with its
per-step ledger attached as a ``DispatchTrace``; ``write_trace_csv``
writes that ledger under the header ``TRACE_COLUMNS``.

``size_dispatch`` returns the smallest dispatchable capacity that leaves no
demand unserved, obtained from a single pass with the cap removed.
``sized_simulation`` returns the sized mix with its simulation.
``optimize`` sizes through a ``SizingTable``, which reads a mix's sized
``dispatch_gw`` and the energy it serves and dispatches off the ledger of
that simulation for one dataset and one ``SimParams``, so searches under
different cost books size each mix once, and shares one pass between mixes
whose sizings must be equal: an idle battery's with the storage-free mix,
and, with an empty start, a battery that never fills with every battery of
the same power that clears the same margin.  ``simulate_trace`` runs the
pass of ``simulate`` and returns its ledger without the totals.

One rule lets a sized mix cost one pass: with
``battery_charges_from_dispatch`` off, simulating a mix at its sized
capacity reproduces the sizing pass's ledger exactly, since no step draws
more than the peak and nothing else depends on the cap.  So that ledger is
the sized mix's simulation.  With the flag on, spare capacity can charge
the battery, so each sized mix is simulated once more.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

from . import _kernels
from .profiles import AlignedDataset

if TYPE_CHECKING:
    from numpy.typing import NDArray

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


# The ledger row of each column of a trace but the demand.
_COLUMN_ROWS = {
    "baseload_gw": _kernels.ROW_BASELOAD,
    "renewable_to_demand_gw": _kernels.ROW_REN_TO_DEMAND,
    "battery_charge_gw": _kernels.ROW_CHARGE,
    "battery_discharge_gw": _kernels.ROW_DISCHARGE,
    "curtailed_gw": _kernels.ROW_CURTAILED,
    "dispatch_gw": _kernels.ROW_DISPATCH,
    "unserved_gw": _kernels.ROW_UNSERVED,
    "soc_gwh": _kernels.ROW_SOC,
    "charge_from_dispatch_gw": _kernels.ROW_CHARGE_FROM_DISPATCH,
    "dispatch_draw_gw": _kernels.ROW_DISPATCH_DRAW,
}


class DispatchTrace:
    """Per-step ledger of one balance pass.

    Reading ``demand_gw``, a ``TRACE_COLUMNS[1:]`` name,
    ``charge_from_dispatch_gw`` or ``dispatch_draw_gw`` (dispatch plus the
    charge from dispatch) gives that column as a read-only float64 ndarray,
    a view of the demand or of one ledger row.  ``peak`` and ``energy_twh``
    reduce a column in C without numpy.  ``demand`` and ``ledger`` may be
    any buffers of float64, the ledger of shape (N_ROWS, n) or flat.
    """

    def __init__(self, demand, ledger, dt_hours: float):
        self.dt_hours = dt_hours
        self._demand = _kernels.doubles(demand)
        self._ledger = _kernels.doubles(ledger)
        self._n = n = len(self._demand)
        if len(self._ledger) != _kernels.N_ROWS * n:
            raise ValueError(f"a ledger of {n} steps holds {_kernels.N_ROWS * n} values")
        self._base = _kernels.address(self._ledger)

    def __reduce__(self):
        # a memoryview does not pickle, the arrays under them do
        return type(self), (self._demand.obj, self._ledger.obj, self.dt_hours)

    def __getattr__(self, name: str) -> NDArray:
        if name != "demand_gw" and name not in _COLUMN_ROWS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return _kernels.as_ndarray(self.column(name))

    def column(self, name: str) -> memoryview:
        """The column ``name`` as a flat read-only memoryview of doubles."""
        if name == "demand_gw":
            return self._demand
        row = _COLUMN_ROWS[name]
        return self._ledger[row * self._n : (row + 1) * self._n]

    def peak(self, name: str) -> float:
        """``np.max`` of the ledger column ``name``; a zero of both signs gives +0.0."""
        return _kernels.peak(self._n, self._base + 8 * self._n * _COLUMN_ROWS[name])

    def energy_twh(self, name: str) -> float:
        """The energy of the GW ledger column ``name`` over the pass, in TWh."""
        at = self._base + 8 * self._n * _COLUMN_ROWS[name]
        return _kernels.total(self._n, at) * (self.dt_hours / 1000.0)

    @property
    def unserved_energy_twh(self) -> float:
        return self.energy_twh("unserved_gw")

    @property
    def final_soc_gwh(self) -> float:
        return self._ledger[(_kernels.ROW_SOC + 1) * self._n - 1]

    @property
    def dispatch_energy_twh(self) -> float:
        """Energy from dispatchable plant, battery charging from it included."""
        return self.energy_twh("dispatch_draw_gw")

    @property
    def peak_dispatch_gw(self) -> float:
        """The peak draw on dispatchable plant, battery charging from it included."""
        return self.peak("dispatch_draw_gw")


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


def _run_balance(
    mix: CapacityMix,
    data: AlignedDataset,
    params: SimParams,
    dispatch_cap: float,
    charge_from_dispatch: bool,
) -> DispatchTrace:
    demand = data.demand.buffer
    ledger = _kernels.balance_loop(
        demand,
        _kernels.Generation(mix.wind_gw, data.wind_cf.buffer, mix.pv_gw, data.pv_cf.buffer),
        data.dt_hours,
        mix.baseload_gw * mix.baseload_eaf,
        mix.battery_power_gw,
        mix.battery_energy_gwh,
        params.round_trip_efficiency,
        params.initial_soc_fraction * mix.battery_energy_gwh,
        dispatch_cap,
        charge_from_dispatch,
    )
    return DispatchTrace(demand, ledger, data.dt_hours)


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
    return _summarize(mix, data, simulate_trace(mix, data, params))


def simulate_trace(
    mix: CapacityMix, data: AlignedDataset, params: SimParams = DEFAULT_PARAMS
) -> DispatchTrace:
    """The ledger of ``simulate(mix, data, params)`` without its totals."""
    return _run_balance(mix, data, params, mix.dispatch_gw, params.battery_charges_from_dispatch)


def _summarize(mix: CapacityMix, data: AlignedDataset, trace: DispatchTrace) -> DispatchResult:
    """Energy totals of one balance pass of ``mix`` over ``data``, its ledger ``trace`` attached."""
    dt = data.dt_hours
    to_twh = dt / 1000.0
    wind_cf_sum = data.wind_cf.total()
    pv_cf_sum = data.pv_cf.total()
    wind_energy = mix.wind_gw * wind_cf_sum * to_twh
    pv_energy = mix.pv_gw * pv_cf_sum * to_twh
    dispatch_energy = trace.dispatch_energy_twh
    total_hours = data.total_hours

    dispatch_cf = 0.0
    if mix.dispatch_gw > 0.0:
        dispatch_cf = dispatch_energy / (mix.dispatch_gw * total_hours / 1000.0)
    renewable_gen = wind_energy + pv_energy
    curtailed = trace.energy_twh("curtailed_gw")
    curtailed_fraction = curtailed / renewable_gen if renewable_gen > 0.0 else 0.0

    return DispatchResult(
        wind_energy_twh=wind_energy,
        pv_energy_twh=pv_energy,
        renewable_gen_twh=renewable_gen,
        baseload_energy_twh=trace.energy_twh("baseload_gw"),
        battery_discharge_twh=trace.energy_twh("battery_discharge_gw"),
        dispatch_energy_twh=dispatch_energy,
        unserved_energy_twh=trace.unserved_energy_twh,
        curtailed_twh=curtailed,
        demand_energy_twh=data.demand.total() * to_twh,
        peak_dispatch_gw=trace.peak_dispatch_gw,
        dispatch_cf=dispatch_cf,
        wind_cf=wind_cf_sum * dt / total_hours,
        pv_cf=pv_cf_sum * dt / total_hours,
        curtailed_fraction=curtailed_fraction,
        final_soc_gwh=trace.final_soc_gwh,
        trace=trace,
    )


def _sized(
    mix: CapacityMix, data: AlignedDataset, params: SimParams
) -> tuple[float, DispatchTrace]:
    """The sized ``dispatch_gw`` of ``mix`` and the ledger of ``simulate`` at
    that capacity: with the flag off, the sizing pass's own, by the rule above."""
    trace = _run_balance(mix, data, params, math.inf, False)
    dispatch_gw = trace.peak("dispatch_gw")
    if params.battery_charges_from_dispatch:
        trace = _run_balance(mix, data, params, dispatch_gw, True)
    return dispatch_gw, trace


def size_dispatch(mix: CapacityMix, data: AlignedDataset, params: SimParams = DEFAULT_PARAMS) -> float:
    """Smallest dispatchable capacity in GW that serves all demand.

    One balance pass runs with the dispatch cap removed and, whatever
    ``params`` says, the battery charged from renewables only, because
    charging from an unbounded dispatchable plant would understate the
    capacity needed.  The answer is the peak draw that remains after
    baseload, renewables, and the battery: simulating the same mix with
    ``dispatch_gw`` set to it leaves zero demand unserved.  Under the
    default parameters the result is also minimal: one hundredth of a GW
    less already drops load.  With ``battery_charges_from_dispatch`` enabled
    it stays a safe upper bound but may exceed the minimum, since spare
    dispatch can pre-charge the battery ahead of the worst deficit.
    """
    return _run_balance(mix, data, params, math.inf, False).peak("dispatch_gw")


def sized_simulation(
    mix: CapacityMix, data: AlignedDataset, params: SimParams = DEFAULT_PARAMS
) -> tuple[CapacityMix, DispatchResult]:
    """Size one mix; return it with ``dispatch_gw`` from ``size_dispatch``
    and its ``simulate``, equal bit for bit, ledger included."""
    dispatch_gw, trace = _sized(mix, data, params)
    sized = replace(mix, dispatch_gw=dispatch_gw)
    return sized, _summarize(sized, data, trace)


# The fields of a mix that its sizing reads, in field order; dispatch_gw is replaced.
_sizing_key = operator.attrgetter(
    *(f.name for f in fields(CapacityMix) if f.name != "dispatch_gw")
)
# The fields a sizing reads when its battery is idle, and when it never fills.
_storage_free_key = operator.attrgetter("wind_gw", "pv_gw", "baseload_gw", "baseload_eaf")
_never_full_key = operator.attrgetter(
    "wind_gw", "pv_gw", "battery_power_gw", "baseload_gw", "baseload_eaf"
)


class SizingTable:
    """Sized mixes memoized for one dataset and one ``SimParams``.

    ``sized_energy(mix)`` returns bit for bit the mix and the
    ``served_energy_twh`` and ``dispatch_energy_twh`` of
    ``sized_simulation``, read off the same ledger.  A mix's sizing depends
    on its capacities, the data and the params, never on a cost book, so
    searches that differ only in their books can share one table and size
    each mix once.  An entry is keyed by the ``repr`` of every field of the
    mix but ``dispatch_gw``, which sizing replaces: ``repr`` tells apart
    every two distinct floats, ``-0.0`` and ``0.0`` included, and an int
    from the equal float, so a hit returns bit for bit what a fresh sizing
    of the mix given would.

    A mix met for the first time shares the balance pass of an earlier mix
    where the two sizings must agree bit for bit, by one of two rules, and
    takes that pass's sized ``dispatch_gw`` and energies.

    1. **Idle battery.**  When ``_kernels._battery_is_idle`` holds (no
       power, or no energy and an empty start), the step loop is skipped
       and every battery flow is +0.0, so the sizing reads only the wind,
       PV, ``baseload_gw`` and ``baseload_eaf``: all such mixes share one
       storage-free pass.  Their ledgers can differ only in the sign of a
       zero state of charge, which no sizing reads.
    2. **Capacity never reached.**  With ``battery_charges_from_dispatch``
       off and a +0.0 start, a pass whose capacity passes
       ``_kernels._capacity_never_binds`` at the pass's peak state of
       charge binds no clamp that reads the capacity.  Another capacity of
       the same wind, PV, power and baseload that passes the same test at
       that peak sees, step by step, the same state of charge, at most the
       peak, so none of its clamps binds either and its ledger is the
       same bit for bit, whether it is larger or smaller.  With the flag
       on, spare dispatch also charges the battery, and a charged start
       scales with the capacity, so the rule is not tried.
    """

    def __init__(self, data: AlignedDataset, params: SimParams = DEFAULT_PARAMS):
        self.data = data
        self.params = params
        self._demand_twh = data.demand.total() * (data.dt_hours / 1000.0)
        self._entries: dict[str, tuple[CapacityMix, float, float]] = {}
        # the figures of each shared pass, by rule 1's or rule 2's key
        self._passes: dict[str, tuple[float | None, float, float, float]] = {}

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
        """``(sized mix, served TWh, dispatch TWh)``, sized once per key,
        from a shared pass where one of the two rules holds."""
        key = repr(_sizing_key(mix))
        hit = self._entries.get(key)
        if hit is None:
            hit = self._entries[key] = self._size(mix)
        return hit

    def _size(self, mix: CapacityMix) -> tuple[CapacityMix, float, float]:
        params = self.params
        energy = mix.battery_energy_gwh
        start = params.initial_soc_fraction * energy
        empty_start = start == 0.0 and math.copysign(1.0, start) > 0.0
        never_full = empty_start and not params.battery_charges_from_dispatch
        if _kernels._battery_is_idle(mix.battery_power_gw, energy, start):
            key, never_full = repr(_storage_free_key(mix)), False
        else:
            key = repr(_never_full_key(mix)) if never_full else None
        shared = self._passes.get(key)
        if shared is None or not self._never_fills(mix, shared[0]):
            dispatch_gw, trace = _sized(mix, self.data, params)
            peak = trace.peak("soc_gwh") if never_full else None
            served = self._demand_twh - trace.unserved_energy_twh
            shared = peak, dispatch_gw, served, trace.dispatch_energy_twh
            if key is not None and self._never_fills(mix, peak):
                self._passes[key] = shared
        _, dispatch_gw, served, dispatched = shared
        return replace(mix, dispatch_gw=dispatch_gw), served, dispatched

    def _never_fills(self, mix: CapacityMix, peak_soc: float | None) -> bool:
        """Whether ``mix``'s battery never fills in a pass that peaks at
        ``peak_soc``; an idle battery's pass has no peak and fits its key."""
        return peak_soc is None or _kernels._capacity_never_binds(
            float(mix.battery_power_gw),
            float(mix.battery_energy_gwh),
            float(self.params.round_trip_efficiency),
            float(self.data.dt_hours),
            peak_soc,
        )


def write_trace_csv(trace: DispatchTrace, path) -> None:
    """Write a per-step ledger to CSV with full float precision.

    Cells are the ``repr`` of the column values as Python floats.  Each
    column is formatted ``TRACE_CHUNK_ROWS`` rows at a time from its
    ``tolist``, which holds only a chunk of cells at once.
    """
    columns = [trace.column(name) for name in TRACE_COLUMNS[1:]]
    n = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for start in range(0, n, TRACE_CHUNK_ROWS):
            stop = min(start + TRACE_CHUNK_ROWS, n)
            cells = [map(str, range(start, stop))]
            cells += [list(map(repr, col[start:stop].tolist())) for col in columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))
