"""Named system studies and their reports.

Each scenario wraps the simulator and optimizer into one question: what does
the least-cost system look like (base), does cheap storage displace firm
capacity (low-storage), how much PV and battery would a solar-only system
need (pv-only), how close to its limit does such a system run (rigidity),
what changes when legacy baseload stays online (residual-baseload), and how
does the answer move with fuel price (fuel-sensitivity).

The pv-only bisections stop at fixed resolutions, ``PV_TOL_GW`` of PV and
``ENERGY_TOL_GWH`` of battery energy, and search PV up to a million times
peak demand.  Rigidity raises demand up to ``RIGIDITY_MAX_MULTIPLIER``
times its level; a mix that still serves it there is not storage-limited.

Reports render to CSV with one row per figure, using the conventional table
row labels, values at full precision.  Each row's label and unit are
declared on its report field with ``_row``, and the rows follow the fields'
order, so a table's row order is its report's field order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Sequence

import numpy as np

from .costing import DEFAULT_BOOK, CostBook
from .dispatch import (
    DEFAULT_PARAMS,
    CapacityMix,
    DispatchResult,
    SimParams,
    SizingTable,
    simulate,
    size_dispatch,
)
from .optimizer import (
    DEFAULT_OPTIONS,
    OptimResult,
    OptimizeOptions,
    SearchSpace,
    default_space,
    optimize,
)
from .profiles import AlignedDataset, demand_stats, scale_demand

SCENARIO_NAMES = (
    "base",
    "low-storage",
    "pv-only",
    "rigidity",
    "residual-baseload",
    "fuel-sensitivity",
)

PV_TOL_GW = 0.01
ENERGY_TOL_GWH = 0.1
RIGIDITY_MAX_MULTIPLIER = 2.0


class InfeasibleError(Exception):
    """The requested system cannot serve demand within the given bounds."""


def _row(label: str, unit: str, baseload: bool = False, scale: float = 1.0):
    """A report field rendered as the CSV row ``label,value,unit``, the
    value multiplied by ``scale``; a ``baseload`` row shows only in tables
    that carry baseload."""
    return field(metadata={"row": (label, unit, baseload, scale)})


@dataclass(frozen=True)
class ScenarioReport:
    """Physical summary of one sized system, shaped like the result tables;
    ``mix`` and ``result`` are the mix and the simulation it was read from."""

    label: str
    annual_demand_twh: float = _row("Annual Demand", "TWh")
    peak_gw: float = _row("Peak Rate", "GW")
    average_gw: float = _row("Average Rate", "GW")
    baseload_gw: float = _row("Base load Gen.", "GW", baseload=True)
    baseload_eaf_pct: float = _row("Base EAF", "%", baseload=True)
    baseload_energy_twh: float = _row("Base Energy", "TWh", baseload=True)
    net_peak_gw: float
    wind_gw: float = _row("Installed Wind", "GW")
    wind_energy_twh: float = _row("Wind Energy", "TWh")
    wind_cf_pct: float = _row("Wind CF", "%")
    wind_pct_of_peak: float = _row("Wind Percent of Peak Capacity", "Percent of Peak Gen. Capacity")
    pv_gw: float = _row("Installed PV", "GW")
    pv_energy_twh: float = _row("PV Energy", "TWh")
    pv_cf_pct: float = _row("PV CF", "%")
    pv_pct_of_peak: float = _row("PV Percent of Peak Capacity", "Percent of Peak Gen. Capacity")
    battery_power_gw: float = _row("Battery Capacity", "GW")
    battery_hours: float = _row("Battery Hours", "Hours")
    battery_energy_gwh: float = _row("Battery Energy", "GWh")
    dispatch_gw: float = _row("Installed Dispatch", "GW")
    dispatch_energy_twh: float = _row("Dispatch Energy", "TWh")
    dispatch_cf_pct: float = _row("Dispatch CF", "%")
    dispatch_pct_of_peak: float = _row("Percent of Peak demand", "%")
    dispatch_pct_of_average: float = _row("Percent of Average demand", "%")
    dispatch_pct_of_net_peak: float = _row(
        "Percent of net Peak demand", "% of net Peak", baseload=True
    )
    renewable_gen_twh: float = _row("Renewable Gen", "TWh")
    curtailed_twh: float = _row("Curtailed Renew.", "TWh")
    curtailed_pct: float = _row("Percent Curtailed", "%")
    mix: CapacityMix = field(compare=False, repr=False)
    result: DispatchResult = field(compare=False, repr=False)


@dataclass(frozen=True)
class RigidityReport:
    """Outcome of pushing demand up until a mix without firm backup fails;
    ``mix`` is that mix at the required firm capacity, and ``result`` its
    simulation on demand scaled to the failure multiplier."""

    annual_demand_twh: float = _row("Annual Demand", "TWh")
    test_demand_twh: float = _row("Test Demand", "TWh")
    failure_multiplier: float = _row("Percent of Normal", "%", scale=100.0)
    required_dispatch_gw: float = _row("Installed Dispatch", "GW")
    required_dispatch_energy_gwh: float = _row("Dispatch Energy", "GWh")
    dispatch_pct_of_average: float = _row("Percent of Average demand", "%")
    mix: CapacityMix = field(compare=False, repr=False)
    result: DispatchResult = field(compare=False, repr=False)


@dataclass(frozen=True)
class LowStorageDelta:
    """Firm capacity comparison between base and cheap-storage optima."""

    base_dispatch_gw: float = _row("Base Case Installed Dispatch", "GW")
    dispatch_delta_gw: float = _row("Installed Dispatch Change", "GW")
    base_dispatch_energy_twh: float = _row("Base Case Dispatch Energy", "TWh")
    battery_price_usd_per_kwh: float = _row("Storage Price", "USD/kWh")
    dispatch_gw: float
    dispatch_energy_twh: float


def build_report(
    mix: CapacityMix,
    result: DispatchResult,
    data: AlignedDataset,
    label: str = "",
) -> ScenarioReport:
    """Assemble the table-shaped report for one simulated mix.

    Percent rows are recomputed from the unrounded operands on this report,
    never copied from rounded figures.  Baseload energy uses the flat-output
    convention ``baseload_gw * eaf * hours`` regardless of curtailment
    against low demand; net peak is the demand peak net of that flat output.
    """
    stats = demand_stats(data.demand)
    peak = stats.peak_gw
    baseload_out = mix.baseload_gw * mix.baseload_eaf
    net_peak = float(np.max(np.maximum(data.demand.values - baseload_out, 0.0)))

    def pct_of(value: float, base: float) -> float:
        # all-zero demand makes every percent-of-demand row 0, not a crash
        return 100.0 * value / base if base > 0.0 else 0.0

    return ScenarioReport(
        label=label,
        annual_demand_twh=stats.annual_energy_twh,
        peak_gw=peak,
        average_gw=stats.average_gw,
        baseload_gw=mix.baseload_gw,
        baseload_eaf_pct=100.0 * mix.baseload_eaf,
        baseload_energy_twh=mix.baseload_gw * mix.baseload_eaf * data.total_hours / 1000.0,
        net_peak_gw=net_peak,
        wind_gw=mix.wind_gw,
        wind_energy_twh=result.wind_energy_twh,
        wind_cf_pct=100.0 * result.wind_cf,
        wind_pct_of_peak=pct_of(mix.wind_gw, peak),
        pv_gw=mix.pv_gw,
        pv_energy_twh=result.pv_energy_twh,
        pv_cf_pct=100.0 * result.pv_cf,
        pv_pct_of_peak=pct_of(mix.pv_gw, peak),
        battery_power_gw=mix.battery_power_gw,
        battery_hours=mix.battery_hours,
        battery_energy_gwh=mix.battery_power_gw * mix.battery_hours,
        dispatch_gw=mix.dispatch_gw,
        dispatch_energy_twh=result.dispatch_energy_twh,
        dispatch_cf_pct=100.0 * result.dispatch_cf,
        dispatch_pct_of_peak=pct_of(mix.dispatch_gw, peak),
        dispatch_pct_of_average=pct_of(mix.dispatch_gw, stats.average_gw),
        dispatch_pct_of_net_peak=pct_of(mix.dispatch_gw, net_peak),
        renewable_gen_twh=result.renewable_gen_twh,
        curtailed_twh=result.curtailed_twh,
        curtailed_pct=100.0 * result.curtailed_fraction,
        mix=mix,
        result=result,
    )


def run_base(
    data: AlignedDataset,
    params: SimParams = DEFAULT_PARAMS,
    book: CostBook = DEFAULT_BOOK,
    space: SearchSpace | None = None,
    options: OptimizeOptions = DEFAULT_OPTIONS,
    table: SizingTable | None = None,
) -> tuple[ScenarioReport, OptimResult]:
    """Least-cost wind, PV, battery, and firm capacity with no baseload.

    ``table`` is handed to ``optimize``, so searches of one dataset can
    share their sized mixes.
    """
    if space is None:
        space = default_space(demand_stats(data.demand))
    if space.baseload_gw != 0.0:
        raise ValueError("the base scenario carries no baseload, use residual-baseload instead")
    optim = optimize(space, data, params, book, options, table)
    report = build_report(optim.best.mix, optim.best.result, data, label="base")
    return report, optim


def run_low_storage(
    data: AlignedDataset,
    params: SimParams = DEFAULT_PARAMS,
    book: CostBook = DEFAULT_BOOK,
    space: SearchSpace | None = None,
    battery_price: float = 10.0,
    options: OptimizeOptions = DEFAULT_OPTIONS,
) -> tuple[ScenarioReport, LowStorageDelta, OptimResult]:
    """Re-optimize with cheap storage and compare firm capacity to base.

    Both searches size their mixes through one ``SizingTable``, so the
    cheap-storage search sizes only the mixes the base search did not
    reach.  With ``battery_price`` equal to the book value it reproduces
    the base optimum exactly and sizes nothing.
    """
    if not (math.isfinite(battery_price) and battery_price >= 0.0):
        raise ValueError(f"battery_price must be finite and >= 0, got {battery_price!r}")
    table = SizingTable(data, params)
    base_optim = run_base(data, params, book, space, options, table)[1]
    base_gw = base_optim.best.mix.dispatch_gw
    base_twh = base_optim.best.result.dispatch_energy_twh
    # the base winner's ledger need not live through the second search, so
    # the base report is never bound and the base search is dropped here
    del base_optim
    cheap_book = replace(book, capex_battery_usd_per_kwh=battery_price)
    report, optim = run_base(data, params, cheap_book, space, options, table)
    report = replace(report, label="low-storage")
    delta = LowStorageDelta(
        battery_price_usd_per_kwh=battery_price,
        base_dispatch_gw=base_gw,
        dispatch_gw=optim.best.mix.dispatch_gw,
        dispatch_delta_gw=optim.best.mix.dispatch_gw - base_gw,
        base_dispatch_energy_twh=base_twh,
        dispatch_energy_twh=optim.best.result.dispatch_energy_twh,
    )
    return report, delta, optim


def _pv_probe_mix(pv_gw: float, power_gw: float, energy_gwh: float) -> CapacityMix:
    hours = energy_gwh / power_gw if power_gw > 0.0 else 0.0
    return CapacityMix(
        wind_gw=0.0,
        pv_gw=pv_gw,
        battery_power_gw=power_gw,
        battery_hours=hours,
        dispatch_gw=0.0,
    )


def _pv_only_probe(
    data: AlignedDataset, params: SimParams, peak: float, pv_gw: float, energy_gwh: float
) -> tuple[DispatchResult, bool]:
    """Simulate ``pv_gw`` of PV with ``energy_gwh`` of battery at ``peak``
    power or more; feasible if no demand goes unserved and the battery
    ends no lower than it started."""
    power = max(peak, pv_gw) if energy_gwh > 0.0 else 0.0
    mix = _pv_probe_mix(pv_gw, power, energy_gwh)
    result = simulate(mix, data, params)
    initial_soc = params.initial_soc_fraction * mix.battery_energy_gwh
    closed = result.final_soc_gwh + 1e-9 >= initial_soc
    return result, result.unserved_energy_twh == 0.0 and closed


def _bisect(lo: float, hi: float, tol: float, feasible: Callable[[float], bool]) -> float:
    """Halve an infeasible ``lo`` / feasible ``hi`` bracket to within
    ``tol``; return its feasible end."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def run_pv_only(data: AlignedDataset, params: SimParams = DEFAULT_PARAMS) -> ScenarioReport:
    """Smallest PV and battery serving all demand with no wind or firm plant.

    Sizing is resource-driven, so no cost book enters.  Bisection on PV
    capacity with an effectively unconstrained battery finds the least PV
    to ``PV_TOL_GW``; bisection on battery energy at that PV finds the
    least storage to ``ENERGY_TOL_GWH``.  A probe
    counts as feasible only if no demand goes unserved and the battery ends
    the period no lower than it started: the initial charge
    (``params.initial_soc_fraction``) bootstraps a dataset that begins at
    night, but panels, not the starting inventory, must carry the year.
    Reported battery power is the largest charge or discharge flow actually
    used, so the reported mix reproduces the zero-unserved result.

    Raises
    ------
    InfeasibleError
        If no PV up to a million times peak demand serves all demand.
    """
    stats = demand_stats(data.demand)
    peak = stats.peak_gw
    if peak == 0.0:
        zero = _pv_probe_mix(0.0, 0.0, 0.0)
        return build_report(zero, simulate(zero, data, params), data, label="pv-only")

    pv_cap = 1e6 * peak
    huge_energy = 1e9 * max(peak, 1.0)

    # A probe is run once per (PV, energy) pair, keyed by the exact floats:
    # the PV bisection's first midpoint can repeat a doubling probe.  Each
    # bisection ends on its last feasible probe, whose ledger the sizing
    # reads next, so that one result is kept with the verdicts.
    verdicts: dict[tuple[float, float], bool] = {}
    last_feasible: dict[tuple[float, float], DispatchResult] = {}

    def feasible(pv_gw: float, energy_gwh: float) -> bool:
        key = (pv_gw, energy_gwh)
        if key not in verdicts:
            result, verdicts[key] = _pv_only_probe(data, params, peak, pv_gw, energy_gwh)
            if verdicts[key]:
                last_feasible.clear()
                last_feasible[key] = result
        return verdicts[key]

    def feasible_pv(pv_gw: float) -> bool:
        return feasible(pv_gw, huge_energy)

    if feasible_pv(0.0):
        pv_star = 0.0
    else:
        hi = max(peak, 1.0)
        while hi <= pv_cap and not feasible_pv(hi):
            hi *= 2.0
        if hi > pv_cap:
            raise InfeasibleError(f"no PV capacity up to {pv_cap:g} GW serves all demand")
        pv_star = _bisect(0.0, hi, PV_TOL_GW, feasible_pv)

    # Least battery energy at the sized PV.  With no initial charge the
    # unconstrained run bounds it tightly: a cap at the highest state of
    # charge ever reached never binds.  With an initial charge the starting
    # inventory scales with capacity, so the tight bound must be re-probed
    # and falls back to the unconstrained size.
    def feasible_energy(energy_gwh: float) -> bool:
        return feasible(pv_star, energy_gwh)

    unconstrained = last_feasible[pv_star, huge_energy]
    energy_hi = float(np.max(unconstrained.trace.soc_gwh)) * (1.0 + 1e-9) + 1e-9
    energy_hi = min(energy_hi, huge_energy)
    if not feasible_energy(energy_hi):
        energy_hi = huge_energy
    if feasible_energy(0.0):
        energy_hi = 0.0
    energy_star = _bisect(0.0, energy_hi, ENERGY_TOL_GWH, feasible_energy)

    final = last_feasible[pv_star, energy_star]
    flows = max(
        float(np.max(final.trace.battery_charge_gw)),
        float(np.max(final.trace.battery_discharge_gw)),
    )
    mix = _pv_probe_mix(pv_star, flows if energy_star > 0.0 else 0.0, energy_star)
    result = simulate(mix, data, params)
    if result.unserved_energy_twh != 0.0:
        raise RuntimeError("sized PV-only mix failed to reproduce a served system")
    return build_report(mix, result, data, label="pv-only")


def run_rigidity(
    mix: CapacityMix,
    data: AlignedDataset,
    params: SimParams = DEFAULT_PARAMS,
    step: float = 0.01,
) -> RigidityReport:
    """Scale demand up until the mix fails, then size the firm gap.

    Demand is raised in multiples of ``step`` from 1.  At the first
    multiplier with unserved energy, ``size_dispatch`` gives the firm
    capacity that would have balanced the scaled year, and one ``simulate``
    of the mix at that capacity gives the energy it dispatches; the report
    keeps that mix and its result.

    Raises
    ------
    ValueError
        If the mix does not serve the unscaled demand, or no failure occurs
        up to ``RIGIDITY_MAX_MULTIPLIER`` (a mix with firm backup does not fail).
    """
    if not (0.0 < step < 1.0):
        raise ValueError(f"step must be in (0, 1), got {step!r}")
    if simulate(mix, data, params).unserved_energy_twh > 0.0:
        raise ValueError("mix does not serve the baseline demand, rigidity is undefined")

    k = 1
    while True:
        multiplier = 1.0 + k * step
        if multiplier > RIGIDITY_MAX_MULTIPLIER:
            raise ValueError(
                f"no failure up to multiplier {RIGIDITY_MAX_MULTIPLIER}, mix is not storage-limited"
            )
        scaled = scale_demand(data, multiplier)
        if simulate(mix, data=scaled, params=params).unserved_energy_twh > 0.0:
            break
        k += 1

    required = size_dispatch(mix, scaled, params)
    sized = replace(mix, dispatch_gw=required)
    result = simulate(sized, scaled, params)
    scaled_stats = demand_stats(scaled.demand)
    return RigidityReport(
        annual_demand_twh=demand_stats(data.demand).annual_energy_twh,
        test_demand_twh=scaled_stats.annual_energy_twh,
        failure_multiplier=multiplier,
        required_dispatch_gw=required,
        required_dispatch_energy_gwh=result.dispatch_energy_twh * 1000.0,
        dispatch_pct_of_average=100.0 * required / scaled_stats.average_gw,
        mix=sized,
        result=result,
    )


def run_residual_baseload(
    data: AlignedDataset,
    params: SimParams = DEFAULT_PARAMS,
    book: CostBook = DEFAULT_BOOK,
    space: SearchSpace | None = None,
    baseload_gw: float = 10.0,
    eaf: float = 0.70,
    options: OptimizeOptions = DEFAULT_OPTIONS,
) -> tuple[ScenarioReport, OptimResult]:
    """Least-cost mix when legacy baseload stays online at a flat EAF.

    Baseload is must-run and free in the objective; only the wind, PV,
    battery, and firm additions are costed and searched.
    """
    if not (math.isfinite(baseload_gw) and baseload_gw >= 0.0):
        raise ValueError(f"baseload_gw must be finite and >= 0, got {baseload_gw!r}")
    if not (0.0 <= eaf <= 1.0):
        raise ValueError(f"eaf must be in [0, 1], got {eaf!r}")
    if space is None:
        space = default_space(demand_stats(data.demand))
    space = replace(space, baseload_gw=baseload_gw, baseload_eaf=eaf)
    optim = optimize(space, data, params, book, options)
    report = build_report(optim.best.mix, optim.best.result, data, label="residual-baseload")
    return report, optim


def run_fuel_sensitivity(
    data: AlignedDataset,
    params: SimParams = DEFAULT_PARAMS,
    book: CostBook = DEFAULT_BOOK,
    space: SearchSpace | None = None,
    fuel_prices: Sequence[float] = (20.0, 10.0),
    options: OptimizeOptions = DEFAULT_OPTIONS,
) -> list[tuple[float, ScenarioReport, OptimResult]]:
    """One full optimization per fuel price, cheapest-last order preserved.

    Fuel price enters costing only, so every search sizes its mixes through
    one shared ``SizingTable``: a mix is sized once for all prices, and each
    search's trajectory, winner and evaluation count are those it would
    have alone.  Each run is labelled by its price to 6 significant digits
    (``:g``), so prices that share a label are rejected before any search
    runs.
    """
    prices = [float(p) for p in fuel_prices]
    if not prices:
        raise ValueError("fuel_prices must not be empty")
    for p in prices:
        if not (math.isfinite(p) and p > 0.0):
            raise ValueError(f"fuel prices must be positive and finite, got {p!r}")
    repeated = [label for label, n in Counter(f"{p:g}" for p in prices).items() if n > 1]
    if repeated:
        raise ValueError(
            "fuel prices must differ at 6 significant digits, which label their reports "
            f"and files; repeated: {', '.join(repeated)} USD/GJ"
        )
    table = SizingTable(data, params)
    runs = []
    for price in prices:
        priced = replace(book, fuel_price_usd_per_gj=price)
        report, optim = run_base(data, params, priced, space, options, table)
        report = replace(report, label=f"fuel {price:g} USD/GJ")
        runs.append((price, report, optim))
    return runs


# ===================== report rendering =====================

def _rows(report, include_baseload: bool) -> list[tuple[str, float, str]]:
    """``(label, value, unit)`` of each row field of a report, in field order."""
    rows = []
    for f in fields(report):
        if "row" in f.metadata:
            label, unit, baseload, scale = f.metadata["row"]
            if include_baseload or not baseload:
                rows.append((label, scale * getattr(report, f.name), unit))
    return rows


def write_report_csv(
    path,
    reports: ScenarioReport | Sequence[ScenarioReport],
    extra_rows: Sequence[tuple[str, float, str]] = (),
) -> None:
    """Write one or more reports side by side as ``row,<label...>,unit`` CSV."""
    if isinstance(reports, ScenarioReport):
        reports = [reports]
    if not reports:
        raise ValueError("write_report_csv needs at least one report")
    include_baseload = any(r.baseload_gw > 0.0 for r in reports)
    per_report = [_rows(r, include_baseload) for r in reports]
    labels = [_csv_quote(r.label or f"case {i}") for i, r in enumerate(reports)]

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["row"] + labels + ["unit"]) + "\n")
        for row_idx in range(len(per_report[0])):
            name, _, unit = per_report[0][row_idx]
            values = [repr(float(rows[row_idx][1])) for rows in per_report]
            fh.write(",".join([_csv_quote(name)] + values + [_csv_quote(unit)]) + "\n")
        for name, value, unit in extra_rows:
            pad = [repr(float(value))] + [""] * (len(reports) - 1)
            fh.write(",".join([_csv_quote(name)] + pad + [_csv_quote(unit)]) + "\n")


def write_rigidity_csv(path, report: RigidityReport) -> None:
    """Write a rigidity test outcome using the demand-change table rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("row,value,unit\n")
        for name, value, unit in _rows(report, False):
            fh.write(",".join([_csv_quote(name), repr(float(value)), _csv_quote(unit)]) + "\n")


def low_storage_extra_rows(delta: LowStorageDelta) -> list[tuple[str, float, str]]:
    """Comparison rows appended to a low-storage report."""
    return _rows(delta, False)


def _csv_quote(text: str) -> str:
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text
