"""Named system studies and their reports.

Each scenario wraps the simulator and optimizer into one question: what does
the least-cost system look like (base), does cheap storage displace firm
capacity (low-storage), how much PV and battery would a solar-only system
need (pv-only), how close to its limit does such a system run (rigidity),
what changes when legacy baseload stays online (residual-baseload), and how
does the answer move with fuel price (fuel-sensitivity).  The four that
search take their ``SearchSpace`` whole: residual-baseload's plant is in it.

pv-only and rigidity each look for the threshold of a feasibility test
that is monotone in one quantity: the least PV, the least battery energy,
the first failing demand multiplier.  One search, ``_least_passing``, finds
all three by doubling and bisection.  The pv-only searches stop at fixed
resolutions, ``PV_TOL_GW`` of PV and ``ENERGY_TOL_GWH`` of battery energy,
and search PV up to a million times peak demand: once the doubling reaches
that cap, the cap is probed, and a failing cap means no PV serves.
Rigidity raises demand up to ``RIGIDITY_MAX_MULTIPLIER`` times its level; a
mix that still serves it there is not storage-limited.  That limit is part
of its test: a value past it passes without a simulation, and an answer
past it means none.

``write_report_csv`` renders every table to CSV, one row per figure with
the conventional table row labels, values at full precision: scenario
reports side by side, a rigidity report as one column, and the rows of a
low-storage delta after its report.  Each row's label and unit are
declared on its report field with ``_row``, and the rows follow the fields'
order, so a table's row order is its report's field order.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Sequence

from .costing import DEFAULT_BOOK, CostBook
from .dispatch import (
    DEFAULT_PARAMS,
    CapacityMix,
    DispatchResult,
    DispatchTrace,
    SimParams,
    SizingTable,
    simulate,
    simulate_trace,
    sized_simulation,
)
from .optimizer import OptimResult, SearchSpace, optimize
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


# One check per scenario knob, shared by the scenarios and the run
# configuration, so each message names the configuration key.
def _check_rigidity_step(step: float) -> None:
    if not (0.0 < step < 1.0):
        raise ValueError(f"rigidity_step must be in (0, 1), got {step!r}")
    if 1.0 + step == 1.0:
        raise ValueError(f"rigidity_step must move 1.0 + step above 1.0, got {step!r}")


def _check_battery_price(price: float) -> None:
    if not (math.isfinite(price) and price >= 0.0):
        raise ValueError(f"battery_price_usd_per_kwh must be finite and >= 0, got {price!r}")


def _check_fuel_price(price: float, book: CostBook) -> None:
    if not (math.isfinite(price) and price > 0.0):
        raise ValueError(f"fuel_prices_usd_per_gj must be positive and finite, got {price!r}")
    if not math.isfinite(price * book.heat_rate_gj_per_mwh):
        raise ValueError(
            "fuel_prices_usd_per_gj * heat_rate_gj_per_mwh must be finite, got "
            f"{price!r} * {book.heat_rate_gj_per_mwh!r}"
        )


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
    label: str = "value"


@dataclass(frozen=True)
class LowStorageDelta:
    """Firm capacity of the base optimum and its change under cheap storage."""

    base_dispatch_gw: float = _row("Base Case Installed Dispatch", "GW")
    dispatch_delta_gw: float = _row("Installed Dispatch Change", "GW")
    base_dispatch_energy_twh: float = _row("Base Case Dispatch Energy", "TWh")
    battery_price_usd_per_kwh: float = _row("Storage Price", "USD/kWh")


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
    # the peak of demand net of baseload, floored at +0.0: subtracting one
    # value rounds monotonically, so it is the peak less that value
    net_peak = peak - baseload_out
    net_peak = net_peak if net_peak > 0.0 else 0.0

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
    *,
    space: SearchSpace,
    table: SizingTable | None = None,
) -> tuple[ScenarioReport, OptimResult]:
    """Least-cost wind, PV, battery, and firm capacity with no baseload.

    ``table`` is handed to ``optimize``, so searches of one dataset can
    share their sized mixes.
    """
    if space.baseload_gw != 0.0:
        raise ValueError("the base scenario carries no baseload, use residual-baseload instead")
    optim = optimize(space, data, params, book, table)
    report = build_report(optim.best.mix, optim.best.result, data, label="base")
    return report, optim


def run_low_storage(
    data: AlignedDataset,
    params: SimParams = DEFAULT_PARAMS,
    book: CostBook = DEFAULT_BOOK,
    *,
    space: SearchSpace,
    battery_price: float = 10.0,
) -> tuple[ScenarioReport, LowStorageDelta, OptimResult]:
    """Re-optimize with cheap storage and compare firm capacity to base.

    Both searches size their mixes through one ``SizingTable``, so the
    cheap-storage search sizes only the mixes the base search did not
    reach.  With ``battery_price`` equal to the book value it reproduces
    the base optimum exactly and sizes nothing.
    """
    _check_battery_price(battery_price)
    table = SizingTable(data, params)
    base_optim = run_base(data, params, book, space=space, table=table)[1]
    base_gw = base_optim.best.mix.dispatch_gw
    base_twh = base_optim.best.result.dispatch_energy_twh
    # the base winner's ledger need not live through the second search, so
    # the base report is never bound and the base search is dropped here
    del base_optim
    cheap_book = replace(book, capex_battery_usd_per_kwh=battery_price)
    report, optim = run_base(data, params, cheap_book, space=space, table=table)
    report = replace(report, label="low-storage")
    delta = LowStorageDelta(
        battery_price_usd_per_kwh=battery_price,
        base_dispatch_gw=base_gw,
        dispatch_delta_gw=optim.best.mix.dispatch_gw - base_gw,
        base_dispatch_energy_twh=base_twh,
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
) -> tuple[DispatchTrace, bool]:
    """Run ``pv_gw`` of PV with ``energy_gwh`` of battery at ``peak`` power
    or more; return the ledger and whether the probe is feasible: no demand
    goes unserved and the battery ends no lower than it started."""
    power = max(peak, pv_gw) if energy_gwh > 0.0 else 0.0
    mix = _pv_probe_mix(pv_gw, power, energy_gwh)
    trace = simulate_trace(mix, data, params)
    initial_soc = params.initial_soc_fraction * mix.battery_energy_gwh
    closed = trace.final_soc_gwh + 1e-9 >= initial_soc
    return trace, trace.unserved_energy_twh == 0.0 and closed


def _least_passing(passes: Callable[[float], bool], first: float, tol: float) -> float:
    """The least ``x >= 0`` that ``passes``, to within ``tol``, when passing
    is monotone in ``x``: int or float, as ``first`` is.

    Probes ``first``, doubling it until a probe passes, then halves the
    bracket between the last failing probe and that one at its midpoint,
    rounded down for an int, until it is at most ``tol`` wide, and returns
    its passing end.  Zero is probed last, and only when the bracket never
    left it: its lower end is then zero, never probed, and the answer
    within ``tol`` of it.  No value is probed twice.  A caller bounds the
    search by letting every value past its limit pass without a
    simulation, and reads an answer past that limit as none.
    """
    lo, hi = 0 * first, first
    while not passes(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > tol:
        mid = (lo + hi) // 2 if isinstance(first, int) else 0.5 * (lo + hi)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return lo if lo == 0 and passes(lo) else hi


def run_pv_only(data: AlignedDataset, params: SimParams = DEFAULT_PARAMS) -> ScenarioReport:
    """Smallest PV and battery serving all demand with no wind or firm plant.

    Sizing is resource-driven, so no cost book enters.  ``_least_passing``
    finds the least PV to ``PV_TOL_GW`` with an effectively unconstrained
    battery, doubling PV from peak demand and then bisecting, and then the
    least battery energy at that PV to ``ENERGY_TOL_GWH``, bisecting below
    a tight bound known feasible, or doubling upward from
    ``ENERGY_TOL_GWH`` where there is none.  Once the PV doubling reaches
    the cap, a million times peak demand, the cap itself is probed: if it
    fails, pv-only is infeasible after that one pass, and every PV past a
    passing cap passes unsimulated.  A probe counts as feasible only if no
    demand goes unserved and the battery ends the period no lower than it
    started: the initial charge (``params.initial_soc_fraction``)
    bootstraps a dataset that begins at night, but panels, not the starting
    inventory, must carry the year.  Zero PV or zero energy is probed only
    when a search ends within its resolution of zero, and no probe runs
    twice.  Reported battery power is the largest charge or discharge flow
    actually used, so the reported mix reproduces the zero-unserved result.
    At zero peak demand the cap is zero, which passes, so the search sizes
    the empty mix in four balance passes.

    Raises
    ------
    InfeasibleError
        If no PV up to a million times peak demand serves all demand.
    """
    peak = demand_stats(data.demand).peak_gw
    pv_cap = 1e6 * peak
    huge_energy = 1e9 * max(peak, 1.0)

    # Each search ends on its last feasible probe, whose ledger the next
    # step reads, so that one ledger is kept.
    last_feasible: DispatchTrace | None = None

    def feasible(pv_gw: float, energy_gwh: float) -> bool:
        nonlocal last_feasible
        trace, verdict = _pv_only_probe(data, params, peak, pv_gw, energy_gwh)
        if verdict:
            last_feasible = trace
        return verdict

    cap_passed = False

    def pv_passes(pv_gw: float) -> bool:
        nonlocal cap_passed
        if pv_gw < pv_cap:
            return feasible(pv_gw, huge_energy)
        if not cap_passed and not feasible(pv_cap, huge_energy):
            raise InfeasibleError(f"no PV capacity up to {pv_cap:g} GW serves all demand")
        cap_passed = True
        return True

    # a bracket that closes past a passing cap ends at the cap, its last feasible probe
    pv_star = min(_least_passing(pv_passes, max(peak, 1.0), PV_TOL_GW), pv_cap)

    # Least battery energy at the sized PV.  With no initial charge the
    # unconstrained run bounds it tightly: a cap at the highest state of
    # charge ever reached never binds.  With an initial charge the starting
    # inventory scales with capacity, so the tight bound must be re-probed,
    # and a run whose battery never charged peaks at its start charge,
    # initial_soc_fraction times the unconstrained size, a bound not worth
    # a probe.  Below a tight bound that passes, the search bisects; where
    # there is none, it doubles upward from ENERGY_TOL_GWH, and every energy
    # past the unconstrained size passes unsimulated.
    tight = last_feasible.peak("soc_gwh") * (1.0 + 1e-9) + 1e-9
    bounded = params.initial_soc_fraction == 0.0 or last_feasible.peak("battery_charge_gw") > 0.0
    if bounded and tight < huge_energy and feasible(pv_star, tight):
        energy_hi, first = tight, tight
    else:
        energy_hi, first = huge_energy, ENERGY_TOL_GWH
    energy_star = _least_passing(
        lambda energy_gwh: energy_gwh >= energy_hi or feasible(pv_star, energy_gwh),
        first,
        ENERGY_TOL_GWH,
    )

    flows = max(
        last_feasible.peak("battery_charge_gw"), last_feasible.peak("battery_discharge_gw")
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

    Demand is raised to multipliers ``1.0 + k * step`` for integers
    ``k >= 1``, and the first ``k`` with unserved energy is the failure
    point.  A ``k`` past ``RIGIDITY_MAX_MULTIPLIER`` counts as failing
    unsimulated, so every search stops at that limit; a first failing
    ``k`` past it means no failure.  With ``battery_charges_from_dispatch``
    off, failure is monotone in demand, so ``_least_passing`` doubles ``k``
    from 1 and then bisects the integers, finding that ``k`` in about
    ``2 log2 k`` simulations (10 for a failure at ``k = 21``); the unscaled
    demand (``k = 0``) is probed only when the search ends at ``k = 1``: a
    serving ``k = 1`` already shows that it is served.  With
    the flag on, a battery run empty can be topped up from spare dispatch
    and serve a larger demand again, so a bisection could land on a later
    failure; the unscaled demand is checked first and then every ``k`` in
    order.

    At the failure point, ``sized_simulation`` sizes the firm gap and
    simulates the mix at that capacity for the report: one balance pass
    with the flag off, two with it on.

    Raises
    ------
    ValueError
        If ``step`` is outside (0, 1) or too small to move 1.0, the mix
        does not serve the unscaled demand, or no failure occurs up to
        ``RIGIDITY_MAX_MULTIPLIER`` (a mix with firm backup does not fail).
    """
    _check_rigidity_step(step)

    def scaled(k: int) -> AlignedDataset:
        return scale_demand(data, 1.0 + k * step) if k else data

    def within_limit(k: int) -> bool:
        return 1.0 + k * step <= RIGIDITY_MAX_MULTIPLIER

    def fails(k: int) -> bool:
        if not within_limit(k):
            return True
        return simulate_trace(mix, scaled(k), params).unserved_energy_twh > 0.0

    if params.battery_charges_from_dispatch:
        k = next(filter(fails, itertools.count()))
    else:
        k = _least_passing(fails, 1, 1)
    if k == 0:
        raise ValueError("mix does not serve the baseline demand, rigidity is undefined")
    if not within_limit(k):
        raise ValueError(
            f"no failure up to multiplier {RIGIDITY_MAX_MULTIPLIER}, mix is not storage-limited"
        )

    failing = scaled(k)
    sized, result = sized_simulation(mix, failing, params)
    failing_stats = demand_stats(failing.demand)
    return RigidityReport(
        annual_demand_twh=demand_stats(data.demand).annual_energy_twh,
        test_demand_twh=failing_stats.annual_energy_twh,
        failure_multiplier=1.0 + k * step,
        required_dispatch_gw=sized.dispatch_gw,
        required_dispatch_energy_gwh=result.dispatch_energy_twh * 1000.0,
        dispatch_pct_of_average=100.0 * sized.dispatch_gw / failing_stats.average_gw,
        mix=sized,
        result=result,
    )


def run_residual_baseload(
    data: AlignedDataset,
    params: SimParams = DEFAULT_PARAMS,
    book: CostBook = DEFAULT_BOOK,
    *,
    space: SearchSpace,
) -> tuple[ScenarioReport, OptimResult]:
    """Least-cost mix when legacy baseload stays online at a flat EAF.

    The baseload plant is the one ``space`` carries, ``space.baseload_gw``
    at ``space.baseload_eaf``.  It is must-run and free in the objective;
    only the wind, PV, battery, and firm additions are costed and searched.
    """
    optim = optimize(space, data, params, book)
    report = build_report(optim.best.mix, optim.best.result, data, label="residual-baseload")
    return report, optim


def run_fuel_sensitivity(
    data: AlignedDataset,
    params: SimParams = DEFAULT_PARAMS,
    book: CostBook = DEFAULT_BOOK,
    *,
    space: SearchSpace,
    fuel_prices: Sequence[float] = (20.0, 10.0),
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
        _check_fuel_price(p, book)
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
        report, optim = run_base(data, params, priced, space=space, table=table)
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


def write_report_csv(path, reports, extra=None) -> None:
    """Write one or more reports of one kind side by side as
    ``row,<label...>,unit`` CSV, then the row fields of ``extra``, if any,
    in the first column.  Baseload rows show if a report carries baseload."""
    if isinstance(reports, (ScenarioReport, RigidityReport)):
        reports = [reports]
    if not reports:
        raise ValueError("write_report_csv needs at least one report")
    include_baseload = any(getattr(r, "baseload_gw", 0.0) > 0.0 for r in reports)
    per_report = [_rows(r, include_baseload) for r in reports]
    labels = [_csv_quote(r.label or f"case {i}") for i, r in enumerate(reports)]

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["row"] + labels + ["unit"]) + "\n")
        for row_idx in range(len(per_report[0])):
            name, _, unit = per_report[0][row_idx]
            values = [repr(float(rows[row_idx][1])) for rows in per_report]
            fh.write(",".join([_csv_quote(name)] + values + [_csv_quote(unit)]) + "\n")
        for name, value, unit in () if extra is None else _rows(extra, False):
            pad = [repr(float(value))] + [""] * (len(reports) - 1)
            fh.write(",".join([_csv_quote(name)] + pad + [_csv_quote(unit)]) + "\n")


def _csv_quote(text: str) -> str:
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text
