"""Frozen references that the package's faster paths are checked against.

``evaluate`` is the two-pass reference for one search point: it sizes the
firm capacity with ``size_dispatch``, simulates the sized mix, and costs it
from that simulation with ``system_cost``: two balance passes where
``optimize`` takes one.

``rigidity_sweep`` is the rigidity search as a plain sweep: it checks the
unscaled demand, then probes every multiplier ``1.0 + k * step`` in order
until one fails, where ``run_rigidity`` may double and bisect.

``load_series`` reads every series row by row with ``csv.reader``, where
``profiles.load_series`` reads the value-only shape without csv.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import replace

import numpy as np

from firmdispatch import (
    AlignedDataset,
    CapacityMix,
    CostBook,
    DispatchResult,
    SimParams,
    SystemCost,
    simulate,
    size_dispatch,
)
from firmdispatch.costing import DEFAULT_BOOK, cost_from_energy
from firmdispatch.dispatch import DEFAULT_PARAMS
from firmdispatch.optimizer import Evaluation
from firmdispatch.profiles import (
    CF_CLAMP_TOL,
    KIND_CAPACITY_FACTOR,
    TimeSeries,
    demand_stats,
    scale_demand,
)
from firmdispatch.scenarios import RIGIDITY_MAX_MULTIPLIER, RigidityReport


def system_cost(mix: CapacityMix, result: DispatchResult, book: CostBook) -> SystemCost:
    """Assemble the annual cost of a mix from a simulation of it.

    Energy served is demand minus unserved energy.
    """
    return cost_from_energy(mix, result.served_energy_twh, result.dispatch_energy_twh, book)


def evaluate(
    candidate: CapacityMix,
    data: AlignedDataset,
    params: SimParams = DEFAULT_PARAMS,
    book: CostBook = DEFAULT_BOOK,
) -> Evaluation:
    """Size dispatch for a candidate, simulate it, and cost the system.

    The candidate's own ``dispatch_gw`` is ignored; the returned mix carries
    the sized value, and its simulation serves all demand by construction.
    """
    sized = replace(candidate, dispatch_gw=size_dispatch(candidate, data, params))
    result = simulate(sized, data, params)
    return Evaluation(mix=sized, result=result, cost=system_cost(sized, result, book))


def rigidity_sweep(
    mix: CapacityMix,
    data: AlignedDataset,
    params: SimParams = DEFAULT_PARAMS,
    step: float = 0.01,
) -> RigidityReport:
    """Probe the unscaled demand, then ``k = 1, 2, 3, ...`` until the mix
    fails, and size the firm gap there as ``run_rigidity`` does."""
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
        if simulate(mix, scaled, params).unserved_energy_twh > 0.0:
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


def load_series(raw: bytes, kind: str, dt_hours: float = 1.0, label: str = "") -> TimeSeries:
    """Read one series from CSV bytes, every row through ``csv.reader``."""
    name = label or "<bytes>"
    text = raw.decode("utf-8-sig")
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{name}: empty input, expected a CSV header row")
    fields = [f.strip() for f in header]
    if "value" not in fields:
        raise ValueError(f"{name}: no 'value' column in header {header!r}")
    if fields.count("value") > 1:
        raise ValueError(f"{name}: more than one 'value' column in header {header!r}")
    column = fields.index("value")

    values: list[float] = []
    for row in reader:
        if not row:  # a blank line
            continue
        cell = row[column] if column < len(row) else ""
        if cell.strip() == "":
            raise ValueError(f"{name}: missing value on line {reader.line_num}")
        try:
            x = float(cell)
        except ValueError:
            raise ValueError(
                f"{name}: unparseable value {cell!r} on line {reader.line_num}"
            ) from None
        if not math.isfinite(x):
            raise ValueError(f"{name}: non-finite value on line {reader.line_num}")
        values.append(x)
    if not values:
        raise ValueError(f"{name}: no data rows")

    arr = np.asarray(values, dtype=np.float64)
    if kind == KIND_CAPACITY_FACTOR:
        # Rounding noise just outside the bounds is clamped, real excursions are not.
        low = (arr < 0.0) & (arr >= -CF_CLAMP_TOL)
        high = (arr > 1.0) & (arr <= 1.0 + CF_CLAMP_TOL)
        arr = np.where(low, 0.0, np.where(high, 1.0, arr))
    return TimeSeries(values=arr, dt_hours=dt_hours, kind=kind, label=label or name)
