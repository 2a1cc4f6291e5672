"""Least-cost capacity search.

A candidate is a wind, PV, and battery combination; its dispatchable
capacity is not searched but sized endogenously so every candidate serves
all demand.  The search scans a coarse full grid, then refines the incumbent
one coordinate at a time with step halving.  Selection uses a total
ordering: unit cost first, then annualized capital, then total installed
GW, then the capacities themselves.  The search runs sequentially in one
fixed order, so the trajectory, the winner and the evaluation count are
the same on every run.

Every point, coarse or refined, goes through one memoized point function,
keyed by its coordinates rounded to 1e-9: a point met again, in the grid
or in refinement, is a cache hit and is neither sized nor recorded twice.
A new point is sized through a ``dispatch.SizingTable`` and priced with
``costing.cost_from_energy``.  The table memoizes each sizing by the
exact coordinates and baseload of a mix.  Sizing never reads the cost
book, so searches that differ only in their books can share one table,
and a mix one of them sized costs the others no balance pass.  A mix
sized anew takes one balance pass, which skips the battery when it has
none; with ``battery_charges_from_dispatch`` on, it is simulated once more.
The search keeps only each point's sized mix and cost; the returned best
``Evaluation`` comes from one ``simulate`` of the winner, per-step ledger
included.

A ``SearchSpace`` holds a search's whole resolution: its coarse grid and
its refinement tolerances.  It is built from bounds that are all set (the
run configuration scales unset ones from peak demand), and refuses a coarse
grid of more than ``MAX_GRID_POINTS`` points.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

from .costing import DEFAULT_BOOK, CostBook, SystemCost, cost_from_energy
from .dispatch import (
    DEFAULT_PARAMS,
    CapacityMix,
    DispatchResult,
    SimParams,
    SizingTable,
    simulate,
)
from .profiles import AlignedDataset

TRAJECTORY_COLUMNS = (
    "step",
    "wind_gw",
    "pv_gw",
    "battery_power_gw",
    "battery_hours",
    "dispatch_gw",
    "unit_cost_usd_per_mwh",
)
# The mix columns of a trajectory row, between its step and its unit cost.
_mix_columns = operator.attrgetter(*TRAJECTORY_COLUMNS[1:-1])

# Coarse storage durations in hours; refinement interpolates between rungs.
DEFAULT_BATTERY_HOURS = (0.0, 1.0, 2.0, 4.0, 8.0, 12.0, 24.0, 36.0, 48.0)

# The most points a coarse grid may have.  A point holds about 1.25 kB until
# the search returns (95,832 points raised peak RSS by 115 MB on 48 h and
# 168 h datasets alike; CPython 3.11, numpy 2.4, x86-64), so a full grid
# holds about 1.2 GB, within a 2 GB process, and ten times the 93,744
# points of a drought year searched with every bound scaled from peak.
MAX_GRID_POINTS = 1_000_000

# The searched coordinates of a mix, in grid and refinement order.
AXES = ("wind_gw", "pv_gw", "battery_power_gw", "battery_hours")
_coords = operator.attrgetter(*AXES)

# Refinement sweeps are capped so a search always ends.
MAX_REFINE_SWEEPS = 60


@dataclass(frozen=True)
class SearchSpace:
    """Bounds of the capacity search.

    Power axes are (min, max, coarse step) in GW.  Battery duration is
    scanned over an explicit ladder of hours rather than a uniform step,
    dense at short durations where the cost trade-off is steep.  Baseload
    is fixed, not searched.  Refinement stops once every axis's step is
    below its tolerance, ``refine_tolerance_gw`` or ``refine_tolerance_hours``.
    """

    wind_gw: tuple[float, float, float]
    pv_gw: tuple[float, float, float]
    battery_power_gw: tuple[float, float, float]
    battery_hours: tuple[float, ...] = DEFAULT_BATTERY_HOURS
    baseload_gw: float = 0.0
    baseload_eaf: float = 1.0
    refine_tolerance_gw: float = 0.1
    refine_tolerance_hours: float = 0.5

    def __post_init__(self) -> None:
        if not (self.refine_tolerance_gw > 0.0 and self.refine_tolerance_hours > 0.0):
            raise ValueError("refinement tolerances must be positive")
        for name in ("wind_gw", "pv_gw", "battery_power_gw"):
            lo, hi, step = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 <= lo <= hi):
                raise ValueError(f"{name} range must satisfy 0 <= min <= max, got ({lo}, {hi})")
            if not (math.isfinite(step) and step > 0.0):
                raise ValueError(f"{name} step must be positive, got {step!r}")
        ladder = tuple(float(h) for h in self.battery_hours)
        if not ladder:
            raise ValueError("battery_hours ladder must not be empty")
        if any(h < 0.0 or not math.isfinite(h) for h in ladder):
            raise ValueError(f"battery_hours must be finite and >= 0, got {ladder!r}")
        if list(ladder) != sorted(set(ladder)):
            raise ValueError(f"battery_hours must be strictly increasing, got {ladder!r}")
        object.__setattr__(self, "battery_hours", ladder)
        if not (math.isfinite(self.baseload_gw) and self.baseload_gw >= 0.0):
            raise ValueError(f"baseload_gw must be finite and >= 0, got {self.baseload_gw!r}")
        if not (0.0 <= self.baseload_eaf <= 1.0):
            raise ValueError(f"baseload_eaf must be in [0, 1], got {self.baseload_eaf!r}")
        axes = (self.wind_gw, self.pv_gw, self.battery_power_gw)
        points = math.prod((_rung_count(*axis) for axis in axes), start=float(len(ladder)))
        if points > MAX_GRID_POINTS:
            raise ValueError(f"the coarse grid has {points:g} points, more than {MAX_GRID_POINTS}")


@dataclass(frozen=True)
class Evaluation:
    """One candidate with its sized dispatch, simulation, and cost."""

    mix: CapacityMix
    result: DispatchResult
    cost: SystemCost


@dataclass(frozen=True)
class OptimResult:
    best: Evaluation
    trajectory: list[tuple[CapacityMix, float]] = field(repr=False)

    @property
    def evaluations(self) -> int:
        """Points sized and costed, one per trajectory row."""
        return len(self.trajectory)


def _rung_count(lo: float, hi: float, step: float) -> int | float:
    """The length of ``grid_axis(lo, hi, step)``, inf when too long to count."""
    rungs = (hi - lo) / step + 1e-9
    return math.floor(rungs) + 1 if math.isfinite(rungs) else math.inf


def grid_axis(lo: float, hi: float, step: float) -> list[float]:
    """Inclusive arithmetic grid from lo by step, never exceeding hi."""
    return [min(lo + k * step, hi) for k in range(_rung_count(lo, hi, step))]


def _rank_key(point: tuple[CapacityMix, SystemCost]) -> tuple:
    m, cost = point
    total_gw = m.wind_gw + m.pv_gw + m.battery_power_gw + m.dispatch_gw
    return (cost.unit_cost_usd_per_mwh, cost.annualized_capital_usd, total_gw, *_coords(m))


def _hours_refine_step(ladder: tuple[float, ...], hours: float) -> float:
    # Half the widest gap to the neighboring coarse rungs.
    i = ladder.index(hours)
    left = ladder[i] - ladder[i - 1] if i > 0 else 0.0
    right = ladder[i + 1] - ladder[i] if i + 1 < len(ladder) else 0.0
    return max(left, right) / 2.0


def _cache_key(wind: float, pv: float, bp: float, bh: float) -> tuple[float, float, float, float]:
    return (round(wind, 9), round(pv, 9), round(bp, 9), round(bh, 9))


def optimize(
    space: SearchSpace,
    data: AlignedDataset,
    params: SimParams = DEFAULT_PARAMS,
    book: CostBook = DEFAULT_BOOK,
    table: SizingTable | None = None,
) -> OptimResult:
    """Find the least-cost mix over the search space.

    Phase one sizes and costs the full coarse grid in grid order.  Phase
    two sweeps the four axes in fixed order, moving the incumbent to a
    strictly better neighbor at the current step; after a sweep with no
    improvement all steps halve.  Refinement ends when every active axis
    is below its tolerance.  The result is deterministic, including the
    evaluation count.

    Mixes are sized through ``table``, a fresh ``SizingTable`` when none is
    given.  Searches that pass one table share its sized mixes; each still
    counts, records and prices its own points, so its result is the same
    as with a table of its own.  A table built for another ``data`` object
    or other ``params`` raises ``ValueError``.
    """
    if table is None:
        table = SizingTable(data, params)
    table.check(data, params)
    # Each point searched, by rounded coordinates, with its sized mix and cost, in search order.
    cache: dict[tuple[float, float, float, float], tuple[CapacityMix, SystemCost]] = {}

    def point(coords: tuple[float, float, float, float]) -> tuple[CapacityMix, SystemCost]:
        key = _cache_key(*coords)
        hit = cache.get(key)
        if hit is None:
            # AXES are the mix's first four fields; the table sizes dispatch_gw
            mix = CapacityMix(*coords, 0.0, space.baseload_gw, space.baseload_eaf)
            sized, served, energy = table.sized_energy(mix)
            hit = cache[key] = (sized, cost_from_energy(sized, served, energy, book))
        return hit

    # min keeps the first of equal points, so grid order breaks exact ties.
    axes = (space.wind_gw, space.pv_gw, space.battery_power_gw)
    best = min(
        map(point, itertools.product(*(grid_axis(*axis) for axis in axes), space.battery_hours)),
        key=_rank_key,
    )

    ladder = space.battery_hours
    bounds = [axis[:2] for axis in axes] + [(ladder[0], ladder[-1])]
    steps = [axis[2] / 2.0 for axis in axes] + [_hours_refine_step(ladder, best[0].battery_hours)]
    tols = [space.refine_tolerance_gw] * len(axes) + [space.refine_tolerance_hours]

    for _ in range(MAX_REFINE_SWEEPS):
        active = [i for i, (lo, hi) in enumerate(bounds) if lo < hi and steps[i] >= tols[i]]
        if not active:
            break
        improved = False
        for i in active:
            center = _coords(best[0])[i]
            lo, hi = bounds[i]
            for value in (center - steps[i], center + steps[i]):
                value = min(max(value, lo), hi)
                if abs(value - center) < 1e-12:
                    continue
                coords = _coords(best[0])  # the incumbent may have moved
                neighbor = point(coords[:i] + (value,) + coords[i + 1 :])
                if _rank_key(neighbor) < _rank_key(best):
                    best = neighbor
                    improved = True
        if not improved:
            steps = [step / 2.0 for step in steps]

    best_mix, best_cost = best
    winner = Evaluation(mix=best_mix, result=simulate(best_mix, data, params), cost=best_cost)
    trajectory = [(mix, cost.unit_cost_usd_per_mwh) for mix, cost in cache.values()]
    return OptimResult(best=winner, trajectory=trajectory)


def write_trajectory_csv(result: OptimResult, path) -> None:
    """Write every evaluation of a search, in order, to CSV."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        for i, (mix, unit_cost) in enumerate(result.trajectory):
            fh.write(",".join((str(i), *map(repr, _mix_columns(mix)), repr(unit_cost))) + "\n")
