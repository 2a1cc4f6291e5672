"""Dispatch simulation and least-cost capacity sizing for wind/solar grids.

The package answers one question about grids built on variable renewables:
how much firm dispatchable capacity must stand behind the wind, solar, and
storage for demand to be met every hour of the year, and what does the
least-cost combination look like.
"""

from .costing import CostBook, SystemCost
from .dispatch import (
    CapacityMix,
    DispatchResult,
    SimParams,
    SizingTable,
    simulate,
    size_dispatch,
)
from .optimizer import Evaluation, OptimResult, SearchSpace, optimize
from .profiles import (
    KIND_CAPACITY_FACTOR,
    KIND_DEMAND,
    AlignedDataset,
    TimeSeries,
    align,
    load_series,
)
from .scenarios import (
    InfeasibleError,
    LowStorageDelta,
    RigidityReport,
    ScenarioReport,
    run_base,
    run_fuel_sensitivity,
    run_low_storage,
    run_pv_only,
    run_residual_baseload,
    run_rigidity,
    write_report_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AlignedDataset",
    "CapacityMix",
    "CostBook",
    "DispatchResult",
    "Evaluation",
    "InfeasibleError",
    "KIND_CAPACITY_FACTOR",
    "KIND_DEMAND",
    "LowStorageDelta",
    "OptimResult",
    "RigidityReport",
    "ScenarioReport",
    "SearchSpace",
    "SimParams",
    "SizingTable",
    "SystemCost",
    "TimeSeries",
    "align",
    "load_series",
    "optimize",
    "run_base",
    "run_fuel_sensitivity",
    "run_low_storage",
    "run_pv_only",
    "run_residual_baseload",
    "run_rigidity",
    "simulate",
    "size_dispatch",
    "write_report_csv",
]
