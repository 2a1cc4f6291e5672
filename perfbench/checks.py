"""Invariants the benchmark checks on the CLI's output files.

The checks read only what the CLI wrote, and test properties that a
deliberate modelling change keeps, never golden bytes.  Each returns a list
of problems, empty when the outputs pass.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

# report.csv rows that give the reported mix, with their CLI config keys
MIX_ROWS = {
    "Installed Wind": "wind_gw",
    "Installed PV": "pv_gw",
    "Battery Capacity": "battery_power_gw",
    "Battery Hours": "battery_hours",
    "Installed Dispatch": "dispatch_gw",
}
TRAJECTORY_MIX = ("wind_gw", "pv_gw", "battery_power_gw", "battery_hours", "dispatch_gw")
SUPPLY_COLUMNS = (
    "baseload_gw",
    "renewable_to_demand_gw",
    "battery_discharge_gw",
    "dispatch_gw",
    "unserved_gw",
)
DISPATCH_CUT_GW = 0.01  # sized dispatch minus this must drop load


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file the command wrote."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if path.is_file()
    }


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def report_values(path: Path) -> dict[str, float]:
    """First value column of a report.csv, by row label."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {row[0]: float(row[1]) for row in reader if row[1]}


def reported_mix(report: Path) -> dict[str, float]:
    values = report_values(report)
    return {key: values[row] for row, key in MIX_ROWS.items()}


def trajectory_rows(path: Path) -> int:
    return len(_rows(path))


def best_is_trajectory_minimum(report: Path, trajectory: Path) -> list[str]:
    """The reported mix is a trajectory row, and its unit cost is the minimum."""
    mix = reported_mix(report)
    rows = _rows(trajectory)
    if not rows:
        return [f"{trajectory.name} has no rows"]
    costs = [float(row["unit_cost_usd_per_mwh"]) for row in rows]
    matches = [
        cost
        for row, cost in zip(rows, costs)
        if all(float(row[key]) == mix[key] for key in TRAJECTORY_MIX)
    ]
    if not matches:
        return [f"reported mix {mix} is not in {trajectory.name}"]
    if matches[0] != min(costs):
        return [f"reported mix costs {matches[0]!r}, trajectory minimum is {min(costs)!r}"]
    return []


def trace_balance(trace: Path) -> list[str]:
    """Every step's supply columns add up to its demand."""
    for row in _rows(trace):
        demand = float(row["demand_gw"])
        supplied = sum(float(row[col]) for col in SUPPLY_COLUMNS)
        if abs(supplied - demand) > 1e-9 * max(1.0, demand):
            where = f"{trace.parent.name}/{trace.name} step {row['step']}"
            return [f"{where}: supply {supplied!r} != demand {demand!r}"]
    return []


def unserved_total(trace: Path) -> float:
    """Sum of a trace.csv's unserved column; 0.0 exactly when all demand is served."""
    return sum(float(row["unserved_gw"]) for row in _rows(trace))
