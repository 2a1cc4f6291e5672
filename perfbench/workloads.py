"""Benchmark workloads: inputs made from the seed, and the CLI commands run on them.

Each workload writes its CSVs and configuration files into an inputs
directory; the program sees nothing else.  The drought year is written by a
child process (``probe.py year``), so the harness itself never imports numpy
or firmdispatch: a child's peak RSS starts from its parent's at exec.  Why
each workload exists, and which layer metric it predicts will not move, is
stated in BENCHMARK.json.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path

YEAR_HOURS = 8760
DROUGHT_HOURS = 72
DATASET = {"demand_csv": "demand.csv", "wind_cf_csv": "wind_cf.csv", "pv_cf_csv": "pv_cf.csv"}

# Criterion 10's dataset: on it the exactly sized pv-only mix fails by 102 %.
CRITERION_10 = {"synthetic_hours": 120, "seed": 3, "initial_soc_fraction": 0.5}

# year-low-storage search space: 5 x 2 x 2 x 3 = 60 coarse candidates per
# cost book, and two books (base, then cheap storage) over the same grid.
# Refinement tolerances leave only the PV axis active, at steps of 15 and
# 7.5 GW.  That keeps refinement to a few evaluations (4 a pass on seeds
# 401-410), so the work, and with it the pass time, hardly moves by seed.
YEAR_SPACE = {
    "wind_gw_max": 40,
    "wind_gw_step": 10,
    "pv_gw_max": 30,
    "pv_gw_step": 30,
    "battery_power_gw_max": 10,
    "battery_power_gw_step": 10,
    "battery_hours_ladder": "0,8,24",
    "refine_tolerance_gw": 5.1,
    "refine_tolerance_hours": 8.1,
}

# Oversized PV + battery that serves every drought year and fails near 120 %.
OVERSIZED_PV_MIX = {"pv_gw": 60, "battery_power_gw": 32, "battery_hours": 120}

SEARCH = "search"  # writes trajectory.csv and a best-mix report
RIGIDITY = "rigidity"  # writes the demand-change table
SIMULATE = "simulate"


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``name`` is also its output directory."""

    name: str
    args: tuple[str, ...]
    config: str
    kind: str


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    setup_config: str  # whose dataset load set-up time measures
    criterion_10: bool  # also run criterion 10's pv-only rigidity check
    drought_year: bool  # its CSVs are write_year_csvs(seed, inputs)


def write_config(path: Path, base: str = "", **keys) -> None:
    lines = [base.rstrip("\n")] if base else []
    lines += [f"{key}: {value}" for key, value in keys.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def drought_year(seed: int):
    """A synthetic year whose 72 h resource drought ends past the demand peak."""
    import numpy as np
    from firmdispatch.profiles import synthesize_dataset

    peak = int(np.argmax(synthesize_dataset(seed, YEAR_HOURS).demand.values))
    start = min(max(peak - 60, 0), YEAR_HOURS - DROUGHT_HOURS)
    return synthesize_dataset(seed, YEAR_HOURS, droughts=((start, start + DROUGHT_HOURS),))


def write_year_csvs(seed: int, inputs: Path) -> None:
    from firmdispatch.profiles import dump_series

    data = drought_year(seed)
    for name, series in zip(DATASET.values(), (data.demand, data.wind_cf, data.pv_cf)):
        (inputs / name).write_text(dump_series(series), encoding="utf-8")


def _week_sweep(seed: int, root: Path, inputs: Path) -> Workload:
    for name in DATASET.values():
        shutil.copyfile(root / "fixtures" / name, inputs / name)
    base = (root / "fixtures" / "week.conf").read_text(encoding="utf-8")
    rng = random.Random(seed)
    write_config(inputs / "optimize.conf", base)
    write_config(inputs / "residual.conf", base, baseload_gw=round(rng.uniform(2.0, 5.0), 2))
    # initial charge 0 would start the week at night and pv-only would exit 3
    write_config(inputs / "rigidity.conf", base, initial_soc_fraction=0.5)
    write_config(
        inputs / "simulate.conf",
        base,
        wind_gw=round(rng.uniform(10.0, 30.0), 2),
        pv_gw=round(rng.uniform(5.0, 20.0), 2),
        battery_power_gw=round(rng.uniform(2.0, 10.0), 2),
        battery_hours=round(rng.uniform(1.0, 8.0), 2),
        dispatch_gw=12.0,
    )
    return Workload(
        name="week-sweep",
        commands=(
            Command("optimize", ("optimize", "--trace"), "optimize.conf", SEARCH),
            Command(
                "residual", ("scenario", "residual-baseload", "--trace"), "residual.conf", SEARCH
            ),
            Command("rigidity", ("scenario", "rigidity", "--trace"), "rigidity.conf", RIGIDITY),
            Command("simulate", ("simulate", "--trace"), "simulate.conf", SIMULATE),
        ),
        setup_config="optimize.conf",
        criterion_10=True,
        drought_year=False,
    )


def _year_low_storage(seed: int, root: Path, inputs: Path) -> Workload:
    write_config(inputs / "low-storage.conf", **DATASET, **YEAR_SPACE)
    return Workload(
        name="year-low-storage",
        commands=(Command("low-storage", ("scenario", "low-storage"), "low-storage.conf", SEARCH),),
        setup_config="low-storage.conf",
        criterion_10=False,
        drought_year=True,
    )


def _year_pv_rigidity(seed: int, root: Path, inputs: Path) -> Workload:
    write_config(inputs / "rigidity.conf", **DATASET, initial_soc_fraction=0.5)
    write_config(inputs / "fixed.conf", **DATASET, initial_soc_fraction=0.5, **OVERSIZED_PV_MIX)
    return Workload(
        name="year-pv-rigidity",
        commands=(
            Command("pv-only", ("scenario", "rigidity", "--trace"), "rigidity.conf", RIGIDITY),
            Command("fixed", ("scenario", "rigidity"), "fixed.conf", RIGIDITY),
        ),
        setup_config="rigidity.conf",
        criterion_10=True,
        drought_year=True,
    )


WORKLOADS = {
    "week-sweep": _week_sweep,
    "year-low-storage": _year_low_storage,
    "year-pv-rigidity": _year_pv_rigidity,
}


def prepare(name: str, seed: int, root: Path, inputs: Path) -> Workload:
    """Write the workload's configurations for ``seed`` into ``inputs`` and
    describe its commands; drought-year CSVs are left to ``write_year_csvs``."""
    inputs.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, root, inputs)
