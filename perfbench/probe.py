"""Probes that need firmdispatch, each run in a fresh interpreter.

    python3 perfbench/probe.py setup CONFIG
        Time ``import firmdispatch`` plus loading the configuration's dataset
        through ``parse_config``, ``load_series`` (three times) and ``align``.
        Prints the seconds.

    python3 perfbench/probe.py kernel SEED REPEATS
        Time one ``simulate`` of a fixed mix over a synthetic 8760-step year,
        best of REPEATS after one warm-up pass.  Prints nanoseconds per step.
        This is the figure ``benchmarks/kernel_benchmark.py`` gives for the
        active backend, taken through the public entry point.

    python3 perfbench/probe.py year SEED DIR
        Write the seed's drought-year CSVs into DIR.

    python3 perfbench/probe.py env
        Print the live kernel backend, whether numba is importable, and the
        Python and numpy versions, as JSON.
"""

from __future__ import annotations

import importlib.util
import json
import platform
import sys
import time
from pathlib import Path

import workloads


def setup(config_path: str) -> float:
    start = time.perf_counter()
    from firmdispatch.config import parse_config
    from firmdispatch.profiles import KIND_CAPACITY_FACTOR, KIND_DEMAND, align, load_series

    path = Path(config_path)
    config = parse_config(path.read_text(encoding="utf-8"), base_dir=path.parent.resolve())
    align(
        load_series(config.demand_csv, KIND_DEMAND, config.dt_hours),
        load_series(config.wind_cf_csv, KIND_CAPACITY_FACTOR, config.dt_hours),
        load_series(config.pv_cf_csv, KIND_CAPACITY_FACTOR, config.dt_hours),
    )
    return time.perf_counter() - start


def kernel_ns_per_step(seed: int, repeats: int) -> float:
    from firmdispatch.dispatch import CapacityMix, SimParams, simulate
    from firmdispatch.profiles import synthesize_dataset

    data = synthesize_dataset(seed, 8760)
    mix = CapacityMix(
        wind_gw=20.0, pv_gw=15.0, battery_power_gw=6.0, battery_hours=4.0, dispatch_gw=12.0
    )
    params = SimParams()
    simulate(mix, data, params)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        simulate(mix, data, params)
        best = min(best, time.perf_counter() - start)
    return best * 1e9 / data.n_steps


def environment() -> dict:
    import numpy
    from firmdispatch import _kernels

    return {
        "backend": getattr(_kernels, "active_backend", lambda: "unknown")(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        print(repr(setup(argv[1])))
    elif argv[:1] == ["kernel"] and len(argv) == 3:
        print(repr(kernel_ns_per_step(int(argv[1]), int(argv[2]))))
    elif argv[:1] == ["year"] and len(argv) == 3:
        workloads.write_year_csvs(int(argv[1]), Path(argv[2]))
    elif argv == ["env"]:
        print(json.dumps(environment()))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
