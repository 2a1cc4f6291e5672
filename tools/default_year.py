"""Time one search of the default space on the seed-1 drought year.

The run is ``optimize`` in process on ``perfbench/workloads.drought_year(1)``
with every search bound unset, so the bounds scale from peak demand as the
CLI scales them, under the default storage parameters and cost book.  It
prints one JSON line: the search's wall time in seconds (``wall_s``), the
points searched, every balance pass, the passes that step a battery, and
the ``repr`` of the winning mix.  From the repository root:

    python3 tools/default_year.py
    python3 tools/default_year.py --src ../parent/src
    python3 tools/default_year.py --check

``--check`` exits 1 unless the points, the passes and the winner are the
pinned ones below, so a sizing change that costs passes on the full
default space shows.  The winner's bits are pinned for numpy 2.4.6 on
x86-64, as the CLI digests are.  The wall time is never checked: it is one run on a
machine whose speed may swing, not a benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1

PINNED = {
    "points": 93_770,
    "passes": 57_193,
    "winner": (
        "CapacityMix(wind_gw=31.327538374952066, pv_gw=4.108529622944533, "
        "battery_power_gw=4.279718357233889, battery_hours=2.0, "
        "dispatch_gw=13.695098743148444, baseload_gw=0.0, baseload_eaf=0.7)"
    ),
}


def run() -> dict:
    """Search the default space once, counting balance passes as it goes."""
    from firmdispatch import _kernels
    from firmdispatch.config import RunConfig, resolve_space, search_space
    from firmdispatch.optimizer import optimize
    from firmdispatch.profiles import demand_stats
    from perfbench.workloads import drought_year

    data = drought_year(SEED)
    # validate wants a dataset key; the search reads only the scaled bounds
    unset = RunConfig(synthetic_hours=len(data.demand.values))
    config = resolve_space(unset, demand_stats(data.demand).peak_gw)
    space = search_space(config)
    stepped = []
    loop = _kernels.balance_loop

    def counting(*args):
        power, cap, soc0 = args[7], float(args[8]), float(args[10])
        stepped.append(not _kernels._battery_is_idle(power, cap, soc0))
        return loop(*args)

    _kernels.balance_loop = counting
    try:
        start = time.perf_counter()
        result = optimize(space, data, config.params, config.book)
        wall_s = time.perf_counter() - start
    finally:
        _kernels.balance_loop = loop
    return {
        "wall_s": round(wall_s, 3),
        "points": result.evaluations,
        "passes": len(stepped),
        "stepped_passes": sum(stepped),
        "winner": repr(result.best.mix),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", default=str(ROOT / "src"), help="source directory that holds firmdispatch/"
    )
    parser.add_argument("--check", action="store_true", help="compare with the pinned run")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "firmdispatch" / "optimizer.py").is_file():
        parser.error(f"{src} holds no firmdispatch package")
    sys.path[:0] = [str(src), str(ROOT)]
    stats = run()
    print(json.dumps(stats))
    if not args.check:
        return 0
    moved = [key for key, value in PINNED.items() if stats[key] != value]
    for key in moved:
        print(f"{key}: {stats[key]!r}, pinned {PINNED[key]!r}")
    return 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
