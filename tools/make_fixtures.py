"""Regenerate the committed files under fixtures/.

The fixture week is synthetic but frozen: tests and the README examples
rely on the exact bytes, so regeneration must stay deterministic.  Run
from the repository root:

    python3 tools/make_fixtures.py
"""

from __future__ import annotations

import argparse
from pathlib import Path

from firmdispatch.profiles import dump_series, synthesize_dataset

FIXTURE_SEED = 7
FIXTURE_HOURS = 168

WEEK_CONF = """\
# one synthetic week frozen as CSV, small search space sized to its peak
demand_csv: demand.csv
wind_cf_csv: wind_cf.csv
pv_cf_csv: pv_cf.csv

wind_gw_max: 40
wind_gw_step: 10
pv_gw_max: 28
pv_gw_step: 7
battery_power_gw_max: 20
battery_power_gw_step: 10
battery_hours_ladder: 0,2,8
"""


def write_fixtures(out_dir: Path) -> list[Path]:
    data = synthesize_dataset(seed=FIXTURE_SEED, total_hours=FIXTURE_HOURS)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, series in (
        ("demand.csv", data.demand),
        ("wind_cf.csv", data.wind_cf),
        ("pv_cf.csv", data.pv_cf),
    ):
        path = out_dir / name
        path.write_text(dump_series(series), encoding="utf-8")
        written.append(path)
    conf = out_dir / "week.conf"
    conf.write_text(WEEK_CONF, encoding="utf-8")
    written.append(conf)
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "fixtures"),
        help="directory to write fixtures into (default: repo fixtures/)",
    )
    args = parser.parse_args(argv)
    for path in write_fixtures(Path(args.out)):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
