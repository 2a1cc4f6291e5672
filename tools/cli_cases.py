"""Run a fixed table of CLI cases against one source tree.

Two source trees give the same outputs when the directories this tool
writes for them are equal.  From the repository root:

    python3 tools/cli_cases.py --src ../parent/src /tmp/cases-parent
    python3 tools/cli_cases.py --src src /tmp/cases-change
    diff -r /tmp/cases-parent /tmp/cases-change

Each case runs ``firmdispatch.cli.main`` in a fresh interpreter with
``PYTHONPATH=SRC_DIR`` and ``--out OUT_DIR/<case>``.  Beside the files the
run writes, the tool stores its ``stdout``, ``stderr`` and ``exit_code``.
The inputs are written under ``OUT_DIR/inputs`` from this checkout's
``fixtures/``, and ``OUT_DIR`` is replaced by ``<OUT>`` in stdout, stderr
and ``run_manifest``, so only the source tree can make two runs differ.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATASET = ("demand.csv", "wind_cf.csv", "pv_cf.csv")
MASK = "<OUT>"

# A week mix that serves the fixture in every group below.  Rigidity sizes
# a firm gap for it, except beside 3 GW of baseload, where demand at twice
# its level is still served and the run exits 2.
FIXED_MIX = {"wind_gw": 40, "pv_gw": 28, "battery_power_gw": 20, "battery_hours": 8}

# Settings added to fixtures/week.conf, one group of week cases each.
# Beside baseload, base, low-storage and fuel-sensitivity exit 2 before any
# search, so week-flag-soc runs the flag's searches without it.
WEEK_GROUPS = {
    "week": {},
    "week-flag": {
        "battery_charges_from_dispatch": "true",
        "initial_soc_fraction": 0.4,
        "baseload_gw": 3,
    },
    "week-flag-soc": {"battery_charges_from_dispatch": "true", "initial_soc_fraction": 0.4},
    "week-neg0": {"battery_hours_ladder": "-0.0,2,8"},
}

SCENARIOS = ("base", "low-storage", "pv-only", "rigidity", "residual-baseload", "fuel-sensitivity")

# A synthetic year whose 72 h drought ends past the seed-1 demand peak, and
# the search space of the benchmark's year-low-storage workload.
YEAR = {"synthetic_hours": 8760, "synthetic_droughts": "139-211", "seed": 1}
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


def _config(base: str, **keys) -> str:
    """``base`` with ``keys`` set, replacing any line that already sets one."""
    kept = [line for line in base.splitlines() if line.partition(":")[0].strip() not in keys]
    return "".join(f"{line}\n" for line in kept + [f"{k}: {v}" for k, v in keys.items()])


def cases(week_conf: str) -> dict[str, tuple[str, list[str]]]:
    """Each case's configuration text and CLI arguments, by case name."""
    table = {}
    for group, extra in WEEK_GROUPS.items():
        conf = _config(week_conf, **extra)
        table[f"{group}-optimize"] = (conf, ["optimize", "--trace"])
        for name in SCENARIOS:
            table[f"{group}-{name}"] = (conf, ["scenario", name, "--trace"])
        fixed = _config(conf, **FIXED_MIX)
        table[f"{group}-simulate-fixed"] = (fixed, ["simulate", "--trace"])
        table[f"{group}-rigidity-fixed"] = (fixed, ["scenario", "rigidity", "--trace"])
    table["week-fuel-collision"] = (
        _config(week_conf, fuel_prices_usd_per_gj="10,10.0000001"),
        ["scenario", "fuel-sensitivity", "--trace"],
    )
    table["year-low-storage"] = (
        _config("", **YEAR, **YEAR_SPACE),
        ["scenario", "low-storage", "--trace"],
    )
    for prefix, flag in (("year", "false"), ("year-flag", "true")):
        table[f"{prefix}-fuel-sensitivity"] = (
            _config("", **YEAR, **YEAR_SPACE, battery_charges_from_dispatch=flag),
            ["scenario", "fuel-sensitivity", "--trace"],
        )
    table["year-rigidity"] = (
        _config("", **YEAR, initial_soc_fraction=0.5),
        ["scenario", "rigidity", "--trace"],
    )
    return table


def run_case(src: Path, out_dir: Path, name: str, conf: str, args: list[str]) -> int:
    conf_path = out_dir / "inputs" / f"{name}.conf"
    conf_path.write_text(conf, encoding="utf-8")
    case_dir = out_dir / name
    case_dir.mkdir()
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from firmdispatch.cli import main; sys.exit(main(sys.argv[1:]))",
            *args,
            "--config",
            str(conf_path),
            "--out",
            str(case_dir),
        ],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    texts = {"stdout": proc.stdout, "stderr": proc.stderr, "exit_code": f"{proc.returncode}\n"}
    manifest = case_dir / "run_manifest"
    if manifest.exists():
        texts["run_manifest"] = manifest.read_text(encoding="utf-8")
    for file_name, text in texts.items():
        (case_dir / file_name).write_text(text.replace(str(out_dir), MASK), encoding="utf-8")
    return proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="source directory that holds firmdispatch/")
    parser.add_argument("out_dir", help="new or empty directory for the case outputs")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    out_dir = Path(args.out_dir).resolve()
    if not (src / "firmdispatch" / "cli.py").is_file():
        parser.error(f"{src} holds no firmdispatch package")
    if out_dir.exists() and any(out_dir.iterdir()):
        parser.error(f"{out_dir} is not empty")

    (out_dir / "inputs").mkdir(parents=True, exist_ok=True)
    for name in DATASET:
        shutil.copyfile(ROOT / "fixtures" / name, out_dir / "inputs" / name)
    week_conf = (ROOT / "fixtures" / "week.conf").read_text(encoding="utf-8")
    for name, (conf, case_args) in cases(week_conf).items():
        code = run_case(src, out_dir, name, conf, case_args)
        print(f"{name}: exit {code}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
