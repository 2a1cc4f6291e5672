"""Run a fixed table of CLI cases against one source tree.

Two source trees give the same outputs when the directories this tool
writes for them are equal.  From the repository root:

    python3 tools/cli_cases.py --src ../parent/src /tmp/cases-parent
    python3 tools/cli_cases.py --src src /tmp/cases-change
    diff -r /tmp/cases-parent /tmp/cases-change

``--check`` runs the table for ``src/`` into a temporary directory and
compares every stored file with its SHA-256 in ``tools/cli_cases.sha256``.
It names each file whose digest differs, is missing or is extra, and exits
1 if there is one.  The digests hold for the numpy version and machine
named in that file's header; a mismatch prints the live ones.  A change
that moves bytes on purpose rewrites the file with ``--update``:

    python3 tools/cli_cases.py --check
    python3 tools/cli_cases.py --update

Each case runs ``firmdispatch.cli.main`` in a fresh interpreter with
``PYTHONPATH=SRC_DIR`` and ``--out OUT_DIR/<case>``.  Beside the files the
run writes, the tool stores its ``stdout``, ``stderr`` and ``exit_code``.
The inputs are written under ``OUT_DIR/inputs`` from this checkout's
``fixtures/``, and ``OUT_DIR`` is replaced by ``<OUT>`` in stdout, stderr
and ``run_manifest``, so only the source tree can make two runs differ.

In every mode, each case that exits 0 is run again from its own
``run_manifest`` into a sibling directory, which is compared and removed.
The tool names each case whose re-run does not exit 0 or writes a file
that differs, the ``output_dir`` line of the manifest aside, and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tools" / "cli_cases.sha256"
DIGEST_PLATFORM = "numpy 2.4.6 on x86-64"
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

# Every storage-model, cost-book and tolerance key off its default.
ALL_SETTINGS = {
    "round_trip_efficiency": 0.9,
    "initial_soc_fraction": 0.3,
    "battery_charges_from_dispatch": "true",
    "capex_wind_usd_per_kw": 1100,
    "capex_pv_usd_per_kw": 900,
    "capex_dispatch_usd_per_kw": 700,
    "capex_battery_usd_per_kwh": 150,
    "interest_rate": 0.06,
    "life_wind_years": 25,
    "life_pv_years": 25,
    "life_dispatch_years": 35,
    "life_battery_years": 12,
    "fixed_om_wind_usd_per_kw_yr": 30,
    "fixed_om_pv_usd_per_kw_yr": 15,
    "fixed_om_dispatch_usd_per_kw_yr": 10,
    "fixed_om_battery_usd_per_kw_yr": 5,
    "fuel_price_usd_per_gj": 12,
    "heat_rate_gj_per_mwh": 9,
    "refine_tolerance_gw": 2.5,
    "refine_tolerance_hours": 1.5,
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
# A small grid on the default battery hours ladder, 0 to 48 hours, with
# storage cheap enough that refinement walks the battery.
LADDER_SPACE = {
    "wind_gw_max": 40,
    "wind_gw_step": 20,
    "pv_gw_max": 30,
    "pv_gw_step": 15,
    "battery_power_gw_max": 10,
    "battery_power_gw_step": 5,
    "capex_battery_usd_per_kwh": 10,
    "refine_tolerance_gw": 2.5,
    "refine_tolerance_hours": 2.0,
}
# An oversized PV + battery mix that serves the drought year.
OVERSIZED_PV_MIX = {"pv_gw": 60, "battery_power_gw": 32, "battery_hours": 120}
# Each fixture series by the week.conf key that names it.  The inputs also
# hold each one as shaped-<name>, in the other shapes load_series reads.
SERIES_KEYS = dict(zip(("demand_csv", "wind_cf_csv", "pv_cf_csv"), DATASET))


def shaped(series: str) -> str:
    """A value-only series with a BOM, CRLF endings, a ``timestamp``
    column, quoted cells and a blank line after its first row."""
    rows = [f'{hour},"{value}"' for hour, value in enumerate(series.splitlines()[1:])]
    return "\ufeff" + "\r\n".join(["timestamp,value", rows[0], "", *rows[1:]]) + "\r\n"


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
    # firm backup at 30 GW: the bisection reaches twice the demand unfailed
    table["week-rigidity-firm"] = (
        _config(week_conf, **FIXED_MIX, dispatch_gw=30),
        ["scenario", "rigidity", "--trace"],
    )
    # a step too small to move 1.0: a configuration error
    table["week-rigidity-tiny-step"] = (
        _config(week_conf, rigidity_step="1e-320"),
        ["scenario", "rigidity", "--trace"],
    )
    table["week-all-settings"] = (_config(week_conf, **ALL_SETTINGS), ["optimize", "--trace"])
    # the same series read row by row: the same outputs as week-optimize
    table["week-shaped-csv-optimize"] = (
        _config(week_conf, **{key: f"shaped-{name}" for key, name in SERIES_KEYS.items()}),
        ["optimize", "--trace"],
    )
    table["week-bad-setting"] = (
        _config(week_conf, round_trip_efficiency=2),
        ["optimize", "--trace"],
    )
    # a zero refinement tolerance: a configuration error at parse time
    table["week-bad-tolerance"] = (
        _config(week_conf, refine_tolerance_hours=0),
        ["optimize", "--trace"],
    )
    # search bounds that no search could use: a configuration error, though
    # simulate runs no search
    table["week-bad-bounds"] = (
        _config(
            week_conf, **FIXED_MIX, wind_gw_max=-5, pv_gw_step=0, battery_hours_ladder="8,2"
        ),
        ["simulate", "--trace"],
    )
    # a subnormal step asks for an infinite grid: a configuration error
    table["week-subnormal-step"] = (_config(week_conf, wind_gw_step="1e-320"), ["optimize"])
    # a rate too small to move 1.0, and a life whose growth factor
    # overflows: configuration errors, not a crash in the cost book
    table["week-tiny-interest"] = (_config(week_conf, interest_rate="1e-320"), ["optimize"])
    table["week-long-life"] = (_config(week_conf, life_wind_years=10000), ["optimize"])
    table["week-fuel-collision"] = (
        _config(week_conf, fuel_prices_usd_per_gj="10,10.0000001"),
        ["scenario", "fuel-sensitivity", "--trace"],
    )
    # a fuel cost per MWh that overflows at the default heat rate: a
    # configuration error, not a nan cost for every mix that burns no fuel
    table["week-fuel-overflow"] = (
        _config(week_conf, fuel_prices_usd_per_gj="20,1e308"),
        ["scenario", "fuel-sensitivity", "--trace"],
    )
    # a baseload plant off the default availability: the search carries both
    table["week-residual-eaf"] = (
        _config(week_conf, baseload_gw=3, baseload_eaf=0.9),
        ["scenario", "residual-baseload", "--trace"],
    )
    # a set min above the max scaled from peak demand: a configuration
    # error, though simulate runs no search
    table["synth-min-above-scaled-max"] = (
        _config("", synthetic_hours=48, pv_gw_min=100, wind_gw=30),
        ["simulate"],
    )
    # one hour past the bound: a configuration error before any allocation
    table["synth-too-many-hours"] = (
        _config("", synthetic_hours=1_000_001, wind_gw=30),
        ["simulate"],
    )
    # a form feed ends no line, so synthetic_hours reads "48\fseed: 5": a
    # configuration error on line 1
    table["synth-form-feed"] = ("synthetic_hours: 48\x0cseed: 5\nwind_gw: 30\n", ["simulate"])
    # a reversed drought window: a configuration error before the dataset is built
    table["synth-reversed-drought"] = (
        _config("", synthetic_hours=48, synthetic_droughts="30-10", wind_gw=30),
        ["simulate"],
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
    # the default hours ladder over a small grid, refined: many batteries of
    # one wind, PV and power never fill, so their sizings share one pass
    for prefix, flag in (("year", "false"), ("year-flag", "true")):
        table[f"{prefix}-ladder-optimize"] = (
            _config("", **YEAR, **LADDER_SPACE, battery_charges_from_dispatch=flag),
            ["optimize", "--trace"],
        )
    # half-charged storage carries the first night: pv-only doubles PV,
    # bisects it, then bisects battery energy below a re-probed tight bound
    table["year-pv-only"] = (
        _config("", **YEAR, initial_soc_fraction=0.5),
        ["scenario", "pv-only", "--trace"],
    )
    table["year-rigidity"] = (
        _config("", **YEAR, initial_soc_fraction=0.5),
        ["scenario", "rigidity", "--trace"],
    )
    # the benchmark's oversized PV mix: its year passes clamp mid-year
    table["year-rigidity-fixed"] = (
        _config("", **YEAR, initial_soc_fraction=0.5, **OVERSIZED_PV_MIX),
        ["scenario", "rigidity", "--trace"],
    )
    # a fine step: about a hundred multipliers below the failure point
    table["year-rigidity-fixed-fine"] = (
        _config("", **YEAR, initial_soc_fraction=0.5, **OVERSIZED_PV_MIX, rigidity_step=0.002),
        ["scenario", "rigidity", "--trace"],
    )
    # with the flag on, failure need not be monotone in demand
    table["year-flag-rigidity-fixed"] = (
        _config(
            "",
            **YEAR,
            initial_soc_fraction=0.5,
            **OVERSIZED_PV_MIX,
            battery_charges_from_dispatch="true",
        ),
        ["scenario", "rigidity", "--trace"],
    )
    return table


def _run_cli(src: Path, args: list[str], conf_path: Path, out: Path):
    return subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from firmdispatch.cli import main; sys.exit(main(sys.argv[1:]))",
            *args,
            "--config",
            str(conf_path),
            "--out",
            str(out),
        ],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )


def _comparable(path: Path | None) -> bytes | None:
    """A written file's bytes, a manifest's ``output_dir`` line aside."""
    if path is None:
        return None
    data = path.read_bytes()
    if path.name == "run_manifest":
        lines = data.splitlines(keepends=True)
        data = b"".join(line for line in lines if not line.startswith(b"output_dir:"))
    return data


def rerun_problems(src: Path, case_dir: Path, args: list[str]) -> list[str]:
    """Run a case again from its ``run_manifest``; what differs from the first run."""
    rerun_dir = case_dir.with_name(case_dir.name + ".rerun")
    proc = _run_cli(src, args, case_dir / "run_manifest", rerun_dir)
    first = {path.name: path for path in case_dir.iterdir()}
    again = {path.name: path for path in rerun_dir.iterdir()} if rerun_dir.exists() else {}
    problems = [f"exit {proc.returncode}"] if proc.returncode else []
    problems += [
        f"{name} differs"
        for name in sorted(first.keys() | again.keys())
        if _comparable(first.get(name)) != _comparable(again.get(name))
    ]
    shutil.rmtree(rerun_dir, ignore_errors=True)
    return problems


def run_case(
    src: Path, out_dir: Path, name: str, conf: str, args: list[str]
) -> tuple[int, list[str]]:
    """Run one case; its exit code and, after exit 0, its re-run's problems."""
    conf_path = out_dir / "inputs" / f"{name}.conf"
    conf_path.write_text(conf, encoding="utf-8")
    case_dir = out_dir / name
    case_dir.mkdir()
    proc = _run_cli(src, args, conf_path, case_dir)
    problems = rerun_problems(src, case_dir, args) if proc.returncode == 0 else []
    texts = {"stdout": proc.stdout, "stderr": proc.stderr, "exit_code": f"{proc.returncode}\n"}
    manifest = case_dir / "run_manifest"
    if manifest.exists():
        texts["run_manifest"] = manifest.read_text(encoding="utf-8")
    for file_name, text in texts.items():
        (case_dir / file_name).write_text(text.replace(str(out_dir), MASK), encoding="utf-8")
    return proc.returncode, problems


def run_table(src: Path, out_dir: Path) -> list[str]:
    """Run every case into ``out_dir``; the cases whose re-run from their
    manifest differs."""
    (out_dir / "inputs").mkdir(parents=True, exist_ok=True)
    for name in DATASET:
        shutil.copyfile(ROOT / "fixtures" / name, out_dir / "inputs" / name)
        series = (ROOT / "fixtures" / name).read_text(encoding="utf-8")
        (out_dir / "inputs" / f"shaped-{name}").write_bytes(shaped(series).encode("utf-8"))
    week_conf = (ROOT / "fixtures" / "week.conf").read_text(encoding="utf-8")
    failed = []
    for name, (conf, case_args) in cases(week_conf).items():
        code, problems = run_case(src, out_dir, name, conf, case_args)
        print(f"{name}: exit {code}" + "".join(f"; re-run: {p}" for p in problems))
        if problems:
            failed.append(name)
    return failed


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file under ``out_dir``, by POSIX path relative to it."""
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


def write_digests(found: dict[str, str]) -> None:
    lines = [f"# tools/cli_cases.py outputs and inputs, for {DIGEST_PLATFORM}\n"]
    lines += [f"{digest}  {name}\n" for name, digest in found.items()]
    DIGESTS.write_text("".join(lines), encoding="utf-8")


def check_digests(found: dict[str, str]) -> int:
    """Print each file whose digest differs, is missing or is extra; 0 if none."""
    expected = {}
    for line in DIGESTS.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            digest, name = line.split("  ", 1)
            expected[name] = digest
    problems = [f"differs: {n}" for n in expected if n in found and found[n] != expected[n]]
    problems += [f"missing: {n}" for n in expected if n not in found]
    problems += [f"extra: {n}" for n in found if n not in expected]
    if not problems:
        print(f"all {len(found)} files match {DIGESTS.name}")
        return 0
    import numpy

    print("\n".join(problems))
    print(
        f"{len(problems)} of {len(expected)} digests fail; they hold for {DIGEST_PLATFORM}, "
        f"this run used numpy {numpy.__version__} on {platform.machine()}"
    )
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", default=str(ROOT / "src"), help="source directory that holds firmdispatch/"
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help=f"compare with {DIGESTS.name}")
    mode.add_argument("--update", action="store_true", help=f"rewrite {DIGESTS.name}")
    parser.add_argument("out_dir", nargs="?", help="new or empty directory for the case outputs")
    args = parser.parse_args(argv)
    if args.out_dir is None and not (args.check or args.update):
        parser.error("out_dir is required without --check or --update")
    src = Path(args.src).resolve()
    if not (src / "firmdispatch" / "cli.py").is_file():
        parser.error(f"{src} holds no firmdispatch package")
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(args.out_dir or tmp).resolve()
        if out_dir.exists() and any(out_dir.iterdir()):
            parser.error(f"{out_dir} is not empty")
        failed = run_table(src, out_dir)
        if args.update and not failed:
            write_digests(digests(out_dir))
        code = check_digests(digests(out_dir)) if args.check else 0
    if failed:
        print(f"{len(failed)} cases do not re-run from run_manifest: {', '.join(failed)}")
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
