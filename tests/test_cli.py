"""Configuration parsing, manifests, and the command line entry point."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firmdispatch import (
    KIND_CAPACITY_FACTOR,
    KIND_DEMAND,
    CapacityMix,
    CostBook,
    SimParams,
    TimeSeries,
    _kernels,
    align,
    load_series,
    simulate,
)
from firmdispatch import cli
from firmdispatch.cli import main
from firmdispatch.config import ConfigError, RunConfig, parse_config, render_manifest
from firmdispatch.dispatch import write_trace_csv
from firmdispatch.profiles import dump_series, synthesize_dataset
from firmdispatch.scenarios import SCENARIO_NAMES

from conftest import FIXTURES

SMALL_SYNTH = """\
synthetic_hours: 48
seed: 5
wind_gw_max: 30
wind_gw_step: 10
pv_gw_max: 20
pv_gw_step: 10
battery_power_gw_max: 10
battery_power_gw_step: 5
battery_hours_ladder: 0,2,8
"""


# ===================== parsing =====================


def test_parse_config_types_and_comments():
    config = parse_config(
        """
        # a comment
        synthetic_hours: 72

        seed: 9
        round_trip_efficiency: 0.9
        battery_charges_from_dispatch: yes
        battery_hours_ladder: 0, 2, 8
        synthetic_droughts: 10-20; 30-40
        fuel_prices_usd_per_gj: 20,10,5
        output_dir: runs/a
        """
    )
    assert config.synthetic_hours == 72
    assert config.seed == 9
    assert config.params.round_trip_efficiency == 0.9
    assert config.params.battery_charges_from_dispatch is True
    assert config.battery_hours_ladder == (0.0, 2.0, 8.0)
    assert config.synthetic_droughts == ((10, 20), (30, 40))
    assert config.fuel_prices_usd_per_gj == (20.0, 10.0, 5.0)
    assert config.output_dir == "runs/a"
    # untouched keys keep their defaults
    assert config.book.capex_wind_usd_per_kw == 1200.0
    assert config.rigidity_step == 0.01


@pytest.mark.parametrize(
    ("text", "match"),
    [
        ("synthetic_hours: 48\nnot_a_key: 3\n", r"line 2: unknown key 'not_a_key'"),
        ("seed: 1\nseed: 2\nsynthetic_hours: 48\n", r"line 2: repeated key 'seed'"),
        ("synthetic_hours 48\n", r"line 1: expected 'key: value'"),
        ("synthetic_hours:\n", r"line 1: key 'synthetic_hours' has no value"),
        ("synthetic_hours: soon\n", r"line 1: bad value for 'synthetic_hours'"),
        ("synthetic_hours: 48\nbattery_charges_from_dispatch: maybe\n", r"line 2: bad value"),
        ("synthetic_hours: 48\nsynthetic_droughts: 10\n", r"start-end"),
        ("synthetic_hours: 48\nbattery_hours_ladder: ,\n", r"comma separated"),
        # lines end at LF, CRLF and CR alone; a form feed stays inside its line
        ("seed: 1\r\nseed: 2\r\n", r"line 2: repeated key 'seed'"),
        ("seed: 1\rbogus\r", r"line 2: expected 'key: value', got 'bogus'"),
        ("# a\x0cb\nbogus\n", r"line 2: expected 'key: value', got 'bogus'"),
        ("synthetic_hours: 48\x0cseed: 5\nbogus\n", r"line 1: bad value for 'synthetic_hours'"),
    ],
)
def test_parse_config_syntax_errors(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


def test_parse_config_dataset_rules():
    with pytest.raises(ConfigError, match="not both"):
        parse_config("synthetic_hours: 48\ndemand_csv: d.csv\n")
    with pytest.raises(ConfigError, match="missing mandatory dataset key 'pv_cf_csv'"):
        parse_config("demand_csv: d.csv\nwind_cf_csv: w.csv\n")
    with pytest.raises(ConfigError, match="missing mandatory dataset key 'demand_csv'"):
        parse_config("seed: 1\n")
    with pytest.raises(ConfigError, match="synthetic_droughts applies only to synthetic datasets"):
        parse_config("demand_csv: d\nwind_cf_csv: w\npv_cf_csv: p\nsynthetic_droughts: 10-20\n")


@pytest.mark.parametrize(
    ("line", "match"),
    [
        ("dt_hours: 0.25", "dt_hours"),
        ("synthetic_hours: 12", "at least 24"),
        ("synthetic_hours: 1000001", "at most 1000000"),
        ("seed: -1", "nonnegative"),
        ("rigidity_step: 0", "rigidity_step"),
        ("rigidity_step: 1.5", "rigidity_step"),
        ("rigidity_step: 1e-320", "rigidity_step"),
        ("rigidity_step: 1e-17", "rigidity_step"),
        ("dispatch_gw: -2", "dispatch_gw"),
        ("baseload_gw: -1", "baseload_gw"),
        ("baseload_gw: inf", "baseload_gw"),
        ("baseload_eaf: 7", "baseload_eaf"),
        ("baseload_eaf: -0.1", "baseload_eaf"),
        ("battery_price_usd_per_kwh: -5", "battery_price_usd_per_kwh"),
        ("battery_price_usd_per_kwh: nan", "battery_price_usd_per_kwh"),
        ("fuel_prices_usd_per_gj: 20,0", "fuel_prices_usd_per_gj"),
        ("fuel_prices_usd_per_gj: -3", "fuel_prices_usd_per_gj"),
        ("fuel_prices_usd_per_gj: 10,inf", "fuel_prices_usd_per_gj"),
        ("scenario: warp", "unknown scenario"),
        ("command: destroy", "unknown command"),
    ],
)
def test_parse_config_semantic_errors(line, match):
    base = "synthetic_hours: 48\n" if "synthetic_hours" not in line else ""
    with pytest.raises(ConfigError, match=match):
        parse_config(base + line + "\n")


def test_parse_config_synthetic_dataset_is_hourly():
    with pytest.raises(ConfigError, match="synthetic datasets are hourly, dt_hours must be 1.0"):
        parse_config("synthetic_hours: 48\ndt_hours: 0.5\n")
    config = parse_config("demand_csv: d.csv\nwind_cf_csv: w.csv\npv_cf_csv: p.csv\ndt_hours: 0.5\n")
    assert config.dt_hours == 0.5


def test_parse_config_resolves_relative_paths(tmp_path):
    config = parse_config(
        "demand_csv: d.csv\nwind_cf_csv: /abs/w.csv\npv_cf_csv: p.csv\noutput_dir: out\n",
        base_dir=tmp_path,
    )
    assert config.demand_csv == str(tmp_path / "d.csv")
    assert config.wind_cf_csv == "/abs/w.csv"
    assert config.pv_cf_csv == str(tmp_path / "p.csv")
    assert config.output_dir == str(tmp_path / "out")


def test_manifest_round_trip():
    config = parse_config(
        "synthetic_hours: 48\nseed: 3\nsynthetic_droughts: 5-10\n"
        "battery_charges_from_dispatch: true\nfuel_prices_usd_per_gj: 20,10\n"
        "wind_gw: 4.5\nbaseload_gw: 2\n"
    )
    config.command = "simulate"
    text = render_manifest(config)
    assert parse_config(text) == config
    # unset optionals stay out of the manifest
    assert "demand_csv" not in text
    assert "scenario" not in text
    assert "battery_charges_from_dispatch: true" in text


def test_manifest_renders_defaults_runnable():
    text = render_manifest(RunConfig(synthetic_hours=48))
    assert parse_config(text) == RunConfig(synthetic_hours=48)


_SETTINGS = (SimParams, CostBook)

# Every key off its default, the CSV paths apart: a dataset is CSV or synthetic.
_EVERY_KEY = """\
# resolved run configuration
dt_hours: 1.0
synthetic_hours: 72
synthetic_droughts: 10-20;30-40
seed: 9
round_trip_efficiency: 0.9
initial_soc_fraction: 0.3
battery_charges_from_dispatch: true
capex_wind_usd_per_kw: 1100.0
capex_pv_usd_per_kw: 900.0
capex_dispatch_usd_per_kw: 700.0
capex_battery_usd_per_kwh: 150.0
interest_rate: 0.06
life_wind_years: 25
life_pv_years: 26
life_dispatch_years: 35
life_battery_years: 12
fixed_om_wind_usd_per_kw_yr: 30.0
fixed_om_pv_usd_per_kw_yr: 15.0
fixed_om_dispatch_usd_per_kw_yr: 10.0
fixed_om_battery_usd_per_kw_yr: 5.0
fuel_price_usd_per_gj: 12.0
heat_rate_gj_per_mwh: 9.0
wind_gw_min: 1.0
wind_gw_max: 40.0
wind_gw_step: 10.0
pv_gw_min: 2.0
pv_gw_max: 28.0
pv_gw_step: 7.0
battery_power_gw_min: 3.0
battery_power_gw_max: 20.0
battery_power_gw_step: 5.0
battery_hours_ladder: -0.0,2.0,8.5
refine_tolerance_gw: 2.5
refine_tolerance_hours: 1.5
wind_gw: 4.5
pv_gw: 6.0
battery_power_gw: 2.0
battery_hours: 3.0
dispatch_gw: 7.0
baseload_gw: 1.5
baseload_eaf: 0.8
command: scenario
scenario: rigidity
battery_price_usd_per_kwh: 12.5
fuel_prices_usd_per_gj: 30.0,5.0
rigidity_step: 0.02
output_dir: /runs/a
"""
_EVERY_CSV_KEY = _EVERY_KEY.replace(
    "dt_hours: 1.0\nsynthetic_hours: 72\nsynthetic_droughts: 10-20;30-40\n",
    "demand_csv: /d.csv\nwind_cf_csv: /w.csv\npv_cf_csv: /p.csv\ndt_hours: 0.5\n",
)


def test_manifest_with_every_key_off_its_default_round_trips():
    for text in (_EVERY_KEY, _EVERY_CSV_KEY):
        config = parse_config(text)
        assert render_manifest(config) == text
        assert parse_config(render_manifest(config)) == config
    lines = set((_EVERY_KEY + _EVERY_CSV_KEY).splitlines())
    off_default = lines - set(render_manifest(RunConfig()).splitlines())
    own = {f.name for f in fields(RunConfig) if not is_dataclass(f.default)}
    settings = {f.name for cls in _SETTINGS for f in fields(cls)}
    assert {line.partition(":")[0] for line in off_default} == own | settings


def test_every_key_names_exactly_one_field():
    held = [type(f.default) for f in fields(RunConfig) if is_dataclass(f.default)]
    assert held == list(_SETTINGS)
    names = [f.name for f in fields(RunConfig)] + [f.name for cls in held for f in fields(cls)]
    assert len(names) == len(set(names))


@pytest.mark.parametrize(
    ("line", "message"),
    [
        ("round_trip_efficiency: 2", "round_trip_efficiency must be in (0, 1], got 2.0"),
        ("initial_soc_fraction: -0.5", "initial_soc_fraction must be in [0, 1], got -0.5"),
        ("interest_rate: 1", "interest_rate must be in (0, 1), got 1.0"),
        ("capex_pv_usd_per_kw: -1", "capex_pv_usd_per_kw must be finite and >= 0, got -1.0"),
        ("life_pv_years: 0", "life_pv_years must be a positive integer, got 0"),
        ("refine_tolerance_hours: 0", "refinement tolerances must be positive"),
    ],
)
def test_parse_config_settings_are_checked_by_their_class(line, message):
    with pytest.raises(ConfigError) as raised:
        parse_config("synthetic_hours: 48\n" + line + "\n")
    assert str(raised.value) == message


# ===================== command line =====================


def _write_conf(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_cli_simulate_synthetic(tmp_path, capsys):
    conf = _write_conf(tmp_path, SMALL_SYNTH + "wind_gw: 10\ndispatch_gw: 30\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(conf), "--out", str(out)]) == 0
    assert (out / "report.csv").exists()
    assert (out / "run_manifest").exists()
    assert not (out / "trace.csv").exists()
    assert "report.csv" in capsys.readouterr().out

    header = (out / "report.csv").read_text().splitlines()[0]
    assert header == "row,simulate,unit"


def test_cli_simulate_trace(tmp_path, monkeypatch):
    passes = []
    loop = _kernels.balance_loop
    monkeypatch.setattr(_kernels, "balance_loop", lambda *args: passes.append(1) or loop(*args))
    conf = _write_conf(tmp_path, SMALL_SYNTH + "dispatch_gw: 30\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(conf), "--out", str(out), "--trace"]) == 0
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0].startswith("step,")
    assert len(trace) == 1 + 48
    # the report and the trace come from one balance pass
    assert len(passes) == 1


_SEARCH_FILES = ["report.csv", "trajectory.csv", "trace.csv", "run_manifest"]
_FIXED_FILES = ["report.csv", "trace.csv", "run_manifest"]


@pytest.mark.parametrize(
    ("argv", "extra", "files"),
    [
        (["simulate"], "dispatch_gw: 30\n", _FIXED_FILES),
        (["optimize"], "", _SEARCH_FILES),
        (["scenario", "base"], "", _SEARCH_FILES),
        (["scenario", "low-storage"], "", _SEARCH_FILES),
        (["scenario", "pv-only"], "", _FIXED_FILES),
        (["scenario", "rigidity"], "", _FIXED_FILES),
        (["scenario", "residual-baseload"], "baseload_gw: 6\n", _SEARCH_FILES),
        (
            ["scenario", "fuel-sensitivity"],
            "fuel_prices_usd_per_gj: 20,10\n",
            [
                "report.csv",
                "trajectory_fuel_20.csv",
                "trace_fuel_20.csv",
                "trajectory_fuel_10.csv",
                "trace_fuel_10.csv",
                "run_manifest",
            ],
        ),
    ],
)
def test_cli_every_run_writes_its_files_in_order(tmp_path, capsys, argv, extra, files):
    # half-charged storage lets the sun-only mix of pv-only and rigidity
    # carry the first night
    conf = _write_conf(tmp_path, SMALL_SYNTH + "initial_soc_fraction: 0.5\n" + extra)
    out = tmp_path / "out"
    assert main(argv + ["--config", str(conf), "--out", str(out), "--trace"]) == 0
    assert capsys.readouterr().out == f"wrote {', '.join(files)} to {out}\n"
    assert sorted(p.name for p in out.iterdir()) == sorted(files)


def _zero_demand_conf(tmp_path, extra=""):
    zeros = TimeSeries(np.zeros(24), 1.0, KIND_DEMAND)
    cf = TimeSeries(np.full(24, 0.5), 1.0, KIND_CAPACITY_FACTOR)
    (tmp_path / "d.csv").write_text(dump_series(zeros))
    (tmp_path / "w.csv").write_text(dump_series(cf))
    (tmp_path / "p.csv").write_text(dump_series(cf))
    return _write_conf(
        tmp_path, "demand_csv: d.csv\nwind_cf_csv: w.csv\npv_cf_csv: p.csv\nwind_gw: 5\n" + extra
    )


@pytest.mark.parametrize("argv", [["simulate"], ["scenario", "pv-only"]])
def test_cli_zero_demand_leaves_steps_unset_and_reruns(tmp_path, argv):
    # a max scaled from a zero peak is a bound, a step of 0 GW is not
    conf = _zero_demand_conf(tmp_path)
    out, rerun = tmp_path / "out", tmp_path / "rerun"
    assert main(argv + ["--config", str(conf), "--out", str(out)]) == 0
    manifest = (out / "run_manifest").read_text()
    assert "wind_gw_max: 0.0" in manifest
    assert "_gw_step:" not in manifest
    assert main(argv + ["--config", str(out / "run_manifest"), "--out", str(rerun)]) == 0
    assert (rerun / "report.csv").read_bytes() == (out / "report.csv").read_bytes()


@pytest.mark.parametrize("argv", [["optimize"], ["scenario", "fuel-sensitivity"]])
def test_cli_zero_demand_search_names_the_keys_to_set(tmp_path, capsys, argv):
    conf = _zero_demand_conf(tmp_path, "pv_gw_step: 5\nbattery_power_gw_max: 4\n")
    assert main(argv + ["--config", str(conf), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "configuration error: peak demand is 0 GW, so the search bounds cannot be scaled "
        "from it: set wind_gw_max, wind_gw_step, battery_power_gw_step in the configuration\n"
    )


def test_cli_simulate_needs_a_mix(tmp_path, capsys):
    conf = _write_conf(tmp_path, SMALL_SYNTH)
    assert main(["simulate", "--config", str(conf), "--out", str(tmp_path / "o")]) == 2
    assert "needs a fixed mix" in capsys.readouterr().err


def test_cli_optimize_fixture_week(tmp_path):
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(FIXTURES / "week.conf"), "--out", str(out)]) == 0
    report = (out / "report.csv").read_text()
    assert report.splitlines()[0] == "row,optimize,unit"
    trajectory = (out / "trajectory.csv").read_text().splitlines()
    assert len(trajectory) > 2
    manifest = (out / "run_manifest").read_text()
    assert "wind_gw_max: 40.0" in manifest


def test_cli_optimize_runs_are_byte_identical(tmp_path):
    conf = _write_conf(tmp_path, SMALL_SYNTH)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["optimize", "--config", str(conf), "--out", str(out_a)]) == 0
    assert main(["optimize", "--config", str(conf), "--out", str(out_b)]) == 0
    for name in ("report.csv", "trajectory.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_cli_manifest_reruns_identically(tmp_path):
    conf = _write_conf(tmp_path, SMALL_SYNTH)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["optimize", "--config", str(conf), "--out", str(out_a)]) == 0
    rerun = ["optimize", "--config", str(out_a / "run_manifest"), "--out", str(out_b)]
    assert main(rerun) == 0
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
    assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()


def test_cli_seed_changes_synthetic_data(tmp_path):
    conf_a = _write_conf(tmp_path, SMALL_SYNTH + "dispatch_gw: 30\n", "a.conf")
    seed_6 = SMALL_SYNTH.replace("seed: 5\n", "seed: 6\n")
    conf_b = _write_conf(tmp_path, seed_6 + "dispatch_gw: 30\n", "b.conf")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(conf_a), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(conf_b), "--out", str(out_b)]) == 0
    assert (out_a / "report.csv").read_bytes() != (out_b / "report.csv").read_bytes()
    assert "seed: 6" in (out_b / "run_manifest").read_text()


def test_cli_negative_seed_is_a_configuration_error(tmp_path, capsys):
    conf = _write_conf(tmp_path, SMALL_SYNTH.replace("seed: 5\n", "seed: -1\n"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(conf), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "configuration error: seed must be nonnegative, got -1\n"
    assert not out.exists()


def test_cli_synthetic_half_hour_step_is_a_configuration_error(tmp_path, capsys):
    conf = _write_conf(tmp_path, SMALL_SYNTH + "dt_hours: 0.5\ndispatch_gw: 30\n")
    assert main(["simulate", "--config", str(conf), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "configuration error: synthetic datasets are hourly, dt_hours must be 1.0, got 0.5\n"
    )


def test_cli_bad_setting_exits_two_before_the_dataset_is_read(tmp_path, capsys):
    conf = _write_conf(
        tmp_path, "demand_csv: nope.csv\nwind_cf_csv: w\npv_cf_csv: p\nround_trip_efficiency: 2\n"
    )
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(conf), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: round_trip_efficiency must be in (0, 1], got 2.0\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command, message",
    [
        (["scenario", "residual-baseload"], "residual-baseload needs baseload_gw > 0"),
        (["simulate"], "simulate needs a fixed mix"),
    ],
    ids=["residual-baseload", "simulate"],
)
def test_cli_runner_check_exits_two_and_leaves_no_output_directory(
    tmp_path, capsys, command, message
):
    # the dataset loads, then the runner refuses the configuration
    conf = _write_conf(tmp_path, "synthetic_hours: 48\n")
    out = tmp_path / "out"
    assert main([*command, "--config", str(conf), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_series_cell_longer_than_csv_holds_exits_two(tmp_path, capsys):
    lines = (FIXTURES / "demand.csv").read_text().splitlines()
    lines[4] = "1" * 140_000  # reads as inf, so the row walk meets it
    (tmp_path / "demand.csv").write_text("\n".join(lines) + "\n")
    for name in ("wind_cf.csv", "pv_cf.csv"):
        (tmp_path / name).write_bytes((FIXTURES / name).read_bytes())
    conf = _write_conf(tmp_path, (FIXTURES / "week.conf").read_text() + _WEEK_MIX)
    assert main(["simulate", "--config", str(conf), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "invalid input: demand.csv: malformed CSV on line 5: "
        "field larger than field limit (131072)\n"
    )


def test_cli_series_that_is_not_utf8_names_its_file_and_line(tmp_path, capsys):
    (tmp_path / "demand.csv").write_bytes(b"value\n\xff\n")
    for name in ("wind_cf.csv", "pv_cf.csv"):
        (tmp_path / name).write_bytes((FIXTURES / name).read_bytes())
    conf = _write_conf(tmp_path, (FIXTURES / "week.conf").read_text() + _WEEK_MIX)
    assert main(["simulate", "--config", str(conf), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "invalid input: demand.csv: byte 0xff on line 2 is not UTF-8 (invalid start byte)\n"
    )


def test_cli_renewable_energy_that_overflows_exits_two_and_writes_nothing(tmp_path, capsys):
    conf = _write_conf(tmp_path, "synthetic_hours: 48\nwind_gw: 1e308\npv_gw: 1e308\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(conf), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "invalid input: the renewable energy of wind_gw 1e+308 and pv_gw 1e+308 "
        "over the dataset is not finite\n"
    )
    assert not out.exists()
    # a hundredth of each stands, and its report is finite throughout
    conf = _write_conf(tmp_path, "synthetic_hours: 48\nwind_gw: 1e306\npv_gw: 1e306\n")
    assert main(["simulate", "--config", str(conf), "--out", str(out)]) == 0
    rows = (out / "report.csv").read_text(encoding="utf-8").splitlines()[1:]
    values = [float(row.split(",")[1]) for row in rows]
    assert values and all(math.isfinite(x) for x in values), rows


def test_cli_config_that_is_not_utf8_names_its_file_and_line(tmp_path, capsys):
    conf = tmp_path / "latin.conf"
    conf.write_bytes(SMALL_SYNTH.encode() + "# café\nwind_gw: 10\n".encode("latin-1"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(conf), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: latin.conf: byte 0xe9 on line 10 is not UTF-8 "
        "(invalid continuation byte)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("hours", [1_000_001, 1_000_000_000_000])
def test_cli_synthetic_hours_past_the_bound_exit_two_before_any_allocation(
    tmp_path, capsys, hours
):
    conf = _write_conf(tmp_path, f"synthetic_hours: {hours}\nwind_gw: 10\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(conf), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: synthetic_hours must be at most 1000000, got {hours}\n"
    )
    assert not out.exists()


def test_cli_import_leaves_numpy_typing_platform_and_csv_unloaded():
    # platform and csv cost start-up time that a CSV run does not need
    code = (
        "import sys, firmdispatch.cli; "
        "print([name for name in ('numpy.typing', 'platform', 'csv') if name in sys.modules])"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr


# Runs in a fresh interpreter: the set-up sequence of perfbench/probe.py,
# then each command given, printing after each whether numpy was imported.
_NUMPY_PROBE = """
import json, sys
from pathlib import Path
from firmdispatch.cli import main
from firmdispatch.config import parse_config
from firmdispatch.profiles import KIND_CAPACITY_FACTOR, KIND_DEMAND, align, load_series

conf, runs = Path(sys.argv[1]), json.loads(sys.argv[2])
config = parse_config(conf.read_text(encoding="utf-8"), base_dir=conf.parent.resolve())
align(
    load_series(config.demand_csv, KIND_DEMAND, config.dt_hours),
    load_series(config.wind_cf_csv, KIND_CAPACITY_FACTOR, config.dt_hours),
    load_series(config.pv_cf_csv, KIND_CAPACITY_FACTOR, config.dt_hours),
)
print(json.dumps(["setup", 0, "numpy" in sys.modules]))
for argv in runs:
    code = main(argv)
    print(json.dumps([" ".join(argv[:2]), code, "numpy" in sys.modules]))
"""


def _numpy_probe(conf, runs):
    """``(command, exit code, numpy imported)`` after the set-up sequence on
    ``conf`` and after each of ``runs``, all in one fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-c", _NUMPY_PROBE, str(conf), json.dumps(runs)]
    run = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return [tuple(json.loads(line)) for line in run.stdout.splitlines() if line.startswith("[")]


def test_csv_runs_never_import_numpy(tmp_path):
    half = _write_conf(tmp_path, _week_conf("initial_soc_fraction: 0.5\n"), "half.conf")
    residual = _write_conf(tmp_path, _week_conf("baseload_gw: 3\n"), "residual.conf")
    fixed = _write_conf(tmp_path, _week_conf(_WEEK_MIX), "fixed.conf")
    runs = [["optimize", "--config", str(half)]]
    for name in SCENARIO_NAMES:
        conf = residual if name == "residual-baseload" else half
        runs.append(["scenario", name, "--config", str(conf)])
    runs.append(["simulate", "--config", str(fixed)])
    for i, argv in enumerate(runs):
        argv += ["--trace", "--out", str(tmp_path / f"out{i}")]
    steps = _numpy_probe(half, runs)
    assert [name for name, _, _ in steps] == ["setup", "optimize --config"] + [
        f"scenario {name}" for name in SCENARIO_NAMES
    ] + ["simulate --config"]
    assert all(code == 0 for _, code, _ in steps), steps
    assert not any(numpy for _, _, numpy in steps), steps


def test_synthetic_run_imports_numpy_and_matches_its_csv_run(tmp_path):
    synthetic = _write_conf(tmp_path, SMALL_SYNTH, "synthetic.conf")
    argv = ["optimize", "--trace", "--config", str(synthetic), "--out", str(tmp_path / "synth")]
    ((_, _, before), (_, code, after)) = _numpy_probe(FIXTURES / "week.conf", [argv])
    assert (before, code, after) == (False, 0, True)
    # the same dataset written as CSV gives the same files, bit for bit
    config = parse_config(SMALL_SYNTH)
    data = synthesize_dataset(config.seed, config.synthetic_hours)
    keys = ""
    for key, series in zip(("demand", "wind_cf", "pv_cf"), (data.demand, data.wind_cf, data.pv_cf)):
        (tmp_path / f"{key}.csv").write_text(dump_series(series), encoding="utf-8")
        keys += f"{key}_csv: {key}.csv\n"
    search = SMALL_SYNTH.split("\n", 2)[2]  # without synthetic_hours and seed
    csv_conf = _write_conf(tmp_path, keys + search, "csv.conf")
    argv = ["optimize", "--trace", "--config", str(csv_conf), "--out", str(tmp_path / "csv")]
    assert main(argv) == 0
    for name in ("report.csv", "trajectory.csv", "trace.csv"):
        assert (tmp_path / "csv" / name).read_bytes() == (tmp_path / "synth" / name).read_bytes()


@pytest.mark.parametrize(
    ("line", "message"),
    [
        (
            "interest_rate: 1e-320",
            "interest_rate must move 1.0 + interest_rate above 1.0, got 1e-320",
        ),
        (
            "life_wind_years: 10000",
            "life_wind_years must keep (1 + interest_rate) ** life_wind_years finite, got 10000",
        ),
    ],
)
def test_cli_cost_book_crf_cannot_take_exits_two(tmp_path, capsys, line, message):
    conf = _write_conf(tmp_path, SMALL_SYNTH + line + "\n")
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(conf), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    ("line", "message"),
    [
        ("wind_gw_max: -5", "wind_gw range must satisfy 0 <= min <= max, got (0.0, -5.0)"),
        ("pv_gw_min: 3\npv_gw_max: 2", "pv_gw range must satisfy 0 <= min <= max, got (3.0, 2.0)"),
        (
            "battery_power_gw_min: nan",
            "battery_power_gw range must satisfy 0 <= min <= max, got (nan, nan)",
        ),
        ("pv_gw_step: 0", "pv_gw step must be positive, got 0.0"),
        ("wind_gw_step: inf", "wind_gw step must be positive, got inf"),
        ("battery_hours_ladder: 8,2", "battery_hours must be strictly increasing, got (8.0, 2.0)"),
        ("battery_hours_ladder: 0,-1", "battery_hours must be finite and >= 0, got (0.0, -1.0)"),
        ("pv_gw: nan", "pv_gw must be finite and >= 0, got nan"),
    ],
)
def test_parse_config_checks_the_set_search_bounds_and_the_mix(line, message):
    # by SearchSpace's and CapacityMix's own rules, whatever the command;
    # an unset max or step is scaled from peak demand later
    with pytest.raises(ConfigError) as raised:
        parse_config("synthetic_hours: 48\n" + line + "\n")
    assert str(raised.value) == message
    parse_config("synthetic_hours: 48\nwind_gw_min: 1e6\npv_gw_max: 0\nbattery_power_gw_step: 3\n")


@pytest.mark.parametrize(
    "argv", [["simulate"], ["optimize"], ["scenario", "pv-only"], ["scenario", "rigidity"]]
)
def test_cli_bad_search_bound_exits_two_before_the_dataset_is_read(tmp_path, capsys, argv):
    conf = _write_conf(
        tmp_path,
        "demand_csv: nope.csv\nwind_cf_csv: w\npv_cf_csv: p\npv_gw: 5\n"
        "wind_gw_max: -5\npv_gw_step: 0\nbattery_hours_ladder: 8,2\n",
    )
    out = tmp_path / "out"
    assert main(argv + ["--config", str(conf), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: wind_gw range must satisfy 0 <= min <= max, got (0.0, -5.0)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    ("argv", "scenario"),
    [(["optimize"], None), (["simulate"], None), (["scenario", "base"], "base")],
)
def test_cli_scenario_key_is_the_scenario_command_name(tmp_path, argv, scenario):
    conf = _write_conf(tmp_path, SMALL_SYNTH + "dispatch_gw: 30\nscenario: rigidity\n")
    out = tmp_path / "out"
    assert main(argv + ["--config", str(conf), "--out", str(out)]) == 0
    config = parse_config((out / "run_manifest").read_text())
    assert (config.command, config.scenario) == (argv[0], scenario)


def test_cli_missing_config_is_io_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.conf")]) == 1
    assert "io error" in capsys.readouterr().err


def test_cli_unknown_config_key_is_invalid(tmp_path, capsys):
    conf = _write_conf(tmp_path, "synthetic_hours: 48\nwingspan: 3\n")
    assert main(["simulate", "--config", str(conf)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_mismatched_series_lengths(tmp_path, capsys):
    demand = TimeSeries(np.full(24, 5.0), 1.0, KIND_DEMAND)
    short_cf = TimeSeries(np.zeros(23), 1.0, KIND_CAPACITY_FACTOR)
    full_cf = TimeSeries(np.zeros(24), 1.0, KIND_CAPACITY_FACTOR)
    (tmp_path / "d.csv").write_text(dump_series(demand))
    (tmp_path / "w.csv").write_text(dump_series(short_cf))
    (tmp_path / "p.csv").write_text(dump_series(full_cf))
    conf = _write_conf(
        tmp_path,
        "demand_csv: d.csv\nwind_cf_csv: w.csv\npv_cf_csv: p.csv\ndispatch_gw: 9\n",
    )
    assert main(["simulate", "--config", str(conf), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "series lengths differ" in err
    assert "wind_cf has 23 steps" in err


def test_cli_infeasible_scenario_exits_three(tmp_path, capsys):
    conf = _write_conf(tmp_path, "synthetic_hours: 48\nsynthetic_droughts: 0-48\n")
    out = tmp_path / "out"
    assert main(["scenario", "pv-only", "--config", str(conf), "--out", str(out)]) == 3
    assert "infeasible" in capsys.readouterr().err
    assert not (out / "report.csv").exists()


def test_cli_scenario_rigidity_fixed_mix(tmp_path):
    hours = 96
    cycle = [1.0] * 12 + [0.0] * 12
    pv = TimeSeries(np.tile(np.asarray(cycle), hours // 24), 1.0, KIND_CAPACITY_FACTOR)
    demand = TimeSeries(np.ones(hours), 1.0, KIND_DEMAND)
    wind = TimeSeries(np.zeros(hours), 1.0, KIND_CAPACITY_FACTOR)
    (tmp_path / "d.csv").write_text(dump_series(demand))
    (tmp_path / "w.csv").write_text(dump_series(wind))
    (tmp_path / "p.csv").write_text(dump_series(pv))
    conf = _write_conf(
        tmp_path,
        "demand_csv: d.csv\nwind_cf_csv: w.csv\npv_cf_csv: p.csv\n"
        "round_trip_efficiency: 1.0\n"
        "pv_gw: 2\nbattery_power_gw: 1\nbattery_hours: 12\n",
    )
    out = tmp_path / "out"
    assert main(["scenario", "rigidity", "--config", str(conf), "--out", str(out)]) == 0
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "row,value,unit"
    table = {line.split(",")[0]: line.split(",") for line in report[1:]}
    assert float(table["Percent of Normal"][1]) == 101.0


def test_cli_scenario_low_storage(tmp_path):
    conf = _write_conf(tmp_path, SMALL_SYNTH + "battery_price_usd_per_kwh: 10\n")
    out = tmp_path / "out"
    assert main(["scenario", "low-storage", "--config", str(conf), "--out", str(out)]) == 0
    report = (out / "report.csv").read_text()
    assert report.splitlines()[0] == "row,low-storage,unit"
    assert "Storage Price" in report
    assert (out / "trajectory.csv").exists()


def test_cli_scenario_fuel_sensitivity(tmp_path):
    conf = _write_conf(tmp_path, SMALL_SYNTH + "fuel_prices_usd_per_gj: 20,10\n")
    out = tmp_path / "out"
    assert main(["scenario", "fuel-sensitivity", "--config", str(conf), "--out", str(out)]) == 0
    report = (out / "report.csv").read_text()
    assert report.splitlines()[0] == "row,fuel 20 USD/GJ,fuel 10 USD/GJ,unit"
    assert (out / "trajectory_fuel_20.csv").exists()
    assert (out / "trajectory_fuel_10.csv").exists()


def test_cli_fuel_prices_that_share_a_label_exit_two(tmp_path, capsys):
    conf = _write_conf(tmp_path, SMALL_SYNTH + "fuel_prices_usd_per_gj: 10,10.0000001\n")
    out = tmp_path / "out"
    code = main(["scenario", "fuel-sensitivity", "--config", str(conf), "--out", str(out)])
    assert code == 2
    assert "repeated: 10 USD/GJ" in capsys.readouterr().err
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize(
    ("argv", "extra", "message"),
    [
        (
            ["optimize"],
            "fuel_price_usd_per_gj: 1e200\nheat_rate_gj_per_mwh: 1e200\n",
            "fuel_price_usd_per_gj * heat_rate_gj_per_mwh must be finite, got 1e+200 * 1e+200",
        ),
        (
            ["scenario", "fuel-sensitivity"],
            "fuel_prices_usd_per_gj: 20,1e308\n",
            "fuel_prices_usd_per_gj * heat_rate_gj_per_mwh must be finite, got 1e+308 * 10.0",
        ),
        (
            ["simulate"],
            "synthetic_hours: 48\nsynthetic_droughts: 30-10\nwind_gw: 30\n",
            "drought window 30-10 must have 0 <= start < end <= synthetic_hours, "
            "got synthetic_hours 48",
        ),
        (
            ["simulate"],
            "synthetic_hours: 48\nbattery_power_gw: 1e200\nbattery_hours: 1e200\n",
            "battery_power_gw * battery_hours must be finite, got 1e+200 * 1e+200",
        ),
        (
            ["optimize"],
            "synthetic_hours: 48\nbattery_power_gw_max: 1e200\nbattery_power_gw_step: 1e200\n"
            "battery_hours_ladder: 0,1e200\n",
            "battery_power_gw max * battery_hours max must be finite, got 1e+200 * 1e+200",
        ),
    ],
    ids=[
        "fuel-cost-overflow",
        "fuel-prices-overflow",
        "reversed-drought",
        "battery-energy-overflow",
        "battery-grid-energy-overflow",
    ],
)
def test_cli_setting_that_breaks_a_dataset_or_cost_rule_exits_two_at_parse(
    tmp_path, capsys, argv, extra, message
):
    # an overflowing fuel cost per MWh made every fuel-free mix cost nan, a
    # reversed drought window was refused only once the dataset was built,
    # and a battery of inf GWh was refused for a nan start charge
    conf = _write_conf(tmp_path, extra if "synthetic_hours" in extra else _week_conf(extra))
    out = tmp_path / "out"
    assert main([*argv, "--config", str(conf), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()
    with pytest.raises(ConfigError, match="must be finite|drought window"):
        parse_config(conf.read_text(encoding="utf-8"))


_REPORT_MIX_ROWS = {
    "Installed Wind": "wind_gw",
    "Installed PV": "pv_gw",
    "Battery Capacity": "battery_power_gw",
    "Battery Hours": "battery_hours",
    "Installed Dispatch": "dispatch_gw",
}


@pytest.mark.parametrize(
    ("argv", "suffixes"),
    [(["optimize"], [""]), (["scenario", "fuel-sensitivity"], ["_fuel_20", "_fuel_10"])],
)
def test_cli_traced_search_writes_its_winner_ledger_without_another_pass(
    tmp_path, monkeypatch, argv, suffixes
):
    calls = []
    monkeypatch.setattr(cli, "simulate", lambda *a, **kw: calls.append(a) or simulate(*a, **kw))
    out = tmp_path / "out"
    assert main(argv + ["--config", str(FIXTURES / "week.conf"), "--out", str(out), "--trace"]) == 0
    assert calls == []

    data = align(
        load_series(FIXTURES / "demand.csv", KIND_DEMAND, 1.0),
        load_series(FIXTURES / "wind_cf.csv", KIND_CAPACITY_FACTOR, 1.0),
        load_series(FIXTURES / "pv_cf.csv", KIND_CAPACITY_FACTOR, 1.0),
    )
    rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()]
    mix_rows = [row for row in rows if row[0] in _REPORT_MIX_ROWS]
    for column, suffix in enumerate(suffixes, start=1):
        best = CapacityMix(**{_REPORT_MIX_ROWS[row[0]]: float(row[column]) for row in mix_rows})
        expected = tmp_path / f"expected{suffix}.csv"
        write_trace_csv(simulate(best, data).trace, expected)
        assert (out / f"trace{suffix}.csv").read_bytes() == expected.read_bytes()


def _week_conf(extra=""):
    """``fixtures/week.conf`` with absolute dataset paths, then ``extra``."""
    week = (FIXTURES / "week.conf").read_text(encoding="utf-8")
    for name in ("demand.csv", "wind_cf.csv", "pv_cf.csv"):
        week = week.replace(f": {name}", f": {FIXTURES / name}")
    return week + extra


# The week mix of tools/cli_cases.py; rigidity sizes a firm gap for it.
_WEEK_MIX = "wind_gw: 40\npv_gw: 28\nbattery_power_gw: 20\nbattery_hours: 8\n"


_TRACED_RUNS = {
    "simulate-fixed": (["simulate"], _WEEK_MIX),
    "rigidity-fixed": (["scenario", "rigidity"], _WEEK_MIX),
    "optimize": (["optimize"], ""),
    **{
        name: (["scenario", name], "baseload_gw: 3\n" if name == "residual-baseload" else "")
        for name in SCENARIO_NAMES
    },
}


@pytest.mark.parametrize(("argv", "extra"), list(_TRACED_RUNS.values()), ids=list(_TRACED_RUNS))
def test_cli_trace_runs_no_balance_pass(tmp_path, monkeypatch, argv, extra):
    passes = []
    loop = _kernels.balance_loop
    monkeypatch.setattr(_kernels, "balance_loop", lambda *args: passes.append(1) or loop(*args))
    # half-charged storage lets pv-only's sun-only mix carry the first night
    conf = _write_conf(tmp_path, _week_conf("initial_soc_fraction: 0.5\n" + extra))
    counts = {}
    for flags in ([], ["--trace"]):
        passes.clear()
        out = tmp_path / f"out{len(flags)}"
        assert main(argv + ["--config", str(conf), "--out", str(out)] + flags) == 0
        assert any(out.glob("trace*.csv")) == bool(flags)
        counts[tuple(flags)] = len(passes)
    assert counts[("--trace",)] == counts[()]


# A synthetic year with a 72 h drought, the benchmark's year-low-storage
# space on it, and a small grid on the default hours ladder.
_YEAR = "synthetic_hours: 8760\nsynthetic_droughts: 139-211\nseed: 1\n"
_YEAR_SPACE = """\
wind_gw_max: 40
wind_gw_step: 10
pv_gw_max: 30
pv_gw_step: 30
battery_power_gw_max: 10
battery_power_gw_step: 10
battery_hours_ladder: 0,8,24
refine_tolerance_gw: 5.1
refine_tolerance_hours: 8.1
"""
_LADDER_SPACE = """\
wind_gw_max: 40
wind_gw_step: 20
pv_gw_max: 30
pv_gw_step: 15
battery_power_gw_max: 10
battery_power_gw_step: 5
capex_battery_usd_per_kwh: 10
refine_tolerance_gw: 2.5
refine_tolerance_hours: 2.0
"""

# The balance passes each search runs, pinned so that a change to how
# mixes are sized cannot add one unseen.
_PASS_COUNTS = {
    "year-low-storage": (["scenario", "low-storage"], _YEAR + _YEAR_SPACE, 32),
    "year-ladder-optimize": (["optimize"], _YEAR + _LADDER_SPACE, 141),
    "year-flag-ladder-optimize": (
        ["optimize"],
        _YEAR + _LADDER_SPACE + "battery_charges_from_dispatch: true\n",
        369,
    ),
    "week-optimize": (["optimize"], _week_conf(), 125),
    "week-residual-baseload": (
        ["scenario", "residual-baseload"],
        _week_conf("baseload_gw: 3\n"),
        128,
    ),
}


@pytest.mark.parametrize(("argv", "text", "count"), list(_PASS_COUNTS.values()), ids=list(_PASS_COUNTS))
def test_cli_search_runs_its_pinned_number_of_balance_passes(
    tmp_path, monkeypatch, argv, text, count
):
    passes = []
    loop = _kernels.balance_loop
    monkeypatch.setattr(_kernels, "balance_loop", lambda *args: passes.append(1) or loop(*args))
    conf = _write_conf(tmp_path, text)
    assert main(argv + ["--config", str(conf), "--out", str(tmp_path / "out")]) == 0
    assert len(passes) == count


def test_cli_scenario_residual_baseload_needs_baseload(tmp_path, capsys):
    conf = _write_conf(tmp_path, SMALL_SYNTH)
    code = main(["scenario", "residual-baseload", "--config", str(conf), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "baseload_gw > 0" in capsys.readouterr().err


def test_cli_scenario_residual_baseload(tmp_path):
    conf = _write_conf(tmp_path, SMALL_SYNTH + "baseload_gw: 6\nbaseload_eaf: 0.7\n")
    out = tmp_path / "out"
    code = main(["scenario", "residual-baseload", "--config", str(conf), "--out", str(out)])
    assert code == 0
    report = (out / "report.csv").read_text()
    assert "Base load Gen." in report
    assert "Percent of net Peak demand" in report


def test_cli_unknown_scenario_name_is_usage_error(tmp_path):
    conf = _write_conf(tmp_path, SMALL_SYNTH)
    with pytest.raises(SystemExit) as exc:
        main(["scenario", "warp", "--config", str(conf)])
    assert exc.value.code == 2


# ===================== every input runs or exits 2 =====================

_COMMANDS = [["simulate"], ["optimize"]] + [["scenario", name] for name in SCENARIO_NAMES]


# Rules a drawn configuration may break, one at a time, by the keys that
# break each: a step of 0, one too small to count rungs with, an axis of 4e7
# rungs, a min above the max scaled from peak demand, a ladder out of order,
# a rigidity step that cannot move 1.0.
_BROKEN_RULES = [
    {"wind_gw_step": 0},
    {"pv_gw_step": 1e-320},
    {"battery_power_gw_max": 40, "battery_power_gw_step": 1e-6},
    {"pv_gw_min": 100},
    {"battery_hours_ladder": "8,2"},
    {"rigidity_step": 1e-320},
]


@st.composite
def _config_texts(draw):
    """A run file on a 24-48 h synthetic dataset that breaks at most one of
    ``_BROKEN_RULES``.

    Every search is short: its grid has a few dozen points at most, since
    an axis whose max scales from peak demand gets a coarse step and one
    whose step scales gets a small max, and refinement stops at 1 GW or
    coarser.
    """
    keys = {"synthetic_hours": draw(st.integers(24, 48)), "seed": draw(st.integers(0, 3))}
    for axis in ("wind_gw", "pv_gw", "battery_power_gw"):
        bounds = draw(
            st.sampled_from(
                [(None, None, 20), (None, 3, None), (None, 0, None), (None, 20, 10), (2, 10, 8)]
            )
        )
        keys.update({f"{axis}_{end}": v for end, v in zip(("min", "max", "step"), bounds)})
    for key, values in {
        "battery_hours_ladder": ["0,2,8", "0,4", "0"],
        "wind_gw": [5, 30],
        "pv_gw": [10, 40],
        "battery_power_gw": [5, 20],
        "battery_hours": [4, 24],
        "dispatch_gw": [0, 15],
        "baseload_gw": [0, 4],
        "baseload_eaf": [0.7, 1],
        "round_trip_efficiency": [0.85, 1, 1e-320],
        "initial_soc_fraction": [0, 0.5, 1],
        "battery_charges_from_dispatch": ["false", "true"],
        "rigidity_step": [0.01, 0.1],
        "battery_price_usd_per_kwh": [10, 0],
        "fuel_prices_usd_per_gj": ["20,10", "15"],
    }.items():
        keys[key] = draw(st.sampled_from([None, *values]))
    keys["refine_tolerance_gw"] = draw(st.sampled_from([1, 2.5]))
    keys["refine_tolerance_hours"] = draw(st.sampled_from([1, 4]))
    if draw(st.integers(0, 2)) == 2:
        keys.update(draw(st.sampled_from(_BROKEN_RULES)))
    return "".join(f"{key}: {value}\n" for key, value in keys.items() if value is not None)


def _run_main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _written(out) -> dict[str, bytes]:
    """The files a run wrote, its manifest's output_dir line aside."""
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    manifest = files["run_manifest"].splitlines(keepends=True)
    kept = [line for line in manifest if not line.startswith(b"output_dir:")]
    files["run_manifest"] = b"".join(kept)
    return files


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_config_texts())
def test_cli_every_input_runs_or_exits_two_and_every_manifest_reruns(text):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        conf = _write_conf(tmp, text)
        for i, argv in enumerate(_COMMANDS):
            out, rerun = tmp / f"out{i}", tmp / f"rerun{i}"
            code, err = _run_main(argv + ["--config", str(conf), "--out", str(out)])
            assert code in (0, 2, 3), (argv, err)
            assert err.count("\n") == (code != 0) and err.endswith("\n") == (code != 0), err
            if code == 0:
                manifest = str(out / "run_manifest")
                assert _run_main(argv + ["--config", manifest, "--out", str(rerun)]) == (0, "")
                assert _written(rerun) == _written(out), argv
