"""Command line interface.

Three commands share one configuration format: ``simulate`` runs a fixed
mix, ``optimize`` searches for the least-cost mix, and ``scenario <name>``
runs one of the named studies.  One runner per command reads all it needs
from the resolved configuration and returns its reports, each with its
file suffix and the search behind it, and any rows to follow them.  From
those alone every run writes ``report.csv`` with one call, whatever the
report kind, a ``trajectory.csv`` per search, and ``run_manifest``, a
resolved configuration that reproduces the run byte for byte.  ``--trace``
adds the per-step ledger behind each report as ``trace.csv``; every report
carries the result it was read from, so writing the ledger runs no pass.

Exit codes: 0 success, 1 I/O failure, 2 configuration or data validation
failure, 3 scenario infeasibility.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import NamedTuple

from .config import (
    MIX_KEYS,
    ConfigError,
    RunConfig,
    _fixed_mix,
    parse_config,
    render_manifest,
    resolve_space,
    search_space,
)
from .dispatch import simulate, write_trace_csv
from .optimizer import OptimResult, optimize, write_trajectory_csv
from .profiles import (
    KIND_CAPACITY_FACTOR,
    KIND_DEMAND,
    _decode_utf8,
    align,
    demand_stats,
    load_series,
    synthesize_dataset,
)
from .scenarios import (
    SCENARIO_NAMES,
    InfeasibleError,
    LowStorageDelta,
    RigidityReport,
    ScenarioReport,
    build_report,
    run_base,
    run_fuel_sensitivity,
    run_low_storage,
    run_pv_only,
    run_residual_baseload,
    run_rigidity,
    write_report_csv,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firmdispatch",
        description="Dispatch simulation and least-cost capacity sizing for wind/solar grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run a fixed capacity mix over the dataset"),
        ("optimize", "search for the least-cost capacity mix"),
        ("scenario", "run a named study"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        if name == "scenario":
            cmd.add_argument("name", choices=SCENARIO_NAMES, help="scenario to run")
        cmd.add_argument("--config", required=True, help="path to the run configuration file")
        cmd.add_argument("--out", default=None, help="output directory (default from config)")
        cmd.add_argument("--trace", action="store_true", help="also write the per-step trace.csv")
    return parser


def _load_dataset(config: RunConfig):
    if config.synthetic_hours is not None:
        return synthesize_dataset(config.seed, config.synthetic_hours, config.synthetic_droughts)
    demand = load_series(config.demand_csv, KIND_DEMAND, config.dt_hours)
    wind = load_series(config.wind_cf_csv, KIND_CAPACITY_FACTOR, config.dt_hours)
    pv = load_series(config.pv_cf_csv, KIND_CAPACITY_FACTOR, config.dt_hours)
    return align(demand, wind, pv)


class _Outcome(NamedTuple):
    """A run's reports in write order, each with its file suffix and the
    search it came from (None where none ran), and a table to follow them."""

    reports: list[tuple[str, ScenarioReport | RigidityReport, OptimResult | None]]
    extra: LowStorageDelta | None = None


def _searched(run, config: RunConfig, data, **knobs):
    """What the searching scenario ``run`` returns with the configuration's settings."""
    space = search_space(config)
    return run(data, config.params, config.book, space=space, **knobs)


def _simulate(config, data) -> _Outcome:
    mix = _fixed_mix(config)
    if mix is None:
        raise ConfigError("simulate needs a fixed mix: set at least one of " + ", ".join(MIX_KEYS))
    report = build_report(mix, simulate(mix, data, config.params), data, label="simulate")
    return _Outcome([("", report, None)])


def _optimize(config, data) -> _Outcome:
    optim = optimize(search_space(config), data, config.params, config.book)
    report = build_report(optim.best.mix, optim.best.result, data, label="optimize")
    return _Outcome([("", report, optim)])


def _base(config, data) -> _Outcome:
    report, optim = _searched(run_base, config, data)
    return _Outcome([("", report, optim)])


def _low_storage(config, data) -> _Outcome:
    price = config.battery_price_usd_per_kwh
    report, delta, optim = _searched(run_low_storage, config, data, battery_price=price)
    return _Outcome([("", report, optim)], delta)


def _pv_only(config, data) -> _Outcome:
    return _Outcome([("", run_pv_only(data, config.params), None)])


def _rigidity(config, data) -> _Outcome:
    mix = _fixed_mix(config) or run_pv_only(data, config.params).mix
    return _Outcome([("", run_rigidity(mix, data, config.params, step=config.rigidity_step), None)])


def _residual_baseload(config, data) -> _Outcome:
    if config.baseload_gw <= 0.0:
        raise ConfigError("residual-baseload needs baseload_gw > 0 in the configuration")
    report, optim = _searched(run_residual_baseload, config, data)
    return _Outcome([("", report, optim)])


def _fuel_sensitivity(config, data) -> _Outcome:
    runs = _searched(run_fuel_sensitivity, config, data, fuel_prices=config.fuel_prices_usd_per_gj)
    return _Outcome([(f"_fuel_{price:g}", report, optim) for price, report, optim in runs])


# One runner per command, or per scenario under the scenario command.
_RUNNERS = {
    "simulate": _simulate,
    "optimize": _optimize,
    "base": _base,
    "low-storage": _low_storage,
    "pv-only": _pv_only,
    "rigidity": _rigidity,
    "residual-baseload": _residual_baseload,
    "fuel-sensitivity": _fuel_sensitivity,
}


def _run(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    text = _decode_utf8(config_path.read_bytes(), config_path.name, ConfigError)
    config = parse_config(text, base_dir=config_path.parent.resolve())

    config.output_dir = os.path.abspath(config.output_dir if args.out is None else args.out)
    config.command = args.command
    config.scenario = args.name if args.command == "scenario" else None

    data = _load_dataset(config)
    config = resolve_space(config, demand_stats(data.demand).peak_gw)

    outcome = _RUNNERS[config.scenario or config.command](config, data)

    # made after the runner, so a run that its own checks refuse leaves none
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = [report for _, report, _ in outcome.reports]
    write_report_csv(out_dir / "report.csv", reports, outcome.extra)
    written = ["report.csv"]
    for suffix, report, optim in outcome.reports:
        if optim is not None:
            name = f"trajectory{suffix}.csv"
            write_trajectory_csv(optim, out_dir / name)
            written.append(name)
        if args.trace:
            name = f"trace{suffix}.csv"
            write_trace_csv(report.result.trace, out_dir / name)
            written.append(name)

    (out_dir / "run_manifest").write_text(render_manifest(config), encoding="utf-8")
    written.append("run_manifest")
    print(f"wrote {', '.join(written)} to {out_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
