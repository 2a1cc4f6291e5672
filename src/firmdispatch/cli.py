"""Command line interface.

Three commands share one configuration format: ``simulate`` runs a fixed
mix, ``optimize`` searches for the least-cost mix, and ``scenario <name>``
runs one of the named studies.  Every run writes ``run_manifest``, a
resolved configuration that reproduces the run byte for byte, alongside
``report.csv`` and, where a search ran, ``trajectory.csv``.  ``--trace``
adds the per-step ledger behind the report as ``trace.csv``; every report
carries the result it was read from, so writing the ledger runs no pass.

Exit codes: 0 success, 1 I/O failure, 2 configuration or data validation
failure, 3 scenario infeasibility.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import NamedTuple, Sequence

from .config import (
    MIX_KEYS,
    ConfigError,
    RunConfig,
    _fixed_mix,
    _search_space,
    parse_config,
    render_manifest,
    resolve_space,
)
from .dispatch import DispatchResult, simulate, write_trace_csv
from .optimizer import AXES, OptimResult, SearchSpace, optimize, write_trajectory_csv
from .profiles import (
    KIND_CAPACITY_FACTOR,
    KIND_DEMAND,
    align,
    demand_stats,
    load_series,
    synthesize_dataset,
)
from .scenarios import (
    SCENARIO_NAMES,
    InfeasibleError,
    RigidityReport,
    ScenarioReport,
    build_report,
    low_storage_extra_rows,
    run_base,
    run_fuel_sensitivity,
    run_low_storage,
    run_pv_only,
    run_residual_baseload,
    run_rigidity,
    write_report_csv,
    write_rigidity_csv,
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


def _space_from(config: RunConfig) -> SearchSpace:
    # Only a zero peak leaves a step of the power axes unset; say so, and
    # name the keys that would have scaled from it.
    keys = [
        f"{axis}_{end}"
        for axis in AXES[:-1]
        if getattr(config, f"{axis}_step") is None
        for end in ("max", "step")
        if not getattr(config, f"{axis}_{end}")
    ]
    if keys:
        raise ConfigError(
            "peak demand is 0 GW, so the search bounds cannot be scaled from it: "
            "set " + ", ".join(keys) + " in the configuration"
        )
    return _search_space(config)


class _Output(NamedTuple):
    """A trajectory (where a search ran) and the result whose ledger ``--trace``
    writes, named by file suffix; the result is the one a report was built from."""

    suffix: str
    optim: OptimResult | None
    result: DispatchResult


class _Outcome(NamedTuple):
    """A run's report and, in write order, the outputs that go beside it."""

    report: ScenarioReport | list[ScenarioReport] | RigidityReport
    outputs: list[_Output]
    extra_rows: Sequence[tuple[str, float, str]] = ()


def _simulate(config, data, params, book, options) -> _Outcome:
    mix = _fixed_mix(config)
    if mix is None:
        raise ConfigError(
            "simulate needs a fixed mix: set at least one of " + ", ".join(MIX_KEYS)
        )
    report = build_report(mix, simulate(mix, data, params), data, label="simulate")
    return _Outcome(report, [_Output("", None, report.result)])


def _optimize(config, data, params, book, options) -> _Outcome:
    optim = optimize(_space_from(config), data, params, book, options)
    report = build_report(optim.best.mix, optim.best.result, data, label="optimize")
    return _Outcome(report, [_Output("", optim, report.result)])


def _base(config, data, params, book, options) -> _Outcome:
    report, optim = run_base(data, params, book, space=_space_from(config), options=options)
    return _Outcome(report, [_Output("", optim, report.result)])


def _low_storage(config, data, params, book, options) -> _Outcome:
    price = config.battery_price_usd_per_kwh
    report, delta, optim = run_low_storage(
        data, params, book, space=_space_from(config), battery_price=price, options=options
    )
    return _Outcome(report, [_Output("", optim, report.result)], low_storage_extra_rows(delta))


def _pv_only(config, data, params, book, options) -> _Outcome:
    report = run_pv_only(data, params)
    return _Outcome(report, [_Output("", None, report.result)])


def _rigidity(config, data, params, book, options) -> _Outcome:
    mix = _fixed_mix(config)
    if mix is None:
        mix = run_pv_only(data, params).mix
    report = run_rigidity(mix, data, params, step=config.rigidity_step)
    return _Outcome(report, [_Output("", None, report.result)])


def _residual_baseload(config, data, params, book, options) -> _Outcome:
    if config.baseload_gw <= 0.0:
        raise ConfigError("residual-baseload needs baseload_gw > 0 in the configuration")
    baseload = {"baseload_gw": config.baseload_gw, "eaf": config.baseload_eaf}
    report, optim = run_residual_baseload(
        data, params, book, space=_space_from(config), options=options, **baseload
    )
    return _Outcome(report, [_Output("", optim, report.result)])


def _fuel_sensitivity(config, data, params, book, options) -> _Outcome:
    prices = config.fuel_prices_usd_per_gj
    runs = run_fuel_sensitivity(
        data, params, book, space=_space_from(config), fuel_prices=prices, options=options
    )
    return _Outcome(
        [report for _, report, _ in runs],
        [_Output(f"_fuel_{price:g}", optim, report.result) for price, report, optim in runs],
    )


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
    text = config_path.read_text(encoding="utf-8")
    config = parse_config(text, base_dir=config_path.parent.resolve())

    if args.out is not None:
        config.output_dir = os.path.abspath(args.out)
    else:
        config.output_dir = os.path.abspath(config.output_dir)
    config.command = args.command
    config.scenario = args.name if args.command == "scenario" else None

    data = _load_dataset(config)
    config = resolve_space(config, demand_stats(data.demand).peak_gw)

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = _RUNNERS[args.name if args.command == "scenario" else args.command]
    outcome = runner(config, data, config.params, config.book, config.options)

    if isinstance(outcome.report, RigidityReport):
        write_rigidity_csv(out_dir / "report.csv", outcome.report)
    else:
        write_report_csv(out_dir / "report.csv", outcome.report, extra_rows=outcome.extra_rows)
    written = ["report.csv"]
    for output in outcome.outputs:
        if output.optim is not None:
            name = f"trajectory{output.suffix}.csv"
            write_trajectory_csv(output.optim, out_dir / name)
            written.append(name)
        if args.trace:
            name = f"trace{output.suffix}.csv"
            write_trace_csv(output.result.trace, out_dir / name)
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
