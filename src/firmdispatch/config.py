"""Run configuration files.

A run file is flat ``key: value`` text: one setting per line, ``#`` lines
and blank lines ignored.  Keys are checked strictly, an unknown or repeated
key is an error rather than a silent ignore.  The storage-model and
cost-book keys are the field names of ``SimParams`` and ``CostBook``, which
``RunConfig`` holds whole; those classes check their values when the file
is parsed.  The search bounds that are set, the refinement tolerances and
the fixed mix are checked then too, by ``SearchSpace`` and ``CapacityMix``,
and the scenario knobs by the scenarios' own checks, whatever the command.
Once the dataset is loaded, ``resolve_space`` scales the unset search
bounds from its peak demand and checks the whole space again, and
``search_space`` builds the space a search command searches.
``render_manifest`` writes a resolved configuration back out in the same
format, so a run manifest is itself a valid configuration that reproduces
the run.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path

from .costing import DEFAULT_BOOK, CostBook
from .dispatch import DEFAULT_PARAMS, CapacityMix, SimParams
from .optimizer import DEFAULT_BATTERY_HOURS, SearchSpace
from .profiles import MAX_SYNTHETIC_HOURS, _check_drought_window, _check_synthetic_hours
from .scenarios import SCENARIO_NAMES, _check_battery_price, _check_fuel_price, _check_rigidity_step

# Unset search bounds: each power axis runs from its min to a multiple of
# peak demand in coarse steps of a fixed fraction of peak.
PEAK_MULTIPLES = {"wind_gw": 3.0, "pv_gw": 2.0, "battery_power_gw": 1.5}
STEP_FRACTION_OF_PEAK = 0.1


class ConfigError(ValueError):
    """A configuration file is malformed or inconsistent."""


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma separated list of numbers")
    return tuple(float(p) for p in parts)


def _parse_windows(text: str) -> tuple[tuple[int, int], ...]:
    windows = []
    for part in (p.strip() for p in text.split(";")):
        if not part:
            continue
        lo, sep, hi = part.partition("-")
        if not sep:
            raise ValueError(f"expected start-end hour windows, got {part!r}")
        windows.append((int(lo), int(hi)))
    if not windows:
        raise ValueError("expected at least one start-end window")
    return tuple(windows)


@dataclass
class RunConfig:
    """Every setting a run can carry, with unset optionals left as None."""

    # Dataset: either three CSV paths or a synthetic specification.
    demand_csv: str | None = None
    wind_cf_csv: str | None = None
    pv_cf_csv: str | None = None
    dt_hours: float = 1.0
    synthetic_hours: int | None = None
    synthetic_droughts: tuple[tuple[int, int], ...] | None = None
    seed: int = 1

    # Storage model and cost book, one key per field.
    params: SimParams = DEFAULT_PARAMS
    book: CostBook = DEFAULT_BOOK

    # Search space; unset bounds scale to peak demand at run time.
    wind_gw_min: float = 0.0
    wind_gw_max: float | None = None
    wind_gw_step: float | None = None
    pv_gw_min: float = 0.0
    pv_gw_max: float | None = None
    pv_gw_step: float | None = None
    battery_power_gw_min: float = 0.0
    battery_power_gw_max: float | None = None
    battery_power_gw_step: float | None = None
    battery_hours_ladder: tuple[float, ...] = DEFAULT_BATTERY_HOURS
    refine_tolerance_gw: float = SearchSpace.refine_tolerance_gw
    refine_tolerance_hours: float = SearchSpace.refine_tolerance_hours

    # Fixed mix for simulate and rigidity runs.
    wind_gw: float | None = None
    pv_gw: float | None = None
    battery_power_gw: float | None = None
    battery_hours: float | None = None
    dispatch_gw: float | None = None

    # Baseload, shared by simulate and the residual-baseload scenario.
    baseload_gw: float = 0.0
    baseload_eaf: float = 0.70

    # Scenario selection and knobs.
    command: str | None = None
    scenario: str | None = None
    battery_price_usd_per_kwh: float = 10.0
    fuel_prices_usd_per_gj: tuple[float, ...] = (20.0, 10.0)
    rigidity_step: float = 0.01
    output_dir: str = "out"


# The fixed mix of simulate and rigidity runs, in CapacityMix field order.
MIX_KEYS = ("wind_gw", "pv_gw", "battery_power_gw", "battery_hours", "dispatch_gw")

_PATH_KEYS = ("demand_csv", "wind_cf_csv", "pv_cf_csv", "output_dir")

# Parser and renderer of a value, by its field's declared type.
_TYPES = {
    "str": (str, str),
    "int": (int, str),
    "float": (float, str),
    "bool": (_parse_bool, lambda value: "true" if value else "false"),
    "tuple[float, ...]": (_parse_float_list, lambda value: ",".join(repr(float(v)) for v in value)),
    "tuple[tuple[int, int], ...]": (
        _parse_windows,
        lambda value: ";".join(f"{int(lo)}-{int(hi)}" for lo, hi in value),
    ),
}

# Every key in manifest order, with the settings field that holds it (None
# for a RunConfig field of its own) and its declared type.
_KEYS = {
    key.name: (f.name if is_dataclass(f.default) else None, key.type.removesuffix(" | None"))
    for f in fields(RunConfig)
    for key in (fields(f.default) if is_dataclass(f.default) else (f,))
}


def parse_config(text: str, base_dir: str | os.PathLike | None = None) -> RunConfig:
    """Parse run configuration text.

    Relative dataset and output paths are resolved against ``base_dir``,
    normally the directory of the configuration file.

    Raises
    ------
    ConfigError
        On syntax errors, unknown or repeated keys, unparseable values, an
        inconsistent dataset specification, a value ``SimParams`` or
        ``CostBook`` rejects (with that class's message), or a value
        ``validate`` rejects, search bounds, tolerances and the fixed mix
        among them.
    """
    values: dict[str | None, dict[str, object]] = {}
    seen = set()
    # lines end at \n, \r\n and \r only, the breaks profiles._decode_utf8 counts
    for line_no, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"line {line_no}: expected 'key: value', got {raw!r}")
        if key not in _KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {line_no}: repeated key {key!r}")
        if not value:
            raise ConfigError(f"line {line_no}: key {key!r} has no value")
        seen.add(key)
        owner, type_name = _KEYS[key]
        try:
            values.setdefault(owner, {})[key] = _TYPES[type_name][0](value)
        except ValueError as exc:
            raise ConfigError(f"line {line_no}: bad value for {key!r}: {exc}") from None

    config = RunConfig(**values.pop(None, {}))
    for owner, settings in values.items():
        try:
            setattr(config, owner, replace(getattr(config, owner), **settings))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if base_dir is not None:
        base = Path(base_dir)
        for key in _PATH_KEYS:
            current = getattr(config, key)
            if current is not None and not os.path.isabs(current):
                setattr(config, key, str(base / current))
    validate(config)
    return config


def validate(config: RunConfig) -> None:
    """Raise ``ConfigError`` if the configuration breaks a rule; ``parse_config`` runs it."""
    csv_keys = ("demand_csv", "wind_cf_csv", "pv_cf_csv")
    given = [k for k in csv_keys if getattr(config, k) is not None]
    if config.synthetic_hours is not None:
        if given:
            raise ConfigError(
                f"give either CSV paths or synthetic_hours, not both (found {given[0]!r})"
            )
    elif len(given) != len(csv_keys):
        missing = [k for k in csv_keys if getattr(config, k) is None]
        raise ConfigError(f"missing mandatory dataset key {missing[0]!r} (or set synthetic_hours)")
    elif config.synthetic_droughts is not None:
        raise ConfigError("synthetic_droughts applies only to synthetic datasets")

    if config.dt_hours not in (1.0, 0.5):
        raise ConfigError(f"dt_hours must be 1.0 or 0.5, got {config.dt_hours!r}")
    if config.synthetic_hours is not None and config.dt_hours != 1.0:
        raise ConfigError(
            f"synthetic datasets are hourly, dt_hours must be 1.0, got {config.dt_hours!r}"
        )
    if config.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {config.seed}")

    # The dataset length and drought windows obey synthesize_dataset's rules,
    # the search bounds, ladder, baseload and tolerances SearchSpace's, the
    # fixed mix CapacityMix's, and the knobs their scenarios', whatever the
    # command.
    hours = config.synthetic_hours
    try:
        if hours is not None:
            _check_synthetic_hours(hours)
        for start, end in config.synthetic_droughts or ():
            _check_drought_window(start, end, hours)
        _check_rigidity_step(config.rigidity_step)
        _search_space(config)
        _fixed_mix(config)
        _check_battery_price(config.battery_price_usd_per_kwh)
        for price in config.fuel_prices_usd_per_gj:
            _check_fuel_price(price, config.book)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    if config.scenario is not None and config.scenario not in SCENARIO_NAMES:
        raise ConfigError(f"unknown scenario {config.scenario!r}, expected one of {SCENARIO_NAMES}")
    if config.command is not None and config.command not in ("simulate", "optimize", "scenario"):
        raise ConfigError(f"unknown command {config.command!r}")


def resolve_space(config: RunConfig, peak_gw: float) -> RunConfig:
    """A copy of ``config`` with its unset search bounds scaled from peak
    demand, which ``validate`` checks again: a set min above a scaled max,
    or a grid too fine to search, raises ``ConfigError``.  At a zero peak
    the steps stay unset: a max of 0.0 is a bound, but a step of 0.0 is not,
    so ``search_space`` refuses to search them."""
    updates = {}
    for axis, multiple in PEAK_MULTIPLES.items():
        if getattr(config, f"{axis}_max") is None:
            updates[f"{axis}_max"] = multiple * peak_gw
        if getattr(config, f"{axis}_step") is None and peak_gw > 0.0:
            updates[f"{axis}_step"] = STEP_FRACTION_OF_PEAK * peak_gw
    resolved = replace(config, **updates)
    validate(resolved)
    return resolved


def search_space(config: RunConfig) -> SearchSpace:
    """The space a search command searches, from a resolved configuration.
    Only a zero peak leaves a step unset, and then ``ConfigError`` names
    the keys that would have scaled from it."""
    keys = [
        f"{axis}_{end}"
        for axis in PEAK_MULTIPLES
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


def _search_space(config: RunConfig) -> SearchSpace:
    """The search space a configuration sets.  An unset max stands in as
    its axis's min, and an unset step as the axis's span (1.0 on an empty
    one), at most two rungs, so before they are scaled from peak demand
    only the bounds that are set are checked."""
    bounds = {}
    for axis in PEAK_MULTIPLES:
        lo, hi, step = (getattr(config, f"{axis}_{end}") for end in ("min", "max", "step"))
        hi = lo if hi is None else hi
        bounds[axis] = (lo, hi, ((hi - lo) or 1.0) if step is None else step)
    return SearchSpace(
        **bounds,
        battery_hours=config.battery_hours_ladder,
        baseload_gw=config.baseload_gw,
        baseload_eaf=config.baseload_eaf,
        refine_tolerance_gw=config.refine_tolerance_gw,
        refine_tolerance_hours=config.refine_tolerance_hours,
    )


def _fixed_mix(config: RunConfig) -> CapacityMix | None:
    """The fixed mix of simulate and rigidity runs, None if no key sets one."""
    if all(getattr(config, key) is None for key in MIX_KEYS):
        return None
    return CapacityMix(
        **{key: getattr(config, key) or 0.0 for key in MIX_KEYS},
        baseload_gw=config.baseload_gw,
        baseload_eaf=config.baseload_eaf,
    )


def render_manifest(config: RunConfig) -> str:
    """Render a configuration in run-file format, one line per set key.

    Optionals that are unset are omitted.  Parsing the result reproduces the
    configuration, which is what makes a written manifest re-runnable.
    """
    lines = ["# resolved run configuration"]
    for key, (owner, type_name) in _KEYS.items():
        value = getattr(getattr(config, owner) if owner else config, key)
        if value is not None:
            lines.append(f"{key}: {_TYPES[type_name][1](value)}")
    return "\n".join(lines) + "\n"
