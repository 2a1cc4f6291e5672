"""Run the firmdispatch CLI once with timing wrappers around every layer.

    python3 perfbench/tracer.py SPANS_JSON firmdispatch-arguments...

The wrappers sit outside the program: after import, each public function of
the ``_kernels``, ``dispatch``, ``costing``, ``optimizer``, ``scenarios``,
``profiles``, ``config`` and ``cli`` modules, plus ``_kernels.balance_loop``,
is replaced by a timing wrapper under every module attribute that refers to
it, so calls through ``from .dispatch import simulate`` are caught too.
Timings stay in memory and are written to SPANS_JSON once, when the command
ends.  The exit code is the CLI's own.

Per span name the file holds ``[calls, total_s, self_s]``; self time is the
span's duration minus the time of the wrapped calls made inside it.  It also
holds how often each span ran inside each other span, the steps the kernel
stepped through, the coarse/refine split of every ``optimize`` call, and how
many ``evaluate`` calls repeated wind, PV, battery and baseload inputs that
an earlier ``evaluate`` in the process had already simulated.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

_T0 = time.perf_counter()
import firmdispatch.cli  # noqa: E402  (timed as the CLI's import cost)

IMPORT_S = time.perf_counter() - _T0

from firmdispatch import (  # noqa: E402
    _kernels,
    cli,
    config,
    costing,
    dispatch,
    optimizer,
    profiles,
    scenarios,
)

LAYERS = (_kernels, dispatch, costing, optimizer, scenarios, profiles, config, cli)
KERNEL = "_kernels.balance_loop"
_GRID_AXIS = optimizer.grid_axis  # unwrapped, for sizing the coarse grid


class Recorder:
    """In-memory span totals for one process."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}
        self.nested: dict[str, dict[str, int]] = {}
        self.stack: list[list] = []  # [name, start, child_s]
        self.kernel_steps = 0
        self.series_rows = 0
        self.optimize = {
            "coarse_s": 0.0, "refine_s": 0.0, "evaluations": 0, "refine_evaluations": 0
        }
        self.evaluate_repeats = 0
        self._seen_physics: set = set()
        self._open_optimize: list[dict] = []

    def wrap(self, name: str, fn):
        enter, leave = {
            KERNEL: (self._enter_kernel, None),
            "optimizer.optimize": (self._enter_optimize, self._leave_optimize),
            "optimizer.evaluate": (self._enter_evaluate, self._leave_evaluate),
            "profiles.load_series": (None, self._leave_load_series),
        }.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(args, kwargs)
            frame = [name, time.perf_counter(), 0.0]
            self.stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self.stack.pop()
                duration = end - frame[1]
                totals = self.spans.setdefault(name, [0, 0.0, 0.0])
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[2]
                if self.stack:
                    self.stack[-1][2] += duration
                for outer in {f[0] for f in self.stack}:
                    inner = self.nested.setdefault(outer, {})
                    inner[name] = inner.get(name, 0) + 1
                if leave is not None:
                    leave(result, end)

        return wrapper

    # -- layer-specific counters -------------------------------------------

    def _enter_kernel(self, args, kwargs) -> None:
        demand = args[0] if args else kwargs["demand"]
        self.kernel_steps += int(demand.shape[0])

    def _enter_optimize(self, args, kwargs) -> None:
        space = args[0] if args else kwargs["space"]
        n_coarse = len(space.battery_hours)
        for axis in (space.wind_gw, space.pv_gw, space.battery_power_gw):
            n_coarse *= len(_GRID_AXIS(*axis))
        self._open_optimize.append(
            {"start": time.perf_counter(), "n_coarse": n_coarse, "evaluated": 0, "cut": None}
        )

    def _leave_optimize(self, result, end: float) -> None:
        call = self._open_optimize.pop()
        cut = call["cut"] if call["cut"] is not None else end
        self.optimize["coarse_s"] += cut - call["start"]
        self.optimize["refine_s"] += end - cut
        if result is not None:
            self.optimize["evaluations"] += result.evaluations
            self.optimize["refine_evaluations"] += max(result.evaluations - call["n_coarse"], 0)

    def _enter_evaluate(self, args, kwargs) -> None:
        candidate = args[0] if args else kwargs["candidate"]
        data = args[1] if len(args) > 1 else kwargs["data"]
        params = args[2] if len(args) > 2 else kwargs.get("params", dispatch.DEFAULT_PARAMS)
        key = (
            candidate.wind_gw,
            candidate.pv_gw,
            candidate.battery_power_gw,
            candidate.battery_hours,
            candidate.baseload_gw,
            candidate.baseload_eaf,
            id(data),
            params,
        )
        if key in self._seen_physics:
            self.evaluate_repeats += 1
        self._seen_physics.add(key)

    def _leave_evaluate(self, result, end: float) -> None:
        # The coarse scan ends with the evaluation of its last grid point.
        if self._open_optimize:
            call = self._open_optimize[-1]
            call["evaluated"] += 1
            if call["evaluated"] == call["n_coarse"]:
                call["cut"] = end

    def _leave_load_series(self, result, end: float) -> None:
        if result is not None:
            self.series_rows += len(result)

    def dump(self, path: str, main_s: float, exit_code: int) -> None:
        record = {
            "import_s": IMPORT_S,
            "main_s": main_s,
            "exit_code": exit_code,
            "spans": self.spans,
            "nested": self.nested,
            "kernel_steps": self.kernel_steps,
            "series_rows": self.series_rows,
            "optimize": self.optimize,
            "evaluate_repeats": self.evaluate_repeats,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def _targets() -> dict[int, tuple[str, str, object]]:
    """Map each function to wrap onto its span name and attribute name."""
    targets = {}
    for module in LAYERS:
        short = module.__name__.rsplit(".", 1)[-1]
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and not attr.startswith("_")
                and value.__module__ == module.__name__
            ):
                targets[id(value)] = (f"{short}.{attr}", attr, value)
    kernel = getattr(_kernels, "balance_loop", None)
    if kernel is not None:
        targets[id(kernel)] = (KERNEL, "balance_loop", kernel)
    return targets


def install(recorder: Recorder) -> None:
    """Replace every wrapped function under each module attribute that holds it."""
    modules = [
        module
        for name, module in sys.modules.items()
        if name == "firmdispatch" or name.startswith("firmdispatch.")
    ]
    for name, attr, fn in _targets().values():
        wrapper = recorder.wrap(name, fn)
        for module in modules:
            if getattr(module, attr, None) is fn:
                setattr(module, attr, wrapper)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    install(recorder)
    code = 1
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        recorder.dump(spans_path, time.perf_counter() - start, code)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
