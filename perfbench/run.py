"""The firmdispatch benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it builds nothing, since the CLI runs
straight from ``src``.  Each workload is a fixed list of ``firmdispatch``
commands (see ``workloads.py`` and BENCHMARK.json), run one child process at
a time with no threads, as a user on a small machine would run them.

One run:

1. writes the workload's inputs from the seed into ``.perfbench_work/``;
2. times set-up (fresh-interpreter import plus dataset load) ten times, each
   between two runs of a fixed reference program, and keeps the median of the
   last nine, each scaled to the machine speed its two reference runs show;
3. runs the workload's commands back to back, one pass after another, with
   a fixed reference program timed between passes, for about ``--seconds``
   seconds; ``wall_s`` is the median pass, each scaled to the machine speed
   its surrounding reference runs show (the raw times are in the detail);
4. checks the outputs (``checks.py``): the first pass's in full, re-running
   the best mix of every search through ``simulate``, and every later
   pass's for identical bytes; each CLI invocation that exits non-zero or
   fails a check counts in ``failed``;
5. with ``--trace 1``, runs one more pass under ``tracer.py``, checks that
   its outputs are byte-identical to the untraced ones, and reports the
   per-layer metrics instead of the end-to-end ones.

The last line of standard output is the result, one JSON object; the line
before it records the machine, the backend and every pass.  Exit code 1
means the benchmark itself could not finish, 2 that its inputs are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = (
    "src/firmdispatch/cli.py",
    "fixtures/week.conf",
    *(f"fixtures/{name}" for name in workloads.DATASET.values()),
)
SETUP_RUNS = 10  # the first only warms the import path and is not counted
KERNEL_REPEATS = 5
DEADLINE_MARGIN_S = 140  # beyond --seconds: set-up, checks and the traced pass
CRITERION_10_LIMIT_PERCENT = 102.0
CLI = "import sys; from firmdispatch.cli import main; sys.exit(main())"  # the console script
KERNEL = "_kernels.balance_loop"

# On a shared virtual machine the CPU's speed can move by half, within seconds
# and over minutes, as other tenants load the same cores; CPU time moves with
# it.  A fixed reference program, which does not touch firmdispatch, runs
# between passes: a fresh interpreter imports numpy and steps through an array
# one element at a time, as the balance loop does.  Times are reported at the
# speed where it takes REFERENCE_NOMINAL_S, using the reference runs around
# each pass.
REFERENCE = """\
import numpy as np
a = np.linspace(0.0, 1.0, 20000)
s = 0.0
for _ in range(12):
    for i in range(a.shape[0]):
        if a[i] > 0.5:
            s += a[i]
        else:
            s -= a[i]
"""
REFERENCE_NOMINAL_S = 0.3
REFERENCE_SHARE = 0.15  # reference time between passes, as a share of a pass


class BenchError(Exception):
    """The benchmark could not take a measurement."""


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float
    rss_mb: float


class Bench:
    """Runs one workload's commands and counts operations and failures."""

    def __init__(self, workload: workloads.Workload, work: Path) -> None:
        self.workload = workload
        self.work = work
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.logs = work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, dict[str, str]] = {}

    # -- child processes -----------------------------------------------------

    def run_child(self, argv: list[str], log: Path) -> Child:
        """Run one child to completion; wall time covers its whole life."""
        with open(log, "w", encoding="utf-8") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.work, env=self.env, stdout=fh, stderr=subprocess.STDOUT
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0)

    def probe(self, *args: str) -> str:
        """Run ``probe.py`` with ``args``; returns the last line it printed."""
        log = self.logs / f"probe-{args[0]}.log"
        child = self.run_child([sys.executable, str(HERE / "probe.py"), *args], log)
        text = log.read_text(encoding="utf-8").strip()
        if child.code != 0:
            raise BenchError(f"probe {' '.join(args)} exited {child.code}: {text[-500:]}")
        return text.splitlines()[-1] if text else ""

    def reference_gap(self, pass_s: float) -> list[float]:
        """Time the reference program until it has run for REFERENCE_SHARE of
        ``pass_s``, and at least once."""
        times: list[float] = []
        while not times or sum(times) < REFERENCE_SHARE * pass_s:
            child = self.run_child([sys.executable, "-c", REFERENCE], self.logs / "reference.log")
            if child.code != 0:
                raise BenchError(f"reference program exited {child.code}")
            times.append(child.wall_s)
        return times

    def setup_times(self, config: str) -> tuple[list[float], list[float]]:
        """Time set-up SETUP_RUNS times with a reference run before the first
        and after each; returns the set-up and the reference times."""
        references = self.reference_gap(0.0)
        setups = []
        for _ in range(SETUP_RUNS):
            setups.append(float(self.probe("setup", config)))
            references += self.reference_gap(0.0)
        return setups, references

    def cli_argv(self, args, config: str, out_name: str, spans: Path | None = None) -> list[str]:
        if spans is None:
            head = [sys.executable, "-c", CLI]
        else:
            head = [sys.executable, str(HERE / "tracer.py"), str(spans)]
        paths = ["--config", str(self.inputs / config), "--out", str(self.out / out_name)]
        return [*head, *args, *paths]

    # -- operations and checks -----------------------------------------------

    def op(self, label: str, problems: list[str]) -> None:
        """Count one CLI invocation, failed if it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def _output_problems(self, cmd: workloads.Command, child: Child) -> list[str]:
        if child.code != 0:
            return [f"exit code {child.code}, see {self.logs / (cmd.name + '.log')}"]
        out = self.out / cmd.name
        found = checks.digests(out)
        if cmd.name in self.reference:
            if found != self.reference[cmd.name]:
                return ["outputs differ from the first run's bytes"]
            return []
        self.reference[cmd.name] = found
        problems = []
        for name in found:
            if name.startswith("trace"):
                problems += checks.trace_balance(out / name)
        if cmd.kind == workloads.SEARCH:
            problems += checks.best_is_trajectory_minimum(
                out / "report.csv", out / "trajectory.csv"
            )
        return problems

    def run_pass(self, spans_dir: Path | None = None) -> tuple[float, list[Child]]:
        """Run every command once; wall time spans first start to last exit."""
        for cmd in self.workload.commands:
            shutil.rmtree(self.out / cmd.name, ignore_errors=True)
        children = []
        start = time.perf_counter()
        for cmd in self.workload.commands:
            spans = None if spans_dir is None else spans_dir / f"{cmd.name}.json"
            argv = self.cli_argv(cmd.args, cmd.config, cmd.name, spans)
            children.append(self.run_child(argv, self.logs / f"{cmd.name}.log"))
        wall = time.perf_counter() - start
        for cmd, child in zip(self.workload.commands, children):
            label = f"{cmd.name}{' (traced)' if spans_dir else ''}"
            self.op(label, self._output_problems(cmd, child))
        return wall, children

    def _simulate_unserved(
        self, name: str, base_config: str, mix: dict[str, float]
    ) -> tuple[list[str], float]:
        """Simulate ``mix`` on a search's configuration; returns problems and
        the trace's unserved total."""
        base = (self.inputs / base_config).read_text(encoding="utf-8")
        mix_keys = {key: repr(value) for key, value in mix.items()}
        workloads.write_config(self.inputs / f"{name}.conf", base, **mix_keys)
        argv = self.cli_argv(("simulate", "--trace"), f"{name}.conf", name)
        child = self.run_child(argv, self.logs / f"{name}.log")
        if child.code != 0:
            return [f"exit code {child.code}"], float("nan")
        return [], checks.unserved_total(self.out / name / "trace.csv")

    def check_best_mixes(self) -> None:
        """Re-run each search's best mix: it serves all demand, and loses
        load with 0.01 GW less dispatch."""
        for cmd in self.workload.commands:
            if cmd.kind != workloads.SEARCH or cmd.name not in self.reference:
                continue
            mix = checks.reported_mix(self.out / cmd.name / "report.csv")
            problems, unserved = self._simulate_unserved(f"{cmd.name}-best", cmd.config, mix)
            if not problems and unserved != 0.0:
                problems = [f"best mix {mix} leaves {unserved!r} GW-steps unserved"]
            self.op(f"{cmd.name}-best", problems)
            cut = dict(mix, dispatch_gw=mix["dispatch_gw"] - checks.DISPATCH_CUT_GW)
            if cut["dispatch_gw"] < 0.0:
                continue
            problems, unserved = self._simulate_unserved(f"{cmd.name}-cut", cmd.config, cut)
            if not problems and not unserved > 0.0:
                problems = [
                    f"best mix with {checks.DISPATCH_CUT_GW} GW less dispatch serves all demand"
                ]
            self.op(f"{cmd.name}-cut", problems)

    def check_criterion_10(self) -> float:
        """Criterion 10's exactly sized pv-only mix fails by 102 %; returns the percent."""
        workloads.write_config(self.inputs / "criterion10.conf", **workloads.CRITERION_10)
        argv = self.cli_argv(("scenario", "rigidity"), "criterion10.conf", "criterion10")
        child = self.run_child(argv, self.logs / "criterion10.log")
        if child.code != 0:
            self.op("criterion10", [f"exit code {child.code}"])
            return float("nan")
        percent = checks.report_values(self.out / "criterion10" / "report.csv")["Percent of Normal"]
        problems = []
        if percent > CRITERION_10_LIMIT_PERCENT + 1e-9:
            problems = [f"exactly sized pv-only mix survives to {percent!r} % of demand"]
        self.op("criterion10", problems)
        return percent

    def candidates(self) -> tuple[int, dict[str, float]]:
        """Candidate systems one pass assesses, as its outputs show them: each
        trajectory row of a search, and the one mix of a rigidity or simulate
        run.  Also returns each rigidity run's failure point in percent of
        demand."""
        total, percent = 0, {}
        for cmd in self.workload.commands:
            out = self.out / cmd.name
            if cmd.name not in self.reference:
                continue
            if cmd.kind == workloads.SEARCH:
                total += checks.trajectory_rows(out / "trajectory.csv")
            else:
                total += 1
            if cmd.kind == workloads.RIGIDITY:
                percent[cmd.name] = checks.report_values(out / "report.csv")["Percent of Normal"]
        return total, percent


def scaled(seconds: float, references: list[float]) -> float:
    """``seconds`` at the machine speed where the reference program takes
    REFERENCE_NOMINAL_S, given the reference times measured around it."""
    return seconds * REFERENCE_NOMINAL_S / statistics.fmean(references)


def layer_metrics(records: list[dict], children: list[Child]) -> dict[str, float]:
    """Per-layer figures of one traced pass, summed over its processes."""
    spans: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    nested: dict[str, Counter] = defaultdict(Counter)
    optimize: Counter = Counter()
    totals: Counter = Counter()
    for record, child in zip(records, children):
        for name, values in record["spans"].items():
            spans[name] = [a + b for a, b in zip(spans[name], values)]
        for outer, inner in record["nested"].items():
            nested[outer].update(inner)
        optimize.update(record["optimize"])
        for key in ("import_s", "main_s", "kernel_steps", "series_rows", "evaluate_repeats"):
            totals[key] += record[key]
        totals["outside_main_s"] += child.wall_s - record["main_s"]

    def calls(name: str) -> int:
        return int(spans[name][0])

    def total_s(name: str) -> float:
        return spans[name][1]

    def self_s(name: str) -> float:
        return spans[name][2]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    evaluations = calls("optimizer.evaluate")
    return {
        "kernels.passes": calls(KERNEL),
        "kernels.busy_s": total_s(KERNEL),
        "kernels.ns_per_step": ratio(total_s(KERNEL) * 1e9, totals["kernel_steps"]),
        "dispatch.simulate.calls": calls("dispatch.simulate"),
        "dispatch.simulate.self_s": self_s("dispatch.simulate"),
        "dispatch.size_dispatch.calls": calls("dispatch.size_dispatch"),
        "dispatch.size_dispatch.self_s": self_s("dispatch.size_dispatch"),
        "dispatch.write_trace_csv.s": total_s("dispatch.write_trace_csv"),
        "costing.system_cost.calls": calls("costing.system_cost"),
        "costing.system_cost.s": total_s("costing.system_cost"),
        "optimizer.optimize.s": total_s("optimizer.optimize"),
        "optimizer.evaluate.calls": evaluations,
        "optimizer.evaluate.self_s": self_s("optimizer.evaluate"),
        "optimizer.evaluations": optimize["evaluations"],
        "optimizer.refine_evaluations": optimize["refine_evaluations"],
        "optimizer.coarse_s": optimize["coarse_s"],
        "optimizer.refine_s": optimize["refine_s"],
        "optimizer.passes_per_evaluation": ratio(nested["optimizer.evaluate"][KERNEL], evaluations),
        "optimizer.repeat_physics_share": ratio(totals["evaluate_repeats"], evaluations),
        "optimizer.write_trajectory_csv.s": total_s("optimizer.write_trajectory_csv"),
        "scenarios.run_pv_only.s": total_s("scenarios.run_pv_only"),
        "scenarios.pv_only.probes": nested["scenarios.run_pv_only"]["dispatch.simulate"],
        "scenarios.run_rigidity.s": total_s("scenarios.run_rigidity"),
        "scenarios.rigidity.probes": nested["scenarios.run_rigidity"]["dispatch.simulate"],
        "scenarios.write_report_csv.s": total_s("scenarios.write_report_csv")
        + total_s("scenarios.write_rigidity_csv"),
        "profiles.load_series.s": total_s("profiles.load_series"),
        "profiles.load_series.rows": totals["series_rows"],
        "config.parse_config.s": total_s("config.parse_config"),
        "cli.import_s": totals["import_s"],
        "cli.main.s": totals["main_s"],
        "cli.outside_main_s": totals["outside_main_s"],
    }


def environment(bench: Bench) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
            )
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    nproc = len(os.sched_getaffinity(0))
    return {"commit": commit, "nproc": nproc, **json.loads(bench.probe("env"))}


def run(args: argparse.Namespace) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.prepare(args.workload, args.seed, ROOT, work / "inputs")
    bench = Bench(workload, work)
    if workload.drought_year:
        bench.probe("year", str(args.seed), str(bench.inputs))

    setup_runs, setup_references = bench.setup_times(str(bench.inputs / workload.setup_config))
    setup_s = statistics.median(
        scaled(s, setup_references[k : k + 2]) for k, s in enumerate(setup_runs) if k > 0
    )

    # Passes alternate with reference gaps: gaps[k] and gaps[k + 1] bracket
    # pass k.  The first pass sets the reference outputs and gets the full
    # checks, which are not timed.
    gaps = [bench.reference_gap(0.0)]
    wall, children = bench.run_pass()
    walls = [wall]
    gaps.append(bench.reference_gap(wall))
    rss_mb = max(c.rss_mb for c in children)
    candidates, rigidity_percent = bench.candidates()
    bench.check_best_mixes()
    if workload.criterion_10:
        rigidity_percent["criterion10"] = bench.check_criterion_10()
    while True:
        measured = sum(walls) + sum(map(sum, gaps))
        if measured * (len(walls) + 1) / len(walls) > args.seconds:
            break
        wall, children = bench.run_pass()
        walls.append(wall)
        gaps.append(bench.reference_gap(wall))
        rss_mb = max([rss_mb] + [c.rss_mb for c in children])
    wall_s = statistics.median(scaled(w, gaps[k] + gaps[k + 1]) for k, w in enumerate(walls))

    values = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "candidates_per_s": candidates / wall_s,
        "peak_rss_mb": rss_mb,
    }
    traced_wall = None
    if args.trace:
        spans_dir = work / "spans"
        spans_dir.mkdir()
        traced_wall, children = bench.run_pass(spans_dir)
        gaps.append(bench.reference_gap(traced_wall))
        records = []
        for cmd in workload.commands:
            path = spans_dir / f"{cmd.name}.json"
            if not path.exists():
                raise BenchError(f"traced {cmd.name} wrote no spans")
            records.append(json.loads(path.read_text(encoding="utf-8")))
        values = layer_metrics(records, children)
        values["kernels.ns_per_step.year_pass"] = float(
            bench.probe("kernel", str(args.seed), str(KERNEL_REPEATS))
        )
        values["trace.overhead_s"] = scaled(traced_wall, gaps[-2] + gaps[-1]) - wall_s

    defined = spec["per_layer" if args.trace else "end_to_end"]
    mismatch = sorted({m["name"] for m in defined} ^ set(values))
    if mismatch:
        raise BenchError(f"metrics and BENCHMARK.json disagree on {mismatch}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "env": environment(bench),
        "passes": len(walls),
        "pass_wall_s": walls,
        "reference_s": gaps,
        "traced_pass_s": traced_wall,
        "setup_runs_s": setup_runs,
        "setup_reference_s": setup_references,
        "candidates_per_pass": candidates,
        "rigidity_failure_percent": rigidity_percent,
        "problems": bench.problems,
    }
    print(json.dumps({"detail": detail}))
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in defined},
    }


def _deadline(signum, frame):
    raise BenchError("no result in time")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (*REQUIRED, "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a firmdispatch checkout, no {', '.join(missing)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(int(args.seconds) + DEADLINE_MARGIN_S)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
