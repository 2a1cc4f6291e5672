"""Self-tests of the benchmark: planted faults must count as failed operations.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _week_bench(tmp_path: Path) -> run.Bench:
    workload = workloads.prepare("week-sweep", 1, run.ROOT, tmp_path / "inputs")
    return run.Bench(workload, tmp_path)


def _result(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "week-sweep",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_printed_metric_is_defined_in_benchmark_json():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _result(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        defined = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == defined


def test_best_mix_with_unserved_energy_counts_as_failed(tmp_path):
    bench = _week_bench(tmp_path)
    bench.run_pass()
    assert bench.failed == 0
    report = bench.out / "optimize" / "report.csv"
    mix = checks.reported_mix(report)
    text = report.read_text(encoding="utf-8")
    planted = text.replace(repr(mix["dispatch_gw"]), repr(mix["dispatch_gw"] - 1.0))
    assert planted != text
    report.write_text(planted, encoding="utf-8")
    bench.check_best_mixes()
    assert any(p.startswith("optimize-best:") and "unserved" in p for p in bench.problems)
    assert bench.failed >= 1


def test_output_that_changes_between_runs_counts_as_failed(tmp_path):
    bench = _week_bench(tmp_path)
    bench.run_pass()
    assert bench.failed == 0
    # the same commands now write other bytes, as a nondeterministic program would
    conf = bench.inputs / "simulate.conf"
    with open(conf, "a", encoding="utf-8") as fh:
        fh.write("fuel_price_usd_per_gj: 21\n")
    bench.run_pass()
    assert bench.failed == 1
    assert bench.problems == ["simulate: outputs differ from the first run's bytes"]


def test_trace_that_does_not_balance_is_reported(tmp_path):
    trace = tmp_path / "trace.csv"
    header = "step,demand_gw," + ",".join(checks.SUPPLY_COLUMNS)
    trace.write_text(f"{header}\n0,10.0,1.0,2.0,3.0,4.0,0.0\n1,10.0,1.0,2.0,3.0,3.5,0.0\n")
    problems = checks.trace_balance(trace)
    assert len(problems) == 1 and "step 1" in problems[0]


def test_checkout_without_the_program_exits_nonzero_without_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "week-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
