"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs end to end through run.py, untraced and traced, and
must pass its own checks and print exactly the metrics BENCHMARK.json
declares.  The canary must catch a comparison that stops early, and the
benchmark must refuse to run without the program's sources.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_and_reports_declared_metrics(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_canary_catches_a_comparison_that_stops_early(monkeypatch):
    from qlab.series import QSeries

    compare = QSeries.first_difference

    def first_half_only(self, other):
        found = compare(self, other)
        return found if found is not None and found <= self.order // 2 else None

    monkeypatch.setattr(QSeries, "first_difference", first_half_only)
    caught = 0
    for seed in range(8):
        p = workloads.Pass(seed, workloads.WORKLOADS["deep-T80"][2]["tiny"])
        p.canary(["R05", "R09", "R40"], 10, [2])
        caught += any(f.startswith("canary") for f in p.failures)
    assert caught >= 1  # perturbations past q^5 are missed by the broken compare


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("oracle-tables", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
