"""scripts/bench_pairs.py: its recorded argv, and one tiny pair of the declared workloads."""

import importlib.util
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_the_recorded_argv_leaves_out_the_output_directory():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    run = ["--base", "HEAD~1", "--change", "HEAD", "--label", "x"]
    for given in (["--out-dir", "/tmp/a b"], ["--out-dir=/tmp/a"], ["--out", "/tmp/a"], ["--o=/tmp/a"]):
        assert bench_pairs.recorded_argv(run[:2] + given + run[2:]) == run
    assert bench_pairs.recorded_argv(run + ["--size", "tiny"]) == run + ["--size", "tiny"]


def test_bench_pairs_writes_a_report_at_tiny_size(tmp_path):
    if shutil.which("git") is None or subprocess.run(
        ["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT, capture_output=True
    ).returncode:
        pytest.skip("needs a git checkout with a commit")
    cmd = [
        sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
        "--base", "HEAD", "--change", "HEAD", "--pairs", "1", "--size", "tiny",
        "--label", "smoke", "--out-dir", str(tmp_path),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert report["base"]["object"] == report["change"]["object"]
    assert report["base"]["src_sha256"] == report["change"]["src_sha256"]
    assert set(report["host"]) == {"backend", "python", "nproc"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(report["workloads"]) == {w["name"] for w in spec["workloads"]}
    for entry in report["workloads"].values():
        (pair,) = entry["pairs"]
        assert pair["correct"] == {"base": True, "change": True}
        assert set(entry["summary"]) == {m["name"] for m in spec["end_to_end"]}
        for name, summary in entry["summary"].items():
            assert summary["pairs"] == 1 and 0 <= summary["change_wins"] <= 1
            assert summary["base"]["median"] == pair["base"][name]
            assert summary["base"]["iqr"] == 0
