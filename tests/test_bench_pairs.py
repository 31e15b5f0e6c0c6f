"""scripts/bench_pairs.py: its recorded argv, one tiny pair of the declared
workloads, and a run stopped by SIGTERM."""

import contextlib
import importlib.util
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _needs_git():
    if shutil.which("git") is None or subprocess.run(
        ["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT, capture_output=True
    ).returncode:
        pytest.skip("needs a git checkout with a commit")


def _processes() -> dict:
    """{pid: (ppid, process group, state)} of every process in /proc."""
    found = {}
    for entry in pathlib.Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text() if entry.name.isdigit() else ""
        except OSError:  # it exited while the scan ran
            continue
        if stat:
            state, ppid, pgrp = stat[stat.rindex(")") + 2:].split()[:3]
            found[int(entry.name)] = (int(ppid), int(pgrp), state)
    return found


def _is_worker(pid: int) -> bool:
    try:
        return b"worker.py" in pathlib.Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False


def _until(condition, seconds: float):
    """condition()'s first true value, polled until the time runs out, or None."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        value = condition()
        if value:
            return value
        time.sleep(0.05)
    return None


def test_the_recorded_argv_leaves_out_the_output_directory():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    run = ["--base", "HEAD~1", "--change", "HEAD", "--label", "x"]
    for given in (["--out-dir", "/tmp/a b"], ["--out-dir=/tmp/a"], ["--out", "/tmp/a"], ["--o=/tmp/a"]):
        assert bench_pairs.recorded_argv(run[:2] + given + run[2:]) == run
    assert bench_pairs.recorded_argv(run + ["--size", "tiny"]) == run + ["--size", "tiny"]


def test_bench_pairs_writes_a_report_at_tiny_size(tmp_path):
    _needs_git()
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


def test_sigterm_stops_run_py_and_removes_the_trees(tmp_path):
    _needs_git()
    if not pathlib.Path("/proc/self/stat").exists():
        pytest.skip("reads the process table from /proc")
    temp = tmp_path / "temp"
    temp.mkdir()
    cmd = [
        sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
        "--base", "HEAD", "--change", "HEAD", "--pairs", "1", "--size", "tiny",
        "--label", "sigterm", "--out-dir", str(tmp_path),
    ]
    # a group of its own, so the cleanup below reaches whatever it leaves
    bench = subprocess.Popen(cmd, env=dict(os.environ, TMPDIR=str(temp)), start_new_session=True,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def running_group():
        # run.py leads a process group of its own: wait until a worker runs in it
        if bench.poll() is not None:
            return -1
        table = _processes()
        leaders = {pid for pid, (ppid, _, _) in table.items() if ppid == bench.pid}
        return next((pgrp for pid, (_, pgrp, _) in table.items()
                     if pgrp in leaders and pid != pgrp and _is_worker(pid)), None)

    def group_gone():  # a zombie has exited; only its parent's wait is left
        return all(pgrp != group or state == "Z" for _, pgrp, state in _processes().values())

    group = None
    try:
        group = _until(running_group, 120)
        assert group not in (None, -1), "no worker ran in a process group of run.py's"
        bench.send_signal(signal.SIGTERM)
        code = bench.wait(timeout=60)
        # a worker pass at tiny size lasts about a second, so one left running
        # would still be there
        gone = _until(group_gone, 0.5)
    finally:  # leave nothing running, whatever failed
        for pgid in (bench.pid, group):
            if pgid not in (None, -1):
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(pgid, signal.SIGKILL)
        bench.wait()
    assert code == 128 + signal.SIGTERM
    assert gone, f"processes of run.py's group {group} are still running"
    assert list(temp.iterdir()) == []
    assert not (tmp_path / "BENCH_sigterm.json").exists()
