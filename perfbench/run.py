"""qlab benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload suite-default --seed 0 --seconds 45 --trace 0

Run from the root of a qlab checkout; the program is imported from its
src/ directory.  With --trace 0 the last line of stdout is one JSON object
with the end-to-end metrics; with --trace 1 it carries the per-layer
metrics of a traced pass instead.  Lines before it are for people: the
run's environment, every metric with its unit, and any failure.  The exit
code is 0 only when every output check passed.  Times are rescaled to a
reference host speed by the gauge in gauge.py; the raw times are printed
beside them.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import gauge

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

SETUP_SAMPLES = 5  # before the passes, and as many after them
WORKER_TIMEOUT_S = 170


def run_pass(workload: str, seed: int, size: str, trace: int, checks: bool) -> dict:
    """One pass in a fresh interpreter; with checks, its untimed output checks too."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), size, str(trace), str(int(checks))]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def import_seconds(count: int) -> list:
    """Times of `import qlab.cli` (which builds the registry), each in a
    fresh interpreter, as (raw, at the reference speed) pairs; the gauge
    is sampled in the same interpreter right after the import."""
    code = ("import time; t = time.perf_counter(); import qlab.cli; d = time.perf_counter() - t; "
            "import gauge; print(d, gauge.sample())")
    path = [str(SRC), str(HERE), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        raw, gauge_s = map(float, proc.stdout.split())
        samples.append((raw, gauge.at_ref_speed(raw, gauge_s)))
    return samples


def source_revision() -> dict:
    """Digest of the program's source tree, plus the git commit when the
    checkout is a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "qlab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    revision = {"src_sha256": h.hexdigest()[:16], "git": None}
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        revision["git"] = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        pass
    return revision


def _stored_digests(workload: str, seed: int, seedless: tuple):
    if not DIGESTS.exists():
        return None
    by_seed = json.loads(DIGESTS.read_text()).get(workload, {})
    return by_seed.get("any" if workload in seedless else str(seed))


def _check_digests(passes: list, stored, failures: list) -> None:
    first = passes[0]["digests"]
    for i, p in enumerate(passes[1:], 1):
        for name, value in p["digests"].items():
            if first.get(name) != value:
                failures.append(f"digest {name} of pass {i} differs from pass 0")
    if stored is not None:
        for name, value in stored.items():
            if first.get(name) != value:
                failures.append(f"digest {name} differs from the stored reference")


def _percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="start another pass only while it is expected to end within this budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the smoke test; only full runs are compared with stored digests")
    args = parser.parse_args(argv)

    if not (SRC / "qlab" / "__init__.py").is_file():
        print(f"run.py: no qlab sources under {SRC}; run from a qlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    why = workloads.WORKLOADS[args.workload][0]
    import qlab.rational

    print(f"# workload {args.workload}: {why}")
    print("# env " + json.dumps({
        "seed": args.seed,
        "size": args.size,
        "backend": qlab.rational.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "revision": source_revision(),
        "load": "one single-threaded closed loop",
    }))
    stored = None
    if args.size == "full":
        stored = _stored_digests(args.workload, args.seed, workloads.SEEDLESS)
        print(f"# stored digests for this seed: {'yes' if stored else 'none'}")

    failures: list = []
    if args.trace:
        # One after the other; both are rescaled to the reference speed.
        untraced, traced = passes = [run_pass(args.workload, args.seed, args.size, 0, checks=True),
                                     run_pass(args.workload, args.seed, args.size, 1, checks=False)]
        # The tracer's clock reads are raw; rescale them by the pass's mean speed.
        speed = traced["wall_s"] / traced["raw_wall_s"]
        metrics = {name: (value * speed if unit == "s" else value, unit)
                   for name, (value, unit) in traced["layers"].items()}
        metrics["cli.bytes_out"] = (traced["cli_bytes"], "bytes")
        metrics["trace.overhead_frac"] = (traced["wall_s"] / untraced["wall_s"] - 1, "ratio")
    else:
        import_seconds(1)  # writes the bytecode cache; not a sample
        setup = import_seconds(SETUP_SAMPLES)
        passes = []
        started = time.perf_counter()
        while True:
            pass_started = time.perf_counter()
            passes.append(run_pass(args.workload, args.seed, args.size, 0, checks=not passes))
            now = time.perf_counter()
            if now - started + (now - pass_started) > args.seconds:
                break
        setup += import_seconds(SETUP_SAMPLES)
        op_s = [t for p in passes for t in p["op_s"]]
        metrics = {
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "op_ms_p50": (statistics.median(op_s) * 1000, "ms"),
            "setup_s": (statistics.median(at_ref for _, at_ref in setup), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        }
    for p in passes:
        failures.extend(p["failures"])
    _check_digests(passes, stored, failures)

    attempted = sum(len(p["op_s"]) for p in passes)
    print(f"# {len(passes)} pass(es), {attempted} operations, {len(failures)} failed")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    gauges = [g for p in passes for g in p["gauge_s"]]
    print(f"# raw wall_s = {statistics.median(p['raw_wall_s'] for p in passes):.6g} s; gauge "
          f"{statistics.median(gauges) * 1000:.4g} ms median, {min(gauges) * 1000:.4g}-"
          f"{max(gauges) * 1000:.4g} ms over {len(gauges)} samples (reference {gauge.REF_S * 1000:g} ms)")
    if not args.trace:
        print(f"# raw setup_s = {statistics.median(raw for raw, _ in setup):.6g} s")
        print(f"# op_ms_p50 is over n={len(op_s)} operations")
        if len(op_s) >= 100:
            print(f"op_ms_p90 = {_percentile(op_s, 90) * 1000:.6g} ms (n={len(op_s)})")
        print(f"fail_frac = {len(failures) / attempted:.6g} ratio")
    print("# digests " + json.dumps(passes[0]["digests"], sort_keys=True))
    for message in failures:
        print(f"# FAILED: {message}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
