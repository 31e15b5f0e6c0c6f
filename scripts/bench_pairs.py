#!/usr/bin/env python3
"""Compare two revisions with the benchmark, in alternating pairs.

Exports both revisions with `git archive` into temporary trees, then runs
`perfbench/run.py` of each tree on every workload that BENCHMARK.json
declares, k pairs per workload, all with seed 0.  Pair i runs every
workload once on each side, base first when i is even and change first
when it is odd, so a drift in host speed does not favour one side.  Writes BENCH_<label>.json with every
pair's end-to-end metrics, the median and IQR of each metric per side,
how many pairs the change won, the host (backend, Python version, nproc),
both revisions and each side's perfbench `src_sha256` (the digest of
src/qlab that run.py reports).

Cost: a full-size pair of both declared workloads takes about 3 min
(each run.py call is about 45 s), so ten pairs take about 30 min.  A
tiny pair gives each run.py call a budget of 1 s, as perfbench's own smoke
test does, and takes about 20 s.

    python3 scripts/bench_pairs.py --base HEAD~1 --change HEAD --pairs 10 --label zs1
    python3 scripts/bench_pairs.py --base HEAD --change HEAD --pairs 1 --size tiny --label smoke

Run from inside the git repository.  A revision is anything `git archive`
takes: a commit, a branch, or a tree from `git write-tree` for staged but
uncommitted work.

SIGTERM stops the script as an exit does: each run.py runs in a process
group of its own, which is killed with the workers it started, and the
temporary trees are removed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 0


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def export(rev: str, into: pathlib.Path) -> str:
    """Unpack rev into the directory into; return its full object name."""
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(into, **safe)
    return git("rev-parse", rev).decode().strip()


def run_once(tree: pathlib.Path, workload: str, size: str, seconds: float) -> dict:
    """One run.py call in tree: its result line, plus the env line's fields."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", "0", "--size", size]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate()
    except BaseException:  # an exit before run.py's: its workers go with it
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = out.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"bench_pairs: {workload} in {tree} printed no result:\n{out}{err}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# env "):
            result["env"] = json.loads(line[len("# env "):])
    print(f"  {tree.name:6} {workload}: correct={result['correct']} " + ", ".join(
        f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()), flush=True)
    return result


def recorded_argv(argv: list) -> list:
    """argv without --out-dir and its value, in any form argparse takes
    (--out-dir X, --out-dir=X, or abbreviated): where the report was
    written is a local path, not part of what was measured."""
    kept, args = [], iter(argv)
    for arg in args:
        name, eq, _ = arg.partition("=")
        if name.startswith("--o") and "--out-dir".startswith(name):
            if not eq:
                next(args, None)  # its value
        else:
            kept.append(arg)
    return kept


def spread(values: list) -> dict:
    """Median and quartiles (inclusive method) of one side's values."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(pairs: list, declared: list) -> dict:
    out = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        b, c = spread(base), spread(change)
        gap = b["median"] - c["median"] if lower else c["median"] - b["median"]
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "base": b,
            "change": c,
            "change_wins": wins,
            "pairs": len(pairs),
            # the change's gain, in the metric's unit; negative is a loss
            "median_gain": gap,
            "gain_exceeds_base_iqr": gap > b["iqr"],
        }
    return out


def _exit(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit)  # so the temporary trees and run.py's group go too
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="Cost: about 3 min per full-size pair of both declared workloads "
               "(10 pairs: about 30 min); about 20 s per tiny pair.",
    )
    parser.add_argument("--base", required=True, help="the revision compared against")
    parser.add_argument("--change", required=True, help="the revision measured")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload (k)")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--out-dir", default=str(ROOT), help="where BENCH_<label>.json goes")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is run.py's smoke-test size")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.size == "full" else 1
    declared = [w["name"] for w in spec["workloads"]]

    report = {
        "label": args.label,
        "argv": recorded_argv(sys.argv[1:] if argv is None else argv),
        "seed": SEED,
        "size": args.size,
        "seconds": seconds,
        "pairs": args.pairs,
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        # directory names of equal length: on a 2-vCPU VM with Python 3.11 the
        # path's length alone moved suite-default's peak_rss_mb by 0.2-0.3 MB
        trees = {"base": pathlib.Path(tmp, "base"), "change": pathlib.Path(tmp, "chng")}
        for side, tree in trees.items():
            tree.mkdir()
            report[side] = {"rev": getattr(args, side), "object": export(getattr(args, side), tree)}
        pairs = {workload: [] for workload in declared}
        for i in range(args.pairs):
            # base first in even pairs, change first in odd ones
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for workload in declared:
                print(f"{workload}: pair {i + 1}/{args.pairs}", flush=True)
                runs = {side: run_once(trees[side], workload, args.size, seconds)
                        for side in order}
                pairs[workload].append({
                    "first": order[0],
                    **{side: {n: m["value"] for n, m in runs[side]["metrics"].items()}
                       for side in ("base", "change")},
                    "correct": {side: runs[side]["correct"] for side in ("base", "change")},
                })
        for side in ("base", "change"):
            env = runs[side]["env"]
            report[side]["src_sha256"] = env["revision"]["src_sha256"]
        report["host"] = {k: env[k] for k in ("backend", "python", "nproc")}
        report["workloads"] = {
            workload: {"pairs": found, "summary": summarise(found, spec["end_to_end"])}
            for workload, found in pairs.items()
        }

    out = pathlib.Path(args.out_dir, f"BENCH_{args.label}.json")
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    for workload, entry in report["workloads"].items():
        for name, s in entry["summary"].items():
            print(f"{workload} {name}: base {s['base']['median']:.4g} "
                  f"(IQR {s['base']['iqr']:.3g}), change {s['change']['median']:.4g}; "
                  f"change won {s['change_wins']}/{s['pairs']}")
    ok = all(p["correct"]["base"] and p["correct"]["change"]
             for entry in report["workloads"].values() for p in entry["pairs"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
