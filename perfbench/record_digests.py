"""Record the reference output digests that later runs are checked against.

    python3 perfbench/record_digests.py --seeds 0 1 2 3

Runs one untraced full-size pass of every workload (once for the seedless
ones, once per seed for the others) and writes perfbench/digests.json.
Record only from a commit whose outputs are known to be right: a later
run counts any difference from these digests as a failed operation.
"""

import argparse
import json
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    import workloads

    recorded = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    for name in workloads.WORKLOADS:
        seedless = name in workloads.SEEDLESS
        for seed in [0] if seedless else args.seeds:
            result = run.run_pass(name, seed, "full", 0, checks=True)
            if result["failures"]:
                print(f"{name} seed {seed}: not recorded, {result['failures'][:3]}", file=sys.stderr)
                return 1
            recorded.setdefault(name, {})["any" if seedless else str(seed)] = result["digests"]
            print(f"{name} seed {seed}: {result['digests']}", flush=True)
            run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
