"""One pass of one workload in this fresh interpreter; prints it as JSON.

    python3 perfbench/worker.py WORKLOAD SEED SIZE TRACE CHECKS

run.py starts one of these per pass, so every pass pays qlab's cold
start (empty q-binomial cache) as a `qlab` command does, and peak memory
is that of the process that ran the workload alone.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    name, seed, size, trace, checks = sys.argv[1:]
    tracer = None
    if trace == "1":
        tracer = Tracer()
        tracer.install()
    _, run, sizes = workloads.WORKLOADS[name]
    p = workloads.Pass(int(seed), sizes[size], tracer, checks == "1")
    run(p)
    print(json.dumps({
        "wall_s": p.wall_s,
        "raw_wall_s": p.raw_wall_s,
        "gauge_s": p.clock.samples,
        "op_s": p.op_s,
        "failures": p.failures,
        "digests": p.digests,
        "peak_rss_mb": p.peak_rss_mb,
        "cli_bytes": p.cli_bytes,
        "layers": p.layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
