#!/usr/bin/env python3
"""Evidence that a refactor left every built side as it was.

Prints three results:

- ``sides``: one SHA-256 over every side that ``harness.build_side`` builds
  in the seed-0 and seed-3 ``run_suite()``, in the deep-T80 set (every
  non-scan identity but R24 at its seed-0 environment, N = 6, T = 80; R24
  enumerates 15.8 M partitions there) and in ``verify`` of R33 and R34 at
  T = 96 and N = 8, 16.  Each side is hashed in build order as its
  identity, side, N and T, then its reduced p/q coefficient strings.
- ``grid``: one SHA-256 over every side of the boundary grid, every non-scan
  identity at T = 6 and N = 1, 2, 3 over the full product of
  {0, 1, -1, 1/2, 2, -7/3} per parameter, each built through ``build_side``;
  a side that raises is hashed as its exception's type and message.
- ``peaks``: tracemalloc's peak above the import, in bytes, after one warm
  run, for the seed-0 suite, the deep-T80 set,
  ``rank_bivariate(6, QSeries.one(80))`` and
  ``crank_rank_extraction_check(8, 96)``; each as it stands, and after a
  ``gc.collect()``, which empties the interpreter's free lists (tuples
  held there count as traced memory).  Each peak is the least of three
  traced runs, as one run reads some tens of bytes apart from the next.
  Peaks are reported, not checked.

Exits 1 when ``sides`` or ``grid`` differs from SIDES or GRID below.  With
--record it checks nothing and writes the hashes it found into SIDES and
GRID, for a change that means to move them.  It runs under
PYTHONHASHSEED=0, starting itself again if needed, so set iteration order
and with it the peaks repeat.  Standard library only; about 2 to 3 min on
2 vCPUs, most of it the 24 traced runs of the peaks.

    python3 scripts/evidence.py
    python3 scripts/evidence.py --record
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import os
import pathlib
import re
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import product

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qlab.identities import harness  # noqa: E402
from qlab.identities.model import FINITE, ParamEnv  # noqa: E402
from qlab.identities.moments import rank_bivariate  # noqa: E402
from qlab.identities.registry import REGISTRY  # noqa: E402
from qlab.series import QSeries  # noqa: E402

SIDES = "56746da563aeeaa5888d70bcc540cc1ded63f12c4d0ee20f35cc5198c4e04f77"
GRID = "97fbc79b06b0cf06713128f519145568b51428aa09de36129ebbd2b6a268d797"

BOUNDARY = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(-7, 3)]
NON_SCAN = sorted(i for i, identity in REGISTRY.items() if not identity.scan_only)


def deep_t80() -> None:
    for identity_id in NON_SCAN:
        if identity_id != "R24":
            harness.run_suite(seed=0, samples_per_identity=1, order=80, ids=[identity_id], n_values=[6])


def extraction() -> None:
    for identity_id in ("R33", "R34"):
        for n_value in (8, 16):
            harness.verify(REGISTRY[identity_id], ParamEnv(), n_value, 96)


def _update(digest, *fields) -> None:
    digest.update("|".join(map(str, fields)).encode() + b"\n")


def sides_hash() -> tuple:
    """(hex digest, side count) over the sides verify builds in the runs above."""
    digest, count, inner = hashlib.sha256(), 0, harness.build_side

    def build_side(identity, side, env, n_value, order):
        nonlocal count
        result = inner(identity, side, env, n_value, order)
        _update(digest, identity.id, side, n_value, order, ",".join(map(str, result.coeffs)))
        count += 1
        return result

    harness.build_side = build_side
    try:
        harness.run_suite(seed=0)
        harness.run_suite(seed=3)
        deep_t80()
        extraction()
    finally:
        harness.build_side = inner
    return digest.hexdigest(), count


def grid_hash() -> tuple:
    """(hex digest, side count) over every side of the boundary grid."""
    digest, count = hashlib.sha256(), 0
    for identity_id in NON_SCAN:
        identity = REGISTRY[identity_id]
        cutoffs = (1, 2, 3) if identity.kind == FINITE else (None,)
        for values in product(BOUNDARY, repeat=len(identity.params)):
            env = ParamEnv(**dict(zip(identity.params, values)))
            for n_value in cutoffs:
                for side, _ in identity.sides:
                    try:
                        result = ",".join(map(str, harness.build_side(identity, side, env, n_value, 6).coeffs))
                    except Exception as err:  # recorded: a side that raises must keep raising the same
                        result = f"{type(err).__name__}: {err}"
                    _update(digest, identity_id, env.sort_key(), side, n_value, result)
                    count += 1
    return digest.hexdigest(), count


PEAK_REPEATS = 3
PEAK_RUNS = {
    "seed-0 suite": harness.run_suite,
    "deep-T80 set": deep_t80,
    "rank_bivariate(6, T=80)": lambda: rank_bivariate(6, QSeries.one(80)),
    "extraction check N=8, T=96": lambda: harness.crank_rank_extraction_check(8, 96),
}


def peak_bytes(run, collect: bool) -> int:
    """tracemalloc's peak, in bytes, as the least of PEAK_REPEATS runs, each
    traced from its own start after the import."""
    peaks = []
    for _ in range(PEAK_REPEATS):
        if collect:
            gc.collect()
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


def record(sides: str, grid: str) -> None:
    path = pathlib.Path(__file__).resolve()
    text = re.sub(r'^SIDES = "\w+"$', f'SIDES = "{sides}"', path.read_text(), count=1, flags=re.M)
    path.write_text(re.sub(r'^GRID = "\w+"$', f'GRID = "{grid}"', text, count=1, flags=re.M))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true",
                        help="check nothing and write the hashes found into SIDES and GRID")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    sides, n_sides = sides_hash()
    grid, n_grid = grid_hash()
    moved = False
    for name, found, count, expected in (("sides", sides, n_sides, SIDES), ("grid", grid, n_grid, GRID)):
        moved |= found != expected
        verdict = "recorded" if args.record else "ok" if found == expected else f"MOVED (expected {expected})"
        print(f"{name}  {found}  {count} sides  {verdict}", flush=True)
    for name, run in PEAK_RUNS.items():
        run()  # warm: caches filled, free lists stocked
        warm, collected = peak_bytes(run, False), peak_bytes(run, True)
        print(f"peak  {name}: {warm} B warm, {collected} B after gc.collect()", flush=True)
    print(f"evidence: {time.perf_counter() - started:.1f} s")
    if args.record:
        record(sides, grid)
        return 0
    return int(moved)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())
