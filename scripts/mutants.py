#!/usr/bin/env python3
"""Mutation check: does a pytest selection notice known wrong edits?

Each entry of MUTANTS is (file, exact old text, new text, why).  The
entries run one after another.  For each, the script copies src/ and
tests/ into a temporary directory, replaces the old text, which must occur
exactly once, by the new text, and runs the pytest selection there with
-x -q.  A run that fails, errors in collection or exceeds --timeout (a
mutant may make a sum that should end run forever) kills the mutant; a
passing run lets it survive.  When the old text of a picked entry no
longer matches, the script stops with exit code 2 before it runs any, so
a rewrite of the code an entry names must update the entry.

    python3 scripts/mutants.py
    python3 scripts/mutants.py --only 1 --select tests/test_series.py::test_apply_ratio_matches_reference

Prints one line per mutant, killed or survived with the seconds taken, and
exits 1 when one survived.  Uses the standard library only; the selection
needs pytest and hypothesis, as the tests do.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SERIES, FOUR = "src/qlab/series.py", "src/qlab/identities/four_parameter.py"
LAURENT = "src/qlab/laurent.py"
PHI = "src/qlab/identities/phi_sum.py"
COMMON, SPT = "src/qlab/identities/common.py", "src/qlab/identities/spt_family.py"
PARTITIONS, HARNESS = "src/qlab/partitions.py", "src/qlab/identities/harness.py"
CLASSICAL = "src/qlab/identities/classical.py"
# the goldens first: in about 2 s they kill every entry but the two Laurent
# ones that the extraction's output cannot show, which test_laurent.py kills next,
# and the distinct-part refill and the environment draw, which no golden reaches
SELECTION = ["tests/test_golden.py", "tests/test_laurent.py", "tests/test_series.py",
             "tests/test_reference_series.py", "tests/test_partitions.py"]

MUTANTS = [
    (SERIES, "if 2 * e > top:  # 1/(1 - c q^e)", "if 2 * e >= top:  # 1/(1 - c q^e)",
     "a division at 2e = T' takes one step of its recurrence and loses c^2 q^(2e)"),
    (SERIES, "a[n] += a[n - e]\n", "a[n] = a[n - e]\n",
     "a c = 1 division drops its add, at e = 1 as at any e"),
    (SERIES, "p, q, k = p * k, q * k, 1", "p, q = p * k, q * k",
     "the scalar stays pending after the first factor above takes it, so it is applied twice"),
    (FOUR, "return t.apply_ratio(c, 1, up, down)\n\n        def weight(t, n):",
     "return t.apply_ratio(c, 0, up, down)\n\n        def weight(t, n):",
     "R03's bracket-sum step takes shift 0, so its terms lose the bracket's q^(n-1)"),
    (SERIES, "if shift < 0:\n            raise ValueError(\"q-exponent must be non-negative\")\n",
     "if shift < 0:\n            raise ValueError(\"q-exponent must be non-negative\")\n"
     "        shift, up, down = 2 * shift, [(c, 2 * e) for c, e in up], [(c, 2 * e) for c, e in down]\n",
     "apply_ratio reads q as q^2; an identity in q also holds in q^2, so verdicts alone miss it"),
    (LAURENT, "return 2 * order + 2", "return 2 * order + 1",
     "rows of width 2T + 1: z^T q^T lands in column 0 of row T + 1"),
    (LAURENT, "qk = q ** (order // qexp)", "qk = q ** (order // qexp - 1)",
     "a fractional z-division scales by q^(T//e - 1), so its floor division at j = T//e is inexact"),
    (LAURENT, "lo, w = t + 2, _row_width(t)", "lo, w = t + 1, _row_width(t)",
     "positive_z_part keeps the z^0 column, which z d/dz then zeroes in the extraction"),
    (LAURENT, "if abs(zexp) > qexp:", "if abs(zexp) >= qexp:",
     "div_binomial rejects |s| = e, the crank's and the rank's (1 - zq^n) at n = 1"),
    (SERIES, "hi - lo + 1", "hi - lo",
     "a window sum one factor short: a run (1 - c q^lo)..(1 - c q^hi) loses its last factor"),
    (SERIES, "scale = lcm(scale, q)", "scale = q",
     "the combined pass scales by the last factor's denominator, not the lcm of all of them"),
    (SERIES, "a, k = b, 1", "a = b",
     "the combined pass takes the pending multiplier and leaves it pending, so it is applied twice"),
    (SERIES, "src = a\n", "src = b\n",
     "the combined pass reads the running output, which its scaling has multiplied, "
     "in place of a; equivalent when nothing scales"),
    (PHI, "inner, stop=N - k)", "inner, stop=N - k - 1)",
     "the 2-phi-1 block's terminating inner sum ends one term short, before j = N - k"),
    (PHI, "((c / d, k - 1), (1, N - k + 1))", "((c / d, k), (1, N - k + 1))",
     "the block's outer factor (1 - (c/d) q^(k-1)) is read at q^k"),
    (PHI, "u.apply_ratio(-c, k + j,", "u.apply_ratio(c, k + j,",
     "the block's inner step drops the sign of 1 - q^(k-N+j-1) = -q^(k-N+j-1) (1 - q^(N-k-j+1))"),
    (SPT, "t.apply_ratio(-d, n, ((ratio, n - 1),)", "t.apply_ratio(-d, n + 1, ((ratio, n - 1),)",
     "A(c, d) steps by q^(n+1), so its terms carry q^(n(n+3)/2) for q^(n(n+1)/2)"),
    (COMMON, "t.apply_ratio(1, 1, ((d, n - 1),), ((1, n),))", "t.apply_ratio(1, 1, ((d, n),), ((1, n),))",
     "S(d) reads (dq)_n for (dq)_(n-1)"),
    (SPT, "((1 / d, n - 1),), ((1, n), (1, n))", "((1 / d, n),), ((1, n), (1, n))",
     "L(d) reads (q/d)_n for (q/d)_(n-1)"),
    (COMMON, "t.apply_ratio(a, 2 * n - 1, (", "t.apply_ratio(a, 2 * n, (",
     "M_N(a) steps by q^(2n), so its terms carry q^(n(n+1)) for q^(n^2)"),
    (COMMON, "t.apply_ratio(-a, n, (", "t.apply_ratio(a, n, (",
     "F(a, x) loses its alternating sign"),
    (COMMON, "t.apply_ratio(-a, n, ((1, N - n + 1),), ((x, n),))", "t.apply_ratio(-a, n, ((1, N - n),), ((x, n),))",
     "F(a, x) reads the q-binomial ratio [N,n]/[N,n-1] one power short"),
    (COMMON, "return one.order + 1\n", "return one.order\n",
     "the limit cutoff one short, N = T: the right sides of R01, R02, R04 and R19 lose their q^T terms"),
    (PARTITIONS, "parts[h], start[h] = r, low", "parts[h], start[h] = r, h",
     "each refilled part starts a block of its own, so R24's sweep reads a run of r's as one r"),
    (PARTITIONS, "size - 1 - h,", "size - h,",
     "the profiles count one more 1 than a partition has, so R24's sides drop one too many"),
    (PARTITIONS, "size = h + 2 if t == 1 else h + 1", "size = h + 1",
     "a refill that leaves a single 1 forgets it, so the profile has one part and one 1 too few"),
    (COMMON, "any(2 * e <= T for side", "any(2 * e < T for side",
     "tail_sum counts a factor at 2e = T as far, though two such corrections multiply to q^T"),
    (COMMON, "(w, step_x * rest)", "(w, step_x)",
     "tail_sum's weight corrections lose their (1 - x), as if each were summed over every later term"),
    (COMMON, "yield t.apply_ratio(x, 0, [(-v, e)", "yield t.apply_ratio(1, 0, [(-v, e)",
     "tail_sum closes with 1/(1 - x) for x/(1 - x), so the term t_m is counted twice"),
    (PARTITIONS, "part -= gap * k * (k - 1) // 2", "part -= gap * k * (k + 1) // 2",
     "the refill's stair is one step too high at gap = 1, so distinct-part refills come out short"),
    (HARNESS, "key = env.sort_key()", "key = id(env)",
     "_distinct_envs keys environments by object, so a redrawn environment is kept as a duplicate"),
    (CLASSICAL, "(x, N - n)]", "(x, N - n + 1)]",
     "the terminating sum's inverted column reads (x q^(N-n+1))_n for (x q^(N-n))_n, in R37 and R39 alike"),
    (CLASSICAL, "return ((alpha, n - 1), (beta, n - 1))", "return ((alpha, n), (beta, n - 1))",
     "the 2-phi-1 reads (alpha)_n's last factor at q^n for q^(n-1), in R40's and R41's sides alike"),
]


def mutate(text: str, old: str, new: str) -> str:
    """text with its one occurrence of old replaced by new."""
    found = text.count(old)
    if found != 1:
        raise LookupError(f"the old text occurs {found} times, not once: {old!r}")
    return text.replace(old, new)


def run(entry: tuple, selection: list, timeout: float) -> tuple:
    """(killed, seconds) for one entry, run in a temporary copy."""
    path, old, new, _ = entry
    with tempfile.TemporaryDirectory(prefix="mutant_") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, pathlib.Path(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        target = pathlib.Path(tmp, path)
        target.write_text(mutate(target.read_text(), old, new))
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(tmp, "src")), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
        started = time.perf_counter()
        try:
            code = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            code = None
        seconds = time.perf_counter() - started
    if code in (0, 1, 2, None):  # passed, failed, collection error, timed out
        return code != 0, seconds
    raise SystemExit(f"mutants: pytest exited with {code} for {path}; is the selection right?")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", type=int, action="append",
                        help="run entry N of MUTANTS (1-based); repeatable; default all")
    parser.add_argument("--select", nargs="+", default=SELECTION, help="the pytest selection")
    parser.add_argument("--timeout", type=float, default=300, help="seconds before a run counts as killed")
    args = parser.parse_args(argv)
    picked = args.only or range(1, len(MUTANTS) + 1)
    if any(not 1 <= n <= len(MUTANTS) for n in picked):
        parser.error(f"--only takes 1..{len(MUTANTS)}")
    for n in picked:
        path, old, new, _ = MUTANTS[n - 1]
        try:
            mutate((ROOT / path).read_text(), old, new)
        except LookupError as err:
            print(f"mutants: entry {n} ({path}) is stale: {err}", file=sys.stderr)
            return 2
    survived = 0
    for n in picked:
        entry = MUTANTS[n - 1]
        killed, seconds = run(entry, args.select, args.timeout)
        survived += not killed
        print(f"{n}  {'killed' if killed else 'SURVIVED'}  {seconds:6.1f} s  {entry[0]}: {entry[3]}",
              flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
