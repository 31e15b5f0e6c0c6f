#!/usr/bin/env python3
"""Mutation check: does a pytest selection notice known wrong edits?

Each entry of MUTANTS is (file, exact old text, new text, why, killing
test).  The entries run one after another.  For each, the script copies
src/ and tests/ into a temporary directory, replaces the old text, which
must occur exactly once, by the new text, and runs pytest there with -x -q:
first on the entry's killing test, the one that killed it when the entry
was written, and only if that passes on the default SELECTION, so no entry
is easier to survive than on the selection alone.  A run that fails,
errors in collection or exceeds --timeout (a mutant may make a sum that
should end run forever) kills the mutant; a passing run lets it survive.
--select runs the given selection alone.  When the old text of a picked
entry no longer matches, the script stops with exit code 2 before it runs
any, so a rewrite of the code an entry names must update the entry.

    python3 scripts/mutants.py
    python3 scripts/mutants.py --only 1 --select tests/test_series.py::test_apply_ratio_matches_reference

Prints one line per mutant, killed (naming the test that failed first) or
survived, with the seconds taken, and exits 1 when one survived.  Uses the standard library only; the selection
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
MOMENTS = "src/qlab/identities/moments.py"
CLI = "src/qlab/cli.py"
# the goldens first: in about 2 s they kill every entry but five Laurent ones
# that no golden's output shows (the fractional z-division, positive_z_part,
# div_binomial's bound, div_z_pair's symmetry check, and the rank's Horner
# cap at n^2 = T, whose level reaches only the z^0 column that every output
# drops), which test_laurent.py kills next, tail_sum's weight corrections,
# and the distinct-part refill and the environment draw, which no golden reaches
SELECTION = ["tests/test_golden.py", "tests/test_laurent.py", "tests/test_series.py",
             "tests/test_reference_series.py", "tests/test_partitions.py"]

MUTANTS = [
    (SERIES, "if 2 * e > top:  # 1/(1 - c q^e)", "if 2 * e >= top:  # 1/(1 - c q^e)",
     "a division at 2e = T' takes one step of its recurrence and loses c^2 q^(2e)",
     "tests/test_golden.py::test_coeffs_json_is_byte_identical[R02-rhs_nested]"),
    (SERIES, "a[n] += a[n - e]\n", "a[n] = a[n - e]\n",
     "a c = 1 division drops its add, at e = 1 as at any e",
     "tests/test_golden.py::test_coeffs_json_is_byte_identical[R02-rhs_nested]"),
    (SERIES, "p, q, k = p * k, q * k, 1", "p, q = p * k, q * k",
     "the scalar stays pending after the first factor above takes it, so it is applied twice",
     "tests/test_golden.py::test_coeffs_json_is_byte_identical[R02-rhs_nested]"),
    (FOUR, "return c, 1, ((1, N - n + 1), *up)", "return c, 0, ((1, N - n + 1), *up)",
     "the bracket sum's ratio takes shift 0, so the terms of R03's and R05's right sides "
     "lose the bracket's q^(n-1)",
     "tests/test_golden.py::test_coeffs_json_is_byte_identical[R02-rhs]"),
    (SERIES, "if shift < 0:\n            raise ValueError(\"q-exponent must be non-negative\")\n",
     "if shift < 0:\n            raise ValueError(\"q-exponent must be non-negative\")\n"
     "        shift, up, down = 2 * shift, [(c, 2 * e) for c, e in up], [(c, 2 * e) for c, e in down]\n",
     "apply_ratio reads q as q^2; an identity in q also holds in q^2, so verdicts alone miss it",
     "tests/test_golden.py::test_coeffs_json_is_byte_identical[R02-rhs_nested]"),
    (LAURENT, "return 2 * order + 2", "return 2 * order + 1",
     "rows of width 2T + 1: z^T q^T lands in column 0 of row T + 1",
     "tests/test_golden.py::test_coeffs_json_is_byte_identical[R33-lhs]"),
    (LAURENT, "qk = q ** (order // qexp)", "qk = q ** (order // qexp - 1)",
     "a fractional z-division scales by q^(T//e - 1), so its floor division at j = T//e is inexact",
     "tests/test_laurent.py::test_binomial_kernels_match_reference"),
    (LAURENT, "lo, w = t + 2, _row_width(t)", "lo, w = t + 1, _row_width(t)",
     "positive_z_part keeps the z^0 column",
     "tests/test_laurent.py::test_linear_kernels_match_reference"),
    (LAURENT, "if abs(zexp) > qexp:", "if abs(zexp) >= qexp:",
     "div_binomial rejects |s| = e, as (1 - zq); the crank and rank no longer divide by it, "
     "but test_division_at_the_aliasing_edge does",
     "tests/test_laurent.py::test_binomial_kernels_match_reference"),
    (SERIES, "hi - lo + 1", "hi - lo",
     "a window sum one factor short: a run (1 - c q^lo)..(1 - c q^hi) loses its last factor",
     "tests/test_golden.py::test_coeffs_json_is_byte_identical[R02-rhs_nested]"),
    (SERIES, "scale = lcm(scale, q)", "scale = q",
     "the combined pass scales by the last factor's denominator, not the lcm of all of them",
     "tests/test_golden.py::test_coeffs_json_is_byte_identical[R02-rhs_nested]"),
    (SERIES, "a, k = b, 1", "a = b",
     "the combined pass takes the pending multiplier and leaves it pending, so it is applied twice",
     "tests/test_golden.py::test_coeffs_json_is_byte_identical[R02-rhs_nested]"),
    (SERIES, "src = a\n", "src = b\n",
     "the combined pass reads the running output, which its scaling has multiplied, "
     "in place of a; equivalent when nothing scales",
     "tests/test_golden.py::test_coeffs_json_is_byte_identical[R02-rhs_nested]"),
    (PHI, "lambda k: N - k)", "lambda k: N - k - 1)",
     "the 2-phi-1 block's terminating inner sum ends one term short, before j = N - k",
     "tests/test_golden.py::test_two_phi_one_blocks_are_byte_identical[R20-rhs-N4]"),
    (PHI, "((c / d, k - 1), (1, N - k + 1))", "((c / d, k), (1, N - k + 1))",
     "the block's outer factor (1 - (c/d) q^(k-1)) is read at q^k",
     "tests/test_golden.py::test_two_phi_one_blocks_are_byte_identical[R20-rhs-N4]"),
    (PHI, "return -c, k + j,", "return c, k + j,",
     "the block's inner ratio drops the sign of 1 - q^(k-N+j-1) = -q^(k-N+j-1) (1 - q^(N-k-j+1))",
     "tests/test_golden.py::test_two_phi_one_blocks_are_byte_identical[R20-rhs-N4]"),
    (PHI, "else -d, n, ((ratio, n - 1),", "else -d, n + 1, ((ratio, n - 1),",
     "the alternating sum steps by q^(n+1) from n = 2, so the terms of R20-R22's sums and of "
     "A(c, d) carry q^(n(n+3)/2 - 1) for q^(n(n+1)/2)",
     "tests/test_golden.py::test_two_phi_one_blocks_are_byte_identical[R26-lhs]"),
    (COMMON, "((d, n - 1),) if n > 1", "((d, n),) if n > 1",
     "S(d) reads (dq)_n for (dq)_(n-1)",
     "tests/test_golden.py::test_interchanged_double_sums_are_byte_identical[R23-rhs]"),
    (SPT, "((1 / d, n - 1),), ((1, n), (1, n))", "((1 / d, n),), ((1, n), (1, n))",
     "L(d) reads (q/d)_n for (q/d)_(n-1)",
     "tests/test_golden.py::test_shared_sums_are_byte_identical[R25-lhs]"),
    (COMMON, "return a, 2 * n - 1, (", "return a, 2 * n, (",
     "M_N(a) steps by q^(2n), so its terms carry q^(n(n+1)) for q^(n^2)",
     "tests/test_golden.py::test_shared_sums_are_byte_identical[R16-lhs]"),
    (COMMON, "a if n == 1 else -a, n,", "a, n,",
     "F(a, x) loses its alternating sign",
     "tests/test_golden.py::test_shared_sums_are_byte_identical[R16-rhs]"),
    (COMMON, "((1, N - n + 1),), ((x, n),)", "((1, N - n),), ((x, n),)",
     "F(a, x) reads the q-binomial ratio [N,n]/[N,n-1] one power short",
     "tests/test_golden.py::test_shared_sums_are_byte_identical[R13-lhs-N4]"),
    (COMMON, "return one.order + 1\n", "return one.order\n",
     "the limit cutoff one short, N = T: the right sides of R01, R02, R04 and R19 lose their q^T terms",
     "tests/test_golden.py::test_coeffs_json_is_byte_identical[R04-rhs]"),
    (PARTITIONS, "parts[h], start[h] = r, low", "parts[h], start[h] = r, h",
     "each refilled part starts a block of its own, so R24's sweep reads a run of r's as one r",
     "tests/test_golden.py::test_enumerated_sides_are_byte_identical[R24-lhs-T12]"),
    (PARTITIONS, "size - 1 - h,", "size - h,",
     "the profiles count one more 1 than a partition has, so R24's sides drop one too many",
     "tests/test_golden.py::test_enumerated_sides_are_byte_identical[R24-lhs-T12]"),
    (PARTITIONS, "size = h + 2 if t == 1 else h + 1", "size = h + 1",
     "a refill that leaves a single 1 forgets it, so the profile has one part and one 1 too few",
     "tests/test_golden.py::test_enumerated_sides_are_byte_identical[R24-lhs-T12]"),
    (COMMON, "any(2 * e <= T for side", "any(2 * e < T for side",
     "tail_sum counts a factor at 2e = T as far, though two such corrections multiply to q^T",
     "tests/test_golden.py::test_sums_once_copied_are_byte_identical[R40-rhs]"),
    (COMMON, "((w[1], w[2]), step_x * (1 - x))", "((w[1], w[2]), step_x)",
     "tail_sum's weight corrections lose their (1 - x), as if each were summed over every later term",
     "tests/test_series.py::test_tail_sum_geometric_tail[5]"),
    (COMMON, "ratios.append((x, 0, [(-v, e)", "ratios.append((1, 0, [(-v, e)",
     "tail_sum closes with 1/(1 - x) for x/(1 - x), so the term t_m is counted twice",
     "tests/test_golden.py::test_sums_once_copied_are_byte_identical[R40-rhs]"),
    (PARTITIONS, "part -= gap * k * (k - 1) // 2", "part -= gap * k * (k + 1) // 2",
     "the refill's stair is one step too high at gap = 1, so distinct-part refills come out short",
     "tests/test_partitions.py::test_enumeration_matches_the_composition_reference[3]"),
    (HARNESS, "key = env.sort_key()", "key = id(env)",
     "_distinct_envs keys environments by object, so a redrawn environment is kept as a duplicate",
     "tests/test_reference_series.py::test_the_drawn_environments_are_distinct"),
    (CLASSICAL, "(x, N - n)]", "(x, N - n + 1)]",
     "the terminating sum's inverted column reads (x q^(N-n+1))_n for (x q^(N-n))_n, in R37 and R39 alike",
     "tests/test_golden.py::test_sums_once_copied_are_byte_identical[R37-lhs]"),
    (CLASSICAL, "(z, 0, ((alpha, n - 1), (beta, n - 1))", "(z, 0, ((alpha, n), (beta, n - 1))",
     "the 2-phi-1 reads (alpha)_n's last factor at q^n for q^(n-1), in R40's and R41's sides alike",
     "tests/test_golden.py::test_sums_once_copied_are_byte_identical[R40-rhs]"),
    (LAURENT, "b[i - m : i] = row[:0:-1]", "b[i - m : i] = row[::-1]",
     "the z-pair mirror copies column 0 too, one column off, and lengthens the flat row",
     "tests/test_golden.py::test_coeffs_json_is_byte_identical[R33-lhs]"),
    (LAURENT, "r = p - ew\n", "r = p - ew + w\n",
     "the z-pair division reads its q^(2e) term from row m - 2e + 1",
     "tests/test_golden.py::test_coeffs_json_is_byte_identical[R33-lhs]"),
    (MOMENTS, "if n * n > T:", "if n * n >= T:",
     "the rank's Horner form drops its level n at n^2 = T, and with it the q^T term",
     "tests/test_laurent.py::test_crank_and_rank_match_the_term_by_term_reference[1]"),
    (LAURENT, "        if any(a[i + 1 : i + n + 1] != a[i - 1 : i - n - 1 : -1] for n, i in enumerate(zs)):\n"
     "            raise ValueError(\"div_z_pair needs a series symmetric under z <-> 1/z\")\n", "",
     "div_z_pair divides an asymmetric series as if its columns k < 0 mirrored k > 0",
     "tests/test_laurent.py::test_pair_division_needs_a_symmetric_series_and_a_power_series_ratio[columns0-args0]"),
    (SERIES, "int(i > 0), T - outer)", "int(i > 1), T - outer)",
     "term_sum's nested form drops the constant 1 at its level n = start + 1, and with it t_start W_start",
     "tests/test_golden.py::test_coeffs_json_is_byte_identical[R04-rhs]"),
    (SERIES, "[*up, *w[1], *prev[2]], [*down, *w[2], *prev[1]]", "[*up, *w[1], *w[2]], [*down, *w[2], *w[1]]",
     "term_sum folds the weight's factors over W_n, not W_(n-1), so they cancel at every level",
     "tests/test_golden.py::test_coeffs_json_is_byte_identical[R04-rhs]"),
    (SERIES, "int(i > 0), T - outer)", "int(i > 0), T - outer - (i > 0))",
     "term_sum carries each S'_(n-1) one order short, so the next call zero-extends a lost top coefficient",
     "tests/test_golden.py::test_coeffs_json_is_byte_identical[R04-rhs]"),
    (SERIES, "if v > T or not r[0]", "if v >= T or not r[0]",
     "term_sum's scan ends one index early where a term's q-valuation is exactly T, losing its q^T",
     "tests/test_golden.py::test_coeffs_json_is_byte_identical[R04-rhs]"),
    (COMMON, "min(indices.stop, T + 1))", "min(indices.stop, T + 1) - 1)",
     "q_power_sum ends one term short, without the last index's q^n W_n",
     "tests/test_golden.py::test_coeffs_json_is_byte_identical[R43-lhs]"),
    (FOUR, "((x, n - 1), (y, n - 1))", "((x, n), (y, n - 1))",
     "the bracket sum's weight reads 1 - x q^n for 1 - x q^(n-1), in R03's and R05's right sides alike",
     "tests/test_golden.py::test_coeffs_json_is_byte_identical[R03-rhs]"),
    # q ** (top // e + 1) has no entry: it is an equivalent mutant, as it scales
    # the numerators and the denominator by one more q alike, the floor division
    # stays exact, and the reduction removes the q
    (SERIES, "qk = q ** (top // e)\n", "qk = q ** (top // e - 1)\n",
     "a division by 1 - (p/q) q^e scales by q^(K - 1), K = T'//e, "
     "so its floor division from n = Ke on is inexact",
     "tests/test_golden.py::test_coeffs_json_is_byte_identical[R01-rhs]"),
    (SERIES, "elif p and e <= top:\n                if 2 * e > top:  # any two",
     "elif p and e < top:\n                if 2 * e > top:  # any two",
     "a factor above at e = T' is skipped as if it were past the tail, "
     "so the top coefficient misses its - c a[0]",
     "tests/test_golden.py::test_coeffs_json_is_byte_identical[R02-rhs_nested]"),
    (SERIES, "elif p and e <= top:\n                if 2 * e > top:  # 1/(1 - c q^e)",
     "elif p and e < top:\n                if 2 * e > top:  # 1/(1 - c q^e)",
     "a factor below at e = T' is skipped as if it were past the tail, "
     "so the top coefficient misses its + c a[0]",
     "tests/test_golden.py::test_coeffs_json_is_byte_identical[R02-rhs_nested]"),
    (SERIES, "k *= q if q > p else -q", "k *= q",
     "a division by 1 - c with c > 1 keeps the sign of q/(q - p) positive",
     "tests/test_golden.py::test_sums_once_copied_are_byte_identical[R37-lhs]"),
    (SPT, "((c, j + k), (1, j))) if j", "((c, j + k + 1), (1, j))) if j",
     "R31's inner ratio reads (c q^(k+1))_j's last factor at q^(j+k+1) for q^(j+k)",
     "tests/test_golden.py::test_limit_sides_are_byte_identical[R31-lhs]"),
    # R26's d-q block at N = T for N = T + 1 has no entry: it is an equivalent
    # mutant, as at T in {6, 12, 20} the block at N = T and at N = T - 1
    # already equals its limit
    (PHI, "((x, k), (1, N - k + 1)), ((d, N - k + 1)", "((x, k), (1, N - k)), ((d, N - k + 1)",
     "the quotient tail reads the q-binomial ratio [N,k]/[N,k-1] one power short",
     "tests/test_golden.py::test_quotient_sides_are_byte_identical[R22-rhs-N4]"),
    (PHI, "(1, N - k + 1)), ((d, N - k + 1), (1, k))", "(1, N - k + 1)), ((d, N - k), (1, k))",
     "the quotient tail divides by 1 - d q^(N-k) for 1 - d q^(N-k+1), the factor that "
     "(dq^(N-k+1))_k adds to (dq^(N-k+2))_(k-1)",
     "tests/test_golden.py::test_quotient_sides_are_byte_identical[R22-rhs-N4]"),
    (SERIES, "order=T - (levels[i - 1][1] if i else 0))", "order=T - levels[i][1])",
     "double_term_sum carries each level S_(k-1) to order T - v_k, not T - v_(k-1), "
     "so every level but the last loses its top coefficients",
     "tests/test_golden.py::test_two_phi_one_blocks_are_byte_identical[R20-rhs-N4]"),
    (SERIES, "if v > T or not r[0] or any(e == 0 and c == 1 for c, e in r[2]):",
     "if v > T or not r[0]:",
     "the scan reads past an outer term zeroed by a factor 1 - q^0 above, as R20's (c/d)_1 at c = d, "
     "so double_term_sum reads inner sums the forward sum never reaches",
     "tests/test_series.py::test_double_term_sum_matches_a_fold_of_ref_add[zero-at-first-factor-5]"),
    (SERIES, "inner_stop and inner_stop(k))", "inner_stop and inner_stop(k) - 1)",
     "double_term_sum ends each bounded inner sum one term short",
     "tests/test_series.py::test_double_term_sum_matches_a_fold_of_ref_add[inner-stop-0-5]"),
    (SERIES, "        _PROBE.apply_ratio(*r)  # the forward sum applies R_k before it reads J_k\n", "",
     "double_term_sum reads an inner sum before it applies the outer ratio, so an error in the "
     "inner sum hides the outer ratio's, which the forward sum raises first",
     "tests/test_series.py::test_double_term_sum_raises_what_the_forward_sum_raises"),
    (FOUR, "strided_sum(t, k, T - k)", "strided_sum(t, k, T - k - 1)",
     "R02's G_k is taken to order T - k - 1, so the nested side loses the q^T term of every k >= 1",
     "tests/test_golden.py::test_coeffs_json_is_byte_identical[R02-rhs_nested]"),
    (SERIES, "den *= m\n                total = [m * x for x in total]\n", "den *= m\n",
     "strided_sum raises its denominator to the running lcm without rescaling the total",
     "tests/test_series.py::test_strided_sum_matches_a_fold_of_shift_and_sum_of"),
    (CLI, "MAX_TABLE_N = 60\n", "MAX_TABLE_N = 61\n",
     "table admits --max-n 61, past README's bound; the tests that read the constant still pass",
     "tests/test_cli.py::test_the_size_bounds_and_the_positivity_default_are_pinned"),
    (CLI, "order=50)", "order=51)",
     "positivity scans to order 51 by default",
     "tests/test_cli.py::test_the_size_bounds_and_the_positivity_default_are_pinned"),
]


def mutate(text: str, old: str, new: str) -> str:
    """text with its one occurrence of old replaced by new."""
    found = text.count(old)
    if found != 1:
        raise LookupError(f"the old text occurs {found} times, not once: {old!r}")
    return text.replace(old, new)


def run(entry: tuple, selections: list, timeout: float) -> tuple:
    """(killed, seconds, what killed it) for one entry, run in a temporary copy
    on each selection in turn until one kills it."""
    path, old, new = entry[:3]
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant_") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, pathlib.Path(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        target = pathlib.Path(tmp, path)
        target.write_text(mutate(target.read_text(), old, new))
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(tmp, "src")), PYTHONDONTWRITEBYTECODE="1")
        for selection in selections:
            cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
            try:
                proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True, timeout=timeout)
            except subprocess.TimeoutExpired:
                return True, time.perf_counter() - started, "a timeout"
            if proc.returncode not in (0, 1, 2):  # passed, failed, collection error
                raise SystemExit(f"mutants: pytest exited with {proc.returncode} for {path}; "
                                 "is the selection right?")
            if proc.returncode:
                failed = [line.split()[1] for line in proc.stdout.splitlines()
                          if line.startswith(("FAILED ", "ERROR "))]
                return True, time.perf_counter() - started, failed[0] if failed else " ".join(selection)
    return False, time.perf_counter() - started, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", type=int, action="append",
                        help="run entry N of MUTANTS (1-based); repeatable; default all")
    parser.add_argument("--select", nargs="+",
                        help="the one pytest selection to run; default: each entry's killing test, "
                             "then the default selection")
    parser.add_argument("--timeout", type=float, default=300, help="seconds before a run counts as killed")
    args = parser.parse_args(argv)
    picked = args.only or range(1, len(MUTANTS) + 1)
    if any(not 1 <= n <= len(MUTANTS) for n in picked):
        parser.error(f"--only takes 1..{len(MUTANTS)}")
    for n in picked:
        path, old, new = MUTANTS[n - 1][:3]
        try:
            mutate((ROOT / path).read_text(), old, new)
        except LookupError as err:
            print(f"mutants: entry {n} ({path}) is stale: {err}", file=sys.stderr)
            return 2
    survived = 0
    for n in picked:
        entry = MUTANTS[n - 1]
        selections = [args.select] if args.select else [[entry[4]], SELECTION]
        killed, seconds, by = run(entry, selections, args.timeout)
        survived += not killed
        print(f"{n}  {'killed' if killed else 'SURVIVED'}  {seconds:6.1f} s  {entry[0]}: {entry[3]}"
              + (f" (by {by})" if killed else ""), flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
