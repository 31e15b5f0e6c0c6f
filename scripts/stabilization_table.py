#!/usr/bin/env python3
"""Tabulate how the finite entries converge to their infinite limits.

For each finite/infinite pair, report the smallest cutoff N0 at which
the coefficient of q^n stops changing, for every n up to the chosen
order, at a fixed sample environment.
"""

import argparse
import sys
from fractions import Fraction

from qlab.identities import ParamEnv, build_side, get_identity

# Each finite left side is compared with an infinite side that is not built
# as that finite sum at N = T + 1, so a match checks two code paths.
PAIRS = [
    ("R10", "R15", "lhs"),
    ("R11", "R16", "rhs"),
    ("R12", "R17", "lhs"),
    ("R13", "R18", "rhs"),
    ("R14", "R19", "lhs"),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=20)
    parser.add_argument("--n-limit", type=int, default=30, help="largest cutoff tried")
    args = parser.parse_args()

    env2 = ParamEnv(a=Fraction(1, 2), b=Fraction(1, 3))
    env1 = ParamEnv(a=Fraction(1, 2))

    for finite_id, infinite_id, infinite_side in PAIRS:
        finite = get_identity(finite_id)
        env = env2 if "b" in finite.params else env1
        limit = build_side(get_identity(infinite_id), infinite_side, env, None, args.order)
        history = [
            build_side(finite, "lhs", env, cutoff, args.order)
            for cutoff in range(1, args.n_limit + 1)
        ]
        stable_at = []
        matches = True
        for n in range(args.order + 1):
            column = [series[n] for series in history]
            last = column[-1]
            first_stable = next(
                i + 1
                for i in range(len(column))
                if all(c == last for c in column[i:])
            )
            stable_at.append(first_stable)
            if last != limit[n]:
                matches = False
        print(
            f"{finite_id} -> {infinite_id}: coefficients n<={args.order} stable by "
            f"N0={max(stable_at)}, limit match: {'yes' if matches else 'NO'}"
        )
        if not matches:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
