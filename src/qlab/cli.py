"""Command-line front end: verify, table, coeffs, positivity, list.

Exit codes: 0 success, 1 verification (or strict positivity) failure,
2 usage or configuration error.  Rationals cross this boundary as
"p/q" strings, never decimals.  Output is deterministic for a fixed
seed apart from the elapsed_ms timing field of verification reports.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Dict, List, Optional, Sequence

from .identities import (
    DEFAULT_N_MAX,
    DEFAULT_ORDER,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    REGISTRY,
    ConstraintViolationError,
    ParamEnv,
    SampleExhaustionError,
    UnsupportedNError,
    VerificationReport,
    build_side,
    get_identity,
    positivity_scan,
    run_suite,
)
from .identities.model import FINITE, PARAM_NAMES
from .partitions import _TABLE_STATS, statistic_table
from .rational import format_rat, parse_rat
from .series import ZeroConstantTermError

_ENV_FLAGS = tuple(f"--{name}" for name in PARAM_NAMES)
_NEGATIVE_LITERAL = re.compile(r"-\d")
# the largest value a size flag takes: far above every size the tests and the
# benchmark use (T <= 100, N <= 32); a far larger size fails to allocate or
# does not finish, and must exit 2 like any other bad input
MAX_SIZE = 1000
_SIZE_FLAGS = (("order", "--order"), ("n_value", "--N"), ("n_max", "--N-max"), ("max_n", "--max-n"))


class UsageError(Exception):
    """Configuration problem that should exit with status 2."""


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlab",
        description="exact verification laboratory for q-series identities",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, run, order=None):
        p.set_defaults(run=run)
        p.add_argument("--format", dest="fmt", choices=("json", "tsv"), default="json")
        p.add_argument("--out", help="write output to this path instead of stdout")
        if order is not None:
            p.add_argument("--order", type=int, default=order, help="truncation order T")

    p_verify = sub.add_parser("verify", help="run the identity suite (or one identity)")
    common(p_verify, cmd_verify, order=DEFAULT_ORDER)
    p_verify.add_argument("--id", dest="identity_id", help="restrict to one registry id")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p_verify.add_argument("--N", dest="n_value", type=int, help="single cutoff N")
    p_verify.add_argument("--N-max", dest="n_max", type=int, default=DEFAULT_N_MAX)

    p_table = sub.add_parser("table", help="tabulate a partition statistic")
    common(p_table, cmd_table)
    p_table.add_argument("--stat", required=True, choices=_TABLE_STATS)
    p_table.add_argument("--max-n", dest="max_n", type=int, default=10)
    p_table.add_argument("--N", dest="n_value", type=int, help="largest-part bound")
    p_table.add_argument("--j", type=int, help="moment order (default 1)")
    p_table.add_argument(
        "--positive-only",
        action="store_true",
        help="sum moments over k >= 1 only",
    )

    p_coeffs = sub.add_parser("coeffs", help="print coefficients of one side")
    common(p_coeffs, cmd_coeffs, order=DEFAULT_ORDER)
    p_coeffs.add_argument("--id", dest="identity_id", required=True)
    p_coeffs.add_argument("--side", default="lhs")
    p_coeffs.add_argument("--N", dest="n_value", type=int)
    for name in PARAM_NAMES:
        p_coeffs.add_argument(f"--{name}", help=f"exact rational value for {name}")

    p_pos = sub.add_parser("positivity", help="scan the moment-difference coefficients")
    common(p_pos, cmd_positivity, order=50)
    p_pos.add_argument("--N", "--N-max", dest="n_max", type=int, default=8)
    p_pos.add_argument(
        "--strict", action="store_true", help="exit 1 if any negative coefficient"
    )

    p_list = sub.add_parser("list", help="print the identity registry")
    common(p_list, cmd_list)

    return parser


def _emit(args: argparse.Namespace, json_obj, tsv_rows: List[Sequence]) -> None:
    if args.fmt == "json":
        text = json.dumps(json_obj, indent=2) + "\n"
    else:
        text = "\n".join("\t".join(str(x) for x in row) for row in tsv_rows) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as err:
            raise UsageError(f"cannot write --out: {err}") from None
    else:
        sys.stdout.write(text)


def _env_as_tsv(env_strings: Dict[str, str]) -> str:
    return ";".join(f"{k}={v}" for k, v in sorted(env_strings.items()))


def cmd_verify(args: argparse.Namespace) -> int:
    ids = None
    if args.identity_id is not None:
        try:
            get_identity(args.identity_id)
        except KeyError as err:
            raise UsageError(err.args[0]) from None
        ids = [args.identity_id]
    n_values = [args.n_value] if args.n_value is not None else None
    if n_values and n_values[0] < 1:
        raise UsageError("--N must be >= 1")
    if args.n_max < 1:
        raise UsageError("--N-max must be >= 1")
    try:
        reports = run_suite(
            seed=args.seed,
            samples_per_identity=args.samples,
            order=args.order,
            n_max=args.n_max,
            ids=ids,
            n_values=n_values,
        )
    except SampleExhaustionError as err:
        raise UsageError(str(err)) from None
    dicts = [r.to_json_dict() for r in reports]
    rows: List[Sequence] = [VerificationReport.FIELDS]
    rows.extend(
        [_env_as_tsv(d["env"]) if key == "env" else d[key] for key in VerificationReport.FIELDS]
        for d in dicts
    )
    _emit(args, dicts, rows)
    return 0 if all(r.passed for r in reports) else 1


def cmd_table(args: argparse.Namespace) -> int:
    _, reads = _TABLE_STATS[args.stat]
    if "max_part" in reads:
        if args.n_value is None:
            raise UsageError(f"--stat {args.stat} needs --N (the largest-part bound)")
        if args.n_value < 0:
            raise UsageError("--N (the largest-part bound) must be non-negative")
    flags = (  # statistic_table parameter, whether its flag was given, the flag
        ("max_part", args.n_value is not None, "--N (the largest-part bound)"),
        ("j", args.j is not None, "--j (the moment order)"),
        ("positive_only", args.positive_only, "--positive-only"),
    )
    for name, given, flag in flags:
        if given and name not in reads:
            raise UsageError(f"--stat {args.stat} takes no {flag}")
    if args.max_n < 1:
        raise UsageError("--max-n must be >= 1")
    j = 1 if args.j is None else args.j
    if j < 0:
        raise UsageError("--j must be non-negative")
    table = statistic_table(
        args.stat,
        args.max_n,
        max_part=args.n_value,
        j=j,
        positive_only=args.positive_only,
    )
    json_obj = {
        "stat": table.statistic,
        "params": table.params,
        "values": {str(n): v for n, v in sorted(table.values.items())},
    }
    rows: List[Sequence] = [("n", "value")]
    rows.extend((n, v) for n, v in sorted(table.values.items()))
    _emit(args, json_obj, rows)
    return 0


def cmd_coeffs(args: argparse.Namespace) -> int:
    try:
        identity = get_identity(args.identity_id)
    except KeyError as err:
        raise UsageError(err.args[0]) from None
    values = {name: getattr(args, name) for name in PARAM_NAMES}
    for name, value in values.items():
        if value is not None and name not in identity.params:
            takes = ", ".join(identity.params) or "no parameters"
            raise UsageError(f"{identity.id} takes no --{name} (it takes {takes})")
    try:
        env = ParamEnv(**{k: parse_rat(v) for k, v in values.items() if v is not None})
    except ValueError as err:
        raise UsageError(str(err)) from None
    missing = [p for p in identity.params if getattr(env, p) is None]
    if missing:
        raise UsageError(
            f"{identity.id} needs values for: {', '.join(missing)} (pass --{missing[0]} p/q)"
        )
    if identity.kind == FINITE and args.n_value is None:
        raise UsageError(f"{identity.id} is a finite identity; pass --N")
    if identity.kind != FINITE and args.n_value is not None:
        raise UsageError(f"{identity.id} is an infinite identity; it takes no --N")
    try:
        series = build_side(identity, args.side, env, args.n_value, args.order)
    except KeyError as err:
        raise UsageError(err.args[0]) from None
    except (ConstraintViolationError, UnsupportedNError, ZeroConstantTermError) as err:
        raise UsageError(str(err)) from None
    if not identity.domain(env):
        point = ", ".join(f"{k}={v}" for k, v in env.as_strings().items())
        print(f"qlab: note: {point} is outside {identity.id}'s domain, where its stated sums converge"
              " and verify samples; the coefficients continue them formally", file=sys.stderr)
    coeff_strings = [format_rat(c) for c in series.coeffs]
    json_obj = {
        "id": identity.id,
        "side": args.side,
        "env": env.as_strings(),
        "N": args.n_value,
        "T": args.order,
        "coeffs": coeff_strings,
    }
    rows: List[Sequence] = [("order", "coeff")]
    rows.extend(enumerate(coeff_strings))
    _emit(args, json_obj, rows)
    return 0


def cmd_positivity(args: argparse.Namespace) -> int:
    if args.n_max < 1:
        raise UsageError("--N must be >= 1")
    rows = positivity_scan(args.n_max, args.order)
    json_obj = [
        {
            "N": row.n_value,
            "order": row.order,
            "coeff": format_rat(row.coeff),
            "negative": not row.non_negative,
        }
        for row in rows
    ]
    tsv: List[Sequence] = [("N", "order", "coeff", "flag")]
    tsv.extend(
        (row.n_value, row.order, format_rat(row.coeff), "ok" if row.non_negative else "NEGATIVE")
        for row in rows
    )
    _emit(args, json_obj, tsv)
    return 1 if args.strict and not all(row.non_negative for row in rows) else 0


def cmd_list(args: argparse.Namespace) -> int:
    json_obj = [
        {
            "id": identity.id,
            "title": identity.title,
            "kind": identity.kind,
            "params": list(identity.params),
            "sides": list(identity.side_names),
            "scan_only": identity.scan_only,
            "statement": identity.statement,
        }
        for identity in REGISTRY.values()
    ]
    rows: List[Sequence] = [("id", "kind", "params", "title")]
    rows.extend(
        (i.id, i.kind, ",".join(i.params) or "-", i.title) for i in REGISTRY.values()
    )
    _emit(args, json_obj, rows)
    return 0


def _attach_negative_values(argv: Sequence[str]) -> List[str]:
    """Rewrite "--a -7/3" as "--a=-7/3".

    argparse takes a token such as -7/3 for an option rather than a value
    (it only recognises plain negative numbers), so a negative literal
    given as its own token after a parameter flag is attached to the flag.
    No option of this CLI starts with a dash and a digit.
    """
    out: List[str] = []
    for token in argv:
        if out and out[-1] in _ENV_FLAGS and _NEGATIVE_LITERAL.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        if getattr(args, "order", 0) < 0:
            raise UsageError("--order must be non-negative")
        for dest, flag in _SIZE_FLAGS:
            if (getattr(args, dest, None) or 0) > MAX_SIZE:
                raise UsageError(f"{flag} must be at most {MAX_SIZE}")
        if getattr(args, "samples", 0) < 0:
            raise UsageError("--samples must be non-negative")
        return args.run(args)
    except UsageError as err:
        print(f"qlab: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
