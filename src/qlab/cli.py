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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .identities import (
    DEFAULT_N_MAX,
    DEFAULT_ORDER,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    REGISTRY,
    ConstraintViolationError,
    ParamEnv,
    UnsupportedNError,
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


class UsageError(Exception):
    """Configuration problem that should exit with status 2."""


@dataclass
class RunConfig:
    subcommand: str
    identity_id: Optional[str] = None
    side: str = "lhs"
    seed: int = DEFAULT_SEED
    samples: int = DEFAULT_SAMPLES
    order: int = DEFAULT_ORDER
    n_value: Optional[int] = None
    n_max: int = DEFAULT_N_MAX
    max_n: int = 10
    stat: Optional[str] = None
    j: int = 1
    positive_only: bool = False
    env_values: Dict[str, str] = field(default_factory=dict)
    fmt: str = "json"
    out: Optional[str] = None
    strict: bool = False


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlab",
        description="exact verification laboratory for q-series identities",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, order_default=DEFAULT_ORDER):
        p.add_argument("--format", dest="fmt", choices=("json", "tsv"), default="json")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--order", type=int, default=order_default, help="truncation order T")

    p_verify = sub.add_parser("verify", help="run the identity suite (or one identity)")
    common(p_verify)
    p_verify.add_argument("--id", dest="identity_id", help="restrict to one registry id")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p_verify.add_argument("--N", dest="n_value", type=int, help="single cutoff N")
    p_verify.add_argument("--N-max", dest="n_max", type=int, default=DEFAULT_N_MAX)

    p_table = sub.add_parser("table", help="tabulate a partition statistic")
    common(p_table)
    p_table.add_argument("--stat", required=True, choices=_TABLE_STATS)
    p_table.add_argument("--max-n", dest="max_n", type=int, default=10)
    p_table.add_argument("--N", dest="n_value", type=int, help="largest-part bound")
    p_table.add_argument("--j", type=int, default=1, help="moment order")
    p_table.add_argument(
        "--positive-only",
        action="store_true",
        help="sum moments over k >= 1 only",
    )

    p_coeffs = sub.add_parser("coeffs", help="print coefficients of one side")
    common(p_coeffs)
    p_coeffs.add_argument("--id", dest="identity_id", required=True)
    p_coeffs.add_argument("--side", default="lhs")
    p_coeffs.add_argument("--N", dest="n_value", type=int)
    for name in PARAM_NAMES:
        p_coeffs.add_argument(
            f"--{name}", dest=f"env_{name}", help=f"exact rational value for {name}"
        )

    p_pos = sub.add_parser("positivity", help="scan the moment-difference coefficients")
    common(p_pos, order_default=50)
    p_pos.add_argument("--N", "--N-max", dest="n_max", type=int, default=8)
    p_pos.add_argument(
        "--strict", action="store_true", help="exit 1 if any negative coefficient"
    )

    p_list = sub.add_parser("list", help="print the identity registry")
    common(p_list)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand)
    for name in (
        "identity_id",
        "side",
        "seed",
        "samples",
        "order",
        "n_value",
        "n_max",
        "max_n",
        "stat",
        "j",
        "positive_only",
        "fmt",
        "out",
        "strict",
    ):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    for name in PARAM_NAMES:
        value = getattr(args, f"env_{name}", None)
        if value is not None:
            cfg.env_values[name] = value
    if cfg.order < 0:
        raise UsageError("--order must be non-negative")
    if cfg.samples < 0:
        raise UsageError("--samples must be non-negative")
    return cfg


def _emit(cfg: RunConfig, json_obj, tsv_rows: List[Sequence]) -> None:
    if cfg.fmt == "json":
        text = json.dumps(json_obj, indent=2) + "\n"
    else:
        text = "\n".join("\t".join(str(x) for x in row) for row in tsv_rows) + "\n"
    if cfg.out:
        try:
            with open(cfg.out, "w") as handle:
                handle.write(text)
        except OSError as err:
            raise UsageError(f"cannot write --out: {err}") from None
    else:
        sys.stdout.write(text)


def _env_as_tsv(env_strings: Dict[str, str]) -> str:
    return ";".join(f"{k}={v}" for k, v in sorted(env_strings.items()))


def cmd_verify(cfg: RunConfig) -> int:
    ids = None
    if cfg.identity_id is not None:
        try:
            get_identity(cfg.identity_id)
        except KeyError as err:
            raise UsageError(err.args[0]) from None
        ids = [cfg.identity_id]
    n_values = [cfg.n_value] if cfg.n_value is not None else None
    if n_values and n_values[0] < 1:
        raise UsageError("--N must be >= 1")
    if cfg.n_max < 1:
        raise UsageError("--N-max must be >= 1")
    reports = run_suite(
        seed=cfg.seed,
        samples_per_identity=cfg.samples,
        order=cfg.order,
        n_max=cfg.n_max,
        ids=ids,
        n_values=n_values,
    )
    rows: List[Sequence] = [
        (
            "id",
            "env",
            "N",
            "T",
            "outcome",
            "first_mismatch_order",
            "lhs_coeff",
            "rhs_coeff",
            "elapsed_ms",
        )
    ]
    for r in reports:
        d = r.to_json_dict()
        rows.append(
            (
                d["id"],
                _env_as_tsv(d["env"]),
                d["N"],
                d["T"],
                d["outcome"],
                d["first_mismatch_order"],
                d["lhs_coeff"],
                d["rhs_coeff"],
                d["elapsed_ms"],
            )
        )
    _emit(cfg, [r.to_json_dict() for r in reports], rows)
    return 0 if all(r.passed for r in reports) else 1


def cmd_table(cfg: RunConfig) -> int:
    if cfg.stat in ("p_restricted", "spt_restricted"):
        if cfg.n_value is None:
            raise UsageError(f"--stat {cfg.stat} needs --N (the largest-part bound)")
        if cfg.n_value < 0:
            raise UsageError("--N (the largest-part bound) must be non-negative")
    if cfg.max_n < 1:
        raise UsageError("--max-n must be >= 1")
    if cfg.j < 0:
        raise UsageError("--j must be non-negative")
    table = statistic_table(
        cfg.stat,
        cfg.max_n,
        max_part=cfg.n_value,
        j=cfg.j,
        positive_only=cfg.positive_only,
    )
    json_obj = {
        "stat": table.statistic,
        "params": {k: v for k, v in table.params.items()},
        "values": {str(n): v for n, v in sorted(table.values.items())},
    }
    rows: List[Sequence] = [("n", "value")]
    rows.extend((n, v) for n, v in sorted(table.values.items()))
    _emit(cfg, json_obj, rows)
    return 0


def cmd_coeffs(cfg: RunConfig) -> int:
    try:
        identity = get_identity(cfg.identity_id)
    except KeyError as err:
        raise UsageError(err.args[0]) from None
    try:
        env = ParamEnv(**{k: parse_rat(v) for k, v in cfg.env_values.items()})
    except ValueError as err:
        raise UsageError(str(err)) from None
    missing = [p for p in identity.params if getattr(env, p) is None]
    if missing:
        raise UsageError(
            f"{identity.id} needs values for: {', '.join(missing)} (pass --{missing[0]} p/q)"
        )
    if identity.kind == FINITE and cfg.n_value is None:
        raise UsageError(f"{identity.id} is a finite identity; pass --N")
    try:
        series = build_side(identity, cfg.side, env, cfg.n_value, cfg.order)
    except KeyError as err:
        raise UsageError(err.args[0]) from None
    except (ConstraintViolationError, UnsupportedNError, ZeroConstantTermError) as err:
        raise UsageError(str(err)) from None
    coeff_strings = [format_rat(c) for c in series.coeffs]
    json_obj = {
        "id": identity.id,
        "side": cfg.side,
        "env": env.as_strings(),
        "N": cfg.n_value if identity.kind == FINITE else None,
        "T": cfg.order,
        "coeffs": coeff_strings,
    }
    rows: List[Sequence] = [("order", "coeff")]
    rows.extend(enumerate(coeff_strings))
    _emit(cfg, json_obj, rows)
    return 0


def cmd_positivity(cfg: RunConfig) -> int:
    if cfg.n_max < 1:
        raise UsageError("--N must be >= 1")
    rows = positivity_scan(cfg.n_max, cfg.order)
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
    _emit(cfg, json_obj, tsv)
    negatives = [row for row in rows if not row.non_negative]
    if negatives and cfg.strict:
        return 1
    return 0


def cmd_list(cfg: RunConfig) -> int:
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
    _emit(cfg, json_obj, rows)
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


_COMMANDS = {
    "verify": cmd_verify,
    "table": cmd_table,
    "coeffs": cmd_coeffs,
    "positivity": cmd_positivity,
    "list": cmd_list,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.subcommand](cfg)
    except UsageError as err:
        print(f"qlab: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
