"""Registry data model: identities, parameter environments, reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Optional, Tuple

from ..rational import format_rat
from ..series import QSeries

FINITE = "finite"
INFINITE = "infinite"

PARAM_NAMES = ("a", "b", "c", "d", "z")


class ConstraintViolationError(ValueError):
    """A parameter environment sits on a pole of the identity."""

    def __init__(self, identity_id: str, message: str):
        super().__init__(f"{identity_id}: {message}")
        self.identity_id = identity_id
        self.reason = message


class UnsupportedNError(ValueError):
    """The cutoff N is outside the identity's applicable range."""


class SampleExhaustionError(RuntimeError):
    """An identity has fewer distinct admissible environments than the
    number of samples asked for."""


@dataclass(frozen=True)
class ParamEnv:
    """Exact rational values substituted for the identity parameters."""

    a: Optional[Fraction] = None
    b: Optional[Fraction] = None
    c: Optional[Fraction] = None
    d: Optional[Fraction] = None
    z: Optional[Fraction] = None

    def get(self, name: str) -> Fraction:
        value = getattr(self, name)
        if value is None:
            raise KeyError(f"parameter {name!r} not set in this environment")
        return value

    def as_strings(self) -> Dict[str, str]:
        return {
            name: format_rat(getattr(self, name))
            for name in PARAM_NAMES
            if getattr(self, name) is not None
        }

    def sort_key(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(sorted(self.as_strings().items()))


# builder(env, N, one): N is None for an infinite identity, and one is the unit
# series to the truncation order.  A builder builds from one alone (one.shift,
# one.apply_ratio, type(one).sum_of, ...), so build_side picks the series type.
SideBuilder = Callable[[ParamEnv, Optional[int], QSeries], QSeries]
Constraint = Callable[[ParamEnv], Optional[str]]
Domain = Callable[[ParamEnv], bool]


def _no_constraint(env: ParamEnv) -> Optional[str]:
    return None


def _any_domain(env: ParamEnv) -> bool:
    return True


@dataclass(frozen=True)
class Identity:
    """A registry entry: independent builders for each stated side.

    sides[0] is the reference side ("lhs"); verification compares every
    other side against it coefficient-by-coefficient.  Each builder is
    called as builder(env, N, one) with one the unit series to the
    truncation order (see SideBuilder), and returns a series of one's
    type.  An identity whose statement carries more than one equivalent
    right-hand side registers extra sides.  ``constraint`` names the violated pole (or
    returns None); ``domain`` additionally confines sampling to the
    region where the stated infinite sums converge.
    """

    id: str
    title: str
    statement: str
    params: Tuple[str, ...]
    kind: str
    sides: Tuple[Tuple[str, SideBuilder], ...]
    constraint: Constraint = _no_constraint
    domain: Domain = _any_domain
    scan_only: bool = False

    def __post_init__(self):
        if self.kind not in (FINITE, INFINITE):
            raise ValueError(f"unknown kind {self.kind!r}")
        if len(self.sides) < 2:
            raise ValueError("an identity needs at least two sides")
        for p in self.params:
            if p not in PARAM_NAMES:
                raise ValueError(f"unknown parameter {p!r}")

    @property
    def side_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.sides)

    def side(self, name: str) -> SideBuilder:
        for side_name, builder in self.sides:
            if side_name == name:
                return builder
        raise KeyError(f"{self.id} has no side {name!r} (has {self.side_names})")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one identity at one environment and cutoff."""

    identity_id: str
    env: ParamEnv
    n_value: Optional[int]
    order: int
    passed: bool
    first_mismatch_order: Optional[int] = None
    lhs_coeff: Optional[Fraction] = None
    rhs_coeff: Optional[Fraction] = None
    mismatch_side: Optional[str] = None
    # timing differs between identical runs, so equality ignores it
    elapsed_ms: int = field(default=0, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "id": self.identity_id,
            "env": self.env.as_strings(),
            "N": self.n_value,
            "T": self.order,
            "outcome": "pass" if self.passed else "fail",
            "first_mismatch_order": self.first_mismatch_order,
            "lhs_coeff": None if self.lhs_coeff is None else format_rat(self.lhs_coeff),
            "rhs_coeff": None if self.rhs_coeff is None else format_rat(self.rhs_coeff),
            "elapsed_ms": self.elapsed_ms,
        }
