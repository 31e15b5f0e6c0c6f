"""Verification harness: single checks, the sampled suite, and the scans.

Sampling draws rational parameter values with numerator and denominator
bounded (|num| <= 9, 1 <= den <= 9), rejection-resampled until the
identity's pole constraint and convergence domain both accept the
environment, so a seeded run is fully deterministic.  Identities
with no free parameters are exercised once per suite run: every sampled
environment would be the same empty one.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..series import QSeries
from .model import (
    FINITE,
    ConstraintViolationError,
    Identity,
    ParamEnv,
    SampleExhaustionError,
    UnsupportedNError,
    VerificationReport,
)
from .moments import moment_difference_finite
from .registry import REGISTRY, get_identity

DEFAULT_ORDER = 40
DEFAULT_SAMPLES = 5
DEFAULT_N_MAX = 6
DEFAULT_SEED = 0

_MAX_NUMERATOR = 9
_MAX_DENOMINATOR = 9
_MAX_ATTEMPTS = 10_000
# consecutive draws that add no new environment before a distinct draw gives
# up; a one-parameter identity's rarest value comes with probability at
# least 1/171 per draw, so a run this long misses it with odds below e^-29
_MAX_REPEATS = 5_000


def build_side(
    identity: Identity, side: str, env: ParamEnv, n_value: Optional[int], order: int
) -> QSeries:
    """One stated side to q^order, after constraint and cutoff validation;
    the builder gets QSeries.one(order), so only this picks the series type."""
    violation = identity.constraint(env)
    if violation is not None:
        raise ConstraintViolationError(identity.id, violation)
    if identity.kind == FINITE:
        if n_value is None or n_value < 1:
            raise UnsupportedNError(f"{identity.id} needs a cutoff N >= 1, got {n_value}")
    else:
        n_value = None
    return identity.side(side)(env, n_value, QSeries.one(order))


def verify(
    identity: Identity, env: ParamEnv, n_value: Optional[int], order: int
) -> VerificationReport:
    """Compare every side against the first, coefficient by coefficient."""
    started = time.perf_counter()
    ref_name = identity.sides[0][0]
    reference = build_side(identity, ref_name, env, n_value, order)
    if identity.kind != FINITE:
        n_value = None
    for side_name, _ in identity.sides[1:]:
        other = build_side(identity, side_name, env, n_value, order)
        mismatch = reference.first_difference(other)
        if mismatch is not None:
            return VerificationReport(
                identity_id=identity.id,
                env=env,
                n_value=n_value,
                order=order,
                passed=False,
                first_mismatch_order=mismatch,
                lhs_coeff=reference[mismatch],
                rhs_coeff=other[mismatch],
                mismatch_side=side_name,
                elapsed_ms=int((time.perf_counter() - started) * 1000),
            )
    return VerificationReport(
        identity_id=identity.id,
        env=env,
        n_value=n_value,
        order=order,
        passed=True,
        elapsed_ms=int((time.perf_counter() - started) * 1000),
    )


def sample_env(rng: random.Random, identity: Identity) -> ParamEnv:
    """Rejection-sample an admissible environment for one identity."""
    for _ in range(_MAX_ATTEMPTS):
        values = {}
        for name in identity.params:
            num = rng.randint(-_MAX_NUMERATOR, _MAX_NUMERATOR)
            den = rng.randint(1, _MAX_DENOMINATOR)
            values[name] = Fraction(num, den)
        env = ParamEnv(**values)
        if identity.constraint(env) is None and identity.domain(env):
            return env
    raise RuntimeError(f"could not sample an admissible environment for {identity.id}")


def _distinct_envs(rng: random.Random, identity: Identity, count: int) -> List[ParamEnv]:
    """count distinct admissible environments in draw order, or the one
    empty environment when the identity has no parameters."""
    if not identity.params:
        return [ParamEnv()]
    envs: Dict[Tuple[Tuple[str, str], ...], ParamEnv] = {}
    repeats = 0
    while len(envs) < count:
        env = sample_env(rng, identity)
        key = env.sort_key()
        if key not in envs:
            envs[key] = env
            repeats = 0
            continue
        repeats += 1
        if repeats == _MAX_REPEATS:
            raise SampleExhaustionError(
                f"could not draw {count} distinct environments for {identity.id}"
            )
    return list(envs.values())


def run_suite(
    seed: int = DEFAULT_SEED,
    samples_per_identity: int = DEFAULT_SAMPLES,
    order: int = DEFAULT_ORDER,
    n_max: int = DEFAULT_N_MAX,
    ids: Optional[Iterable[str]] = None,
    n_values: Optional[Sequence[int]] = None,
    progress=None,
) -> List[VerificationReport]:
    """Verify every (identity, sampled env, applicable N) combination.

    Deterministic for a fixed seed; scan-only entries are skipped.  Raises
    SampleExhaustionError when an identity has fewer distinct admissible
    environments than samples_per_identity.
    """
    if ids is None:
        selected = [i for i in REGISTRY.values() if not i.scan_only]
    else:
        selected = [get_identity(i) for i in ids]
    if samples_per_identity < 1:
        return []
    rng = random.Random(seed)
    # every environment is drawn before the first verify, so a sample count
    # that some identity cannot meet fails before any verification work
    plan = [
        (identity, _distinct_envs(rng, identity, samples_per_identity))
        for identity in sorted(selected, key=lambda i: i.id)
    ]
    reports: List[VerificationReport] = []
    for identity, envs in plan:
        cutoffs: Sequence[Optional[int]] = [None]
        if identity.kind == FINITE:
            cutoffs = list(range(1, n_max + 1)) if n_values is None else list(n_values)
        for env in envs:
            for n_value in cutoffs:
                report = verify(identity, env, n_value, order)
                reports.append(report)
                if progress is not None:
                    progress(report)
    reports.sort(key=lambda r: (r.identity_id, r.env.sort_key(), r.n_value or 0))
    return reports


def crank_rank_extraction_check(n_value: int, order: int) -> List[VerificationReport]:
    """Run the bivariate-extraction identities (crank then rank) at one cutoff."""
    if n_value < 1:
        raise UnsupportedNError("the extraction check needs N >= 1")
    env = ParamEnv()
    return [
        verify(get_identity("R33"), env, n_value, order),
        verify(get_identity("R34"), env, n_value, order),
    ]


@dataclass(frozen=True)
class PositivityRow:
    n_value: int
    order: int
    coeff: Fraction
    non_negative: bool


def positivity_scan(n_max: int, order: int) -> List[PositivityRow]:
    """Coefficients of the crank-minus-rank moment difference for
    N = 1..n_max up to q^order, each flagged non-negative or negative.

    The scan reports; it does not assert (the non-negativity is an
    observation, not a theorem).
    """
    if n_max < 1:
        raise ValueError("the scan needs N >= 1")
    rows: List[PositivityRow] = []
    for n_value in range(1, n_max + 1):
        series = moment_difference_finite(n_value, order)
        for k in range(1, order + 1):
            coeff = series[k]
            rows.append(PositivityRow(n_value, k, coeff, coeff >= 0))
    return rows
