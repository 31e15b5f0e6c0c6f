"""Every side built twice: by build_side on QSeries, and by its builder on
RefSeries, the naive one-Fraction-per-coefficient series type in _oracles.

verify compares the sides of an identity with each other, and all of them
run on the same QSeries kernels, so a kernel fault that changes every side
alike still passes: read q as q^2 in apply_ratio, and an identity in q
still holds in q^2.  A builder takes its unit series from the caller and
builds only from it, so the same builder runs on a second, naive series
type, and the two results must have equal coefficients.  This is
differential testing (W. M. McKeeman, "Differential Testing for Software",
Digital Technical Journal 10(1), 1998).
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from qlab.identities import REGISTRY, ParamEnv, build_side
from qlab.identities.harness import _distinct_envs
from qlab.identities.model import FINITE

from _oracles import RefSeries

ORDER = 10
CUTOFFS = (1, 3)
SAMPLES = 2

# The entries left out, each with its reason.  Every other entry, a new one
# included, is covered.
EXEMPT = {
    "R24": "both sides come from partition enumeration, not from series kernels",
    "R33": "the left side runs the bivariate LaurentZQSeries extraction",
    "R34": "the left side runs the bivariate LaurentZQSeries extraction",
    "R35": "scan-only, so run_suite skips it; its sides are moment sums, checked below",
}
COVERED = sorted(set(REGISTRY) - set(EXEMPT))
# The moment sums, R33's and R34's closed forms and the scan's difference,
# build from the unit series too, so they are checked on their own.
MOMENT_SUMS = [("R33", "rhs"), ("R34", "rhs"), ("R35", "lhs"), ("R35", "rhs")]


def test_exempt_entries_are_the_enumeration_and_moment_entries():
    assert set(EXEMPT) == {"R24", "R33", "R34", "R35"}
    assert set(EXEMPT) <= set(REGISTRY)


def test_the_drawn_environments_are_distinct():
    # two admissible values of a: the draws repeat one of them early, and
    # each of the two must still come back once
    halves = (Fraction(1, 2), Fraction(-1, 2))
    identity = dataclasses.replace(REGISTRY["R19"], domain=lambda env: env.get("a") in halves)
    for seed in range(10):
        envs = _distinct_envs(random.Random(seed), identity, 2)
        assert sorted(env.get("a") for env in envs) == sorted(halves), seed


@pytest.mark.parametrize("identity_id", COVERED)
def test_sides_equal_on_the_reference_series(identity_id):
    identity = REGISTRY[identity_id]
    cutoffs = CUTOFFS if identity.kind == FINITE else (None,)
    # seeded by the id, so a new entry leaves the others' environments alone
    for env in _distinct_envs(random.Random(identity_id), identity, SAMPLES):
        for n_value in cutoffs:
            for name, builder in identity.sides:
                built = build_side(identity, name, env, n_value, ORDER)
                reference = builder(env, n_value, RefSeries.one(ORDER))
                # a builder that calls a QSeries constructor returns a QSeries
                assert isinstance(reference, RefSeries), (name, type(reference))
                assert reference.coeffs == built.coeffs, (name, env, n_value)


@pytest.mark.parametrize("identity_id,side", MOMENT_SUMS)
def test_moment_sums_equal_on_the_reference_series(identity_id, side):
    identity = REGISTRY[identity_id]
    for n_value in CUTOFFS:
        built = build_side(identity, side, ParamEnv(), n_value, ORDER)
        reference = identity.side(side)(ParamEnv(), n_value, RefSeries.one(ORDER))
        assert isinstance(reference, RefSeries)
        assert reference.coeffs == built.coeffs, n_value
