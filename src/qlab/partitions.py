"""Brute-force partition enumeration and derived statistics.

Everything here is computed by direct enumeration, deliberately free of
generating functions, so these values can serve as independent oracles
for the series side.  Feasible at desk scale (n up to roughly 40).

ZS1, the successor loop of Zoghbi and Stojmenović, has two readers.
_partition_tuples, behind partition_tuples and distinct_partition_tuples,
adds a floor and a gap on the parts and yields tuples for the per-n
statistics; partition_profiles yields R24's running values.  The statistics
stay on tuples: they are the reference for R24's sides, and a fault in the
profile reader would reach both.
_TABLE_STATS maps each tabulated statistic to its value and the parameters
it reads, for statistic_table and the qlab table command alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Tuple


class EmptyPartitionError(ValueError):
    """Rank and crank are undefined for the empty partition."""


class AnomalousInputError(ValueError):
    """Statistic not defined at this argument (crank convention at n = 1)."""


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers."""

    parts: Tuple[int, ...]

    def __post_init__(self):
        for i, p in enumerate(self.parts):
            if p < 1:
                raise ValueError("parts must be positive")
            if i and self.parts[i - 1] < p:
                raise ValueError("parts must be weakly decreasing")

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    @property
    def smallest(self) -> int:
        return self.parts[-1] if self.parts else 0

    def has_distinct_parts(self) -> bool:
        return len(set(self.parts)) == len(self.parts)


@dataclass(frozen=True)
class SPartitionTriple:
    """Vector partition (pi1, pi2, pi3) with pi1 nonempty into distinct parts
    and smallest-part constraint s(pi1) <= min(s(pi2), s(pi3)), where the
    smallest part of an empty partition counts as +infinity."""

    pi1: Partition
    pi2: Partition
    pi3: Partition
    weight: int

    def __post_init__(self):
        if not self.pi1.parts:
            raise ValueError("pi1 must be nonempty")
        if not self.pi1.has_distinct_parts():
            raise ValueError("pi1 must have distinct parts")
        s1 = self.pi1.smallest
        for other in (self.pi2, self.pi3):
            if other.parts and other.smallest < s1:
                raise ValueError("smallest-part constraint violated")
        if self.weight != (-1) ** (self.pi1.num_parts - 1):
            raise ValueError("weight must be (-1)^(#pi1 - 1)")


@dataclass(frozen=True)
class StatisticTable:
    """Integer-valued statistic values indexed by n."""

    statistic: str
    values: Dict[int, int]
    params: Dict[str, object] = field(default_factory=dict)


def _partition_tuples(
    n: int, top: int, min_part: int, gap: int
) -> Iterator[Tuple[int, ...]]:
    """Partitions of n with parts in [min_part, top], each part at most the
    one before it minus gap, in descending lexicographic order.

    ZS1 (Zoghbi and Stojmenović, "Fast algorithms for generating integer
    partitions", 1998) as a successor loop over one mutable parts array:
    lower the last part above the floor lo = max(min_part, 1) by one, then
    refill the remainder r after it with the largest parts that fit.  The
    trailing lo's are never written: like ZS1's trailing ones, they are the
    array's initial fill.

    Published ZS1 has no floor above 1 and no gap, so its refill (copies of
    the lowered part, then what is left) is generalised.  k parts in
    [lo, c], each at least gap below the one before, can sum to anything
    from k lo + stair to k c - stair, where stair = gap k(k-1)/2.  The
    refill uses the fewest k whose range holds r; each part is r minus the
    least that the parts after it can sum to, capped at c.  When no k fits,
    the same part is lowered again, and a part lowered to lo joins r.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    lo = max(min_part, 1)

    def gen() -> Iterator[Tuple[int, ...]]:
        parts = [lo] * (n + 1)  # past the last part above lo, every entry is lo
        i, r, c = 0, n, min(top, n)  # refill r from index i, parts at most c
        while True:
            if c < lo:
                k, fits = 0, r == 0
            else:
                k = -(-r // c)  # fewer parts cannot reach r
                stair = 0
                if gap:
                    stair = gap * k * (k - 1) // 2
                    while k * c - stair < r and k * lo + stair <= r:
                        k += 1
                        stair = gap * k * (k - 1) // 2
                fits = k * lo + stair <= r
            if fits:
                while k:
                    k -= 1
                    part = r - k * lo
                    if gap:
                        part -= gap * k * (k - 1) // 2
                    if part > c:
                        part = c
                    if part == lo:  # it and the k parts after it are lo
                        k += 1
                        break
                    parts[i] = part
                    i += 1
                    r -= part
                    c = part - gap
                yield tuple(parts[: i + k])
                r = k * lo
            # lower the last part above lo by one
            while True:
                i -= 1
                if i < 0:
                    return
                part = parts[i]
                if part > lo:
                    part -= 1
                    parts[i] = part
                    r += 1
                    if part > lo or gap:
                        break
                    # lowered to lo with no gap (ZS1's step for a part 2):
                    # the refill is all lo's
                    if r % lo == 0:
                        yield tuple(parts[: i + 1 + r // lo])
                r += lo
            i += 1
            c = part - gap

    return gen()


def partition_tuples(
    n: int, max_part: Optional[int] = None, min_part: int = 1
) -> Iterator[Tuple[int, ...]]:
    """All partitions of n with parts in [min_part, max_part], as tuples,
    in descending lexicographic order."""
    return _partition_tuples(n, n if max_part is None else max_part, min_part, 0)


def distinct_partition_tuples(n: int) -> Iterator[Tuple[int, ...]]:
    """Partitions of n into distinct parts, descending lexicographic order."""
    return _partition_tuples(n, n, 1, 1)


def partition_profiles(n: int) -> Iterator[Tuple[int, int, int, int]]:
    """(largest part, number of parts, ones, multiplicity of the last part
    above 1, 0 if none) of each partition of n, in partition_tuples(n) order.

    Published ZS1, building no tuple: h indexes the last part above 1, and
    every entry after it is 1.  A step lowers parts[h] to r and refills the
    rest with r's, then one smaller part if more than 1 is left; start[i]
    is where the block of equal parts through i begins.
    """
    if n < 0:
        raise ValueError("n must be non-negative")

    def gen() -> Iterator[Tuple[int, int, int, int]]:
        parts, start = [1] * (n + 1), [0] * (n + 1)
        parts[0] = n  # n = 0: the empty partition, of size 0
        size, h = min(n, 1), (0 if n > 1 else -1)
        while True:
            yield parts[0], size, size - 1 - h, h - start[h] + 1 if h >= 0 else 0
            if h < 0:
                return
            r = parts[h] - 1
            if r == 1:  # ZS1's short step: the 2 becomes a 1
                parts[h] = 1
                size += 1
                h -= 1
                continue
            t, low = size - h, h  # the unit taken off and the ones after h
            parts[h], start[h] = r, h
            while t >= r:
                h += 1
                parts[h], start[h] = r, low
                t -= r
            if t > 1:
                h += 1
                parts[h], start[h] = t, h
            size = h + 2 if t == 1 else h + 1  # a 1 left over is a trailing one

    return gen()


def partition_count(n: int, max_part: Optional[int] = None) -> int:
    """p(n), or the restricted count p(n, N) when max_part = N."""
    return sum(1 for _ in partition_tuples(n, max_part))


def spt(n: int, max_part: Optional[int] = None) -> int:
    """Total multiplicity of the smallest part over the counted partitions."""
    if n < 1:
        raise ValueError("n must be positive")
    total = 0
    for parts in partition_tuples(n, max_part):
        smallest = parts[-1]
        total += parts.count(smallest)
    return total


def _rank(parts: Tuple[int, ...]) -> int:
    return parts[0] - len(parts)


def _crank(parts: Tuple[int, ...]) -> int:
    omega = parts.count(1)
    if omega == 0:
        return parts[0]
    mu = sum(1 for part in parts if part > omega)
    return mu - omega


def rank(p: Partition) -> int:
    """Dyson's rank: largest part minus number of parts."""
    if not p.parts:
        raise EmptyPartitionError("rank of the empty partition")
    return _rank(p.parts)


def crank(p: Partition) -> int:
    """Dyson's crank: the largest part if there are no ones, otherwise
    mu - omega with omega the number of ones and mu the number of parts
    exceeding omega."""
    if not p.parts:
        raise EmptyPartitionError("crank of the empty partition")
    return _crank(p.parts)


_STATISTICS = {"rank": _rank, "crank": _crank}  # on a nonempty parts tuple


def moment(kind: str, j: int, n: int, positive_only: bool) -> int:
    """sum_k k^j N(k, n) (rank) or k^j M(k, n) (crank), over k >= 1 when
    positive_only, else over all k."""
    if n < 1:
        raise ValueError("n must be positive")
    if j < 0:
        raise ValueError("moment order must be non-negative")
    if kind not in _STATISTICS:
        raise ValueError(f"unknown statistic kind: {kind!r}")
    stat = _STATISTICS[kind]
    total = 0
    # the enumerated tuples are valid nonempty partitions, so the statistic
    # reads them directly instead of through a validated Partition
    for parts in partition_tuples(n):
        k = stat(parts)
        if positive_only and k < 1:
            continue
        total += k**j
    return total


def ospt(n: int) -> int:
    """First positive crank moment minus first positive rank moment.

    n = 1 is excluded: the combinatorial crank of (1) is -1 while the
    generating-function convention assigns M(-1,1) = M(1,1) = 1 and
    M(0,1) = -1, so the two sides of any crank comparison disagree there.
    """
    if n < 2:
        raise AnomalousInputError("ospt is handled only for n >= 2")
    return moment("crank", 1, n, True) - moment("rank", 1, n, True)


def self_conjugate_s_partitions(
    n: int,
) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...], int]]:
    """The triples (pi1, pi2, pi2) of total size n satisfying the
    S-constraint, as (pi1 parts, pi2 parts, weight): pi1 has distinct parts,
    every part of pi2 is at least the smallest part of pi1, and the weight
    is (-1)^(#pi1 - 1)."""
    if n < 1:
        raise ValueError("n must be positive")
    for m1 in range(1, n + 1):
        rest = n - m1
        if rest % 2:
            continue
        for parts1 in distinct_partition_tuples(m1):
            weight = (-1) ** (len(parts1) - 1)
            for parts2 in partition_tuples(rest // 2, min_part=parts1[-1]):
                yield parts1, parts2, weight


def n_sc(n: int) -> int:
    """Weighted count of self-conjugate S-partitions of n."""
    return sum(weight for _, _, weight in self_conjugate_s_partitions(n))


def overlined_largest_sum(n: int) -> int:
    """Over all overpartitions of n whose largest part is overlined, the sum
    of largest parts, each overpartition contributing its largest part once.

    An overpartition may overline the final occurrence of any part value,
    so a partition with v distinct values yields 2^(v-1) overpartitions
    with the largest value overlined.
    """
    if n < 1:
        raise ValueError("n must be positive")
    total = 0
    for parts in partition_tuples(n):
        values = len(set(parts))
        total += parts[0] * 2 ** (values - 1)
    return total


# statistic name -> (its value at n, None where undefined; the
# statistic_table parameters it reads, passed to it by keyword).  The
# lambdas look the per-n functions up at call time, so a wrapper installed
# on those module names sees the calls made through statistic_table.
_TABLE_STATS: Dict[str, Tuple[Callable[..., Optional[int]], Tuple[str, ...]]] = {
    "p": (lambda n: partition_count(n), ()),
    "p_restricted": (lambda n, max_part: partition_count(n, max_part), ("max_part",)),
    "spt": (lambda n: spt(n), ()),
    "spt_restricted": (lambda n, max_part: spt(n, max_part), ("max_part",)),
    "rank_moment": (lambda n, **m: moment("rank", n=n, **m), ("j", "positive_only")),
    "crank_moment": (lambda n, **m: moment("crank", n=n, **m), ("j", "positive_only")),
    "ospt": (lambda n: ospt(n) if n >= 2 else None, ()),
    "n_sc": (lambda n: n_sc(n), ()),
    "overlined_largest_sum": (lambda n: overlined_largest_sum(n), ()),
}


def statistic_table(
    statistic: str,
    max_n: int,
    max_part: Optional[int] = None,
    j: int = 1,
    positive_only: bool = True,
) -> StatisticTable:
    """Tabulate one of the named partition statistics for 1 <= n <= max_n."""
    if statistic not in _TABLE_STATS:
        raise ValueError(
            f"unknown statistic {statistic!r}; choose from {', '.join(_TABLE_STATS)}"
        )
    value_at, reads = _TABLE_STATS[statistic]
    given = {"max_part": max_part, "j": j, "positive_only": positive_only}
    params: Dict[str, object] = {name: given[name] for name in reads}
    values = {
        n: value
        for n in range(1, max_n + 1)
        if (value := value_at(n, **params)) is not None
    }
    return StatisticTable(statistic, values, params)
