import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import ref_partitions
from qlab.partitions import (
    _TABLE_STATS,
    _partition_tuples,
    AnomalousInputError,
    EmptyPartitionError,
    Partition,
    SPartitionTriple,
    crank,
    distinct_partition_tuples,
    moment,
    n_sc,
    ospt,
    overlined_largest_sum,
    partition_count,
    partition_profiles,
    partition_tuples,
    rank,
    self_conjugate_s_partitions,
    spt,
    statistic_table,
)


def test_enumerate_zero_gives_empty_partition():
    assert list(partition_tuples(0)) == [()]


def test_enumerate_four_unbounded():
    listed = list(partition_tuples(4))
    assert listed == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_enumerate_four_bounded():
    listed = list(partition_tuples(4, max_part=2))
    assert listed == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]


@pytest.mark.parametrize("n", range(19))
def test_enumeration_matches_the_composition_reference(n):
    every = ref_partitions(n)
    for max_part in [None] + list(range(n + 2)):
        top = n if max_part is None else max_part
        for min_part in (1, 2, 3):
            for gap in (0, 1):
                expected = [
                    p
                    for p in every
                    if all(min_part <= x <= top for x in p)
                    and all(x - y >= gap for x, y in zip(p, p[1:]))
                ]
                listed = list(_partition_tuples(n, top, min_part, gap))
                assert listed == expected, (max_part, min_part, gap)
            listed = list(partition_tuples(n, max_part, min_part))
            assert listed == list(_partition_tuples(n, top, min_part, 0))
    assert list(distinct_partition_tuples(n)) == [p for p in every if len(set(p)) == len(p)]


def test_enumeration_counts_match_the_generating_functions():
    # [q^n] 1/(q)_inf and [q^n] (-q)_inf, one factor 1/(1 - q^k) or
    # 1 + q^k at a time, on plain integer lists
    order = 40
    unrestricted = [1] + [0] * order
    distinct = [1] + [0] * order
    for k in range(1, order + 1):
        for e in range(k, order + 1):
            unrestricted[e] += unrestricted[e - k]
        for e in range(order, k - 1, -1):
            distinct[e] += distinct[e - k]
    assert unrestricted[40] == 37338 and distinct[40] == 1113
    for n in range(order + 1):
        assert sum(1 for _ in partition_tuples(n)) == unrestricted[n], n
        assert sum(1 for _ in distinct_partition_tuples(n)) == distinct[n], n


def test_enumerators_reject_negative_n_when_called():
    for enumerate_ in (partition_tuples, distinct_partition_tuples, partition_profiles):
        with pytest.raises(ValueError):
            enumerate_(-1)


@pytest.mark.parametrize("n", list(range(31)) + [40])
def test_profiles_read_the_partition_tuples_in_order(n):
    def profile(parts):
        ones = parts.count(1)
        above = parts[: len(parts) - ones]  # the parts above 1
        return (parts[0] if parts else 0, len(parts), ones, above.count(above[-1]) if above else 0)

    assert list(partition_profiles(n)) == [profile(p) for p in partition_tuples(n)]


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_spt_values():
    assert spt(1) == 1
    assert spt(4) == 10
    assert spt(4, max_part=2) == 8


def test_rank_and_crank_examples():
    assert rank(Partition((3, 1))) == 1
    assert crank(Partition((4,))) == 4
    assert crank(Partition((2, 1, 1))) == -2
    with pytest.raises(EmptyPartitionError):
        rank(Partition(()))
    with pytest.raises(EmptyPartitionError):
        crank(Partition(()))


def test_moments():
    # ranks of the partitions of 4 are 3, 1, 0, -1, -3
    assert moment("rank", 2, 4, positive_only=False) == 20
    # zeroth moment counts partitions
    for n in (3, 5, 8):
        assert moment("rank", 0, n, positive_only=False) == partition_count(n)
        assert moment("crank", 0, n, positive_only=False) == partition_count(n)
    # cranks of the partitions of 4 are 4, 2, 0, -2, -4: positive first moment 6
    assert moment("crank", 1, 4, positive_only=True) == 6


def test_ospt_values():
    assert ospt(2) == 1
    assert ospt(3) == 1
    assert ospt(4) > 0
    with pytest.raises(AnomalousInputError):
        ospt(1)


def test_s_partition_conventions():
    # the single triple of size 1: ((1), empty, empty), weight +1
    assert list(self_conjugate_s_partitions(1)) == [((1,), (), 1)]
    assert n_sc(1) == 1
    assert n_sc(2) == 1
    # every yielded tuple is a valid triple (pi1, pi2, pi2)
    for n in range(1, 9):
        for parts1, parts2, weight in self_conjugate_s_partitions(n):
            pi2 = Partition(parts2)
            SPartitionTriple(Partition(parts1), pi2, pi2, weight)
            assert sum(parts1) + 2 * sum(parts2) == n
    with pytest.raises(ValueError):
        SPartitionTriple(Partition(()), Partition(()), Partition(()), 1)
    with pytest.raises(ValueError):
        # smallest part of pi2 below smallest of pi1
        SPartitionTriple(Partition((2,)), Partition((1,)), Partition((1,)), 1)


def test_overlined_largest_sum_values():
    assert overlined_largest_sum(1) == 1
    assert overlined_largest_sum(4) == 17


def test_statistic_table_dispatch():
    # each statistic's per-n public function, and the params it reports
    moments = {"j": 2, "positive_only": False}
    per_n = {
        "p": (partition_count, {}),
        "p_restricted": (lambda n: partition_count(n, 3), {"max_part": 3}),
        "spt": (spt, {}),
        "spt_restricted": (lambda n: spt(n, 3), {"max_part": 3}),
        "rank_moment": (lambda n: moment("rank", 2, n, False), moments),
        "crank_moment": (lambda n: moment("crank", 2, n, False), moments),
        "ospt": (ospt, {}),
        "n_sc": (n_sc, {}),
        "overlined_largest_sum": (overlined_largest_sum, {}),
    }
    assert list(_TABLE_STATS) == list(per_n)
    for stat, (value_at, params) in per_n.items():
        table = statistic_table(stat, 8, max_part=3, j=2, positive_only=False)
        first = 2 if stat == "ospt" else 1
        assert table.values == {n: value_at(n) for n in range(first, 9)}, stat
        assert table.params == params, stat
    table = statistic_table("spt", 6)
    assert table.values[4] == 10
    table = statistic_table("ospt", 4)
    assert 1 not in table.values and table.values[2] == 1
    with pytest.raises(ValueError):
        statistic_table("nope", 5)


# -- structural invariants ----------------------------------------------------


@pytest.mark.parametrize("n", range(1, 16))
def test_rank_and_crank_counts_sum_to_p(n):
    assert moment("rank", 0, n, False) == partition_count(n)
    assert moment("crank", 0, n, False) == partition_count(n)


@pytest.mark.parametrize("n", range(1, 16))
def test_rank_symmetry_and_vanishing_odd_moments(n):
    counts = {}
    for p in map(Partition, partition_tuples(n)):
        k = rank(p)
        counts[k] = counts.get(k, 0) + 1
    for k, c in counts.items():
        assert counts.get(-k, 0) == c
    assert moment("rank", 1, n, positive_only=False) == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12), st.integers(1, 14))
def test_restricted_count_monotone_and_stabilizing(n, bound):
    assert partition_count(n, bound) <= partition_count(n, bound + 1)
    if bound >= n:
        assert partition_count(n, bound) == partition_count(n)
        assert spt(n, bound) == spt(n)


def test_n_sc_matches_series_coefficients():
    from qlab.identities.spt_family import n_sc_generating_function

    series = n_sc_generating_function(12)
    for n in range(1, 13):
        assert n_sc(n) == series[n], f"n_sc mismatch at n={n}"


def test_overlined_largest_matches_series_coefficients():
    from qlab.identities.spt_family import overlined_largest_series

    series = overlined_largest_series(20)
    for n in range(1, 21):
        assert overlined_largest_sum(n) == series[n]
