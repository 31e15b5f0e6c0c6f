"""qlab: exact-arithmetic verification of finite and infinite q-series identities.

Truncated formal power series over arbitrary-precision rationals, brute
force partition statistics as independent oracles, and a registry of
identities checked coefficient-by-coefficient at sampled rational
parameter values.
"""

from .laurent import LaurentZQSeries
from .partitions import (
    AnomalousInputError,
    EmptyPartitionError,
    Partition,
    SPartitionTriple,
    StatisticTable,
    crank,
    moment,
    n_sc,
    ospt,
    overlined_largest_sum,
    partition_count,
    rank,
    spt,
    statistic_table,
)
from .rational import BACKEND, format_rat, parse_rat
from .series import (
    PoleInTermRangeError,
    QMonomial,
    QSeries,
    ZeroConstantTermError,
    phi_series,
    poch,
    q_binomial,
    term_sum,
)

__version__ = "0.1.0"
