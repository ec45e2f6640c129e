"""Histogram pivot selection over the Gray order (Section 5.1).

After hashing, the sampled binary codes are sorted in Gray order and an
equi-depth histogram yields ``N - 1`` pivot values: "This guarantees that
each partition receives approximately the same amount of data, where data
in the various partitions is ordered according to the Gray order."
A tuple with code ``U`` belongs to partition ``m`` when
``Pv_m <= gray_rank(U) < Pv_{m+1}`` — realized by a
:class:`~repro.mapreduce.partitioner.RangePartitioner` over Gray ranks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.bitvector import CodeSet
from repro.core.errors import InvalidParameterError
from repro.core.gray import gray_rank, gray_ranks
from repro.mapreduce.partitioner import RangePartitioner


def select_pivots(
    sample_codes: Sequence[int], num_partitions: int
) -> list[int]:
    """Equi-depth pivots (Gray ranks) from a sample of binary codes.

    Returns ``num_partitions - 1`` non-decreasing Gray-rank boundaries.
    A small or highly duplicated sample may yield repeated pivots; the
    range partitioner tolerates that (some partitions simply stay empty,
    which mirrors what happens on a real cluster with a bad sample).
    """
    if num_partitions < 1:
        raise InvalidParameterError("num_partitions must be positive")
    if not sample_codes:
        raise InvalidParameterError("cannot select pivots from no codes")
    ranks = np.sort(gray_ranks(sample_codes))
    return [
        int(ranks[min(boundary * len(ranks) // num_partitions, len(ranks) - 1)])
        for boundary in range(1, num_partitions)
    ]


def gray_range_partitioner(pivots: Sequence[int]) -> RangePartitioner:
    """A range partitioner keyed by Gray rank boundaries."""
    return RangePartitioner(pivots)


def partition_of(code: int, partitioner: RangePartitioner) -> int:
    """Partition id of a binary code under Gray-rank range partitioning."""
    return partitioner(gray_rank(code), partitioner.num_partitions)


def split_by_pivots(
    codes: CodeSet, pivots: Sequence[int]
) -> list[CodeSet]:
    """Partition a :class:`CodeSet` into per-shard sets by Gray rank.

    Returns ``len(pivots) + 1`` code sets (some possibly empty), each
    holding the tuples whose Gray rank falls in the corresponding pivot
    range — the dataset split the sharded serving plane and the
    MapReduce reducers both consume.  Tuple ids ride along, and within
    a shard the original order is preserved (stable split).  Codes are
    ranked in one vectorized pass and routed as
    :class:`~repro.mapreduce.partitioner.RangePartitioner` routes one
    rank (``bisect_right`` over the pivots).
    """
    pivots = gray_range_partitioner(pivots).pivots
    if not pivots:
        return [codes]
    ranks = gray_ranks(codes.codes)
    try:
        bounds = np.asarray(pivots, dtype=ranks.dtype)
    except OverflowError:  # a pivot outside the uint64 rank space
        bounds, ranks = np.asarray(pivots, dtype=object), ranks.astype(object)
    shard_of = np.searchsorted(bounds, ranks, side="right")
    order = np.argsort(shard_of, kind="stable")
    cuts = np.searchsorted(shard_of[order], np.arange(len(pivots) + 2))
    return [
        codes.subset(order[lo:hi].tolist())
        for lo, hi in zip(cuts.tolist(), cuts[1:].tolist())
    ]


def partition_balance(counts: Sequence[int]) -> float:
    """Load-balance factor: max partition size over the ideal mean.

    1.0 is perfect balance; the paper's histogram pivots should keep this
    close to 1 even for skewed data (evaluated in the Figure 10 bench).
    """
    total = sum(counts)
    if total == 0 or not counts:
        return 1.0
    mean = total / len(counts)
    return max(counts) / mean
