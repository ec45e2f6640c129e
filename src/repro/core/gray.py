"""Gray-code ordering of binary codes (Definition 5, Proposition 2).

The Dynamic HA-Index sorts binary codes "according to the Gray order"
before windowed pattern extraction.  Consecutive Gray codewords differ in
exactly one bit, so sorting codes by their *Gray rank* — the integer whose
Gray encoding equals the code — clusters codes with small mutual Hamming
distance (Faloutsos, SIGMOD '86).  The same ordering drives the pivot
selection for balanced MapReduce partitioning (Section 5.1).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.bitvector import CodeSet


def to_gray(value: int) -> int:
    """Gray encoding of ``value``: ``g = b ^ (b >> 1)``."""
    return value ^ (value >> 1)


def from_gray(gray: int) -> int:
    """Inverse of :func:`to_gray` — the rank of ``gray`` in Gray order.

    The rank is the prefix XOR of the code's bits, taken in
    ``log2(bit length)`` doubling shifts.
    """
    shift, width = 1, gray.bit_length()
    while shift < width:
        gray ^= gray >> shift
        shift <<= 1
    return gray


def gray_rank(code: int) -> int:
    """Rank of a binary code in the Gray order (alias of :func:`from_gray`).

    Sorting codes by this key realizes the paper's "sort based on the
    non-decreasing Gray order of the tuples' binary codes" (Algorithm 1,
    line 1).
    """
    return from_gray(code)


def gray_sort_indices(codes: Sequence[int]) -> list[int]:
    """Indices that sort ``codes`` into non-decreasing Gray order.

    The sort is stable, so ties (duplicate codes) keep their original
    relative order — this keeps H-Build deterministic.
    """
    return sorted(range(len(codes)), key=lambda i: gray_rank(codes[i]))


def gray_sort(codeset: CodeSet) -> CodeSet:
    """A copy of ``codeset`` in Gray order, tuple ids carried along."""
    return codeset.subset(gray_sort_indices(codeset.codes))


def gray_rank_array(packed: np.ndarray) -> np.ndarray:
    """Vectorized Gray ranks for a packed ``uint64`` code array.

    The inverse Gray transform is a parallel prefix XOR, computed here with
    log2(64) shift/XOR rounds.
    """
    ranks = packed.astype(np.uint64)
    shift = np.uint64(1)
    while shift < np.uint64(64):
        ranks ^= ranks >> shift
        shift <<= np.uint64(1)
    return ranks


def gray_ranks(codes: Sequence[int]) -> np.ndarray:
    """Gray ranks of many codes, in input order.

    Codes of at most 64 bits are ranked in one vectorized
    :func:`gray_rank_array` pass (a ``uint64`` array comes back).  A
    sequence holding any wider code is ranked by :func:`gray_rank`, code
    by code, into an ``object`` array, which sorts and searches the
    same way.
    """
    try:
        packed = np.asarray(codes, dtype=np.uint64)
    except OverflowError:
        return np.array([gray_rank(code) for code in codes], dtype=object)
    return gray_rank_array(packed)


def adjacent_hamming_distances(sorted_codes: Iterable[int]) -> list[int]:
    """Hamming distances between consecutive codes of an iterable.

    Used by tests and benches to confirm the clustering property
    (Proposition 2): Gray-sorted codes have small adjacent distances
    compared to a random permutation.
    """
    distances = []
    iterator = iter(sorted_codes)
    try:
        previous = next(iterator)
    except StopIteration:
        return distances
    for code in iterator:
        distances.append((previous ^ code).bit_count())
        previous = code
    return distances
