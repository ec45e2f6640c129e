"""Approximate kNN over binary codes via expanding Hamming-select.

Section 2 of the paper describes the standard hash-based approximate kNN
recipe: map the query through the learned similarity hash, run a
Hamming-select with threshold ``h``, and if fewer than ``k`` answers come
back, enlarge the threshold and repeat until ``k`` or more are found; the
``k`` closest by Hamming distance are reported.  The HA-Index makes each
round fast, which is the speed-up Table 5 measures.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.bitvector import CodeSet
from repro.core.dynamic_ha import DynamicHAIndex
from repro.core.errors import InvalidParameterError
from repro.core.index_base import HammingIndex
from repro.obs import maybe_trace
from repro.obs.trace import trace_span

#: Default starting threshold for the expanding search.
DEFAULT_INITIAL_THRESHOLD = 2


def knn_select(
    query: int,
    index: HammingIndex,
    k: int,
    initial_threshold: int = DEFAULT_INITIAL_THRESHOLD,
    threshold_step: int | None = None,
    *,
    weights: "Sequence[float] | None" = None,
    weight_strategy: str = "auto",
    profile: bool = False,
) -> list[tuple[int, int]]:
    """The ``k`` Hamming-nearest tuples as (tuple id, distance) pairs.

    Results are sorted by distance then tuple id; fewer than ``k`` pairs
    are returned only when the index holds fewer than ``k`` tuples.
    ``threshold_step`` defaults to ``max(2, code_length // 8)`` — the
    "larger distance threshold is estimated and the near neighbor query
    is repeated" loop of Section 2, scaled so long codes (whose useful
    radii are proportionally larger) do not pay dozens of rounds.
    ``profile=True`` traces each expansion round as a ``knn.round``
    span (:func:`repro.obs.last_trace`).

    With ``weights`` the ranking is by *weighted* Hamming distance:
    the query routes through
    :func:`repro.core.weighted.weighted_knn` (distances come back as
    exact fixed-point floats; uniform 1.0 weights reproduce the
    unweighted ranking and tie breaks exactly).

    Indexes with a native exact kNN (``knn_search``, e.g. the MIH
    engine's progressive radius expansion) answer directly instead of
    running the expanding-threshold loop; both strategies return the
    ``k`` smallest (distance, id) pairs of the full ranking, so the
    results are identical.
    """
    if k < 1:
        raise InvalidParameterError("k must be positive")
    if weights is not None:
        from repro.core.weighted import weighted_knn

        return weighted_knn(
            query, index, k, weights,
            strategy=weight_strategy, profile=profile,
        )
    if threshold_step is None:
        threshold_step = max(2, index.code_length // 8)
    if initial_threshold < 0 or threshold_step < 1:
        raise InvalidParameterError(
            "need initial_threshold >= 0 and threshold_step >= 1"
        )
    threshold = initial_threshold
    available = len(index)
    target = min(k, available)
    with maybe_trace("knn", profile, k=k):
        native = getattr(index, "knn_search", None)
        if native is not None:
            return native(query, k)
        # Weighted distances may exceed the code length.
        cap = max(index.code_length, getattr(index, "knn_threshold_cap", 0))
        while True:
            with trace_span(
                "knn.round", threshold=threshold
            ) as round_span:
                matches = _matches_with_distances(
                    index, query, threshold
                )
                round_span.annotate(matches=len(matches))
            if len(matches) >= target or threshold >= cap:
                matches.sort(key=lambda pair: (pair[1], pair[0]))
                return matches[:k]
            threshold = min(threshold + threshold_step, cap)


def knn_select_batch(
    queries: Sequence[int],
    index: HammingIndex,
    k: int,
    initial_threshold: int = DEFAULT_INITIAL_THRESHOLD,
    threshold_step: int | None = None,
    *,
    profile: bool = False,
) -> list[list[tuple[int, int]]]:
    """Fused expanding-threshold kNN for a whole query batch.

    Each returned pair list equals ``knn_select(query, index, k, ...)``:
    every query sees exactly the same threshold schedule, but each
    round answers all still-unsatisfied queries through one shared
    ``search_with_distances_batch`` sweep instead of rebuilding the
    frontier per query per round.  Queries that already have ``k``
    matches drop out of later rounds.  Engines with a native exact kNN
    (MIH) or without batched distance search fall back to the
    per-query loop — results are identical either way.
    """
    if k < 1:
        raise InvalidParameterError("k must be positive")
    if threshold_step is None:
        threshold_step = max(2, index.code_length // 8)
    if initial_threshold < 0 or threshold_step < 1:
        raise InvalidParameterError(
            "need initial_threshold >= 0 and threshold_step >= 1"
        )
    queries = list(queries)
    if not queries:
        return []
    batched = getattr(index, "search_with_distances_batch", None)
    if batched is None or hasattr(index, "knn_search"):
        return [
            knn_select(
                query, index, k,
                initial_threshold=initial_threshold,
                threshold_step=threshold_step,
            )
            for query in queries
        ]
    target = min(k, len(index))
    cap = max(index.code_length, getattr(index, "knn_threshold_cap", 0))
    results: list[list[tuple[int, int]] | None] = [None] * len(queries)
    pending = list(range(len(queries)))
    threshold = initial_threshold
    with maybe_trace("knn", profile, k=k, batch=len(queries)):
        while pending:
            with trace_span(
                "knn.round", threshold=threshold
            ) as round_span:
                match_lists = batched(
                    [queries[i] for i in pending], threshold
                )
                round_span.annotate(queries=len(pending))
            still: list[int] = []
            for position, matches in zip(pending, match_lists):
                if len(matches) >= target or threshold >= cap:
                    matches.sort(key=lambda pair: (pair[1], pair[0]))
                    results[position] = matches[:k]
                else:
                    still.append(position)
            pending = still
            threshold = min(threshold + threshold_step, cap)
    return results  # type: ignore[return-value]


def _matches_with_distances(
    index: HammingIndex, query: int, threshold: int
) -> list[tuple[int, int]]:
    # Ranking needs distances, which plain ``search`` does not return
    # and cannot be re-derived without the codes; every shipped index
    # exposes the richer entry point.
    search = getattr(index, "search_with_distances", None)
    if search is not None:
        return search(query, threshold)
    raise InvalidParameterError(
        f"{type(index).__name__} does not expose search_with_distances"
    )


def knn_join(
    left: CodeSet,
    right: CodeSet,
    k: int,
    initial_threshold: int = DEFAULT_INITIAL_THRESHOLD,
    threshold_step: int | None = None,
) -> dict[int, list[tuple[int, int]]]:
    """For each left tuple, its ``k`` Hamming-nearest right tuples.

    Unlike ``h-join``, kNN-join is asymmetric (Section 3, footnote 1).
    Returns ``{left id: [(right id, distance), ...]}``.
    """
    index = DynamicHAIndex.build(right)
    return {
        left_id: knn_select(
            code,
            index,
            k,
            initial_threshold=initial_threshold,
            threshold_step=threshold_step,
        )
        for code, left_id in zip(left.codes, left.ids)
    }


def exact_knn_codes(
    query: int, codes: Sequence[int], ids: Sequence[int], k: int
) -> list[tuple[int, int]]:
    """Ground-truth kNN by full scan over codes; for tests and recall."""
    scored = sorted(
        ((code ^ query).bit_count(), tuple_id)
        for code, tuple_id in zip(codes, ids)
    )
    return [(tuple_id, distance) for distance, tuple_id in scored[:k]]
