"""Centralized Hamming-join (Definition 2).

``h-join(R, S)`` pairs every ``r`` in ``R`` with every ``s`` in ``S``
whose codes lie within the threshold.  The index-based plan follows
Section 5's opening: build an HA-Index over the smaller input and run
H-Search once per tuple of the larger one.  The quadratic nested-loops
plan is kept as ground truth for tests — including the parallel-join
tests, which compare every engine/worker combination against it — and
as the cost yardstick the paper's introduction argues against.

The probe engine is any name from the central registry
(:mod:`repro.core.engines`):

* ``engine="nodes"``/``"dha"`` (default) walks the Python node tree per
  probe code, exactly as before;
* ``engine="flat"`` compiles the index (:class:`FlatHAIndex`) and
  probes it in chunks through ``search_batch``, one vectorized frontier
  sweep per chunk;
* ``engine="native"`` does the same through the compiled native plane
  (:class:`NativeHAIndex`: the cc kernel, numpy fallback);
* ``engine="mih"`` indexes the build side with Multi-Index Hashing and
  probes through its batched substring sweeps;
* any other registered engine (``mh4``, ``hengine``, ...) is probed
  per code through its ``search`` entry point.

``parallel=True`` additionally fans the probe chunks out over a
``concurrent.futures`` process pool (the compiled kernel is a bundle of
numpy arrays, so it pickles cheaply into the workers), falling back to
threads when process pools are unavailable in the host environment.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from repro.core.bitvector import (
    MAX_PACKED_LENGTH,
    CodeSet,
    batch_hamming,
    batch_hamming_wide,
)
from repro.core.dynamic_ha import DynamicHAIndex
from repro.core.engines import get_engine
from repro.core.errors import InvalidParameterError
from repro.core.index_base import HammingIndex
from repro.obs import maybe_trace
from repro.obs.trace import trace_span

#: Probe codes handled per ``search_batch`` call (and per parallel task).
PROBE_CHUNK = 512

#: Compiled kernel installed in each pool worker by the initializer.
_WORKER_FLAT = None


def nested_loops_join(
    left: CodeSet, right: CodeSet, threshold: int
) -> list[tuple[int, int]]:
    """Exact quadratic join, vectorized on the inner table.

    One ``batch_hamming`` pass per outer tuple, with the qualifying
    inner ids gathered through ``np.flatnonzero`` and appended in bulk.
    Handles any code length (wide codes use the multi-word kernel).
    This is the documented oracle for the index-based and parallel
    join paths: every other plan must reproduce its pairs exactly.
    """
    pairs: list[tuple[int, int]] = []
    wide = right.length > MAX_PACKED_LENGTH
    right_packed = right.packed_wide() if wide else right.packed()
    distances_to = batch_hamming_wide if wide else batch_hamming
    right_ids = np.asarray(right.ids, dtype=np.int64)
    for code, left_id in zip(left.codes, left.ids):
        matches = np.flatnonzero(
            distances_to(right_packed, code) <= threshold
        )
        if matches.size:
            pairs.extend(
                zip(
                    itertools.repeat(left_id),
                    right_ids[matches].tolist(),
                )
            )
    return pairs


def _init_probe_worker(flat) -> None:
    """Pool initializer: unpickle the compiled kernel once per worker."""
    global _WORKER_FLAT
    _WORKER_FLAT = flat


def _probe_ids_chunk(payload: tuple[Sequence[int], int]) -> list[list[int]]:
    codes, threshold = payload
    return _WORKER_FLAT.search_batch(codes, threshold)


def _probe_codes_chunk(payload: tuple[Sequence[int], int]) -> list[list[int]]:
    codes, threshold = payload
    return _WORKER_FLAT.search_codes_batch(codes, threshold)


def _chunked(codes: Sequence[int]) -> list[Sequence[int]]:
    return [
        codes[i:i + PROBE_CHUNK] for i in range(0, len(codes), PROBE_CHUNK)
    ]


def _parallel_probe(
    flat,
    codes: Sequence[int],
    threshold: int,
    workers: int | None,
    probe_fn: Callable,
) -> list[list[int]]:
    """Fan probe chunks over a process pool; threads as a fallback.

    ``pool.map`` preserves chunk order, so the flattened result lines
    up with ``codes``.  Pool-infrastructure failures (fork not
    available, broken pool, unpicklable state) degrade to a thread
    pool — same results, no crash — since the point of the process
    pool is only to sidestep the GIL for the numpy sweeps.
    """
    import concurrent.futures as futures

    chunks = _chunked(codes)
    payloads = [(chunk, threshold) for chunk in chunks]
    try:
        with futures.ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_probe_worker,
            initargs=(flat,),
        ) as pool:
            per_chunk = list(pool.map(probe_fn, payloads))
    except (OSError, ValueError, RuntimeError, futures.BrokenExecutor):
        with futures.ThreadPoolExecutor(
            max_workers=workers,
            initializer=_init_probe_worker,
            initargs=(flat,),
        ) as pool:
            per_chunk = list(pool.map(probe_fn, payloads))
    return [result for chunk in per_chunk for result in chunk]


def _flat_probe(
    flat,
    codes: Sequence[int],
    threshold: int,
    parallel: bool,
    workers: int | None,
    probe_fn_name: str,
) -> list[list[int]]:
    if parallel:
        probe_fn = (
            _probe_ids_chunk
            if probe_fn_name == "search_batch"
            else _probe_codes_chunk
        )
        return _parallel_probe(flat, codes, threshold, workers, probe_fn)
    batched = getattr(flat, probe_fn_name)
    results: list[list[int]] = []
    for chunk in _chunked(codes):
        results.extend(batched(chunk, threshold))
    return results


def _check_engine(engine: str) -> str:
    """Resolve ``engine`` through the registry; returns the canonical name."""
    return get_engine(engine).name


def _default_builder(
    engine: str,
) -> Callable[[CodeSet], HammingIndex]:
    """Build-side index constructor for a canonical engine name.

    ``flat`` and ``native`` build the plain Dynamic HA-Index — the
    probe phase compiles it once (the historical behavior); everything
    else builds through its registry spec.
    """
    if engine in ("flat", "native"):
        return DynamicHAIndex.build
    return get_engine(engine).builder


def _probe_kernel(index: HammingIndex, engine: str, parallel: bool):
    """Batched probe target for the join, or ``None`` for per-code walks.

    The default DHA engine keeps its per-code node walk unless the
    caller asked for parallelism.  Otherwise prefer the compiled
    kernel when the index offers one, then the index's own batched
    entry points (MIH), and fall back to ``None`` for engines that
    only expose single-query ``search``.
    """
    if engine in ("dha",) and not parallel:
        return None
    if engine == "native":
        compile_native = getattr(index, "compile_native", None)
        if compile_native is not None:
            return compile_native()
    compile_index = getattr(index, "compile", None)
    if compile_index is not None:
        return compile_index()
    if hasattr(index, "search_batch"):
        return index
    return None


def hamming_join(
    left: CodeSet,
    right: CodeSet,
    threshold: int,
    index_builder: Callable[[CodeSet], HammingIndex] | None = None,
    *,
    engine: str = "nodes",
    parallel: bool = False,
    workers: int | None = None,
    weights: Sequence[float] | None = None,
    profile: bool = False,
) -> list[tuple[int, int]]:
    """Index-based ``h-join``: index the smaller side, probe the larger.

    Returns (left id, right id) pairs regardless of which side was
    indexed, so the result is directly comparable with
    :func:`nested_loops_join`.  ``engine`` is any registry name;
    ``engine="flat"`` (implied by ``parallel=True``) probes the
    compiled kernel in batches, ``engine="mih"`` probes its own
    batched sweeps, and ``workers`` bounds the pool size when
    parallel.  Custom ``index_builder`` indexes without batched entry
    points fall back to the per-code walk.  ``profile=True`` runs the
    join under an ``h_join`` trace (build/probe phase spans;
    :func:`repro.obs.last_trace`).

    With ``weights`` (one non-negative float per bit; the distance
    measure is symmetric, so one vector covers both sides) the join
    pairs every ``r`` and ``s`` within *weighted* Hamming distance
    ``threshold``: the build side is wrapped in the weighted plane
    (:class:`~repro.core.weighted.WeightedHammingIndex`) and probed
    through its batched weighted sweeps.
    """
    engine = _check_engine(engine)
    if weights is not None:
        return _weighted_join(
            left, right, threshold, weights,
            engine=engine, profile=profile,
        )
    if index_builder is None:
        index_builder = _default_builder(engine)
    with maybe_trace(
        "h_join", profile,
        threshold=threshold, engine=engine, parallel=parallel,
    ):
        swap = len(left) > len(right)
        build_side, probe_side = (right, left) if swap else (left, right)
        with trace_span("h_join.build", side_size=len(build_side)):
            index = index_builder(build_side)
        pairs: list[tuple[int, int]] = []
        kernel = _probe_kernel(index, engine, parallel)
        if kernel is not None:
            with trace_span("h_join.probe", probes=len(probe_side)):
                id_lists = _flat_probe(
                    kernel,
                    list(probe_side.codes),
                    threshold,
                    parallel,
                    workers,
                    "search_batch",
                )
            with trace_span("h_join.expand"):
                for probe_id, build_ids in zip(probe_side.ids, id_lists):
                    if swap:
                        pairs.extend(
                            zip(itertools.repeat(probe_id), build_ids)
                        )
                    else:
                        pairs.extend(
                            zip(build_ids, itertools.repeat(probe_id))
                        )
            return pairs
        with trace_span("h_join.probe", probes=len(probe_side)):
            for code, probe_id in zip(probe_side.codes, probe_side.ids):
                for build_id in index.search(code, threshold):
                    if swap:
                        pairs.append((probe_id, build_id))
                    else:
                        pairs.append((build_id, probe_id))
        return pairs


def _weighted_join(
    left: CodeSet,
    right: CodeSet,
    threshold: float,
    weights: Sequence[float],
    *,
    engine: str,
    profile: bool,
) -> list[tuple[int, int]]:
    """Weighted ``h-join``: weighted plane over the smaller side.

    ``engine`` names the *inner* kernel the weighted plane compiles
    (``weighted``/``nodes``/``flat``/``native`` all resolve to the
    DHA kernel); probing runs through the plane's batched weighted
    sweeps in the same chunks as the unweighted fast path.
    """
    from repro.core.weighted import WeightedHammingIndex, as_weights

    resolved = as_weights(weights, left.length)
    # Every engine name funnels to the DHA kernel here: the weighted
    # plane sweeps the compiled flat arrays regardless of which
    # spelling (nodes/flat/native/weighted) the caller asked for.
    inner = "dha"
    with maybe_trace(
        "h_join", profile,
        threshold=threshold, engine="weighted", parallel=False,
    ):
        swap = len(left) > len(right)
        build_side, probe_side = (right, left) if swap else (left, right)
        with trace_span("h_join.build", side_size=len(build_side)):
            index = WeightedHammingIndex.build(
                build_side, weights=resolved, engine=inner
            )
        pairs: list[tuple[int, int]] = []
        with trace_span("h_join.probe", probes=len(probe_side)):
            id_lists: list[list[int]] = []
            for chunk in _chunked(list(probe_side.codes)):
                id_lists.extend(index.search_batch(chunk, threshold))
        with trace_span("h_join.expand"):
            for probe_id, build_ids in zip(probe_side.ids, id_lists):
                if swap:
                    pairs.extend(
                        zip(itertools.repeat(probe_id), build_ids)
                    )
                else:
                    pairs.extend(
                        zip(build_ids, itertools.repeat(probe_id))
                    )
        return pairs


def _duplicate_pairs(group: np.ndarray) -> list[tuple[int, int]]:
    """All unordered id pairs inside one duplicate-code group."""
    rows, cols = np.triu_indices(group.size, k=1)
    a = group[rows]
    b = group[cols]
    return list(
        zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist())
    )


def _cross_pairs(
    left_ids: np.ndarray, right_ids: np.ndarray
) -> list[tuple[int, int]]:
    """All ordered id pairs between two distinct-code groups."""
    lows = np.minimum.outer(left_ids, right_ids).ravel()
    highs = np.maximum.outer(left_ids, right_ids).ravel()
    return list(zip(lows.tolist(), highs.tolist()))


def self_join(
    codes: CodeSet,
    threshold: int,
    *,
    engine: str = "nodes",
    parallel: bool = False,
    workers: int | None = None,
    profile: bool = False,
) -> list[tuple[int, int]]:
    """``h-join(S, S)`` without the trivial (x, x) pairs, each pair once.

    The MapReduce experiments of Section 6.2 evaluate self-joins.  The
    implementation exploits duplicate codes: H-Search runs once per
    *distinct* code, and the id pairs are expanded from the duplicate
    groups (``np.triu_indices`` within a group, outer min/max across
    groups) — on hashed real data (many near-duplicates) this saves
    most of the probing.  ``engine``/``parallel``/``workers`` choose
    the probe plan exactly as in :func:`hamming_join` (the engine must
    expose ``search_codes``: DHA, flat, or MIH), and ``profile=True``
    traces the phases the same way.
    """
    engine = _check_engine(engine)
    with maybe_trace(
        "h_join", profile,
        threshold=threshold, engine=engine, parallel=parallel, self=True,
    ):
        with trace_span("h_join.build", side_size=len(codes)):
            index = _default_builder(engine)(codes)
            grouped: dict[int, list[int]] = {}
            for code, tuple_id in zip(codes.codes, codes.ids):
                grouped.setdefault(code, []).append(tuple_id)
            groups = {
                code: np.asarray(ids, dtype=np.int64)
                for code, ids in grouped.items()
            }
        pairs: list[tuple[int, int]] = []
        for group in groups.values():
            # Pairs among duplicates of this code (distance 0).
            if group.size > 1:
                pairs.extend(_duplicate_pairs(group))
        distinct = list(groups)
        kernel = _probe_kernel(index, engine, parallel)
        with trace_span("h_join.probe", probes=len(distinct)):
            if kernel is not None:
                neighbor_lists = _flat_probe(
                    kernel,
                    distinct,
                    threshold,
                    parallel,
                    workers,
                    "search_codes_batch",
                )
            elif hasattr(index, "search_codes"):
                neighbor_lists = [
                    index.search_codes(code, threshold)
                    for code in distinct
                ]
            else:
                raise InvalidParameterError(
                    f"engine {engine!r} does not expose search_codes; "
                    "self_join needs dha, flat, or mih"
                )
        with trace_span("h_join.expand"):
            for code, neighbors in zip(distinct, neighbor_lists):
                # Pairs against other qualifying codes, counted once by
                # restricting to strictly larger code values.
                for other in neighbors:
                    if other <= code:
                        continue
                    pairs.extend(
                        _cross_pairs(groups[code], groups[other])
                    )
        return pairs


def _ordered(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)
