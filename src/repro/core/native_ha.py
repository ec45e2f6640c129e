"""The native (compiled) query plane of the Dynamic HA-Index.

:class:`NativeHAIndex` is a :class:`~repro.core.flat_ha.FlatHAIndex`
whose sweeps run through the compiled C backend
(:mod:`repro.core.native`) instead of the vectorized numpy frontier.
The compiled sweep replays the numpy traversal exactly — same visit
order, same emissions, same distance-computation count — so every query
answers byte-identically to the flat plane and ``last_search_ops``
still sums to the node walk's count.  Only the hot traversal moves to
native code; candidate ranking, buffered-insert comparisons, and code
dedup stay in the shared numpy helpers of the base class.

A native index is a *view* of a flat kernel (:meth:`NativeHAIndex.view`,
what :meth:`DynamicHAIndex.compile_native` returns): it shares every
array of the kernel :meth:`DynamicHAIndex.compile` caches, so one
flatten serves both planes.

The plane degrades transparently:

* no working compiled tier (``REPRO_NATIVE=numpy``, no C compiler) →
  every call runs the inherited numpy sweeps;
* multi-word codes (length > 64) → numpy sweeps (the compiled kernel
  is single-word);
* active tracing → the instrumented numpy sweeps, so per-level
  ``h_search.level`` spans keep their exact op attribution.

Native execution state is created lazily and never pickled: kernels
shipped into process pools (the parallel join path) or restored from
snapshots rebuild their backend state on first query in the receiving
process.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core import native
from repro.core.flat_ha import FlatHAIndex
from repro.obs import note_search
from repro.obs.trace import tracing

#: Compiled sweep emission modes (must match the kernel source).
_MODE_IDS = 0
_MODE_LEAF_POSITIONS = 1


class NativeHAIndex(FlatHAIndex):
    """Flat kernel executed through the compiled native backend."""

    ENGINE_LABEL = "native"

    #: Class-level default so views and unpickled copies lazily create
    #: their own state.
    _native_state = None

    @classmethod
    def view(cls, flat: FlatHAIndex) -> "NativeHAIndex":
        """The native plane over ``flat``, sharing all of its arrays.

        Cached on ``flat``: every call for one kernel returns the same
        view, and with it one bound native state.
        """
        view = flat.__dict__.get("_native_view")
        if view is None:
            view = cls.__new__(cls)
            view.__dict__.update(flat.__dict__)
            flat._native_view = view
        return view

    @property
    def backend(self) -> str:
        """The tier answering right now: ``cc`` or ``numpy``."""
        state = self._route()
        return state.backend if state is not None else "numpy"

    def _route(self):
        """The native state to sweep with, or ``None`` for numpy.

        Re-resolves the backend on every call so ``force_backend`` /
        ``REPRO_NATIVE`` changes take effect immediately.
        """
        if self._words != 1 or tracing() or native.active_backend() == "numpy":
            return None
        if self._native_state is None:
            self._native_state = native.make_state(self)
        return self._native_state

    # -- single-query entry points ---------------------------------------

    def search(self, query: int, threshold: int) -> list[int]:
        state = self._route()
        if state is None:
            return super().search(query, threshold)
        self._require_ids()
        self._check_query(query, threshold)
        clamped = min(threshold, self._code_length)
        ids, ops = state.sweep(query, clamped, _MODE_IDS)
        self.last_search_ops = ops + len(self._buf_codes)
        results = ids.tolist()
        if self._buf_ids.size:
            near = (
                self._buffer_distances(self._query_words(query))
                <= threshold
            )
            results.extend(self._buf_ids[near].tolist())
        note_search(self.ENGINE_LABEL, self.last_search_ops)
        return results

    def search_codes(self, query: int, threshold: int) -> list[int]:
        state = self._route()
        if state is None:
            return super().search_codes(query, threshold)
        self._check_query(query, threshold)
        clamped = min(threshold, self._code_length)
        positions, ops = state.sweep(query, clamped, _MODE_LEAF_POSITIONS)
        self.last_search_ops = ops + len(self._buf_codes)
        codes = self._codes_from_positions(
            self._query_words(query), positions, threshold
        )
        note_search(self.ENGINE_LABEL, self.last_search_ops)
        return codes

    def search_with_distances(
        self, query: int, threshold: int
    ) -> list[tuple[int, int]]:
        state = self._route()
        if state is None:
            return super().search_with_distances(query, threshold)
        self._require_ids()
        self._check_query(query, threshold)
        clamped = min(threshold, self._code_length)
        positions, ops = state.sweep(query, clamped, _MODE_LEAF_POSITIONS)
        self.last_search_ops = ops + len(self._buf_codes)
        note_search(self.ENGINE_LABEL, self.last_search_ops)
        return self._pairs_from_positions(
            self._query_words(query), positions, threshold
        )

    def count_within(self, query: int, threshold: int) -> int:
        state = self._route()
        if state is None:
            return super().count_within(query, threshold)
        self._check_query(query, threshold)
        count = 0
        if self._buf_ids.size:
            count += int(
                (
                    self._buffer_distances(self._query_words(query))
                    <= threshold
                ).sum()
            )
        return count + state.count(query, min(threshold, self._code_length))

    def contains_within(self, query: int, threshold: int) -> bool:
        state = self._route()
        if state is None:
            return super().contains_within(query, threshold)
        self._check_query(query, threshold)
        if self._buf_ids.size and bool(
            (
                self._buffer_distances(self._query_words(query))
                <= threshold
            ).any()
        ):
            return True
        return state.contains(query, min(threshold, self._code_length))

    # -- batched entry points --------------------------------------------

    def _batch_inputs(self, queries: Sequence[int], threshold: int):
        queries = list(queries)
        for query in queries:
            self._check_query(query, threshold)
        qarr = np.array(queries, dtype=np.uint64)
        return queries, qarr

    def search_batch(
        self, queries: Sequence[int], threshold: int
    ) -> list[list[int]]:
        state = self._route()
        if state is None:
            return super().search_batch(queries, threshold)
        self._require_ids()
        queries, qarr = self._batch_inputs(queries, threshold)
        if not queries:
            return []
        batch = len(queries)
        ids, counts, ops = state.sweep_batch(
            qarr, min(threshold, self._code_length), _MODE_IDS
        )
        self.last_search_ops = ops + len(self._buf_codes) * batch
        chunks = np.split(ids, np.cumsum(counts)[:-1])
        near = self._batch_buffer_matches(qarr.reshape(-1, 1), threshold)
        if near is None:
            results = [chunk.tolist() for chunk in chunks]
        else:
            results = []
            for column, chunk in enumerate(chunks):
                merged = chunk.tolist()
                merged.extend(self._buf_ids[near[:, column]].tolist())
                results.append(merged)
        note_search(self.ENGINE_LABEL, self.last_search_ops, queries=batch)
        return results

    def search_batch_arrays(
        self, queries: Sequence[int], threshold: int
    ) -> list[np.ndarray]:
        state = self._route()
        if state is None:
            return super().search_batch_arrays(queries, threshold)
        self._require_ids()
        queries, qarr = self._batch_inputs(queries, threshold)
        if not queries:
            return []
        batch = len(queries)
        ids, counts, ops = state.sweep_batch(
            qarr, min(threshold, self._code_length), _MODE_IDS
        )
        self.last_search_ops = ops + len(self._buf_codes) * batch
        chunks = np.split(ids, np.cumsum(counts)[:-1])
        near = self._batch_buffer_matches(qarr.reshape(-1, 1), threshold)
        if near is not None:
            chunks = [
                np.concatenate([chunk, self._buf_ids[near[:, column]]])
                for column, chunk in enumerate(chunks)
            ]
        note_search(self.ENGINE_LABEL, self.last_search_ops, queries=batch)
        return chunks

    def search_codes_batch(
        self, queries: Sequence[int], threshold: int
    ) -> list[list[int]]:
        state = self._route()
        if state is None:
            return super().search_codes_batch(queries, threshold)
        queries, qarr = self._batch_inputs(queries, threshold)
        if not queries:
            return []
        batch = len(queries)
        positions, counts, ops = state.sweep_batch(
            qarr, min(threshold, self._code_length), _MODE_LEAF_POSITIONS
        )
        self.last_search_ops = ops + len(self._buf_codes) * batch
        per_query = np.split(positions, np.cumsum(counts)[:-1])
        near = self._batch_buffer_matches(qarr.reshape(-1, 1), threshold)
        note_search(self.ENGINE_LABEL, self.last_search_ops, queries=batch)
        return self._batch_codes_from_positions(per_query, near)

    def search_with_distances_batch(
        self, queries: Sequence[int], threshold: int
    ) -> list[list[tuple[int, int]]]:
        state = self._route()
        if state is None:
            return super().search_with_distances_batch(queries, threshold)
        self._require_ids()
        queries, qarr = self._batch_inputs(queries, threshold)
        if not queries:
            return []
        batch = len(queries)
        positions, counts, ops = state.sweep_batch(
            qarr, min(threshold, self._code_length), _MODE_LEAF_POSITIONS
        )
        self.last_search_ops = ops + len(self._buf_codes) * batch
        position_owners = np.repeat(
            np.arange(batch, dtype=np.int64), counts
        )
        return self._batch_pairs(
            qarr.reshape(-1, 1), positions, position_owners,
            batch, threshold,
        )

    # -- HammingIndex contract -------------------------------------------

    @classmethod
    def build(cls, codes, **params) -> "NativeHAIndex":
        """H-Build a Dynamic HA-Index over ``codes``, native-compiled."""
        from repro.core.dynamic_ha import DynamicHAIndex

        return DynamicHAIndex.build(codes, **params).compile_native()
