"""Compiled flat query plane for the Dynamic HA-Index.

:class:`FlatHAIndex` is what :meth:`DynamicHAIndex.compile` produces: the
pattern tree flattened into level-major numpy arrays — per-node
``bits``/``mask`` uint64 word matrices (plus 1-D fast-path columns for
codes up to 64 bits), contiguous child slot ranges, and a leaf table
laid out in DFS order so every node's leaf descendants form one
contiguous range.  H-Search (Algorithm 3) then runs as a vectorized
frontier sweep: each BFS level is a single XOR + popcount over the whole
live frontier with boolean-mask pruning, instead of one Python-level
distance computation per node.  The subtree-qualifies shortcut (a node
whose partial distance plus uncovered bits is within the threshold
contributes its whole leaf range without further distance tests) and the
buffered-insert side table are preserved, so results and
``last_search_ops`` accounting match the node walk exactly.

The kernel is immutable: it snapshots the source index (including its
insert buffer) at compile time, and ``DynamicHAIndex.compile`` caches it
keyed by ``mutation_count`` so a stale kernel is never consulted after
H-Insert/H-Delete.  It contains only numpy arrays and plain ints, which
makes it cheap to pickle — the property the parallel join path relies on
to ship the probe kernel into a process pool.

On top of the single-query sweep, :meth:`search_batch` shares one
frontier pass across a whole micro-batch: the live frontier is a flat
list of (node, query) pairs, so each level is one distance pass over
exactly the pairs every per-query walk would examine, with the per-level
dispatch overhead amortized across the batch.  This is what lets the
online service execute coalesced micro-batches in a handful of numpy
calls per index level.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from time import perf_counter

from repro.core.bitvector import popcount64
from repro.core.errors import IndexStateError
from repro.core.index_base import HammingIndex, IndexStats
from repro.obs import note_search
from repro.obs.trace import record_span, trace_span, tracing


def _note_level(
    depth: int, examined: int, expanded: int, started: float
) -> None:
    """Attach one per-BFS-level span of a traced frontier sweep."""
    record_span(
        "h_search.level",
        perf_counter() - started,
        ops=examined,
        depth=depth,
        examined=examined,
        expanded=expanded,
    )

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.dynamic_ha import DynamicHAIndex

_WORD_MASK = (1 << 64) - 1


def _pack_column(values: Sequence[int], words: int) -> np.ndarray:
    """Pack arbitrary-width ints into an (n, words) ``uint64`` matrix."""
    packed = np.empty((len(values), words), dtype=np.uint64)
    if not values:
        return packed
    column = np.array(values, dtype=object)
    for word in range(words):
        packed[:, word] = (
            (column >> (word * 64)) & _WORD_MASK
        ).astype(np.uint64)
    return packed


def _combine_words(matrix: np.ndarray) -> list[int]:
    """Recombine an (n, words) uint64 matrix into arbitrary-width ints."""
    values = [0] * matrix.shape[0]
    for word in range(matrix.shape[1]):
        shift = word * 64
        values = [
            value | (chunk << shift)
            for value, chunk in zip(values, matrix[:, word].tolist())
        ]
    return values


def _expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + c)`` for every (start, count) pair."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shifts = np.cumsum(counts) - counts
    return np.repeat(starts - shifts, counts) + np.arange(
        total, dtype=np.int64
    )


class FlatHAIndex(HammingIndex):
    """Array-backed, read-only compilation of a :class:`DynamicHAIndex`.

    Construct through :meth:`DynamicHAIndex.compile` (cached) or
    directly from a source index.  Queries answer exactly like the node
    walk; :meth:`insert`/:meth:`delete` raise — mutate the source index
    and recompile.
    """

    #: Engine name used in trace spans and ``note_search`` metrics;
    #: subclasses (the native plane) override it so observability
    #: attributes work to the engine that actually answered.
    ENGINE_LABEL = "flat"

    def __init__(self, source: "DynamicHAIndex") -> None:
        super().__init__(source.code_length)
        self._keep_ids = source.keeps_ids
        #: Source ``mutation_count`` at compile time; the compile cache
        #: compares it to detect staleness.
        self.source_mutations = source.mutation_count
        self._size = len(source)
        self._words = (source.code_length + 63) // 64
        self._flatten(source)
        self._snapshot_buffer(source)

    def _snapshot_buffer(self, source: "DynamicHAIndex") -> None:
        buffer = list(source._buffer)
        self._buf_codes: tuple[int, ...] = tuple(code for code, _ in buffer)
        self._buf_ids = np.array(
            [tuple_id for _, tuple_id in buffer], dtype=np.int64
        )
        self._buf_words = _pack_column(list(self._buf_codes), self._words)

    @classmethod
    def rebuffered(
        cls, cached: "FlatHAIndex", source: "DynamicHAIndex"
    ) -> "FlatHAIndex":
        """A new kernel sharing ``cached``'s flattened tree arrays.

        Valid only when the source's tree is unchanged since ``cached``
        was compiled (:meth:`DynamicHAIndex.compile` checks the tree
        version); the insert buffer is snapshotted fresh.  The flat
        arrays are never mutated, so sharing them is safe.
        """
        clone = cls.__new__(cls)
        clone.__dict__.update(cached.__dict__)
        # A native view snapshots its kernel's buffer, so the clone gets
        # a fresh one on demand; the view's state binds only the shared
        # tree arrays and carries over.
        view = clone.__dict__.pop("_native_view", None)
        if view is not None:
            clone._native_state = view._native_state
        clone.source_mutations = source.mutation_count
        clone._size = len(source)
        clone.last_search_ops = 0
        clone._snapshot_buffer(source)
        return clone

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # The native view and its state hold raw pointers into this
        # process; receivers rebuild them on first query.
        state.pop("_native_view", None)
        state.pop("_native_state", None)
        return state

    # -- flattening --------------------------------------------------------

    def _flatten(self, source: "DynamicHAIndex") -> None:
        """Lay the pattern tree out as level-major flat arrays.

        DFS assigns every node a contiguous leaf-descendant range;
        nodes are then grouped by BFS depth (their level), preserving
        DFS order inside each level.  Because every depth-(l+1) node in
        a subtree is a direct child of its depth-l root, a node's
        children occupy one contiguous slot range in the next level —
        so expansion needs no edge table, just (first child, count).
        """
        length = self._code_length
        words = self._words
        nodes_by_depth: list[list[object]] = []
        depth_seen: set[int] = set()
        start_of: dict[int, int] = {}
        span: dict[int, tuple[int, int]] = {}
        leaves: list[object] = []
        stack = [(node, 0, False) for node in reversed(source._top)]
        while stack:
            node, depth, done = stack.pop()
            key = id(node)
            if done:
                span[key] = (start_of[key], len(leaves))
                continue
            if key in depth_seen:
                raise IndexStateError(
                    "cannot compile an index with shared subtrees"
                )
            depth_seen.add(key)
            while len(nodes_by_depth) <= depth:
                nodes_by_depth.append([])
            nodes_by_depth[depth].append(node)
            start_of[key] = len(leaves)
            if not node.children:
                leaves.append(node)
                span[key] = (start_of[key], len(leaves))
                continue
            stack.append((node, depth, True))
            for child in reversed(node.children):
                stack.append((child, depth + 1, False))

        order: list[object] = []
        level_offsets = [0]
        for level in nodes_by_depth:
            order.extend(level)
            level_offsets.append(len(order))
        slot_of = {id(node): slot for slot, node in enumerate(order)}
        n = len(order)

        self._level_offsets = level_offsets
        top_count = level_offsets[1] if len(level_offsets) > 1 else 0
        self._top_slots = np.arange(top_count, dtype=np.int64)
        self._bits = _pack_column([node.bits for node in order], words)
        self._masks = _pack_column([node.mask for node in order], words)
        if words == 1:
            # Contiguous single-word columns: the sweeps gather these
            # and run xor/and in place, with no 2-D striding.
            self._bits1 = np.ascontiguousarray(self._bits[:, 0])
            self._masks1 = np.ascontiguousarray(self._masks[:, 0])
        else:
            self._bits1 = None
            self._masks1 = None
        self._uncovered = np.array(
            [length - node.mask.bit_count() for node in order],
            dtype=np.int64,
        )
        self._frequency = np.array(
            [node.frequency for node in order], dtype=np.int64
        )
        self._is_leaf = np.array(
            [not node.children for node in order], dtype=bool
        )
        self._leaf_lo = np.empty(n, dtype=np.int64)
        self._leaf_hi = np.empty(n, dtype=np.int64)
        child_first = np.zeros(n, dtype=np.int64)
        child_count = np.empty(n, dtype=np.int64)
        edges = 0
        for slot, node in enumerate(order):
            lo, hi = span[id(node)]
            self._leaf_lo[slot] = lo
            self._leaf_hi[slot] = hi
            child_count[slot] = len(node.children)
            if node.children:
                first = slot_of[id(node.children[0])]
                child_first[slot] = first
                if slot_of[id(node.children[-1])] != (
                    first + len(node.children) - 1
                ):
                    raise IndexStateError(
                        "children not contiguous in level layout"
                    )
                edges += len(node.children)
        self._child_first = child_first
        self._child_count = child_count
        self._edges = edges
        # uint8 copy of the uncovered-bit counts: keeps the one-word
        # cover test (popcount + uncovered vs threshold) entirely in
        # uint8 arithmetic.  Only valid when the length fits.
        self._unc8 = (
            self._uncovered.astype(np.uint8) if length <= 255 else None
        )
        # H-Build gives every leaf a fully covered pattern, so the
        # subtree-qualifies test alone decides collection (a qualifying
        # leaf is always "covered").  Kept as a compile-time flag with a
        # general fallback in case a construction path ever produces a
        # partially covered leaf.
        leaf_uncovered = self._uncovered[self._is_leaf]
        self._cover_is_collect = (
            bool((leaf_uncovered == 0).all()) if leaf_uncovered.size
            else True
        )
        # First slot of the deepest level, when that level consists
        # entirely of fully covered leaves (the common H-Build shape).
        # A frontier there needs no mask, no uncovered bits, and no
        # expansion — the sweeps take a reduced final step.
        last_lo = level_offsets[-2] if len(level_offsets) > 1 else 0
        if (
            n
            and bool(self._is_leaf[last_lo:].all())
            and bool((self._uncovered[last_lo:] == 0).all())
        ):
            self._leaf_level_start = last_lo
        else:
            self._leaf_level_start = n + 1

        self._leaf_codes: tuple[int, ...] = tuple(
            leaf.bits for leaf in leaves
        )
        self._leaf_words = _pack_column(list(self._leaf_codes), words)
        id_offsets = np.zeros(len(leaves) + 1, dtype=np.int64)
        ids_flat: list[int] = []
        for position, leaf in enumerate(leaves):
            ids_flat.extend(leaf.ids)
            id_offsets[position + 1] = len(ids_flat)
        self._id_offsets = id_offsets
        self._ids_flat = np.array(ids_flat, dtype=np.int64)

    # -- persistence (repro.store snapshots) --------------------------------

    #: Arrays serialized by ``to_state`` in this exact order; the
    #: snapshot format stores them as raw little-endian blobs.
    STATE_ARRAYS = (
        "bits", "masks", "frequency", "child_first", "child_count",
        "leaf_lo", "leaf_hi", "id_offsets", "ids_flat", "buf_ids",
        "buf_words",
    )

    def to_state(self) -> dict:
        """The kernel's persistent state: scalars plus flat arrays.

        Everything else (`_uncovered`, the leaf table, the fast-path
        columns, ...) is derived deterministically by
        :meth:`from_state`, so snapshots store only what cannot be
        recomputed.
        """
        return {
            "code_length": self._code_length,
            "keep_ids": self._keep_ids,
            "size": self._size,
            "words": self._words,
            "level_offsets": list(self._level_offsets),
            "bits": self._bits,
            "masks": self._masks,
            "frequency": self._frequency,
            "child_first": self._child_first,
            "child_count": self._child_count,
            "leaf_lo": self._leaf_lo,
            "leaf_hi": self._leaf_hi,
            "id_offsets": self._id_offsets,
            "ids_flat": self._ids_flat,
            "buf_ids": self._buf_ids,
            "buf_words": self._buf_words,
        }

    @classmethod
    def from_state(cls, state: dict) -> "FlatHAIndex":
        """Rebuild a kernel from :meth:`to_state` output.

        Derived fields are recomputed exactly as :meth:`_flatten`
        produces them, so a restored kernel answers byte-identically
        to the one that was saved.
        """
        self = cls.__new__(cls)
        length = int(state["code_length"])
        words = int(state["words"])
        self._code_length = length
        self._keep_ids = bool(state["keep_ids"])
        self._size = int(state["size"])
        self._words = words
        self._mutations = 0
        self.source_mutations = 0
        self.last_search_ops = 0
        self._level_offsets = [int(v) for v in state["level_offsets"]]
        bits = np.ascontiguousarray(state["bits"], dtype=np.uint64)
        masks = np.ascontiguousarray(state["masks"], dtype=np.uint64)
        self._bits = bits.reshape(-1, words)
        self._masks = masks.reshape(-1, words)
        for name in (
            "frequency", "child_first", "child_count",
            "leaf_lo", "leaf_hi", "id_offsets", "ids_flat", "buf_ids",
        ):
            setattr(
                self,
                f"_{name}",
                np.ascontiguousarray(state[name], dtype=np.int64),
            )
        self._buf_words = np.ascontiguousarray(
            state["buf_words"], dtype=np.uint64
        ).reshape(-1, words)
        n = self._bits.shape[0]
        if words == 1:
            self._bits1 = np.ascontiguousarray(self._bits[:, 0])
            self._masks1 = np.ascontiguousarray(self._masks[:, 0])
        else:
            self._bits1 = None
            self._masks1 = None
        self._uncovered = (
            length - popcount64(self._masks).sum(axis=1, dtype=np.int64)
        ).astype(np.int64)
        self._is_leaf = self._child_count == 0
        self._edges = int(self._child_count.sum())
        self._unc8 = (
            self._uncovered.astype(np.uint8) if length <= 255 else None
        )
        leaf_uncovered = self._uncovered[self._is_leaf]
        self._cover_is_collect = (
            bool((leaf_uncovered == 0).all()) if leaf_uncovered.size
            else True
        )
        offsets = self._level_offsets
        last_lo = offsets[-2] if len(offsets) > 1 else 0
        if (
            n
            and bool(self._is_leaf[last_lo:].all())
            and bool((self._uncovered[last_lo:] == 0).all())
        ):
            self._leaf_level_start = last_lo
        else:
            self._leaf_level_start = n + 1
        top_count = offsets[1] if len(offsets) > 1 else 0
        self._top_slots = np.arange(top_count, dtype=np.int64)
        # Leaf table in DFS order: a leaf's ``leaf_lo`` is its leaf
        # position, so sorting leaf slots by it recovers the layout.
        leaf_slots = np.flatnonzero(self._is_leaf)
        leaf_slots = leaf_slots[np.argsort(self._leaf_lo[leaf_slots])]
        self._leaf_words = np.ascontiguousarray(self._bits[leaf_slots])
        self._leaf_codes = tuple(_combine_words(self._leaf_words))
        self._buf_codes = tuple(_combine_words(self._buf_words))
        return self

    # -- introspection -----------------------------------------------------

    @property
    def keeps_ids(self) -> bool:
        return self._keep_ids

    @property
    def num_levels(self) -> int:
        return len(self._level_offsets) - 1

    @property
    def num_nodes(self) -> int:
        return self._level_offsets[-1]

    def level_sizes(self) -> list[int]:
        """Node counts per level (mirrors the source's layout)."""
        offsets = self._level_offsets
        return [
            offsets[i + 1] - offsets[i] for i in range(len(offsets) - 1)
        ]

    # -- query packing -----------------------------------------------------

    def _query_words(self, query: int) -> np.ndarray:
        return np.array(
            [(query >> (word * 64)) & _WORD_MASK
             for word in range(self._words)],
            dtype=np.uint64,
        )

    def _buffer_distances(self, qwords: np.ndarray) -> np.ndarray:
        """Exact distances of the buffered codes to one packed query."""
        return popcount64(self._buf_words ^ qwords).sum(
            axis=1, dtype=np.int64
        )

    # -- the single-query frontier sweep -----------------------------------

    def _sweep(
        self, qwords: np.ndarray, threshold: int
    ) -> tuple[np.ndarray, int]:
        """One vectorized H-Search; returns matched node slots + ops.

        Each iteration handles one BFS level: partial distances of the
        whole frontier in one XOR/popcount pass, then boolean-mask
        split into *collect* (qualifying leaves and subtree-qualifying
        internals, whose contiguous leaf ranges are taken wholesale)
        and *expand* (qualifying internals whose contiguous child
        ranges form the next frontier).  ``ops`` counts exactly the
        distance computations the node walk performs.
        """
        threshold = min(threshold, self._code_length)
        taken_parts: list[np.ndarray] = []
        ops = 0
        frontier = self._top_slots
        simple = self._cover_is_collect
        one_word = self._words == 1
        traced = tracing()
        depth = 0
        started = 0.0
        if one_word:
            bits1, masks1, unc8 = self._bits1, self._masks1, self._unc8
            query64 = qwords[0]
            leaf_start = self._leaf_level_start
        while frontier.size:
            size = int(frontier.size)
            ops += size
            if traced:
                started = perf_counter()
            if one_word:
                if frontier[0] >= leaf_start:
                    # Terminal all-leaf level: distances are exact (no
                    # masking), and there is nothing left to expand.
                    xor = bits1.take(frontier, mode="clip")
                    np.bitwise_xor(xor, query64, out=xor)
                    taken = frontier[popcount64(xor) <= threshold]
                    if taken.size:
                        taken_parts.append(taken)
                    if traced:
                        _note_level(depth, size, 0, started)
                    break
                xor = bits1.take(frontier, mode="clip")
                np.bitwise_xor(xor, query64, out=xor)
                np.bitwise_and(xor, masks1.take(frontier, mode="clip"), out=xor)
                dist = popcount64(xor)
                cover = dist + unc8.take(frontier, mode="clip") <= threshold
            else:
                xor = self._bits[frontier] ^ qwords
                dist = popcount64(xor & self._masks[frontier]).sum(
                    axis=1, dtype=np.int64
                )
                cover = dist + self._uncovered[frontier] <= threshold
            if not simple:
                cover |= (dist <= threshold) & self._is_leaf[frontier]
            taken = frontier[cover]
            if taken.size:
                taken_parts.append(taken)
            expand = frontier[(dist <= threshold) & ~cover]
            if traced:
                _note_level(depth, size, int(expand.size), started)
                depth += 1
            if not expand.size:
                break
            frontier = _expand_ranges(
                self._child_first.take(expand, mode="clip"),
                self._child_count.take(expand, mode="clip")
            )
        if taken_parts:
            return np.concatenate(taken_parts), ops
        return np.empty(0, dtype=np.int64), ops

    def _range_ids(self, taken: np.ndarray) -> np.ndarray:
        """Tuple ids stored under the leaf ranges of ``taken`` nodes."""
        id_lo = self._id_offsets[self._leaf_lo[taken]]
        id_hi = self._id_offsets[self._leaf_hi[taken]]
        return self._ids_flat[_expand_ranges(id_lo, id_hi - id_lo)]

    def _require_ids(self) -> None:
        if not self._keep_ids:
            raise IndexStateError(
                "index compiled with keep_ids=False; use search_codes()"
            )

    # -- queries -----------------------------------------------------------

    def search(self, query: int, threshold: int) -> list[int]:
        """Exact Hamming-select; same answer multiset as the node walk."""
        self._require_ids()
        self._check_query(query, threshold)
        with trace_span("h_search", engine=self.ENGINE_LABEL, threshold=threshold):
            qwords = self._query_words(query)
            taken, ops = self._sweep(qwords, threshold)
            self.last_search_ops = ops + len(self._buf_codes)
            record_span("h_search.buffer", 0.0, ops=len(self._buf_codes))
            results = self._range_ids(taken).tolist()
            if self._buf_ids.size:
                near = self._buffer_distances(qwords) <= threshold
                results.extend(self._buf_ids[near].tolist())
        note_search(self.ENGINE_LABEL, self.last_search_ops)
        return results

    def search_codes(self, query: int, threshold: int) -> list[int]:
        """Distinct qualifying codes (Option B of the MapReduce join)."""
        self._check_query(query, threshold)
        with trace_span("h_search", engine=self.ENGINE_LABEL, threshold=threshold):
            qwords = self._query_words(query)
            taken, ops = self._sweep(qwords, threshold)
            self.last_search_ops = ops + len(self._buf_codes)
            record_span("h_search.buffer", 0.0, ops=len(self._buf_codes))
            lo = self._leaf_lo[taken]
            positions = _expand_ranges(lo, self._leaf_hi[taken] - lo)
            codes = self._codes_from_positions(qwords, positions, threshold)
        note_search(self.ENGINE_LABEL, self.last_search_ops)
        return codes

    def _codes_from_positions(
        self,
        qwords: np.ndarray,
        leaf_positions: np.ndarray,
        threshold: int,
    ) -> list[int]:
        """Distinct qualifying codes for swept leaf positions + buffer."""
        codes = [self._leaf_codes[i] for i in leaf_positions.tolist()]
        if self._buf_ids.size:
            near = self._buffer_distances(qwords) <= threshold
            buffered = {
                self._buf_codes[i]
                for i in np.flatnonzero(near).tolist()
            }
            codes.extend(buffered - set(codes))
        return codes

    def search_with_distances(
        self, query: int, threshold: int
    ) -> list[tuple[int, int]]:
        """(tuple id, exact distance) pairs; used by the kNN front-end."""
        self._require_ids()
        self._check_query(query, threshold)
        with trace_span("h_search", engine=self.ENGINE_LABEL, threshold=threshold):
            return self._search_with_distances_body(query, threshold)

    def _search_with_distances_body(
        self, query: int, threshold: int
    ) -> list[tuple[int, int]]:
        qwords = self._query_words(query)
        taken, ops = self._sweep(qwords, threshold)
        self.last_search_ops = ops + len(self._buf_codes)
        record_span("h_search.buffer", 0.0, ops=len(self._buf_codes))
        note_search(self.ENGINE_LABEL, self.last_search_ops)
        lo = self._leaf_lo[taken]
        leaf_positions = _expand_ranges(lo, self._leaf_hi[taken] - lo)
        return self._pairs_from_positions(qwords, leaf_positions, threshold)

    def _pairs_from_positions(
        self,
        qwords: np.ndarray,
        leaf_positions: np.ndarray,
        threshold: int,
    ) -> list[tuple[int, int]]:
        """(id, distance) pairs for swept leaf positions + the buffer.

        Shared tail of :meth:`search_with_distances`: the native plane
        feeds it the leaf positions its compiled sweep emitted, so both
        planes rank candidates through identical numpy code.
        """
        results: list[tuple[int, int]] = []
        if leaf_positions.size:
            dists = popcount64(
                self._leaf_words[leaf_positions] ^ qwords
            ).sum(axis=1, dtype=np.int64)
            counts = (
                self._id_offsets[leaf_positions + 1]
                - self._id_offsets[leaf_positions]
            )
            ids = self._ids_flat[
                _expand_ranges(self._id_offsets[leaf_positions], counts)
            ]
            per_id = np.repeat(dists, counts)
            results.extend(zip(ids.tolist(), per_id.tolist()))
        if self._buf_ids.size:
            buf_dist = self._buffer_distances(qwords)
            near = np.flatnonzero(buf_dist <= threshold)
            results.extend(
                zip(
                    self._buf_ids[near].tolist(),
                    buf_dist[near].tolist(),
                )
            )
        return results

    def count_within(self, query: int, threshold: int) -> int:
        """Number of tuples within ``threshold``; uses the per-node
        frequency counters so covered subtrees are counted without
        descending, exactly like the node walk."""
        self._check_query(query, threshold)
        qwords = self._query_words(query)
        count = 0
        if self._buf_ids.size:
            count += int((self._buffer_distances(qwords) <= threshold).sum())
        threshold = min(threshold, self._code_length)
        frontier = self._top_slots
        simple = self._cover_is_collect
        one_word = self._words == 1
        while frontier.size:
            if one_word:
                if frontier[0] >= self._leaf_level_start:
                    xor = self._bits1.take(frontier, mode="clip")
                    np.bitwise_xor(xor, qwords[0], out=xor)
                    near = frontier[popcount64(xor) <= threshold]
                    count += int(self._frequency[near].sum())
                    break
                xor = self._bits1.take(frontier, mode="clip")
                np.bitwise_xor(xor, qwords[0], out=xor)
                np.bitwise_and(xor, self._masks1.take(frontier, mode="clip"), out=xor)
                dist = popcount64(xor)
                settle = dist + self._unc8.take(frontier, mode="clip") <= threshold
            else:
                xor = self._bits[frontier] ^ qwords
                dist = popcount64(xor & self._masks[frontier]).sum(
                    axis=1, dtype=np.int64
                )
                settle = dist + self._uncovered[frontier] <= threshold
            if not simple:
                settle |= (dist <= threshold) & self._is_leaf[frontier]
            count += int(self._frequency[frontier[settle]].sum())
            expand = frontier[(dist <= threshold) & ~settle]
            if not expand.size:
                break
            frontier = _expand_ranges(
                self._child_first.take(expand, mode="clip"),
                self._child_count.take(expand, mode="clip")
            )
        return count

    def contains_within(self, query: int, threshold: int) -> bool:
        """True iff any stored code lies within ``threshold``."""
        self._check_query(query, threshold)
        qwords = self._query_words(query)
        if self._buf_ids.size and bool(
            (self._buffer_distances(qwords) <= threshold).any()
        ):
            return True
        threshold = min(threshold, self._code_length)
        frontier = self._top_slots
        simple = self._cover_is_collect
        one_word = self._words == 1
        while frontier.size:
            if one_word:
                if frontier[0] >= self._leaf_level_start:
                    xor = self._bits1.take(frontier, mode="clip")
                    np.bitwise_xor(xor, qwords[0], out=xor)
                    return bool((popcount64(xor) <= threshold).any())
                xor = self._bits1.take(frontier, mode="clip")
                np.bitwise_xor(xor, qwords[0], out=xor)
                np.bitwise_and(xor, self._masks1.take(frontier, mode="clip"), out=xor)
                dist = popcount64(xor)
                hit = dist + self._unc8.take(frontier, mode="clip") <= threshold
            else:
                xor = self._bits[frontier] ^ qwords
                dist = popcount64(xor & self._masks[frontier]).sum(
                    axis=1, dtype=np.int64
                )
                hit = dist + self._uncovered[frontier] <= threshold
            if not simple:
                hit |= (dist <= threshold) & self._is_leaf[frontier]
            # A qualifying leaf, or a covered internal node (every leaf
            # beneath it qualifies), proves existence.
            if bool(hit.any()):
                return True
            expand = frontier[(dist <= threshold) & ~hit]
            if not expand.size:
                return False
            frontier = _expand_ranges(
                self._child_first.take(expand, mode="clip"),
                self._child_count.take(expand, mode="clip")
            )
        return False

    # -- the batched frontier sweep ----------------------------------------

    def _sweep_batch(
        self, qmat: np.ndarray, threshold: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Shared frontier sweep for a query batch.

        The live frontier is a pair list (node slot, query index): each
        level runs one distance pass over exactly the pairs every
        per-query node walk would examine — no dead (node, query)
        combinations — and expansion repeats a pair's query index over
        the node's contiguous child range.  Returns the collected
        (node, query) matches and the total pair evaluations.
        """
        threshold = min(threshold, self._code_length)
        batch = qmat.shape[0]
        top = self._top_slots
        nodes = np.tile(top, batch)
        owners = np.repeat(np.arange(batch, dtype=np.int64), top.size)
        taken_nodes: list[np.ndarray] = []
        taken_owners: list[np.ndarray] = []
        ops = 0
        simple = self._cover_is_collect
        one_word = self._words == 1
        traced = tracing()
        depth = 0
        started = 0.0
        if one_word:
            bits1, masks1, unc8 = self._bits1, self._masks1, self._unc8
            qcol = np.ascontiguousarray(qmat[:, 0])
            leaf_start = self._leaf_level_start
        while nodes.size:
            size = int(nodes.size)
            ops += size
            if traced:
                started = perf_counter()
            if one_word:
                if nodes[0] >= leaf_start:
                    xor = bits1.take(nodes, mode="clip")
                    np.bitwise_xor(xor, qcol.take(owners, mode="clip"), out=xor)
                    near = popcount64(xor) <= threshold
                    if near.any():
                        taken_nodes.append(nodes[near])
                        taken_owners.append(owners[near])
                    if traced:
                        _note_level(depth, size, 0, started)
                    break
                xor = bits1.take(nodes, mode="clip")
                np.bitwise_xor(xor, qcol.take(owners, mode="clip"), out=xor)
                np.bitwise_and(xor, masks1.take(nodes, mode="clip"), out=xor)
                dist = popcount64(xor)
                collect = dist + unc8.take(nodes, mode="clip") <= threshold
            else:
                xor = self._bits[nodes] ^ qmat[owners]
                dist = popcount64(xor & self._masks[nodes]).sum(
                    axis=1, dtype=np.int64
                )
                collect = dist + self._uncovered[nodes] <= threshold
            if not simple:
                collect |= (dist <= threshold) & self._is_leaf[nodes]
            if collect.any():
                taken_nodes.append(nodes[collect])
                taken_owners.append(owners[collect])
            expand = (dist <= threshold) & ~collect
            parents = nodes[expand]
            if traced:
                _note_level(depth, size, int(parents.size), started)
                depth += 1
            if not parents.size:
                break
            counts = self._child_count.take(parents, mode="clip")
            nodes = _expand_ranges(self._child_first.take(parents, mode="clip"), counts)
            owners = np.repeat(owners[expand], counts)
        if taken_nodes:
            return (
                np.concatenate(taken_nodes),
                np.concatenate(taken_owners),
                ops,
            )
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, ops

    @staticmethod
    def _split_by_owner(
        values: np.ndarray, owners: np.ndarray, batch: int
    ) -> list[np.ndarray]:
        """Partition ``values`` into per-query arrays by owner index."""
        order = np.argsort(owners, kind="stable")
        values = values[order]
        bounds = np.searchsorted(
            owners[order], np.arange(batch + 1, dtype=np.int64)
        )
        return [
            values[bounds[i]:bounds[i + 1]] for i in range(batch)
        ]

    def search_batch(
        self, queries: Sequence[int], threshold: int
    ) -> list[list[int]]:
        """Exact Hamming-select for every query of a batch at once.

        Returns one id list per query, each identical (as a multiset)
        to ``search(query, threshold)``.  ``last_search_ops`` is the
        total pair evaluations of the shared sweep — the sum of the
        per-query node-walk counts — plus the buffered comparisons.
        """
        self._require_ids()
        queries = list(queries)
        for query in queries:
            self._check_query(query, threshold)
        if not queries:
            return []
        batch = len(queries)
        with trace_span(
            "h_search", engine=self.ENGINE_LABEL, batch=batch, threshold=threshold
        ):
            qmat = _pack_column(queries, self._words)
            nodes, owners, ops = self._sweep_batch(qmat, threshold)
            self.last_search_ops = ops + len(self._buf_codes) * batch
            record_span(
                "h_search.buffer", 0.0,
                ops=len(self._buf_codes) * batch,
            )
            return self._batch_ids(qmat, nodes, owners, batch, threshold)

    def search_batch_arrays(
        self, queries: Sequence[int], threshold: int
    ) -> list[np.ndarray]:
        """:meth:`search_batch` with per-query ids as ``int64`` arrays.

        Same sweep, same spans, same ``last_search_ops`` — only the
        final array→list materialization is skipped, so scatter-gather
        coordinators can merge shard results at C speed and convert to
        Python ints once, after the merge.
        """
        self._require_ids()
        queries = list(queries)
        for query in queries:
            self._check_query(query, threshold)
        if not queries:
            return []
        batch = len(queries)
        with trace_span(
            "h_search", engine=self.ENGINE_LABEL, batch=batch, threshold=threshold
        ):
            qmat = _pack_column(queries, self._words)
            nodes, owners, ops = self._sweep_batch(qmat, threshold)
            self.last_search_ops = ops + len(self._buf_codes) * batch
            record_span(
                "h_search.buffer", 0.0,
                ops=len(self._buf_codes) * batch,
            )
            return self._batch_id_chunks(
                qmat, nodes, owners, batch, threshold
            )

    def _batch_id_chunks(
        self,
        qmat: np.ndarray,
        nodes: np.ndarray,
        owners: np.ndarray,
        batch: int,
        threshold: int,
    ) -> list[np.ndarray]:
        note_search(self.ENGINE_LABEL, self.last_search_ops, queries=batch)
        id_lo = self._id_offsets[self._leaf_lo[nodes]]
        counts = self._id_offsets[self._leaf_hi[nodes]] - id_lo
        all_ids = self._ids_flat[_expand_ranges(id_lo, counts)]
        id_owners = np.repeat(owners, counts)
        near = self._batch_buffer_matches(qmat, threshold)
        if near is not None:
            buf_rows, buf_cols = np.nonzero(near)
            all_ids = np.concatenate([all_ids, self._buf_ids[buf_rows]])
            id_owners = np.concatenate([id_owners, buf_cols])
        return self._split_by_owner(all_ids, id_owners, batch)

    def _batch_ids(
        self,
        qmat: np.ndarray,
        nodes: np.ndarray,
        owners: np.ndarray,
        batch: int,
        threshold: int,
    ) -> list[list[int]]:
        return [
            chunk.tolist()
            for chunk in self._batch_id_chunks(
                qmat, nodes, owners, batch, threshold
            )
        ]

    def search_codes_batch(
        self, queries: Sequence[int], threshold: int
    ) -> list[list[int]]:
        """Distinct qualifying codes for every query of a batch."""
        queries = list(queries)
        for query in queries:
            self._check_query(query, threshold)
        if not queries:
            return []
        batch = len(queries)
        with trace_span(
            "h_search", engine=self.ENGINE_LABEL, batch=batch, threshold=threshold
        ):
            qmat = _pack_column(queries, self._words)
            nodes, owners, ops = self._sweep_batch(qmat, threshold)
            self.last_search_ops = ops + len(self._buf_codes) * batch
            record_span(
                "h_search.buffer", 0.0,
                ops=len(self._buf_codes) * batch,
            )
            return self._batch_codes(qmat, nodes, owners, batch, threshold)

    def _batch_codes(
        self,
        qmat: np.ndarray,
        nodes: np.ndarray,
        owners: np.ndarray,
        batch: int,
        threshold: int,
    ) -> list[list[int]]:
        note_search(self.ENGINE_LABEL, self.last_search_ops, queries=batch)
        lo = self._leaf_lo[nodes]
        spans = self._leaf_hi[nodes] - lo
        leaf_positions = _expand_ranges(lo, spans)
        leaf_owners = np.repeat(owners, spans)
        per_query = self._split_by_owner(leaf_positions, leaf_owners, batch)
        near = self._batch_buffer_matches(qmat, threshold)
        return self._batch_codes_from_positions(per_query, near)

    def _batch_codes_from_positions(
        self,
        per_query: Sequence[np.ndarray],
        near: np.ndarray | None,
    ) -> list[list[int]]:
        """Per-query distinct codes from per-query leaf positions."""
        results: list[list[int]] = []
        for column, positions in enumerate(per_query):
            codes = [self._leaf_codes[i] for i in positions.tolist()]
            if near is not None:
                buffered = {
                    self._buf_codes[i]
                    for i in np.flatnonzero(near[:, column]).tolist()
                }
                codes.extend(buffered - set(codes))
            results.append(codes)
        return results

    def search_with_distances_batch(
        self, queries: Sequence[int], threshold: int
    ) -> list[list[tuple[int, int]]]:
        """Batched :meth:`search_with_distances` through one shared sweep.

        One frontier pass scores the whole batch, then candidate
        distances are computed in a single vectorized pass over the
        collected leaf positions — this is what lets the kNN front-end
        expand thresholds for a whole batch at once instead of
        rebuilding pair lists per query per round.  Each returned pair
        list equals ``search_with_distances(query, threshold)``.
        """
        self._require_ids()
        queries = list(queries)
        for query in queries:
            self._check_query(query, threshold)
        if not queries:
            return []
        batch = len(queries)
        with trace_span(
            "h_search", engine=self.ENGINE_LABEL,
            batch=batch, threshold=threshold,
        ):
            qmat = _pack_column(queries, self._words)
            nodes, owners, ops = self._sweep_batch(qmat, threshold)
            self.last_search_ops = ops + len(self._buf_codes) * batch
            record_span(
                "h_search.buffer", 0.0,
                ops=len(self._buf_codes) * batch,
            )
            lo = self._leaf_lo[nodes]
            spans = self._leaf_hi[nodes] - lo
            positions = _expand_ranges(lo, spans)
            position_owners = np.repeat(owners, spans)
            return self._batch_pairs(
                qmat, positions, position_owners, batch, threshold
            )

    def _batch_pairs(
        self,
        qmat: np.ndarray,
        leaf_positions: np.ndarray,
        position_owners: np.ndarray,
        batch: int,
        threshold: int,
    ) -> list[list[tuple[int, int]]]:
        """Per-query (id, distance) lists from swept (position, owner) pairs."""
        note_search(self.ENGINE_LABEL, self.last_search_ops, queries=batch)
        if leaf_positions.size:
            dists = popcount64(
                self._leaf_words[leaf_positions] ^ qmat[position_owners]
            ).sum(axis=1, dtype=np.int64)
            counts = (
                self._id_offsets[leaf_positions + 1]
                - self._id_offsets[leaf_positions]
            )
            ids = self._ids_flat[
                _expand_ranges(self._id_offsets[leaf_positions], counts)
            ]
            id_owners = np.repeat(position_owners, counts)
            id_dists = np.repeat(dists, counts)
        else:
            ids = np.empty(0, dtype=np.int64)
            id_owners = np.empty(0, dtype=np.int64)
            id_dists = np.empty(0, dtype=np.int64)
        if self._buf_ids.size:
            buf_dist = popcount64(
                self._buf_words[:, None, :] ^ qmat[None, :, :]
            ).sum(axis=2, dtype=np.int64)
            rows, cols = np.nonzero(buf_dist <= threshold)
            ids = np.concatenate([ids, self._buf_ids[rows]])
            id_owners = np.concatenate(
                [id_owners, cols.astype(np.int64)]
            )
            id_dists = np.concatenate([id_dists, buf_dist[rows, cols]])
        order = np.argsort(id_owners, kind="stable")
        ids = ids[order]
        id_dists = id_dists[order]
        bounds = np.searchsorted(
            id_owners[order], np.arange(batch + 1, dtype=np.int64)
        )
        return [
            list(
                zip(
                    ids[bounds[i]:bounds[i + 1]].tolist(),
                    id_dists[bounds[i]:bounds[i + 1]].tolist(),
                )
            )
            for i in range(batch)
        ]

    def _batch_buffer_matches(
        self, qmat: np.ndarray, threshold: int
    ) -> np.ndarray | None:
        if not self._buf_ids.size:
            return None
        dist = popcount64(
            self._buf_words[:, None, :] ^ qmat[None, :, :]
        ).sum(axis=2, dtype=np.int64)
        return dist <= threshold

    # -- HammingIndex contract ---------------------------------------------

    @classmethod
    def build(cls, codes, **params) -> "FlatHAIndex":
        """H-Build a Dynamic HA-Index over ``codes`` and compile it."""
        from repro.core.dynamic_ha import DynamicHAIndex

        return DynamicHAIndex.build(codes, **params).compile()

    def insert(self, code: int, tuple_id: int) -> None:
        raise IndexStateError(
            "FlatHAIndex is a read-only compiled kernel; "
            "mutate the DynamicHAIndex and recompile"
        )

    def delete(self, code: int, tuple_id: int) -> None:
        raise IndexStateError(
            "FlatHAIndex is a read-only compiled kernel; "
            "mutate the DynamicHAIndex and recompile"
        )

    def stats(self) -> IndexStats:
        internal = ~self._is_leaf
        return IndexStats(
            nodes=self.num_nodes,
            edges=self._edges,
            entries=len(self._ids_flat) + len(self._buf_codes),
            code_bits=(
                int(
                    (self._code_length - self._uncovered[internal]).sum()
                )
                + (len(self._leaf_codes) + len(self._buf_codes))
                * self._code_length
            ),
        )
