"""Compiled flat query plane for the Dynamic HA-Index.

:class:`FlatHAIndex` is what :meth:`DynamicHAIndex.compile` produces: the
pattern tree flattened into level-major numpy arrays — per-node
``bits``/``mask`` uint64 word matrices (plus 1-D fast-path columns for
codes up to 64 bits), contiguous child slot ranges, and a leaf table
laid out in DFS order so every node's leaf descendants form one
contiguous range.

Every read runs through one sweep, :meth:`FlatHAIndex._sweep_batch`:
H-Search (Algorithm 3) for a batch of queries as a vectorized frontier
loop, each BFS level a single XOR + popcount over the live
``(node, query)`` pairs with boolean-mask pruning.  The
subtree-qualifies shortcut (a node whose partial distance plus
uncovered bits is within the threshold contributes its whole leaf range
without further distance tests) is preserved, so ``last_search_ops``
matches the node walk exactly.  Four emission modes serve every read:
tuple ids (``search``), leaf positions (``search_codes``,
``search_with_distances``), frequency counts (``count_within``) and
existence (``contains_within``, which stops at its first hit).  The
public reads are written once on top of it — a single query is a batch
of one, cut from the batch result by offsets — and add the
buffered-insert side table, spans and metrics.  The native plane
(:mod:`repro.core.native_ha`) overrides only the primitive; this numpy
loop is its fallback tier.

The kernel is immutable: it snapshots the source index (including its
insert buffer) at compile time, and ``DynamicHAIndex.compile`` caches it
keyed by ``mutation_count`` so a stale kernel is never consulted after
H-Insert/H-Delete.  It contains only numpy arrays and plain ints, which
makes it cheap to pickle — the property the parallel join path relies on
to ship the probe kernel into a process pool.
"""

from __future__ import annotations

import operator
from itertools import accumulate
from time import perf_counter
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.bitvector import popcount64
from repro.core.errors import IndexStateError, InvalidParameterError
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

#: Emission modes of :meth:`FlatHAIndex._sweep_batch`; the compiled
#: sweep (:mod:`repro.core.native`) uses the same numbers.
MODE_IDS, MODE_POSITIONS, MODE_COUNT, MODE_EXISTS = range(4)

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False


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

    # -- the one sweep -----------------------------------------------------

    def _pack(self, queries: Sequence[int]) -> np.ndarray:
        """Validated queries as a (batch, words) ``uint64`` matrix."""
        if self._words == 1:
            return np.array(queries, dtype=np.uint64).reshape(-1, 1)
        return _pack_column(queries, self._words)

    def _sweep_batch(
        self, queries: Sequence[int], threshold: int, mode: int
    ) -> tuple[np.ndarray, list[int], int]:
        """H-Search (Algorithm 3) over the tree for a batch of queries.

        The one traversal under every read.  The live frontier is a pair
        list (node slot, query index): each BFS level is one XOR +
        popcount pass over exactly the pairs every per-query node walk
        would examine, split by boolean masks into *taken* nodes
        (qualifying leaves and subtree-qualifying internals, whose
        contiguous leaf ranges qualify wholesale) and *expanded* ones
        (qualifying internals, whose contiguous child ranges form the
        next level).  A batch of one keeps no query column, and its
        existence probe stops at the level of its first hit.

        ``queries`` are validated ints and ``threshold`` is clamped to
        the code length.  ``mode`` picks what a taken node contributes:
        its tuple ids (:data:`MODE_IDS`), its leaf positions
        (:data:`MODE_POSITIONS`), its frequency (:data:`MODE_COUNT`) or
        a hit (:data:`MODE_EXISTS`).  Returns ``(values, counts, ops)``:
        the emitted values grouped by query in visit order, one count
        per query (values emitted, frequency sum, or 0/1), and the
        distance computations, which equal the node walk's.  The insert
        buffer is left to the caller.
        """
        batch = len(queries)
        single = batch == 1
        qmat = self._pack(queries)
        top = self._top_slots
        nodes = top if single else np.tile(top, batch)
        owners = None if single else np.repeat(
            np.arange(batch, dtype=np.int64), top.size
        )
        taken_nodes: list[np.ndarray] = []
        taken_owners: list[np.ndarray] = []
        ops = 0
        simple = self._cover_is_collect
        one_word = self._words == 1
        traced = mode <= MODE_POSITIONS and tracing()
        depth = 0
        started = 0.0
        if one_word:
            bits1, masks1, unc8 = self._bits1, self._masks1, self._unc8
            qcol = qmat[0, 0] if single else qmat[:, 0]
            leaf_start = self._leaf_level_start
        while nodes.size:
            size = int(nodes.size)
            ops += size
            if traced:
                started = perf_counter()
            terminal = one_word and nodes[0] >= leaf_start
            if one_word:
                xor = bits1.take(nodes, mode="clip")
                query = qcol if single else qcol.take(owners, mode="clip")
                np.bitwise_xor(xor, query, out=xor)
                if terminal:
                    # Terminal all-leaf level: distances are exact (no
                    # masking), and there is nothing left to expand.
                    dist = popcount64(xor)
                    take = dist <= threshold
                else:
                    np.bitwise_and(
                        xor, masks1.take(nodes, mode="clip"), out=xor
                    )
                    dist = popcount64(xor)
                    take = dist + unc8.take(nodes, mode="clip") <= threshold
            else:
                xor = self._bits[nodes] ^ (qmat if single else qmat[owners])
                dist = popcount64(xor & self._masks[nodes]).sum(
                    axis=1, dtype=np.int64
                )
                take = dist + self._uncovered[nodes] <= threshold
            if not simple and not terminal:
                take |= (dist <= threshold) & self._is_leaf[nodes]
            taken = nodes[take]
            if taken.size:
                taken_nodes.append(taken)
                if not single:
                    taken_owners.append(owners[take])
                elif mode == MODE_EXISTS:
                    break
            if terminal:
                if traced:
                    _note_level(depth, size, 0, started)
                break
            expand = (dist <= threshold) & ~take
            parents = nodes[expand]
            if traced:
                _note_level(depth, size, int(parents.size), started)
                depth += 1
            if not parents.size:
                break
            spans = self._child_count.take(parents, mode="clip")
            nodes = _expand_ranges(
                self._child_first.take(parents, mode="clip"), spans
            )
            if not single:
                owners = np.repeat(owners[expand], spans)
        if single and mode == MODE_EXISTS:
            return _EMPTY, [1 if taken_nodes else 0], ops
        taken = np.concatenate(taken_nodes) if taken_nodes else _EMPTY
        if not single and taken_owners:
            # Levels interleave queries; a stable sort by query keeps
            # each query's visit order.
            owners = np.concatenate(taken_owners)
            order = np.argsort(owners, kind="stable")
            taken, owners = taken[order], owners[order]
        else:
            owners = _EMPTY
        if mode == MODE_IDS:
            lo = self._id_offsets[self._leaf_lo[taken]]
            per_node = self._id_offsets[self._leaf_hi[taken]] - lo
        elif mode == MODE_POSITIONS:
            lo = self._leaf_lo[taken]
            per_node = self._leaf_hi[taken] - lo
        elif mode == MODE_COUNT:
            per_node = self._frequency[taken]
        else:
            per_node = np.ones_like(taken)
        values = _EMPTY if mode >= MODE_COUNT else _expand_ranges(lo, per_node)
        if mode == MODE_IDS:
            values = self._ids_flat[values]
        if not single:
            counts = np.bincount(owners, per_node, batch).astype(np.int64)
            if mode == MODE_EXISTS:
                counts = np.minimum(counts, 1)
            return values, counts.tolist(), ops
        if mode == MODE_COUNT:
            return values, [int(per_node.sum())], ops
        return values, [values.size], ops

    # -- the shared front --------------------------------------------------

    def _require_ids(self) -> None:
        if not self._keep_ids:
            raise IndexStateError(
                "index compiled with keep_ids=False; use search_codes()"
            )

    def _front(
        self, queries: Sequence[int], threshold: int
    ) -> tuple[list[int], int]:
        """Queries and threshold as validated ints.

        Every read enters here, so a non-integer query or threshold
        raises :class:`InvalidParameterError` on every tier before any
        sweep runs.
        """
        try:
            threshold = operator.index(threshold)
            queries = [operator.index(query) for query in queries]
        except TypeError:
            raise InvalidParameterError(
                "queries and threshold must be integers"
            ) from None
        for query in queries:
            self._check_query(query, threshold)
        return queries, threshold

    def _buffer_distances(self, qmat: np.ndarray) -> np.ndarray:
        """(buffered, batch) exact distances of the insert buffer."""
        return popcount64(
            self._buf_words[:, None, :] ^ qmat[None, :, :]
        ).sum(axis=2, dtype=np.int64)

    def _select(
        self, queries: Sequence[int], threshold: int, mode: int,
        batched: bool,
    ) -> tuple[list[int], int, np.ndarray, list[int]]:
        """Sweep a select-style read; ``(queries, threshold, values, bounds)``.

        Opens the ``h_search`` span (with ``batch=`` for the batch
        forms), charges ``last_search_ops`` with the sweep plus one
        comparison per buffered code per query, and records the search
        metrics.  Query ``i``'s tree matches are
        ``values[bounds[i]:bounds[i + 1]]``.
        """
        queries, threshold = self._front(queries, threshold)
        batch = len(queries)
        if not batch:
            return queries, threshold, _EMPTY, [0]
        extra = {"batch": batch} if batched else {}
        length = self._code_length
        with trace_span(
            "h_search", engine=self.ENGINE_LABEL, **extra,
            threshold=threshold,
        ):
            values, counts, ops = self._sweep_batch(
                queries, threshold if threshold < length else length, mode
            )
            buffered = len(self._buf_codes) * batch
            self.last_search_ops = ops + buffered
            record_span("h_search.buffer", 0.0, ops=buffered)
        note_search(self.ENGINE_LABEL, self.last_search_ops, queries=batch)
        return queries, threshold, values, [0, *accumulate(counts)]

    def _ids(
        self, queries: Sequence[int], threshold: int, batched: bool
    ) -> list[np.ndarray]:
        """Per-query ``int64`` ids: tree matches, then buffered ones."""
        self._require_ids()
        queries, threshold, ids, bounds = self._select(
            queries, threshold, MODE_IDS, batched
        )
        chunks = [ids[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        if self._buf_ids.size:
            near = self._buffer_distances(self._pack(queries)) <= threshold
            chunks = [
                np.concatenate([chunk, self._buf_ids[near[:, column]]])
                for column, chunk in enumerate(chunks)
            ]
        return chunks

    def _codes(
        self, queries: Sequence[int], threshold: int, batched: bool
    ) -> list[list[int]]:
        """Per-query distinct qualifying codes (tree, then buffer)."""
        queries, threshold, positions, bounds = self._select(
            queries, threshold, MODE_POSITIONS, batched
        )
        leaf_codes = self._leaf_codes
        positions = positions.tolist()
        results = [
            [leaf_codes[i] for i in positions[lo:hi]]
            for lo, hi in zip(bounds, bounds[1:])
        ]
        if self._buf_ids.size:
            near = self._buffer_distances(self._pack(queries)) <= threshold
            for column, codes in enumerate(results):
                buffered = {
                    self._buf_codes[i]
                    for i in np.flatnonzero(near[:, column]).tolist()
                }
                codes.extend(buffered - set(codes))
        return results

    def _pairs(
        self, queries: Sequence[int], threshold: int, batched: bool
    ) -> list[list[tuple[int, int]]]:
        """Per-query (tuple id, exact distance) pairs (tree, then buffer)."""
        self._require_ids()
        queries, threshold, positions, bounds = self._select(
            queries, threshold, MODE_POSITIONS, batched
        )
        qmat = self._pack(queries)
        batch = len(queries)
        if not positions.size:
            results: list[list[tuple[int, int]]] = [[] for _ in queries]
        else:
            per_position = qmat
            if batch > 1:
                per_position = qmat[
                    np.repeat(np.arange(batch), np.diff(bounds))
                ]
            dists = popcount64(
                self._leaf_words[positions] ^ per_position
            ).sum(axis=1, dtype=np.int64)
            id_lo = self._id_offsets[positions]
            counts = self._id_offsets[positions + 1] - id_lo
            pairs = list(
                zip(
                    self._ids_flat[_expand_ranges(id_lo, counts)].tolist(),
                    np.repeat(dists, counts).tolist(),
                )
            )
            if batch == 1:
                results = [pairs]
            else:
                # Query i's pairs end where its last position's ids end.
                cut = np.concatenate(([0], np.cumsum(counts)))[bounds]
                cut = cut.tolist()
                results = [pairs[lo:hi] for lo, hi in zip(cut, cut[1:])]
        if self._buf_ids.size:
            buf_dist = self._buffer_distances(qmat)
            for column, pairs in enumerate(results):
                near = np.flatnonzero(buf_dist[:, column] <= threshold)
                pairs.extend(
                    zip(
                        self._buf_ids[near].tolist(),
                        buf_dist[near, column].tolist(),
                    )
                )
        return results

    def _tally(self, query: int, threshold: int, mode: int) -> int:
        """One query's frequency count or existence, buffer included.

        Leaves ``last_search_ops``, spans and search metrics alone.
        """
        queries, threshold = self._front((query,), threshold)
        near = 0
        if self._buf_ids.size:
            near = int(
                (self._buffer_distances(self._pack(queries)) <= threshold).sum()
            )
            if near and mode == MODE_EXISTS:
                return near
        length = self._code_length
        _, counts, _ = self._sweep_batch(
            queries, threshold if threshold < length else length, mode
        )
        return near + counts[0]

    # -- queries -----------------------------------------------------------

    def search(self, query: int, threshold: int) -> list[int]:
        """Exact Hamming-select; same answer multiset as the node walk."""
        return self._ids((query,), threshold, False)[0].tolist()

    def search_codes(self, query: int, threshold: int) -> list[int]:
        """Distinct qualifying codes (Option B of the MapReduce join)."""
        return self._codes((query,), threshold, False)[0]

    def search_with_distances(
        self, query: int, threshold: int
    ) -> list[tuple[int, int]]:
        """(tuple id, exact distance) pairs; used by the kNN front-end."""
        return self._pairs((query,), threshold, False)[0]

    def count_within(self, query: int, threshold: int) -> int:
        """Number of tuples within ``threshold``; uses the per-node
        frequency counters so covered subtrees are counted without
        descending, exactly like the node walk."""
        return self._tally(query, threshold, MODE_COUNT)

    def contains_within(self, query: int, threshold: int) -> bool:
        """True iff any stored code lies within ``threshold``."""
        return self._tally(query, threshold, MODE_EXISTS) > 0

    def search_batch(
        self, queries: Sequence[int], threshold: int
    ) -> list[list[int]]:
        """Exact Hamming-select for every query of a batch at once.

        Returns one id list per query, each equal to
        ``search(query, threshold)``.  ``last_search_ops`` is the total
        pair evaluations of the shared sweep — the sum of the per-query
        node-walk counts — plus the buffered comparisons.
        """
        return [ids.tolist() for ids in self._ids(queries, threshold, True)]

    def search_batch_arrays(
        self, queries: Sequence[int], threshold: int
    ) -> list[np.ndarray]:
        """:meth:`search_batch` with per-query ids as ``int64`` arrays.

        Same sweep, same spans, same ``last_search_ops`` — only the
        final array→list materialization is skipped, so scatter-gather
        coordinators can merge shard results at C speed and convert to
        Python ints once, after the merge.
        """
        return self._ids(queries, threshold, True)

    def search_codes_batch(
        self, queries: Sequence[int], threshold: int
    ) -> list[list[int]]:
        """Distinct qualifying codes for every query of a batch."""
        return self._codes(queries, threshold, True)

    def search_with_distances_batch(
        self, queries: Sequence[int], threshold: int
    ) -> list[list[tuple[int, int]]]:
        """Batched :meth:`search_with_distances` through one shared sweep,
        which lets the kNN front-end expand thresholds for a whole batch
        at once."""
        return self._pairs(queries, threshold, True)

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
