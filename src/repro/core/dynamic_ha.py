"""Dynamic HA-Index (Sections 4.4–4.6): Gray-ordered FLSSeq sharing.

H-Build (Algorithm 1) sorts the distinct codes in Gray order, slides a
window of ``w`` slots over them and turns each window's maximal common
FLSSeq into a parent node; levels are merged the same way up to a target
depth.  Every node stores an *absolute* masked pattern — the bits it knows
about all its descendants.  Because a parent's pattern generalizes each
child's, the partial distance to the query grows monotonically down any
path, so H-Search (Algorithm 3) can prune a whole subtree as soon as a
node's partial distance exceeds the threshold (Proposition 1) and is exact
at the leaves, whose patterns are complete codes.

Equivalence with the paper's formulation: Algorithm 3 carries residual
patterns down the path and ``combine``-s them; since the residual masks
along a path are disjoint, the combined distance equals the absolute
pattern distance computed here, and the per-query memo table plays the
role of the paper's per-node *visited flag* — a node's distance is
computed once per query no matter how many paths reach it.

Leaves are one node per *distinct* code carrying the tuple-id hash table
("we build a hash table for the bottom node ... key is the leaf node's
binary codes, value is the tuple's ID").  Constructing the index with
``keep_ids=False`` drops the id payload — the paper's leaf-less variant
broadcast by the MapReduce Hamming-join Option B — in which case
:meth:`search_codes` still answers exactly over codes.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Sequence

from repro.core.bitvector import CodeSet
from repro.core.errors import IndexStateError, InvalidParameterError
from repro.core.flat_ha import FlatHAIndex
from repro.core.gray import gray_rank
from repro.core.index_base import HammingIndex, IndexStats
from repro.core.native_ha import NativeHAIndex
from repro.core.pattern import MaskedPattern, common_of_patterns
from repro.obs import note_search
from repro.obs.trace import record_span, trace_span, tracing

#: Default sliding-window slots (paper Figure 8 sweeps 0.005n .. 0.04n).
DEFAULT_WINDOW = 8
#: Default index depth (paper Figure 8 sweeps depths 4..7).
DEFAULT_MAX_DEPTH = 6
#: Inserted codes buffered before an H-Build-style merge (Section 4.5).
DEFAULT_REBUILD_BUFFER = 256


class _DhaNode:
    """One HA-Index node: an absolute pattern plus children or ids.

    ``bits``/``mask`` mirror ``pattern`` so the H-Search hot loop can
    compute partial distances without attribute chains, and ``epoch`` is
    the per-query visited stamp (the paper's visited flag).
    """

    __slots__ = (
        "pattern", "bits", "mask", "children", "ids", "frequency",
        "parent", "epoch",
    )

    def __init__(self, pattern: MaskedPattern) -> None:
        self.pattern = pattern
        self.bits = pattern.bits
        self.mask = pattern.mask
        self.children: list[_DhaNode] = []
        self.ids: list[int] = []
        self.frequency = 0
        self.parent: _DhaNode | None = None
        self.epoch = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True, slots=True)
class SearchStep:
    """One node examination in a traced H-Search (see Table 3).

    Attributes:
        pattern: the node's FLSSeq in dotted notation.
        distance: partial Hamming distance of the pattern to the query.
        depth: node depth from the top level (0 = top).
        action: ``"expanded"``, ``"pruned"`` or ``"matched"`` (a
            qualifying leaf).
    """

    pattern: str
    distance: int
    depth: int
    action: str


def _step_action(node: "_DhaNode", qualified: bool) -> str:
    if not qualified:
        return "pruned"
    return "matched" if node.is_leaf else "expanded"


def _node_depth(node: "_DhaNode") -> int:
    depth = 0
    current = node.parent
    while current is not None:
        depth += 1
        current = current.parent
    return depth


class DynamicHAIndex(HammingIndex):
    """The paper's Dynamic HA-Index.

    Args:
        code_length: bit length of indexed codes.
        window: sliding-window slots ``w`` of H-Build.
        max_depth: number of pattern levels built above the leaves.
        rebuild_buffer: inserted codes buffered before a rebuild merge.
        keep_ids: store tuple ids at the leaves (``False`` gives the
            leaf-less broadcast variant used by MapReduce Option B).
        gray_order: sort codes by Gray rank before the windowed merge
            (Algorithm 1, line 1).  ``False`` sorts by plain numeric
            value instead — an ablation knob showing how much of the
            FLSSeq sharing the Gray clustering property buys.
    """

    def __init__(
        self,
        code_length: int,
        window: int = DEFAULT_WINDOW,
        max_depth: int = DEFAULT_MAX_DEPTH,
        rebuild_buffer: int = DEFAULT_REBUILD_BUFFER,
        keep_ids: bool = True,
        gray_order: bool = True,
    ) -> None:
        super().__init__(code_length)
        if window < 2:
            raise InvalidParameterError("window must hold at least 2 slots")
        if max_depth < 1:
            raise InvalidParameterError("max_depth must be positive")
        if rebuild_buffer < 1:
            raise InvalidParameterError("rebuild_buffer must be positive")
        self._window = window
        self._max_depth = max_depth
        self._rebuild_buffer = rebuild_buffer
        self._keep_ids = keep_ids
        self._gray_order = gray_order
        self._top: list[_DhaNode] = []
        self._leaf_by_code: dict[int, _DhaNode] = {}
        self._buffer: list[tuple[int, int]] = []
        self._frozen = False
        self._compiled = None
        self._compiled_mutations = -1
        self._compiled_tree_version = -1
        self._tree_version = 0

    @property
    def window(self) -> int:
        return self._window

    @property
    def max_depth(self) -> int:
        return self._max_depth

    @property
    def keeps_ids(self) -> bool:
        return self._keep_ids

    @property
    def num_distinct_codes(self) -> int:
        return len(self._leaf_by_code) + len(
            {code for code, _ in self._buffer}
        )

    # -- H-Build (Algorithm 1) ----------------------------------------------

    def _bulk_load(self, codes: CodeSet) -> None:
        grouped: dict[int, list[int]] = {}
        for code, tuple_id in zip(codes.codes, codes.ids):
            grouped.setdefault(code, []).append(tuple_id)
        self._rebuild(grouped)

    def _rebuild(self, grouped: dict[int, list[int]]) -> None:
        """(Re)run H-Build over distinct codes and their id lists."""
        self._compiled = None
        self._compiled_mutations = -1
        self._tree_version += 1
        self._top = []
        self._leaf_by_code = {}
        self._buffer = []
        self._size = sum(len(ids) for ids in grouped.values())
        if not grouped:
            return
        sort_key = gray_rank if self._gray_order else None
        leaves = []
        for code in sorted(grouped, key=sort_key):
            leaf = _DhaNode(MaskedPattern.full(code, self._code_length))
            if self._keep_ids:
                leaf.ids = list(grouped[code])
            leaf.frequency = len(grouped[code])
            self._leaf_by_code[code] = leaf
            leaves.append(leaf)
        level = leaves
        top: list[_DhaNode] = []
        for _ in range(self._max_depth):
            if len(level) <= 1:
                break
            level = self._build_level(level, top)
        top.extend(level)
        self._top = top

    def _build_level(
        self, level: list[_DhaNode], top: list[_DhaNode]
    ) -> list[_DhaNode]:
        """One windowed merge pass; unshareable nodes go to ``top``."""
        next_level: list[_DhaNode] = []
        consolidated: dict[MaskedPattern, _DhaNode] = {}
        for start in range(0, len(level), self._window):
            window_nodes = level[start : start + self._window]
            if len(window_nodes) == 1:
                # A lone trailing node cannot share; carry it upward.
                next_level.append(window_nodes[0])
                continue
            agreement = common_of_patterns(
                node.pattern for node in window_nodes
            )
            if agreement.mask == 0:
                # No common FLSSeq: link these nodes to the top level
                # (Algorithm 1, line 16).
                top.extend(
                    node for node in window_nodes if node.parent is None
                )
                continue
            parent = consolidated.get(agreement)
            if parent is None:
                parent = _DhaNode(agreement)
                consolidated[agreement] = parent
                next_level.append(parent)
            for node in window_nodes:
                node.parent = parent
                parent.children.append(node)
                parent.frequency += node.frequency
        return next_level

    # -- H-Search (Algorithm 3) ----------------------------------------------

    _search_epoch = 0

    def _search_nodes(self, query: int, threshold: int) -> list[_DhaNode]:
        """Qualifying leaves of the pattern DAG, each exactly once.

        Level-synchronous breadth-first walk: a level examines the
        children of the previous level's qualifying, uncovered nodes.
        The per-query epoch stamp is the paper's per-node visited flag,
        so a node reachable through several qualifying parents is
        examined once.  Under ``tracing()`` each level becomes one
        ``h_search.level`` span and the insert-buffer charge one
        ``h_search.buffer`` span, so the trace's ops sum to
        ``last_search_ops``.
        """
        DynamicHAIndex._search_epoch += 1
        epoch = DynamicHAIndex._search_epoch
        length = self._code_length
        traced = tracing()
        started = perf_counter() if traced else 0.0
        leaves: list[_DhaNode] = []
        level: list[_DhaNode] = []
        for node in self._top:
            distance = ((node.bits ^ query) & node.mask).bit_count()
            if distance <= threshold:
                node.epoch = epoch
                if distance + length - node.mask.bit_count() <= threshold:
                    # The cover shortcut applies at every level, the
                    # top included (deep tuple chains surface heavily
                    # masked patterns here): collect without testing
                    # the subtree.  Keeps the op accounting identical
                    # to the flat kernel's uniform per-level test.
                    self._collect_leaves(node, epoch, leaves)
                else:
                    level.append(node)
        examined = ops = len(self._top)
        depth = 0
        while True:
            if traced:
                record_span(
                    "h_search.level", perf_counter() - started,
                    ops=examined, depth=depth, examined=examined,
                    expanded=len(level),
                )
                started = perf_counter()
            if not level:
                break
            depth += 1
            examined = 0
            parents, level = level, []
            for node in parents:
                children = node.children
                if not children:
                    leaves.append(node)
                    continue
                for child in children:
                    if child.epoch != epoch:
                        examined += 1
                        distance = (
                            (child.bits ^ query) & child.mask
                        ).bit_count()
                        if distance <= threshold:
                            child.epoch = epoch
                            if (
                                distance + length - child.mask.bit_count()
                                <= threshold
                            ):
                                # Even if every uncovered bit differs,
                                # the whole subtree qualifies: collect
                                # its leaves without further tests.
                                self._collect_leaves(child, epoch, leaves)
                            else:
                                level.append(child)
            ops += examined
        if traced:
            record_span("h_search.buffer", 0.0, ops=len(self._buffer))
        self.last_search_ops = ops + len(self._buffer)
        return leaves

    @staticmethod
    def _collect_leaves(
        root: _DhaNode, epoch: int, leaves: list[_DhaNode]
    ) -> None:
        """Append every leaf under ``root``, stamping epochs (no XORs)."""
        stack = [root]
        while stack:
            node = stack.pop()
            if not node.children:
                leaves.append(node)
                continue
            for child in node.children:
                if child.epoch != epoch:
                    child.epoch = epoch
                    stack.append(child)

    def trace_search(
        self, query: int, threshold: int
    ) -> list["SearchStep"]:
        """H-Search with a step-by-step trace (the paper's Table 3).

        Returns one :class:`SearchStep` per node examination in BFS
        order, recording the node's pattern, its partial distance and
        whether it was expanded, pruned, or reported as a qualifying
        leaf.  Slower than :meth:`search`; intended for teaching,
        debugging and tests.
        """
        self._check_query(query, threshold)
        steps: list[SearchStep] = []
        queue: list[_DhaNode] = []
        seen: set[int] = set()
        for node in self._top:
            distance = node.pattern.distance(query)
            qualified = distance <= threshold
            steps.append(
                SearchStep(str(node.pattern), distance, 0,
                           _step_action(node, qualified))
            )
            if qualified:
                seen.add(id(node))
                queue.append(node)
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            if node.is_leaf:
                continue
            depth = _node_depth(node)
            for child in node.children:
                if id(child) in seen:
                    continue
                distance = child.pattern.distance(query)
                qualified = distance <= threshold
                steps.append(
                    SearchStep(str(child.pattern), distance, depth + 1,
                               _step_action(child, qualified))
                )
                if qualified:
                    seen.add(id(child))
                    queue.append(child)
        return steps

    def search(self, query: int, threshold: int) -> list[int]:
        if not self._keep_ids:
            raise IndexStateError(
                "index built with keep_ids=False; use search_codes()"
            )
        self._check_query(query, threshold)
        with trace_span("h_search", engine="nodes", threshold=threshold):
            results: list[int] = []
            for leaf in self._search_nodes(query, threshold):
                results.extend(leaf.ids)
            for code, tuple_id in self._buffer:
                if (code ^ query).bit_count() <= threshold:
                    results.append(tuple_id)
        note_search("nodes", self.last_search_ops)
        return results

    def count_within(self, query: int, threshold: int) -> int:
        """Number of tuples within ``threshold`` of ``query``.

        Cheaper than ``len(search(...))``: when a node's partial
        distance plus its number of *uncovered* bits is already within
        the threshold, every descendant qualifies regardless of its
        free bits, so the node's frequency counter (maintained by
        build/insert/delete) is added without descending — the payoff
        of Algorithm 1's per-node frequencies.
        """
        self._check_query(query, threshold)
        length = self._code_length
        count = sum(
            1
            for code, _ in self._buffer
            if (code ^ query).bit_count() <= threshold
        )
        stack = list(self._top)
        DynamicHAIndex._search_epoch += 1
        epoch = DynamicHAIndex._search_epoch
        for node in stack:
            node.epoch = epoch
        while stack:
            node = stack.pop()
            mask = node.mask
            distance = ((node.bits ^ query) & mask).bit_count()
            if distance > threshold:
                continue
            uncovered = length - mask.bit_count()
            if distance + uncovered <= threshold:
                # Even if every free bit differs, the subtree qualifies.
                count += node.frequency
                continue
            if not node.children:
                count += node.frequency
                continue
            for child in node.children:
                if child.epoch != epoch:
                    child.epoch = epoch
                    stack.append(child)
        return count

    def contains_within(self, query: int, threshold: int) -> bool:
        """True iff any indexed code lies within ``threshold``.

        Early-exits on the first qualifying leaf — the existence probe
        behind the similarity semi-join (``hamming_intersect``), which
        never needs the full match set.
        """
        self._check_query(query, threshold)
        for code, _ in self._buffer:
            if (code ^ query).bit_count() <= threshold:
                return True
        DynamicHAIndex._search_epoch += 1
        epoch = DynamicHAIndex._search_epoch
        queue: list[_DhaNode] = []
        for node in self._top:
            if ((node.bits ^ query) & node.mask).bit_count() <= threshold:
                if node.is_leaf:
                    return True
                node.epoch = epoch
                queue.append(node)
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            for child in node.children:
                if child.epoch != epoch and (
                    (child.bits ^ query) & child.mask
                ).bit_count() <= threshold:
                    if not child.children:
                        return True
                    child.epoch = epoch
                    queue.append(child)
        return False

    def search_codes(self, query: int, threshold: int) -> list[int]:
        """Distinct qualifying codes (Option B of the MapReduce join)."""
        self._check_query(query, threshold)
        with trace_span("h_search", engine="nodes", threshold=threshold):
            codes = [
                leaf.bits for leaf in self._search_nodes(query, threshold)
            ]
            buffered = {
                code
                for code, _ in self._buffer
                if (code ^ query).bit_count() <= threshold
            }
            codes.extend(buffered - set(codes))
        note_search("nodes", self.last_search_ops)
        return codes

    def search_with_distances(
        self, query: int, threshold: int
    ) -> list[tuple[int, int]]:
        """(tuple id, exact distance) pairs; used by the kNN front-end."""
        if not self._keep_ids:
            raise IndexStateError(
                "index built with keep_ids=False; use search_codes()"
            )
        self._check_query(query, threshold)
        with trace_span("h_search", engine="nodes", threshold=threshold):
            results = []
            for leaf in self._search_nodes(query, threshold):
                distance = (leaf.bits ^ query).bit_count()
                results.extend(
                    (tuple_id, distance) for tuple_id in leaf.ids
                )
            for code, tuple_id in self._buffer:
                distance = (code ^ query).bit_count()
                if distance <= threshold:
                    results.append((tuple_id, distance))
        note_search("nodes", self.last_search_ops)
        return results

    # -- compiled query plane (FlatHAIndex) ------------------------------------

    def compile(self, force: bool = False):
        """The flat, vectorized query kernel for this index state.

        Flattens the pattern tree into the array layout of
        :class:`~repro.core.flat_ha.FlatHAIndex` and caches the result
        keyed by :attr:`mutation_count`: any H-Insert/H-Delete (and any
        rebuild, including buffer merges) invalidates the cache, so a
        stale kernel is never consulted.  When only the insert buffer
        changed since the cached compile, the flattened tree arrays are
        reused and just the buffer is re-snapshotted — the cheap path
        that keeps batched serving viable under buffered-write traffic.
        ``force=True`` recompiles unconditionally.
        """
        cached = self._compiled
        if not force and cached is not None:
            if self._compiled_mutations == self.mutation_count:
                return cached
            if self._compiled_tree_version == self._tree_version:
                self._compiled = FlatHAIndex.rebuffered(cached, self)
                self._compiled_mutations = self.mutation_count
                return self._compiled
        self._compiled = FlatHAIndex(self)
        self._compiled_mutations = self.mutation_count
        self._compiled_tree_version = self._tree_version
        return self._compiled

    def compile_native(self, force: bool = False):
        """The native-executed view of :meth:`compile`'s kernel.

        A :class:`~repro.core.native_ha.NativeHAIndex` that shares every
        array of the cached flat kernel (one flatten serves both
        planes) and sweeps through the compiled backend
        (:mod:`repro.core.native`), with the numpy path as automatic
        fallback.
        """
        return NativeHAIndex.view(self.compile(force))

    def search_batch(
        self, queries: Sequence[int], threshold: int
    ) -> list[list[int]]:
        """Vectorized H-Search for a whole query batch.

        Compiles (or reuses) the flat kernel and runs one shared
        frontier sweep; each returned id list equals the corresponding
        ``search(query, threshold)`` as a multiset.
        """
        return self.compile().search_batch(queries, threshold)

    def search_batch_arrays(self, queries: Sequence[int], threshold: int):
        """Batched H-Search returning per-query ``int64`` id arrays.

        The scatter-gather coordinator's fast path: shard results stay
        numpy until the cross-shard merge, avoiding a per-shard
        array→list→array round trip.
        """
        return self.compile().search_batch_arrays(queries, threshold)

    def search_codes_batch(
        self, queries: Sequence[int], threshold: int
    ) -> list[list[int]]:
        """Batched :meth:`search_codes` through the flat kernel."""
        return self.compile().search_codes_batch(queries, threshold)

    # -- maintenance (Section 4.5) --------------------------------------------

    def insert(self, code: int, tuple_id: int) -> None:
        """Insert one tuple.

        A code already present joins its leaf directly (frequencies bumped
        along the path); a new code goes to the temporary buffer, and the
        buffer is merged with an H-Build pass once it reaches its maximum
        size — the paper's buffered-insert strategy.
        """
        self._check_query(code, 0)
        if self._frozen:
            raise IndexStateError("merged global HA-Index is read-only")
        if not self._keep_ids:
            raise IndexStateError(
                "cannot insert into a leaf-less (keep_ids=False) index"
            )
        self._note_mutation()
        leaf = self._leaf_by_code.get(code)
        if leaf is not None:
            self._tree_version += 1
            leaf.ids.append(tuple_id)
            self._size += 1
            node: _DhaNode | None = leaf
            while node is not None:
                node.frequency += 1
                node = node.parent
            return
        self._buffer.append((code, tuple_id))
        self._size += 1
        if len(self._buffer) >= self._rebuild_buffer:
            self._merge_buffer()

    def _merge_buffer(self) -> None:
        grouped: dict[int, list[int]] = {
            code: list(leaf.ids) for code, leaf in self._leaf_by_code.items()
        }
        for code, tuple_id in self._buffer:
            grouped.setdefault(code, []).append(tuple_id)
        self._rebuild(grouped)

    def flush(self) -> None:
        """Force the buffered inserts into the index structure."""
        if self._buffer:
            self._merge_buffer()

    def delete(self, code: int, tuple_id: int) -> None:
        """H-Delete (Algorithm 2): remove a tuple, pruning empty nodes."""
        self._check_query(code, 0)
        if self._frozen:
            raise IndexStateError("merged global HA-Index is read-only")
        if not self._keep_ids:
            raise IndexStateError(
                "cannot delete from a leaf-less (keep_ids=False) index"
            )
        leaf = self._leaf_by_code.get(code)
        if leaf is not None and tuple_id in leaf.ids:
            leaf.ids.remove(tuple_id)
            self._size -= 1
            self._note_mutation()
            self._tree_version += 1
            self._decrement_path(leaf, code)
            return
        for position, (buffered_code, buffered_id) in enumerate(self._buffer):
            if buffered_code == code and buffered_id == tuple_id:
                del self._buffer[position]
                self._size -= 1
                self._note_mutation()
                return
        raise IndexStateError(
            f"tuple {tuple_id} with code {code:#x} not present"
        )

    def _decrement_path(self, leaf: _DhaNode, code: int) -> None:
        node: _DhaNode | None = leaf
        while node is not None:
            node.frequency -= 1
            parent = node.parent
            if node.frequency == 0:
                if parent is not None:
                    parent.children.remove(node)
                elif node in self._top:
                    self._top.remove(node)
                if node is leaf:
                    del self._leaf_by_code[code]
            node = parent

    # -- distributed support (Section 5.2) ---------------------------------------

    @classmethod
    def merge(cls, indexes: Sequence["DynamicHAIndex"]) -> "DynamicHAIndex":
        """Merge local HA-Indexes into one global index.

        Implements the paper's post-processing step: "non-leaf nodes with
        the same FLSSeq from the different local HA-Indexes are merged
        into one node, and the corresponding edges between the index
        nodes are relinked."  Top-level nodes with identical patterns are
        consolidated (children relinked, frequencies summed); equal leaf
        codes merge their id lists.

        The merged index answers :meth:`search` / :meth:`search_codes`
        exactly.  It is read-only: insert and delete raise, because a
        deep subtree may still be shared with a local index.
        """
        if not indexes:
            raise InvalidParameterError("merge of no indexes")
        lengths = {index.code_length for index in indexes}
        if len(lengths) != 1:
            raise IndexStateError(
                f"cannot merge indexes of code lengths {sorted(lengths)}"
            )
        first = indexes[0]
        merged = cls(
            first.code_length,
            window=first.window,
            max_depth=first.max_depth,
            keep_ids=all(index.keeps_ids for index in indexes),
        )
        merged._frozen = True
        by_pattern: dict[MaskedPattern, _DhaNode] = {}
        for index in indexes:
            if index._buffer:
                index.flush()
            for node in index._top:
                merged._adopt_top_node(node, by_pattern)
            merged._size += index._size
        return merged

    def _adopt_top_node(
        self, node: _DhaNode, by_pattern: dict[MaskedPattern, _DhaNode]
    ) -> None:
        existing = by_pattern.get(node.pattern)
        if existing is None:
            by_pattern[node.pattern] = node
            self._top.append(node)
            self._register_leaves(node)
            return
        if existing.is_leaf and node.is_leaf:
            existing.ids.extend(node.ids)
            existing.frequency += node.frequency
            return
        for child in node.children:
            child.parent = existing
            existing.children.append(child)
        existing.frequency += node.frequency
        existing.ids.extend(node.ids)
        self._register_leaves(node)

    def _register_leaves(self, root: _DhaNode) -> None:
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                code = node.pattern.bits
                known = self._leaf_by_code.get(code)
                if known is None:
                    self._leaf_by_code[code] = node
                elif known is not node:
                    # Same code under two local subtrees: fold the ids
                    # into the registered leaf so searches and
                    # ids_for_code see each tuple exactly once, moving
                    # the frequency along both ancestor chains so
                    # count_within stays exact.
                    known.ids.extend(node.ids)
                    node.ids = []
                    moved = node.frequency
                    node.frequency = 0
                    ancestor = node.parent
                    while ancestor is not None:
                        ancestor.frequency -= moved
                        ancestor = ancestor.parent
                    known.frequency += moved
                    ancestor = known.parent
                    while ancestor is not None:
                        ancestor.frequency += moved
                        ancestor = ancestor.parent
                continue
            stack.extend(node.children)

    def ids_for_code(self, code: int) -> list[int]:
        """Tuple ids stored under an exact code (empty when absent)."""
        leaf = self._leaf_by_code.get(code)
        ids = list(leaf.ids) if leaf is not None else []
        ids.extend(
            tuple_id for buffered, tuple_id in self._buffer if buffered == code
        )
        return ids

    def code_id_pairs(self) -> Iterable[tuple[int, int]]:
        """Every stored (code, tuple id) pair, leaves then buffer."""
        for code, leaf in self._leaf_by_code.items():
            for tuple_id in leaf.ids:
                yield code, tuple_id
        yield from self._buffer

    def strip_ids(self) -> "DynamicHAIndex":
        """A deep copy without leaf id payloads (Option B broadcast).

        The copy keeps the full pattern structure and the distinct leaf
        codes, so :meth:`search_codes` stays exact, but drops the
        code-to-tuple-id hash tables whose storage dominates for large R
        (Section 5.3, Option B).
        """
        clone: DynamicHAIndex = pickle.loads(pickle.dumps(self))
        clone._keep_ids = False
        clone._buffer = []
        stack = list(clone._top)
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            node.ids = []
            stack.extend(node.children)
        return clone

    # -- serialization -----------------------------------------------------------

    _FILE_MAGIC = b"HADX"
    _FILE_VERSION = 1

    def save(self, path) -> None:
        """Persist the index to ``path`` (magic + version + payload).

        The on-disk payload is the compact wire format of
        :meth:`__getstate__`, so a saved global index costs about what
        broadcasting it does.
        """
        with open(path, "wb") as stream:
            stream.write(self._FILE_MAGIC)
            stream.write(bytes([self._FILE_VERSION]))
            pickle.dump(self, stream, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def load(cls, path) -> "DynamicHAIndex":
        """Load an index persisted by :meth:`save`; validates the header.

        Foreign, truncated, or otherwise corrupt files raise
        :class:`~repro.core.errors.IndexStateError` instead of leaking
        raw :mod:`pickle` errors.

        .. warning::
            The payload is a pickle, so ``load`` must only be pointed
            at **trusted** files (ones this process or its deployment
            wrote via :meth:`save`) — unpickling attacker-controlled
            bytes executes arbitrary code.  For an untrusted-input-safe
            on-disk format use :class:`repro.store.DurableIndexStore`,
            whose snapshots are validated numpy arrays, not pickles.
        """
        with open(path, "rb") as stream:
            magic = stream.read(len(cls._FILE_MAGIC))
            if magic != cls._FILE_MAGIC:
                raise IndexStateError(
                    f"{path!s} is not a saved HA-Index (bad magic)"
                )
            version = stream.read(1)
            if not version or version[0] != cls._FILE_VERSION:
                raise IndexStateError(
                    f"unsupported HA-Index file version in {path!s}"
                )
            try:
                index = pickle.load(stream)
            except Exception as error:
                raise IndexStateError(
                    f"truncated or corrupt HA-Index file {path!s}: {error}"
                ) from error
        if not isinstance(index, cls):
            raise IndexStateError(
                f"{path!s} does not contain a {cls.__name__}"
            )
        return index

    def __getstate__(self) -> dict:
        """Compact pickling: flat node arrays instead of an object graph.

        The broadcast cost of the global index (Section 5.4) is measured
        from its pickled size, so the wire format stores each node as
        ``(bits, mask, child slots, ids, frequency)`` — a few small ints
        per internal node, matching the paper's observation that "the
        internal nodes of the HA-Index ... introduce low overhead to
        broadcast an HA-Index to each server".
        """
        order: list[_DhaNode] = []
        slot_of: dict[int, int] = {}
        stack = list(self._top)
        while stack:
            node = stack.pop()
            if id(node) in slot_of:
                continue
            slot_of[id(node)] = len(order)
            order.append(node)
            stack.extend(node.children)
        encoded = [
            (
                node.pattern.bits,
                node.pattern.mask,
                [slot_of[id(child)] for child in node.children],
                node.ids,
                node.frequency,
            )
            for node in order
        ]
        return {
            "code_length": self._code_length,
            "window": self._window,
            "max_depth": self._max_depth,
            "rebuild_buffer": self._rebuild_buffer,
            "keep_ids": self._keep_ids,
            "gray_order": self._gray_order,
            "frozen": self._frozen,
            "size": self._size,
            "buffer": self._buffer,
            "top": [slot_of[id(node)] for node in self._top],
            "nodes": encoded,
        }

    def __setstate__(self, state: dict) -> None:
        self._code_length = state["code_length"]
        self._mutations = 0
        self.last_search_ops = 0
        self._compiled = None
        self._compiled_mutations = -1
        self._compiled_tree_version = -1
        self._tree_version = 0
        self._window = state["window"]
        self._max_depth = state["max_depth"]
        self._rebuild_buffer = state["rebuild_buffer"]
        self._keep_ids = state["keep_ids"]
        self._gray_order = state.get("gray_order", True)
        self._frozen = state["frozen"]
        self._size = state["size"]
        self._buffer = list(state["buffer"])
        nodes = [
            _DhaNode(MaskedPattern(bits, mask, self._code_length))
            for bits, mask, _, _, _ in state["nodes"]
        ]
        self._leaf_by_code = {}
        for node, (_, _, child_slots, ids, frequency) in zip(
            nodes, state["nodes"]
        ):
            node.ids = list(ids)
            node.frequency = frequency
            node.children = [nodes[slot] for slot in child_slots]
            for child in node.children:
                child.parent = node
            if not node.children and node.pattern.is_complete:
                code = node.pattern.bits
                known = self._leaf_by_code.get(code)
                # Prefer the leaf carrying ids (merged indexes may hold an
                # emptied duplicate for the same code).
                if known is None or (not known.ids and node.ids):
                    self._leaf_by_code[code] = node
        self._top = [nodes[slot] for slot in state["top"]]

    # -- accounting ------------------------------------------------------------

    def stats(self, include_leaves: bool = True) -> IndexStats:
        """Structural size; ``include_leaves=False`` counts internal
        pattern nodes only (the paper's internal-only memory figure and
        the Option B broadcast payload)."""
        nodes = 0
        edges = 0
        entries = 0
        code_bits = 0
        stack = list(self._top)
        visited: set[int] = set()
        while stack:
            node = stack.pop()
            if id(node) in visited:
                continue
            visited.add(id(node))
            if node.is_leaf and not include_leaves:
                continue
            nodes += 1
            if node.is_leaf:
                entries += len(node.ids)
                code_bits += self._code_length
            else:
                edges += len(node.children)
                code_bits += node.pattern.effective_bits
                stack.extend(node.children)
        entries += len(self._buffer) if include_leaves else 0
        code_bits += (
            len(self._buffer) * self._code_length if include_leaves else 0
        )
        return IndexStats(nodes, edges, entries, code_bits)

    # -- introspection helpers (tests, benches) ---------------------------------

    def level_sizes(self) -> list[int]:
        """Node counts per depth (0 = top), for structural assertions."""
        sizes: list[int] = []
        frontier = list(self._top)
        visited: set[int] = set()
        while frontier:
            fresh = [n for n in frontier if id(n) not in visited]
            visited.update(id(n) for n in fresh)
            if not fresh:
                break
            sizes.append(len(fresh))
            frontier = [
                child for node in fresh for child in node.children
            ]
        return sizes

    def check_invariants(self) -> None:
        """Validate structural invariants; raises on violation.

        * every parent pattern generalizes each child's pattern,
        * every node's frequency equals the tuples beneath it,
        * every leaf pattern is a complete code registered in the
          code hash table.
        """
        stack = list(self._top)
        visited: set[int] = set()
        while stack:
            node = stack.pop()
            if id(node) in visited:
                continue
            visited.add(id(node))
            if node.is_leaf:
                if not node.pattern.is_complete:
                    raise IndexStateError("leaf with incomplete pattern")
                registered = self._leaf_by_code.get(node.pattern.bits)
                if registered is not node:
                    raise IndexStateError("leaf not registered by code")
                if self._keep_ids and node.frequency != len(node.ids):
                    raise IndexStateError("leaf frequency != id count")
                continue
            total = 0
            for child in node.children:
                if not node.pattern.generalizes(child.pattern):
                    raise IndexStateError(
                        "parent pattern does not generalize child"
                    )
                if child.parent is not node:
                    raise IndexStateError("broken parent pointer")
                total += child.frequency
                stack.append(child)
            if total != node.frequency:
                raise IndexStateError("internal frequency mismatch")
