"""Weighted Hamming distance as a first-class query plane.

The paper's H-Search answers unweighted Hamming select/kNN, but ranking
systems built on learned codes weight bits by discriminative power
(Weng et al., "Fast Search on Binary Codes by Weighted Hamming
Distance"; PAPERS.md #5): the distance between codes ``x`` and ``q``
becomes ``sum(w[i] for i where x[i] != q[i])`` for a per-bit weight
vector ``w``.  This module adds that modality on top of the existing
engines without disturbing them:

* :class:`Weights` — a validated, quantized per-bit weight vector.
  Weights are quantized to multiples of ``1 / 2**16`` and summed in
  scaled ``int64`` arithmetic, so every weighted distance is *exact*
  and order-independent — the index planes, the brute-force oracle,
  and the differential tests agree byte for byte with no float
  epsilon anywhere.
* :class:`WeightedHammingIndex` — wraps any engine that compiles to
  the flat HA-Index kernel and answers weighted select/kNN two ways:

  - ``rerank``: sweep the *unweighted* kernel at the radius implied by
    the weight floor (``wdist <= t`` forces ``hamming <= t / min(w)``),
    then re-score the candidate leaves exactly;
  - ``native``: a weighted frontier sweep over the flat arrays with a
    per-mask lower bound — a node's partial weighted distance on its
    covered bits is the *cheapest completion* of that mask, so the
    frontier prunes exactly when it already exceeds the threshold,
    and collects whole subtrees when even the costliest completion
    (partial + uncovered weight) stays inside it.

* :func:`weighted_select` / :func:`weighted_knn` — front-ends mirroring
  :func:`~repro.core.select.hamming_select` and
  :func:`~repro.core.knn.knn_select`; a plain :class:`CodeSet` target
  runs the vectorized scan, an index target runs the wrapped plane.

Uniform weights of 1.0 degenerate to the unweighted engines exactly:
the scaled distance of every pair is ``hamming * 2**16`` and integer
thresholds scale the same way, so result sets, orderings, and tie
breaks are identical.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.bitvector import CodeSet
from repro.core.errors import InvalidParameterError
from repro.core.flat_ha import MODE_POSITIONS, FlatHAIndex, _expand_ranges
from repro.core.index_base import HammingIndex, IndexStats
from repro.obs import maybe_trace, note_search
from repro.obs.trace import record_span, trace_span

#: Fixed-point scale: weights quantize to multiples of ``1 / SCALE``.
#: 16 fractional bits keep 64-bit sums exact for any realistic corpus
#: (``SCALE * max_weight * code_length`` per distance, far below 2**63)
#: while representing learned weights to ~1.5e-5.
SCALE = 1 << 16

#: First threshold of the expanding weighted kNN loop, in *unweighted*
#: units (scaled by the mean weight); mirrors
#: :data:`repro.core.knn.DEFAULT_INITIAL_THRESHOLD`.
_KNN_INITIAL = 2

_STRATEGIES = ("auto", "native", "rerank")


def _scale_threshold(threshold: float) -> int:
    """Quantize a weighted threshold onto the fixed-point grid."""
    if threshold < 0:
        raise InvalidParameterError("threshold must be non-negative")
    return int(round(float(threshold) * SCALE))


class Weights:
    """A per-bit weight vector, validated and fixed-point quantized.

    ``values[i]`` weighs bit position ``i`` in the paper's convention
    (bit 0 = most significant bit of the code string).  Values must be
    finite and non-negative; they are quantized to multiples of
    ``1 / 2**16`` at construction, so all downstream arithmetic runs in
    exact scaled ``int64``.

    >>> w = Weights([1.0, 0.5, 2.0])
    >>> w.length
    3
    >>> w.distance(0b101, 0b001)
    1.0
    """

    __slots__ = ("_scaled", "_lanes")

    def __init__(self, values: Sequence[float]) -> None:
        array = np.asarray(values, dtype=np.float64)
        if array.ndim != 1 or array.size < 1:
            raise InvalidParameterError(
                "weights must be a non-empty 1-D sequence"
            )
        if not np.isfinite(array).all():
            raise InvalidParameterError("weights must be finite")
        if (array < 0).any():
            raise InvalidParameterError("weights must be non-negative")
        scaled = np.rint(array * SCALE).astype(np.int64)
        scaled.setflags(write=False)
        self._scaled = scaled
        self._lanes: np.ndarray | None = None

    @property
    def length(self) -> int:
        """Number of bit positions (the code length this vector fits)."""
        return int(self._scaled.size)

    @property
    def values(self) -> np.ndarray:
        """The quantized weights as floats (read-only, exact)."""
        values = self._scaled / SCALE
        values.setflags(write=False)
        return values

    @property
    def scaled(self) -> np.ndarray:
        """The ``int64`` fixed-point weights (read-only)."""
        return self._scaled

    @property
    def min_scaled(self) -> int:
        return int(self._scaled.min())

    @property
    def total_scaled(self) -> int:
        """Scaled weighted distance of a code from its complement."""
        return int(self._scaled.sum())

    @property
    def is_uniform_unit(self) -> bool:
        """True when every weight quantized to exactly 1.0."""
        return bool((self._scaled == SCALE).all())

    @classmethod
    def uniform(cls, length: int) -> "Weights":
        """Weight 1.0 on every bit — the unweighted degeneration."""
        return cls(np.ones(length))

    def lane_weights(self, words: int) -> np.ndarray:
        """Scaled weights laid out per packed-integer bit lane.

        Lane ``p`` of a ``words``-word little-endian unpacking holds
        integer bit ``p`` (bit 0 = least significant), which is string
        position ``length - 1 - p``; lanes past the code length weigh 0.
        """
        if self._lanes is None or self._lanes.size != words * 64:
            lanes = np.zeros(words * 64, dtype=np.int64)
            length = self.length
            positions = np.arange(length)
            lanes[positions] = self._scaled[length - 1 - positions]
            lanes.setflags(write=False)
            self._lanes = lanes
        return self._lanes

    def distance_scaled(self, code_a: int, code_b: int) -> int:
        """Exact scaled weighted distance between two codes."""
        xor = code_a ^ code_b
        length = self.length
        scaled = self._scaled
        total = 0
        while xor:
            low = xor & -xor
            position = length - low.bit_length()
            total += int(scaled[position])
            xor ^= low
        return total

    def distance(self, code_a: int, code_b: int) -> float:
        """Exact weighted distance between two codes (float view)."""
        return self.distance_scaled(code_a, code_b) / SCALE

    def implied_radius(self, threshold: float, code_length: int) -> int:
        """Largest unweighted radius a weighted threshold can reach.

        Any code within weighted distance ``threshold`` mismatches the
        query on at most ``floor(threshold / min(w))`` bits, so an
        unweighted sweep at that radius is a complete candidate pass.
        A zero weight floor makes the radius unbounded (a mismatch may
        cost nothing), which degrades to the full code length.
        """
        t_scaled = _scale_threshold(threshold)
        floor = self.min_scaled
        if floor <= 0:
            return code_length
        return min(code_length, t_scaled // floor)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Weights):
            return NotImplemented
        return bool(np.array_equal(self._scaled, other._scaled))

    def __hash__(self) -> int:
        return hash(self._scaled.tobytes())

    def __repr__(self) -> str:
        return (
            f"Weights(length={self.length}, "
            f"min={self.min_scaled / SCALE:g}, "
            f"total={self.total_scaled / SCALE:g})"
        )

    def __reduce__(self):
        return (type(self), (self.values.tolist(),))


def as_weights(
    weights: "Weights | Sequence[float] | None", length: int
) -> Weights:
    """Coerce ``weights`` to a validated :class:`Weights` of ``length``.

    ``None`` means uniform 1.0 weights (the exact unweighted plane).
    """
    if weights is None:
        return Weights.uniform(length)
    if not isinstance(weights, Weights):
        weights = Weights(weights)
    if weights.length != length:
        raise InvalidParameterError(
            f"{weights.length} weights supplied for {length}-bit codes"
        )
    return weights


def uniform_weights(length: int) -> Weights:
    """Weight 1.0 per bit; degenerates exactly to unweighted search."""
    return Weights.uniform(length)


def learned_weights(codes: CodeSet) -> Weights:
    """Balance-derived weights: discriminative bits weigh more.

    A bit that splits the corpus evenly carries the most information;
    a constant bit carries none.  Each position gets ``4 p (1 - p)``
    (``p`` = fraction of ones), the weights are normalized to mean 1.0
    so integer thresholds keep their unweighted intuition, and every
    weight is floored at ``1 / 2**16`` so the implied rerank radius
    stays bounded.  Deterministic given the codes.
    """
    if not len(codes):
        return Weights.uniform(codes.length)
    ones = _bit_lane_matrix(codes.packed_wide()).sum(axis=0)
    length = codes.length
    positions = np.arange(length)
    p = ones[length - 1 - positions] / len(codes)
    raw = 4.0 * p * (1.0 - p)
    mean = raw.mean()
    values = raw / mean if mean > 0 else np.ones(length)
    return Weights(np.maximum(values, 1.0 / SCALE))


def random_weights(length: int, seed: int = 0) -> Weights:
    """Seeded mean-1.0 weights in [0.5, 1.5); for tests and benches."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.5, 1.5, size=length)
    return Weights(values * (length / values.sum()))


def weighted_hamming(
    code_a: int, code_b: int, weights: "Weights | Sequence[float]"
) -> float:
    """Exact weighted Hamming distance between two codes.

    >>> weighted_hamming(0b1010, 0b0010, [4.0, 3.0, 2.0, 1.0])
    4.0
    """
    if not isinstance(weights, Weights):
        weights = Weights(weights)
    return weights.distance(code_a, code_b)


# -- vectorized scaled kernels ------------------------------------------


def _bit_lane_matrix(matrix: np.ndarray) -> np.ndarray:
    """Unpack an ``(n, words)`` uint64 matrix to per-bit uint8 lanes.

    Lane ``p`` of row ``i`` is integer bit ``p`` of code ``i`` — the
    layout :meth:`Weights.lane_weights` is built for.  The explicit
    little-endian cast keeps the byte view platform-independent.
    """
    rows = matrix.shape[0]
    le_bytes = np.ascontiguousarray(matrix).astype("<u8").view(np.uint8)
    return np.unpackbits(
        le_bytes.reshape(rows, -1), axis=1, bitorder="little"
    )


def weighted_popcount(matrix: np.ndarray, lanes: np.ndarray) -> np.ndarray:
    """Scaled weighted popcount of each row of a packed uint64 matrix.

    The weighted analogue of :func:`~repro.core.bitvector.popcount64`:
    XOR the codes with the query first, then feed the result here with
    the weight lanes to get each row's exact scaled weighted distance.
    """
    if matrix.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    return _bit_lane_matrix(matrix) @ lanes


def _scan_pairs_scaled(
    codes: CodeSet, query: int, weights: Weights
) -> tuple[np.ndarray, np.ndarray]:
    """(ids, scaled distances) of every code, by vectorized scan."""
    lanes = weights.lane_weights(codes.packed_wide().shape[1] or 1)
    packed = codes.packed_wide()
    words = packed.shape[1]
    qwords = np.asarray(
        [(query >> (word * 64)) & ((1 << 64) - 1) for word in range(words)],
        dtype=np.uint64,
    )
    scaled = weighted_popcount(packed ^ qwords, lanes)
    return np.asarray(codes.ids, dtype=np.int64), scaled


# -- the wrapped index plane --------------------------------------------


class WeightedHammingIndex(HammingIndex):
    """Weighted select/kNN over an engine's flat HA-Index kernel.

    Wraps an inner :class:`~repro.core.index_base.HammingIndex` that
    either *is* a :class:`~repro.core.flat_ha.FlatHAIndex` or compiles
    to one (``dha``/``flat``/``native``); mutations delegate to the
    inner index, so a ``dha`` inner stays fully maintainable.

    ``strategy`` picks the traversal: ``"native"`` (default for
    ``"auto"``) runs the weighted frontier sweep; ``"rerank"`` sweeps
    unweighted at the implied radius and re-scores.  Both are exact
    and return byte-identical results; see ``docs/weighted.md`` for
    the selection guide.
    """

    ENGINE_LABEL = "weighted"

    def __init__(
        self,
        inner: HammingIndex,
        weights: "Weights | Sequence[float] | None" = None,
        strategy: str = "auto",
    ) -> None:
        if isinstance(inner, WeightedHammingIndex):
            raise InvalidParameterError(
                "cannot wrap a WeightedHammingIndex in another"
            )
        if strategy not in _STRATEGIES:
            raise InvalidParameterError(
                f"unknown strategy {strategy!r}; expected one of "
                f"{_STRATEGIES}"
            )
        if not isinstance(inner, FlatHAIndex) and not hasattr(
            inner, "compile"
        ):
            raise InvalidParameterError(
                f"{type(inner).__name__} neither is nor compiles to a "
                "flat HA-Index kernel; build the weighted plane over "
                "dha, flat, or native"
            )
        super().__init__(inner.code_length)
        self._inner = inner
        self._weights = as_weights(weights, inner.code_length)
        self._strategy = strategy
        self._size = len(inner)
        # Per-kernel weighted uncovered-bit sums, keyed by identity of
        # the kernel's shared mask array (rebuffered clones share it).
        self._node_cache: tuple[object, np.ndarray] | None = None

    @classmethod
    def build(cls, codes: CodeSet, **params) -> "WeightedHammingIndex":
        """Build over ``codes`` through an inner engine.

        ``weights`` defaults to the set's own
        :attr:`~repro.core.bitvector.CodeSet.weights` (uniform when
        absent); ``engine`` names the inner builder (default ``dha``);
        remaining params go to that builder.
        """
        weights = params.pop("weights", None)
        strategy = params.pop("strategy", "auto")
        engine = params.pop("engine", "dha")
        if weights is None:
            weights = codes.weights
        from repro.core.engines import get_engine

        spec = get_engine(engine)
        if spec.name == "weighted":
            raise InvalidParameterError(
                "the weighted engine cannot nest inside itself"
            )
        return cls(
            spec.builder(codes, **params), weights, strategy=strategy
        )

    # -- introspection ---------------------------------------------------

    @property
    def weights(self) -> Weights:
        return self._weights

    @property
    def strategy(self) -> str:
        return self._strategy

    @property
    def inner(self) -> HammingIndex:
        return self._inner

    @property
    def max_distance(self) -> float:
        """Largest reachable weighted distance (all bits mismatched)."""
        return self._weights.total_scaled / SCALE

    @property
    def knn_threshold_cap(self) -> int:
        """Integer threshold that provably covers the whole code space.

        The sharded kNN loop expands its threshold up to this cap
        instead of the code length, since weighted distances may
        exceed it when weights above 1.0 exist.
        """
        return max(
            1, -(-self._weights.total_scaled // SCALE)
        )

    def implied_radius(self, threshold: float) -> int:
        """Unweighted radius covering every weighted match; see
        :meth:`Weights.implied_radius`.  The scatter-gather planner
        prunes shards with this bound."""
        return self._weights.implied_radius(threshold, self._code_length)

    def stats(self) -> IndexStats:
        return self._inner.stats()

    @property
    def mutation_count(self) -> int:
        return self._inner.mutation_count

    def compile(self) -> "WeightedHammingIndex":
        """Warm the inner flat kernel; returns ``self`` (duck-typed
        like the engines the service layer eagerly compiles)."""
        self._flat()
        return self

    # -- maintenance -----------------------------------------------------

    def insert(self, code: int, tuple_id: int) -> None:
        self._inner.insert(code, tuple_id)
        self._size = len(self._inner)

    def delete(self, code: int, tuple_id: int) -> None:
        self._inner.delete(code, tuple_id)
        self._size = len(self._inner)

    # -- kernels ---------------------------------------------------------

    def _flat(self) -> FlatHAIndex:
        inner = self._inner
        if isinstance(inner, FlatHAIndex):
            return inner
        return inner.compile()

    def _resolved_strategy(self) -> str:
        return "native" if self._strategy == "auto" else self._strategy

    def _lanes(self, flat: FlatHAIndex) -> np.ndarray:
        return self._weights.lane_weights(flat._bits.shape[1] or 1)

    def _uncovered_weight(self, flat: FlatHAIndex) -> np.ndarray:
        """Scaled weight of every node's uncovered bits (cached)."""
        cached = self._node_cache
        if cached is not None and cached[0] is flat._masks:
            return cached[1]
        unc = self._weights.total_scaled - weighted_popcount(
            flat._masks, self._lanes(flat)
        )
        self._node_cache = (flat._masks, unc)
        return unc

    def _weighted_sweep(
        self, flat: FlatHAIndex, qwords: np.ndarray, t_scaled: int
    ) -> tuple[np.ndarray, int]:
        """Weighted frontier sweep; returns matched node slots + ops.

        Per level: the frontier's partial weighted distances (weighted
        popcount of ``(bits ^ q) & mask``) are each node's *cheapest
        completion* — a lower bound over its whole subtree.  Nodes
        whose costliest completion (partial + uncovered weight) fits
        the threshold are collected wholesale; nodes whose lower bound
        already exceeds it are pruned; the rest expand.
        """
        lanes = self._lanes(flat)
        unc_w = self._uncovered_weight(flat)
        taken_parts: list[np.ndarray] = []
        ops = 0
        frontier = flat._top_slots
        simple = flat._cover_is_collect
        leaf_start = flat._leaf_level_start
        while frontier.size:
            ops += int(frontier.size)
            if frontier[0] >= leaf_start:
                # Terminal all-leaf level: fully covered patterns, so
                # the weighted distances are exact and nothing expands.
                xor = flat._bits[frontier] ^ qwords
                taken = frontier[weighted_popcount(xor, lanes) <= t_scaled]
                if taken.size:
                    taken_parts.append(taken)
                break
            xor = flat._bits[frontier] ^ qwords
            partial = weighted_popcount(xor & flat._masks[frontier], lanes)
            cover = partial + unc_w[frontier] <= t_scaled
            if not simple:
                cover |= (partial <= t_scaled) & flat._is_leaf[frontier]
            taken = frontier[cover]
            if taken.size:
                taken_parts.append(taken)
            expand = frontier[(partial <= t_scaled) & ~cover]
            if not expand.size:
                break
            frontier = _expand_ranges(
                flat._child_first.take(expand, mode="clip"),
                flat._child_count.take(expand, mode="clip"),
            )
        if taken_parts:
            return np.concatenate(taken_parts), ops
        return np.empty(0, dtype=np.int64), ops

    def _candidate_positions(
        self, flat: FlatHAIndex, query: int, qwords: np.ndarray,
        t_scaled: int,
    ) -> tuple[np.ndarray, int, str]:
        """Leaf positions whose codes may match, + sweep ops + strategy."""
        strategy = self._resolved_strategy()
        if strategy == "native":
            taken, ops = self._weighted_sweep(flat, qwords, t_scaled)
            record_span(
                "weighted.sweep", 0.0, ops=ops, strategy=strategy
            )
            lo = flat._leaf_lo[taken]
            return _expand_ranges(lo, flat._leaf_hi[taken] - lo), ops, strategy
        radius = self._weights.implied_radius(
            t_scaled / SCALE, self._code_length
        )
        # The flat sweep emits its own per-level spans when traced;
        # nest them (ops=0 here) so weighted.* totals stay exact.
        with trace_span("weighted.sweep", strategy=strategy):
            positions, _, ops = flat._sweep_batch(
                [query], radius, MODE_POSITIONS
            )
        return positions, ops, strategy

    def _search_scaled(
        self, query: int, t_scaled: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(ids, scaled distances) of all matches; updates accounting.

        One shared body under every public query: sweep, re-score the
        candidate leaves exactly in scaled arithmetic, scan the insert
        buffer, and emit ``weighted.*`` spans whose op counts sum to
        :attr:`last_search_ops`.
        """
        flat = self._flat()
        lanes = self._lanes(flat)
        qwords = flat._pack([query])
        positions, sweep_ops, strategy = self._candidate_positions(
            flat, query, qwords, t_scaled
        )
        id_parts: list[np.ndarray] = []
        dist_parts: list[np.ndarray] = []
        rescored = int(positions.size)
        if positions.size:
            scaled = weighted_popcount(
                flat._leaf_words[positions] ^ qwords, lanes
            )
            keep = scaled <= t_scaled
            positions = positions[keep]
            scaled = scaled[keep]
            counts = (
                flat._id_offsets[positions + 1]
                - flat._id_offsets[positions]
            )
            id_parts.append(
                flat._ids_flat[
                    _expand_ranges(flat._id_offsets[positions], counts)
                ]
            )
            dist_parts.append(np.repeat(scaled, counts))
        record_span("weighted.rescore", 0.0, ops=rescored)
        buffered = len(flat._buf_codes)
        if buffered:
            scaled = weighted_popcount(flat._buf_words ^ qwords, lanes)
            near = scaled <= t_scaled
            id_parts.append(flat._buf_ids[near])
            dist_parts.append(scaled[near])
        record_span("weighted.buffer", 0.0, ops=buffered)
        self.last_search_ops = sweep_ops + rescored + buffered
        note_search(self.ENGINE_LABEL, self.last_search_ops)
        if id_parts:
            return (
                np.concatenate(id_parts),
                np.concatenate(dist_parts),
            )
        empty = np.empty(0, dtype=np.int64)
        return empty, empty

    # -- queries ---------------------------------------------------------

    def search(self, query: int, threshold: float) -> list[int]:
        """Tuple ids within *weighted* distance ``threshold``."""
        self._check_query(query, threshold)
        t_scaled = _scale_threshold(threshold)
        with trace_span(
            "weighted.search",
            engine=self.ENGINE_LABEL,
            strategy=self._resolved_strategy(),
            threshold=threshold,
        ):
            ids, _ = self._search_scaled(query, t_scaled)
        return ids.tolist()

    def search_batch(
        self, queries: Sequence[int], threshold: float
    ) -> list[list[int]]:
        """One id list per query; ops accumulate over the batch."""
        results = []
        total_ops = 0
        for query in queries:
            results.append(self.search(query, threshold))
            total_ops += self.last_search_ops
        self.last_search_ops = total_ops
        return results

    def search_with_distances(
        self, query: int, threshold: float
    ) -> list[tuple[int, float]]:
        """(tuple id, exact weighted distance) pairs within threshold."""
        self._check_query(query, threshold)
        t_scaled = _scale_threshold(threshold)
        with trace_span(
            "weighted.search",
            engine=self.ENGINE_LABEL,
            strategy=self._resolved_strategy(),
            threshold=threshold,
        ):
            ids, scaled = self._search_scaled(query, t_scaled)
        return list(zip(ids.tolist(), (scaled / SCALE).tolist()))

    def contains_within(self, query: int, threshold: float) -> bool:
        """True iff any stored code lies within weighted ``threshold``."""
        self._check_query(query, threshold)
        t_scaled = _scale_threshold(threshold)
        ids, _ = self._search_scaled(query, t_scaled)
        return bool(ids.size)

    def knn_search(self, query: int, k: int) -> list[tuple[int, float]]:
        """The ``k`` weighted-nearest tuples as (id, distance) pairs.

        Exact for both strategies.  ``native`` expands a weighted
        threshold until ``k`` matches exist (every round is an exact
        weighted select, so the k smallest of the final round are the
        k smallest overall).  ``rerank`` expands the *unweighted*
        radius; a candidate set is complete once ``k`` candidates sit
        strictly below ``min(w) * (radius + 1)`` — the cheapest
        weighted distance any still-unseen code could have — with ties
        at the boundary forcing another round so (distance, id) order
        never depends on sweep order.
        """
        if k < 1:
            raise InvalidParameterError("k must be positive")
        self._check_query(query, 0)
        with trace_span(
            "weighted.knn",
            engine=self.ENGINE_LABEL,
            strategy=self._resolved_strategy(),
            k=k,
        ):
            if self._resolved_strategy() == "rerank":
                pairs = self._knn_rerank(query, k)
            else:
                pairs = self._knn_native(query, k)
        return pairs

    def _knn_native(self, query: int, k: int) -> list[tuple[int, float]]:
        target = min(k, len(self._inner))
        total = self._weights.total_scaled
        mean = max(1, total // max(1, self._code_length))
        step = max(2, self._code_length // 8) * mean
        t_scaled = min(_KNN_INITIAL * mean, total)
        while True:
            ids, scaled = self._search_scaled(query, t_scaled)
            if ids.size >= target or t_scaled >= total:
                return self._rank(ids, scaled, k)
            t_scaled = min(t_scaled + step, total)

    def _knn_rerank(self, query: int, k: int) -> list[tuple[int, float]]:
        target = min(k, len(self._inner))
        flat = self._flat()
        lanes = self._lanes(flat)
        qwords = flat._pack([query])
        floor = self._weights.min_scaled
        length = self._code_length
        radius = min(_KNN_INITIAL, length)
        step = max(2, length // 8)
        while True:
            # Nest the flat sweep's own per-level spans (ops=0 here) so
            # the weighted.* span totals still sum to last_search_ops.
            with trace_span("weighted.sweep", strategy="rerank"):
                positions, _, sweep_ops = flat._sweep_batch(
                    [query], radius, MODE_POSITIONS
                )
            id_parts: list[np.ndarray] = []
            dist_parts: list[np.ndarray] = []
            if positions.size:
                scaled = weighted_popcount(
                    flat._leaf_words[positions] ^ qwords, lanes
                )
                counts = (
                    flat._id_offsets[positions + 1]
                    - flat._id_offsets[positions]
                )
                id_parts.append(
                    flat._ids_flat[
                        _expand_ranges(
                            flat._id_offsets[positions], counts
                        )
                    ]
                )
                dist_parts.append(np.repeat(scaled, counts))
            record_span(
                "weighted.rescore", 0.0, ops=int(positions.size)
            )
            buffered = len(flat._buf_codes)
            if buffered:
                buf_scaled = weighted_popcount(
                    flat._buf_words ^ qwords, lanes
                )
                buf_hamming = flat._buffer_distances(qwords)[:, 0]
                near = buf_hamming <= radius
                id_parts.append(flat._buf_ids[near])
                dist_parts.append(buf_scaled[near])
            record_span("weighted.buffer", 0.0, ops=buffered)
            self.last_search_ops = (
                sweep_ops + int(positions.size) + buffered
            )
            note_search(self.ENGINE_LABEL, self.last_search_ops)
            if id_parts:
                ids = np.concatenate(id_parts)
                scaled = np.concatenate(dist_parts)
            else:
                ids = np.empty(0, dtype=np.int64)
                scaled = ids
            # Unseen codes lie beyond the unweighted radius, so their
            # weighted distance is at least floor * (radius + 1); the
            # strict comparison forces one more round on boundary ties.
            bound = floor * (radius + 1)
            settled = int((scaled < bound).sum()) if floor > 0 else 0
            if radius >= length or settled >= target:
                return self._rank(ids, scaled, k)
            radius = min(radius + step, length)

    @staticmethod
    def _rank(
        ids: np.ndarray, scaled: np.ndarray, k: int
    ) -> list[tuple[int, float]]:
        """The k smallest (distance, id) pairs, scaled ties exact."""
        pairs = sorted(zip(scaled.tolist(), ids.tolist()))[:k]
        return [(tuple_id, d / SCALE) for d, tuple_id in pairs]

    # -- copying ---------------------------------------------------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # The node cache keys on array identity, which does not
        # survive a process boundary; rebuilt on first weighted sweep.
        state["_node_cache"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


# -- front-ends ---------------------------------------------------------


def _as_weighted_index(
    target: HammingIndex,
    weights: "Weights | Sequence[float] | None",
    strategy: str,
) -> WeightedHammingIndex:
    if isinstance(target, WeightedHammingIndex):
        if weights is not None and as_weights(
            weights, target.code_length
        ) != target.weights:
            raise InvalidParameterError(
                "weights= conflicts with the index's own weight vector"
            )
        return target
    return WeightedHammingIndex(target, weights, strategy=strategy)


def weighted_select(
    query: int,
    target: "HammingIndex | CodeSet",
    threshold: float,
    weights: "Weights | Sequence[float] | None" = None,
    *,
    strategy: str = "auto",
    profile: bool = False,
) -> list[int]:
    """Tuple ids of ``target`` within *weighted* distance ``threshold``.

    The weighted analogue of
    :func:`~repro.core.select.hamming_select`: a :class:`CodeSet`
    target runs one vectorized scaled scan (also the test oracle's
    shape), an index target runs the wrapped weighted plane with the
    chosen ``strategy``.  ``weights=None`` takes the target's own
    vector (a weighted ``CodeSet`` or ``WeightedHammingIndex``),
    falling back to uniform 1.0 — the exact unweighted result.
    """
    with maybe_trace("weighted_select", profile, threshold=threshold):
        if isinstance(target, HammingIndex):
            index = _as_weighted_index(target, weights, strategy)
            return index.search(query, threshold)
        resolved = as_weights(
            weights if weights is not None else target.weights,
            target.length,
        )
        t_scaled = _scale_threshold(threshold)
        ids, scaled = _scan_pairs_scaled(target, query, resolved)
        return ids[scaled <= t_scaled].tolist()


def weighted_knn(
    query: int,
    target: "HammingIndex | CodeSet",
    k: int,
    weights: "Weights | Sequence[float] | None" = None,
    *,
    strategy: str = "auto",
    profile: bool = False,
) -> list[tuple[int, float]]:
    """The ``k`` weighted-nearest tuples as (id, distance) pairs.

    Sorted by (weighted distance, tuple id); exact for every strategy.
    A :class:`CodeSet` target ranks by full scan — the ground truth
    the index strategies must reproduce byte for byte.
    """
    if k < 1:
        raise InvalidParameterError("k must be positive")
    with maybe_trace("weighted_knn", profile, k=k):
        if isinstance(target, HammingIndex):
            index = _as_weighted_index(target, weights, strategy)
            return index.knn_search(query, k)
        resolved = as_weights(
            weights if weights is not None else target.weights,
            target.length,
        )
        ids, scaled = _scan_pairs_scaled(target, query, resolved)
        return WeightedHammingIndex._rank(ids, scaled, k)
