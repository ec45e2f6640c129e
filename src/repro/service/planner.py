"""Scatter-gather planning: Gray-range pruning for sharded serving.

The distributed pipelines (Section 5.1) split a dataset across workers
by *Gray-rank ranges*: sampled equi-depth pivots become the boundaries
of a :class:`~repro.mapreduce.partitioner.RangePartitioner`, and a
tuple with code ``U`` lands on the shard whose range contains
``gray_rank(U)``.  The sharded serving plane reuses exactly that
partitioning — which means a query need not be broadcast: a shard whose
Gray range provably cannot intersect the query's Hamming-``h`` ball can
be skipped entirely.

The pruning bound
-----------------
A shard holds the codes ``{c : lo <= gray_rank(c) <= hi}`` for some
rank interval ``[lo, hi]``.  The shard can contain an answer to
``h-select(q, h)`` only if

    min over s in [lo, hi] of hamming(to_gray(s), q) <= h.

That minimum is computed *exactly* by :func:`min_hamming_to_gray_range`.
Writing ``s_i`` for bit ``i`` of the rank ``s``, the Gray encoding
satisfies ``to_gray(s)_i = s_i XOR s_{i+1}`` — so a rank *prefix*
(top bits fixed, low bits free) fixes the Gray bits strictly above the
lowest fixed position, while the free suffix can always be completed
mismatch-free by choosing ``s_i = s_{i+1} XOR q_i`` downward.  The
rank interval ``[lo, hi]`` tiles into at most ``2 * code_length`` such
prefix subcubes — walk down ``lo`` (resp. ``hi``) from the bounds'
highest differing bit and, wherever its bit is 0 (resp. 1), flip that
bit and free everything below — so the interval minimum is the best of:
zero when ``gray_rank(q)`` itself lies in the interval, the two tight
endpoints ``hamming(to_gray(lo), q)`` / ``hamming(to_gray(hi), q)``,
and one popcount-arithmetic candidate per subcube.  ``O(code_length)``
total, with an O(1) shared-prefix lower bound that rejects most
prunable shards immediately; results are memoized per (query,
threshold) plan.

Soundness is by construction — the DP ranges over exactly the ranks in
``[lo, hi]`` and the true Hamming cost of each — and because the value
is the exact minimum, the pruning is also *maximally tight* for
interval-shaped shards (``tests/test_shard_planner.py`` cross-checks
both directions against brute force).

Occupied-range tightening
-------------------------
Pivot intervals tile the whole rank space ``[0, 2^L)``, including vast
regions holding no data.  The planner therefore intersects each shard's
pivot interval with its *occupied* range — the smallest/largest Gray
rank actually stored there.  Inserts widen the occupied range; deletes
leave it untouched (conservative, hence still sound); a bulk refresh
recomputes it exactly.  On clustered datasets this is what makes the
bound bite: shards owning other clusters sit far away in Gray-rank
space and are pruned for small ``h``.

When every (non-empty) shard passes the bound the plan degenerates to a
broadcast — the explicit fallback for vacuous bounds.  A one-shard map
(the single-index service) computes no bound at all: its one shard is
contacted by every query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.errors import InvalidParameterError
from repro.core.gray import gray_rank, gray_ranks, to_gray
from repro.mapreduce.partitioner import RangePartitioner


def min_hamming_to_gray_range(
    query: int,
    code_length: int,
    lo: int,
    hi: int,
    limit: int | None = None,
    *,
    _query_rank: int | None = None,
) -> int:
    """``min(hamming(to_gray(s), query))`` over ranks ``lo <= s <= hi``.

    Bounds are clamped to the rank space ``[0, 2^code_length - 1]``; an
    empty interval returns ``code_length + 1`` (greater than any
    feasible threshold, so an empty shard is always pruned).

    Without ``limit`` the returned value is the exact minimum.  With
    ``limit`` the function runs in decision mode: the returned value
    ``v`` only guarantees ``(v <= limit) == (true minimum <= limit)``,
    which is all a pruning decision at threshold ``limit`` needs — the
    shared-prefix lower bound then rejects most prunable shards in
    O(1), without walking the bounds at all.
    """
    top = (1 << code_length) - 1
    lo = max(lo, 0)
    hi = min(hi, top)
    if lo > hi:
        return code_length + 1
    # to_gray is a bijection, so hamming(to_gray(s), query) == 0 has the
    # unique witness s = gray_rank(query); member queries hit this.
    # _query_rank lets the planner amortize that inverse over shards.
    rank = gray_rank(query) if _query_rank is None else _query_rank
    if lo <= rank <= hi:
        return 0
    delta_lo = to_gray(lo) ^ query
    if lo == hi:
        return delta_lo.bit_count()
    # Highest rank bit where the bounds differ.  Every rank in [lo, hi]
    # shares the bound bits above it, hence (gray bit i = s_i XOR
    # s_{i+1}) also the Gray bits strictly above it — their mismatches
    # against the query are a lower bound on the whole interval.
    diverge = (lo ^ hi).bit_length() - 1
    shared = (delta_lo >> (diverge + 1)).bit_count()
    if limit is not None and shared > limit:
        return shared
    # [lo, hi] tiles into at most 2 * diverge subcubes: walk down lo
    # (resp. hi); at each position where its bit is 0 (resp. 1), flip
    # the bit and free everything below.  A free suffix can always be
    # chosen to match the query exactly (pick s_i = s_{i+1} XOR q_i
    # downward), so a subcube branching at `position` costs the tight
    # walk's Gray mismatches above `position` plus the complement of
    # its mismatch at `position`.  Running prefix popcounts of
    # delta_lo / delta_hi give every candidate in O(1) each.
    delta_hi = to_gray(hi) ^ query
    best = delta_lo.bit_count()
    tight_hi = delta_hi.bit_count()
    if tight_hi < best:
        best = tight_hi
    run_lo = (delta_lo >> diverge).bit_count()
    run_hi = (delta_hi >> diverge).bit_count()
    for position in range(diverge - 1, -1, -1):
        if not (lo >> position) & 1:
            candidate = run_lo + 1 - ((delta_lo >> position) & 1)
            if candidate < best:
                best = candidate
        if (hi >> position) & 1:
            candidate = run_hi + 1 - ((delta_hi >> position) & 1)
            if candidate < best:
                best = candidate
        if best == 0 or (limit is not None and best <= limit):
            return best
        run_lo += (delta_lo >> position) & 1
        run_hi += (delta_hi >> position) & 1
    return best


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """Outcome of planning one query against the shard map.

    Attributes:
        contacted: shard ids the query must visit, in ascending order.
        pruned: shards skipped by the Gray-range bound (empty shards
            count as pruned — there is nothing to visit).
        broadcast: True when the bound was vacuous for this query, i.e.
            every non-empty shard must be contacted.
    """

    contacted: tuple[int, ...]
    pruned: int
    broadcast: bool


#: The plan of every query on a one-shard map.
_ONE_SHARD = ShardPlan(contacted=(0,), pruned=0, broadcast=True)


class ScatterGatherPlanner:
    """Routes codes to shards and prunes shards per query.

    Args:
        pivots: interior Gray-rank boundaries (``num_shards - 1``
            non-decreasing values), exactly as produced by
            :func:`repro.distributed.pivots.select_pivots`.
        code_length: bit length of the served codes (rank space is
            ``[0, 2^code_length)``).

    The planner keeps, per shard, the intersection of the pivot
    interval with the occupied Gray-rank range; :meth:`observe` widens
    it on insert, :meth:`reset_range` recomputes it on refresh.
    Thread safety is the caller's concern — the serving layer only
    touches the planner under its shard mutex.
    """

    def __init__(self, pivots: Sequence[int], code_length: int) -> None:
        if code_length < 1:
            raise InvalidParameterError("code length must be positive")
        self._partitioner = RangePartitioner(pivots)
        self._code_length = code_length
        #: Half-open pivot intervals [lo, hi) per shard.
        self._intervals = self._partitioner.intervals(1 << code_length)
        #: Inclusive occupied (min_rank, max_rank) per shard; None = empty.
        self._occupied: list[tuple[int, int] | None] = [
            None for _ in self._intervals
        ]
        #: (query, threshold) -> ShardPlan memo; plans depend only on
        #: the occupied ranges, so any range change clears it.
        self._plan_memo: dict[tuple[int, int], ShardPlan] = {}

    @property
    def num_shards(self) -> int:
        return len(self._intervals)

    @property
    def code_length(self) -> int:
        return self._code_length

    @property
    def pivots(self) -> list[int]:
        return self._partitioner.pivots

    def interval(self, shard: int) -> tuple[int, int]:
        """The shard's half-open pivot interval ``[lo, hi)`` of ranks."""
        return self._intervals[shard]

    def occupied(self, shard: int) -> tuple[int, int] | None:
        """Inclusive occupied rank range, or ``None`` for an empty shard."""
        return self._occupied[shard]

    # -- routing (writes) --------------------------------------------------

    def route(self, code: int) -> int:
        """Owning shard of a code under Gray-rank range partitioning."""
        return self._partitioner(gray_rank(code), self.num_shards)

    def observe(self, shard: int, code: int) -> None:
        """Widen the shard's occupied range to cover ``code`` (insert)."""
        rank = gray_rank(code)
        occupied = self._occupied[shard]
        if occupied is None:
            self._occupied[shard] = (rank, rank)
            self._plan_memo.clear()
        else:
            low, high = occupied
            if rank < low or rank > high:
                self._occupied[shard] = (min(low, rank), max(high, rank))
                self._plan_memo.clear()

    def reset_range(self, shard: int, codes: Sequence[int]) -> None:
        """Recompute the occupied range exactly from the shard's codes
        (ranked in one vectorized pass)."""
        occupied = None
        if len(codes):
            ranks = gray_ranks(codes)
            occupied = (int(ranks.min()), int(ranks.max()))
        self._occupied[shard] = occupied
        self._plan_memo.clear()

    # -- pruning (reads) ---------------------------------------------------

    def plan(self, query: int, threshold: int) -> ShardPlan:
        """Shards that may hold codes within ``threshold`` of ``query``.

        A shard is contacted iff its Gray-range lower bound does not
        exceed the threshold; when no shard can be excluded the plan is
        flagged as a broadcast (the vacuous-bound fallback).  Plans are
        memoized until any occupied range changes (the serving layer
        re-plans every batch, so the memo is the hot path).  A single
        shard has nothing to prune: it is always contacted, with no
        bound computed.
        """
        if len(self._intervals) == 1:
            return _ONE_SHARD
        memo_key = (query, threshold)
        memoized = self._plan_memo.get(memo_key)
        if memoized is not None:
            return memoized
        contacted = []
        occupied_shards = 0
        rank = gray_rank(query)
        for shard, occupied in enumerate(self._occupied):
            if occupied is None:
                continue
            occupied_shards += 1
            low, high = occupied
            bound = min_hamming_to_gray_range(
                query, self._code_length, low, high, threshold,
                _query_rank=rank,
            )
            if bound <= threshold:
                contacted.append(shard)
        plan = ShardPlan(
            contacted=tuple(contacted),
            pruned=self.num_shards - len(contacted),
            broadcast=len(contacted) == occupied_shards,
        )
        if len(self._plan_memo) >= 65536:
            self._plan_memo.clear()
        self._plan_memo[memo_key] = plan
        return plan

    def broadcast(self) -> ShardPlan:
        """Contact every non-empty shard, unpruned (the ``pruning=False``
        ablation); a single shard is always contacted."""
        if len(self._intervals) == 1:
            return _ONE_SHARD
        contacted = tuple(
            shard
            for shard, occupied in enumerate(self._occupied)
            if occupied is not None
        )
        return ShardPlan(
            contacted=contacted,
            pruned=self.num_shards - len(contacted),
            broadcast=True,
        )

    def plan_batch(
        self, queries: Sequence[int], threshold: int
    ) -> tuple[list[ShardPlan], dict[int, list[int]]]:
        """Plan many queries at one threshold in one pass.

        Returns the per-query plans plus the scatter's transpose —
        ``{shard: [query positions]}`` with positions ascending — which
        is exactly the shape the batched scatter sites (``join``, the
        micro-batch ``select`` path) need to issue one ``search_batch``
        per shard.  Shares the per-query memo with :meth:`plan`.
        """
        if len(self._intervals) == 1:
            return [_ONE_SHARD] * len(queries), {0: list(range(len(queries)))}
        plans = [self.plan(query, threshold) for query in queries]
        return plans, shard_positions(plans)


def shard_positions(plans: Sequence[ShardPlan]) -> dict[int, list[int]]:
    """Transpose per-query plans into ``{shard: [query positions]}``,
    positions ascending."""
    by_shard: dict[int, list[int]] = {}
    for position, plan in enumerate(plans):
        for sid in plan.contacted:
            by_shard.setdefault(sid, []).append(position)
    return by_shard
