"""Tests for the compiled flat H-Search kernel (FlatHAIndex).

The flat kernel is a read-only, array-backed compilation of a
DynamicHAIndex.  Everything here checks *exact* equivalence with the
node-walking plane: same result sets, same ``last_search_ops``, same
behaviour around the insert buffer and after invalidating mutations.
"""

from __future__ import annotations

import concurrent.futures as futures
import pickle
import random

import numpy as np
import pytest

from repro.core.bitvector import CodeSet, popcount64
from repro.core.dynamic_ha import DynamicHAIndex
from repro.core.errors import IndexStateError, InvalidParameterError
from repro.core.flat_ha import FlatHAIndex, _expand_ranges
from repro.core.join import hamming_join, nested_loops_join, self_join
from repro.data.synthetic import random_codes

from .helpers import brute_force_select

THRESHOLDS = list(range(9))


def _clustered(n: int, bits: int, seed: int) -> CodeSet:
    """Clustered codes so subtree-qualifies and pruning both fire."""
    rng = random.Random(seed)
    centers = [rng.getrandbits(bits) for _ in range(max(4, n // 100))]
    codes = []
    for _ in range(n):
        noise = 0
        for _ in range(rng.randint(0, 4)):
            noise |= 1 << rng.randrange(bits)
        codes.append(rng.choice(centers) ^ noise)
    return CodeSet(codes, bits)


def _probes(codes: CodeSet, count: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    half = count // 2
    members = [codes[rng.randrange(len(codes))] for _ in range(half)]
    randoms = [rng.getrandbits(codes.length) for _ in range(count - half)]
    return members + randoms


def _assert_planes_agree(index: DynamicHAIndex, flat: FlatHAIndex,
                         queries, thresholds=THRESHOLDS) -> None:
    for threshold in thresholds:
        batched = flat.search_batch(queries, threshold)
        codes_batched = flat.search_codes_batch(queries, threshold)
        for query, batch_ids, batch_codes in zip(
            queries, batched, codes_batched
        ):
            expected = sorted(index.search(query, threshold))
            node_ops = index.last_search_ops
            got = sorted(flat.search(query, threshold))
            assert got == expected
            assert flat.last_search_ops == node_ops
            assert sorted(batch_ids) == expected
            assert sorted(flat.search_codes(query, threshold)) == sorted(
                index.search_codes(query, threshold)
            )
            assert sorted(batch_codes) == sorted(
                flat.search_codes(query, threshold)
            )
            assert flat.count_within(query, threshold) == (
                index.count_within(query, threshold)
            )
            assert flat.contains_within(query, threshold) == (
                index.contains_within(query, threshold)
            )
            assert sorted(flat.search_with_distances(query, threshold)) == (
                sorted(index.search_with_distances(query, threshold))
            )


class TestEquivalence:
    @pytest.mark.parametrize("bits", [16, 32, 64])
    def test_narrow_codes_match_node_walk(self, bits):
        codes = _clustered(1500, bits, seed=bits)
        index = DynamicHAIndex.build(codes)
        _assert_planes_agree(index, index.compile(),
                             _probes(codes, 10, seed=5))

    @pytest.mark.parametrize("bits", [96, 128])
    def test_wide_codes_match_node_walk(self, bits):
        codes = _clustered(800, bits, seed=bits)
        index = DynamicHAIndex.build(codes)
        _assert_planes_agree(index, index.compile(),
                             _probes(codes, 8, seed=9))

    def test_with_buffered_inserts(self):
        codes = _clustered(1200, 32, seed=3)
        index = DynamicHAIndex.build(codes)
        rng = random.Random(11)
        extra = [rng.getrandbits(32) for _ in range(30)]
        for offset, code in enumerate(extra):
            index.insert(code, len(codes) + offset)
        flat = index.compile()
        everything = CodeSet(
            list(codes.codes) + extra, 32,
            ids=list(codes.ids) + list(
                range(len(codes), len(codes) + len(extra))
            ),
        )
        queries = _probes(codes, 8, seed=21) + extra[:4]
        _assert_planes_agree(index, flat, queries)
        for query in queries[:6]:
            assert sorted(flat.search(query, 3)) == brute_force_select(
                everything, query, 3
            )

    def test_batch_ops_accounting(self):
        codes = _clustered(1000, 32, seed=8)
        index = DynamicHAIndex.build(codes)
        flat = index.compile()
        queries = _probes(codes, 16, seed=2)
        singles = 0
        for query in queries:
            flat.search(query, 3)
            singles += flat.last_search_ops
        flat.search_batch(queries, 3)
        assert flat.last_search_ops == singles

    def test_duplicates_and_ids(self):
        codes = CodeSet([7, 7, 7, 1, 9, 9], 8, ids=[10, 11, 12, 13, 14, 15])
        flat = DynamicHAIndex.build(codes, window=2).compile()
        assert sorted(flat.search(7, 0)) == [10, 11, 12]
        assert flat.count_within(9, 0) == 2

    @pytest.mark.parametrize("plane", ["compile", "compile_native"])
    def test_empty_index(self, plane):
        flat = getattr(DynamicHAIndex.build(CodeSet([], 16)), plane)()
        assert flat.search(0, 8) == []
        assert flat.search_batch([0, 1], 4) == [[], []]
        assert flat.count_within(0, 8) == 0
        assert not flat.contains_within(0, 8)

    def test_merged_index_compiles(self):
        left = DynamicHAIndex.build(_clustered(400, 32, seed=1))
        right_codes = CodeSet(
            random_codes(400, 32, seed=2), 32,
            ids=list(range(1000, 1400)),
        )
        right = DynamicHAIndex.build(right_codes)
        merged = DynamicHAIndex.merge([left, right])
        _assert_planes_agree(
            merged, merged.compile(),
            _probes(right_codes, 6, seed=4), thresholds=[0, 1, 3, 5],
        )

    def test_threshold_above_code_length_clamps(self):
        codes = _clustered(300, 16, seed=6)
        index = DynamicHAIndex.build(codes)
        flat = index.compile()
        assert sorted(flat.search(codes[0], 999)) == sorted(
            index.search(codes[0], 999)
        )


class TestCompileLifecycle:
    def test_compile_is_cached(self):
        index = DynamicHAIndex.build(_clustered(300, 32, seed=1))
        assert index.compile() is index.compile()

    def test_force_recompile(self):
        index = DynamicHAIndex.build(_clustered(300, 32, seed=1))
        first = index.compile()
        assert index.compile(force=True) is not first

    def test_buffered_insert_invalidates(self):
        # Satellite: a buffered H-Insert must be visible through the
        # compiled plane on the next search/search_batch/count_within.
        codes = _clustered(600, 32, seed=2)
        index = DynamicHAIndex.build(codes)
        stale = index.compile()
        fresh_code = codes[0] ^ 0b11
        index.insert(fresh_code, 9999)
        flat = index.compile()
        assert flat is not stale
        assert 9999 in flat.search(fresh_code, 0)
        assert 9999 in flat.search_batch([fresh_code], 0)[0]
        assert flat.count_within(fresh_code, 0) == (
            index.count_within(fresh_code, 0)
        )

    def test_buffered_delete_invalidates(self):
        codes = _clustered(600, 32, seed=2)
        index = DynamicHAIndex.build(codes)
        index.compile()
        victim_id = codes.ids[0]
        index.delete(codes[0], victim_id)
        flat = index.compile()
        assert victim_id not in flat.search(codes[0], 0)
        assert flat.count_within(codes[0], 0) == (
            index.count_within(codes[0], 0)
        )

    def test_buffer_only_mutation_reuses_flat_arrays(self):
        # A new-code insert lands in the rebuild buffer without touching
        # the tree, so compile() only re-snapshots the buffer.
        index = DynamicHAIndex.build(_clustered(600, 32, seed=4))
        first = index.compile()
        index.insert(random.Random(0).getrandbits(32), 7777)
        second = index.compile()
        assert second is not first
        assert second._bits is first._bits

    def test_read_only_mutators_raise(self):
        flat = DynamicHAIndex.build(_clustered(200, 32, seed=1)).compile()
        with pytest.raises(IndexStateError):
            flat.insert(1, 1)
        with pytest.raises(IndexStateError):
            flat.delete(1, 1)

    @pytest.mark.parametrize("plane", ["compile", "compile_native"])
    def test_keep_ids_false(self, plane):
        codes = _clustered(400, 32, seed=3)
        stripped = DynamicHAIndex.build(codes).strip_ids()
        flat = getattr(stripped, plane)()
        query = codes[0]
        with pytest.raises(IndexStateError):
            flat.search(query, 2)
        assert sorted(flat.search_codes(query, 2)) == sorted(
            stripped.search_codes(query, 2)
        )

    def test_pickle_round_trip(self):
        codes = _clustered(500, 32, seed=5)
        flat = DynamicHAIndex.build(codes).compile()
        clone = pickle.loads(pickle.dumps(flat))
        for query in _probes(codes, 4, seed=1):
            assert clone.search(query, 3) == flat.search(query, 3)

    def test_build_classmethod(self):
        codes = _clustered(300, 32, seed=9)
        flat = FlatHAIndex.build(codes)
        assert isinstance(flat, FlatHAIndex)
        query = codes[0]
        assert sorted(flat.search(query, 2)) == brute_force_select(
            codes, query, 2
        )

    def test_stats_and_introspection(self):
        index = DynamicHAIndex.build(_clustered(500, 32, seed=7))
        flat = index.compile()
        assert flat.num_nodes == sum(flat.level_sizes())
        assert flat.num_levels == len(flat.level_sizes())
        assert flat.stats().nodes > 0
        assert len(flat) == len(index)


class TestVectorHelpers:
    def test_expand_ranges(self):
        starts = np.array([5, 0, 9], dtype=np.int64)
        counts = np.array([3, 0, 2], dtype=np.int64)
        assert _expand_ranges(starts, counts).tolist() == [5, 6, 7, 9, 10]

    def test_expand_ranges_empty(self):
        empty = np.array([], dtype=np.int64)
        assert _expand_ranges(empty, empty).size == 0

    def test_popcount64_fallback_table(self, monkeypatch):
        # Satellite: the byte-table fallback must match bit_count even
        # when numpy lacks np.bitwise_count (numpy < 2.0).
        import repro.core.bitvector as bv

        values = np.array(
            [0, 1, 0xFFFF_FFFF_FFFF_FFFF, 0x8000_0000_0000_0001, 12345],
            dtype=np.uint64,
        )
        expected = [int(v).bit_count() for v in values.tolist()]
        assert popcount64(values).tolist() == expected
        monkeypatch.setattr(bv, "_HAS_BITWISE_COUNT", False)
        assert bv.popcount64(values).tolist() == expected


class TestJoins:
    @pytest.fixture(scope="class")
    def join_inputs(self):
        left = _clustered(500, 32, seed=31)
        right = CodeSet(
            random_codes(400, 32, seed=32), 32,
            ids=list(range(5000, 5400)),
        )
        return left, right

    def test_hamming_join_engines_match_oracle(self, join_inputs):
        left, right = join_inputs
        oracle = sorted(nested_loops_join(left, right, 3))
        for engine in ("nodes", "flat"):
            assert sorted(
                hamming_join(left, right, 3, engine=engine)
            ) == oracle

    def test_hamming_join_parallel(self, join_inputs):
        left, right = join_inputs
        oracle = sorted(nested_loops_join(left, right, 3))
        got = hamming_join(
            left, right, 3, engine="flat", parallel=True, workers=2
        )
        assert sorted(got) == oracle

    def test_self_join_engines_match_oracle(self, join_inputs):
        left, _ = join_inputs
        oracle = sorted(
            pair for pair in nested_loops_join(left, left, 2)
            if pair[0] < pair[1]
        )
        for kwargs in (
            {"engine": "nodes"},
            {"engine": "flat"},
            {"engine": "flat", "parallel": True, "workers": 2},
        ):
            assert sorted(self_join(left, 2, **kwargs)) == oracle

    def test_invalid_engine_rejected(self, join_inputs):
        left, right = join_inputs
        with pytest.raises(InvalidParameterError):
            hamming_join(left, right, 2, engine="gpu")

    def test_parallel_thread_fallback(self, join_inputs, monkeypatch):
        # When the process pool cannot start, the probe falls back to
        # threads and still returns the exact pair set.
        left, right = join_inputs

        def broken_pool(*args, **kwargs):
            raise OSError("no process pool in this environment")

        monkeypatch.setattr(
            futures, "ProcessPoolExecutor", broken_pool
        )
        got = hamming_join(
            left, right, 3, engine="flat", parallel=True, workers=2
        )
        assert sorted(got) == sorted(nested_loops_join(left, right, 3))


class TestServiceKernel:
    def test_batched_service_matches_oracle(self):
        from repro.service import HammingQueryService

        codes = _clustered(800, 32, seed=13)
        queries = _probes(codes, 40, seed=14)
        service = HammingQueryService(
            DynamicHAIndex.build(codes),
            workers=2,
            max_batch=16,
            queue_limit=len(queries) + 8,
            cache_capacity=64,
        )
        with service:
            tickets = [
                service.submit("select", query, 3) for query in queries
            ]
            results = [ticket.result() for ticket in tickets]
        for query, result in zip(queries, results):
            assert sorted(result.value) == brute_force_select(
                codes, query, 3
            )
