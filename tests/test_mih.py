"""Multi-Index Hashing engine: contract, mutations, kNN guarantees.

The differential and metamorphic suites pin MIH's *answers* against
the other engines; this module pins the engine-specific machinery —
substring-table layout, mutation semantics with duplicate codes,
empty-table probes, the progressive-radius kNN boundary behavior,
op accounting, and the registry/service integration.
"""

from __future__ import annotations

import random

import pytest

from repro.core.bitvector import CodeSet
from repro.core.engines import (
    ENGINES,
    build_index,
    engine_choices,
    engine_names,
    get_engine,
    paper_families,
)
from repro.core.errors import (
    CodeLengthError,
    IndexStateError,
    InvalidParameterError,
)
from repro.core.knn import exact_knn_codes, knn_select
from repro.core.select import INDEX_FAMILIES
from repro.engines.mih import MIHIndex, default_num_tables


def _oracle(codes, ids, query, threshold):
    return sorted(
        tuple_id
        for code, tuple_id in zip(codes, ids)
        if (code ^ query).bit_count() <= threshold
    )


# -- construction ----------------------------------------------------------


def test_default_num_tables_targets_byte_substrings() -> None:
    assert default_num_tables(8) == 1
    assert default_num_tables(32) == 4
    assert default_num_tables(64) == 8
    assert default_num_tables(96) == 12
    # Short codes never get more tables than bits.
    assert default_num_tables(3) == 1


def test_default_num_tables_scales_with_corpus_size() -> None:
    """Known corpus sizes widen substrings toward log2(n) bits."""
    # Small corpora keep the 8-bit rule: max(8, log2 n) == 8.
    assert default_num_tables(32, 200) == 4
    assert default_num_tables(64, 256) == 8
    # Large corpora target ~log2(n)-bit substrings (15 at n=30000).
    assert default_num_tables(32, 30_000) == 2
    assert default_num_tables(64, 30_000) == 4
    # Clamps still hold: >64-bit substrings are never produced.
    assert default_num_tables(96, 1 << 40) >= 2
    # build() wires the corpus size through automatically.
    rng = random.Random(41)
    big = CodeSet([rng.getrandbits(32) for _ in range(2048)], 32)
    assert MIHIndex.build(big).num_tables == default_num_tables(32, 2048)
    assert MIHIndex.build(big, num_tables=4).num_tables == 4


def test_substring_widths_cover_the_code() -> None:
    index = MIHIndex(26, num_tables=4)
    assert sum(index.substring_widths) == 26
    assert max(index.substring_widths) - min(index.substring_widths) <= 1


def test_invalid_table_counts_rejected() -> None:
    with pytest.raises(InvalidParameterError):
        MIHIndex(16, num_tables=0)
    with pytest.raises(InvalidParameterError):
        MIHIndex(16, num_tables=17)
    # One table over a 96-bit code would need a 96-bit key.
    with pytest.raises(InvalidParameterError):
        MIHIndex(96, num_tables=1)


def test_keeps_ids_and_stats() -> None:
    codes = CodeSet([5, 9, 5, 12], 8)
    index = MIHIndex.build(codes, num_tables=2)
    assert index.keeps_ids
    stats = index.stats()
    assert stats.entries == 4 * 2
    assert stats.edges == stats.entries
    assert stats.code_bits == 4 * 8
    # Three distinct codes, two tables: at most 3 keys per table.
    assert 0 < stats.nodes <= 6


# -- empty and degenerate probes -------------------------------------------


def test_empty_index_probes() -> None:
    index = MIHIndex(16)
    assert index.search(0x1234, 16) == []
    assert index.search_with_distances(0, 5) == []
    assert index.search_codes(0, 5) == []
    assert index.search_batch([1, 2], 3) == [[], []]
    assert index.knn_search(7, 4) == []
    assert index.last_search_ops == 0
    assert not index.contains_within(0, 16)
    assert index.count_within(0, 16) == 0


def test_probe_degenerates_to_scan_at_huge_threshold() -> None:
    rng = random.Random(3)
    codes = [rng.getrandbits(32) for _ in range(50)]
    index = MIHIndex.build(CodeSet(codes, 32))
    # threshold = width: every perturbation would be enumerated, so the
    # guard verifies all rows instead; answers stay exact.
    got = sorted(index.search(codes[0], 32))
    assert got == list(range(50))
    assert index.last_search_ops == 50


# -- mutation semantics ----------------------------------------------------


def test_insert_delete_with_duplicate_codes() -> None:
    index = MIHIndex(16, num_tables=2)
    index.insert(0xABCD, 1)
    index.insert(0xABCD, 1)  # duplicate (code, id) pair
    index.insert(0xABCD, 2)
    index.insert(0x1234, 3)
    assert sorted(index.search(0xABCD, 0)) == [1, 1, 2]
    index.delete(0xABCD, 1)
    assert sorted(index.search(0xABCD, 0)) == [1, 2]
    index.delete(0xABCD, 1)
    assert sorted(index.search(0xABCD, 0)) == [2]
    with pytest.raises(IndexStateError):
        index.delete(0xABCD, 1)
    index.delete(0x1234, 3)
    index.delete(0xABCD, 2)
    assert len(index) == 0
    assert index.search(0xABCD, 16) == []


def test_delete_swaps_tail_row_correctly() -> None:
    """Swap-remove must re-home the moved tail row in every table."""
    index = MIHIndex(16, num_tables=2)
    rows = [(10, 0), (20, 1), (30, 2), (40, 3)]
    for code, tuple_id in rows:
        index.insert(code, tuple_id)
    index.delete(10, 0)  # tail row (40, 3) moves into slot 0
    assert sorted(index.search(40, 0)) == [3]
    assert index.search(10, 0) == []
    index.delete(40, 3)
    assert sorted(index.search(20, 0)) == [1]
    assert sorted(index.search(30, 0)) == [2]


def test_mutation_count_and_lazy_layout() -> None:
    index = MIHIndex.build(CodeSet([1, 2, 3], 8))
    base = index.mutation_count
    index.insert(4, 3)
    index.delete(4, 3)
    assert index.mutation_count == base + 2
    # Queries after mutations see the refreshed layout.
    assert sorted(index.search(1, 1)) == _oracle(
        [1, 2, 3], [0, 1, 2], 1, 1
    )


def test_snapshot_is_independent() -> None:
    index = MIHIndex.build(CodeSet([3, 5, 9], 8))
    snap = index.snapshot()
    snap.insert(200, 99)
    assert snap.search(200, 0) == [99]
    assert index.search(200, 0) == []


def test_rejects_out_of_range_codes() -> None:
    index = MIHIndex(8)
    with pytest.raises(CodeLengthError):
        index.insert(256, 0)
    with pytest.raises(CodeLengthError):
        index.search(-1, 2)


# -- kNN ------------------------------------------------------------------


def test_knn_ties_at_radius_boundary() -> None:
    """All ties at the k-th distance resolve by id, deterministically.

    Eight codes at exactly distance 1 from the query, k cutting the
    tie group in half: the returned half must be the lowest ids.
    """
    query = 0
    codes = [1 << bit for bit in range(8)]  # all at distance 1
    index = MIHIndex.build(CodeSet(codes, 16), num_tables=2)
    got = index.knn_search(query, 4)
    assert got == [(0, 1), (1, 1), (2, 1), (3, 1)]
    # And the full group at k = 8.
    assert index.knn_search(query, 8) == [
        (tuple_id, 1) for tuple_id in range(8)
    ]


def test_knn_matches_exact_oracle_and_front_end() -> None:
    rng = random.Random(11)
    codes = [rng.getrandbits(24) for _ in range(80)]
    ids = list(range(80))
    index = MIHIndex.build(CodeSet(codes, 24))
    for k in (1, 5, 80, 100):
        query = rng.getrandbits(24)
        expected = exact_knn_codes(query, codes, ids, k)
        assert index.knn_search(query, k) == expected
        # The knn front-end dispatches to the native implementation.
        assert knn_select(query, index, k) == expected


def test_knn_k_validation() -> None:
    index = MIHIndex.build(CodeSet([1, 2], 8))
    with pytest.raises(InvalidParameterError):
        index.knn_search(5, 0)


def test_knn_single_table_degenerates_gracefully() -> None:
    """m = 1 gives a guarantee of radius r' per round; still exact."""
    rng = random.Random(13)
    codes = [rng.getrandbits(16) for _ in range(40)]
    index = MIHIndex.build(CodeSet(codes, 16), num_tables=1)
    query = rng.getrandbits(16)
    assert index.knn_search(query, 5) == exact_knn_codes(
        query, codes, list(range(40)), 5
    )


# -- op accounting ---------------------------------------------------------


def test_ops_count_verified_candidates() -> None:
    rng = random.Random(17)
    codes = [rng.getrandbits(32) for _ in range(500)]
    index = MIHIndex.build(CodeSet(codes, 32))
    index.search(codes[0], 2)
    single_ops = index.last_search_ops
    assert 0 < single_ops <= 500
    # Batch ops are the per-query sum.
    index.search_batch([codes[0], codes[1]], 2)
    batch_ops = index.last_search_ops
    index.search(codes[1], 2)
    assert batch_ops == single_ops + index.last_search_ops


def test_wide_codes_probe_and_verify() -> None:
    rng = random.Random(19)
    codes = [rng.getrandbits(96) for _ in range(60)]
    ids = list(range(60))
    index = MIHIndex.build(CodeSet(codes, 96))
    query = codes[7]
    for threshold in (0, 30, 50):
        assert sorted(index.search(query, threshold)) == _oracle(
            codes, ids, query, threshold
        )
    assert index.knn_search(query, 6) == exact_knn_codes(
        query, codes, ids, 6
    )


# -- registry --------------------------------------------------------------


def test_registry_resolves_names_and_aliases() -> None:
    assert get_engine("mih").name == "mih"
    assert get_engine("nodes").name == "dha"  # alias
    assert "mih" in engine_names()
    assert set(engine_names()) <= set(engine_choices())
    assert "nodes" in engine_choices()
    with pytest.raises(InvalidParameterError):
        get_engine("no-such-engine")


def test_registry_paper_families_match_table4() -> None:
    assert list(paper_families()) == [
        "Nested-Loops", "MH-4", "MH-10", "HEngine",
        "Radix-Tree", "SHA-Index", "DHA-Index",
    ]
    assert INDEX_FAMILIES is not None
    assert list(INDEX_FAMILIES) == list(paper_families())


def test_registry_builds_every_engine() -> None:
    rng = random.Random(23)
    codes = CodeSet([rng.getrandbits(16) for _ in range(30)], 16)
    query = codes[0]
    expected = _oracle(codes.codes, codes.ids, query, 2)
    for name in engine_names():
        index = build_index(name, codes)
        assert sorted(index.search(query, 2)) == expected, name


def test_registry_batched_flags() -> None:
    assert ENGINES["mih"].batched
    assert ENGINES["flat"].batched
    assert not ENGINES["dha"].batched


# -- service integration ---------------------------------------------------


def test_single_service_serves_mih() -> None:
    from repro.service import HammingQueryService

    rng = random.Random(29)
    codes = CodeSet([rng.getrandbits(24) for _ in range(200)], 24)
    index = MIHIndex.build(codes)
    with HammingQueryService(
        index, workers=2, queue_limit=64
    ) as service:
        query = codes[3]
        ticket = service.submit("select", query, 3)
        assert sorted(ticket.result().value) == _oracle(
            codes.codes, codes.ids, query, 3
        )
        knn = service.submit("knn", query, 5).result().value
        assert list(knn) == exact_knn_codes(
            query, codes.codes, codes.ids, 5
        )
        service.insert(0xABCDEF, 777)
        assert (
            777
            in service.submit("select", 0xABCDEF, 0).result().value
        )
        service.delete(0xABCDEF, 777)


def test_sharded_service_serves_mih_shards() -> None:
    from repro.service import ShardedQueryService

    rng = random.Random(31)
    codes = CodeSet([rng.getrandbits(24) for _ in range(300)], 24)
    with ShardedQueryService(
        codes,
        num_shards=3,
        engine="mih",
        workers=2,
        queue_limit=128,
    ) as service:
        for query in (codes[0], rng.getrandbits(24)):
            got = service.submit("select", query, 3).result().value
            assert sorted(got) == _oracle(
                codes.codes, codes.ids, query, 3
            )
        knn = service.submit("knn", codes[1], 4).result().value
        assert list(knn) == exact_knn_codes(
            codes[1], codes.codes, codes.ids, 4
        )


def test_sharded_store_rejects_non_dha_engine(tmp_path) -> None:
    from repro.core.errors import StoreError
    from repro.service import ShardedQueryService

    codes = CodeSet([1, 2, 3, 4], 8)
    with pytest.raises(StoreError):
        ShardedQueryService(
            codes,
            num_shards=2,
            engine="mih",
            data_dir=str(tmp_path / "store"),
            start=False,
        )
