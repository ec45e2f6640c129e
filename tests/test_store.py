"""Unit tests for the durable store's building blocks.

WAL encode/scan semantics, snapshot format validation (magic, version,
CRC, memmap views), the flat-state roundtrip, generation rotation and
pruning, and the on-disk format-compatibility fixture committed under
``tests/fixtures/``.
"""

from __future__ import annotations

import shutil
import zlib
from pathlib import Path

import pytest

from repro.core.bitvector import CodeSet
from repro.core.dynamic_ha import DynamicHAIndex
from repro.core.errors import IndexStateError, StoreCorruptionError, StoreError
from repro.data.synthetic import random_codes
from repro.store import (
    DurableIndexStore,
    LazySnapshotIndex,
    OP_DELETE,
    OP_INSERT,
    SNAP_MAGIC,
    StoreStats,
    WalWriter,
    decode_dynamic,
    lazy_decode,
    load_flat,
    read_snapshot,
    read_wal,
    write_snapshot,
)
from repro.store.wal import encode_record, record_size

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def built_index():
    codes = CodeSet(random_codes(300, 24, seed=5), 24)
    return DynamicHAIndex.build(codes), codes


class TestWal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "wal.log"
        writer = WalWriter.create(path, 24, next_seq=1)
        writer.append(OP_INSERT, 0xABCDEF, 7)
        writer.append(OP_DELETE, 0x000001, 8)
        writer.close()
        scan = read_wal(path, 24)
        assert not scan.torn
        assert [
            (r.seq, r.op, r.code, r.tuple_id) for r in scan.records
        ] == [(1, OP_INSERT, 0xABCDEF, 7), (2, OP_DELETE, 0x000001, 8)]

    def test_torn_record_is_dropped(self, tmp_path):
        path = tmp_path / "wal.log"
        writer = WalWriter.create(path, 24, next_seq=1)
        for i in range(4):
            writer.append(OP_INSERT, i, i)
        writer.close()
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - record_size(24) // 2])
        scan = read_wal(path, 24)
        assert scan.torn
        assert len(scan.records) == 3
        assert scan.last_seq == 3

    def test_corrupt_record_stops_scan(self, tmp_path):
        path = tmp_path / "wal.log"
        writer = WalWriter.create(path, 24, next_seq=1)
        for i in range(3):
            writer.append(OP_INSERT, i, i)
        writer.close()
        data = bytearray(path.read_bytes())
        data[16 + record_size(24) + 4] ^= 0xFF  # second record's body
        path.write_bytes(bytes(data))
        scan = read_wal(path, 24)
        assert scan.torn
        assert scan.last_seq == 1

    def test_seq_gap_stops_scan(self, tmp_path):
        path = tmp_path / "wal.log"
        writer = WalWriter.create(path, 24, next_seq=1)
        writer.append(OP_INSERT, 1, 1)
        writer.close()
        with open(path, "ab") as stream:
            stream.write(encode_record(5, OP_INSERT, 2, 2, 24))
        scan = read_wal(path, 24)
        assert scan.torn
        assert scan.last_seq == 1

    def test_bad_header_scans_empty(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"junk header bytes")
        scan = read_wal(path, 24)
        assert scan.torn
        assert scan.records == ()

    def test_resume_after_torn_tail_truncates(self, tmp_path):
        path = tmp_path / "wal.log"
        writer = WalWriter.create(path, 24, next_seq=1)
        writer.append(OP_INSERT, 1, 1)
        writer.close()
        with open(path, "ab") as stream:
            stream.write(b"\x01\x02\x03")  # torn tail
        scan = read_wal(path, 24)
        writer = WalWriter.resume(path, 24, scan, next_seq=2)
        writer.append(OP_INSERT, 2, 2)
        writer.close()
        scan = read_wal(path, 24)
        assert not scan.torn
        assert scan.last_seq == 2


class TestSnapshot:
    def test_roundtrip_matches_flat_and_dynamic(
        self, built_index, tmp_path
    ):
        index, codes = built_index
        path = tmp_path / "snap.ha"
        write_snapshot(path, index, last_seq=17)
        view = read_snapshot(path)
        assert view.last_seq == 17
        assert view.code_length == 24
        flat = load_flat(view)
        dynamic = decode_dynamic(view)
        dynamic.check_invariants()
        assert sorted(dynamic.code_id_pairs()) == sorted(
            index.code_id_pairs()
        )
        original = index.compile()
        for probe in list(codes.codes[:4]) + [0, 0xFFFFFF]:
            for threshold in (0, 2, 4):
                want = sorted(original.search(probe, threshold))
                assert sorted(flat.search(probe, threshold)) == want
                assert sorted(dynamic.search(probe, threshold)) == want

    def test_rejects_bad_magic(self, built_index, tmp_path):
        index, _ = built_index
        path = tmp_path / "snap.ha"
        write_snapshot(path, index, last_seq=0)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="magic"):
            read_snapshot(path)

    def test_rejects_flipped_payload_byte(self, built_index, tmp_path):
        index, _ = built_index
        path = tmp_path / "snap.ha"
        write_snapshot(path, index, last_seq=0)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x40
        path.write_bytes(bytes(data))
        with pytest.raises(StoreError):
            read_snapshot(path)

    def test_rejects_truncation(self, built_index, tmp_path):
        index, _ = built_index
        path = tmp_path / "snap.ha"
        write_snapshot(path, index, last_seq=0)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 5])
        with pytest.raises(StoreError):
            read_snapshot(path)

    def test_rejects_frozen_index(self, built_index, tmp_path):
        index, _ = built_index
        index._frozen = True
        with pytest.raises(IndexStateError):
            write_snapshot(tmp_path / "snap.ha", index, last_seq=0)

    def test_buffered_inserts_survive(self, built_index, tmp_path):
        # Codes still in the rebuild buffer (not yet merged into the
        # tree) must appear in the decoded snapshot.
        index, _ = built_index
        index.insert(0xF0F0F0, 5001)
        index.insert(0x0F0F0F, 5002)
        assert index._buffer  # still buffered, not merged
        path = tmp_path / "snap.ha"
        write_snapshot(path, index, last_seq=2)
        dynamic = decode_dynamic(read_snapshot(path))
        assert 5001 in dynamic.search(0xF0F0F0, 0)
        assert 5002 in dynamic.search(0x0F0F0F, 0)


class TestLazySnapshotIndex:
    """Warm starts defer the node-graph decode to first need."""

    def test_kernel_reads_stay_lazy(self, built_index, tmp_path):
        index, codes = built_index
        path = tmp_path / "snap.ha"
        write_snapshot(path, index, last_seq=0)
        lazy = lazy_decode(read_snapshot(path))
        assert isinstance(lazy, LazySnapshotIndex)
        assert not lazy.materialized
        probe = codes.codes[0]
        assert lazy.count_within(probe, 3) == index.count_within(probe, 3)
        assert lazy.contains_within(probe, 0)
        assert sorted(lazy.search_codes(probe, 2)) == sorted(
            index.search_codes(probe, 2)
        )
        assert sorted(lazy.search_with_distances(probe, 2)) == sorted(
            index.search_with_distances(probe, 2)
        )
        assert sorted(lazy.search_batch([probe, 0], 2)[0]) == sorted(
            index.search(probe, 2)
        )
        assert lazy.ids_for_code(probe) == index.ids_for_code(probe)
        assert sorted(lazy.code_id_pairs()) == sorted(
            index.code_id_pairs()
        )
        assert len(lazy) == len(index)
        assert lazy.num_distinct_codes == index.num_distinct_codes
        assert not lazy.materialized  # none of the above decoded nodes

    def test_node_walk_materializes(self, built_index, tmp_path):
        index, codes = built_index
        path = tmp_path / "snap.ha"
        write_snapshot(path, index, last_seq=0)
        lazy = lazy_decode(read_snapshot(path))
        # Plain search's node-walk result ordering is observable API,
        # so it must come from the real node graph.
        assert lazy.search(codes.codes[1], 2) == index.search(
            codes.codes[1], 2
        )
        assert lazy.materialized
        lazy.check_invariants()

    def test_mutation_materializes_and_applies(
        self, built_index, tmp_path
    ):
        index, _ = built_index
        path = tmp_path / "snap.ha"
        write_snapshot(path, index, last_seq=0)
        lazy = lazy_decode(read_snapshot(path))
        lazy.insert(0xBEEF42, 7001)
        assert lazy.materialized
        assert 7001 in lazy.search(0xBEEF42, 0)
        lazy.delete(0xBEEF42, 7001)
        assert 7001 not in lazy.search(0xBEEF42, 0)

    def test_native_view_stays_lazy(self, built_index, tmp_path):
        index, codes = built_index
        path = tmp_path / "snap.ha"
        write_snapshot(path, index, last_seq=0)
        lazy = lazy_decode(read_snapshot(path))
        plane = lazy.compile_native()
        # The view shares the mapped kernel's arrays: no second flatten
        # and no node-graph decode.
        assert plane._ids_flat is lazy.compile()._ids_flat
        probe = codes.codes[2]
        assert sorted(plane.search_batch([probe], 2)[0]) == sorted(
            index.search(probe, 2)
        )
        assert plane.contains_within(probe, 0)
        assert not lazy.materialized

    def test_first_insert_invalidates_mapped_kernel(
        self, built_index, tmp_path
    ):
        # The insert that decodes the node graph must still be counted,
        # or the pre-insert mapped kernel stays cached as current.
        index, _ = built_index
        path = tmp_path / "snap.ha"
        write_snapshot(path, index, last_seq=0)
        lazy = lazy_decode(read_snapshot(path))
        lazy.insert(0xBEEF42, 7001)
        assert lazy.mutation_count == 1
        assert 7001 in lazy.search_batch([0xBEEF42], 0)[0]
        assert 7001 in lazy.compile_native().search(0xBEEF42, 0)

    def test_copies_come_back_plain(self, built_index, tmp_path):
        index, codes = built_index
        path = tmp_path / "snap.ha"
        write_snapshot(path, index, last_seq=0)
        lazy = lazy_decode(read_snapshot(path))
        copy = lazy.snapshot()
        assert type(copy) is DynamicHAIndex
        assert sorted(copy.code_id_pairs()) == sorted(
            index.code_id_pairs()
        )

    def test_open_with_empty_tail_is_lazy(self, built_index, tmp_path):
        index, _ = built_index
        store = DurableIndexStore(tmp_path / "d")
        store.initialize(index)
        store.close()
        recovered = DurableIndexStore(tmp_path / "d").open()
        assert isinstance(recovered, LazySnapshotIndex)
        assert not recovered.materialized

    def test_replay_tail_materializes(self, built_index, tmp_path):
        index, _ = built_index
        store = DurableIndexStore(tmp_path / "d")
        store.initialize(index)
        store.append_insert(0x424242, 8001)
        store.close()
        fresh = DurableIndexStore(tmp_path / "d")
        recovered = fresh.open()
        assert recovered.materialized  # replay forced the decode
        assert 8001 in recovered.search(0x424242, 0)
        fresh.close()

    def test_wal_tail_counter(self, built_index, tmp_path):
        index, _ = built_index
        store = DurableIndexStore(tmp_path / "d")
        store.initialize(index)
        assert store.wal_tail == 0
        index.insert(0x111111, 9100)
        store.append_insert(0x111111, 9100)
        assert store.wal_tail == 1
        store.snapshot(index)
        assert store.wal_tail == 0
        store.close()


class TestDurableIndexStore:
    def test_initialize_then_open(self, built_index, tmp_path):
        index, _ = built_index
        store = DurableIndexStore(tmp_path / "d")
        store.initialize(index)
        store.append_insert(0x101010, 900)
        store.close()
        fresh = DurableIndexStore(tmp_path / "d")
        recovered = fresh.open()
        assert fresh.last_seq == 1
        assert 900 in recovered.search(0x101010, 0)
        fresh.close()

    def test_double_initialize_rejected(self, built_index, tmp_path):
        index, _ = built_index
        store = DurableIndexStore(tmp_path / "d")
        store.initialize(index)
        store.close()
        with pytest.raises(StoreError):
            DurableIndexStore(tmp_path / "d").initialize(index)

    def test_exists(self, built_index, tmp_path):
        index, _ = built_index
        assert not DurableIndexStore.exists(tmp_path / "d")
        store = DurableIndexStore(tmp_path / "d")
        store.initialize(index)
        store.close()
        assert DurableIndexStore.exists(tmp_path / "d")

    def test_rotation_prunes_old_generations(
        self, built_index, tmp_path
    ):
        index, _ = built_index
        store = DurableIndexStore(tmp_path / "d", retain=2)
        store.initialize(index)
        for generation in range(2, 6):
            index.insert(generation, 4000 + generation)
            store.append_insert(generation, 4000 + generation)
            assert store.snapshot(index) == generation
        snaps = sorted(p.name for p in (tmp_path / "d").glob("*.ha"))
        assert snaps == ["snap-00000004.ha", "snap-00000005.ha"]
        store.close()

    def test_open_empty_directory_fails(self, tmp_path):
        with pytest.raises(StoreCorruptionError):
            DurableIndexStore(tmp_path / "nothing").open()

    def test_retain_must_be_positive(self, tmp_path):
        with pytest.raises(StoreError):
            DurableIndexStore(tmp_path, retain=0)

    def test_stats_merge(self):
        a = StoreStats(
            wal_appends=3, wal_replayed=1, replay_skipped=0,
            snapshots_written=2, snapshot_generations=2,
            recovery_fallbacks=0, last_seq=5, generation=2,
        )
        b = StoreStats(
            wal_appends=1, wal_replayed=4, replay_skipped=1,
            snapshots_written=0, snapshot_generations=1,
            recovery_fallbacks=1, last_seq=9, generation=4,
        )
        merged = StoreStats.merge([a, b])
        assert merged.wal_appends == 4
        assert merged.wal_replayed == 5
        assert merged.replay_skipped == 1
        assert merged.recovery_fallbacks == 1
        assert merged.generation == 4
        assert StoreStats.merge([]).generation == 0


class TestOpenReadonly:
    """A reader's recovery: full fidelity, zero directory writes."""

    def test_sees_writer_state_including_wal_tail(
        self, built_index, tmp_path
    ):
        index, _ = built_index
        writer = DurableIndexStore(tmp_path / "d")
        writer.initialize(index)
        writer.append_insert(0x101010, 900)
        writer.append_insert(0x101011, 901)
        reader = DurableIndexStore(tmp_path / "d")
        recovered = reader.open_readonly()
        assert reader.last_seq == 2
        assert 900 in recovered.search(0x101010, 0)
        assert 901 in recovered.search(0x101011, 0)
        writer.close()

    def test_never_writes_to_the_directory(self, built_index, tmp_path):
        index, _ = built_index
        store = DurableIndexStore(tmp_path / "d")
        store.initialize(index)
        store.append_insert(0xBEEF, 42)
        store.close()
        stray = tmp_path / "d" / "snap-00000009.ha.tmp"
        stray.write_bytes(b"partial")
        listing = sorted(p.name for p in (tmp_path / "d").iterdir())
        DurableIndexStore(tmp_path / "d").open_readonly()
        after = sorted(p.name for p in (tmp_path / "d").iterdir())
        assert after == listing  # stray tmp untouched, no WAL resume

    def test_fallback_writes_no_repair_generation(
        self, built_index, tmp_path
    ):
        index, _ = built_index
        store = DurableIndexStore(tmp_path / "d")
        store.initialize(index)
        index.insert(0xF00D, 7000)
        store.append_insert(0xF00D, 7000)
        assert store.snapshot(index) == 2
        store.close()
        snap2 = tmp_path / "d" / "snap-00000002.ha"
        payload = bytearray(snap2.read_bytes())
        payload[-1] ^= 0xFF
        snap2.write_bytes(payload)
        listing = sorted(p.name for p in (tmp_path / "d").iterdir())

        reader = DurableIndexStore(tmp_path / "d")
        recovered = reader.open_readonly()
        assert reader.recovery_fallbacks == 1
        # Fell back to generation 1 + its WAL: state still exact.
        assert 7000 in recovered.search(0xF00D, 0)
        after = sorted(p.name for p in (tmp_path / "d").iterdir())
        assert after == listing  # a writer would add snap-00000003.ha

        writer = DurableIndexStore(tmp_path / "d")
        writer.open()
        repaired = sorted(
            p.name for p in (tmp_path / "d").glob("snap-*.ha")
        )
        assert "snap-00000003.ha" in repaired
        writer.close()

    def test_readonly_store_rejects_appends(self, built_index, tmp_path):
        index, _ = built_index
        store = DurableIndexStore(tmp_path / "d")
        store.initialize(index)
        store.close()
        reader = DurableIndexStore(tmp_path / "d")
        reader.open_readonly()
        with pytest.raises(StoreError):
            reader.append_insert(0x1, 1)
        with pytest.raises(StoreError):
            reader.append_delete(0x1, 1)


class TestFormatCompatibility:
    """The committed v1 fixture must stay loadable forever.

    Regenerate (only for a deliberate, versioned format change) with::

        PYTHONPATH=src python tests/fixtures/make_snapshot_fixture.py
    """

    def test_fixture_exists(self):
        fixture = FIXTURES / "store_v1"
        assert (fixture / "snap-00000001.ha").is_file()
        assert (fixture / "wal-00000001.log").is_file()

    def test_fixture_snapshot_magic(self):
        head = (FIXTURES / "store_v1" / "snap-00000001.ha").read_bytes()[
            : len(SNAP_MAGIC)
        ]
        assert head == SNAP_MAGIC

    def test_fixture_recovers_expected_state(self, tmp_path):
        # Copy first: recovery may legitimately resume/extend the WAL,
        # and the committed fixture must never be modified by a test.
        shutil.copytree(FIXTURES / "store_v1", tmp_path / "store_v1")
        store = DurableIndexStore(tmp_path / "store_v1")
        index = store.open()
        expected = __import__("json").loads(
            (FIXTURES / "store_v1" / "expected.json").read_text()
        )
        assert store.last_seq == expected["last_seq"]
        assert len(index) == expected["size"]
        assert index.code_length == expected["code_length"]
        pairs = sorted(index.code_id_pairs())
        digest = zlib.crc32(repr(pairs).encode()) & 0xFFFFFFFF
        assert digest == expected["pairs_crc32"]
        for probe in expected["probes"]:
            assert (
                sorted(index.search(probe["code"], probe["threshold"]))
                == probe["ids"]
            )
        store.close()
