"""Warm-start equality and store observability for the query services.

A service opened from a persisted store must be indistinguishable from
a freshly built one that applied the same mutation history: identical
select/knn/join answers and identical epochs — including mutations
still sitting in the index's rebuild buffer (never merged into the
tree) when the process died.
"""

from __future__ import annotations

import random

import pytest

from repro.core.bitvector import CodeSet
from repro.core.dynamic_ha import DynamicHAIndex
from repro.core.errors import IndexStateError, StoreError
from repro.data.synthetic import random_codes
from repro.service.server import HammingQueryService
from repro.service.sharded import ShardedQueryService

BITS = 20


def _codes(n=300, seed=9):
    return CodeSet(random_codes(n, BITS, seed=seed), BITS)


def _mutations(n=25, seed=4):
    rng = random.Random(seed)
    return [(rng.getrandbits(BITS), 5000 + i) for i in range(n)]


class TestDurableQueryService:
    def test_warm_start_matches_fresh_service(self, tmp_path):
        codes = _codes()
        mutations = _mutations()
        durable = HammingQueryService(
            DynamicHAIndex.build(codes),
            data_dir=tmp_path / "d",
            workers=2,
        )
        fresh = HammingQueryService(
            DynamicHAIndex.build(codes), workers=2
        )
        for code, tuple_id in mutations:
            durable.insert(code, tuple_id)
            fresh.insert(code, tuple_id)
        durable.delete(*mutations[0])
        fresh.delete(*mutations[0])
        durable.close()

        warm = HammingQueryService.open(tmp_path / "d", workers=2)
        assert warm.epoch == fresh.epoch
        assert len(warm) == len(fresh)
        rng = random.Random(1)
        for _ in range(12):
            probe = rng.getrandbits(BITS)
            threshold = rng.randrange(0, 5)
            assert (
                warm.select(probe, threshold).value
                == fresh.select(probe, threshold).value
            )
            assert (
                warm.probe(probe, threshold).value
                == fresh.probe(probe, threshold).value
            )
        for _ in range(4):
            probe = rng.getrandbits(BITS)
            assert warm.knn(probe, 7).value == fresh.knn(probe, 7).value
        warm.close()
        fresh.close()

    def test_unflushed_buffer_survives_restart(self, tmp_path):
        # A rebuild buffer large enough that the inserts are never
        # merged into the tree: the WAL, not the snapshot, carries them.
        codes = _codes(120)
        durable = HammingQueryService(
            DynamicHAIndex.build(codes, rebuild_buffer=4096),
            data_dir=tmp_path / "d",
            workers=1,
        )
        for code, tuple_id in _mutations(10):
            durable.insert(code, tuple_id)
        assert durable._shards[0].primary._buffer  # still buffered
        # snapshot=False models a crash-ish stop: no final rotation, so
        # recovery must get the buffered inserts back from the WAL.
        durable.close(snapshot=False)
        warm = HammingQueryService.open(tmp_path / "d", workers=1)
        assert warm.epoch == 10
        for code, tuple_id in _mutations(10):
            assert tuple_id in warm.select(code, 0).value
        warm.close()

    def test_batched_reads_see_single_replayed_insert(self, tmp_path):
        codes = _codes(120)
        durable = HammingQueryService(
            DynamicHAIndex.build(codes), data_dir=tmp_path / "d", workers=1
        )
        code, tuple_id = _mutations(1)[0]
        durable.insert(code, tuple_id)
        durable.close(snapshot=False)
        # Replaying the one WAL record decodes the node graph mid-insert;
        # two selects queued before the worker starts share one batch.
        warm = HammingQueryService.open(
            tmp_path / "d", workers=1, start=False
        )
        tickets = [warm.submit("select", probe, 0) for probe in (code, code ^ 1)]
        warm.start()
        assert tuple_id in tickets[0].result().value
        warm.close()

    def test_save_snapshot_empties_replay(self, tmp_path):
        durable = HammingQueryService(
            DynamicHAIndex.build(_codes(100)),
            data_dir=tmp_path / "d",
            workers=1,
        )
        for code, tuple_id in _mutations(8):
            durable.insert(code, tuple_id)
        assert durable.save_snapshot() == 2
        durable.close()
        warm = HammingQueryService.open(tmp_path / "d", workers=1)
        stats = warm.stats().store
        assert stats.wal_replayed == 0  # all folded into generation 2
        assert stats.last_seq == 8
        assert warm.epoch == 8
        warm.close()

    def test_data_dir_refuses_existing_store(self, tmp_path):
        first = HammingQueryService(
            DynamicHAIndex.build(_codes(50)),
            data_dir=tmp_path / "d",
            workers=1,
        )
        first.close()
        with pytest.raises(StoreError, match="already holds"):
            HammingQueryService(
                DynamicHAIndex.build(_codes(50)),
                data_dir=tmp_path / "d",
                workers=1,
            )

    def test_failed_mutation_never_reaches_wal(self, tmp_path):
        durable = HammingQueryService(
            DynamicHAIndex.build(_codes(50)),
            data_dir=tmp_path / "d",
            workers=1,
        )
        with pytest.raises(IndexStateError, match="not present"):
            durable.delete(0x1, 999_999)
        assert durable.stats().store.wal_appends == 0
        durable.close()
        warm = HammingQueryService.open(tmp_path / "d", workers=1)
        assert warm.epoch == 0
        warm.close()


class TestDurableShardedService:
    def test_warm_start_matches_fresh_service(self, tmp_path):
        codes = _codes(400, seed=13)
        mutations = _mutations(20, seed=6)
        durable = ShardedQueryService(
            codes,
            num_shards=4,
            replication=2,
            data_dir=tmp_path / "s",
            workers=2,
        )
        fresh = ShardedQueryService(
            codes,
            num_shards=4,
            pivots=durable.pivots,
            replication=2,
            workers=2,
        )
        for code, tuple_id in mutations:
            durable.insert(code, tuple_id)
            fresh.insert(code, tuple_id)
        durable.delete(*mutations[3])
        fresh.delete(*mutations[3])
        durable.close()

        warm = ShardedQueryService.open(tmp_path / "s", workers=2)
        assert warm.epoch == fresh.epoch
        assert warm.pivots == fresh.pivots
        assert warm.shard_sizes() == fresh.shard_sizes()
        assert (
            warm.shard_stats().shard_epochs
            == fresh.shard_stats().shard_epochs
        )
        rng = random.Random(2)
        for _ in range(12):
            probe = rng.getrandbits(BITS)
            threshold = rng.randrange(0, 5)
            assert (
                warm.select(probe, threshold).value
                == fresh.select(probe, threshold).value
            )
        for _ in range(3):
            probe = rng.getrandbits(BITS)
            assert warm.knn(probe, 6).value == fresh.knn(probe, 6).value
        outer = CodeSet(random_codes(25, BITS, seed=77), BITS)
        assert warm.join(outer, 2) == fresh.join(outer, 2)
        warm.close()
        fresh.close()

    def test_topology_required_to_open(self, tmp_path):
        with pytest.raises(StoreError, match="topology"):
            ShardedQueryService.open(tmp_path / "nothing")

    def test_data_dir_refuses_existing_store(self, tmp_path):
        svc = ShardedQueryService(
            _codes(80), num_shards=2, data_dir=tmp_path / "s", workers=1
        )
        svc.close()
        with pytest.raises(StoreError, match="already holds"):
            ShardedQueryService(
                _codes(80),
                num_shards=2,
                data_dir=tmp_path / "s",
                workers=1,
            )

    def test_store_stats_aggregate_shards(self, tmp_path):
        svc = ShardedQueryService(
            _codes(200), num_shards=3, data_dir=tmp_path / "s", workers=1
        )
        for code, tuple_id in _mutations(9, seed=8):
            svc.insert(code, tuple_id)
        stats = svc.store_stats()
        assert stats.wal_appends == 9
        assert stats.snapshot_generations == 3  # one per shard
        assert stats.last_seq == 9  # summed across shards
        svc.close()


class TestStoreMetricsExposition:
    def test_store_counters_reach_prometheus(self, tmp_path):
        from repro.obs import registry, set_metrics_enabled

        set_metrics_enabled(True)
        try:
            service = HammingQueryService(
                DynamicHAIndex.build(_codes(100)),
                data_dir=tmp_path / "d",
                workers=1,
            )
            for code, tuple_id in _mutations(5):
                service.insert(code, tuple_id)
            service.publish_metrics()
            service.close(snapshot=False)
            warm = HammingQueryService.open(tmp_path / "d", workers=1)
            warm.publish_metrics()
            # snapshot=False: a closing rotation would bump the
            # directly-set generation gauges after the publish above.
            warm.close(snapshot=False)
            text = registry().render_prometheus()
        finally:
            set_metrics_enabled(False)
            registry().clear()
        # Process-lifetime counters accumulate across both instances.
        assert "store_wal_appends_total 5" in text
        assert "store_wal_replayed_total 5" in text
        # Gauges carry the *last published* (warm) instance's snapshot:
        # it appended nothing itself but replayed all five records.
        assert "store_wal_appends 0" in text
        assert "store_wal_replayed 5" in text
        assert "store_recovery_fallbacks 0" in text
        assert "store_last_seq 5" in text
        assert "store_snapshot_generations 1" in text
        assert "store_generation 1" in text
