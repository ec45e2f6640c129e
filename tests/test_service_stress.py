"""Concurrent correctness of the query service under reader/writer churn.

The contract under test: every query the service answers is *exactly*
the single-threaded oracle's answer for the epoch it was served against.
Writers apply H-Insert/H-Delete through the service (each mutation gets
a unique epoch, serialized by the traversal mutex); readers record
``(query, threshold, result, epoch)`` tuples; afterwards the mutation
log is replayed sequentially to reconstruct the exact (code, id) set at
every epoch and each recorded answer is checked against a brute-force
scan of that state.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.bitvector import CodeSet
from repro.core.dynamic_ha import DynamicHAIndex
from repro.core.errors import ServiceOverloadError
from repro.data.synthetic import random_codes
from repro.service import HammingQueryService, ShardedQueryService

pytestmark = pytest.mark.slow

BITS = 16
BASE_SIZE = 150
WRITERS = 3
READERS = 4
OPS_PER_WRITER = 40
QUERIES_PER_READER = 60
JOIN_TIMEOUT = 60.0


def _one_shard(base: CodeSet, **kwargs) -> HammingQueryService:
    index = DynamicHAIndex.build(base, rebuild_buffer=8)
    return HammingQueryService(index, **kwargs)


def _four_shards(base: CodeSet, **kwargs) -> ShardedQueryService:
    return ShardedQueryService(
        base, num_shards=4, index_params={"rebuild_buffer": 8}, **kwargs
    )


def _join_all(threads: list[threading.Thread]) -> None:
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
    hung = [thread.name for thread in threads if thread.is_alive()]
    assert not hung, f"deadlocked threads: {hung}"


class TestReaderWriterConsistency:
    @pytest.mark.parametrize(
        "make_service", [_one_shard, _four_shards],
        ids=["one-shard", "four-shards"],
    )
    def test_results_match_oracle_at_served_epoch(self, make_service):
        base = CodeSet(random_codes(BASE_SIZE, BITS, seed=11), BITS)
        service = make_service(
            base,
            workers=4,
            max_batch=16,
            queue_limit=10_000,
            cache_capacity=256,
        )
        # Epoch -> (op, code, tuple_id).  Epochs are unique (assigned
        # under the service's mutex), so plain dict writes are safe.
        mutation_log: dict[int, tuple[str, int, int]] = {}
        observations: list[tuple[int, int, tuple, int]] = []
        observation_lock = threading.Lock()
        failures: list[BaseException] = []

        def writer(slot: int) -> None:
            rng = random.Random(100 + slot)
            owned: list[tuple[int, int]] = []
            try:
                for step in range(OPS_PER_WRITER):
                    if owned and rng.random() < 0.4:
                        code, tuple_id = owned.pop(
                            rng.randrange(len(owned))
                        )
                        epoch = service.delete(code, tuple_id)
                        mutation_log[epoch] = ("delete", code, tuple_id)
                    else:
                        code = rng.getrandbits(BITS)
                        tuple_id = 10_000 * (slot + 1) + step
                        epoch = service.insert(code, tuple_id)
                        mutation_log[epoch] = ("insert", code, tuple_id)
                        owned.append((code, tuple_id))
            except BaseException as error:  # pragma: no cover
                failures.append(error)

        def reader(slot: int) -> None:
            rng = random.Random(200 + slot)
            # A small hot pool plus fresh random codes: exercises both
            # the cache-hit path and cold traversals.
            pool = [base[rng.randrange(len(base))] for _ in range(6)]
            try:
                for _ in range(QUERIES_PER_READER):
                    if rng.random() < 0.5:
                        query = pool[rng.randrange(len(pool))]
                    else:
                        query = rng.getrandbits(BITS)
                    threshold = rng.randrange(4)
                    result = service.select(query, threshold)
                    with observation_lock:
                        observations.append(
                            (query, threshold,
                             tuple(result.value), result.epoch)
                        )
            except BaseException as error:  # pragma: no cover
                failures.append(error)

        threads = [
            threading.Thread(target=writer, args=(slot,), name=f"w{slot}")
            for slot in range(WRITERS)
        ] + [
            threading.Thread(target=reader, args=(slot,), name=f"r{slot}")
            for slot in range(READERS)
        ]
        for thread in threads:
            thread.start()
        _join_all(threads)
        service.close()
        assert not failures, failures

        stats = service.stats()
        assert stats.served == READERS * QUERIES_PER_READER
        assert stats.rejected == 0 and stats.timed_out == 0
        assert stats.epoch == len(mutation_log)
        assert sorted(mutation_log) == list(
            range(1, len(mutation_log) + 1)
        ), "every mutation must get a unique consecutive epoch"

        # Replay the log into per-epoch states, then check every answer.
        state = {
            (code, tuple_id)
            for code, tuple_id in zip(base.codes, base.ids)
        }
        states = [set(state)]
        for epoch in range(1, len(mutation_log) + 1):
            op, code, tuple_id = mutation_log[epoch]
            if op == "insert":
                state.add((code, tuple_id))
            else:
                state.discard((code, tuple_id))
            states.append(set(state))
        for query, threshold, result, epoch in observations:
            expected = sorted(
                tuple_id
                for code, tuple_id in states[epoch]
                if (code ^ query).bit_count() <= threshold
            )
            assert sorted(result) == expected, (
                f"query {query:#x} h={threshold} at epoch {epoch}: "
                f"served {sorted(result)} != oracle {expected}"
            )

    def test_refresh_under_concurrent_readers(self):
        base = CodeSet(random_codes(BASE_SIZE, BITS, seed=3), BITS)
        replacement = CodeSet(
            random_codes(BASE_SIZE, BITS, seed=4), BITS
        )
        service = HammingQueryService(
            DynamicHAIndex.build(base),
            workers=4,
            max_batch=8,
            queue_limit=10_000,
        )
        base_state = set(zip(base.codes, base.ids))
        replacement_state = set(zip(replacement.codes, replacement.ids))
        observations: list[tuple[int, int, tuple, int]] = []
        observation_lock = threading.Lock()
        failures: list[BaseException] = []

        def reader(slot: int) -> None:
            rng = random.Random(slot)
            try:
                for _ in range(80):
                    query = rng.getrandbits(BITS)
                    result = service.select(query, 2)
                    with observation_lock:
                        observations.append(
                            (query, 2, tuple(result.value), result.epoch)
                        )
            except BaseException as error:  # pragma: no cover
                failures.append(error)

        threads = [
            threading.Thread(target=reader, args=(slot,), name=f"r{slot}")
            for slot in range(READERS)
        ]
        for thread in threads:
            thread.start()
        service.refresh(replacement)  # copy-on-swap mid-stream
        _join_all(threads)
        service.close()
        assert not failures, failures
        assert service.stats().refreshes == 1

        for query, threshold, result, epoch in observations:
            source = base_state if epoch == 0 else replacement_state
            expected = sorted(
                tuple_id
                for code, tuple_id in source
                if (code ^ query).bit_count() <= threshold
            )
            assert sorted(result) == expected

    def test_backpressure_storm_rejects_cleanly(self):
        base = CodeSet(random_codes(64, BITS, seed=9), BITS)
        service = HammingQueryService(
            DynamicHAIndex.build(base),
            workers=2,
            max_batch=4,
            queue_limit=8,
            cache_capacity=0,  # force every query through the index
        )
        outcomes = {"served": 0, "rejected": 0}
        outcome_lock = threading.Lock()
        failures: list[BaseException] = []

        def client(slot: int) -> None:
            rng = random.Random(slot)
            try:
                for _ in range(40):
                    query = rng.getrandbits(BITS)
                    try:
                        ticket = service.submit("select", query, 2)
                    except ServiceOverloadError as overload:
                        assert overload.retry_after_seconds >= 0
                        with outcome_lock:
                            outcomes["rejected"] += 1
                        continue
                    ticket.result(timeout=JOIN_TIMEOUT)
                    with outcome_lock:
                        outcomes["served"] += 1
            except BaseException as error:  # pragma: no cover
                failures.append(error)

        threads = [
            threading.Thread(target=client, args=(slot,), name=f"c{slot}")
            for slot in range(6)
        ]
        for thread in threads:
            thread.start()
        _join_all(threads)
        service.close()
        assert not failures, failures

        stats = service.stats()
        # Conservation: every submission was either served or rejected
        # with retry-after — nothing vanished, nothing deadlocked.
        assert outcomes["served"] + outcomes["rejected"] == 6 * 40
        assert stats.served == outcomes["served"]
        assert stats.rejected == outcomes["rejected"]


@pytest.mark.parametrize("cache_capacity", [0, 256])
def test_cache_on_and_off_agree_under_churn(cache_capacity):
    """The cache must never change an answer, only its cost."""
    base = CodeSet(random_codes(100, BITS, seed=21), BITS)
    service = HammingQueryService(
        DynamicHAIndex.build(base, rebuild_buffer=4),
        workers=2,
        max_batch=8,
        queue_limit=1000,
        cache_capacity=cache_capacity,
    )
    rng = random.Random(77)
    with service:
        for step in range(60):
            if step % 7 == 3:
                service.insert(rng.getrandbits(BITS), 5000 + step)
            query = base[rng.randrange(len(base))]
            result = service.select(query, 2)
            snapshot = service.snapshot_index()
            assert sorted(result.value) == sorted(snapshot.search(query, 2))
