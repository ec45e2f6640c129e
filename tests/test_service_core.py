"""The one service core, at one shard and at four.

``HammingQueryService`` is the one-shard constructor of
``ShardedQueryService``; these tests run the paths the two share —
admission and the fused kNN micro-batch — through both constructors.
"""

from __future__ import annotations

import random

import pytest

from repro.core.bitvector import CodeSet
from repro.core.dynamic_ha import DynamicHAIndex
from repro.core.errors import InvalidParameterError
from repro.core.knn import knn_select
from repro.data.workloads import cluster_codes
from repro.service import HammingQueryService, ShardedQueryService, server

LENGTH = 16


def _codes() -> CodeSet:
    rng = random.Random(8)
    base = [rng.getrandbits(LENGTH) for _ in range(300)]
    # Repeated codes make equal distances, so the (distance, id) order
    # of ties is part of every answer.
    base += [base[i] for i in range(0, 300, 7)]
    return cluster_codes(CodeSet(base, LENGTH), 4)


def _service(codes: CodeSet, shards: int, **kwargs):
    if shards == 1:
        return HammingQueryService(DynamicHAIndex.build(codes), **kwargs)
    return ShardedQueryService(codes, num_shards=shards, **kwargs)


@pytest.mark.parametrize("shards", [1, 4])
def test_knn_micro_batch_matches_monolithic_index(shards, monkeypatch):
    codes = _codes()
    rng = random.Random(3)
    queries = [codes[rng.randrange(len(codes))] for _ in range(12)]
    queries += [query ^ (1 << rng.randrange(LENGTH)) for query in queries]
    schedules = []

    def counted(batch, index, k, *args, **kwargs):
        schedules.append(list(batch))
        return knn_select_batch(batch, index, k, *args, **kwargs)

    knn_select_batch = server.knn_select_batch
    monkeypatch.setattr(server, "knn_select_batch", counted)
    service = _service(
        codes, shards, workers=1, max_batch=64, cache_capacity=0,
        start=False,
    )
    tickets = [service.submit("knn", query, 10) for query in queries]
    service.start()
    answers = [ticket.result().value for ticket in tickets]
    stats = service.stats()
    service.close()

    monolithic = DynamicHAIndex.build(codes)
    assert answers == [
        tuple(knn_select(query, monolithic, 10)) for query in queries
    ]
    # One micro-batch held every miss, and its distinct queries ran
    # through one expanding-threshold schedule.
    assert stats.batches == 1
    assert schedules == [list(dict.fromkeys(queries))]


@pytest.mark.parametrize("shards", [1, 4])
def test_admission_and_refresh_raise_typed_errors(shards):
    codes = _codes()
    with _service(codes, shards, workers=1) as service:
        with pytest.raises(InvalidParameterError):
            service.submit("select", "0x1f", 2)
        with pytest.raises(InvalidParameterError):
            service.submit("probe", 3.0, 2)
        with pytest.raises(InvalidParameterError):
            service.submit("knn", codes[0], 2.5)
        prebuilt = DynamicHAIndex.build(codes)
        if shards == 1:
            assert service.refresh(prebuilt) == 1
        else:
            with pytest.raises(InvalidParameterError):
                service.refresh(prebuilt)
        assert service.knn(codes[0], 3).value
