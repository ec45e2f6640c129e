"""Served reads never fall back to the Dynamic HA-Index node walk.

Both services answer every read through the compiled plane of the
served index (:func:`repro.service.server.served_plane`).  These tests
make the node walk's single-query entry points raise, then check that
singleton ``select``, ``probe`` and ``knn`` misses still match the
nested-loops oracle on every serving set-up: a memory service, a
durable service reopened from its store, and the sharded service on the
serial and thread pools.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.nested_loops import NestedLoopsIndex
from repro.core.bitvector import CodeSet
from repro.core.dynamic_ha import DynamicHAIndex
from repro.core.knn import knn_select
from repro.data.synthetic import random_codes
from repro.service import HammingQueryService, ShardedQueryService
from repro.store.snapshot import LazySnapshotIndex

BITS = 20
NODE_WALK = ("search", "search_with_distances", "contains_within")


@pytest.fixture
def no_node_walk(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a served read reached the node walk")

    for cls in (DynamicHAIndex, LazySnapshotIndex):
        for name in NODE_WALK:
            if name in cls.__dict__:
                monkeypatch.setattr(cls, name, refuse)


def _codes() -> CodeSet:
    return CodeSet(random_codes(400, BITS, seed=21), BITS)


def _assert_serves_like_oracle(service, codes: CodeSet) -> None:
    oracle = NestedLoopsIndex.build(codes)
    rng = random.Random(5)
    queries = [rng.getrandbits(BITS) for _ in range(6)] + list(codes.codes[:3])
    for query in queries:
        threshold = rng.randrange(0, 6)
        assert sorted(service.select(query, threshold).value) == sorted(
            oracle.search(query, threshold)
        )
        assert service.probe(query, threshold).value == bool(
            oracle.search(query, threshold)
        )
        assert list(service.knn(query, 5).value) == knn_select(
            query, oracle, 5
        )


def test_memory_service(no_node_walk):
    codes = _codes()
    with HammingQueryService(DynamicHAIndex.build(codes), workers=1) as service:
        _assert_serves_like_oracle(service, codes)


def test_durable_service_reopened_from_store(no_node_walk, tmp_path):
    codes = _codes()
    durable = HammingQueryService(
        DynamicHAIndex.build(codes), data_dir=tmp_path / "d", workers=1
    )
    durable.insert(0xABCDE, 9001)
    durable.close(snapshot=False)
    grown = CodeSet([*codes.codes, 0xABCDE], BITS, [*codes.ids, 9001])
    with HammingQueryService.open(tmp_path / "d", workers=1) as service:
        _assert_serves_like_oracle(service, grown)
        assert 9001 in service.select(0xABCDE, 0).value


@pytest.mark.parametrize("pool", ["serial", "thread"])
def test_sharded_service(no_node_walk, pool):
    codes = _codes()
    with ShardedQueryService(
        codes, num_shards=3, pool=pool, pool_workers=2, workers=1
    ) as service:
        _assert_serves_like_oracle(service, codes)
