"""Unit tests for the tiered native H-Search backend plane.

:mod:`repro.core.native` compiles the flat kernel's level-major sweep
to a runtime-compiled C library with the numpy sweeps as the
always-available fallback.  These tests pin the selection machinery
(``REPRO_NATIVE``, :func:`force_backend`), the lifecycle corners
(pickling, rebuffered clones, tracing delegation, multi-word codes),
and the capacity/retry behaviour of the batch sweep.  Byte-identical
*answer* agreement across backends is covered by the differential
suite; here we exercise the plumbing around it.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.core import native
from repro.core.bitvector import CodeSet
from repro.core.dynamic_ha import DynamicHAIndex
from repro.core.engines import build_index, get_engine
from repro.core.errors import InvalidParameterError
from repro.core.knn import knn_select
from repro.core.native_ha import NativeHAIndex

WIDTH = 32


def _corpus(seed: int, n: int = 200, width: int = WIDTH) -> CodeSet:
    rng = random.Random(seed)
    codes = [rng.getrandbits(width) for _ in range(n)]
    for _ in range(n // 5):
        codes[rng.randrange(n)] = codes[rng.randrange(n)]
    return CodeSet(codes, width)


class TestBackendSelection:
    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv(native.ENV_VAR, raising=False)
        assert native.requested_backend() == "auto"

    def test_env_var_honoured(self, monkeypatch):
        monkeypatch.setenv(native.ENV_VAR, " NumPy ")
        assert native.requested_backend() == "numpy"
        assert native.active_backend() == "numpy"

    def test_unknown_env_value_falls_back_to_auto(self, monkeypatch):
        monkeypatch.setenv(native.ENV_VAR, "turbo")
        assert native.requested_backend() == "auto"

    def test_force_backend_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(native.ENV_VAR, "numpy")
        with native.force_backend("auto"):
            assert native.requested_backend() == "auto"
        assert native.requested_backend() == "numpy"

    def test_force_backend_nests_and_restores(self):
        with native.force_backend("numpy"):
            with native.force_backend("auto"):
                assert native.requested_backend() == "auto"
            assert native.requested_backend() == "numpy"

    def test_force_backend_rejects_unknown(self):
        with pytest.raises(ValueError):
            with native.force_backend("turbo"):
                pass  # pragma: no cover

    def test_active_backend_is_a_valid_tier(self):
        assert native.active_backend() in ("cc", "numpy")

    def test_registry_resolves_native_and_aliases(self):
        assert get_engine("native").name == "native"
        assert get_engine("jit").name == "native"
        assert get_engine("compiled").name == "native"
        assert get_engine("native").batched
        index = build_index("native", _corpus(1, n=60))
        assert isinstance(index, NativeHAIndex)


class TestNativeIndexLifecycle:
    def test_matches_node_walk_with_exact_ops(self):
        codes = _corpus(2)
        dha = DynamicHAIndex.build(codes)
        nat = dha.compile_native()
        rng = random.Random(7)
        for threshold in (0, 1, 3, 6):
            query = rng.getrandbits(WIDTH)
            expected = sorted(dha.search(query, threshold))
            node_ops = dha.last_search_ops
            assert sorted(nat.search(query, threshold)) == expected
            assert nat.last_search_ops == node_ops

    def test_pickle_drops_backend_state(self):
        nat = DynamicHAIndex.build(_corpus(3)).compile_native()
        query = _corpus(3).codes[0]
        before = nat.search(query, 3)
        ops = nat.last_search_ops
        clone = pickle.loads(pickle.dumps(nat))
        # ctypes pointers never cross the wire;
        # the receiver rebuilds its own state on first query.
        assert "_native_state" not in clone.__dict__
        assert clone.search(query, 3) == before
        assert clone.last_search_ops == ops
        assert clone.backend == nat.backend

    def test_rebuffered_clone_shares_tree_and_state(self):
        codes = _corpus(4)
        dha = DynamicHAIndex.build(codes)
        first = dha.compile_native()
        first.search(codes.codes[0], 2)  # materialize backend state
        new_code = 0xDEADBEEF & ((1 << WIDTH) - 1)
        dha.insert(new_code, 9001)  # stays in the insert buffer
        second = dha.compile_native()
        assert second is not first
        # Buffer-only growth reuses the flattened tree arrays (and with
        # them any bound native state) — only the buffer is resnapped.
        assert second._bits1 is first._bits1
        if first.backend != "numpy":
            assert second._native_state is first._native_state
        assert 9001 in second.search(new_code, 0)
        assert 9001 not in first.search(new_code, 0)

    def test_native_view_shares_the_flat_kernel(self):
        dha = DynamicHAIndex.build(_corpus(15))
        flat = dha.compile()
        nat = dha.compile_native()
        # One flatten serves both planes: the view shares every array.
        assert nat._bits is flat._bits
        assert nat._ids_flat is flat._ids_flat
        assert dha.compile_native() is nat
        nat.search(_corpus(15).codes[0], 2)  # bind backend state
        clone = pickle.loads(pickle.dumps(flat))
        assert "_native_view" not in clone.__dict__
        assert "_native_state" not in clone.__dict__

    def test_tracing_delegates_with_exact_spans(self):
        from repro.obs import last_trace, render_span_tree, trace

        codes = _corpus(5)
        nat = DynamicHAIndex.build(codes).compile_native()
        query = codes.codes[3]
        plain = nat.search(query, 3)
        with trace("h_select", engine="native", threshold=3):
            traced = nat.search(query, 3)
        tree = last_trace()
        assert traced == plain
        # Under tracing the instrumented numpy sweeps answer, labelled
        # as the native plane, and the per-level spans must sum to the
        # op counter exactly.
        assert tree.total_ops == nat.last_search_ops
        rendered = render_span_tree(tree)
        assert "engine=native" in rendered
        assert "h_search.level" in rendered

    def test_multiword_codes_fall_back_to_numpy(self):
        codes = _corpus(6, n=80, width=96)
        dha = DynamicHAIndex.build(codes)
        nat = dha.compile_native()
        assert nat.backend == "numpy"
        query = codes.codes[0]
        assert sorted(nat.search(query, 5)) == sorted(dha.search(query, 5))
        assert nat.last_search_ops == dha.last_search_ops

    def test_env_numpy_disables_native(self, monkeypatch):
        monkeypatch.setenv(native.ENV_VAR, "numpy")
        codes = _corpus(7, n=80)
        nat = DynamicHAIndex.build(codes).compile_native()
        assert nat.backend == "numpy"
        query = codes.codes[0]
        assert sorted(nat.search(query, 2)) == sorted(
            DynamicHAIndex.build(codes).search(query, 2)
        )


class TestSharedFront:
    """Both tiers answer through one front above the sweep primitive."""

    @pytest.mark.parametrize("backend", ["auto", "numpy"])
    def test_non_integer_inputs_raise_typed_error(self, backend):
        codes = _corpus(16)
        nat = DynamicHAIndex.build(codes).compile_native()
        query = codes.codes[0]
        calls = [
            lambda: nat.search(query, 2.0),
            lambda: nat.search_batch([query], 2.0),
            lambda: nat.count_within(query, 2.0),
            lambda: nat.contains_within(query, 2.0),
            lambda: nat.search_with_distances(float(query), 2),
            lambda: nat.search_codes_batch([query, "1"], 2),
        ]
        with native.force_backend(backend):
            for call in calls:
                with pytest.raises(InvalidParameterError):
                    call()
            # Integer-likes still answer, exactly as plain ints do.
            assert nat.search(np.uint64(query), np.int64(2)) == nat.search(
                query, 2
            )

    @pytest.mark.parametrize("backend", ["auto", "numpy"])
    def test_count_and_probe_leave_last_search_ops(self, backend):
        codes = _corpus(17)
        nat = DynamicHAIndex.build(codes).compile_native()
        query = codes.codes[0]
        with native.force_backend(backend):
            nat.search(query, 3)
            ops = nat.last_search_ops
            assert ops > 0
            assert nat.count_within(query, 6) >= 1
            assert nat.contains_within(query ^ 1, 2)
            assert nat.last_search_ops == ops


class TestBatchCapacity:
    def test_batch_retry_doubling_on_dense_answers(self):
        # Every tuple shares one code: each of the 64 queries emits all
        # 300 ids, so the first batch buffer (sized like one query's
        # worst case) must overflow and the retry-doubling loop engage.
        n = 300
        codes = CodeSet([0x1234ABCD] * n, WIDTH)
        nat = DynamicHAIndex.build(codes).compile_native()
        queries = [0x1234ABCD] * 64
        expected = list(range(n))
        for ids in nat.search_batch(queries, 0):
            assert sorted(ids) == expected
        pairs = nat.search_with_distances_batch(queries, 1)
        for per_query in pairs:
            assert sorted(tid for tid, _ in per_query) == expected
            assert all(distance == 0 for _, distance in per_query)

    def test_thresholds_beyond_code_length_clamp(self):
        codes = _corpus(8, n=90)
        nat = DynamicHAIndex.build(codes).compile_native()
        query = codes.codes[0]
        assert nat.count_within(query, WIDTH) == len(nat)
        assert nat.contains_within(query, WIDTH)
        assert sorted(nat.search(query, WIDTH)) == sorted(codes.ids)

    def test_empty_batch(self):
        nat = DynamicHAIndex.build(_corpus(9, n=40)).compile_native()
        assert nat.search_batch([], 3) == []
        assert nat.search_with_distances_batch([], 3) == []


class TestServiceFusing:
    def test_knn_misses_fuse_through_batch_kernel(self):
        from repro.service import HammingQueryService

        codes = _corpus(10)
        index = DynamicHAIndex.build(codes).compile_native()
        # Staged before the one worker starts, so one micro-batch holds
        # every miss and the kNN group runs one fused schedule.
        service = HammingQueryService(index, workers=1, start=False)
        rng = random.Random(11)
        knn_queries = [rng.getrandbits(WIDTH) for _ in range(3)]
        select_query = rng.getrandbits(WIDTH)
        tickets = {
            ("knn", query, 5): service.submit("knn", query, 5)
            for query in knn_queries
        }
        tickets[("select", select_query, 2)] = service.submit(
            "select", select_query, 2
        )
        service.start()
        results = {key: t.result().value for key, t in tickets.items()}
        for query in knn_queries:
            assert results[("knn", query, 5)] == tuple(
                knn_select(query, index, 5)
            )
        assert results[("select", select_query, 2)] == tuple(
            sorted(index.search(select_query, 2))
        )
        service.close()

    def test_native_kernel_plane_survives_live_mutations(self):
        """The service reads a mutable DHA through its native view,
        and the mutation-count cache keying keeps the answers current
        across live inserts and deletes."""
        from repro.service import HammingQueryService

        codes = _corpus(12)
        index = DynamicHAIndex.build(codes)
        service = HammingQueryService(
            index, cache_capacity=0, workers=1, start=False
        )
        rng = random.Random(13)
        queries = [rng.getrandbits(WIDTH) for _ in range(3)]

        def served() -> list[tuple]:
            tickets = [service.submit("select", q, 3) for q in queries]
            service.start()
            return [ticket.result().value for ticket in tickets]

        before = served()
        for query, value in zip(queries, before):
            assert value == tuple(sorted(index.search(query, 3)))
        # A buffered insert at distance 0 from the first query must be
        # visible to the very next batch through the same plane.
        service.insert(queries[0], 9001)
        after = served()
        assert 9001 in after[0]
        for query, value in zip(queries, after):
            assert value == tuple(sorted(index.search(query, 3)))
        service.delete(queries[0], 9001)
        assert served() == before
        service.close()
