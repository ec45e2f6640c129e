"""Extension bench: the compiled flat H-Search kernel vs. the node walk.

The paper's cost model (Section 6, Figure 6) counts distance
computations; both query planes in this repo do the *same* number of
them (``last_search_ops`` is checked equal in tests/test_flat_ha.py).
What the flat kernel changes is the constant factor: the per-node
Python interpreter dispatch of the tree walk becomes a handful of
vectorized numpy sweeps per level.  Three tables:

* single-query and batched latency per threshold, against the node
  walk and against the ``batch_select`` linear scan (the no-index
  baseline the paper beats);
* batched speedup across batch sizes (amortizing per-level fixed cost
  over the multi-query frontier);
* self-join throughput: node probes vs. flat batch probes vs. the
  process-parallel probe plane.

Results are recorded both as text tables and as machine-readable
``benchmarks/results/BENCH_kernel.json`` (consumed by CI).
"""

from __future__ import annotations

import json
import time

import pytest

from repro.core.bitvector import batch_select
from repro.core.dynamic_ha import DynamicHAIndex
from repro.core.join import self_join

from benchmarks.harness import (
    RESULTS_DIR,
    paper_codes,
    profile_queries,
    record,
    render_table,
    sample_queries,
    scale,
    scaled,
)

WORKLOAD_SIZE = 30_000
JOIN_SIZE = 6_000
NUM_QUERIES = 64
THRESHOLDS = (1, 3, 5)
BATCH_SIZES = (16, 32, 64)
REPEATS = 5
JOIN_WORKERS = 4


@pytest.fixture(scope="module")
def kernel_workload():
    codes = paper_codes("NUS-WIDE", scaled(WORKLOAD_SIZE))
    index = DynamicHAIndex.build(codes)
    flat = index.compile()
    queries = sample_queries(codes, NUM_QUERIES, seed=3)
    return codes, index, flat, queries


def _best_of(run, repeats: int = REPEATS) -> float:
    """Best wall-clock of ``repeats`` runs after one warm-up call."""
    run()
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def _per_query_ms(run, queries) -> float:
    return _best_of(run) / len(queries) * 1000.0


def _batched(queries, size):
    return [queries[lo:lo + size] for lo in range(0, len(queries), size)]


def _write_json(payload: dict) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "BENCH_kernel.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_flat_kernel_speedup(benchmark, kernel_workload):
    """Acceptance (full scale): >= 4x single-query, >= 10x batched."""
    codes, index, flat, queries = kernel_workload
    packed = codes.packed()

    def run():
        rows = []
        measured = {}
        for threshold in THRESHOLDS:
            node_ms = _per_query_ms(
                lambda: [index.search(q, threshold) for q in queries],
                queries,
            )
            flat_ms = _per_query_ms(
                lambda: [flat.search(q, threshold) for q in queries],
                queries,
            )
            batches = _batched(queries, 32)
            batch_ms = _per_query_ms(
                lambda: [flat.search_batch(b, threshold) for b in batches],
                queries,
            )
            scan_ms = _per_query_ms(
                lambda: [
                    batch_select(packed, q, threshold) for q in queries
                ],
                queries,
            )
            measured[threshold] = {
                "node_ms": node_ms,
                "flat_ms": flat_ms,
                "batch32_ms": batch_ms,
                "scan_ms": scan_ms,
                "flat_speedup": node_ms / flat_ms,
                "batch32_speedup": node_ms / batch_ms,
            }
            rows.append(
                [
                    f"h={threshold}",
                    f"{node_ms:.3f}",
                    f"{flat_ms:.3f}",
                    f"{node_ms / flat_ms:.1f}x",
                    f"{batch_ms:.3f}",
                    f"{node_ms / batch_ms:.1f}x",
                    f"{scan_ms:.3f}",
                ]
            )
        table = render_table(
            f"Extension: flat H-Search kernel vs node walk "
            f"(NUS-WIDE-like, n={len(codes)}, {len(queries)} queries, "
            f"best of {REPEATS})",
            ["threshold", "node ms", "flat ms", "speedup",
             "batch32 ms", "speedup", "scan ms"],
            rows,
            note=(
                "Identical result sets and identical distance-"
                "computation counts; the flat kernel only replaces "
                "per-node Python dispatch with level-major numpy "
                "sweeps.  The scan column is the no-index "
                "batch_select baseline."
            ),
        )
        return measured, table

    measured, table = benchmark.pedantic(run, rounds=1, iterations=1)
    record("ext_kernel_select", table)

    sizes = {}
    for size in BATCH_SIZES:
        batches = _batched(queries, size)
        batch_ms = _per_query_ms(
            lambda: [flat.search_batch(b, 3) for b in batches], queries
        )
        sizes[size] = {
            "batch_ms": batch_ms,
            "speedup": measured[3]["node_ms"] / batch_ms,
        }
    size_table = render_table(
        f"Extension: batched kernel speedup by batch size "
        f"(n={len(codes)}, h=3)",
        ["batch", "ms/query", "speedup vs node walk"],
        [
            [size, f"{cell['batch_ms']:.3f}", f"{cell['speedup']:.1f}x"]
            for size, cell in sizes.items()
        ],
        note=(
            "One frontier sweep per level serves the whole batch; "
            "per-level fixed costs amortize with batch size."
        ),
    )
    record("ext_kernel_batch", size_table)
    json_path = RESULTS_DIR / "BENCH_kernel.json"
    previous = json.loads(json_path.read_text()) if json_path.exists() else {}
    _write_json(
        {
            # The measured verdict on the removed bit-sliced layout
            # stays on record across re-runs.
            "bitslice": previous.get("bitslice"),
            "workload": "NUS-WIDE-like",
            "n": len(codes),
            "bits": codes.length,
            "num_queries": len(queries),
            "repeats": REPEATS,
            "scale": scale(),
            "select": {str(h): cell for h, cell in measured.items()},
            "batch_sizes": {str(s): cell for s, cell in sizes.items()},
            # Per-phase span breakdown (h=3): where each engine's time
            # and distance computations go, level by level.
            "profile": {
                "nodes": profile_queries(index, queries[:16], 3),
                "flat": profile_queries(flat, queries[:16], 3),
            },
        }
    )
    if scale() >= 1.0:
        # Measured range across machines is 4.6x-5.7x for the
        # single-query path (the gate is the floor of that range, not
        # the headline); the batched path is the stable >= 10x claim.
        assert measured[3]["flat_speedup"] >= 4.0, (
            f"single-query flat kernel {measured[3]['flat_speedup']:.1f}x "
            f"must be >= 4x at h=3"
        )
        assert measured[3]["batch32_speedup"] >= 10.0, (
            f"batched flat kernel {measured[3]['batch32_speedup']:.1f}x "
            f"must be >= 10x at h=3"
        )
    else:
        assert measured[3]["flat_speedup"] >= 1.0
        assert measured[3]["batch32_speedup"] >= 1.0


def test_native_kernel_speedup(benchmark, kernel_workload):
    """Acceptance (full scale): native >= 5x over flat single-query at h=3.

    The native plane compiles the identical level-major sweep to
    machine code (a runtime-compiled C library), so the wins below are
    pure constant-factor: same visits, same emissions, same op counts
    (asserted here and in the differential suite).
    """
    from repro.core import native as native_backends

    codes, index, flat, queries = kernel_workload
    nat = index.compile_native()
    backend = nat.backend

    def run():
        rows = []
        measured = {}
        for threshold in THRESHOLDS:
            flat_ms = _per_query_ms(
                lambda: [flat.search(q, threshold) for q in queries],
                queries,
            )
            native_ms = _per_query_ms(
                lambda: [nat.search(q, threshold) for q in queries],
                queries,
            )
            batches = _batched(queries, 32)
            batch_ms = _per_query_ms(
                lambda: [nat.search_batch(b, threshold) for b in batches],
                queries,
            )
            measured[threshold] = {
                "flat_ms": flat_ms,
                "native_ms": native_ms,
                "native_batch32_ms": batch_ms,
                "native_speedup": flat_ms / native_ms,
                "native_batch32_speedup": flat_ms / batch_ms,
            }
            rows.append(
                [
                    f"h={threshold}",
                    f"{flat_ms:.3f}",
                    f"{native_ms:.4f}",
                    f"{flat_ms / native_ms:.1f}x",
                    f"{batch_ms:.4f}",
                    f"{flat_ms / batch_ms:.1f}x",
                ]
            )
        return measured, rows

    measured, rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = render_table(
        f"Extension: native H-Search kernel ({backend}) vs flat numpy "
        f"kernel (NUS-WIDE-like, n={len(codes)}, {len(queries)} "
        f"queries, best of {REPEATS})",
        ["threshold", "flat ms", "native ms", "speedup",
         "batch32 ms", "speedup"],
        rows,
        note=(
            f"Backend: {backend} (tiers: cc > numpy; "
            f"REPRO_NATIVE overrides).  Identical answers and "
            f"identical per-level op accounting are enforced by "
            f"bench-kernel --verify and the differential suite."
        ),
    )
    record("ext_kernel_native", table)

    # Answer-set sanity directly on the benched workload.
    for threshold in THRESHOLDS:
        for q in queries[:8]:
            assert nat.search(q, threshold) == flat.search(q, threshold)
            assert nat.last_search_ops == flat.last_search_ops

    json_path = RESULTS_DIR / "BENCH_kernel.json"
    payload = json.loads(json_path.read_text()) if json_path.exists() else {}
    payload["native"] = {
        "backend": backend,
        "requested": native_backends.requested_backend(),
        "select": {str(h): cell for h, cell in measured.items()},
        "methodology": (
            "same workload/queries as the flat rows; best-of-"
            f"{REPEATS} wall clock per cell after one warm-up; "
            "speedups are vs the flat numpy single-query path"
        ),
    }
    _write_json(payload)
    if scale() >= 1.0 and backend != "numpy":
        assert measured[3]["native_speedup"] >= 5.0, (
            f"native kernel {measured[3]['native_speedup']:.1f}x over "
            f"flat must be >= 5x at h=3"
        )
    else:
        assert measured[3]["native_speedup"] >= 0.5


def test_parallel_join_throughput(benchmark, kernel_workload):
    """Flat batch probes beat node probes; parallel plane stays exact."""
    codes, _, _, _ = kernel_workload
    join_codes = codes.subset(range(scaled(JOIN_SIZE)))

    def run():
        timings = {}
        pair_counts = {}
        for label, kwargs in (
            ("nodes", {"engine": "nodes"}),
            ("flat", {"engine": "flat"}),
            (f"flat +{JOIN_WORKERS} workers",
             {"engine": "flat", "parallel": True,
              "workers": JOIN_WORKERS}),
        ):
            started = time.perf_counter()
            pairs = self_join(join_codes, 3, **kwargs)
            timings[label] = time.perf_counter() - started
            pair_counts[label] = len(pairs)
        return timings, pair_counts

    timings, pair_counts = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(set(pair_counts.values())) == 1, (
        f"every probe plane must return the same pair set: {pair_counts}"
    )
    node_s = timings["nodes"]
    table = render_table(
        f"Extension: self h-join probe planes "
        f"(n={len(join_codes)}, h=3, {next(iter(pair_counts.values()))} "
        f"pairs)",
        ["probe plane", "seconds", "speedup"],
        [
            [label, f"{seconds:.2f}", f"{node_s / seconds:.1f}x"]
            for label, seconds in timings.items()
        ],
        note=(
            "All planes emit identical pair sets (asserted).  The "
            "parallel plane ships the pickled flat kernel to a "
            "process pool and probes distinct codes in chunks; it "
            "pays serialization once per worker, so it needs large "
            "probe sides to win."
        ),
    )
    record("ext_kernel_join", table)
    json_path = RESULTS_DIR / "BENCH_kernel.json"
    payload = json.loads(json_path.read_text()) if json_path.exists() else {}
    payload["self_join"] = {
        "n": len(join_codes),
        "pairs": next(iter(pair_counts.values())),
        "seconds": timings,
        "speedup_flat": node_s / timings["flat"],
    }
    _write_json(payload)
    if scale() >= 1.0:
        assert timings["flat"] < node_s, (
            "flat batch probes must beat the node walk on the join"
        )
