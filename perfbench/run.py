"""End-to-end serving benchmark: one workload per invocation.

    python3 perfbench/run.py --workload hot-30k --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The service stack runs in this
process; two load threads drive it (see ``loadgen``).  A run:

1. loads the workload's corpus (cached under ``perfbench/.cache``) and
   generates its request streams from ``--seed``;
2. sets the service up (index build, store initialise or shard build,
   service start, and a warm-up batch that lands the lazy kernel
   compile), three times, keeping the last one;
3. runs the open loop for 70% of ``--seconds`` and the drain for 30%;
4. restarts the durable service from its store (WAL replay);
5. checks every read answer against the nested-loops oracle.

The last line of standard output is one JSON object: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A traced run makes two passes of half length on fresh services, the
first untraced and the second with ``layers.LayerTimers`` installed;
the difference between them is the tracing overhead.  A wrong answer
exits 1 after printing; a run whose sender fell behind its schedule by
more than ``LAG_BOUND_MS`` at p99 is invalid and exits 3 unprinted.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

if not (ROOT / "src" / "repro").is_dir():
    print(f"perfbench: no src/repro under {ROOT}; run from a checkout",
          file=sys.stderr)
    sys.exit(2)

sys.path[1:1] = [str(ROOT / "src"), str(ROOT)]
WORK = HERE / ".work" / f"run-{os.getpid()}"
os.environ["TMPDIR"] = str(WORK / "tmp")
os.environ["REPRO_NATIVE_CACHE"] = str(HERE / ".cache" / "native")

import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

import loadgen  # noqa: E402
from layers import LayerTimers  # noqa: E402
from oracle import Oracle  # noqa: E402
from workloads import (  # noqa: E402
    READS,
    WORKLOADS,
    cache_path,
    corpus,
    make_codes,
    make_inputs,
)

from repro.core.dynamic_ha import DynamicHAIndex  # noqa: E402
from repro.service import HammingQueryService, ShardedQueryService  # noqa: E402

#: Share of ``--seconds`` given to the open loop; the drain gets the rest.
OPEN_SHARE = 0.7
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Share of the open loop's reads, from its start, left out of the
#: latency statistics: on ``hot-30k`` the result cache is still filling
#: then, and p90 sat on the edge between hits and first-time misses.
RAMP_SHARE = 0.25
#: Sender lag (p99, ms) above which a run is invalid.
LAG_BOUND_MS = 250.0
#: Numbers the store directories of one run.
STORE_IDS = itertools.count()
#: Service settings every workload shares; all else is a default.
SERVICE_WORKERS = 2
SHARDS = 4
POOL_WORKERS = 2


# -- set-up ------------------------------------------------------------------


def build_service(workload, codes, data_dir: Path):
    if workload.service == "sharded":
        return ShardedQueryService(
            codes,
            num_shards=SHARDS,
            pool="thread",
            pool_workers=POOL_WORKERS,
            workers=SERVICE_WORKERS,
        )
    index = DynamicHAIndex.build(codes)
    if workload.service == "durable":
        return HammingQueryService(
            index, workers=SERVICE_WORKERS, data_dir=str(data_dir)
        )
    return HammingQueryService(index, workers=SERVICE_WORKERS)


def warm_up(service, workload, queries) -> None:
    """Answer one batch of each read kind, so lazy compiles happen now.

    The requests are submitted back to back; if no micro-batch held two
    of them (the workers kept up), the round is repeated.
    """
    for kind, _, param in workload.mix:
        if kind not in READS:
            continue
        for _ in range(5):
            before = service.stats()
            tickets = [service.submit(kind, q, param) for q in queries]
            for ticket in tickets:
                ticket.result()
            after = service.stats()
            if after.batches - before.batches < len(queries):
                break


def set_up(workload, codes, data_dir: Path, warmup):
    started = time.perf_counter()
    service = build_service(workload, codes, data_dir)
    warm_up(service, workload, warmup)
    return service, time.perf_counter() - started


def rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def close(service, snapshot: bool = True) -> None:
    service.close(snapshot=snapshot)
    gc.collect()


# -- restart ---------------------------------------------------------------


def recover(service, data_dir: Path, query: int):
    """Close the durable service without a final snapshot and time its
    reopening (snapshot load plus WAL replay) to the first answered
    read."""
    close(service, snapshot=False)
    started = time.perf_counter()
    service = HammingQueryService.open(str(data_dir), workers=SERVICE_WORKERS)
    served = service.select(query, 3)
    return service, time.perf_counter() - started, served


# -- one pass ----------------------------------------------------------------


def serve_pass(workload, codes, inputs, seconds, setups, timers=None):
    """Set up, drive both phases, restart; returns raw results."""
    stream, warmup = inputs
    open_count = max(1, round(workload.rate * seconds * OPEN_SHARE))
    out = {"setup_s": []}
    service = data_dir = None
    for attempt in range(setups):
        if service is not None:
            close(service)
            shutil.rmtree(data_dir, ignore_errors=True)
        data_dir = WORK / f"store-{next(STORE_IDS)}"
        gc.collect()
        before = rss_mb()
        service, elapsed = set_up(workload, codes, data_dir, warmup)
        out["setup_s"].append(elapsed)
        if attempt == 0:
            out["rss_mb"] = rss_mb() - before
    base = service.stats()
    if timers is not None:
        timers.__enter__()
        timers.wrap_submit(service)
    try:
        opened = loadgen.open_loop(
            service, stream[:open_count], workload.rate
        )
        drained = loadgen.drain(
            service, stream[open_count:], seconds * (1.0 - OPEN_SHARE)
        )
        out["open"], out["drain"] = opened, drained
        out["stats"] = _delta(base, service.stats())
        if workload.service == "sharded":
            out["shards"] = service.shard_stats()
        if timers is not None:
            out["samples"] = {k: list(v) for k, v in timers.samples.items()}
        out["log"] = opened.applied_writes + drained.applied_writes
        out["reads"] = opened.reads + drained.reads
        if workload.service == "durable":
            service, out["recover_s"], served = recover(
                service, data_dir, warmup[0]
            )
            out["reads"].append(
                (("select", warmup[0], 3), served.epoch, served.value)
            )
            out["recovered_epoch"] = served.epoch
            out["store"] = service.store.stats()
            if timers is not None:
                out["samples"]["store.open"] = list(
                    timers.samples["store.open"]
                )
    finally:
        if timers is not None:
            timers.__exit__(None, None, None)
        close(service)
    return out


def _delta(before, after) -> dict:
    """Service counters accumulated between two stats snapshots."""
    fields = ("served", "rejected", "batches", "batched_requests",
              "executed", "dedup_saved")
    delta = {f: getattr(after, f) - getattr(before, f) for f in fields}
    delta["hits"] = after.cache.hits - before.cache.hits
    delta["misses"] = after.cache.misses - before.cache.misses
    delta["internal_p50_ms"] = after.latency["p50_ms"]
    return delta


def check(codes, out) -> tuple[int, Oracle]:
    """Wrong answers among the pass's reads, by the nested-loops oracle.

    A recovered durable service must also resume at the epoch its whole
    write log leads to.
    """
    oracle = Oracle(codes, out["log"])
    wrong = oracle.mismatches(out["reads"])
    if out.get("recovered_epoch", len(out["log"])) != len(out["log"]):
        wrong += 1
    return wrong, oracle


# -- metrics -----------------------------------------------------------------


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(out) -> dict:
    opened, drained = out["open"], out["drain"]
    latencies = opened.read_ms[int(len(opened.read_ms) * RAMP_SHARE):]
    return {
        "setup_s": (statistics.median(out["setup_s"]), "s"),
        "read_p50_ms": (pct(latencies, 50), "ms"),
        "read_p90_ms": (pct(latencies, 90), "ms"),
        "throughput_qps": (drained.completed / drained.elapsed_s, "req/s"),
        "rss_mb": (out["rss_mb"], "MB"),
    }


def per_layer(out, untraced, oracle) -> dict:
    s = out["stats"]
    samples = defaultdict(list, out["samples"])
    kernel = samples["kernel"]
    kernel_queries = sum(q for _, q, _ in kernel)
    knn = samples["knn"]
    knn_queries = sum(q for _, q in knn)
    shards = out.get("shards")
    store = out.get("store")
    appends = [t for t, in samples["store.append"]]
    writes = out["open"].write_ms
    traced_e2e = end_to_end(out)
    plain_e2e = end_to_end(untraced)
    served_ms = 1000.0 / traced_e2e["throughput_qps"][0]
    return {
        "admission.submit_us_p50": (
            pct([t for t, in samples["admission"]], 50) * 1e6, "us"),
        "admission.rejected": (s["rejected"], "count"),
        "batching.mean_batch": (
            s["batched_requests"] / max(1, s["batches"]), "req/batch"),
        "cache.hit_rate": (s["hits"] / max(1, s["hits"] + s["misses"]), "ratio"),
        "cache.dedup_saved": (s["dedup_saved"], "count"),
        "server.traversals_per_read": (
            s["executed"] / max(1, s["served"]), "ratio"),
        "server.internal_p50_ms": (s["internal_p50_ms"], "ms"),
        "dha.search_calls": (len(samples["dha"]), "count"),
        "dha.search_ms_per_call": (_mean_ms(samples["dha"]), "ms"),
        "kernel.batch_calls": (len(kernel), "count"),
        "kernel.queries_per_call": (kernel_queries / max(1, len(kernel)), "queries"),
        "kernel.batch_ms_per_query": (
            sum(t for t, _, _ in kernel) * 1000.0 / max(1, kernel_queries), "ms"),
        "kernel.ops_per_query": (
            sum(o for _, _, o in kernel) / max(1, kernel_queries), "ops"),
        "knn.batch_calls": (sum(1 for _, q in knn if q > 1), "count"),
        "knn.sweeps_per_query": (
            len(samples["knn.sweeps"]) / max(1, knn_queries), "ratio"),
        "compile.calls": (len(samples["compile"]), "count"),
        "compile.ms": (sum(t for t, in samples["compile"]) * 1000.0, "ms"),
        "store.write_p50_ms": (pct(writes, 50), "ms"),
        "store.write_p99_ms": (pct(writes, 99), "ms"),
        "store.recover_s": (out.get("recover_s", 0.0), "s"),
        "store.append_ms_p50": (pct(appends, 50) * 1000.0, "ms"),
        "store.wal_appends": (len(appends), "count"),
        "store.wal_replayed": (store.wal_replayed if store else 0, "count"),
        "store.open_ms": (_mean_ms(samples["store.open"]), "ms"),
        "planner.mean_contacted": (
            shards.mean_contacted if shards else 0.0, "shards"),
        "planner.pruning_ratio": (
            shards.pruning_ratio if shards else 0.0, "ratio"),
        "executor.tasks": (shards.pool_tasks if shards else 0, "count"),
        "executor.busy_s": (shards.pool_busy_seconds if shards else 0.0, "s"),
        "executor.fallbacks": (shards.pool_fallbacks if shards else 0, "count"),
        "scan.ms_per_query": (oracle.ms_per_query, "ms"),
        "speedup_vs_scan": (oracle.ms_per_query / served_ms, "x"),
        "loadgen.sent": (out["open"].sent + out["drain"].sent, "count"),
        "loadgen.lag_p99_ms": (pct(out["open"].lag_ms, 99), "ms"),
        "trace.read_p50_overhead_ms": (
            traced_e2e["read_p50_ms"][0] - plain_e2e["read_p50_ms"][0], "ms"),
        "trace.throughput_overhead_qps": (
            traced_e2e["throughput_qps"][0] - plain_e2e["throughput_qps"][0],
            "req/s"),
    }


def _mean_ms(samples) -> float:
    return sum(t for t, *_ in samples) * 1000.0 / len(samples) if samples else 0.0


# -- entry point -------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-codes", type=int, metavar="N",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.make_codes is None and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(args) -> int:
    if args.make_codes is not None:
        make_codes(args.make_codes, cache_path(args.make_codes))
        return 0
    workload = WORKLOADS[args.workload]
    codes = corpus(workload, ROOT)
    inputs = make_inputs(workload, codes, args.seed, args.seconds * OPEN_SHARE)
    if args.trace:
        half = args.seconds / 2.0
        timers = LayerTimers()
        passes = [
            serve_pass(workload, codes, inputs, half, 1),
            serve_pass(workload, codes, inputs, half, 1, timers),
        ]
    else:
        passes = [
            serve_pass(workload, codes, inputs, args.seconds, SETUPS)
        ]
    wrong = 0
    checked = time.perf_counter()
    for out in passes:
        mismatched, oracle = check(codes, out)
        wrong += mismatched
    checked = time.perf_counter() - checked
    print(
        f"perfbench: {workload.name} seed {args.seed}: set-up "
        f"{sum(sum(out['setup_s']) for out in passes):.1f} s, oracle "
        f"{checked:.1f} s over {oracle.scans} scans",
        file=sys.stderr,
    )
    lag = max(pct(out["open"].lag_ms, 99) for out in passes)
    if lag > LAG_BOUND_MS:
        print(
            f"perfbench: invalid run: sender lag p99 {lag:.1f} ms exceeds "
            f"{LAG_BOUND_MS:.0f} ms",
            file=sys.stderr,
        )
        return 3
    if args.trace:
        metrics = per_layer(passes[1], passes[0], oracle)
    else:
        metrics = end_to_end(passes[0])
    phases = [out[phase] for out in passes for phase in ("open", "drain")]
    restarts = sum("recover_s" in out for out in passes)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": sum(phase.sent for phase in phases) + restarts,
        "failed": sum(phase.failures for phase in phases) + wrong,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    arguments = parse_args()
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        code = main(arguments)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    sys.exit(code)
