"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``    — the paper's running example (Table 2, Example 1).
* ``select``  — Hamming-select on a synthetic paper-like dataset.
* ``join``    — centralized Hamming self-join with index comparison.
* ``knn``     — approximate kNN-select through the HA-Index.
* ``mrjoin``  — the distributed three-phase join with shuffle stats.
* ``serve-bench`` — the online query service under a skewed workload.
* ``serve-sharded`` — the sharded scatter-gather service with
  Gray-range pruning, replica failover and hedged dispatch.
* ``bench-shard`` — pruning ratio and latency of the sharded service
  against the single-index service.
* ``bench-kernel`` — flat compiled kernel vs node walk (``--verify``
  runs an exact-equivalence smoke instead of timing).
* ``trace``   — span tree of one traced Hamming-select (per-level op
  attribution, checked against ``last_search_ops``).
* ``metrics`` — short instrumented serving run, then the metrics
  registry in Prometheus or JSON form.
* ``index save`` / ``index load`` — persist a built index into a
  crash-safe durable store and recover it (snapshot + WAL replay).
* ``info``    — version, registered index families, dataset generators.

Every command prints a small, self-describing report; sizes stay
laptop-friendly by default and scale through ``--n``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro import __version__
from repro.core.bitvector import CodeSet, code_to_string
from repro.core.dynamic_ha import DynamicHAIndex
from repro.core.engines import (
    ENGINES,
    build_index,
    engine_choices,
    engine_names,
    get_engine,
)
from repro.core.knn import knn_select
from repro.core.select import INDEX_FAMILIES, hamming_select
from repro.data.synthetic import PAPER_DATASETS
from repro.hashing.spectral import SpectralHash
from repro.metrics import format_bytes

_DATASET_CHOICES = {
    "nuswide": "NUS-WIDE",
    "flickr": "Flickr",
    "dbpedia": "DBPedia",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "HA-Index reproduction (EDBT 2015): Hamming-distance "
            "similarity search over MapReduce"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("demo", help="run the paper's running example")
    commands.add_parser("info", help="show registered components")

    def add_workload_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--dataset",
            choices=sorted(_DATASET_CHOICES),
            default="nuswide",
            help="paper-like synthetic dataset (default: nuswide)",
        )
        sub.add_argument(
            "--n", type=int, default=10_000, help="tuples (default 10000)"
        )
        sub.add_argument(
            "--bits", type=int, default=32, help="code length (default 32)"
        )
        sub.add_argument(
            "--seed", type=int, default=1, help="dataset seed (default 1)"
        )

    def add_weight_arguments(sub: argparse.ArgumentParser) -> None:
        weighted = sub.add_argument_group(
            "weighted",
            "rank by weighted Hamming distance "
            "(repro.core.weighted; docs/weighted.md)",
        )
        weighted.add_argument(
            "--weights",
            choices=["uniform", "learned", "random"],
            default=None,
            help="per-bit weight vector: uniform (reproduces the "
                 "unweighted answer exactly), learned (bit-variance "
                 "weights from the codes), or random (seeded, "
                 "mean-1.0)",
        )
        weighted.add_argument(
            "--weight-seed", type=int, default=0,
            help="seed for --weights random (default 0)",
        )
        weighted.add_argument(
            "--weight-strategy",
            choices=["auto", "native", "rerank"],
            default="auto",
            help="weighted traversal: native per-mask lower-bound "
                 "sweep or rerank over unweighted candidates "
                 "(default auto)",
        )

    select = commands.add_parser("select", help="Hamming-select demo")
    add_workload_arguments(select)
    select.add_argument("--threshold", type=int, default=3)
    select.add_argument(
        "--index",
        choices=sorted(INDEX_FAMILIES),
        default="DHA-Index",
    )
    select.add_argument(
        "--query-id", type=int, default=0, help="tuple used as the query"
    )
    select.add_argument(
        "--engine", choices=engine_choices(), default="nodes",
        help="H-Search plane: nodes/flat run against --index; any "
             "other registry engine serves its own index",
    )
    add_weight_arguments(select)

    join = commands.add_parser("join", help="Hamming self-join demo")
    add_workload_arguments(join)
    join.add_argument("--threshold", type=int, default=3)
    join.add_argument(
        "--engine", choices=engine_choices(), default="nodes",
        help="probe plane (needs search_codes: nodes/dha, flat, mih)",
    )
    join.add_argument(
        "--workers", type=int, default=0,
        help="parallel probe workers (0 = serial; implies --engine flat)",
    )

    knn = commands.add_parser("knn", help="approximate kNN-select demo")
    add_workload_arguments(knn)
    knn.add_argument("--k", type=int, default=10)
    knn.add_argument("--query-id", type=int, default=0)
    add_weight_arguments(knn)

    mrjoin = commands.add_parser(
        "mrjoin", help="distributed Hamming-join demo"
    )
    add_workload_arguments(mrjoin)
    mrjoin.add_argument("--threshold", type=int, default=3)
    mrjoin.add_argument("--workers", type=int, default=16)
    mrjoin.add_argument(
        "--option", choices=["A", "B", "auto"], default="auto"
    )
    chaos = mrjoin.add_argument_group(
        "chaos", "deterministic fault injection for the simulated cluster"
    )
    chaos.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed of the injected fault sequence (default 0)",
    )
    chaos.add_argument(
        "--crash-prob", type=float, default=0.0,
        help="per-attempt task crash probability (default 0)",
    )
    chaos.add_argument(
        "--straggler-factor", type=float, default=1.0,
        help="slowdown multiplier for straggler attempts (default 1)",
    )
    chaos.add_argument(
        "--straggler-prob", type=float, default=0.0,
        help="probability a (task, worker) pairing straggles (default 0)",
    )
    chaos.add_argument(
        "--worker-death-prob", type=float, default=0.0,
        help="per-attempt permanent worker death probability (default 0)",
    )
    chaos.add_argument(
        "--no-speculation", action="store_true",
        help="disable speculative execution of straggler tasks",
    )

    serve = commands.add_parser(
        "serve-bench",
        help="drive the online query service and print ServiceStats",
    )
    add_workload_arguments(serve)
    serve.add_argument("--threshold", type=int, default=3)
    serve.add_argument(
        "--queries", type=int, default=2000,
        help="queries issued through the service (default 2000)",
    )
    serve.add_argument(
        "--workload", choices=["member", "zipf", "near-miss", "mixed"],
        default="zipf",
        help="query stream shape (default zipf: skewed hot codes)",
    )
    serve.add_argument(
        "--workers", type=int, default=4,
        help="micro-batch worker threads (default 4)",
    )
    serve.add_argument(
        "--batch", type=int, default=32,
        help="max queries coalesced per batch (default 32)",
    )
    serve.add_argument(
        "--cache", type=int, default=4096,
        help="result cache capacity, 0 disables (default 4096)",
    )
    serve.add_argument(
        "--updates", type=int, default=32,
        help="H-Insert/H-Delete pairs interleaved with the stream "
             "(default 32; each bumps the epoch)",
    )
    serve.add_argument(
        "--engine", choices=engine_choices(), default="flat",
        help="served engine: nodes/flat/native serve a mutable "
             "DHA-Index, read through its compiled kernel; other "
             "registry engines serve their own index (default flat)",
    )
    serve.add_argument(
        "--data-dir", default=None,
        help="serve from a crash-safe durable store under this "
             "directory: an existing store is recovered (warm start), "
             "a fresh directory is initialized, and every interleaved "
             "update is WAL-logged",
    )

    index_cmd = commands.add_parser(
        "index",
        help="durable index store: save a built index, load/recover one",
    )
    index_sub = index_cmd.add_subparsers(
        dest="index_command", required=True
    )
    index_save = index_sub.add_parser(
        "save",
        help="H-Build an index over a synthetic workload and persist "
             "it as snapshot generation 1",
    )
    add_workload_arguments(index_save)
    index_save.add_argument(
        "--data-dir", required=True,
        help="fresh directory for the store (must not hold one already)",
    )
    index_save.add_argument(
        "--no-fsync", action="store_true",
        help="skip fsync barriers (faster, loses crash safety)",
    )
    index_load = index_sub.add_parser(
        "load",
        help="recover a persisted index (newest valid snapshot + WAL "
             "replay) and report what recovery did",
    )
    index_load.add_argument(
        "--data-dir", required=True, help="store directory to recover"
    )
    index_load.add_argument(
        "--query", type=lambda s: int(s, 0), default=None,
        help="optional code (int, 0x.. ok) to h-select after recovery",
    )
    index_load.add_argument("--threshold", type=int, default=3)

    def add_shard_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--shards", type=int, default=4,
            help="Gray-range shard count (default 4)",
        )
        sub.add_argument(
            "--replicas", type=int, default=1,
            help="replicas per shard (default 1)",
        )
        sub.add_argument("--threshold", type=int, default=3)
        sub.add_argument(
            "--queries", type=int, default=2000,
            help="queries issued through the service (default 2000)",
        )
        sub.add_argument(
            "--workload",
            choices=["member", "zipf", "near-miss", "mixed"],
            default="zipf",
            help="query stream shape (default zipf)",
        )
        sub.add_argument(
            "--clusters", type=int, default=0,
            help="re-cluster the codes into this many separated "
                 "Hamming clusters before serving (0 keeps the "
                 "hashed codes; clustering is what Gray-range "
                 "pruning exploits)",
        )
        sub.add_argument(
            "--pool", choices=["serial", "thread", "process"],
            default="serial",
            help="scatter execution pool: in-thread loop, persistent "
                 "thread pool, or spawned worker processes that "
                 "warm-start each shard from its memmap snapshot "
                 "(default serial)",
        )
        sub.add_argument(
            "--pool-workers", type=int, default=None,
            help="pool width (default min(shards, cores))",
        )
        sub.add_argument(
            "--task-timeout", type=float, default=None,
            help="per-scatter deadline in seconds before the "
                 "coordinator falls back inline (default: wait)",
        )

    serve_sharded = commands.add_parser(
        "serve-sharded",
        help="drive the sharded scatter-gather service and print "
             "ServiceStats plus shard/pruning stats",
    )
    add_workload_arguments(serve_sharded)
    add_shard_arguments(serve_sharded)
    serve_sharded.add_argument(
        "--workers", type=int, default=4,
        help="micro-batch worker threads (default 4)",
    )
    serve_sharded.add_argument(
        "--batch", type=int, default=32,
        help="max queries coalesced per batch (default 32)",
    )
    serve_sharded.add_argument(
        "--cache", type=int, default=4096,
        help="result cache capacity, 0 disables (default 4096)",
    )
    serve_sharded.add_argument(
        "--fail-prob", type=float, default=0.0,
        help="seeded per-dispatch replica failure probability "
             "(exercises failover; needs --replicas > 1)",
    )
    serve_sharded.add_argument(
        "--straggler-prob", type=float, default=0.0,
        help="seeded slow-primary probability (hedged dispatch)",
    )
    serve_sharded.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed of the replica fault plan (default 0)",
    )
    serve_sharded.add_argument(
        "--engine", choices=engine_choices(), default="dha",
        help="per-shard index engine (default dha)",
    )

    bench_shard = commands.add_parser(
        "bench-shard",
        help="pruning ratio and latency of the sharded service vs "
             "the single-index service",
    )
    add_workload_arguments(bench_shard)
    add_shard_arguments(bench_shard)
    bench_shard.add_argument(
        "--batch", type=int, default=64,
        help="max queries coalesced per micro-batch (default 64)",
    )

    bench_kernel = commands.add_parser(
        "bench-kernel",
        help="time the flat H-Search kernel against the node walk",
    )
    add_workload_arguments(bench_kernel)
    bench_kernel.add_argument("--threshold", type=int, default=3)
    bench_kernel.add_argument(
        "--queries", type=int, default=64,
        help="queries timed per engine (default 64)",
    )
    bench_kernel.add_argument(
        "--batch", type=int, default=32,
        help="batch size for search_batch timing (default 32)",
    )
    bench_kernel.add_argument(
        "--repeats", type=int, default=5,
        help="timing repetitions, best-of (default 5)",
    )
    bench_kernel.add_argument(
        "--verify", action="store_true",
        help="equivalence smoke instead of timing: the engine vs the "
             "node walk on a seeded workload, thresholds 0..8; exits "
             "nonzero on any mismatch",
    )
    bench_kernel.add_argument(
        "--engine", choices=[*engine_choices(), "all"], default="flat",
        help="rival engine timed (or verified) against the node walk "
             "(default flat); 'all' verifies every engine in the "
             "central registry (requires --verify)",
    )

    verify = commands.add_parser(
        "verify", help="cross-check every index family against a scan"
    )
    add_workload_arguments(verify)

    trace = commands.add_parser(
        "trace",
        help="span tree of one traced Hamming-select, with the "
             "per-level ops checked against last_search_ops",
    )
    add_workload_arguments(trace)
    trace.add_argument("--threshold", type=int, default=3)
    trace.add_argument(
        "--query-id", type=int, default=0, help="tuple used as the query"
    )
    trace.add_argument(
        "--engine",
        choices=["nodes", "flat", "native", "both", "all"],
        default="both",
        help="which H-Search plane(s) to trace (default both; 'all' "
             "adds the native plane)",
    )

    metrics = commands.add_parser(
        "metrics",
        help="run a short instrumented serving workload and print the "
             "metrics registry",
    )
    add_workload_arguments(metrics)
    metrics.add_argument("--threshold", type=int, default=3)
    metrics.add_argument(
        "--queries", type=int, default=500,
        help="queries driven through the service (default 500)",
    )
    metrics.add_argument(
        "--format", choices=["prom", "json"], default="prom",
        help="Prometheus text exposition or a JSON snapshot",
    )
    metrics.add_argument(
        "--data-dir", default=None,
        help="serve from a durable store (created or recovered) so the "
             "store_* gauges appear in the exposition",
    )

    docs_gen = commands.add_parser(
        "docs-gen",
        help="regenerate the generated docs: docs/cli.md from this "
             "argparse tree, engine tables from the registry",
    )
    docs_gen.add_argument(
        "--check", action="store_true",
        help="drift check: exit 1 listing stale files instead of "
             "rewriting them (CI runs this)",
    )
    docs_gen.add_argument(
        "--root", default=None,
        help="repository root holding docs/ (default: auto-detected "
             "from the package location)",
    )
    return parser


def _encoded_workload(args: argparse.Namespace):
    name = _DATASET_CHOICES[args.dataset]
    dataset = PAPER_DATASETS[name](args.n, seed=args.seed)
    hasher = SpectralHash(args.bits)
    codes = dataset.encode(hasher.fit(dataset.vectors))
    return dataset, codes


def _command_demo() -> int:
    table_s = CodeSet.from_strings(
        ["001001010", "001011101", "011001100", "101001010",
         "101110110", "101011101", "101101010", "111001100"]
    )
    query = 0b101100010
    print("Table 2a codes (t0..t7):")
    for tuple_id, code in enumerate(table_s):
        print(f"  t{tuple_id}: {code_to_string(code, 9)}")
    matches = sorted(hamming_select(query, table_s, 3))
    print(f"\nh-select({code_to_string(query, 9)}, S) with h=3 -> "
          + ", ".join(f"t{i}" for i in matches))
    index = DynamicHAIndex.build(table_s, window=2, max_depth=3)
    print(f"DHA-Index levels (top->leaves): {index.level_sizes()}")
    return 0


def _command_info() -> int:
    print(f"repro {__version__}")
    print("index families:")
    for name in INDEX_FAMILIES:
        print(f"  {name}")
    print("engines (--engine):")
    for spec in ENGINES.values():
        aliases = (
            f" (alias: {', '.join(spec.aliases)})" if spec.aliases else ""
        )
        print(f"  {spec.name:13s}{aliases} - {spec.description}")
    print("dataset generators:")
    for alias, name in sorted(_DATASET_CHOICES.items()):
        print(f"  {alias} -> {name}")
    print("serving:")
    print("  HammingQueryService (micro-batching, epoch cache, "
          "backpressure) -> repro serve-bench")
    return 0


def _weight_vector(args: argparse.Namespace, codes: CodeSet):
    """The CLI-selected weight vector, or ``None`` when unweighted."""
    if getattr(args, "weights", None) is None:
        return None
    from repro.core.weighted import (
        learned_weights,
        random_weights,
        uniform_weights,
    )

    if args.weights == "uniform":
        return uniform_weights(codes.length)
    if args.weights == "learned":
        return learned_weights(codes)
    return random_weights(codes.length, seed=args.weight_seed)


def _command_select(args: argparse.Namespace) -> int:
    _, codes = _encoded_workload(args)
    canonical = get_engine(args.engine).name
    weights = _weight_vector(args, codes)
    if weights is not None:
        # Weighted plane: the registry's weighted engine wraps the DHA
        # kernel; --index is ignored like for other registry engines.
        canonical = "weighted"
        label = f"weighted[{args.weights}]"

        def builder(codes):
            return build_index(
                "weighted", codes,
                weights=weights, strategy=args.weight_strategy,
            )
    elif canonical in ("dha", "flat"):
        builder = INDEX_FAMILIES[args.index]
        label = args.index
    else:
        # A registry engine serves its own index; --index is ignored.
        def builder(codes):
            return build_index(canonical, codes)

        label = canonical
    started = time.perf_counter()
    index = builder(codes)
    build_seconds = time.perf_counter() - started
    engine = index
    if canonical == "flat":
        compile_index = getattr(index, "compile", None)
        if compile_index is None:
            print(f"error: {args.index} has no compiled flat plane; "
                  f"use --engine nodes", file=sys.stderr)
            return 2
        started = time.perf_counter()
        engine = compile_index()
        compile_ms = (time.perf_counter() - started) * 1000.0
        print(f"compiled flat kernel in {compile_ms:.1f} ms "
              f"({engine.num_nodes} nodes, {engine.num_levels} levels)")
    query = codes[args.query_id % len(codes)]
    started = time.perf_counter()
    matches = engine.search(query, args.threshold)
    query_ms = (time.perf_counter() - started) * 1000.0
    stats = index.stats()
    print(f"{label} [{args.engine}] over {len(codes)} x "
          f"{args.bits}-bit codes")
    print(f"  build: {build_seconds:.2f} s, "
          f"memory (modelled): {format_bytes(stats.memory_bytes)}")
    print(f"  h-select(h={args.threshold}): {len(matches)} matches "
          f"in {query_ms:.3f} ms "
          f"({engine.last_search_ops} distance computations)")
    return 0


def _command_join(args: argparse.Namespace) -> int:
    from repro.core.errors import InvalidParameterError
    from repro.core.join import self_join

    _, codes = _encoded_workload(args)
    engine = "flat" if args.workers else args.engine
    started = time.perf_counter()
    try:
        pairs = self_join(
            codes,
            args.threshold,
            engine=engine,
            parallel=args.workers > 0,
            workers=args.workers or None,
        )
    except InvalidParameterError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    workers = f", {args.workers} workers" if args.workers else ""
    print(f"self h-join [{engine}{workers}] over {len(codes)} codes, "
          f"h={args.threshold}:")
    print(f"  {len(pairs)} pairs in {elapsed:.2f} s")
    return 0


def _command_knn(args: argparse.Namespace) -> int:
    _, codes = _encoded_workload(args)
    index = DynamicHAIndex.build(codes)
    query = codes[args.query_id % len(codes)]
    weights = _weight_vector(args, codes)
    started = time.perf_counter()
    if weights is not None:
        neighbors = knn_select(
            query, index, args.k,
            weights=weights.values,
            weight_strategy=args.weight_strategy,
        )
    else:
        neighbors = knn_select(query, index, args.k)
    elapsed = (time.perf_counter() - started) * 1000.0
    ranking = f"weighted[{args.weights}] " if weights is not None else ""
    print(f"{ranking}{args.k}-NN of tuple {args.query_id} "
          f"in {elapsed:.2f} ms:")
    for tuple_id, distance in neighbors:
        print(f"  tuple {tuple_id}  (distance {distance:g})"
              if weights is not None
              else f"  tuple {tuple_id}  (distance {distance})")
    return 0


def _command_verify(args: argparse.Namespace) -> int:
    from repro.core.validation import verify_all_families

    _, codes = _encoded_workload(args)
    print(f"verifying all index families over {len(codes)} x "
          f"{args.bits}-bit codes...")
    for name, report in verify_all_families(codes).items():
        print(f"  {name:14s} OK - {report}")
    return 0


def _command_mrjoin(args: argparse.Namespace) -> int:
    from repro.distributed.hamming_join import mapreduce_hamming_join
    from repro.mapreduce.cluster import Cluster
    from repro.mapreduce.counters import (
        BACKOFF_SECONDS,
        TASK_RETRIES,
        TASK_SPECULATIVE,
        WORKERS_BLACKLISTED,
        WORKERS_LOST,
    )
    from repro.mapreduce.faults import ChaosPolicy, FaultPlan
    from repro.mapreduce.runtime import MapReduceRuntime

    dataset, _ = _encoded_workload(args)
    records = list(zip(range(len(dataset)), dataset.vectors))
    policy = ChaosPolicy(
        seed=args.chaos_seed,
        crash_prob=args.crash_prob,
        straggler_prob=args.straggler_prob,
        straggler_factor=args.straggler_factor,
        worker_death_prob=args.worker_death_prob,
    )
    cluster = Cluster(args.workers)
    runtime = MapReduceRuntime(
        cluster,
        fault_plan=FaultPlan(policy) if policy.enabled else None,
        speculative_execution=not args.no_speculation,
    )
    report = mapreduce_hamming_join(
        runtime, records, records, args.threshold,
        num_bits=args.bits, option=args.option, exclude_self_pairs=True,
    )
    print(f"MRHA-Index-{report.option} self-join over {len(records)} "
          f"tuples on {args.workers} workers, h={args.threshold}:")
    print(f"  pairs:           {len(report.pairs)}")
    print(f"  shuffle volume:  {format_bytes(report.shuffle_bytes)}")
    print(f"  modelled time:   {report.total_seconds:.2f} s "
          f"(preprocess {report.preprocess_seconds:.2f}, "
          f"build {report.build_seconds:.2f}, "
          f"join {report.join_seconds:.2f})")
    print(f"  partition sizes: {report.partition_sizes}")
    if policy.enabled:
        counters = cluster.counters
        print(f"  fault tolerance: {counters.get(TASK_RETRIES)} retries, "
              f"{counters.get(TASK_SPECULATIVE)} speculative attempts, "
              f"{counters.get(WORKERS_LOST)} workers lost, "
              f"{counters.get(WORKERS_BLACKLISTED)} blacklisted, "
              f"{counters.get(BACKOFF_SECONDS):.2f} s backoff")
    return 0


def _command_serve_bench(args: argparse.Namespace) -> int:
    from repro.data.workloads import WORKLOAD_SHAPES, mixed_workload
    from repro.service import HammingQueryService

    _, codes = _encoded_workload(args)
    if args.workload == "mixed":
        queries = mixed_workload(codes, args.queries, seed=args.seed)
    else:
        queries = WORKLOAD_SHAPES[args.workload](
            codes, args.queries, args.seed
        )

    # Naive baseline: one uncached, unbatched search per query.
    baseline = DynamicHAIndex.build(codes)
    started = time.perf_counter()
    for query in queries:
        baseline.search(query, args.threshold)
    naive_seconds = time.perf_counter() - started
    naive_qps = len(queries) / naive_seconds if naive_seconds else 0.0

    canonical = get_engine(args.engine).name
    service_kwargs = dict(
        workers=args.workers,
        max_batch=args.batch,
        queue_limit=len(queries) + 2 * args.updates + 8,
        cache_capacity=args.cache,
    )
    if args.data_dir is not None:
        from repro.store import DurableIndexStore

        if canonical not in ("dha", "flat", "native"):
            print(f"error: --data-dir needs the dha, flat, or native "
                  f"engine, not {canonical!r} (durable stores persist "
                  f"the DHA-Index)", file=sys.stderr)
            return 2

        if DurableIndexStore.exists(args.data_dir):
            service = HammingQueryService.open(
                args.data_dir, **service_kwargs
            )
            print(f"warm start from {args.data_dir}: "
                  f"{len(service)} codes at epoch {service.epoch}")
        else:
            service = HammingQueryService(
                DynamicHAIndex.build(codes),
                data_dir=args.data_dir,
                **service_kwargs,
            )
            print(f"initialized durable store at {args.data_dir}")
    elif canonical in ("dha", "flat", "native"):
        service = HammingQueryService(
            DynamicHAIndex.build(codes), **service_kwargs
        )
    else:
        service = HammingQueryService(
            build_index(canonical, codes), **service_kwargs
        )
    update_every = (
        max(1, len(queries) // (args.updates + 1)) if args.updates else 0
    )
    started = time.perf_counter()
    tickets = []
    fresh_id = len(codes)
    with service:
        for position, query in enumerate(queries):
            tickets.append(
                service.submit("select", query, args.threshold)
            )
            if update_every and position % update_every == 0:
                # One H-Insert + H-Delete pair through the live service:
                # the epoch bumps twice and stale cache entries die.
                victim = codes[position % len(codes)]
                service.insert(victim, fresh_id)
                service.delete(victim, fresh_id)
                fresh_id += 1
        for ticket in tickets:
            ticket.result()
        elapsed = time.perf_counter() - started
        stats = service.stats()
    served_qps = len(queries) / elapsed if elapsed else 0.0
    speedup = served_qps / naive_qps if naive_qps else float("inf")
    print(f"online serving of {len(queries)} {args.workload} queries "
          f"over {len(codes)} x {args.bits}-bit codes, "
          f"h={args.threshold}:")
    print(f"  naive loop:  {naive_qps:,.0f} queries/s")
    print(f"  service:     {served_qps:,.0f} queries/s "
          f"({speedup:.2f}x, {args.workers} workers, "
          f"batch {args.batch}, cache {args.cache})")
    print(stats.render())
    return 0


def _shard_workload(args: argparse.Namespace):
    from repro.data.workloads import (
        WORKLOAD_SHAPES,
        cluster_codes,
        mixed_workload,
    )

    _, codes = _encoded_workload(args)
    codes = cluster_codes(codes, args.clusters)
    if args.workload == "mixed":
        queries = mixed_workload(codes, args.queries, seed=args.seed)
    else:
        queries = WORKLOAD_SHAPES[args.workload](
            codes, args.queries, args.seed
        )
    return codes, queries


def _command_serve_sharded(args: argparse.Namespace) -> int:
    from repro.mapreduce.faults import ChaosPolicy
    from repro.service import ShardedQueryService

    codes, queries = _shard_workload(args)
    chaos = None
    if args.fail_prob or args.straggler_prob:
        chaos = ChaosPolicy(
            seed=args.chaos_seed,
            crash_prob=args.fail_prob,
            straggler_prob=args.straggler_prob,
            straggler_factor=2.0,
        )
    service = ShardedQueryService(
        codes,
        num_shards=args.shards,
        replication=args.replicas,
        chaos=chaos,
        workers=args.workers,
        max_batch=args.batch,
        queue_limit=len(queries) + 8,
        cache_capacity=args.cache,
        engine=args.engine,
        pool=args.pool,
        pool_workers=args.pool_workers,
        task_timeout=args.task_timeout,
    )
    started = time.perf_counter()
    with service:
        tickets = [
            service.submit("select", query, args.threshold)
            for query in queries
        ]
        for ticket in tickets:
            ticket.result()
        elapsed = time.perf_counter() - started
        stats = service.stats()
        shard_stats = service.shard_stats()
    qps = len(queries) / elapsed if elapsed else 0.0
    print(f"sharded serving of {len(queries)} {args.workload} queries "
          f"over {len(codes)} x {args.bits}-bit codes, "
          f"h={args.threshold}, {args.shards} shards x "
          f"{args.replicas} replicas:")
    print(f"  throughput: {qps:,.0f} queries/s")
    print(stats.render())
    print(shard_stats.render())
    return 0


def _drain_selects(service, queries, threshold: int) -> float:
    """Pipelined select sweep: submit everything, gather every ticket."""
    started = time.perf_counter()
    tickets = [
        service.submit("select", query, threshold) for query in queries
    ]
    for ticket in tickets:
        ticket.result()
    return time.perf_counter() - started


def _command_bench_shard(args: argparse.Namespace) -> int:
    from repro.service import HammingQueryService, ShardedQueryService

    codes, queries = _shard_workload(args)
    limit = len(queries) + 8
    single = HammingQueryService(
        DynamicHAIndex.build(codes),
        workers=1,
        max_batch=args.batch,
        cache_capacity=0,
        queue_limit=limit,
    )
    with single:
        single_seconds = _drain_selects(single, queries, args.threshold)
    shard_kwargs = dict(
        num_shards=args.shards,
        replication=args.replicas,
        workers=1,
        max_batch=args.batch,
        cache_capacity=0,
        queue_limit=limit,
        pool=args.pool,
        pool_workers=args.pool_workers,
        task_timeout=args.task_timeout,
    )
    broadcast = ShardedQueryService(codes, pruning=False, **shard_kwargs)
    with broadcast:
        broadcast_seconds = _drain_selects(
            broadcast, queries, args.threshold
        )
    sharded = ShardedQueryService(codes, **shard_kwargs)
    with sharded:
        sharded_seconds = _drain_selects(sharded, queries, args.threshold)
        shard_stats = sharded.shard_stats()
    vs_single = (
        single_seconds / sharded_seconds if sharded_seconds else 0.0
    )
    vs_broadcast = (
        broadcast_seconds / sharded_seconds if sharded_seconds else 0.0
    )
    print(f"sharded vs single-index select, {len(queries)} "
          f"{args.workload} queries, h={args.threshold}, "
          f"{args.shards} shards"
          + (f", {args.clusters} clusters" if args.clusters else "")
          + f", batch {args.batch}, pool {shard_stats.pool} x "
          f"{shard_stats.pool_workers}:")
    print(f"  single index:     {single_seconds * 1000:.1f} ms total")
    print(f"  sharded broadcast:{broadcast_seconds * 1000:.1f} ms total")
    print(f"  sharded pruned:   {sharded_seconds * 1000:.1f} ms total "
          f"({vs_broadcast:.2f}x vs broadcast, "
          f"{vs_single:.2f}x vs single)")
    print(f"  pruning:          {shard_stats.pruning_ratio * 100:.1f}% "
          f"of shard visits avoided, mean "
          f"{shard_stats.mean_contacted:.2f}/{args.shards} "
          f"shards contacted, {shard_stats.broadcasts} broadcasts")
    return 0


def _command_bench_kernel(args: argparse.Namespace) -> int:
    _, codes = _encoded_workload(args)
    if args.engine == "all":
        if not args.verify:
            print("--engine all requires --verify")
            return 2
        names = engine_names()
        failed = [
            name for name in names
            if _verify_engine(args, name, codes) != 0
        ]
        if failed:
            print(f"kernel equivalence FAILED for: {', '.join(failed)}")
            return 1
        print(f"kernel equivalence OK for all {len(names)} registered "
              f"engines")
        return 0
    canonical = get_engine(args.engine).name
    if args.verify:
        return _verify_engine(args, canonical, codes)
    if canonical != "flat":
        return _bench_engine(args, canonical, codes)
    index = DynamicHAIndex.build(codes)
    flat = index.compile()

    queries = [codes[i * 31 % len(codes)] for i in range(args.queries)]
    batches = [
        queries[lo:lo + args.batch]
        for lo in range(0, len(queries), args.batch)
    ]

    def best_of(run) -> float:
        run()  # warm-up
        return min(
            _timed(run) for _ in range(max(1, args.repeats))
        )

    def _timed(run) -> float:
        started = time.perf_counter()
        run()
        return time.perf_counter() - started

    node_s = best_of(
        lambda: [index.search(q, args.threshold) for q in queries]
    )
    flat_s = best_of(
        lambda: [flat.search(q, args.threshold) for q in queries]
    )
    batch_s = best_of(
        lambda: [flat.search_batch(b, args.threshold) for b in batches]
    )
    per = len(queries)
    print(f"H-Search kernel over {len(codes)} x {args.bits}-bit codes, "
          f"h={args.threshold}, {per} queries "
          f"(best of {args.repeats}):")
    print(f"  node walk:          {node_s / per * 1000:8.3f} ms/query")
    print(f"  flat kernel:        {flat_s / per * 1000:8.3f} ms/query "
          f"({node_s / flat_s:5.1f}x)")
    print(f"  flat batch({args.batch:>3}):    "
          f"{batch_s / per * 1000:8.3f} ms/query "
          f"({node_s / batch_s:5.1f}x)")
    return 0


def _verify_engine(
    args: argparse.Namespace, canonical: str, codes: CodeSet
) -> int:
    """Equivalence smoke: one registry engine vs the DHA node walk.

    Every registered engine gets the same probe plane (seeded member +
    random queries, thresholds 0..8).  Engines built on the flat kernel
    (``FlatHAIndex`` subclasses: flat, native) are held to the stricter
    contract — buffered H-Inserts, ``count_within``, and exact
    ``last_search_ops`` agreement — and the native plane is replayed a
    second time with the compiled backend force-disabled, proving the
    numpy fallback produces identical answers.
    """
    import random

    from repro.core.flat_ha import FlatHAIndex

    index = DynamicHAIndex.build(codes)
    rng = random.Random(args.seed)
    probes = [codes[rng.randrange(len(codes))] for _ in range(12)]
    probes += [rng.getrandbits(args.bits) for _ in range(12)]
    rival = build_index(canonical, codes)
    strict = isinstance(rival, FlatHAIndex)
    if strict:
        # Buffered H-Inserts so the smoke covers the buffer scan too;
        # recompile from the mutated tree so both planes see them.
        for offset in range(8):
            index.insert(rng.getrandbits(args.bits), len(codes) + offset)
        compile_native = getattr(index, "compile_native", None)
        rival = (
            compile_native() if canonical == "native"
            and compile_native is not None else index.compile()
        )
    mismatches = _verify_sweep(index, rival, probes, canonical, strict)
    detail = ""
    if canonical == "native":
        from repro.core import native as native_backends

        detail = f"; backend {rival.backend}"
        with native_backends.force_backend("numpy"):
            mismatches += _verify_sweep(
                index, rival, probes, f"{canonical}[numpy]", strict
            )
        detail += " + numpy fallback"
    if mismatches:
        print(f"kernel equivalence FAILED: {canonical}: "
              f"{mismatches} mismatches")
        return 1
    extras = (
        " (search, search_batch, count_within, ops; 8 buffered inserts)"
        if strict else ""
    )
    print(f"kernel equivalence OK: {canonical} vs node walk, "
          f"{len(probes)} queries x thresholds 0..8 over "
          f"{len(codes)} codes{extras}{detail}")
    return 0


def _verify_sweep(
    index: DynamicHAIndex,
    rival,
    probes: list[int],
    label: str,
    strict: bool,
) -> int:
    """Mismatch count of ``rival`` vs the node walk over the probes."""
    batched = getattr(rival, "search_batch", None)
    mismatches = 0
    for threshold in range(9):
        batch_results = (
            batched(probes, threshold) if batched is not None
            else [None] * len(probes)
        )
        for query, batch_ids in zip(probes, batch_results):
            expected = sorted(index.search(query, threshold))
            node_ops = index.last_search_ops
            got = sorted(rival.search(query, threshold))
            same = expected == got and (
                batch_ids is None or expected == sorted(batch_ids)
            )
            if strict:
                same = (
                    same
                    and node_ops == rival.last_search_ops
                    and index.count_within(query, threshold)
                    == rival.count_within(query, threshold)
                )
            if not same:
                mismatches += 1
                print(f"MISMATCH h={threshold} query={query:#x}: "
                      f"nodes={expected} {label}={got}")
    return mismatches


def _bench_engine(
    args: argparse.Namespace, canonical: str, codes: CodeSet
) -> int:
    """``bench-kernel`` timing for any non-flat registry engine.

    Same shape as the flat path: the engine's ``search`` (and
    ``search_batch`` when offered) is timed against the node walk.
    Verification lives in :func:`_verify_engine`.
    """
    index = DynamicHAIndex.build(codes)
    rival = build_index(canonical, codes)

    queries = [codes[i * 31 % len(codes)] for i in range(args.queries)]
    batches = [
        queries[lo:lo + args.batch]
        for lo in range(0, len(queries), args.batch)
    ]

    def _timed(run) -> float:
        started = time.perf_counter()
        run()
        return time.perf_counter() - started

    def best_of(run) -> float:
        run()  # warm-up
        return min(_timed(run) for _ in range(max(1, args.repeats)))

    node_s = best_of(
        lambda: [index.search(q, args.threshold) for q in queries]
    )
    rival_s = best_of(
        lambda: [rival.search(q, args.threshold) for q in queries]
    )
    per = len(queries)
    backend = getattr(rival, "backend", None)
    print(f"H-Search over {len(codes)} x {args.bits}-bit codes, "
          f"h={args.threshold}, {per} queries "
          f"(best of {args.repeats})"
          + (f", {canonical} backend {backend}" if backend else "")
          + ":")
    print(f"  node walk:          {node_s / per * 1000:8.3f} ms/query")
    print(f"  {canonical + ':':19s} {rival_s / per * 1000:8.3f} ms/query "
          f"({node_s / rival_s:5.1f}x)")
    if hasattr(rival, "search_batch"):
        batch_s = best_of(
            lambda: [
                rival.search_batch(b, args.threshold) for b in batches
            ]
        )
        print(f"  {canonical} batch({args.batch:>3}): "
              f"{batch_s / per * 1000:8.3f} ms/query "
              f"({node_s / batch_s:5.1f}x)")
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    from repro.obs import last_trace, render_span_tree, trace

    _, codes = _encoded_workload(args)
    index = DynamicHAIndex.build(codes)
    query = codes[args.query_id % len(codes)]
    if args.engine == "both":
        engines = ["nodes", "flat"]
    elif args.engine == "all":
        engines = ["nodes", "flat", "native"]
    else:
        engines = [args.engine]
    print(f"h-select(h={args.threshold}) over {len(codes)} x "
          f"{args.bits}-bit codes, query tuple {args.query_id}:\n")
    failures = 0
    for engine_name in engines:
        if engine_name == "nodes":
            engine = index
        elif engine_name == "native":
            engine = index.compile_native()
        else:
            engine = index.compile()
        with trace("h_select", engine=engine_name,
                   threshold=args.threshold):
            matches = engine.search(query, args.threshold)
        tree = last_trace()
        print(render_span_tree(tree))
        expected = engine.last_search_ops
        total = tree.total_ops
        verdict = "OK" if total == expected else "MISMATCH"
        print(f"{engine_name}: {len(matches)} matches; span ops {total} "
              f"vs last_search_ops {expected} -> {verdict}\n")
        if total != expected:
            failures += 1
    return 1 if failures else 0


def _command_index_save(args: argparse.Namespace) -> int:
    from repro.store import DurableIndexStore

    _, codes = _encoded_workload(args)
    started = time.perf_counter()
    index = DynamicHAIndex.build(codes)
    build_seconds = time.perf_counter() - started
    store = DurableIndexStore(args.data_dir, fsync=not args.no_fsync)
    started = time.perf_counter()
    store.initialize(index)
    store.close()
    save_seconds = time.perf_counter() - started
    print(f"saved {len(index)} x {args.bits}-bit codes to "
          f"{args.data_dir} (generation 1)")
    print(f"  build: {build_seconds:.2f} s, save: {save_seconds:.2f} s")
    return 0


def _command_index_load(args: argparse.Namespace) -> int:
    from repro.store import DurableIndexStore

    store = DurableIndexStore(args.data_dir)
    started = time.perf_counter()
    index = store.open()
    load_seconds = time.perf_counter() - started
    stats = store.stats()
    print(f"recovered {len(index)} x {index.code_length}-bit codes "
          f"from {args.data_dir} in {load_seconds:.2f} s")
    print(f"  generation {stats.generation}, seq {stats.last_seq}, "
          f"{stats.wal_replayed} WAL records replayed "
          f"({stats.replay_skipped} skipped), "
          f"{stats.recovery_fallbacks} generation fallbacks")
    if args.query is not None:
        matches = index.search(args.query, args.threshold)
        print(f"  h-select({args.query:#x}, h={args.threshold}): "
              f"{len(matches)} matches")
    store.close()
    return 0


def _command_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.data.workloads import WORKLOAD_SHAPES
    from repro.obs import registry, set_metrics_enabled
    from repro.service import HammingQueryService

    _, codes = _encoded_workload(args)
    queries = WORKLOAD_SHAPES["zipf"](codes, args.queries, args.seed)
    set_metrics_enabled(True)
    try:
        if args.data_dir is not None:
            from repro.store import DurableIndexStore

            if DurableIndexStore.exists(args.data_dir):
                service = HammingQueryService.open(
                    args.data_dir, queue_limit=len(queries) + 8
                )
            else:
                service = HammingQueryService(
                    DynamicHAIndex.build(codes),
                    data_dir=args.data_dir,
                    queue_limit=len(queries) + 8,
                )
        else:
            service = HammingQueryService(
                DynamicHAIndex.build(codes),
                queue_limit=len(queries) + 8,
            )
        with service:
            tickets = [
                service.submit("select", query, args.threshold)
                for query in queries
            ]
            for ticket in tickets:
                ticket.result()
            service.publish_metrics()
        if args.format == "json":
            print(json.dumps(
                registry().snapshot(), indent=2, sort_keys=True
            ))
        else:
            print(registry().render_prometheus(), end="")
    finally:
        set_metrics_enabled(False)
        registry().clear()
    return 0


def _command_docs_gen(args: argparse.Namespace) -> int:
    from repro.docsgen import generate_docs, stale_docs

    if args.check:
        stale = stale_docs(root=args.root)
        if stale:
            print("generated docs out of date "
                  "(run: python -m repro docs-gen):")
            for path in stale:
                print(f"  {path}")
            return 1
        print("generated docs are current")
        return 0
    for path in generate_docs(root=args.root):
        print(f"wrote {path}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "demo":
        return _command_demo()
    if args.command == "info":
        return _command_info()
    if args.command == "select":
        return _command_select(args)
    if args.command == "join":
        return _command_join(args)
    if args.command == "knn":
        return _command_knn(args)
    if args.command == "mrjoin":
        return _command_mrjoin(args)
    if args.command == "serve-bench":
        return _command_serve_bench(args)
    if args.command == "serve-sharded":
        return _command_serve_sharded(args)
    if args.command == "bench-shard":
        return _command_bench_shard(args)
    if args.command == "bench-kernel":
        return _command_bench_kernel(args)
    if args.command == "verify":
        return _command_verify(args)
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "metrics":
        return _command_metrics(args)
    if args.command == "docs-gen":
        return _command_docs_gen(args)
    if args.command == "index":
        if args.index_command == "save":
            return _command_index_save(args)
        if args.index_command == "load":
            return _command_index_load(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
