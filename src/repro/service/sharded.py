"""The query-service core: scatter-gather serving over Gray-range shards.

:class:`ShardedQueryService` is the one serving core.  It serves a
dataset split into Gray-rank shards — the very partitioning the paper's
Section 5.1 uses to balance MapReduce workers (sampled equi-depth pivots
over the Gray order) — so a single index is the one-shard case:
:class:`~repro.service.server.HammingQueryService` is the constructor
that wraps one prebuilt index as shard 0, with no pivots and the serial
executor.  Each shard holds a primary index plus optional replicas, and
every query runs through a scatter-gather plan:

1. **Prune.**  The :class:`~repro.service.planner.ScatterGatherPlanner`
   computes, per shard, an exact lower bound on the Hamming distance
   between the query and *any* code the shard can hold (a digit DP over
   the shard's Gray-rank range).  Shards whose bound exceeds the
   threshold are skipped; when nothing can be skipped the plan falls
   back to a broadcast.  One shard is always contacted, with no bound.
2. **Scatter.**  The surviving shard operations run through a pluggable
   executor (:mod:`repro.service.executor`): inline (``pool="serial"``),
   a persistent thread pool exploiting GIL release in the kernel sweeps
   (``pool="thread"``), or spawn-once worker processes that warm-start
   each shard zero-copy from memory-mapped snapshots
   (``pool="process"``).  Replica choice is load-balanced
   (least-outstanding-requests) with seeded failover and hedged
   dispatch reusing the MapReduce chaos machinery
   (:class:`~repro.mapreduce.faults.ChaosPolicy`).  Every operation runs
   on the shard's served plane, and which operation a query kind
   scatters is read from that plane's methods.
3. **Gather.**  Partial results merge deterministically in shard order
   regardless of completion order: ``select`` unions and id-sorts,
   ``probe`` ORs the per-shard membership answers, ``knn`` runs
   :func:`~repro.core.knn.knn_select_batch`'s expanding-threshold
   rounds over the pruned scatter and keeps the global top-``k``, and
   :meth:`~ShardedQueryService.join` streams an outer code set through
   per-shard batch probes.  Every pool backend returns results *and op
   accounting* byte-identical to the serial walk.

Because every code lives in exactly one shard, gathered results equal
the single-index answers *exactly* (asserted across shard counts by
``tests/test_sharded_service.py``).

Around the scatter sits the serving stack: bounded admission,
micro-batching with in-batch dedup, and an LRU result cache.  Each
micro-batch groups its misses by kind and parameter, plans every group
once, and answers each group through one scatter.  The cache is
*shard-aware*: a cached entry is keyed by the epochs of the shards its
plan contacted, so a write routed to a pruned shard leaves it valid.
That is sound because plans are recomputed per batch: if an insert could
add a match for a cached query, it necessarily widens the owning shard's
occupied Gray range until the planner stops pruning it, which changes
the key and forces a miss.  With one shard the key is that shard's
epoch, which every write bumps.

Writers apply H-Insert/H-Delete (Algorithm 2) to the owning shard under
the service mutex, WAL-first when a durable store is attached; bulk
reloads go through :meth:`~ShardedQueryService.refresh`, which builds
the replacement outside the mutex and swaps it in (copy-on-swap).

Observability: per-shard ``shard.dispatch``/``shard.search`` spans
under a ``shard.scatter`` root (captured detached on pool threads and
worker processes, re-attached in deterministic task order), a
``shard.gather`` span over each merge, and ``shard_pruned_total`` /
``shards_contacted_total`` / ``shards_contacted`` / ``shard_pool_*``
metrics (plus failover/hedge counters) in the process registry.
"""

from __future__ import annotations

import functools
import operator
import threading
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.core.bitvector import CodeSet
from repro.core.dynamic_ha import DynamicHAIndex
from repro.core.engines import get_engine
from repro.core.errors import (
    CodeLengthError,
    IndexStateError,
    InvalidParameterError,
    ServiceClosedError,
    ServiceTimeoutError,
    StoreError,
)
from repro.core.index_base import HammingIndex
from repro.distributed.pivots import select_pivots, split_by_pivots
from repro.mapreduce.faults import ChaosPolicy, hash_unit
from repro.obs import REGISTRY
from repro.obs.trace import trace, trace_span
from repro.service.admission import AdmissionQueue
from repro.service.batching import (
    MicroBatchScheduler,
    QueryRequest,
    QueryTicket,
)
from repro.service.cache import MISS, ResultCache
from repro.service.executor import (
    POOL_KINDS,
    ShardTask,
    default_pool_workers,
    make_executor,
    route_around_faults,
    served_plane,
)
from repro.service.planner import (
    ScatterGatherPlanner,
    ShardPlan,
    shard_positions,
)
from repro.service.stats import ServiceAccounting, ServiceStats

#: Query kinds the service understands.
QUERY_KINDS = ("select", "probe", "knn")

DEFAULT_WORKERS = 4
DEFAULT_MAX_BATCH = 32
DEFAULT_QUEUE_LIMIT = 1024
DEFAULT_CACHE_CAPACITY = 4096

_NUMPY_SORT_CUTOVER = 64


@dataclass(slots=True, eq=False)
class ServedResult:
    """What a resolved ticket carries: value + serving context.

    Attributes:
        value: id-ascending tuple of tuple-ids (``select``), ``bool``
            (``probe``) or tuple of ``(tuple_id, distance)`` pairs
            sorted by (distance, id) (``knn``).  Tuples, not lists: one
            cached value may be shared by many readers.
        epoch: the service epoch the query was answered against.
        cached: whether the result came from the cache.
    """

    value: object
    epoch: int
    cached: bool


def _merge_sorted_ids(chunks) -> tuple[int, ...]:
    """Merge per-shard id chunks into one ascending tuple.

    Per-shard hits arrive in plane order and fold into one canonical
    ascending tuple.  Chunks may be ``int64`` arrays (the compiled
    plane's ``search_batch_arrays``) or plain id lists (every other
    engine); both merge through one C-speed concatenate + sort, with
    Python ints materialized exactly once, after the merge.
    """
    if len(chunks) == 1:
        chunk = chunks[0]
        if len(chunk) < _NUMPY_SORT_CUTOVER:
            ids = chunk.tolist() if isinstance(chunk, np.ndarray) else chunk
            return tuple(sorted(ids))
        return tuple(np.sort(np.asarray(chunk, dtype=np.int64)).tolist())
    if sum(len(chunk) for chunk in chunks) < _NUMPY_SORT_CUTOVER:
        merged: list[int] = []
        for chunk in chunks:
            merged.extend(
                chunk.tolist() if isinstance(chunk, np.ndarray) else chunk
            )
        return tuple(sorted(merged))
    buffer = np.concatenate(
        [np.asarray(chunk, dtype=np.int64) for chunk in chunks]
    )
    buffer.sort()
    return tuple(buffer.tolist())


def _persistable(index: HammingIndex, verb: str = "persist"):
    """``index`` if a durable store can hold it, else StoreError."""
    if not isinstance(index, DynamicHAIndex):
        raise StoreError(
            f"can only {verb} a DynamicHAIndex, not {type(index).__name__}"
        )
    return index


class ReplicaFaultPlan:
    """Seeded replica-fault oracle, mapped from the MapReduce chaos model.

    Reuses :class:`~repro.mapreduce.faults.ChaosPolicy` fields:

    * ``crash_prob`` — probability a given replica is unavailable for a
      given dispatch (triggers failover to the next replica);
    * ``straggler_prob`` — probability the primary is slow for a given
      dispatch (triggers a hedged dispatch to the first replica);
    * ``slow_workers`` — shard ids whose primary *always* straggles.

    Every decision is a pure function of the policy seed and the
    dispatch coordinates — independent of worker scheduling, so chaos
    runs are reproducible exactly like the MapReduce fault plans.
    """

    def __init__(self, policy: ChaosPolicy) -> None:
        self.policy = policy

    def replica_down(
        self, shard: int, replica: int, *context: object
    ) -> bool:
        """Is this replica unavailable for this dispatch?"""
        if not self.policy.crash_prob:
            return False
        return (
            hash_unit(
                self.policy.seed, "replica-down", shard, replica, *context
            )
            < self.policy.crash_prob
        )

    def primary_straggles(self, shard: int, *context: object) -> bool:
        """Should this dispatch hedge away from the shard's primary?"""
        if shard in self.policy.slow_workers:
            return True
        if not self.policy.straggler_prob:
            return False
        return (
            hash_unit(self.policy.seed, "straggler", shard, 0, *context)
            < self.policy.straggler_prob
        )


class _Shard:
    """One Gray-range shard: replica set + its own epoch.

    Replicas are deep snapshots of the primary.  Every replica's served
    plane is compiled here, at build (and refresh) time, so the first
    query does not pay ``num_shards`` lazy compiles.
    """

    __slots__ = ("sid", "replicas", "epoch")

    def __init__(
        self,
        sid: int,
        primary: HammingIndex,
        replication: int = 1,
        epoch: int = 0,
    ) -> None:
        self.sid = sid
        self.replicas = [primary] + [
            primary.snapshot() for _ in range(replication - 1)
        ]
        self.epoch = epoch
        if len(primary):
            for replica in self.replicas:
                served_plane(replica)

    @property
    def primary(self) -> HammingIndex:
        return self.replicas[0]


def _split_shards(
    codes: CodeSet,
    pivots: Sequence[int],
    builder: Callable[[CodeSet], HammingIndex],
    replication: int,
) -> tuple[list[_Shard], ScatterGatherPlanner]:
    """Split ``codes`` by Gray-rank pivots and build one shard per part,
    with a planner holding each part's exact occupied range."""
    planner = ScatterGatherPlanner(pivots, codes.length)
    shards = []
    for sid, part in enumerate(split_by_pivots(codes, pivots)):
        shards.append(_Shard(sid, builder(part), replication))
        planner.reset_range(sid, part.codes)
    return shards, planner


class _PlaneOps(NamedTuple):
    """What the served plane offers, read once per shard set.

    ``select`` names the batched sweep selects scatter (``None``: one
    ``search`` task per query); ``probe`` is ``contains_within`` or, on
    planes without it, ``search``; ``knn`` is the batched distance
    sweep, else the single-query one (``None``: the plane cannot rank).
    ``radius`` is the weighted engines' ``implied_radius`` hook, the
    largest unweighted distance a weighted match can sit at, so that
    pruning stays sound (``None``: plan at the threshold itself).
    """

    select: str | None
    probe: str
    knn: str | None
    radius: Callable[[float], int] | None

    @classmethod
    def of(cls, shards: list[_Shard]) -> "_PlaneOps":
        primary = shards[0].primary
        plane = served_plane(primary)

        def first(*names: str) -> str | None:
            return next((name for name in names if hasattr(plane, name)), None)

        return cls(
            first("search_batch_arrays", "search_batch"),
            first("contains_within") or "search",
            first("search_with_distances_batch", "search_with_distances"),
            getattr(primary, "implied_radius", None),
        )


class _ScatterIndex:
    """The served shards as one index, for the kNN expansion loop.

    :func:`~repro.core.knn.knn_select_batch` reads the code length, the
    size, the threshold cap and ``search_with_distances_batch``; each of
    its rounds becomes one scatter — one batched sweep per contacted
    shard — whose pairs concatenate in shard order.  Pruning is
    re-planned every round: as the threshold grows the Hamming ball
    widens and previously pruned shards rejoin the scatter.  Used only
    under the service mutex.
    """

    def __init__(self, service: "ShardedQueryService") -> None:
        self._service = service
        self.code_length = service._code_length
        # Weighted distances may exceed the code length.
        self.knn_threshold_cap = getattr(
            service._shards[0].primary, "knn_threshold_cap", 0
        )

    def __len__(self) -> int:
        return sum(len(shard.primary) for shard in self._service._shards)

    def search_with_distances_batch(
        self, queries: Sequence[int], threshold: int
    ) -> list[list[tuple[int, int]]]:
        service = self._service
        op = service._ops.knn
        gathered = service._scatter_queries(
            "knn",
            queries,
            threshold,
            *service._plan_batch(queries, threshold),
            op if op.endswith("_batch") else None,
            op,
        )
        return [
            chunks[0] if len(chunks) == 1
            else [pair for chunk in chunks for pair in chunk]
            for chunks in gathered
        ]


@dataclass(frozen=True, slots=True)
class ShardStats:
    """Scatter-gather accounting at one point in time.

    ``planned`` counts queries that actually executed a scatter (cache
    hits never scatter); ``shards_contacted``/``shards_pruned`` sum
    over those plans, so ``pruning_ratio`` is the fraction of
    (query, shard) visits the Gray-range bound eliminated.
    """

    num_shards: int
    replication: int
    planned: int
    shards_contacted: int
    shards_pruned: int
    broadcasts: int
    failovers: int
    hedges: int
    shard_sizes: tuple[int, ...]
    shard_epochs: tuple[int, ...]
    pool: str = "serial"
    pool_workers: int = 0
    pool_tasks: int = 0
    pool_fallbacks: int = 0
    pool_timeouts: int = 0
    pool_busy_seconds: float = 0.0
    pool_critical_seconds: float = 0.0

    @property
    def mean_contacted(self) -> float:
        return self.shards_contacted / self.planned if self.planned else 0.0

    @property
    def pruning_ratio(self) -> float:
        total = self.planned * self.num_shards
        return self.shards_pruned / total if total else 0.0

    def render(self) -> str:
        """Human-readable block (CLI ``serve-sharded`` prints this)."""
        return "\n".join(
            [
                "shard stats",
                f"  topology: {self.num_shards} shards x "
                f"{self.replication} replicas, "
                f"sizes {list(self.shard_sizes)}",
                f"  scatter:  {self.planned} planned queries, "
                f"mean {self.mean_contacted:.2f} shards contacted, "
                f"{self.broadcasts} broadcasts",
                f"  pruning:  {self.shards_pruned} shard visits avoided "
                f"({self.pruning_ratio * 100.0:.1f}% of "
                f"{self.planned * self.num_shards})",
                f"  replicas: {self.failovers} failovers, "
                f"{self.hedges} hedged dispatches",
                f"  pool:     {self.pool} x {self.pool_workers}, "
                f"{self.pool_tasks} tasks, "
                f"{self.pool_fallbacks} fallbacks, "
                f"{self.pool_timeouts} timeouts",
                f"  seconds:  {self.pool_busy_seconds:.3f} busy, "
                f"{self.pool_critical_seconds:.3f} critical path",
                f"  epochs:   {list(self.shard_epochs)}",
            ]
        )

    def publish(self, registry=None) -> None:
        """Fold the snapshot into a metrics registry as gauges."""
        if registry is None:
            from repro.obs import REGISTRY as registry
        if not registry.enabled:
            return
        totals = {
            "shard_service_shards": self.num_shards,
            "shard_service_replication": self.replication,
            "shard_service_planned": self.planned,
            "shard_service_contacted": self.shards_contacted,
            "shard_service_pruned": self.shards_pruned,
            "shard_service_broadcasts": self.broadcasts,
            "shard_service_failovers": self.failovers,
            "shard_service_hedges": self.hedges,
            "shard_pool_workers": self.pool_workers,
            "shard_pool_tasks": self.pool_tasks,
            "shard_pool_fallbacks": self.pool_fallbacks,
            "shard_pool_timeouts": self.pool_timeouts,
            "shard_pool_busy_seconds": self.pool_busy_seconds,
            "shard_pool_critical_seconds": self.pool_critical_seconds,
        }
        for name, value in totals.items():
            registry.gauge(name).set(value)
        for sid, size in enumerate(self.shard_sizes):
            registry.gauge(
                "shard_service_size", shard=str(sid)
            ).set(size)


class _ShardAccounting:
    """Thread-safe counters behind :class:`ShardStats`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.planned = 0
        self.contacted = 0
        self.pruned = 0
        self.broadcasts = 0
        self.failovers = 0
        self.hedges = 0

    def record_plans(self, plans: Sequence[ShardPlan]) -> None:
        with self._lock:
            for plan in plans:
                self.planned += 1
                self.contacted += len(plan.contacted)
                self.pruned += plan.pruned
                self.broadcasts += plan.broadcast

    def record_failover(self) -> None:
        with self._lock:
            self.failovers += 1

    def record_hedge(self) -> None:
        with self._lock:
            self.hedges += 1

    def snapshot(self, **fields) -> ShardStats:
        """The counters plus the caller's topology and pool ``fields``."""
        with self._lock:
            return ShardStats(
                planned=self.planned,
                shards_contacted=self.contacted,
                shards_pruned=self.pruned,
                broadcasts=self.broadcasts,
                failovers=self.failovers,
                hedges=self.hedges,
                **fields,
            )


class ShardedQueryService:
    """Scatter-gather query server over Gray-range shards.

    Args:
        codes: the dataset to serve (split by Gray rank at build time).
        num_shards: shard count when ``pivots`` is not given.
        pivots: explicit Gray-rank boundaries (``len + 1`` shards);
            defaults to equi-depth pivots over the full dataset.
        replication: replicas per shard (1 = primary only).  Replicas
            are deep snapshots of the primary and receive every
            mutation, so any replica answers identically.
        chaos: optional :class:`~repro.mapreduce.faults.ChaosPolicy`
            driving seeded replica failures (failover) and primary
            straggling (hedged dispatch).  Faults degrade latency and
            replica choice, never results: the last replica of a shard
            is always consulted (fail-open).
        engine: registry name of the per-shard index engine
            (:mod:`repro.core.engines`; default ``"dha"``).  Any engine
            works for serving; durable stores (``data_dir``) require
            ``"dha"`` since the store format persists the DHA-Index.
        index_params: keyword arguments for the per-shard engine
            builder.
        pruning: when ``False`` every query is broadcast to all
            non-empty shards — the ablation baseline the shard bench
            compares against to isolate what the Gray-range bound buys.
        pool: scatter backend — ``"serial"`` (inline), ``"thread"``
            (persistent thread pool), or ``"process"`` (spawn-once
            worker processes warm-started from memory-mapped
            snapshots).  All three return byte-identical results; see
            :mod:`repro.service.executor`.
        pool_workers: scatter pool width (defaults to
            ``min(num_shards, cpu_count)``); independent of ``workers``,
            the micro-batching thread count.
        task_timeout: per-scatter deadline for the parallel pools.  A
            process pool past it terminates the suspect workers and
            re-runs the missing tasks inline; a thread pool raises
            :class:`~repro.core.errors.PoolTimeoutError`.
        workers: micro-batch worker threads.
        max_batch: most queries coalesced into one batch.
        queue_limit: admission bound (waiting queries) before
            backpressure rejections start.
        cache_capacity: LRU result-cache entries (0 disables caching).
        default_timeout: server-side deadline in seconds applied to
            queries submitted without an explicit timeout (``None``
            means queries never expire).
        linger_seconds: how long a worker waits for a batch to fill
            (0 drains only what is already queued).
        start: spawn the worker pool immediately; pass ``False`` to
            stage requests before serving begins (tests use this to
            exercise backpressure and batching deterministically).
        trace_batches: open a ``service.batch`` trace around every
            micro-batch execution, so the engine's per-level spans are
            collected on the worker thread and the latest batch tree is
            readable from :func:`repro.obs.last_trace` (off by
            default — tracing every batch is not free).
        data_dir: persist the shard set under this (fresh) directory —
            a ``topology.json`` describing the split plus one
            :class:`~repro.store.store.DurableIndexStore` per shard
            (``shard-0000/`` ...).  Mutations are WAL-logged on the
            owning shard's store before any replica applies them;
            reopen with :meth:`open`.
        fsync: passed to the per-shard stores.
    """

    #: name of the shard-layout manifest inside ``data_dir``.
    TOPOLOGY_FILE = "topology.json"

    def __init__(
        self,
        codes: CodeSet,
        *,
        num_shards: int = 4,
        pivots: Sequence[int] | None = None,
        replication: int = 1,
        chaos: ChaosPolicy | None = None,
        engine: str = "dha",
        index_params: dict | None = None,
        pruning: bool = True,
        pool: str = "serial",
        pool_workers: int | None = None,
        task_timeout: float | None = None,
        workers: int = DEFAULT_WORKERS,
        max_batch: int = DEFAULT_MAX_BATCH,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        default_timeout: float | None = None,
        linger_seconds: float = 0.0,
        start: bool = True,
        trace_batches: bool = False,
        data_dir: str | None = None,
        fsync: bool = True,
    ) -> None:
        if replication < 1:
            raise InvalidParameterError("replication must be >= 1")
        if pivots is None:
            if num_shards < 1:
                raise InvalidParameterError("num_shards must be positive")
            pivots = (
                select_pivots(codes.codes, num_shards)
                if num_shards > 1 and len(codes)
                else []
            )
        spec = get_engine(engine)
        if data_dir is not None and spec.name != "dha":
            raise StoreError(
                f"durable sharded stores require the dha engine, "
                f"not {spec.name!r}"
            )
        index_params = dict(index_params or {})
        builder = functools.partial(spec.builder, **index_params)
        shards, planner = _split_shards(codes, pivots, builder, replication)
        stores = None
        if data_dir is not None:
            stores = _init_stores(
                data_dir,
                fsync,
                shards,
                {
                    "code_length": codes.length,
                    "pivots": list(planner.pivots),
                    "replication": replication,
                    "index_params": index_params,
                },
            )
        self._setup(
            shards,
            planner,
            stores,
            engine=spec.name,
            builder=builder,
            replication=replication,
            chaos=chaos,
            pruning=pruning,
            pool=pool,
            pool_workers=pool_workers,
            task_timeout=task_timeout,
            workers=workers,
            max_batch=max_batch,
            queue_limit=queue_limit,
            cache_capacity=cache_capacity,
            default_timeout=default_timeout,
            linger_seconds=linger_seconds,
            start=start,
            trace_batches=trace_batches,
        )

    def _setup(
        self,
        shards: list[_Shard],
        planner: ScatterGatherPlanner,
        stores: list | None,
        *,
        engine: str,
        builder: Callable[[CodeSet], HammingIndex] | None,
        replication: int = 1,
        chaos: ChaosPolicy | None = None,
        pruning: bool = True,
        pool: str = "serial",
        pool_workers: int | None = None,
        task_timeout: float | None = None,
        workers: int = DEFAULT_WORKERS,
        max_batch: int = DEFAULT_MAX_BATCH,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        default_timeout: float | None = None,
        linger_seconds: float = 0.0,
        start: bool = True,
        trace_batches: bool = False,
    ) -> None:
        """State and serving stack shared by every constructor.

        ``builder`` builds one shard index from a :class:`CodeSet` on
        :meth:`refresh`; ``None`` builds with the served index's own
        type and default parameters.
        """
        if default_timeout is not None and default_timeout <= 0:
            raise InvalidParameterError("default_timeout must be positive")
        if pool not in POOL_KINDS:
            raise InvalidParameterError(
                f"unknown pool {pool!r}; expected one of {POOL_KINDS}"
            )
        self._code_length = planner.code_length
        self._planner = planner
        self._shards = shards
        self._stores = stores
        self._ops = _PlaneOps.of(shards)
        self._global_epoch = sum(shard.epoch for shard in shards)
        self._engine = engine
        self._builder = builder
        self._replication = replication
        self._faults = (
            ReplicaFaultPlan(chaos)
            if chaos is not None and chaos.enabled
            else None
        )
        self._pruning = pruning
        self._lock = threading.Lock()
        self._trace_batches = trace_batches
        self._default_timeout = default_timeout
        self._closed = False
        self._cache = ResultCache(cache_capacity)
        self._accounting = ServiceAccounting()
        self._shard_accounting = _ShardAccounting()
        self._replica_lock = threading.Lock()
        self._outstanding = {
            shard.sid: [0] * len(shard.replicas) for shard in shards
        }
        self._pool_kind = pool
        self._pool_workers = pool_workers or default_pool_workers(
            len(shards)
        )
        self._task_timeout = task_timeout
        self._executor = self._build_executor()
        self._queue: AdmissionQueue[QueryRequest] = AdmissionQueue(
            queue_limit, workers_hint=workers
        )
        self._scheduler = MicroBatchScheduler(
            self._queue,
            self._execute_batch,
            workers=workers,
            max_batch=max_batch,
            linger_seconds=linger_seconds,
        )
        if start:
            self.start()

    # -- scatter pool ------------------------------------------------------

    def _build_executor(self):
        return make_executor(
            self._pool_kind,
            workers=self._pool_workers,
            spec_factory=self._worker_shard_specs,
            task_timeout=self._task_timeout,
            faults=self._faults,
            accounting=self._shard_accounting,
        )

    def _worker_shard_specs(self) -> tuple[dict, str | None]:
        """Per-shard warm-start specs for process-pool workers.

        Durable services hand out their store directories — workers
        recover read-only (memory-mapped snapshot + WAL replay) and
        never re-pickle an index.  In-memory DHA-Index shards are
        written as one snapshot per shard into a scratch directory the
        executor owns; other engines ship one pickled copy per worker,
        or raise :class:`~repro.core.errors.StoreError` when the engine
        cannot be pickled.
        """
        if self._stores is not None:
            specs = {
                shard.sid: (
                    "store",
                    str(store.data_dir),
                    shard.epoch,
                    store.last_seq,
                )
                for shard, store in zip(self._shards, self._stores)
            }
            return specs, None
        if all(
            isinstance(shard.primary, DynamicHAIndex)
            for shard in self._shards
        ):
            import tempfile
            from pathlib import Path

            from repro.store.snapshot import write_snapshot

            scratch = tempfile.mkdtemp(prefix="repro-shard-pool-")
            specs = {}
            for shard in self._shards:
                path = Path(scratch) / f"shard-{shard.sid:04d}.ha"
                write_snapshot(
                    path,
                    shard.primary,
                    last_seq=shard.epoch,
                    fsync=False,
                )
                specs[shard.sid] = ("snap", str(path), shard.epoch)
            return specs, scratch
        import pickle

        specs = {}
        for shard in self._shards:
            try:
                data = pickle.dumps(
                    shard.primary, protocol=pickle.HIGHEST_PROTOCOL
                )
            except Exception as error:  # noqa: BLE001 - explicit refusal
                raise StoreError(
                    f"engine {self._engine!r} index for shard "
                    f"{shard.sid} cannot be shared with worker "
                    f"processes (pickle failed: {error}); use "
                    "pool='thread' or pool='serial'"
                ) from error
            specs[shard.sid] = ("pickle", data, shard.epoch)
        return specs, None

    @property
    def pool(self) -> str:
        """Active scatter backend (``serial``/``thread``/``process``)."""
        return self._executor.kind

    @property
    def pool_workers(self) -> int:
        return self._pool_workers

    def set_pool(
        self,
        pool: str,
        pool_workers: int | None = None,
        task_timeout: float | None = None,
        model_width: int | None = None,
    ) -> None:
        """Swap the scatter backend in place (no index rebuild).

        The swap happens under the service mutex, so no scatter is ever
        split across backends; the old pool's processes/threads are
        released after the swap.  ``task_timeout=None`` keeps the
        current deadline.  ``model_width`` sets the width at which the
        new executor's critical-path seconds are scheduled (the
        modelled-cluster-time accounting; defaults to the pool's real
        width).
        """
        self._check_open()
        if pool not in POOL_KINDS:
            raise InvalidParameterError(
                f"unknown pool {pool!r}; expected one of {POOL_KINDS}"
            )
        with self._lock:
            old = self._executor
            self._pool_kind = pool
            if pool_workers is not None:
                self._pool_workers = pool_workers
            if task_timeout is not None:
                self._task_timeout = task_timeout
            self._executor = self._build_executor()
            self._executor.model_width = model_width
        old.close()

    # -- durability --------------------------------------------------------

    @classmethod
    def open(
        cls,
        data_dir: str,
        *,
        fsync: bool = True,
        chaos: ChaosPolicy | None = None,
        pruning: bool = True,
        pool: str = "serial",
        pool_workers: int | None = None,
        task_timeout: float | None = None,
        workers: int = DEFAULT_WORKERS,
        max_batch: int = DEFAULT_MAX_BATCH,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        default_timeout: float | None = None,
        linger_seconds: float = 0.0,
        start: bool = True,
        trace_batches: bool = False,
    ) -> "ShardedQueryService":
        """Warm-start the sharded service from a persisted directory.

        Reads ``topology.json`` (pivots, replication, index params) and
        recovers every shard's store independently — newest valid
        snapshot plus WAL replay per shard.  Each shard's epoch resumes
        at its store's last logged sequence number and the global epoch
        is their sum, matching a never-restarted service that applied
        the same per-shard mutation history.
        """
        import json
        from pathlib import Path

        from repro.store.store import DurableIndexStore

        root = Path(data_dir)
        manifest = root / cls.TOPOLOGY_FILE
        try:
            topology = json.loads(manifest.read_text("utf-8"))
        except FileNotFoundError:
            raise StoreError(f"no shard topology at {manifest}") from None
        except (OSError, ValueError) as error:
            raise StoreError(
                f"unreadable shard topology {manifest}: {error}"
            ) from error
        if topology.get("format") != "repro-shard-topology":
            raise StoreError(f"{manifest} is not a shard topology file")

        replication = int(topology["replication"])
        planner = ScatterGatherPlanner(
            [int(p) for p in topology["pivots"]],
            int(topology["code_length"]),
        )
        shards: list[_Shard] = []
        stores = []
        for sid in range(int(topology["num_shards"])):
            store = DurableIndexStore(
                root / f"shard-{sid:04d}", fsync=fsync
            )
            primary = store.open()
            shards.append(
                _Shard(sid, primary, replication, epoch=store.last_seq)
            )
            stores.append(store)
            planner.reset_range(
                sid, [code for code, _ in primary.code_id_pairs()]
            )
        self = cls.__new__(cls)
        self._setup(
            shards,
            planner,
            stores,
            engine="dha",  # stores always persist the DHA-Index
            builder=functools.partial(
                get_engine("dha").builder,
                **(topology.get("index_params") or {}),
            ),
            replication=replication,
            chaos=chaos,
            pruning=pruning,
            pool=pool,
            pool_workers=pool_workers,
            task_timeout=task_timeout,
            workers=workers,
            max_batch=max_batch,
            queue_limit=queue_limit,
            cache_capacity=cache_capacity,
            default_timeout=default_timeout,
            linger_seconds=linger_seconds,
            start=start,
            trace_batches=trace_batches,
        )
        return self

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        if self._closed:
            raise ServiceClosedError("cannot restart a closed service")
        self._scheduler.start()

    def close(self, *, snapshot: bool = True) -> None:
        """Stop admitting, drain queued queries, join the workers.

        Every already-admitted query is still answered (or times out on
        its own deadline) — shutdown never silently drops work.  With
        durable stores attached, ``snapshot=True`` (the default) rotates
        a final generation on every store whose WAL has pending
        records, so the next :meth:`open` warm-starts from the
        memory-mapped snapshot with nothing to replay; ``snapshot=False``
        skips the rotation and relies on WAL replay instead.
        """
        if self._closed:
            return
        self._closed = True
        self._scheduler.start()  # ensure someone drains the backlog
        self._queue.close()
        self._scheduler.join()
        self._executor.close()
        if self._stores is not None:
            for shard, store in zip(self._shards, self._stores):
                try:
                    if snapshot and store.wal_tail:
                        with self._lock:
                            store.snapshot(shard.primary)
                finally:
                    store.close()

    def __enter__(self) -> "ShardedQueryService":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def code_length(self) -> int:
        return self._code_length

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def replication(self) -> int:
        return self._replication

    @property
    def pivots(self) -> list[int]:
        return self._planner.pivots

    @property
    def epoch(self) -> int:
        with self._lock:
            return self._global_epoch

    def __len__(self) -> int:
        with self._lock:
            return sum(len(shard.primary) for shard in self._shards)

    def shard_sizes(self) -> list[int]:
        with self._lock:
            return [len(shard.primary) for shard in self._shards]

    # -- query side --------------------------------------------------------

    def submit(
        self,
        kind: str,
        query: int,
        param: int,
        timeout: float | None = None,
    ) -> QueryTicket:
        """Admit one query; returns its ticket immediately.

        The query (and a kNN ``k``) must be integers; a threshold goes
        through the served engine's own check, since weighted engines
        take float thresholds.

        Raises:
            ServiceOverloadError: queue full (carries retry-after).
            ServiceClosedError: service shut down.
            InvalidParameterError / CodeLengthError: malformed query.
        """
        if self._closed:
            raise ServiceClosedError("query service is closed")
        if kind not in QUERY_KINDS:
            raise InvalidParameterError(
                f"unknown query kind {kind!r}; expected one of {QUERY_KINDS}"
            )
        try:
            query = operator.index(query)
            if kind == "knn":
                param = operator.index(param)
        except TypeError:
            raise InvalidParameterError(
                f"{kind} query{' and k' if kind == 'knn' else ''} "
                "must be integers"
            ) from None
        check = self._shards[0].primary._check_query
        if kind == "knn":
            if param < 1:
                raise InvalidParameterError("k must be positive")
            check(query, 0)
        else:
            check(query, param)
        now = time.monotonic()
        if timeout is None:
            timeout = self._default_timeout
        deadline = None if timeout is None else now + timeout
        request = QueryRequest(
            kind=kind,
            query=query,
            param=param,
            submitted_at=now,
            deadline=deadline,
        )
        try:
            self._queue.offer(request)
        except ServiceClosedError:
            raise
        except Exception:
            self._accounting.record_rejected()
            if REGISTRY.enabled:
                REGISTRY.counter(
                    "service_rejected_total",
                    "queries refused at admission",
                ).inc()
            raise
        return request.ticket

    def select(
        self, query: int, threshold: int, timeout: float | None = None
    ) -> ServedResult:
        """Blocking Hamming-select; ``value`` is an id-sorted tuple of
        tuple ids gathered from the contacted shards."""
        return self._await(self.submit("select", query, threshold, timeout))

    def probe(
        self, query: int, threshold: int, timeout: float | None = None
    ) -> ServedResult:
        """Blocking join-probe; ``value`` is ``True`` iff any indexed
        code lies within ``threshold`` (the semi-join existence test;
        pruned shards provably hold none)."""
        return self._await(self.submit("probe", query, threshold, timeout))

    def knn(
        self, query: int, k: int, timeout: float | None = None
    ) -> ServedResult:
        """Blocking kNN-select; ``value`` is ``((tuple_id, distance), ...)``
        sorted by (distance, id) — identical to the single-index
        expanding-threshold loop."""
        return self._await(self.submit("knn", query, k, timeout))

    @staticmethod
    def _await(ticket: QueryTicket) -> ServedResult:
        result = ticket.result()
        assert isinstance(result, ServedResult)
        return result

    def join(
        self, outer: CodeSet, threshold: int
    ) -> list[tuple[int, int]]:
        """Scatter-gather Hamming-join of ``outer`` against the served
        dataset; returns sorted ``(outer_id, inner_id)`` pairs.

        A bulk offline entry point (not queued): the outer codes are
        planned, the per-shard probe sets run through the shards'
        batched sweeps, and the pairs merge in sorted order — the
        distributed join's scatter phase, served online.
        """
        self._check_open()
        if outer.length != self._code_length:
            raise CodeLengthError(
                f"outer codes are {outer.length}-bit, service serves "
                f"{self._code_length}-bit codes"
            )
        if threshold < 0:
            raise InvalidParameterError("threshold must be non-negative")
        queries = list(outer.codes)
        with self._lock:
            gathered = self._scatter_queries(
                "join",
                queries,
                threshold,
                *self._plan_batch(queries, threshold),
                self._ops.select,
                "search",
            )
        pairs = [
            (outer_id, inner)
            for outer_id, chunks in zip(outer.ids, gathered)
            for inner in _merge_sorted_ids(chunks)
        ]
        pairs.sort()
        return pairs

    # -- writer side (Algorithm 2 through the service) ---------------------

    def insert(self, code: int, tuple_id: int) -> int:
        """H-Insert into the owning shard (every replica); returns the
        new epoch.  Only that shard's epoch is bumped, so cached
        results whose plans never touch it stay valid.

        With a durable store attached the mutation is WAL-logged
        *before* it touches any replica (write-ahead), so a crash after
        this method returns never loses it.
        """
        self._check_open()
        self._check_code(code)
        with self._lock:
            sid = self._planner.route(code)
            shard = self._shards[sid]
            if self._stores is not None:
                self._precheck_mutation(shard, "insert into")
                self._stores[sid].append_insert(code, tuple_id)
            for replica in shard.replicas:
                replica.insert(code, tuple_id)
            self._planner.observe(sid, code)
            return self._bump(shard, "insert", code, tuple_id)

    def delete(self, code: int, tuple_id: int) -> int:
        """H-Delete from the owning shard (every replica); returns the
        new epoch.  The shard's occupied Gray range is kept
        conservatively wide (sound; tightened on the next refresh)."""
        self._check_open()
        self._check_code(code)
        with self._lock:
            sid = self._planner.route(code)
            shard = self._shards[sid]
            if self._stores is not None:
                self._precheck_mutation(shard, "delete from")
                if tuple_id not in shard.primary.ids_for_code(code):
                    raise IndexStateError(
                        f"tuple {tuple_id} with code {code:#x} not present"
                    )
                self._stores[sid].append_delete(code, tuple_id)
            for replica in shard.replicas:
                replica.delete(code, tuple_id)
            return self._bump(shard, "delete", code, tuple_id)

    def _bump(
        self, shard: _Shard, op: str, code: int, tuple_id: int
    ) -> int:
        """Advance the shard and service epochs after one applied write
        (under the mutex) and forward it to the scatter pool."""
        shard.epoch += 1
        self._global_epoch += 1
        self._executor.mutate(shard.sid, op, code, tuple_id, shard.epoch)
        return self._global_epoch

    @staticmethod
    def _precheck_mutation(shard: _Shard, verb: str) -> None:
        """Raise what the primary would, *before* the WAL append.

        Logging a record the shard then rejects would poison replay, so
        the index's own preconditions run first, with its messages.
        """
        primary = shard.primary
        if getattr(primary, "_frozen", False):
            raise IndexStateError("merged global HA-Index is read-only")
        if not primary.keeps_ids:
            raise IndexStateError(
                f"cannot {verb} a leaf-less (keep_ids=False) index"
            )

    def refresh(self, source: HammingIndex | CodeSet) -> int:
        """Copy-on-swap bulk reload; returns the new epoch.

        A :class:`CodeSet` is re-split by the existing pivots and every
        shard rebuilt (with the served engine and parameters); a
        prebuilt index replaces the one shard of a one-shard service.
        The build happens *outside* the mutex — readers only ever wait
        for the swap — then occupied ranges are recomputed exactly,
        stores rotate a fresh generation, and the whole cache is
        dropped.
        """
        self._check_open()
        prebuilt = isinstance(source, HammingIndex)
        if prebuilt and len(self._shards) != 1:
            raise InvalidParameterError(
                "a prebuilt index can only refresh a one-shard service; "
                "pass a CodeSet to re-split it over the shards"
            )
        length = source.code_length if prebuilt else source.length
        if length != self._code_length:
            raise InvalidParameterError(
                f"refresh code length {length} != served "
                f"{self._code_length}"
            )
        if prebuilt:
            shards = [_Shard(0, source, self._replication)]
            planner = ScatterGatherPlanner([], length)
        else:
            builder = self._builder or type(self._shards[0].primary).build
            shards, planner = _split_shards(
                source, self._planner.pivots, builder, self._replication
            )
        if self._stores is not None:
            for shard in shards:
                _persistable(shard.primary)
        ops = _PlaneOps.of(shards)
        with self._lock:
            for old, fresh in zip(self._shards, shards):
                fresh.epoch = old.epoch + 1
            if self._stores is not None:
                # A bulk reload invalidates every shard's WAL chain;
                # rotate a fresh snapshot generation per shard before
                # serving the replacement.
                for store, fresh in zip(self._stores, shards):
                    store.snapshot(fresh.primary)
            self._shards = shards
            self._planner = planner
            self._ops = ops
            self._global_epoch += 1
            epoch = self._global_epoch
            self._executor.reload()
        self._accounting.record_refresh()
        self._cache.clear()
        return epoch

    def save_snapshot(self) -> int:
        """Rotate a new snapshot generation on every store.

        Folds each store's logged mutations into a fresh snapshot so
        the next :meth:`open` replays empty WAL tails; returns the
        highest generation.  Requires a durable store.
        """
        self._check_open()
        if self._stores is None:
            raise StoreError(
                "service has no durable store; construct it with "
                "data_dir= or open() to persist snapshots"
            )
        with self._lock:
            for store, shard in zip(self._stores, self._shards):
                store.snapshot(shard.primary)
            return max(store.generation for store in self._stores)

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosedError("query service is closed")

    def _check_code(self, code: int) -> None:
        if code < 0 or code >> self._code_length:
            raise CodeLengthError(
                f"code {code:#x} does not fit in {self._code_length} bits"
            )

    # -- scatter-gather core (runs under the service mutex) ----------------

    def _plan(self, query: int, threshold: float) -> ShardPlan:
        if not self._pruning:
            return self._planner.broadcast()
        radius = self._ops.radius
        return self._planner.plan(
            query, threshold if radius is None else radius(threshold)
        )

    def _plan_batch(
        self, queries: Sequence[int], threshold: float
    ) -> tuple[list[ShardPlan], dict[int, list[int]]]:
        """Plans for queries sharing a threshold, and their transpose."""
        if not self._pruning:
            plans = [self._planner.broadcast()] * len(queries)
            return plans, shard_positions(plans)
        radius = self._ops.radius
        return self._planner.plan_batch(
            queries, threshold if radius is None else radius(threshold)
        )

    def _record_plans(self, plans: Sequence[ShardPlan]) -> None:
        self._shard_accounting.record_plans(plans)
        if not REGISTRY.enabled:
            return
        contacted = REGISTRY.counter(
            "shards_contacted_total",
            "shard visits performed by executed queries",
        )
        pruned = REGISTRY.counter(
            "shard_pruned_total",
            "shard visits avoided by the Gray-range bound",
        )
        histogram = REGISTRY.histogram(
            "shards_contacted",
            "shards contacted per executed query",
            buckets=tuple(float(2**i) for i in range(0, 8)),
        )
        for plan in plans:
            contacted.inc(len(plan.contacted))
            pruned.inc(plan.pruned)
            if plan.broadcast:
                REGISTRY.counter(
                    "shard_broadcast_total",
                    "queries whose pruning bound was vacuous",
                ).inc()
            histogram.observe(float(len(plan.contacted)))

    def _pick_replica(self, shard: _Shard, op: str, context: tuple) -> int:
        """Least-outstanding replica after chaos hedging and failover
        (ties by index, so an idle service visits the primary first);
        counted as outstanding until the dispatch releases it."""
        counts = self._outstanding[shard.sid]
        with self._replica_lock:
            order = sorted(
                range(len(counts)), key=lambda ridx: (counts[ridx], ridx)
            )
        choice = route_around_faults(
            order, self._faults, self._shard_accounting, shard.sid, op,
            context,
        )
        with self._replica_lock:
            counts[choice] += 1
        return choice

    def _dispatch_task(self, task: ShardTask):
        """Run one shard operation on a replica's served plane.

        Executor-facing and thread-safe: replica choice and accounting
        take their own locks, never the service mutex.  A lone replica
        needs no choice and no outstanding count.
        """
        shard = self._shards[task.sid]
        replicas = shard.replicas
        counted = len(replicas) > 1
        ridx = (
            self._pick_replica(shard, task.op, task.context)
            if counted
            else 0
        )
        try:
            with trace_span(
                "shard.search", shard=shard.sid, replica=ridx, op=task.op
            ):
                return getattr(served_plane(replicas[ridx]), task.op)(
                    *task.args
                )
        finally:
            if counted:
                with self._replica_lock:
                    self._outstanding[shard.sid][ridx] -= 1

    def _scatter_queries(
        self,
        kind: str,
        queries: Sequence[int],
        threshold: float,
        plans: Sequence[ShardPlan],
        by_shard: dict[int, list[int]],
        batch_op: str | None,
        op: str,
    ) -> list[list]:
        """One scatter for planned queries sharing a threshold.

        ``by_shard`` is the plans' transpose (:func:`shard_positions`).
        Each contacted shard receives one ``batch_op`` sweep over every
        query routed to it, or one ``op`` task per query when the plane
        has no batched form.  Returns, per query, its shard chunks in
        shard order.
        """
        self._record_plans(plans)
        tasks: list[ShardTask] = []
        slots: list[list[int]] = []
        for sid in sorted(by_shard) if len(by_shard) > 1 else by_shard:
            positions = by_shard[sid]
            epoch = self._shards[sid].epoch
            if batch_op is not None:
                batch = [queries[position] for position in positions]
                args, context = (batch, threshold), (kind, threshold, batch[0])
                tasks.append(ShardTask(sid, batch_op, args, context, epoch))
                slots.append(positions)
                continue
            for position in positions:
                query = queries[position]
                args, context = (query, threshold), (kind, threshold, query)
                tasks.append(ShardTask(sid, op, args, context, epoch))
                slots.append((position,))
        executor = self._executor
        with trace_span(
            "shard.scatter",
            kind=kind,
            pool=executor.kind,
            threshold=threshold,
            queries=len(queries),
            shards=len(tasks),
        ):
            values = executor.scatter(tasks, self._dispatch_task)
        gathered: list[list] = [[] for _ in queries]
        with trace_span("shard.gather", kind=kind, shards=len(tasks)):
            for positions, value in zip(slots, values):
                chunks = value if batch_op is not None else (value,)
                for position, chunk in zip(positions, chunks):
                    gathered[position].append(chunk)
        return gathered

    # -- batch execution (runs on worker threads) --------------------------

    def _execute_batch(self, batch: list[QueryRequest]) -> None:
        if self._trace_batches:
            # Worker threads have no client trace; open a root here so
            # the engines' per-level spans are captured per batch.
            with trace("service.batch", size=len(batch)):
                self._execute_batch_inner(batch)
        else:
            self._execute_batch_inner(batch)

    def _execute_batch_inner(self, batch: list[QueryRequest]) -> None:
        started = time.monotonic()
        live: list[QueryRequest] = []
        timed_out = 0
        for request in batch:
            if request.deadline is not None and started > request.deadline:
                self._accounting.record_timed_out()
                timed_out += 1
                waited_ms = (started - request.submitted_at) * 1000.0
                request.ticket.fail(ServiceTimeoutError(
                    f"{request.kind} query missed its deadline after "
                    f"waiting {waited_ms:.1f} ms in the admission queue"
                ))
                continue
            live.append(request)
        if REGISTRY.enabled and timed_out:
            REGISTRY.counter(
                "service_timed_out_total", "queries past their deadline"
            ).inc(timed_out)
        if not live:
            return
        groups: dict[tuple[str, int, int], list[QueryRequest]] = {}
        for request in live:
            groups.setdefault(request.key, []).append(request)
        resolutions: list[tuple[QueryRequest, ServedResult]] = []
        executed = dedup_saved = 0
        with self._lock:
            epoch = self._global_epoch
            shards = self._shards
            # Cache stamps by contacted shard set; ``None`` is kNN's,
            # which may expand into any shard.
            stamps: dict[tuple[int, ...] | None, tuple] = {}
            values: dict[tuple[str, int, int], tuple[object, bool]] = {}
            misses: dict[tuple[str, int], list[tuple]] = {}
            for key, requests in groups.items():
                kind, query, param = key
                plan = None if kind == "knn" else self._plan(query, param)
                contacted = None if plan is None else plan.contacted
                stamp = stamps.get(contacted)
                if stamp is None:
                    stamp = stamps[contacted] = (
                        tuple([shard.epoch for shard in shards])
                        if contacted is None
                        else tuple([(sid, shards[sid].epoch) for sid in contacted])
                    )
                cache_key = key + (stamp,)
                value = self._cache.get(cache_key, weight=len(requests))
                if value is MISS:
                    misses.setdefault((kind, param), []).append(
                        (key, plan, cache_key)
                    )
                else:
                    values[key] = (value, True)
            for (kind, param), entries in misses.items():
                answers = self._run_misses(
                    kind,
                    param,
                    [key[1] for key, _, _ in entries],
                    [plan for _, plan, _ in entries],
                )
                for (key, _, cache_key), value in zip(entries, answers):
                    self._cache.put(cache_key, value)
                    values[key] = (value, False)
                    dedup_saved += len(groups[key]) - 1
                executed += len(entries)
            for key, requests in groups.items():
                value, cached = values[key]
                result = ServedResult(value, epoch, cached)
                resolutions.extend(
                    (request, result) for request in requests
                )
        finished = time.monotonic()
        publish = REGISTRY.enabled
        hits = 0
        for request, result in resolutions:
            latency_ms = (finished - request.submitted_at) * 1000.0
            self._accounting.record_served(latency_ms)
            if publish:
                REGISTRY.histogram(
                    "service_request_latency_ms",
                    "submit-to-resolve latency",
                    kind=request.kind,
                ).observe(latency_ms)
                if result.cached:
                    hits += 1
            request.ticket.resolve(result)
        self._accounting.record_batch(len(live), executed, dedup_saved)
        if publish:
            REGISTRY.counter(
                "service_served_total", "queries answered"
            ).inc(len(resolutions))
            REGISTRY.counter(
                "service_cache_hits_total",
                "requests absorbed by the result cache",
            ).inc(hits)
            REGISTRY.counter(
                "service_traversals_total",
                "query executions after cache and dedup",
            ).inc(executed)
            REGISTRY.histogram(
                "service_batch_size",
                "live queries per micro-batch",
                buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
            ).observe(float(len(live)))
        self._queue.note_service_time((finished - started) / len(live))

    def _run_misses(
        self,
        kind: str,
        param: float,
        queries: list[int],
        plans: list[ShardPlan | None],
    ) -> list[object]:
        """Answer one group of a micro-batch's uncached queries.

        A group shares its kind and parameter and runs as one scatter
        over its (already made) plans: ``select`` takes one batched
        sweep per contacted shard and merges to id-ascending tuples;
        ``probe`` ORs the per-shard membership answers; ``knn`` runs one
        expanding-threshold schedule (:meth:`_run_knn_batch`).  Returns the
        answers in query order.  Runs under the mutex.
        """
        if kind == "knn":
            return self._run_knn_batch(queries, param)
        if kind == "select":
            gathered = self._scatter_queries(
                "select_batch", queries, param, plans,
                shard_positions(plans), self._ops.select, "search",
            )
            return [_merge_sorted_ids(chunks) for chunks in gathered]
        gathered = self._scatter_queries(
            "probe", queries, param, plans, shard_positions(plans), None,
            self._ops.probe,
        )
        return [any(chunks) for chunks in gathered]

    def _run_knn_batch(
        self, queries: list[int], k: int
    ) -> list[tuple[tuple[int, int], ...]]:
        """kNN for queries sharing ``k``: one expanding-threshold
        schedule over the scatter.

        Byte-compatible with :func:`repro.core.knn.knn_select` on a
        monolithic index: the same threshold schedule, and since each
        round gathers the exact union of per-shard matches, the same
        match counts, sort and cut.
        """
        if self._ops.knn is None:
            raise InvalidParameterError(
                f"{type(self._shards[0].primary).__name__} does not "
                "expose search_with_distances"
            )
        # Looked up by name on the server module, where timing
        # harnesses wrap the kNN entry points.
        from repro.service import server

        pair_lists = server.knn_select_batch(queries, _ScatterIndex(self), k)
        return [tuple(pairs) for pairs in pair_lists]

    # -- observability -----------------------------------------------------

    def stats(self) -> ServiceStats:
        """A consistent :class:`ServiceStats` snapshot (service epoch).

        With durable stores attached, ``stats().store`` aggregates them
        (summed counters, max generation).
        """
        with self._lock:
            epoch = self._global_epoch
        return self._accounting.snapshot(
            queue_depth=self._queue.depth(),
            queue_capacity=self._queue.capacity,
            workers=self._scheduler.workers,
            epoch=epoch,
            cache=self._cache.stats(),
            store=self.store_stats(),
        )

    def store_stats(self):
        """Aggregated per-shard store accounting (``None`` if in-memory)."""
        if self._stores is None:
            return None
        from repro.store.store import StoreStats

        return StoreStats.merge(
            [store.stats() for store in self._stores]
        )

    def shard_stats(self) -> ShardStats:
        """A consistent :class:`ShardStats` snapshot."""
        with self._lock:
            sizes = tuple(len(shard.primary) for shard in self._shards)
            epochs = tuple(shard.epoch for shard in self._shards)
            executor = self._executor
        tasks, fallbacks, timeouts = executor.counters()
        busy, critical = executor.seconds()
        return self._shard_accounting.snapshot(
            num_shards=len(sizes),
            replication=self._replication,
            shard_sizes=sizes,
            shard_epochs=epochs,
            pool=executor.kind,
            pool_workers=executor.workers,
            pool_tasks=tasks,
            pool_fallbacks=fallbacks,
            pool_timeouts=timeouts,
            pool_busy_seconds=busy,
            pool_critical_seconds=critical,
        )

    def publish_metrics(self) -> tuple[ServiceStats, ShardStats]:
        """Snapshot both stat blocks and fold them into the registry.

        Respects the registry's ``enabled`` flag; returns the snapshots
        either way so callers can render them too.
        """
        stats = self.stats()
        stats.publish()
        shard_stats = self.shard_stats()
        shard_stats.publish()
        return stats, shard_stats


def _init_stores(
    data_dir: str, fsync: bool, shards: list[_Shard], topology: dict
):
    """Write ``topology.json`` and one fresh store per shard."""
    import json
    from pathlib import Path

    from repro.store.format import atomic_write
    from repro.store.store import DurableIndexStore

    root = Path(data_dir)
    manifest = root / ShardedQueryService.TOPOLOGY_FILE
    if manifest.exists():
        raise StoreError(
            f"{data_dir} already holds a sharded store; use "
            "ShardedQueryService.open(data_dir) to recover it"
        )
    root.mkdir(parents=True, exist_ok=True)
    topology = {
        "format": "repro-shard-topology",
        "version": 1,
        "num_shards": len(shards),
        **topology,
    }
    atomic_write(
        manifest,
        json.dumps(topology, sort_keys=True, indent=2).encode("utf-8"),
        fsync=fsync,
    )
    stores = []
    for shard in shards:
        store = DurableIndexStore(
            root / f"shard-{shard.sid:04d}", fsync=fsync
        )
        store.initialize(shard.primary)
        stores.append(store)
    return stores
