"""Sharded scatter-gather serving over Gray-range partitions.

:class:`ShardedQueryService` is the scale-out sibling of
:class:`~repro.service.server.HammingQueryService`: instead of one
monolithic index it serves a dataset split into Gray-rank shards — the
very partitioning the paper's Section 5.1 uses to balance MapReduce
workers (sampled equi-depth pivots over the Gray order).  Each shard
holds a :class:`~repro.core.dynamic_ha.DynamicHAIndex` primary plus
optional replicas, and every query runs through a scatter-gather plan:

1. **Prune.**  The :class:`~repro.service.planner.ScatterGatherPlanner`
   computes, per shard, an exact lower bound on the Hamming distance
   between the query and *any* code the shard can hold (a digit DP over
   the shard's Gray-rank range).  Shards whose bound exceeds the
   threshold are skipped; when nothing can be skipped the plan falls
   back to a broadcast.
2. **Scatter.**  The surviving shard operations run through a pluggable
   executor (:mod:`repro.service.executor`): inline (``pool="serial"``),
   a persistent thread pool exploiting GIL release in the kernel sweeps
   (``pool="thread"``), or spawn-once worker processes that warm-start
   each shard zero-copy from memory-mapped snapshots
   (``pool="process"``).  Replica choice is load-balanced
   (least-outstanding-requests) with seeded failover and hedged
   dispatch reusing the PR 1 chaos machinery
   (:class:`~repro.mapreduce.faults.ChaosPolicy`).
3. **Gather.**  Partial results merge deterministically in shard order
   regardless of completion order: ``select`` unions and id-sorts,
   ``probe`` ORs the per-shard membership answers, ``knn`` runs the
   paper's expanding-threshold loop over the pruned scatter and keeps
   the global top-``k``, and :meth:`join` streams an outer code set
   through per-shard batch probes.  Every pool backend returns results
   *and op accounting* byte-identical to the serial walk.

Because every code lives in exactly one shard, gathered results equal
the single-index answers *exactly* (asserted across shard counts by
``tests/test_sharded_service.py``).

The serving stack around the scatter core is the same as the
single-index service — bounded admission, micro-batching with in-batch
dedup, and an LRU result cache — but the cache is *shard-aware*: a
cached entry is keyed by the epochs of the shards its plan contacted,
so a write routed to a pruned shard leaves it valid.  That is sound
because plans are recomputed per lookup: if an insert could add a
match for a cached query, it necessarily widens the owning shard's
occupied Gray range until the planner stops pruning it, which changes
the key and forces a miss.

Observability: per-shard ``shard.dispatch``/``shard.search`` spans
under a ``shard.scatter`` root (captured detached on pool threads and
worker processes, re-attached in deterministic task order), a
``shard.gather`` span over each merge, and ``shard_pruned_total`` /
``shards_contacted_total`` / ``shards_contacted`` / ``shard_pool_*``
metrics (plus failover/hedge counters) in the process registry.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Sequence

from repro.core.bitvector import CodeSet
from repro.core.dynamic_ha import DynamicHAIndex
from repro.core.engines import get_engine
from repro.core.errors import (
    CodeLengthError,
    IndexStateError,
    InvalidParameterError,
    ReplicaUnavailableError,
    ServiceClosedError,
    StoreError,
)
from repro.core.knn import DEFAULT_INITIAL_THRESHOLD
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
)
from repro.service.planner import ScatterGatherPlanner, ShardPlan
from repro.service.server import (
    DEFAULT_CACHE_CAPACITY,
    DEFAULT_MAX_BATCH,
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_WORKERS,
    QUERY_KINDS,
    ServedResult,
    _deadline_error,
    served_plane,
)
from repro.service.stats import ServiceAccounting, ServiceStats

import numpy as np

_NUMPY_SORT_CUTOVER = 64


def _merge_sorted_ids(chunks) -> tuple[int, ...]:
    """Merge per-shard id chunks into one ascending tuple.

    The gather merge is the one cost the sharded read path pays that a
    single index never does: per-shard hits arrive in shard-local order
    and must fold into one canonical ascending tuple.  Chunks may be
    ``int64`` arrays (the dha engine's ``search_batch_arrays`` fast
    path) or plain id lists (every other engine); both merge through
    one C-speed concatenate + sort, with Python ints materialized
    exactly once, after the merge.
    """
    total = sum(len(chunk) for chunk in chunks)
    if total < _NUMPY_SORT_CUTOVER:
        merged: list[int] = []
        for chunk in chunks:
            if isinstance(chunk, np.ndarray):
                merged.extend(chunk.tolist())
            else:
                merged.extend(chunk)
        return tuple(sorted(merged))
    arrays = [np.asarray(chunk, dtype=np.int64) for chunk in chunks]
    buffer = (
        np.concatenate(arrays) if len(arrays) > 1 else arrays[0].copy()
    )
    buffer.sort()
    return tuple(buffer.tolist())


class ReplicaFaultPlan:
    """Seeded replica-fault oracle, mapped from the PR 1 chaos model.

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
    """One Gray-range shard: replica set + its own epoch."""

    __slots__ = ("sid", "replicas", "epoch")

    def __init__(
        self, sid: int, replicas: list[DynamicHAIndex]
    ) -> None:
        self.sid = sid
        self.replicas = replicas
        self.epoch = 0

    @property
    def primary(self) -> DynamicHAIndex:
        return self.replicas[0]


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

    def record_plan(self, plan: ShardPlan) -> None:
        with self._lock:
            self.planned += 1
            self.contacted += len(plan.contacted)
            self.pruned += plan.pruned
            self.broadcasts += bool(plan.broadcast)

    def record_failover(self) -> None:
        with self._lock:
            self.failovers += 1

    def record_hedge(self) -> None:
        with self._lock:
            self.hedges += 1

    def snapshot(
        self,
        num_shards: int,
        replication: int,
        sizes: tuple[int, ...],
        epochs: tuple[int, ...],
        pool: tuple = ("serial", 0, 0, 0, 0, 0.0, 0.0),
    ) -> ShardStats:
        with self._lock:
            return ShardStats(
                num_shards=num_shards,
                replication=replication,
                planned=self.planned,
                shards_contacted=self.contacted,
                shards_pruned=self.pruned,
                broadcasts=self.broadcasts,
                failovers=self.failovers,
                hedges=self.hedges,
                shard_sizes=sizes,
                shard_epochs=epochs,
                pool=pool[0],
                pool_workers=pool[1],
                pool_tasks=pool[2],
                pool_fallbacks=pool[3],
                pool_timeouts=pool[4],
                pool_busy_seconds=pool[5],
                pool_critical_seconds=pool[6],
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
        workers / max_batch / queue_limit / cache_capacity /
        default_timeout / linger_seconds / start / trace_batches: as in
            :class:`~repro.service.server.HammingQueryService`.
        data_dir: persist the shard set under this (fresh) directory —
            a ``topology.json`` describing the split plus one
            :class:`~repro.store.store.DurableIndexStore` per shard
            (``shard-0000/`` ...).  Mutations are WAL-logged on the
            owning shard's store before any replica applies them;
            reopen with :meth:`open`.
        fsync: passed to the per-shard stores.

    Every replica's served plane
    (:func:`~repro.service.server.served_plane`) is compiled eagerly at
    build (and refresh) time, so the first query does not pay
    ``num_shards`` lazy compiles.
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
        if default_timeout is not None and default_timeout <= 0:
            raise InvalidParameterError("default_timeout must be positive")
        if pivots is None:
            if num_shards < 1:
                raise InvalidParameterError("num_shards must be positive")
            pivots = (
                select_pivots(codes.codes, num_shards)
                if num_shards > 1 and len(codes)
                else []
            )
        self._code_length = codes.length
        self._planner = ScatterGatherPlanner(pivots, codes.length)
        self._replication = replication
        self._faults = (
            ReplicaFaultPlan(chaos)
            if chaos is not None and chaos.enabled
            else None
        )
        self._engine = get_engine(engine).name
        if data_dir is not None and self._engine != "dha":
            raise StoreError(
                f"durable sharded stores require the dha engine, "
                f"not {self._engine!r}"
            )
        self._index_params = dict(index_params or {})
        self._pruning = pruning
        self._shards = self._build_shards(codes)
        self._stores = None
        self._global_epoch = 0
        if data_dir is not None:
            self._stores = self._init_stores(data_dir, fsync)
        self._finish_setup(
            workers=workers,
            max_batch=max_batch,
            queue_limit=queue_limit,
            cache_capacity=cache_capacity,
            default_timeout=default_timeout,
            linger_seconds=linger_seconds,
            start=start,
            trace_batches=trace_batches,
            pool=pool,
            pool_workers=pool_workers,
            task_timeout=task_timeout,
        )

    def _finish_setup(
        self,
        *,
        workers: int,
        max_batch: int,
        queue_limit: int,
        cache_capacity: int,
        default_timeout: float | None,
        linger_seconds: float,
        start: bool,
        trace_batches: bool,
        pool: str = "serial",
        pool_workers: int | None = None,
        task_timeout: float | None = None,
    ) -> None:
        """Serving-stack construction shared by ``__init__`` / ``open``."""
        if pool not in POOL_KINDS:
            raise InvalidParameterError(
                f"unknown pool {pool!r}; expected one of {POOL_KINDS}"
            )
        self._lock = threading.Lock()
        self._trace_batches = trace_batches
        self._default_timeout = default_timeout
        self._closed = False
        self._cache = ResultCache(cache_capacity)
        self._accounting = ServiceAccounting()
        self._shard_accounting = _ShardAccounting()
        self._replica_lock = threading.Lock()
        self._outstanding = {
            shard.sid: [0] * len(shard.replicas)
            for shard in self._shards
        }
        self._pool_kind = pool
        self._pool_workers = pool_workers or default_pool_workers(
            len(self._shards)
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
        never re-pickle an index.  In-memory ``dha`` services write
        one snapshot per shard into a scratch directory the executor
        owns; other engines ship one pickled copy per worker, or raise
        :class:`~repro.core.errors.StoreError` when the engine cannot
        be pickled.
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
        if self._engine == "dha":
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

        The swap happens under the shard mutex, so no scatter is ever
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

    def _init_stores(self, data_dir: str, fsync: bool):
        """Write ``topology.json`` and one fresh store per shard."""
        import json
        from pathlib import Path

        from repro.store.format import atomic_write
        from repro.store.store import DurableIndexStore

        root = Path(data_dir)
        if (root / self.TOPOLOGY_FILE).exists():
            raise StoreError(
                f"{data_dir} already holds a sharded store; use "
                "ShardedQueryService.open(data_dir) to recover it"
            )
        root.mkdir(parents=True, exist_ok=True)
        topology = {
            "format": "repro-shard-topology",
            "version": 1,
            "code_length": self._code_length,
            "pivots": list(self._planner.pivots),
            "num_shards": len(self._shards),
            "replication": self._replication,
            "index_params": self._index_params,
        }
        atomic_write(
            root / self.TOPOLOGY_FILE,
            json.dumps(topology, sort_keys=True, indent=2).encode("utf-8"),
            fsync=fsync,
        )
        stores = []
        for shard in self._shards:
            store = DurableIndexStore(
                root / f"shard-{shard.sid:04d}", fsync=fsync
            )
            store.initialize(shard.primary)
            stores.append(store)
        return stores

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

        self = cls.__new__(cls)
        self._code_length = int(topology["code_length"])
        self._planner = ScatterGatherPlanner(
            [int(p) for p in topology["pivots"]], self._code_length
        )
        self._replication = int(topology["replication"])
        self._faults = (
            ReplicaFaultPlan(chaos)
            if chaos is not None and chaos.enabled
            else None
        )
        self._engine = "dha"  # stores always persist the DHA-Index
        self._index_params = dict(topology.get("index_params") or {})
        self._pruning = pruning
        shards: list[_Shard] = []
        stores = []
        for sid in range(int(topology["num_shards"])):
            store = DurableIndexStore(
                root / f"shard-{sid:04d}", fsync=fsync
            )
            primary = store.open()
            replicas = [primary] + [
                primary.snapshot() for _ in range(self._replication - 1)
            ]
            if len(primary):
                for replica in replicas:
                    served_plane(replica)
            shard = _Shard(sid, replicas)
            shard.epoch = store.last_seq
            shards.append(shard)
            stores.append(store)
            self._planner.reset_range(
                sid, [code for code, _ in primary.code_id_pairs()]
            )
        self._shards = shards
        self._stores = stores
        self._global_epoch = sum(shard.epoch for shard in shards)
        self._finish_setup(
            workers=workers,
            max_batch=max_batch,
            queue_limit=queue_limit,
            cache_capacity=cache_capacity,
            default_timeout=default_timeout,
            linger_seconds=linger_seconds,
            start=start,
            trace_batches=trace_batches,
            pool=pool,
            pool_workers=pool_workers,
            task_timeout=task_timeout,
        )
        return self

    def _build_shards(self, codes: CodeSet) -> list[_Shard]:
        shard_sets = split_by_pivots(codes, self._planner.pivots)
        builder = get_engine(self._engine).builder
        shards = []
        for sid, shard_codes in enumerate(shard_sets):
            primary = builder(shard_codes, **self._index_params)
            replicas = [primary] + [
                primary.snapshot() for _ in range(self._replication - 1)
            ]
            if len(shard_codes):
                for replica in replicas:
                    served_plane(replica)
            shards.append(_Shard(sid, replicas))
            self._planner.reset_range(sid, shard_codes.codes)
        return shards

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        if self._closed:
            raise ServiceClosedError("cannot restart a closed service")
        self._scheduler.start()

    def close(self, *, snapshot: bool = True) -> None:
        """Stop admitting, drain queued queries, join the workers.

        With ``snapshot=True`` (the default) every shard whose WAL has
        pending records rotates a final generation, so the next
        :meth:`open` warm-starts each shard from its memory-mapped
        snapshot with nothing to replay.
        """
        if self._closed:
            return
        self._closed = True
        self._scheduler.start()
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
        """Admit one query; returns its ticket immediately."""
        if self._closed:
            raise ServiceClosedError("query service is closed")
        if kind not in QUERY_KINDS:
            raise InvalidParameterError(
                f"unknown query kind {kind!r}; expected one of {QUERY_KINDS}"
            )
        if query < 0 or query >> self._code_length:
            raise CodeLengthError(
                f"query {query:#x} does not fit in "
                f"{self._code_length} bits"
            )
        if kind == "knn":
            if param < 1:
                raise InvalidParameterError("k must be positive")
        elif param < 0:
            raise InvalidParameterError("threshold must be non-negative")
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
        """Blocking join-probe; True iff any shard holds a code within
        ``threshold`` (pruned shards provably cannot)."""
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

        A bulk offline entry point (not queued): each outer code is
        planned, the per-shard probe sets run through the shards'
        batched kernels, and the pairs merge in sorted order — the
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
        pairs: list[tuple[int, int]] = []
        with self._lock:
            _, by_shard = self._plan_batch_locked(
                list(outer.codes), threshold
            )
            shard_positions = sorted(by_shard.items())
            tasks = [
                self._task(
                    sid,
                    "search_batch",
                    ([outer.codes[p] for p in positions], threshold),
                    ("join", threshold, len(positions)),
                )
                for sid, positions in shard_positions
            ]
            values = self._scatter("join", tasks, shards=len(tasks))
            with trace_span(
                "shard.gather", kind="join", shards=len(tasks)
            ):
                for (sid, positions), id_lists in zip(
                    shard_positions, values
                ):
                    for position, ids in zip(positions, id_lists):
                        outer_id = outer.ids[position]
                        pairs.extend(
                            (outer_id, inner) for inner in ids
                        )
        pairs.sort()
        return pairs

    # -- writer side -------------------------------------------------------

    def insert(self, code: int, tuple_id: int) -> int:
        """H-Insert into the owning shard (every replica); returns the
        new global epoch.  Only that shard's epoch is bumped, so cached
        results whose plans never touch it stay valid."""
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
            shard.epoch += 1
            self._global_epoch += 1
            self._executor.mutate(sid, "insert", code, tuple_id, shard.epoch)
            return self._global_epoch

    def delete(self, code: int, tuple_id: int) -> int:
        """H-Delete from the owning shard (every replica); returns the
        new global epoch.  The shard's occupied Gray range is kept
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
            shard.epoch += 1
            self._global_epoch += 1
            self._executor.mutate(sid, "delete", code, tuple_id, shard.epoch)
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

    def refresh(self, codes: CodeSet) -> int:
        """Copy-on-swap bulk reload: re-split by the existing pivots,
        rebuild every shard outside the lock, swap, recompute occupied
        ranges exactly, and drop the whole cache."""
        self._check_open()
        if codes.length != self._code_length:
            raise InvalidParameterError(
                f"refresh code length {codes.length} != served "
                f"{self._code_length}"
            )
        replacement = self._build_shards(codes)
        with self._lock:
            for shard, fresh in zip(self._shards, replacement):
                fresh.epoch = shard.epoch + 1
            if self._stores is not None:
                # A bulk reload invalidates every shard's WAL chain;
                # rotate a fresh snapshot generation per shard before
                # serving the replacement.
                for store, fresh in zip(self._stores, replacement):
                    store.snapshot(fresh.primary)
            self._shards = replacement
            self._global_epoch += 1
            epoch = self._global_epoch
            self._executor.reload()
        self._accounting.record_refresh()
        self._cache.clear()
        return epoch

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosedError("query service is closed")

    def _check_code(self, code: int) -> None:
        if code < 0 or code >> self._code_length:
            raise CodeLengthError(
                f"code {code:#x} does not fit in {self._code_length} bits"
            )

    # -- scatter-gather core (runs under the shard mutex) ------------------

    def _plan_radius(self, threshold: int) -> int:
        """Unweighted planning radius for a (possibly weighted) threshold.

        The Gray-range shard bound prunes in *unweighted* Hamming
        space.  Weighted engines expose ``implied_radius`` — the
        largest unweighted distance a weighted match can sit at
        (``floor(threshold / min_weight)``) — so planning at that
        radius keeps pruning sound: a shard outside it provably holds
        no weighted match.  Unweighted engines plan at the threshold
        itself, unchanged.
        """
        if self._shards:
            implied = getattr(
                self._shards[0].primary, "implied_radius", None
            )
            if implied is not None:
                return implied(threshold)
        return threshold

    def _knn_cap(self) -> int:
        """Threshold that provably covers every stored code for kNN.

        The code length for unweighted engines; weighted engines
        report ``knn_threshold_cap`` (the ceiling of their total
        weight), since their distances may exceed the code length.
        """
        if self._shards:
            cap = getattr(
                self._shards[0].primary, "knn_threshold_cap", None
            )
            if cap is not None:
                return max(int(cap), self._code_length)
        return self._code_length

    def _plan_locked(self, query: int, threshold: int) -> ShardPlan:
        if not self._pruning:
            return self._broadcast_plan()
        return self._planner.plan(query, self._plan_radius(threshold))

    def _plan_batch_locked(
        self, queries: list[int], threshold: int
    ) -> tuple[list[ShardPlan], dict[int, list[int]]]:
        """Plan a batch and transpose it into ``{shard: positions}``."""
        if self._pruning:
            return self._planner.plan_batch(
                queries, self._plan_radius(threshold)
            )
        plans = [self._broadcast_plan() for _ in queries]
        by_shard: dict[int, list[int]] = {}
        for position, plan in enumerate(plans):
            for sid in plan.contacted:
                by_shard.setdefault(sid, []).append(position)
        return plans, by_shard

    def _broadcast_plan(self) -> ShardPlan:
        """Contact every non-empty shard (``pruning=False`` ablation)."""
        contacted = tuple(
            sid
            for sid in range(self.num_shards)
            if self._planner.occupied(sid) is not None
        )
        return ShardPlan(
            contacted=contacted,
            pruned=self.num_shards - len(contacted),
            broadcast=True,
        )

    def _record_plan(self, plan: ShardPlan) -> None:
        self._shard_accounting.record_plan(plan)
        if REGISTRY.enabled:
            REGISTRY.counter(
                "shards_contacted_total",
                "shard visits performed by executed queries",
            ).inc(len(plan.contacted))
            REGISTRY.counter(
                "shard_pruned_total",
                "shard visits avoided by the Gray-range bound",
            ).inc(plan.pruned)
            if plan.broadcast:
                REGISTRY.counter(
                    "shard_broadcast_total",
                    "queries whose pruning bound was vacuous",
                ).inc()
            REGISTRY.histogram(
                "shards_contacted",
                "shards contacted per executed query",
                buckets=tuple(
                    float(2**i) for i in range(0, 8)
                ),
            ).observe(float(len(plan.contacted)))

    def _dispatch(
        self,
        shard: _Shard,
        op_name: str,
        args: tuple,
        context: tuple,
    ):
        """Run one shard operation with hedging and replica failover.

        Replica candidates are ordered by least outstanding requests
        (ties by index, so an idle service visits the primary first,
        exactly as before the parallel executors existed; under a
        concurrent thread-pool scatter the load spreads).  The fault
        plan may hedge the dispatch away from the first candidate
        (straggler) or skip unavailable replicas (failover); the final
        candidate is always consulted, so injected faults never change
        results.  The operation runs on the replica's
        :func:`~repro.service.server.served_plane`.  Thread-safe:
        accounting and the outstanding counts take their own locks,
        never the shard mutex.
        """
        replicas = shard.replicas
        if len(replicas) == 1:
            order = [0]
        else:
            with self._replica_lock:
                counts = self._outstanding[shard.sid]
                order = sorted(
                    range(len(replicas)),
                    key=lambda ridx: (counts[ridx], ridx),
                )
        faults = self._faults
        if faults is not None and len(order) > 1:
            if faults.primary_straggles(shard.sid, op_name, *context):
                order = order[1:] + order[:1]
                self._shard_accounting.record_hedge()
                if REGISTRY.enabled:
                    REGISTRY.counter(
                        "shard_hedged_total",
                        "dispatches hedged away from a slow primary",
                    ).inc()
        for position, ridx in enumerate(order):
            last = position == len(order) - 1
            if (
                not last
                and faults is not None
                and faults.replica_down(
                    shard.sid, ridx, op_name, *context
                )
            ):
                self._shard_accounting.record_failover()
                if REGISTRY.enabled:
                    REGISTRY.counter(
                        "shard_failover_total",
                        "dispatches failed over to another replica",
                    ).inc()
                continue
            replica = replicas[ridx]
            with self._replica_lock:
                self._outstanding[shard.sid][ridx] += 1
            try:
                with trace_span(
                    "shard.search",
                    shard=shard.sid,
                    replica=ridx,
                    op=op_name,
                ):
                    return getattr(served_plane(replica), op_name)(*args)
            finally:
                with self._replica_lock:
                    self._outstanding[shard.sid][ridx] -= 1
        raise ReplicaUnavailableError(
            f"no replica of shard {shard.sid} available"
        )

    def _dispatch_task(self, task: ShardTask):
        """Executor-facing adapter: one :class:`ShardTask`, inline."""
        return self._dispatch(
            self._shards[task.sid], task.op, task.args, task.context
        )

    def _scatter(self, kind: str, tasks: list[ShardTask], **attrs):
        """Run one scatter through the active pool backend.

        Returns per-task values in task order; the executor attaches
        every task's ``shard.dispatch`` subtree to the open
        ``shard.scatter`` span in that same order, whatever the
        completion order was.
        """
        executor = self._executor
        with trace_span(
            "shard.scatter", kind=kind, pool=executor.kind, **attrs
        ):
            return executor.scatter(tasks, self._dispatch_task)

    def _task(
        self, sid: int, op: str, args: tuple, context: tuple
    ) -> ShardTask:
        return ShardTask(
            sid, op, args, context, self._shards[sid].epoch
        )

    def _epoch_key(self, kind: str, plan: ShardPlan | None) -> tuple:
        """Shard-aware cache-key epoch component.

        ``select``/``probe`` results depend only on the shards their
        plan contacts; ``knn`` may expand into any shard, so its
        entries key on every epoch.
        """
        if plan is None or kind == "knn":
            return tuple(shard.epoch for shard in self._shards)
        return tuple(
            (sid, self._shards[sid].epoch) for sid in plan.contacted
        )

    def _run_probe(self, query: int, threshold: int) -> bool:
        """Membership probe: OR over every contacted shard.

        All planned shards are asked (no first-hit short-circuit) so
        every pool backend — where the shards genuinely run
        concurrently — performs the *same* work and reports the same
        op counts as the serial walk.
        """
        plan = self._plan_locked(query, threshold)
        self._record_plan(plan)
        tasks = [
            self._task(
                sid,
                "contains_within",
                (query, threshold),
                ("probe", query, threshold),
            )
            for sid in plan.contacted
        ]
        gathered = self._scatter("probe", tasks, shards=len(tasks))
        with trace_span("shard.gather", kind="probe", shards=len(tasks)):
            return any(gathered)

    def _run_knn(self, query: int, k: int) -> tuple[tuple[int, int], ...]:
        """Expanding-threshold kNN over the pruned scatter.

        Byte-compatible with :func:`repro.core.knn.knn_select` run on a
        monolithic index: the same threshold schedule, and since each
        round gathers the exact union of per-shard matches, the same
        match counts, sort and cut.  Pruning is re-planned every round
        — as the threshold grows the Hamming ball widens and previously
        pruned shards rejoin the scatter (per-shard top-k with global
        threshold refinement).
        """
        threshold = DEFAULT_INITIAL_THRESHOLD
        step = max(2, self._code_length // 8)
        cap = self._knn_cap()
        target = min(k, sum(len(s.primary) for s in self._shards))
        while True:
            plan = self._plan_locked(query, threshold)
            self._record_plan(plan)
            tasks = [
                self._task(
                    sid,
                    "search_with_distances",
                    (query, threshold),
                    ("knn", query, threshold),
                )
                for sid in plan.contacted
            ]
            gathered = self._scatter(
                "knn", tasks, threshold=threshold, shards=len(tasks)
            )
            with trace_span(
                "shard.gather", kind="knn", threshold=threshold
            ):
                matches: list[tuple[int, int]] = []
                for chunk in gathered:
                    matches.extend(chunk)
            if len(matches) >= target or threshold >= cap:
                matches.sort(key=lambda pair: (pair[1], pair[0]))
                return tuple(matches[:k])
            threshold = min(threshold + step, cap)

    # -- batch execution (worker threads) ----------------------------------

    def _execute_batch(self, batch: list[QueryRequest]) -> None:
        if self._trace_batches:
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
                request.ticket.fail(_deadline_error(request, started))
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
        executed = 0
        dedup_saved = 0
        resolutions: list[tuple[QueryRequest, ServedResult]] = []
        with self._lock:
            epoch = self._global_epoch
            values: dict[tuple[str, int, int], tuple[object, bool]] = {}
            misses: list[tuple[str, int, int]] = []
            for key, requests in groups.items():
                kind, query, param = key
                plan = (
                    self._plan_locked(query, param)
                    if kind != "knn"
                    else None
                )
                cache_key = key + (self._epoch_key(kind, plan),)
                value = self._cache.get(cache_key, weight=len(requests))
                if value is MISS:
                    misses.append(key)
                else:
                    values[key] = (value, True)
            for key, value in self._run_misses(misses):
                executed += 1
                dedup_saved += len(groups[key]) - 1
                kind, query, param = key
                plan = (
                    self._plan_locked(query, param)
                    if kind != "knn"
                    else None
                )
                self._cache.put(
                    key + (self._epoch_key(kind, plan),), value
                )
                values[key] = (value, False)
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
                "scatter-gather executions after cache and dedup",
            ).inc(executed)
        self._queue.note_service_time((finished - started) / len(live))

    def _run_misses(
        self, misses: list[tuple[str, int, int]]
    ) -> list[tuple[tuple[str, int, int], object]]:
        """Execute the uncached query groups of one micro-batch.

        ``select`` misses sharing a threshold are planned together and
        each shard receives *one* batched sweep over every query routed
        to it — the scatter-side analogue of the single-index
        vectorized sweep.  Probes and kNN scatter query-at-a-time.
        Runs under the shard mutex.
        """
        results: list[tuple[tuple[str, int, int], object]] = []
        by_threshold: dict[int, list[tuple[str, int, int]]] = {}
        for key in misses:
            kind, query, param = key
            if kind == "select":
                by_threshold.setdefault(param, []).append(key)
            elif kind == "probe":
                results.append((key, self._run_probe(query, param)))
            else:
                results.append((key, self._run_knn(query, param)))
        for threshold, keys in by_threshold.items():
            results.extend(self._run_select_batch(keys, threshold))
        return results

    def _run_select_batch(
        self, keys: list[tuple[str, int, int]], threshold: int
    ) -> list[tuple[tuple[str, int, int], object]]:
        """One shared scatter for select misses at one threshold."""
        plan_list, by_shard = self._plan_batch_locked(
            [key[1] for key in keys], threshold
        )
        for plan in plan_list:
            self._record_plan(plan)
        gathered: list[list] = [[] for _ in keys]
        # dha shards hand back int64 arrays so the cross-shard merge
        # stays numpy end-to-end; other batched engines return id lists
        # and take the same merge path via asarray.  Engines without a
        # batched sweep get one ``search`` task per routed query.
        if self._engine == "dha":
            batch_op = "search_batch_arrays"
        elif get_engine(self._engine).batched:
            batch_op = "search_batch"
        else:
            batch_op = None
        tasks = []
        slots: list[list[int]] = []
        for sid, positions in sorted(by_shard.items()):
            if batch_op is None:
                for position in positions:
                    query = keys[position][1]
                    tasks.append(
                        self._task(
                            sid,
                            "search",
                            (query, threshold),
                            ("select", query, threshold),
                        )
                    )
                    slots.append([position])
                continue
            queries = [keys[p][1] for p in positions]
            tasks.append(
                self._task(
                    sid,
                    batch_op,
                    (queries, threshold),
                    (
                        "select_batch",
                        threshold,
                        len(queries),
                        queries[0],
                    ),
                )
            )
            slots.append(positions)
        values = self._scatter(
            "select_batch",
            tasks,
            queries=len(keys),
            shards=len(tasks),
        )
        with trace_span(
            "shard.gather", kind="select_batch", shards=len(tasks)
        ):
            for positions, value in zip(slots, values):
                id_lists = value if batch_op is not None else [value]
                for position, ids in zip(positions, id_lists):
                    gathered[position].append(ids)
        return [
            (key, _merge_sorted_ids(chunks))
            for key, chunks in zip(keys, gathered)
        ]

    # -- observability -----------------------------------------------------

    def stats(self) -> ServiceStats:
        """A consistent :class:`ServiceStats` snapshot (global epoch).

        With durable stores attached, ``stats().store`` aggregates the
        per-shard stores (summed counters, max generation).
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

    def save_snapshot(self) -> int:
        """Rotate a new snapshot generation on every shard's store.

        Folds each shard's logged mutations into a fresh snapshot so
        the next :meth:`open` replays empty WAL tails; returns the
        highest shard generation.  Requires stores.
        """
        self._check_open()
        if self._stores is None:
            raise StoreError(
                "sharded service has no durable stores; construct it "
                "with data_dir= or open() to persist snapshots"
            )
        with self._lock:
            for store, shard in zip(self._stores, self._shards):
                store.snapshot(shard.primary)
            return max(store.generation for store in self._stores)

    def shard_stats(self) -> ShardStats:
        """A consistent :class:`ShardStats` snapshot."""
        with self._lock:
            sizes = tuple(len(shard.primary) for shard in self._shards)
            epochs = tuple(shard.epoch for shard in self._shards)
            executor = self._executor
        tasks, fallbacks, timeouts = executor.counters()
        busy, critical = executor.seconds()
        return self._shard_accounting.snapshot(
            self.num_shards,
            self._replication,
            sizes,
            epochs,
            pool=(
                executor.kind,
                executor.workers,
                tasks,
                fallbacks,
                timeouts,
                busy,
                critical,
            ),
        )

    def publish_metrics(self) -> tuple[ServiceStats, ShardStats]:
        """Snapshot both stat blocks and fold them into the registry."""
        stats = self.stats()
        stats.publish()
        shard_stats = self.shard_stats()
        shard_stats.publish()
        return stats, shard_stats
