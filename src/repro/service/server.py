"""The single-index query service: the one-shard case of the core.

:class:`HammingQueryService` wraps one prebuilt
:class:`~repro.core.index_base.HammingIndex` (Dynamic or Static
HA-Index, or any index honouring the contract) and serves three query
kinds concurrently:

* ``select`` — exact Hamming-select, returning the matching tuple ids;
* ``probe``  — the similarity semi-join existence probe
  (``contains_within``), the building block of online join processing:
  a stream of outer tuples probes the served index;
* ``knn``    — expanding-threshold kNN-select (Section 2 of the paper).

It is a constructor, not a second server: the index becomes shard 0 of
the service core (:class:`~repro.service.sharded.ShardedQueryService`),
with no pivots and the serial executor, so admission, micro-batching
with in-batch dedup, the epoch-keyed result cache, the WAL-first write
path, copy-on-swap :meth:`refresh`, snapshots, stats and the lifecycle
are the core's.  Every read is answered by the index's compiled plane
(:func:`~repro.service.executor.served_plane`), recompiled after
writes.  What stays here is the one-store durable layout (a
:class:`~repro.store.store.DurableIndexStore` directly under
``data_dir``, no topology file), :attr:`store` and
:meth:`snapshot_index`.

``knn_select`` and ``knn_select_batch`` are bound in this module on
purpose: the core looks ``knn_select_batch`` up here by name at call
time, so timing harnesses can wrap the service's kNN entry points.
"""

from __future__ import annotations

from repro.core.errors import InvalidParameterError, StoreError
from repro.core.index_base import HammingIndex
from repro.core.knn import knn_select, knn_select_batch  # noqa: F401
from repro.service.planner import ScatterGatherPlanner
from repro.service.sharded import (
    DEFAULT_CACHE_CAPACITY,
    DEFAULT_MAX_BATCH,
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_WORKERS,
    ServiceStats,
    ShardedQueryService,
    _persistable,
    _Shard,
)


class HammingQueryService(ShardedQueryService):
    """Concurrent batched query server over one Hamming index.

    Args:
        index: the index to serve; the service takes ownership (mutate
            it only through :meth:`insert`/:meth:`delete`/:meth:`refresh`).
        workers / max_batch / queue_limit / cache_capacity /
        default_timeout / linger_seconds / start / trace_batches: as in
            :class:`~repro.service.sharded.ShardedQueryService`.
        data_dir: persist the served index in a
            :class:`~repro.store.store.DurableIndexStore` under this
            directory.  The directory must be fresh (the index is
            written as generation 1); to reopen an existing store use
            :meth:`open`.  Every :meth:`insert`/:meth:`delete` is
            WAL-logged before it is applied, and :meth:`refresh` /
            :meth:`save_snapshot` rotate snapshot generations.
        store: an already-initialized (or recovered) store to log to;
            mutually exclusive with ``data_dir``.
        fsync: passed to the store created for ``data_dir``.

    The epoch starts at the store's last logged sequence number (0
    without a store) and rises by one per write or refresh.
    """

    def __init__(
        self,
        index: HammingIndex,
        *,
        workers: int = DEFAULT_WORKERS,
        max_batch: int = DEFAULT_MAX_BATCH,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        default_timeout: float | None = None,
        linger_seconds: float = 0.0,
        start: bool = True,
        trace_batches: bool = False,
        data_dir: str | None = None,
        store=None,
        fsync: bool = True,
    ) -> None:
        if data_dir is not None and store is not None:
            raise InvalidParameterError(
                "pass either data_dir or store, not both"
            )
        if data_dir is not None:
            from repro.store.store import DurableIndexStore

            if DurableIndexStore.exists(data_dir):
                raise StoreError(
                    f"{data_dir} already holds a store; use "
                    "HammingQueryService.open(data_dir) to recover it"
                )
            store = DurableIndexStore(data_dir, fsync=fsync)
            store.initialize(_persistable(index))
        elif store is not None:
            _persistable(index)
        epoch = store.last_seq if store is not None else 0
        self._setup(
            [_Shard(0, index, epoch=epoch)],
            ScatterGatherPlanner([], index.code_length),
            None if store is None else [store],
            engine=type(index).__name__,
            builder=None,
            workers=workers,
            max_batch=max_batch,
            queue_limit=queue_limit,
            cache_capacity=cache_capacity,
            default_timeout=default_timeout,
            linger_seconds=linger_seconds,
            start=start,
            trace_batches=trace_batches,
        )

    @classmethod
    def open(
        cls, data_dir: str, *, fsync: bool = True, **kwargs
    ) -> "HammingQueryService":
        """Warm-start a service from a persisted store.

        Recovers the newest valid snapshot generation, replays the WAL
        tail, and serves the result; the service's epoch resumes at the
        store's last logged sequence number, so it matches a
        never-restarted service that applied the same mutations.
        """
        from repro.store.store import DurableIndexStore

        store = DurableIndexStore(data_dir, fsync=fsync)
        index = store.open()
        return cls(index, store=store, **kwargs)

    @property
    def store(self):
        """The backing durable store (``None`` when memory-only)."""
        return None if self._stores is None else self._stores[0]

    def snapshot_index(self) -> HammingIndex:
        """A deep copy of the served index at a consistent epoch.

        Mutate it offline and hand it back to :meth:`refresh` — the
        copy-on-swap maintenance cycle for bulk changes.
        """
        with self._lock:
            return self._shards[0].primary.snapshot()

    def publish_metrics(self) -> ServiceStats:
        """Fold both stat blocks into the metrics registry; returns the
        :class:`ServiceStats` snapshot either way."""
        return super().publish_metrics()[0]
