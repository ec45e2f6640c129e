"""The long-lived, thread-safe HA-Index query service.

:class:`HammingQueryService` wraps one :class:`~repro.core.index_base.
HammingIndex` (Dynamic or Static HA-Index, or any index honouring the
contract) and serves three query kinds concurrently:

* ``select`` — exact Hamming-select, returning the matching tuple ids;
* ``probe``  — the similarity semi-join existence probe
  (``contains_within``), the building block of online join processing:
  a stream of outer tuples probes the served index;
* ``knn``    — expanding-threshold kNN-select (Section 2 of the paper).

Concurrency model
-----------------
Queries are admitted through a bounded queue (backpressure), coalesced
into micro-batches and executed by a worker pool.  Every read is
answered by the index's compiled plane (:func:`served_plane`), which
is cached on the index and recompiled after writes, so the index and
its plane are guarded by a single mutex.  The real serving-layer wins
are (a) the compiled sweep instead of the Python node walk, one
vectorized sweep per same-threshold group, (b) one lock/epoch
acquisition per *batch* instead of per query, (c) in-batch dedup of
identical queries, and (d) the epoch-keyed LRU result cache, which on
skewed workloads absorbs most traffic without touching the index.

Writers apply H-Insert/H-Delete (Algorithm 2) through the service under
the same mutex; every mutation bumps the *epoch*, so cached results of
older states become unreachable rather than wrong.  Bulk reloads go
through :meth:`refresh`: the replacement index is built *outside* the
mutex and swapped in with a pointer assignment, so readers never block
on a rebuild (copy-on-swap).
"""

from __future__ import annotations

import threading
import time

from repro.core.bitvector import CodeSet
from repro.core.errors import (
    IndexStateError,
    InvalidParameterError,
    ServiceClosedError,
    ServiceTimeoutError,
    StoreError,
)
from repro.core.index_base import HammingIndex
# ``knn_select`` sits beside ``knn_select_batch`` so that timing
# harnesses can wrap the service's kNN entry points by name.
from repro.core.knn import knn_select, knn_select_batch  # noqa: F401
from repro.obs import REGISTRY
from repro.obs.trace import trace
from repro.service.admission import AdmissionQueue
from repro.service.batching import (
    MicroBatchScheduler,
    QueryRequest,
    QueryTicket,
)
from repro.service.cache import MISS, ResultCache
from repro.service.stats import ServiceAccounting, ServiceStats

#: Query kinds the service understands.
QUERY_KINDS = ("select", "probe", "knn")

DEFAULT_WORKERS = 4
DEFAULT_MAX_BATCH = 32
DEFAULT_QUEUE_LIMIT = 1024
DEFAULT_CACHE_CAPACITY = 4096


class ServedResult:
    """What a resolved ticket carries: value + serving context.

    Attributes:
        value: tuple of tuple-ids (``select``), ``bool`` (``probe``) or
            tuple of ``(tuple_id, distance)`` pairs (``knn``).  Tuples,
            not lists: one cached value may be shared by many readers.
        epoch: the index epoch the query was answered against.
        cached: whether the result came from the cache.
    """

    __slots__ = ("value", "epoch", "cached")

    def __init__(self, value: object, epoch: int, cached: bool) -> None:
        self.value = value
        self.epoch = epoch
        self.cached = cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServedResult(value={self.value!r}, epoch={self.epoch}, "
            f"cached={self.cached})"
        )


class HammingQueryService:
    """Concurrent batched query server over a Hamming index.

    Args:
        index: the index to serve; the service takes ownership (mutate
            it only through :meth:`insert`/:meth:`delete`/:meth:`refresh`).
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
            exercise backpressure deterministically).
        trace_batches: open a ``service.batch`` trace around every
            micro-batch execution, so the engine's per-level spans are
            collected on the worker thread and the latest batch tree is
            readable from :func:`repro.obs.last_trace` (off by
            default — tracing every batch is not free).
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
        if default_timeout is not None and default_timeout <= 0:
            raise InvalidParameterError("default_timeout must be positive")
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
            store.initialize(self._require_dynamic(index, "persist"))
        self._store = store
        self._index = index
        self._index_lock = threading.Lock()
        self._trace_batches = trace_batches
        self._epoch = store.last_seq if store is not None else 0
        self._default_timeout = default_timeout
        self._closed = False
        self._cache = ResultCache(cache_capacity)
        self._accounting = ServiceAccounting()
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

    # -- lifecycle ---------------------------------------------------------

    @staticmethod
    def _require_dynamic(index: HammingIndex, verb: str):
        from repro.core.dynamic_ha import DynamicHAIndex

        if not isinstance(index, DynamicHAIndex):
            raise StoreError(
                f"can only {verb} a DynamicHAIndex, not "
                f"{type(index).__name__}"
            )
        return index

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
        return self._store

    def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        if self._closed:
            raise ServiceClosedError("cannot restart a closed service")
        self._scheduler.start()

    def close(self, *, snapshot: bool = True) -> None:
        """Stop admitting, drain queued queries, join the workers.

        Every already-admitted query is still answered (or times out on
        its own deadline) — shutdown never silently drops work.  When a
        durable store is attached and WAL records are pending,
        ``snapshot=True`` (the default) folds them into a final
        generation so the next :meth:`open` recovers with an empty
        replay tail — a pure memory-map warm start.  ``snapshot=False``
        skips the rotation and relies on WAL replay instead.
        """
        if self._closed:
            return
        self._closed = True
        self._scheduler.start()  # ensure someone drains the backlog
        self._queue.close()
        self._scheduler.join()
        if self._store is not None:
            try:
                if snapshot and self._store.wal_tail:
                    with self._index_lock:
                        self._store.snapshot(
                            self._require_dynamic(self._index, "snapshot")
                        )
            finally:
                self._store.close()

    def __enter__(self) -> "HammingQueryService":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def epoch(self) -> int:
        with self._index_lock:
            return self._epoch

    @property
    def code_length(self) -> int:
        return self._index.code_length

    def __len__(self) -> int:
        with self._index_lock:
            return len(self._index)

    # -- query side --------------------------------------------------------

    def submit(
        self,
        kind: str,
        query: int,
        param: int,
        timeout: float | None = None,
    ) -> QueryTicket:
        """Admit one query; returns its ticket immediately.

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
        if kind == "knn":
            if param < 1:
                raise InvalidParameterError("k must be positive")
            self._index._check_query(query, 0)
        else:
            self._index._check_query(query, param)
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
        """Blocking Hamming-select; ``value`` is a tuple of tuple ids."""
        return self._await(self.submit("select", query, threshold, timeout))

    def probe(
        self, query: int, threshold: int, timeout: float | None = None
    ) -> ServedResult:
        """Blocking join-probe; ``value`` is ``True`` iff any indexed
        code lies within ``threshold`` (the semi-join existence test)."""
        return self._await(self.submit("probe", query, threshold, timeout))

    def knn(
        self, query: int, k: int, timeout: float | None = None
    ) -> ServedResult:
        """Blocking kNN-select; ``value`` is ``((tuple_id, distance), ...)``."""
        return self._await(self.submit("knn", query, k, timeout))

    @staticmethod
    def _await(ticket: QueryTicket) -> ServedResult:
        result = ticket.result()
        assert isinstance(result, ServedResult)
        return result

    # -- writer side (Algorithm 2 through the service) ---------------------

    def insert(self, code: int, tuple_id: int) -> int:
        """H-Insert one tuple; returns the new epoch.

        With a durable store attached the mutation is WAL-logged
        *before* it touches the in-memory index (write-ahead), so a
        crash after this method returns never loses it.
        """
        self._check_open()
        with self._index_lock:
            if self._store is not None:
                self._validate_insert(code, tuple_id)
                self._store.append_insert(code, tuple_id)
            self._index.insert(code, tuple_id)
            self._epoch += 1
            return self._epoch

    def delete(self, code: int, tuple_id: int) -> int:
        """H-Delete one tuple; returns the new epoch."""
        self._check_open()
        with self._index_lock:
            if self._store is not None:
                self._validate_delete(code, tuple_id)
                self._store.append_delete(code, tuple_id)
            self._index.delete(code, tuple_id)
            self._epoch += 1
            return self._epoch

    def _validate_insert(self, code: int, tuple_id: int) -> None:
        """Re-raise what ``index.insert`` would, *before* WAL append.

        Logging a record the index then rejects would poison replay, so
        the index's own preconditions are checked first (under the
        mutex, against the same index the apply will hit, with the
        index's own error messages).
        """
        self._precheck_mutation("insert into", code)

    def _validate_delete(self, code: int, tuple_id: int) -> None:
        self._precheck_mutation("delete from", code)
        if tuple_id not in self._index.ids_for_code(code):
            raise IndexStateError(
                f"tuple {tuple_id} with code {code:#x} not present"
            )

    def _precheck_mutation(self, verb: str, code: int) -> None:
        index = self._index
        index._check_query(code, 0)
        if getattr(index, "_frozen", False):
            raise IndexStateError("merged global HA-Index is read-only")
        if not index.keeps_ids:
            raise IndexStateError(
                f"cannot {verb} a leaf-less (keep_ids=False) index"
            )

    def refresh(self, source: HammingIndex | CodeSet) -> int:
        """Copy-on-swap bulk reload; returns the new epoch.

        ``source`` may be a pre-built index or a :class:`CodeSet` (the
        replacement is then H-Built here with the served index's type
        and default parameters).  The expensive build happens *outside*
        the traversal mutex; readers only ever wait for the pointer
        swap.
        """
        self._check_open()
        if isinstance(source, HammingIndex):
            replacement = source
        else:
            replacement = type(self._index).build(source)
        if replacement.code_length != self._index.code_length:
            raise InvalidParameterError(
                f"refresh code length {replacement.code_length} != served "
                f"{self._index.code_length}"
            )
        if self._store is not None:
            self._require_dynamic(replacement, "persist")
        with self._index_lock:
            if self._store is not None:
                # A bulk reload invalidates the WAL chain (the logged
                # mutations no longer lead to this state); rotate a
                # fresh snapshot generation before serving it.
                self._store.snapshot(replacement)
            self._index = replacement
            self._epoch += 1
            epoch = self._epoch
        self._accounting.record_refresh()
        # A bulk reload obsoletes every older epoch at once; sweep them so
        # the LRU capacity is spent on the new state.
        self._cache.purge_stale(epoch)
        return epoch

    def save_snapshot(self) -> int:
        """Rotate a new durable snapshot generation; returns its number.

        Folds every logged mutation into a fresh snapshot so the next
        :meth:`open` replays an empty WAL tail (fast warm start).
        Requires a store.
        """
        self._check_open()
        if self._store is None:
            raise StoreError(
                "service has no durable store; construct it with "
                "data_dir= or open() to persist snapshots"
            )
        with self._index_lock:
            self._store.snapshot(
                self._require_dynamic(self._index, "snapshot")
            )
            return self._store.generation

    def snapshot_index(self) -> HammingIndex:
        """A deep copy of the served index at a consistent epoch.

        Mutate it offline and hand it back to :meth:`refresh` — the
        copy-on-swap maintenance cycle for bulk changes.
        """
        with self._index_lock:
            return self._index.snapshot()

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosedError("query service is closed")

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
                request.ticket.fail(
                    _deadline_error(request, started)
                )
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
        with self._index_lock:
            epoch = self._epoch
            index = self._index
            values: dict[tuple[str, int, int], tuple[object, bool]] = {}
            misses: list[tuple[str, int, int]] = []
            for key, requests in groups.items():
                cache_key = key + (epoch,)
                value = self._cache.get(cache_key, weight=len(requests))
                if value is MISS:
                    misses.append(key)
                else:
                    values[key] = (value, True)
            for key, value in self._run_misses(index, misses):
                executed += 1
                dedup_saved += len(groups[key]) - 1
                self._cache.put(key + (epoch,), value)
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
                "index traversals after cache and dedup",
            ).inc(executed)
            REGISTRY.histogram(
                "service_batch_size",
                "live queries per micro-batch",
                buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
            ).observe(float(len(live)))
        self._queue.note_service_time((finished - started) / len(live))

    def _run_misses(
        self,
        index: HammingIndex,
        misses: list[tuple[str, int, int]],
    ) -> list[tuple[tuple[str, int, int], object]]:
        """Execute the uncached query groups of one micro-batch.

        Every miss is answered by the index's :func:`served_plane`:
        ``select`` misses sharing a threshold through one vectorized
        ``search_batch`` sweep (query-at-a-time on planes without one),
        ``knn`` misses sharing a ``k`` through :func:`knn_select_batch`,
        so the expanding-threshold rounds run once per group, and
        probes through the plane's ``contains_within``.  Runs under the
        index mutex.
        """
        if not misses:
            return []
        plane = served_plane(index)
        search_batch = getattr(plane, "search_batch", None)
        results: list[tuple[tuple[str, int, int], object]] = []
        by_threshold: dict[int, list[tuple[str, int, int]]] = {}
        by_k: dict[int, list[tuple[str, int, int]]] = {}
        for key in misses:
            kind, query, param = key
            if kind == "select" and search_batch is not None:
                by_threshold.setdefault(param, []).append(key)
            elif kind == "knn":
                by_k.setdefault(param, []).append(key)
            else:
                results.append((key, _run_query(plane, kind, query, param)))
        for threshold, keys in by_threshold.items():
            id_lists = search_batch([key[1] for key in keys], threshold)
            results.extend(
                (key, tuple(ids)) for key, ids in zip(keys, id_lists)
            )
        for k, keys in by_k.items():
            pair_lists = knn_select_batch([key[1] for key in keys], plane, k)
            results.extend(
                (key, tuple(pairs)) for key, pairs in zip(keys, pair_lists)
            )
        return results

    # -- observability -----------------------------------------------------

    def stats(self) -> ServiceStats:
        """A consistent :class:`ServiceStats` snapshot."""
        with self._index_lock:
            epoch = self._epoch
        return self._accounting.snapshot(
            queue_depth=self._queue.depth(),
            queue_capacity=self._queue.capacity,
            workers=self._scheduler.workers,
            epoch=epoch,
            cache=self._cache.stats(),
            store=(
                self._store.stats() if self._store is not None else None
            ),
        )

    def publish_metrics(self) -> ServiceStats:
        """Snapshot the stats and fold them into the metrics registry.

        Respects the registry's ``enabled`` flag; returns the snapshot
        either way so callers can render it too.
        """
        stats = self.stats()
        stats.publish()
        return stats


def served_plane(index: HammingIndex):
    """The query plane that answers reads of ``index``.

    The compiled native view (``compile_native()``) when the index has
    one, else its ``compile()`` result (the weighted engine returns
    itself with its kernel warm), else the index itself.  Both compile
    caches are keyed by the index's mutation count, so live
    insert/delete traffic is never answered by a stale plane.
    """
    for name in ("compile_native", "compile"):
        compile_plane = getattr(index, name, None)
        if compile_plane is not None:
            return compile_plane()
    return index


def _run_query(
    plane: HammingIndex, kind: str, query: int, param: int
) -> object:
    """Execute one deduplicated ``select`` or ``probe`` on ``plane``."""
    if kind == "select":
        return tuple(plane.search(query, param))
    probe = getattr(plane, "contains_within", None)
    if probe is not None:
        return bool(probe(query, param))
    return bool(plane.search(query, param))


def _deadline_error(
    request: QueryRequest, now: float
) -> ServiceTimeoutError:
    waited_ms = (now - request.submitted_at) * 1000.0
    return ServiceTimeoutError(
        f"{request.kind} query missed its deadline after waiting "
        f"{waited_ms:.1f} ms in the admission queue"
    )
