"""Parallel scatter executors for the sharded serving plane.

The service core (:class:`~repro.service.sharded.ShardedQueryService`)
plans which shards a query must visit; *this* module decides how the
surviving shard operations actually run, each on the shard's
:func:`served_plane`.  Three interchangeable backends share one
contract — ``scatter(tasks, dispatch)`` returns the per-task values in
task order, byte-identical across backends:

* :class:`SerialExecutor` — inline dispatch on the calling thread, the
  PR 5 behaviour and the differential baseline.
* :class:`ThreadShardExecutor` — a persistent
  :class:`~concurrent.futures.ThreadPoolExecutor`.  The compiled and
  MIH kernels spend their time in C and numpy calls that release the
  GIL, so shard fan-out overlaps on multi-core hosts while sharing the
  parent's index objects (zero copies, zero coherence traffic).
* :class:`ProcessShardExecutor` — spawn-once worker processes that
  warm-start each shard themselves: from the service's
  :class:`~repro.store.store.DurableIndexStore` via
  :meth:`~repro.store.store.DurableIndexStore.open_readonly` when the
  service is durable, and otherwise from snapshots the parent writes
  once at spawn into a scratch directory — either way the shard arrives
  as a memory-mapped kernel (:func:`repro.store.snapshot.lazy_decode`),
  so spawning a worker never re-pickles an index.  Engines without a
  snapshot encoding fall back to one pickled copy per worker at spawn
  (or raise :class:`~repro.core.errors.StoreError` where the engine
  cannot be pickled at all).

Determinism
-----------
Workers may *complete* in any order; the gather side never depends on
it.  Results are slotted by task index, and trace subtrees are captured
detached on the executing thread/process
(:func:`repro.obs.trace.capture_span`) and re-attached to the parent
trace strictly in task order — so the span tree, merge order and op
accounting of a parallel scatter are identical to the serial walk.

Mutation coherence (process pool)
---------------------------------
The owning service serializes scatters and mutations under its shard
mutex, so a worker never races a write.  Every H-Insert/H-Delete is
broadcast (``mutate``) down each worker's pipe; pipes are FIFO, so a
worker applies all mutations up to epoch ``e`` before it sees a task
stamped with epoch ``e``.  Workers that load a shard lazily reconcile
by epoch: store-backed loads recover the mutations from the WAL (the
writer flushes every record before the service applies it) and skip
already-covered broadcasts; snapshot/pickle loads start at the spawn
epoch and apply the buffered tail.  A worker whose shard state cannot
reach the task's epoch answers ``stale`` and the parent re-runs that
task inline — degraded, never wrong.

Fail-fast
---------
``task_timeout`` bounds one scatter.  A process pool that blows the
deadline has its suspect workers terminated and the missing tasks run
inline (counted as fallbacks + timeouts); with ``fallback=False`` — and
always for the thread pool, whose threads cannot be killed — the
scatter raises :class:`~repro.core.errors.PoolTimeoutError` instead of
hanging the serving thread.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from multiprocessing import connection as mp_connection
from typing import Callable, Sequence

from repro.core.errors import InvalidParameterError, PoolTimeoutError
from repro.obs import REGISTRY
from repro.obs.trace import (
    Span,
    attach_span,
    capture_span,
    trace_span,
    tracing,
)

__all__ = [
    "POOL_KINDS",
    "ShardTask",
    "ShardExecutor",
    "SerialExecutor",
    "ThreadShardExecutor",
    "ProcessShardExecutor",
    "make_executor",
    "default_pool_workers",
    "served_plane",
]

#: Accepted ``pool=`` values, CLI order.
POOL_KINDS = ("serial", "thread", "process")

#: Worker-side test hook: a task with this op sleeps instead of touching
#: any shard, letting the timeout/fallback path be exercised
#: deterministically (``tests/test_shard_executor.py``).
_TEST_SLEEP_OP = "_pool_test_sleep"


def served_plane(index):
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


class ShardTask:
    """One shard operation of a scatter.

    ``epoch`` is the owning shard's epoch at plan time — the process
    pool uses it to prove a worker's copy is current before trusting
    its answer.  ``context`` feeds the seeded chaos hashes exactly as
    the serial dispatch does, so fault decisions are identical across
    backends.
    """

    __slots__ = ("sid", "op", "args", "context", "epoch")

    def __init__(
        self,
        sid: int,
        op: str,
        args: tuple,
        context: tuple,
        epoch: int = 0,
    ) -> None:
        self.sid = sid
        self.op = op
        self.args = args
        self.context = context
        self.epoch = epoch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardTask(sid={self.sid}, op={self.op!r}, "
            f"epoch={self.epoch})"
        )


def default_pool_workers(num_shards: int) -> int:
    """Default pool width: one worker per shard, capped at the host."""
    return max(1, min(num_shards, os.cpu_count() or 1))


def modelled_wall(durations: Sequence[float], width: int) -> float:
    """Wall clock of a task list scheduled on ``width`` idle workers.

    Tasks start in submission order and each goes to the worker that
    frees up first — the discipline a pool draining a shared queue
    follows.  With one worker this degenerates to ``sum(durations)``.
    This is the same modelled-cluster-time construction the MapReduce
    benchmarks use (``repro.mapreduce.runtime``): measure real per-task
    seconds on whatever cores exist, then schedule them at the target
    width, so scatter costs are comparable across hosts.
    """
    if not durations:
        return 0.0
    if width <= 1:
        return float(sum(durations))
    heads = [0.0] * width
    for duration in durations:
        slot = min(range(width), key=heads.__getitem__)
        heads[slot] += duration
    return max(heads)


def route_around_faults(
    candidates: list,
    faults,
    accounting,
    sid: int,
    op: str,
    context: tuple,
    ident: Callable[[object], int] = lambda candidate: candidate,
):
    """The candidate one dispatch goes to, once the fault plan has spoken.

    ``candidates`` come best first (least outstanding work).  A
    straggling first choice is hedged to the back of the list, and
    candidates the plan marks down (``ident`` names them to it) are
    failed over — except the last, which is always eligible, so
    injected faults change routing, never results.  Hedges and
    failovers are counted on ``accounting`` (when given) and in the
    registry.
    """
    if faults is None:
        return candidates[0]
    if len(candidates) > 1 and faults.primary_straggles(sid, op, *context):
        candidates = candidates[1:] + candidates[:1]
        if accounting is not None:
            accounting.record_hedge()
        if REGISTRY.enabled:
            REGISTRY.counter(
                "shard_hedged_total",
                "dispatches hedged away from a slow primary",
            ).inc()
    for candidate in candidates[:-1]:
        if not faults.replica_down(sid, ident(candidate), op, *context):
            return candidate
        if accounting is not None:
            accounting.record_failover()
        if REGISTRY.enabled:
            REGISTRY.counter(
                "shard_failover_total",
                "dispatches failed over to another replica",
            ).inc()
    return candidates[-1]


class ShardExecutor:
    """Counter plumbing shared by every backend."""

    kind = "serial"

    def __init__(self) -> None:
        self._counter_lock = threading.Lock()
        self.tasks = 0
        self.fallbacks = 0
        self.timeouts = 0
        self.busy_seconds = 0.0
        self.critical_seconds = 0.0
        #: When set, critical-path accounting schedules each scatter's
        #: measured task seconds at this width instead of the pool's
        #: real width — the Figure 9 "modelled cluster time" device:
        #: measure real per-task seconds on whatever cores exist, then
        #: ask what an N-worker pool's schedule would have cost.
        self.model_width: int | None = None

    @property
    def workers(self) -> int:
        return 0

    def counters(self) -> tuple[int, int, int]:
        """Atomic ``(tasks, fallbacks, timeouts)`` snapshot."""
        with self._counter_lock:
            return self.tasks, self.fallbacks, self.timeouts

    def seconds(self) -> tuple[float, float]:
        """Atomic ``(busy, critical)`` seconds snapshot.

        ``busy`` sums every shard task's measured execution time;
        ``critical`` sums, per scatter, the :func:`modelled_wall` of
        those task times at this pool's width.  Their ratio is the
        scatter-level parallel speedup the pool's schedule achieves
        (or would achieve, on a host with that many cores).
        """
        with self._counter_lock:
            return self.busy_seconds, self.critical_seconds

    def _account(
        self, amount: int = 0, durations: Sequence[float] = ()
    ) -> None:
        """Count ``amount`` dispatched tasks and, when given, one
        scatter's measured task seconds."""
        busy = wall = 0.0
        if durations:
            busy = sum(durations)
            wall = modelled_wall(
                durations, self.model_width or self.workers or 1
            )
        with self._counter_lock:
            self.tasks += amount
            self.busy_seconds += busy
            self.critical_seconds += wall
        if REGISTRY.enabled and amount:
            REGISTRY.counter(
                "shard_pool_tasks_total",
                "shard operations routed through the scatter executor",
                pool=self.kind,
            ).inc(amount)

    def _count_fallback(self, amount: int = 1) -> None:
        with self._counter_lock:
            self.fallbacks += amount
        if REGISTRY.enabled and amount:
            REGISTRY.counter(
                "shard_pool_fallbacks_total",
                "scatter tasks re-run inline after a pool failure",
                pool=self.kind,
            ).inc(amount)

    def _count_timeout(self) -> None:
        with self._counter_lock:
            self.timeouts += 1
        if REGISTRY.enabled:
            REGISTRY.counter(
                "shard_pool_timeouts_total",
                "scatters that exceeded the pool task timeout",
                pool=self.kind,
            ).inc()

    # -- contract ----------------------------------------------------------

    def scatter(
        self,
        tasks: Sequence[ShardTask],
        dispatch: Callable[[ShardTask], object],
    ) -> list:
        raise NotImplementedError

    def mutate(
        self, sid: int, op: str, code: int, tuple_id: int, epoch: int
    ) -> None:
        """Propagate one applied mutation (no-op outside process pools)."""

    def reload(self) -> None:
        """Refresh worker-side state after a bulk index swap (no-op)."""

    def close(self) -> None:
        """Release pool resources (idempotent; no-op for serial)."""


class SerialExecutor(ShardExecutor):
    """Inline dispatch in task order — the differential baseline."""

    kind = "serial"

    def scatter(
        self,
        tasks: Sequence[ShardTask],
        dispatch: Callable[[ShardTask], object],
    ) -> list:
        results = []
        durations = []
        for task in tasks:
            with trace_span(
                "shard.dispatch",
                shard=task.sid,
                op=task.op,
                pool=self.kind,
            ):
                started = time.perf_counter()
                results.append(dispatch(task))
                durations.append(time.perf_counter() - started)
        self._account(len(tasks), durations)
        return results


class ThreadShardExecutor(ShardExecutor):
    """Persistent thread pool sharing the parent's shard objects.

    Every task runs the service's own dispatch (replica pick, failover,
    hedging, accounting — all already thread-safe) under a detached
    ``shard.dispatch`` capture; the gather loop consumes futures in
    task order and re-attaches the captures in that same order.
    """

    kind = "thread"

    def __init__(
        self,
        workers: int,
        *,
        task_timeout: float | None = None,
    ) -> None:
        super().__init__()
        if workers < 1:
            raise InvalidParameterError("pool workers must be >= 1")
        self._workers = workers
        self.task_timeout = task_timeout
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-shard"
        )

    @property
    def workers(self) -> int:
        return self._workers

    def scatter(
        self,
        tasks: Sequence[ShardTask],
        dispatch: Callable[[ShardTask], object],
    ) -> list:
        if not tasks:
            return []
        self._account(len(tasks))
        capture = tracing()

        def run(task: ShardTask):
            started = time.perf_counter()
            if not capture:
                value = dispatch(task)
                return value, None, time.perf_counter() - started
            with capture_span(
                "shard.dispatch",
                shard=task.sid,
                op=task.op,
                pool=self.kind,
            ) as span:
                value = dispatch(task)
            return value, span, time.perf_counter() - started

        futures = [self._pool.submit(run, task) for task in tasks]
        deadline = (
            None
            if self.task_timeout is None
            else time.monotonic() + self.task_timeout
        )
        results = []
        durations = []
        for position, future in enumerate(futures):
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            try:
                value, span, elapsed = future.result(timeout=remaining)
            except FutureTimeoutError:
                self._count_timeout()
                for pending in futures[position:]:
                    pending.cancel()
                raise PoolTimeoutError(
                    f"thread scatter exceeded {self.task_timeout}s "
                    f"({len(tasks) - position} of {len(tasks)} tasks "
                    "unfinished)"
                ) from None
            if span is not None:
                attach_span(span)
            results.append(value)
            durations.append(elapsed)
        self._account(durations=durations)
        return results

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)


# -- process pool ----------------------------------------------------------


def _load_worker_shard(spec: tuple):
    """Materialize one shard inside a worker from its spawn spec.

    Warms the shard's served plane, so the first task pays no compile.
    Returns ``(index, applied_epoch)`` — the epoch the loaded state
    already covers, so buffered mutation broadcasts at or below it are
    skipped rather than double-applied.
    """
    mode = spec[0]
    if mode == "store":
        from repro.store.store import DurableIndexStore

        store = DurableIndexStore(spec[1])
        index = store.open_readonly()
        # The spec records (epoch, seq) as of spawn; every WAL record
        # past that seq is one epoch bump the replay already covers.
        applied = spec[2] + (store.last_seq - spec[3])
    elif mode == "snap":
        from repro.store.snapshot import lazy_decode, read_snapshot

        index = lazy_decode(read_snapshot(spec[1]))
        applied = spec[2]
    else:  # "pickle"
        import pickle

        index = pickle.loads(spec[1])
        applied = spec[2]
    if len(index):
        served_plane(index)
    return index, applied


def _pool_worker_main(conn, init: dict) -> None:
    """Body of one shard-pool worker process (spawn target).

    Single-threaded message loop over the worker's pipe.  Shards load
    lazily on first task; mutation broadcasts apply (or buffer) per
    shard; any load/apply failure poisons only that shard — the worker
    keeps serving the others and the parent falls back inline.
    """
    specs: dict[int, tuple] = init["specs"]
    widx: int = init["worker"]
    shards: dict[int, list] = {}  # sid -> [index, applied_epoch]
    pending: dict[int, list] = {}  # sid -> [(op, code, tid, epoch)]
    failed: set[int] = set()

    def ensure(sid: int):
        state = shards.get(sid)
        if state is not None:
            return state
        index, applied = _load_worker_shard(specs[sid])
        for mop, code, tid, epoch in pending.pop(sid, ()):
            if epoch <= applied:
                continue
            getattr(index, mop)(code, tid)
            applied = epoch
        state = [index, applied]
        shards[sid] = state
        return state

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "task":
            _, task_id, sid, op, args, epoch, capture = message
            if op == _TEST_SLEEP_OP:
                time.sleep(args[0])
                conn.send(("ok", task_id, None, None, args[0]))
                continue
            if sid in failed:
                conn.send(("stale", task_id))
                continue
            try:
                index, applied = ensure(sid)
            except Exception as error:  # noqa: BLE001 - report, don't die
                failed.add(sid)
                conn.send(
                    ("error", task_id, f"{type(error).__name__}: {error}")
                )
                continue
            if applied != epoch:
                conn.send(("stale", task_id))
                continue
            try:
                if capture:
                    started = time.perf_counter()
                    with capture_span(
                        "shard.dispatch",
                        shard=sid,
                        op=op,
                        pool="process",
                        worker=widx,
                    ) as span:
                        with trace_span(
                            "shard.search",
                            shard=sid,
                            worker=widx,
                            op=op,
                        ):
                            value = getattr(served_plane(index), op)(*args)
                    elapsed = time.perf_counter() - started
                    conn.send(
                        ("ok", task_id, value, span.as_dict(), elapsed)
                    )
                else:
                    started = time.perf_counter()
                    value = getattr(served_plane(index), op)(*args)
                    elapsed = time.perf_counter() - started
                    conn.send(("ok", task_id, value, None, elapsed))
            except Exception as error:  # noqa: BLE001
                conn.send(
                    ("error", task_id, f"{type(error).__name__}: {error}")
                )
        elif kind == "mutate":
            _, sid, op, code, tid, epoch = message
            if sid in failed:
                continue
            state = shards.get(sid)
            if state is None:
                pending.setdefault(sid, []).append((op, code, tid, epoch))
                continue
            try:
                if epoch > state[1]:
                    getattr(state[0], op)(code, tid)
                    state[1] = epoch
            except Exception:  # noqa: BLE001 - poisoned copy
                failed.add(sid)
                shards.pop(sid, None)
        elif kind == "reload":
            specs = message[1]
            shards.clear()
            pending.clear()
            failed.clear()
        elif kind == "close":
            conn.close()
            return


class _Worker:
    """Parent-side handle of one pool process."""

    __slots__ = ("index", "process", "conn", "outstanding", "alive")

    def __init__(self, index: int, process, conn) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.outstanding = 0
        self.alive = True


class ProcessShardExecutor(ShardExecutor):
    """Spawn-once process pool with replica-aware task placement.

    Args:
        spec_factory: callable returning ``(specs, scratch_dir)`` —
            per-shard warm-start specs (see :func:`_load_worker_shard`)
            plus an optional scratch directory the executor owns and
            removes on reload/close.  Called at spawn and again on
            :meth:`reload`, so a post-refresh pool re-warms from the
            swapped shards.
        workers: pool width.
        task_timeout: per-scatter deadline (None = wait forever).
        faults: optional
            :class:`~repro.service.sharded.ReplicaFaultPlan` — the same
            seeded chaos seams the serial dispatch uses, applied here to
            *worker* placement: ``primary_straggles`` demotes the
            least-loaded candidate (hedged dispatch),
            ``replica_down`` skips a candidate worker (failover), with
            the last candidate always eligible (fail-open).
        accounting: duck-typed sink with ``record_hedge()`` /
            ``record_failover()`` (the service's shard accounting).
        fallback: re-run failed/stale/timed-out tasks inline via the
            service dispatch.  ``False`` turns a blown deadline into
            :class:`~repro.core.errors.PoolTimeoutError`.

    The ``spawn`` start method is deliberate: the owning service runs
    scheduler threads and the process-wide registry holds locks, so a
    forked child could inherit them mid-flight.
    """

    kind = "process"

    def __init__(
        self,
        spec_factory: Callable[[], tuple[dict, str | None]],
        workers: int,
        *,
        task_timeout: float | None = None,
        faults=None,
        accounting=None,
        fallback: bool = True,
    ) -> None:
        super().__init__()
        if workers < 1:
            raise InvalidParameterError("pool workers must be >= 1")
        self._spec_factory = spec_factory
        self._workers_wanted = workers
        self.task_timeout = task_timeout
        self._faults = faults
        self._accounting = accounting
        self._fallback = fallback
        self._ctx = multiprocessing.get_context("spawn")
        self._scratch: str | None = None
        self._pool: list[_Worker] = []
        self._spawn()

    @property
    def workers(self) -> int:
        return sum(1 for worker in self._pool if worker.alive)

    def _spawn(self) -> None:
        specs, self._scratch = self._spec_factory()
        self._pool = [
            self._start(index, specs)
            for index in range(self._workers_wanted)
        ]

    def _start(self, index: int, specs: dict) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(child_conn, {"specs": specs, "worker": index}),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        process.start()
        child_conn.close()
        return _Worker(index, process, parent_conn)

    # -- placement ---------------------------------------------------------

    def _pick_worker(self, task: ShardTask) -> _Worker | None:
        """Least-outstanding-requests pick with chaos hedging/failover."""
        candidates = sorted(
            (worker for worker in self._pool if worker.alive),
            key=lambda worker: (worker.outstanding, worker.index),
        )
        if not candidates:
            return None
        return route_around_faults(
            candidates,
            self._faults,
            self._accounting,
            task.sid,
            task.op,
            task.context,
            ident=lambda worker: worker.index,
        )

    def _kill(self, worker: _Worker) -> None:
        worker.alive = False
        worker.outstanding = 0
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already gone
            pass
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=1.0)

    # -- scatter -----------------------------------------------------------

    def scatter(
        self,
        tasks: Sequence[ShardTask],
        dispatch: Callable[[ShardTask], object],
    ) -> list:
        if not tasks:
            return []
        self._account(len(tasks))
        capture = tracing()
        results: list = [None] * len(tasks)
        spans: list[dict | None] = [None] * len(tasks)
        durations: list[float] = []
        done = [False] * len(tasks)
        needs_fallback: set[int] = set()
        owners: dict[int, _Worker] = {}
        remaining: set[int] = set()

        for position, task in enumerate(tasks):
            worker = self._pick_worker(task)
            if worker is None:
                needs_fallback.add(position)
                continue
            try:
                worker.conn.send(
                    (
                        "task",
                        position,
                        task.sid,
                        task.op,
                        task.args,
                        task.epoch,
                        capture,
                    )
                )
            except (OSError, ValueError):
                self._kill(worker)
                needs_fallback.add(position)
                continue
            worker.outstanding += 1
            owners[position] = worker
            remaining.add(position)

        deadline = (
            None
            if self.task_timeout is None
            else time.monotonic() + self.task_timeout
        )
        timed_out = False
        while remaining:
            conns = {
                worker.conn: worker
                for worker in set(owners[p] for p in remaining)
                if worker.alive
            }
            if not conns:
                break
            timeout = None
            if deadline is not None:
                timeout = deadline - time.monotonic()
                if timeout <= 0:
                    timed_out = True
                    break
            ready = mp_connection.wait(list(conns), timeout)
            if not ready:
                timed_out = True
                break
            for conn in ready:
                worker = conns[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    self._kill(worker)
                    for position in [
                        p for p in remaining if owners[p] is worker
                    ]:
                        remaining.discard(position)
                        needs_fallback.add(position)
                    continue
                status, task_id = message[0], message[1]
                if task_id not in remaining or owners[task_id] is not worker:
                    continue  # late duplicate; already resolved
                worker.outstanding -= 1
                remaining.discard(task_id)
                if status == "ok":
                    results[task_id] = message[2]
                    spans[task_id] = message[3]
                    durations.append(message[4])
                    done[task_id] = True
                else:  # "stale" / "error"
                    needs_fallback.add(task_id)

        if timed_out:
            self._count_timeout()
            suspects = {owners[p] for p in remaining}
            for worker in suspects:
                self._kill(worker)
            needs_fallback.update(remaining)
            remaining.clear()
            if not self._fallback:
                raise PoolTimeoutError(
                    f"process scatter exceeded {self.task_timeout}s "
                    f"({len(needs_fallback)} of {len(tasks)} tasks "
                    "unfinished)"
                )
        needs_fallback.update(remaining)

        # Deterministic gather: walk tasks in order, attaching worker
        # span subtrees and running any fallbacks inline (their spans
        # attach naturally — the parent trace is open on this thread).
        self._count_fallback(len(needs_fallback))
        for position, task in enumerate(tasks):
            if done[position]:
                if capture and spans[position] is not None:
                    attach_span(Span.from_dict(spans[position]))
                continue
            with trace_span(
                "shard.dispatch",
                shard=task.sid,
                op=task.op,
                pool=self.kind,
                fallback=True,
            ):
                started = time.perf_counter()
                results[position] = dispatch(task)
                durations.append(time.perf_counter() - started)
        self._account(durations=durations)
        return results

    # -- coherence / lifecycle ---------------------------------------------

    def mutate(
        self, sid: int, op: str, code: int, tuple_id: int, epoch: int
    ) -> None:
        for worker in self._pool:
            if not worker.alive:
                continue
            try:
                worker.conn.send(("mutate", sid, op, code, tuple_id, epoch))
            except (OSError, ValueError):
                self._kill(worker)

    def reload(self) -> None:
        """Re-warm every worker from fresh specs (post-refresh).

        Dead workers are respawned; live ones keep their process (and
        their imports) and just drop shard state.
        """
        old_scratch = self._scratch
        specs, scratch = self._spec_factory()
        self._scratch = scratch
        for worker in list(self._pool):
            if not worker.alive:
                continue
            try:
                worker.conn.send(("reload", specs))
            except (OSError, ValueError):
                self._kill(worker)
        for position, worker in enumerate(self._pool):
            if not worker.alive:
                self._pool[position] = self._start(worker.index, specs)
        if old_scratch and old_scratch != scratch:
            shutil.rmtree(old_scratch, ignore_errors=True)

    def close(self) -> None:
        for worker in self._pool:
            if not worker.alive:
                continue
            try:
                worker.conn.send(("close",))
            except (OSError, ValueError):
                pass
        for worker in self._pool:
            if worker.process.is_alive():
                worker.process.join(timeout=2.0)
            if worker.process.is_alive():  # pragma: no cover - wedged
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
            worker.alive = False
        if self._scratch:
            shutil.rmtree(self._scratch, ignore_errors=True)
            self._scratch = None


def make_executor(
    pool: str,
    *,
    workers: int,
    spec_factory: Callable[[], tuple[dict, str | None]] | None = None,
    task_timeout: float | None = None,
    faults=None,
    accounting=None,
) -> ShardExecutor:
    """Build the named backend (``serial`` / ``thread`` / ``process``)."""
    if pool == "serial":
        return SerialExecutor()
    if pool == "thread":
        return ThreadShardExecutor(workers, task_timeout=task_timeout)
    if pool == "process":
        if spec_factory is None:
            raise InvalidParameterError(
                "process pool requires a shard spec factory"
            )
        return ProcessShardExecutor(
            spec_factory,
            workers,
            task_timeout=task_timeout,
            faults=faults,
            accounting=accounting,
        )
    raise InvalidParameterError(
        f"unknown pool {pool!r}; expected one of {POOL_KINDS}"
    )
