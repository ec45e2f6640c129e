"""The two timed phases: an open loop and a closed-loop drain.

Load comes from two threads of this process: a *sender* that submits
requests and a *collector* that waits for their results.  The sender
never spins: in the open loop it sleeps until each request's due time,
because a busy-waiting sender starves the service's own worker threads
of the interpreter lock.

Reads go through ``service.submit`` and are timed from their due time
(open loop) or their submit time (drain) to the moment the collector
sees the result.  Writes are synchronous service calls, so the sender
applies them in stream order and times them itself; a slow write makes
every later request late, and the open-loop latencies count that wait.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

from workloads import WRITES

#: Requests the drain keeps outstanding: below the default admission
#: bound (``queue_limit=1024``), so the drain is never rejected.
DRAIN_OUTSTANDING = 256
#: Longest a collector waits for one result before counting it failed.
RESULT_TIMEOUT_S = 60.0

_DONE = object()


@dataclass
class PhaseResult:
    """What one phase observed, in stream order where it matters.

    ``reads`` holds ``(op, epoch, value)`` for every answered read and
    ``applied_writes`` every write the service accepted, in order (the
    oracle checks the reads against the writes).  ``refused`` (sender side: admission refusals
    and failed writes) and ``lost`` (collector side: server errors and
    timeouts) are kept apart so each thread updates only its own count.
    """

    read_ms: list[float] = field(default_factory=list)
    write_ms: list[float] = field(default_factory=list)
    lag_ms: list[float] = field(default_factory=list)
    reads: list[tuple[tuple[str, int, int], int, object]] = field(
        default_factory=list
    )
    applied_writes: list[tuple[str, int, int]] = field(default_factory=list)
    refused: int = 0
    lost: int = 0
    sent: int = 0
    #: Wall time of a drain, to its last result.
    elapsed_s: float = 0.0

    @property
    def failures(self) -> int:
        return self.refused + self.lost

    @property
    def completed(self) -> int:
        return len(self.reads) + len(self.write_ms)


def _apply_write(service, op, result: PhaseResult, started: float) -> None:
    kind, code, tuple_id = op
    try:
        getattr(service, kind)(code, tuple_id)
    except Exception:  # noqa: BLE001 - any refusal is a failed request
        result.refused += 1
        return
    result.applied_writes.append(op)
    result.write_ms.append((time.perf_counter() - started) * 1000.0)


def _collect(pending: queue.SimpleQueue, result: PhaseResult, release):
    """Collector loop: resolve tickets in submission order."""
    while True:
        item = pending.get()
        if item is _DONE:
            return
        op, ticket, started = item
        try:
            served = ticket.result(timeout=RESULT_TIMEOUT_S)
        except Exception:  # noqa: BLE001 - timeouts and server errors
            result.lost += 1
        else:
            result.read_ms.append((time.perf_counter() - started) * 1000.0)
            # Keep tuples of ints, not the ServedResult: the garbage
            # collector stops tracking such tuples, so holding every
            # answer for the oracle does not make its full collections
            # (which pause every thread) longer or more frequent.
            result.reads.append((op, served.epoch, served.value))
        if release is not None:
            release.release()


def _submit(service, op, pending, result: PhaseResult, started: float) -> bool:
    kind, code, param = op
    try:
        ticket = service.submit(kind, code, param)
    except Exception:  # noqa: BLE001 - admission refusals included
        result.refused += 1
        return False
    pending.put((op, ticket, started))
    return True


def open_loop(service, stream, rate: float) -> PhaseResult:
    """Send ``stream`` at ``rate`` requests per second, on a schedule."""
    result = PhaseResult()
    pending: queue.SimpleQueue = queue.SimpleQueue()
    collector = threading.Thread(
        target=_collect, args=(pending, result, None), name="bench-collect"
    )
    collector.start()
    interval = 1.0 / rate
    begin = time.perf_counter() + 0.01
    try:
        for position, op in enumerate(stream):
            due = begin + position * interval
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            result.lag_ms.append(
                max(0.0, time.perf_counter() - due) * 1000.0
            )
            result.sent += 1
            if op[0] in WRITES:
                _apply_write(service, op, result, due)
            else:
                _submit(service, op, pending, result, due)
    finally:
        pending.put(_DONE)
        collector.join()
    return result


def drain(service, stream, seconds: float) -> PhaseResult:
    """Closed loop: keep ``DRAIN_OUTSTANDING`` reads in flight for
    ``seconds`` (or until the stream runs out)."""
    result = PhaseResult()
    pending: queue.SimpleQueue = queue.SimpleQueue()
    slots = threading.BoundedSemaphore(DRAIN_OUTSTANDING)
    collector = threading.Thread(
        target=_collect, args=(pending, result, slots), name="bench-collect"
    )
    collector.start()
    begin = time.perf_counter()
    stop = begin + seconds
    try:
        for op in stream:
            now = time.perf_counter()
            if now >= stop:
                break
            result.sent += 1
            if op[0] in WRITES:
                _apply_write(service, op, result, now)
                continue
            slots.acquire()
            if not _submit(service, op, pending, result, time.perf_counter()):
                slots.release()
    finally:
        pending.put(_DONE)
        collector.join()
    result.elapsed_s = time.perf_counter() - begin
    return result
