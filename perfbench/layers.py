"""Layer timers for the traced run.

:class:`LayerTimers` wraps the public entry points of each layer with
the benchmark's own timers while it is installed, and restores the
originals on exit.  It never turns on ``repro.obs`` tracing: the native
plane falls back to numpy under ``tracing()``, so a run traced that way
would measure another plane.

Samples are appended to lists, which is atomic under the interpreter
lock, so worker and pool threads may record concurrently.  A
thread-local depth keeps a wrapped method that calls another wrapped
method of the same layer (``NativeHAIndex`` delegating to
``FlatHAIndex``) from being counted twice.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

from repro.core.dynamic_ha import DynamicHAIndex
from repro.core.flat_ha import FlatHAIndex
from repro.core.native_ha import NativeHAIndex
from repro.service import server
from repro.store.store import DurableIndexStore

#: Single-query node walks of the Dynamic HA-Index.
NODE_WALK = ("search", "search_with_distances", "contains_within")
#: Batched sweeps of the compiled planes.
BATCH_SWEEPS = ("search_batch", "search_batch_arrays", "search_with_distances_batch")
#: The sweeps a kNN query issues (one per expansion round).
KNN_SWEEPS = ("search_with_distances", "search_with_distances_batch")


class LayerTimers:
    def __init__(self) -> None:
        # layer -> list of samples; a sample is (seconds, *extra).
        self.samples: dict[str, list[tuple]] = defaultdict(list)
        self._depth = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _patch(self, owner, name: str, wrapper_factory) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(
            owner, name
        )
        self._patched.append((owner, name, original))
        setattr(owner, name, wrapper_factory(original))

    def __enter__(self) -> "LayerTimers":
        for name in NODE_WALK:
            self._patch(DynamicHAIndex, name, self._timed("dha", name))
        for cls in (FlatHAIndex, NativeHAIndex):
            for name in BATCH_SWEEPS:
                if name in cls.__dict__:
                    self._patch(cls, name, self._timed("kernel", name))
        for name in ("compile", "compile_native"):
            self._patch(DynamicHAIndex, name, self._compile_timer)
        for name in ("knn_select", "knn_select_batch"):
            self._patch(server, name, self._timed("knn", name))
        for name in ("append_insert", "append_delete"):
            self._patch(DurableIndexStore, name, self._timed("store.append", name))
        self._patch(DurableIndexStore, "open", self._timed("store.open", "open"))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def wrap_submit(self, service) -> None:
        """Time ``submit`` on one service instance (admission)."""
        self._patch(service, "submit", self._timed("admission", "submit"))

    # -- wrappers ------------------------------------------------------------

    def _timed(self, layer: str, name: str):
        samples = self.samples[layer]
        depth = self._depth
        is_sweep = name in KNN_SWEEPS
        knn_sweeps = self.samples["knn.sweeps"]

        def factory(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                outer = getattr(depth, layer, 0) == 0
                setattr(depth, layer, getattr(depth, layer, 0) + 1)
                started = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - started
                    setattr(depth, layer, getattr(depth, layer) - 1)
                    if outer:
                        samples.append(_sample(layer, name, elapsed, args))
                        if is_sweep:
                            knn_sweeps.append((elapsed,))

            return wrapper

        return factory

    def _compile_timer(self, original):
        samples = self.samples["compile"]
        attr = "_compiled_native" if original.__name__ == "compile_native" else "_compiled"

        @functools.wraps(original)
        def wrapper(index, *args, **kwargs):
            before = getattr(index, attr, None)
            started = time.perf_counter()
            plane = original(index, *args, **kwargs)
            if plane is not before:  # a cache hit returns the same plane
                samples.append((time.perf_counter() - started,))
            return plane

        return wrapper


def _sample(layer: str, name: str, elapsed: float, args: tuple) -> tuple:
    """``(seconds, queries, ops)`` for sweeps and kNN, ``(seconds,)``
    otherwise."""
    if layer == "kernel":
        plane, queries = args[0], args[1]
        return (elapsed, len(queries), plane.last_search_ops)
    if layer == "knn":
        queries = args[0]
        return (elapsed, len(queries) if name == "knn_select_batch" else 1)
    return (elapsed,)
