"""The native (compiled) query plane of the Dynamic HA-Index.

:class:`NativeHAIndex` is a :class:`~repro.core.flat_ha.FlatHAIndex`
whose one sweep primitive, :meth:`FlatHAIndex._sweep_batch`, runs
through the compiled C backend (:mod:`repro.core.native`) instead of
the numpy frontier loop.  Every public read — single queries as batches
of one, the batch forms, ``count_within`` and ``contains_within`` — is
the base class's, so candidate ranking, buffered-insert comparisons,
code dedup, spans and metrics are shared code, and the compiled walk
replays the numpy traversal exactly: same visit order, same emissions,
same distance-computation count.  Answers are byte-identical to the
flat plane and ``last_search_ops`` still sums to the node walk's count.

A native index is a *view* of a flat kernel (:meth:`NativeHAIndex.view`,
what :meth:`DynamicHAIndex.compile_native` returns): it shares every
array of the kernel :meth:`DynamicHAIndex.compile` caches, so one
flatten serves both planes.

The numpy primitive answers instead, per call, when

* no compiled tier works (``REPRO_NATIVE=numpy``, no C compiler);
* codes are wider than 64 bits (the compiled kernel is single-word);
* a trace is open, so per-level ``h_search.level`` spans keep their
  exact op attribution.

Native execution state is created lazily and never pickled: kernels
shipped into process pools (the parallel join path) or restored from
snapshots rebuild their backend state on first query in the receiving
process.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core import native
from repro.core.flat_ha import FlatHAIndex
from repro.obs.trace import tracing


class NativeHAIndex(FlatHAIndex):
    """Flat kernel executed through the compiled native backend."""

    ENGINE_LABEL = "native"

    #: Class-level default so views and unpickled copies lazily create
    #: their own state.
    _native_state = None

    @classmethod
    def view(cls, flat: FlatHAIndex) -> "NativeHAIndex":
        """The native plane over ``flat``, sharing all of its arrays.

        Cached on ``flat``: every call for one kernel returns the same
        view, and with it one bound native state.
        """
        view = flat.__dict__.get("_native_view")
        if view is None:
            view = cls.__new__(cls)
            view.__dict__.update(flat.__dict__)
            flat._native_view = view
        return view

    @property
    def backend(self) -> str:
        """The tier answering right now: ``cc`` or ``numpy``."""
        state = self._route()
        return state.backend if state is not None else "numpy"

    def _route(self):
        """The native state to sweep with, or ``None`` for numpy.

        Re-resolves the backend on every call so ``force_backend`` /
        ``REPRO_NATIVE`` changes take effect immediately.
        """
        if self._words != 1 or tracing() or native.active_backend() == "numpy":
            return None
        if self._native_state is None:
            self._native_state = native.make_state(self)
        return self._native_state

    def _sweep_batch(
        self, queries: Sequence[int], threshold: int, mode: int
    ) -> tuple[np.ndarray, list[int], int]:
        state = self._route()
        if state is None:
            return super()._sweep_batch(queries, threshold, mode)
        return state.sweep(queries, threshold, mode)

    # -- HammingIndex contract -------------------------------------------

    @classmethod
    def build(cls, codes, **params) -> "NativeHAIndex":
        """H-Build a Dynamic HA-Index over ``codes``, native-compiled."""
        from repro.core.dynamic_ha import DynamicHAIndex

        return DynamicHAIndex.build(codes, **params).compile_native()
