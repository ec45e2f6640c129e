"""The compiled tier of the H-Search sweep primitive.

:class:`~repro.core.native_ha.NativeHAIndex` runs the flat kernel's one
sweep primitive (:meth:`~repro.core.flat_ha.FlatHAIndex._sweep_batch`)
through compiled code when it can, and through the primitive's numpy
loop otherwise.  This module owns the two tiers and the per-kernel
execution state:

* ``cc`` — one C function, ``hs_sweep64``, compiled once per source
  digest with the system compiler and loaded via ``ctypes``.  It walks a
  query batch in any of the four emission modes (tuple ids, leaf
  positions, frequency count, existence); a single query is a batch of
  one.
* ``numpy`` — no native state at all; the primitive's numpy loop
  answers.

Selection is ``cc`` when the library builds and ``numpy`` otherwise,
overridable with the ``REPRO_NATIVE`` environment variable
(``auto``/``cc``/``numpy``; unknown values behave as ``auto``) or, in
tests, the :func:`force_backend` context manager.  The C walk replays
the *exact* traversal of the numpy loop — same visit order, same
emissions, same distance-computation count — so results and
``last_search_ops`` stay byte-identical across tiers; the differential
suite enforces that.

The frontier is kept as contiguous ``(first child, count)`` slot runs
rather than materialized node lists: children of one node occupy one
contiguous slot range in the next level, so each level walks sequential
memory.  Scratch run buffers, the query, count and output buffers and
the bound kernel struct live in a per-kernel :class:`NativeState`
guarded by a lock — the compiled call drops the GIL, and one kernel may
be probed from several threads by the parallel-join thread fallback.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from contextlib import contextmanager
from ctypes import c_int64, c_void_p
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.errors import IndexStateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.flat_ha import FlatHAIndex

__all__ = [
    "active_backend",
    "force_backend",
    "make_state",
    "requested_backend",
]

#: Environment variable naming the requested backend tier.
ENV_VAR = "REPRO_NATIVE"

_VALID_CHOICES = ("auto", "cc", "numpy")

_FORCED: str | None = None

#: Queries the per-query buffers of a :class:`NativeState` hold before
#: a larger batch resizes them.
_BATCH_CAP = 512

_NO_VALUES = np.empty(0, dtype=np.int64)
_NO_VALUES.flags.writeable = False

#: Prebuilt ``int64`` arguments for the hot call: every mode, every
#: clamped single-word threshold, and batch sizes up to 64.
_INT_ARGS = tuple(c_int64(value) for value in range(65))


def requested_backend() -> str:
    """The requested tier: :func:`force_backend` > ``REPRO_NATIVE`` > auto."""
    if _FORCED is not None:
        return _FORCED
    choice = os.environ.get(ENV_VAR, "auto").strip().lower()
    return choice if choice in _VALID_CHOICES else "auto"


@contextmanager
def force_backend(name: str):
    """Pin backend selection for a ``with`` block (tests and benches).

    Accepts any :data:`ENV_VAR` value; ``numpy`` disables native
    execution entirely, which is how the fallback lane proves the numpy
    path byte-identical.
    """
    global _FORCED
    if name not in _VALID_CHOICES:
        raise ValueError(
            f"unknown native backend {name!r}; expected one of "
            f"{', '.join(_VALID_CHOICES)}"
        )
    previous = _FORCED
    _FORCED = name
    try:
        yield name
    finally:
        _FORCED = previous


def active_backend() -> str:
    """The tier a new :class:`NativeState` would execute on right now."""
    if requested_backend() != "numpy" and _library() is not None:
        return "cc"
    return "numpy"


def make_state(flat: "FlatHAIndex") -> "NativeState | None":
    """Native execution state bound to ``flat``'s arrays, or ``None``.

    ``None`` means "use the numpy sweeps": multi-word codes, a
    ``numpy`` selection, or no working C toolchain.  The state holds
    contiguous references to the kernel's tree arrays (never the insert
    buffer — buffered comparisons stay in numpy), so it remains valid
    for every :meth:`FlatHAIndex.rebuffered` clone of the same tree.
    """
    if flat._words != 1 or flat._bits1 is None:
        return None
    if active_backend() == "numpy":
        return None
    return NativeState(_library(), flat)


@functools.cache
def _library():
    """The loaded C kernel, or ``None`` when it cannot be built here."""
    try:
        return _load_cc()
    except Exception:  # no toolchain, or the smoke check failed
        return None


# -- the C tier -------------------------------------------------------------

#: The H-Search sweep as C.  ``HsKernel`` binds one flat kernel's tree
#: arrays plus scratch run buffers and the per-query input and count
#: buffers.  The one entry point, ``hs_sweep64``, walks ``nq`` queries
#: one after another, replaying the numpy sweep exactly (visit order,
#: emissions, op counts).  ``mode`` picks what a qualifying node
#: contributes: 0 = the tuple ids of its leaf range, 1 = its leaf
#: positions, 2 = its frequency, 3 = a hit (the walk stops there).
#: ``counts[i]`` receives query ``i``'s emitted length, frequency sum or
#: 0/1 and ``ops`` the total distance computations; the return value is
#: the total emitted, or -1 when ``cap`` would overflow (callers retry
#: with a larger buffer).
_C_SOURCE = r"""
#include <stdint.h>

typedef struct {
    const uint64_t *bits;
    const uint64_t *masks;
    const int64_t *unc;
    const uint8_t *is_leaf;
    const int64_t *child_first;
    const int64_t *child_count;
    const int64_t *leaf_lo;
    const int64_t *leaf_hi;
    const int64_t *id_offsets;
    const int64_t *ids_flat;
    const int64_t *frequency;
    int64_t top_count;
    int64_t leaf_level_start;
    int64_t simple;
    int64_t *run_first;   /* scratch: run starts, capacity num_nodes + 1 */
    int64_t *run_count;   /* scratch: run lengths */
    int64_t *next_first;  /* scratch double-buffer */
    int64_t *next_count;
    const uint64_t *queries;
    int64_t *counts;
    int64_t ops;
} HsKernel;

/* Append qualifying node s's tuple ids (mode 0) or leaf positions
   (mode 1) to out[n..cap); returns the new fill, or -1 on overflow.
   Kept out of line so the walk's inner loop stays small. */
static __attribute__((noinline)) int64_t
hs_emit(const HsKernel *k, int64_t mode, int64_t s, int64_t *out,
        int64_t cap, int64_t n)
{
    int64_t lo, hi, p;
    if (mode == 0) {
        lo = k->id_offsets[k->leaf_lo[s]];
        hi = k->id_offsets[k->leaf_hi[s]];
        if (n + (hi - lo) > cap) return -1;
        for (p = lo; p < hi; p++) out[n++] = k->ids_flat[p];
    } else {
        lo = k->leaf_lo[s];
        hi = k->leaf_hi[s];
        if (n + (hi - lo) > cap) return -1;
        for (p = lo; p < hi; p++) out[n++] = p;
    }
    return n;
}

/* A qualifying node s: end the walk with a hit (mode 3), add its
   frequency (mode 2), or emit its leaf range (modes 0 and 1). */
#define HS_TAKE(s)                                                      \
    do {                                                                \
        if (mode == 3) return 1;                                        \
        if (mode == 2) n += k->frequency[s];                            \
        else if ((n = hs_emit(k, mode, s, out, cap, n)) < 0) return -1; \
    } while (0)

/* One query's walk; returns its result (or -1 on overflow) and adds
   its distance computations to *ops.  The frontier is kept as
   contiguous slot runs: every expansion appends one (child_first,
   child_count) run, so each level walks sequential memory instead of
   a gathered index list.  Empty runs are skipped so run_first[0] is
   always the frontier's first live slot (the terminal all-leaf level
   test depends on that). */
static inline __attribute__((always_inline)) int64_t
hs_walk(const HsKernel *k, uint64_t query, int64_t threshold,
        const int64_t mode, int64_t *out, int64_t cap, int64_t *ops_io)
{
    int64_t *rf = k->run_first, *rc = k->run_count;
    int64_t *nf = k->next_first, *nc = k->next_count, *t;
    int64_t nruns = 0, n = 0, ops = 0, r, s, a, b, d, nnext;
    int take, simple = (int)k->simple;
    if (k->top_count > 0) { rf[0] = 0; rc[0] = k->top_count; nruns = 1; }
    while (nruns > 0) {
        if (rf[0] >= k->leaf_level_start) {
            /* Terminal all-leaf level: exact distances, nothing to
               expand. */
            for (r = 0; r < nruns; r++) {
                a = rf[r]; b = a + rc[r]; ops += rc[r];
                for (s = a; s < b; s++)
                    if (__builtin_popcountll(k->bits[s] ^ query)
                            <= threshold)
                        HS_TAKE(s);
            }
            break;
        }
        nnext = 0;
        for (r = 0; r < nruns; r++) {
            a = rf[r]; b = a + rc[r]; ops += rc[r];
            for (s = a; s < b; s++) {
                d = __builtin_popcountll(
                    (k->bits[s] ^ query) & k->masks[s]);
                take = (d + k->unc[s] <= threshold);
                if (!simple && !take)
                    take = (d <= threshold) && k->is_leaf[s];
                if (take) {
                    HS_TAKE(s);
                } else if (d <= threshold && k->child_count[s] > 0) {
                    nf[nnext] = k->child_first[s];
                    nc[nnext++] = k->child_count[s];
                }
            }
        }
        t = rf; rf = nf; nf = t;
        t = rc; rc = nc; nc = t;
        nruns = nnext;
    }
    *ops_io += ops;
    return n;
}

/* The walk of one mode over the query batch. */
#define HS_SWEEP(m)                                                     \
    for (i = 0; i < nq; i++) {                                          \
        n = hs_walk(k, k->queries[i], threshold, m, out + total,        \
                    cap - total, &ops);                                 \
        if (n < 0) return -1;                                           \
        k->counts[i] = n;                                               \
        if (m < 2) total += n;                                          \
    }

int64_t hs_sweep64(HsKernel *k, int64_t nq, int64_t threshold,
                   int64_t mode, int64_t *out, int64_t cap)
{
    int64_t total = 0, ops = 0, i, n;
    /* One loop per mode, so each walk compiles with its mode fixed. */
    switch (mode) {
    case 0: HS_SWEEP(0) break;
    case 1: HS_SWEEP(1) break;
    case 2: HS_SWEEP(2) break;
    default: HS_SWEEP(3) break;
    }
    k->ops = ops;
    return total;
}
"""


class _HsKernelStruct(ctypes.Structure):
    """ctypes mirror of the C ``HsKernel`` struct (field order matters)."""

    _fields_ = [
        ("bits", c_void_p),
        ("masks", c_void_p),
        ("unc", c_void_p),
        ("is_leaf", c_void_p),
        ("child_first", c_void_p),
        ("child_count", c_void_p),
        ("leaf_lo", c_void_p),
        ("leaf_hi", c_void_p),
        ("id_offsets", c_void_p),
        ("ids_flat", c_void_p),
        ("frequency", c_void_p),
        ("top_count", c_int64),
        ("leaf_level_start", c_int64),
        ("simple", c_int64),
        ("run_first", c_void_p),
        ("run_count", c_void_p),
        ("next_first", c_void_p),
        ("next_count", c_void_p),
        ("queries", c_void_p),
        ("counts", c_void_p),
        ("ops", c_int64),
    ]


def _cache_dirs() -> list[Path]:
    dirs = []
    env = os.environ.get("REPRO_NATIVE_CACHE")
    if env:
        dirs.append(Path(env))
    dirs.append(Path.home() / ".cache" / "repro-native")
    uid = os.getuid() if hasattr(os, "getuid") else 0
    dirs.append(Path(tempfile.gettempdir()) / f"repro-native-{uid}")
    return dirs


def _compile_library() -> Path:
    """Compile :data:`_C_SOURCE` to a shared library, once per digest."""
    compiler = next(
        (c for c in ("cc", "gcc", "clang") if shutil.which(c)), None
    )
    if compiler is None:
        raise RuntimeError("no C compiler on PATH")
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    last_error: Exception | None = None
    for cache_dir in _cache_dirs():
        so_path = cache_dir / f"hs_kernel_{digest}.so"
        if so_path.exists():
            return so_path
        try:
            cache_dir.mkdir(parents=True, exist_ok=True)
            c_path = cache_dir / f"hs_kernel_{digest}.c"
            c_path.write_text(_C_SOURCE)
            tmp = cache_dir / f".hs_kernel_{digest}.{os.getpid()}.so"
            base = [compiler, "-O3", "-funroll-loops", "-shared", "-fPIC"]
            for extra in (["-march=native"], []):
                proc = subprocess.run(
                    [*base, *extra, "-o", str(tmp), str(c_path)],
                    capture_output=True,
                    timeout=120,
                )
                if proc.returncode == 0:
                    break
            else:
                raise RuntimeError(
                    f"{compiler} failed: {proc.stderr.decode()[:500]}"
                )
            os.replace(tmp, so_path)  # atomic: concurrent builds race safely
            return so_path
        except Exception as exc:  # unwritable dir, compiler failure, ...
            last_error = exc
    raise RuntimeError(f"could not build native kernel: {last_error}")


def _load_cc():
    lib = ctypes.CDLL(str(_compile_library()))
    # No argtypes: every call passes ready ``c_void_p``/``c_int64``
    # objects, so nothing is converted or truncated, and the call skips
    # ctypes' per-argument conversion (about 0.4 us, near a tenth of a
    # single-query ``count_within``).
    lib.hs_sweep64.restype = c_int64
    _smoke_cc(lib)
    return lib


def _smoke_cc(lib) -> None:
    """Run a one-leaf kernel (code 0b0, id 7) through the library."""
    arrays = {
        "bits": np.zeros(1, dtype=np.uint64),
        "masks": np.full(1, np.uint64(0xFFFFFFFFFFFFFFFF)),
        "unc": np.zeros(1, dtype=np.int64),
        "is_leaf": np.ones(1, dtype=np.uint8),
        "child_first": np.zeros(1, dtype=np.int64),
        "child_count": np.zeros(1, dtype=np.int64),
        "leaf_lo": np.zeros(1, dtype=np.int64),
        "leaf_hi": np.ones(1, dtype=np.int64),
        "id_offsets": np.array([0, 1], dtype=np.int64),
        "ids_flat": np.array([7], dtype=np.int64),
        "frequency": np.ones(1, dtype=np.int64),
    }
    arrays.update({name: np.zeros(2, dtype=np.int64) for name in _RUNS})
    arrays["queries"] = np.zeros(1, dtype=np.uint64)
    arrays["counts"] = np.zeros(1, dtype=np.int64)
    struct = _bind(arrays, top_count=1, leaf_level_start=0, simple=1)
    out = np.zeros(4, dtype=np.int64)
    written = lib.hs_sweep64(
        c_void_p(ctypes.addressof(struct)), _INT_ARGS[1], _INT_ARGS[0],
        _INT_ARGS[0], c_void_p(out.ctypes.data), c_int64(out.size),
    )
    if (
        written != 1 or out[0] != 7 or arrays["counts"][0] != 1
        or struct.ops != 1
    ):
        raise RuntimeError("cc kernel smoke check failed")


#: The struct's scratch run buffers.
_RUNS = ("run_first", "run_count", "next_first", "next_count")


def _bind(arrays: dict, **scalars) -> _HsKernelStruct:
    """An ``HsKernel`` struct pointing at every array in ``arrays``."""
    return _HsKernelStruct(
        **{name: c_void_p(arr.ctypes.data) for name, arr in arrays.items()},
        **scalars,
    )


# -- per-kernel execution state ---------------------------------------------


class NativeState:
    """One flat kernel's tree arrays bound to the compiled C sweep.

    Keeps its own references to every bound array so the memory can
    never be collected while a raw pointer is outstanding.  ``lock``
    serializes access to the scratch run buffers and the preallocated
    query, count and output buffers — the compiled call releases the
    GIL while sweeping.
    """

    backend = "cc"

    def __init__(self, lib, flat: "FlatHAIndex") -> None:
        self.lock = threading.Lock()
        self._sweep64 = lib.hs_sweep64
        self.arrays = {
            name: np.ascontiguousarray(array)
            for name, array in (
                ("bits", flat._bits1),
                ("masks", flat._masks1),
                ("unc", flat._uncovered),
                ("is_leaf", flat._is_leaf.view(np.uint8)),
                ("child_first", flat._child_first),
                ("child_count", flat._child_count),
                ("leaf_lo", flat._leaf_lo),
                ("leaf_hi", flat._leaf_hi),
                ("id_offsets", flat._id_offsets),
                ("ids_flat", flat._ids_flat),
                ("frequency", flat._frequency),
            )
        }
        self.scratch = {
            name: np.empty(flat.num_nodes + 1, dtype=np.int64)
            for name in _RUNS
        }
        # Taken nodes have disjoint leaf ranges (a covered node is
        # never expanded), so one query emits at most every id / leaf
        # position once: ``out_cap`` per query never overflows.
        self.out_cap = max(
            int(flat._ids_flat.size), int(flat._id_offsets.size), 256
        )
        self.out = np.empty(self.out_cap, dtype=np.int64)
        self._out = c_void_p(self.out.ctypes.data)
        self._cap = c_int64(self.out_cap)
        self.queries = np.empty(_BATCH_CAP, dtype=np.uint64)
        self.counts = np.empty(_BATCH_CAP, dtype=np.int64)
        self._struct = _bind(
            {**self.arrays, **self.scratch,
             "queries": self.queries, "counts": self.counts},
            top_count=int(flat._top_slots.size),
            leaf_level_start=int(flat._leaf_level_start),
            simple=int(flat._cover_is_collect),
        )
        self._kernel = c_void_p(ctypes.addressof(self._struct))

    def sweep(self, queries: list[int], threshold: int, mode: int):
        """Sweep a query batch; returns (values, per-query counts, ops).

        The contract of :meth:`FlatHAIndex._sweep_batch`.  Results are
        copied out of the shared buffers before the lock is released.
        An answer too big for the output buffer is redone into
        call-local buffers of doubling size, dropped with the call.
        """
        nq = len(queries)
        self.lock.acquire()  # cheaper than ``with`` on this hot path
        try:
            if nq == 1:
                self.queries[0] = queries[0]
            else:
                if nq > self.queries.size:
                    self._size_batch(nq)
                self.queries[:nq] = queries
            kernel, t_arg, m_arg = self._kernel, _INT_ARGS[threshold], _INT_ARGS[mode]
            n_arg = _INT_ARGS[nq] if nq < len(_INT_ARGS) else c_int64(nq)
            out, cap = self.out, self.out_cap
            total = self._sweep64(kernel, n_arg, t_arg, m_arg, self._out, self._cap)
            while total < 0:
                if cap >= self.out_cap * nq:  # pragma: no cover - provable
                    raise IndexStateError("native sweep output overflow")
                cap = min(cap * 2, self.out_cap * nq)
                out = np.empty(cap, dtype=np.int64)
                total = self._sweep64(
                    kernel, n_arg, t_arg, m_arg,
                    c_void_p(out.ctypes.data), c_int64(cap),
                )
            return (
                out[:total].copy() if total else _NO_VALUES,
                self.counts[:nq].tolist(),
                self._struct.ops,
            )
        finally:
            self.lock.release()

    def _size_batch(self, nq: int) -> None:
        """Grow the query and count buffers to ``nq`` queries."""
        self.queries = np.empty(nq, dtype=np.uint64)
        self.counts = np.empty(nq, dtype=np.int64)
        self._struct.queries = self.queries.ctypes.data
        self._struct.counts = self.counts.ctypes.data
