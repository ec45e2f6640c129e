"""The compiled backend of the H-Search frontier sweep.

:class:`~repro.core.native_ha.NativeHAIndex` answers queries through a
compiled sweep when one is available, and through the numpy flat kernel
otherwise.  This module owns the two tiers and the per-kernel execution
state:

* ``cc`` — the sweep as embedded C, compiled once per source digest
  with the system compiler and loaded via ``ctypes``.
* ``numpy`` — no native state at all; callers keep using the
  vectorized :class:`~repro.core.flat_ha.FlatHAIndex` sweeps.

Selection is ``cc`` when the library builds and ``numpy`` otherwise,
overridable with the ``REPRO_NATIVE`` environment variable
(``auto``/``cc``/``numpy``; unknown values behave as ``auto``) or, in
tests, the :func:`force_backend` context manager.  The C sweep replays
the *exact* run-based traversal of the numpy sweep — same visit order,
same emissions, same distance-computation count — so results and
``last_search_ops`` stay byte-identical across tiers; the differential
suite enforces that.

The frontier is kept as contiguous ``(first child, count)`` slot runs
rather than materialized node lists: children of one node occupy one
contiguous slot range in the next level, so each level walks sequential
memory.  Scratch run buffers and the bound kernel struct live in a
per-kernel :class:`NativeState` guarded by a lock — the compiled calls
drop the GIL, and one kernel may be probed from several threads by the
parallel-join thread fallback.
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
from ctypes import POINTER, byref, c_int64, c_uint64, c_void_p
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
#: arrays plus scratch run buffers; every entry point replays the numpy
#: sweep exactly (visit order, emissions, op counts).  ``mode`` selects
#: the emission: 0 = tuple ids of taken nodes' leaf ranges, 1 = leaf
#: positions of taken nodes.  Entry points return the emitted length,
#: or -1 when ``cap`` would overflow (callers retry with a larger
#: buffer).
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
} HsKernel;

static inline int64_t hs_emit(const HsKernel *k, int64_t mode, int64_t s,
                              int64_t *out, int64_t cap, int64_t written)
{
    int64_t lo, hi, p;
    if (mode == 0) {
        lo = k->id_offsets[k->leaf_lo[s]];
        hi = k->id_offsets[k->leaf_hi[s]];
        if (written + (hi - lo) > cap) return -1;
        for (p = lo; p < hi; p++) out[written++] = k->ids_flat[p];
    } else {
        lo = k->leaf_lo[s];
        hi = k->leaf_hi[s];
        if (written + (hi - lo) > cap) return -1;
        for (p = lo; p < hi; p++) out[written++] = p;
    }
    return written;
}

/* Frontier kept as contiguous slot runs: every expansion appends one
   (child_first, child_count) run, so each level walks sequential
   memory instead of a gathered index list.  Empty runs are skipped so
   run_first[0] is always the frontier's first live slot (the terminal
   all-leaf level test depends on that). */
int64_t hs_query64(const HsKernel *k, uint64_t query, int64_t threshold,
                   int64_t mode, int64_t *out, int64_t cap,
                   int64_t *ops_out)
{
    int64_t *rf = k->run_first, *rc = k->run_count;
    int64_t *nf = k->next_first, *nc = k->next_count;
    int64_t nruns = 0, ops = 0, written = 0, r, s, a, b, d, nnext;
    int cover;
    int simple = (int)k->simple;
    if (k->top_count > 0) { rf[0] = 0; rc[0] = k->top_count; nruns = 1; }
    while (nruns > 0) {
        if (rf[0] >= k->leaf_level_start) {
            /* Terminal all-leaf level: exact distances, nothing to
               expand. */
            for (r = 0; r < nruns; r++) {
                a = rf[r]; b = a + rc[r]; ops += rc[r];
                for (s = a; s < b; s++) {
                    if (__builtin_popcountll(k->bits[s] ^ query)
                            <= threshold) {
                        written = hs_emit(k, mode, s, out, cap, written);
                        if (written < 0) return -1;
                    }
                }
            }
            break;
        }
        nnext = 0;
        for (r = 0; r < nruns; r++) {
            a = rf[r]; b = a + rc[r]; ops += rc[r];
            for (s = a; s < b; s++) {
                d = __builtin_popcountll(
                    (k->bits[s] ^ query) & k->masks[s]);
                cover = (d + k->unc[s] <= threshold);
                if (!simple && !cover)
                    cover = (d <= threshold) && k->is_leaf[s];
                if (cover) {
                    written = hs_emit(k, mode, s, out, cap, written);
                    if (written < 0) return -1;
                } else if (d <= threshold && k->child_count[s] > 0) {
                    nf[nnext] = k->child_first[s];
                    nc[nnext++] = k->child_count[s];
                }
            }
        }
        { int64_t *t;
          t = rf; rf = nf; nf = t;
          t = rc; rc = nc; nc = t; }
        nruns = nnext;
    }
    *ops_out = ops;
    return written;
}

int64_t hs_query_batch64(const HsKernel *k, const uint64_t *queries,
                         int64_t nq, int64_t threshold, int64_t mode,
                         int64_t *out, int64_t cap, int64_t *counts,
                         int64_t *ops_out)
{
    int64_t total = 0, ops = 0, i, w, o;
    for (i = 0; i < nq; i++) {
        o = 0;
        w = hs_query64(k, queries[i], threshold, mode,
                       out + total, cap - total, &o);
        if (w < 0) return -1;
        counts[i] = w;
        total += w;
        ops += o;
    }
    *ops_out = ops;
    return total;
}

int64_t hs_count64(const HsKernel *k, uint64_t query, int64_t threshold)
{
    int64_t *rf = k->run_first, *rc = k->run_count;
    int64_t *nf = k->next_first, *nc = k->next_count;
    int64_t nruns = 0, total = 0, r, s, a, b, d, nnext;
    int settle;
    int simple = (int)k->simple;
    if (k->top_count > 0) { rf[0] = 0; rc[0] = k->top_count; nruns = 1; }
    while (nruns > 0) {
        if (rf[0] >= k->leaf_level_start) {
            for (r = 0; r < nruns; r++) {
                a = rf[r]; b = a + rc[r];
                for (s = a; s < b; s++)
                    if (__builtin_popcountll(k->bits[s] ^ query)
                            <= threshold)
                        total += k->frequency[s];
            }
            break;
        }
        nnext = 0;
        for (r = 0; r < nruns; r++) {
            a = rf[r]; b = a + rc[r];
            for (s = a; s < b; s++) {
                d = __builtin_popcountll(
                    (k->bits[s] ^ query) & k->masks[s]);
                settle = (d + k->unc[s] <= threshold);
                if (!simple && !settle)
                    settle = (d <= threshold) && k->is_leaf[s];
                if (settle) {
                    total += k->frequency[s];
                } else if (d <= threshold && k->child_count[s] > 0) {
                    nf[nnext] = k->child_first[s];
                    nc[nnext++] = k->child_count[s];
                }
            }
        }
        { int64_t *t;
          t = rf; rf = nf; nf = t;
          t = rc; rc = nc; nc = t; }
        nruns = nnext;
    }
    return total;
}

int64_t hs_contains64(const HsKernel *k, uint64_t query, int64_t threshold)
{
    int64_t *rf = k->run_first, *rc = k->run_count;
    int64_t *nf = k->next_first, *nc = k->next_count;
    int64_t nruns = 0, r, s, a, b, d, nnext;
    int hit;
    int simple = (int)k->simple;
    if (k->top_count > 0) { rf[0] = 0; rc[0] = k->top_count; nruns = 1; }
    while (nruns > 0) {
        if (rf[0] >= k->leaf_level_start) {
            for (r = 0; r < nruns; r++) {
                a = rf[r]; b = a + rc[r];
                for (s = a; s < b; s++)
                    if (__builtin_popcountll(k->bits[s] ^ query)
                            <= threshold)
                        return 1;
            }
            return 0;
        }
        nnext = 0;
        for (r = 0; r < nruns; r++) {
            a = rf[r]; b = a + rc[r];
            for (s = a; s < b; s++) {
                d = __builtin_popcountll(
                    (k->bits[s] ^ query) & k->masks[s]);
                hit = (d + k->unc[s] <= threshold);
                if (!simple && !hit)
                    hit = (d <= threshold) && k->is_leaf[s];
                if (hit)
                    return 1;
                if (d <= threshold && k->child_count[s] > 0) {
                    nf[nnext] = k->child_first[s];
                    nc[nnext++] = k->child_count[s];
                }
            }
        }
        { int64_t *t;
          t = rf; rf = nf; nf = t;
          t = rc; rc = nc; nc = t; }
        nruns = nnext;
    }
    return 0;
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
    lib.hs_query64.argtypes = [
        POINTER(_HsKernelStruct), c_uint64, c_int64, c_int64,
        c_void_p, c_int64, POINTER(c_int64),
    ]
    lib.hs_query64.restype = c_int64
    lib.hs_query_batch64.argtypes = [
        POINTER(_HsKernelStruct), c_void_p, c_int64, c_int64, c_int64,
        c_void_p, c_int64, c_void_p, POINTER(c_int64),
    ]
    lib.hs_query_batch64.restype = c_int64
    for name in ("hs_count64", "hs_contains64"):
        fn = getattr(lib, name)
        fn.argtypes = [POINTER(_HsKernelStruct), c_uint64, c_int64]
        fn.restype = c_int64
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
    scratch = [np.zeros(2, dtype=np.int64) for _ in range(4)]
    struct = _bind(arrays, scratch, top_count=1, leaf_level_start=0, simple=1)
    out = np.zeros(4, dtype=np.int64)
    ops = c_int64(0)
    written = lib.hs_query64(
        byref(struct), 0, 0, 0, out.ctypes.data, out.size, byref(ops)
    )
    if written != 1 or out[0] != 7 or ops.value != 1:
        raise RuntimeError("cc kernel smoke check failed")


def _bind(arrays: dict, scratch: list, **scalars) -> _HsKernelStruct:
    """An ``HsKernel`` struct pointing at ``arrays`` and ``scratch``."""
    runs = ("run_first", "run_count", "next_first", "next_count")
    return _HsKernelStruct(
        **{name: c_void_p(arr.ctypes.data) for name, arr in arrays.items()},
        **{name: c_void_p(arr.ctypes.data) for name, arr in zip(runs, scratch)},
        **scalars,
    )


# -- per-kernel execution state ---------------------------------------------


class NativeState:
    """One flat kernel's tree arrays bound to the compiled C sweep.

    Keeps its own references to every bound array so the memory can
    never be collected while a raw pointer is outstanding.  ``lock``
    serializes access to the scratch run buffers — the compiled calls
    release the GIL while sweeping.
    """

    backend = "cc"

    def __init__(self, lib, flat: "FlatHAIndex") -> None:
        self.lock = threading.Lock()
        self._lib = lib
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
        self.scratch = [
            np.empty(flat.num_nodes + 1, dtype=np.int64) for _ in range(4)
        ]
        # Taken nodes have disjoint leaf ranges (a covered node is
        # never expanded), so one query emits at most every id / leaf
        # position once: this buffer provably never overflows for
        # single-query calls.
        self.out_cap = max(
            int(flat._ids_flat.size), int(flat._id_offsets.size), 256
        )
        self.out = np.empty(self.out_cap, dtype=np.int64)
        self._struct = _bind(
            self.arrays,
            self.scratch,
            top_count=int(flat._top_slots.size),
            leaf_level_start=int(flat._leaf_level_start),
            simple=int(flat._cover_is_collect),
        )

    def sweep(self, query: int, threshold: int, mode: int):
        """One query; returns (emitted int64 array, ops)."""
        ops = c_int64(0)
        with self.lock:
            written = self._lib.hs_query64(
                byref(self._struct), query, threshold, mode,
                self.out.ctypes.data, self.out_cap, byref(ops),
            )
            if written < 0:  # pragma: no cover - capacity is provable
                raise IndexStateError("native sweep output overflow")
            return self.out[:written].copy(), int(ops.value)

    def sweep_batch(self, queries: np.ndarray, threshold: int, mode: int):
        """A query batch; returns (emitted, per-query counts, ops)."""
        nq = int(queries.size)
        counts = np.empty(nq, dtype=np.int64)
        cap = self.out_cap
        hard_cap = max(self.out_cap * max(nq, 1), cap)
        while True:
            out = np.empty(cap, dtype=np.int64)
            ops = c_int64(0)
            with self.lock:
                total = self._lib.hs_query_batch64(
                    byref(self._struct), queries.ctypes.data, nq,
                    threshold, mode, out.ctypes.data, out.size,
                    counts.ctypes.data, byref(ops),
                )
            if total >= 0:
                return out[:total], counts, int(ops.value)
            if cap >= hard_cap:  # pragma: no cover - capacity is provable
                raise IndexStateError("native sweep output overflow")
            cap = min(cap * 2, hard_cap)

    def count(self, query: int, threshold: int) -> int:
        with self.lock:
            return int(
                self._lib.hs_count64(byref(self._struct), query, threshold)
            )

    def contains(self, query: int, threshold: int) -> bool:
        with self.lock:
            return bool(
                self._lib.hs_contains64(
                    byref(self._struct), query, threshold
                )
            )
