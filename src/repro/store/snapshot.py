"""Versioned, checksummed, memory-mappable HA-Index snapshots.

Layout (little-endian)::

    magic(8) | version(u32) | meta_len(u32) | meta JSON | pad to 64
    | array blobs (each 64-byte aligned, raw C-order bytes)
    | crc32(u32) over everything before it

The JSON meta block carries the index configuration, the WAL sequence
number the snapshot is consistent with (``last_seq``), and an array
table (name, dtype, shape, offset) for the
:attr:`~repro.core.flat_ha.FlatHAIndex.STATE_ARRAYS` blobs.  Reading
maps the file with :class:`numpy.memmap` and takes zero-copy views
into it, so a warm start touches pages lazily instead of re-deriving
the arrays from a full H-Build.

Loading offers two levels: :func:`load_flat` reconstructs just the
immutable query kernel, and :func:`decode_dynamic` rebuilds the full
mutable :class:`~repro.core.dynamic_ha.DynamicHAIndex` (node graph and
insert buffer) with the flat kernel pre-attached to its compile cache.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from repro.core.dynamic_ha import DynamicHAIndex
from repro.core.errors import IndexStateError, StoreError
from repro.core.flat_ha import FlatHAIndex
from repro.store.faults import KillPointInjector
from repro.store.format import atomic_write, crc32

SNAP_MAGIC = b"HASNAP\x00\x01"
SNAP_VERSION = 1
_HEADER = struct.Struct("<8sII")
_ALIGN = 64


def _pad(offset: int) -> int:
    return -offset % _ALIGN


class SnapshotView:
    """A validated, memory-mapped snapshot file.

    Attributes:
        meta: the parsed JSON meta block.
        arrays: name -> zero-copy ndarray view into the mapped file.
        last_seq: WAL sequence number folded into this snapshot.
    """

    def __init__(self, path: Path, meta: dict, arrays: dict) -> None:
        self.path = path
        self.meta = meta
        self.arrays = arrays

    @property
    def last_seq(self) -> int:
        return int(self.meta["last_seq"])

    @property
    def code_length(self) -> int:
        return int(self.meta["code_length"])


def encode_snapshot(index: DynamicHAIndex, *, last_seq: int) -> bytes:
    """Serialize ``index`` (flushed through its compiled kernel)."""
    if index._frozen:
        raise IndexStateError(
            "cannot snapshot a frozen (merged) HA-Index"
        )
    state = index.compile().to_state()
    meta = {
        "format": SNAP_VERSION,
        "code_length": state["code_length"],
        "words": state["words"],
        "size": state["size"],
        "keep_ids": state["keep_ids"],
        "gray_order": index._gray_order,
        "window": index.window,
        "max_depth": index.max_depth,
        "rebuild_buffer": index._rebuild_buffer,
        "last_seq": int(last_seq),
        "level_offsets": state["level_offsets"],
        "arrays": {},
    }
    blobs: list[tuple[str, bytes]] = []
    for name in FlatHAIndex.STATE_ARRAYS:
        array = np.ascontiguousarray(state[name])
        blobs.append((name, array.tobytes()))
        meta["arrays"][name] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
        }
    # Absolute blob offsets depend on the meta block's own length, so
    # iterate to the (quickly reached) fixed point.
    meta_bytes = b""
    for _ in range(8):
        offset = _HEADER.size + len(meta_bytes)
        offset += _pad(offset)
        for name, blob in blobs:
            meta["arrays"][name]["offset"] = offset
            offset += len(blob) + _pad(len(blob))
        candidate = json.dumps(meta, sort_keys=True).encode()
        if len(candidate) == len(meta_bytes):
            break
        meta_bytes = candidate
    else:  # pragma: no cover - offsets converge within digits of growth
        raise StoreError("snapshot meta offsets failed to converge")
    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    parts = [
        _HEADER.pack(SNAP_MAGIC, SNAP_VERSION, len(meta_bytes)),
        meta_bytes,
        b"\x00" * _pad(_HEADER.size + len(meta_bytes)),
    ]
    for _, blob in blobs:
        parts.append(blob)
        parts.append(b"\x00" * _pad(len(blob)))
    payload = b"".join(parts)
    return payload + struct.pack("<I", crc32(payload))


def write_snapshot(
    path: Path,
    index: DynamicHAIndex,
    *,
    last_seq: int,
    fsync: bool = True,
    injector: KillPointInjector | None = None,
) -> None:
    """Atomically persist ``index`` to ``path``."""
    atomic_write(
        path,
        encode_snapshot(index, last_seq=last_seq),
        fsync=fsync,
        injector=injector,
        site="snapshot",
    )


def read_snapshot(path: Path) -> SnapshotView:
    """Map and validate one snapshot file.

    Raises :class:`~repro.core.errors.StoreError` on any corruption
    (bad magic/version, malformed meta, checksum mismatch).
    """
    try:
        buf = np.memmap(path, dtype=np.uint8, mode="r")
    except (OSError, ValueError) as error:
        raise StoreError(f"cannot map snapshot {path}: {error}") from error
    if buf.size < _HEADER.size + 4:
        raise StoreError(f"snapshot {path} is truncated")
    magic, version, meta_len = _HEADER.unpack_from(buf[: _HEADER.size])
    if magic != SNAP_MAGIC:
        raise StoreError(f"{path} is not an HA-Index snapshot (bad magic)")
    if version != SNAP_VERSION:
        raise StoreError(
            f"unsupported snapshot version {version} in {path}"
        )
    (stored_crc,) = struct.unpack("<I", buf[-4:].tobytes())
    if stored_crc != crc32(memoryview(buf)[:-4]):
        raise StoreError(f"snapshot {path} failed its checksum")
    if _HEADER.size + meta_len + 4 > buf.size:
        raise StoreError(f"snapshot {path} meta block is truncated")
    try:
        meta = json.loads(
            buf[_HEADER.size : _HEADER.size + meta_len].tobytes()
        )
        table = meta["arrays"]
        arrays = {}
        for name in FlatHAIndex.STATE_ARRAYS:
            entry = table[name]
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(v) for v in entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            start = int(entry["offset"])
            stop = start + count * dtype.itemsize
            if stop > buf.size - 4:
                raise StoreError(
                    f"snapshot {path} array {name} overruns the file"
                )
            arrays[name] = (
                buf[start:stop].view(dtype).reshape(shape)
            )
    except StoreError:
        raise
    except Exception as error:  # noqa: BLE001 - malformed meta
        raise StoreError(
            f"snapshot {path} has a malformed meta block: {error}"
        ) from error
    return SnapshotView(path, meta, arrays)


def _flat_state(view: SnapshotView) -> dict:
    state = {
        "code_length": view.meta["code_length"],
        "keep_ids": view.meta["keep_ids"],
        "size": view.meta["size"],
        "words": view.meta["words"],
        "level_offsets": view.meta["level_offsets"],
    }
    state.update(view.arrays)
    return state


def load_flat(view: SnapshotView) -> FlatHAIndex:
    """The immutable query kernel, backed by the mapped arrays."""
    return FlatHAIndex.from_state(_flat_state(view))


def decode_dynamic(view: SnapshotView) -> DynamicHAIndex:
    """Rebuild the mutable index; its compile cache holds the kernel.

    The node graph is reconstructed from the flat arrays through the
    same wire format ``__setstate__`` consumes, then the flat kernel
    (zero-copy over the mapped file) is attached to the compile cache
    so the first batched query after a warm start pays no recompile.
    """
    flat = load_flat(view)
    index = DynamicHAIndex.__new__(DynamicHAIndex)
    index.__setstate__(_wire_state(view, flat))
    index._compiled = flat
    index._compiled_mutations = 0
    index._compiled_tree_version = 0
    return index


def _wire_state(view: SnapshotView, flat: FlatHAIndex) -> dict:
    """The ``__setstate__`` wire dict encoded by a snapshot's arrays."""
    meta = view.meta
    length = int(meta["code_length"])
    keep_ids = bool(meta["keep_ids"])
    arrays = view.arrays
    bits_list = _combine(arrays["bits"])
    masks_list = _combine(arrays["masks"])
    child_first = arrays["child_first"].tolist()
    child_count = arrays["child_count"].tolist()
    leaf_lo = arrays["leaf_lo"].tolist()
    id_offsets = arrays["id_offsets"].tolist()
    ids_flat = arrays["ids_flat"].tolist()
    frequency = arrays["frequency"].tolist()
    nodes = []
    for slot in range(len(bits_list)):
        count = child_count[slot]
        if count:
            ids: list[int] = []
            children = list(
                range(child_first[slot], child_first[slot] + count)
            )
        else:
            children = []
            if keep_ids:
                position = leaf_lo[slot]
                ids = ids_flat[
                    id_offsets[position] : id_offsets[position + 1]
                ]
            else:
                ids = []
        nodes.append(
            (
                bits_list[slot],
                masks_list[slot],
                children,
                ids,
                frequency[slot],
            )
        )
    offsets = meta["level_offsets"]
    top_count = offsets[1] if len(offsets) > 1 else 0
    buffer = list(
        zip(flat._buf_codes, arrays["buf_ids"].tolist())
    )
    return {
        "code_length": length,
        "window": int(meta["window"]),
        "max_depth": int(meta["max_depth"]),
        "rebuild_buffer": int(meta["rebuild_buffer"]),
        "keep_ids": keep_ids,
        "gray_order": bool(meta["gray_order"]),
        "frozen": False,
        "size": int(meta["size"]),
        "buffer": buffer,
        "top": list(range(top_count)),
        "nodes": nodes,
    }


def _rebuild_plain(state: dict) -> DynamicHAIndex:
    """Unpickle target for copies of a :class:`LazySnapshotIndex`."""
    index = DynamicHAIndex.__new__(DynamicHAIndex)
    index.__setstate__(state)
    return index


class LazySnapshotIndex(DynamicHAIndex):
    """A recovered index that defers node-graph materialization.

    :func:`decode_dynamic` spends nearly all of its time rebuilding the
    Python pattern tree (hundreds of thousands of node objects at paper
    scale) even though a warm-started service answers queries through
    the compiled flat kernel, which loads zero-copy from the mapped
    snapshot in milliseconds.  This subclass therefore starts with only
    the kernel attached and materializes the node graph on first need:
    any mutation, and any API that walks nodes (``check_invariants``,
    ``trace_search``, ``merge``, plain ``search`` — whose node-walk
    result *ordering* is observable API — ...), triggers the decode
    transparently through attribute access on ``_top`` /
    ``_leaf_by_code`` / ``_buffer``.

    Order-insensitive read paths (``count_within``,
    ``contains_within``, ``search_codes``, ``search_with_distances``,
    the batched queries via :meth:`compile`, and the id lookups) are
    answered by the kernel without materializing, so a clean-shutdown
    warm start serves its first queries without ever paying the
    node-graph rebuild.
    """

    _NODE_ATTRS = frozenset({"_top", "_leaf_by_code", "_buffer"})

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError(
            "LazySnapshotIndex is created by lazy_decode(view)"
        )

    # -- lazy plumbing -----------------------------------------------------

    def __getattr__(self, name: str):
        if name in LazySnapshotIndex._NODE_ATTRS and not self.__dict__.get(
            "_lazy_ready", True
        ):
            self._materialize()
            return self.__dict__[name]
        raise AttributeError(name)

    @property
    def materialized(self) -> bool:
        """Has the Python node graph been decoded yet?"""
        return self._lazy_ready

    def _materialize(self) -> None:
        if self._lazy_ready:
            return
        flat = self._lazy_flat
        # The first mutation materializes mid-call, after it has been
        # counted; ``__setstate__`` would reset the count, leaving the
        # pre-mutation kernel cached as current.
        mutations = self._mutations
        DynamicHAIndex.__setstate__(
            self, _wire_state(self._lazy_view, flat)
        )
        self._mutations = mutations
        self._compiled = flat
        self._compiled_mutations = 0
        self._compiled_tree_version = 0
        self._lazy_ready = True

    def __reduce__(self):
        # Copies (the service's copy-on-swap refresh, strip_ids) come
        # back as plain DynamicHAIndex instances: the mapped snapshot
        # file may be gone by the time the copy is unpickled.
        self._materialize()
        return (_rebuild_plain, (DynamicHAIndex.__getstate__(self),))

    # -- kernel-served reads ------------------------------------------------

    def count_within(self, query: int, threshold: int) -> int:
        if self._lazy_ready:
            return DynamicHAIndex.count_within(self, query, threshold)
        return self._lazy_flat.count_within(query, threshold)

    def contains_within(self, query: int, threshold: int) -> bool:
        if self._lazy_ready:
            return DynamicHAIndex.contains_within(
                self, query, threshold
            )
        return self._lazy_flat.contains_within(query, threshold)

    def search_codes(self, query: int, threshold: int) -> list[int]:
        if self._lazy_ready:
            return DynamicHAIndex.search_codes(self, query, threshold)
        codes = self._lazy_flat.search_codes(query, threshold)
        self.last_search_ops = self._lazy_flat.last_search_ops
        return codes

    def search_with_distances(
        self, query: int, threshold: int
    ) -> list[tuple[int, int]]:
        if self._lazy_ready:
            return DynamicHAIndex.search_with_distances(
                self, query, threshold
            )
        pairs = self._lazy_flat.search_with_distances(query, threshold)
        self.last_search_ops = self._lazy_flat.last_search_ops
        return pairs

    def _lazy_leaf_positions(self) -> dict[int, int]:
        positions = self.__dict__.get("_lazy_leaf_pos")
        if positions is None:
            positions = {
                code: position
                for position, code in enumerate(
                    self._lazy_flat._leaf_codes
                )
            }
            self._lazy_leaf_pos = positions
        return positions

    def ids_for_code(self, code: int) -> list[int]:
        if self._lazy_ready:
            return DynamicHAIndex.ids_for_code(self, code)
        flat = self._lazy_flat
        position = self._lazy_leaf_positions().get(code)
        ids: list[int] = []
        if position is not None:
            lo = int(flat._id_offsets[position])
            hi = int(flat._id_offsets[position + 1])
            ids = flat._ids_flat[lo:hi].tolist()
        ids.extend(
            tuple_id
            for buffered, tuple_id in zip(
                flat._buf_codes, flat._buf_ids.tolist()
            )
            if buffered == code
        )
        return ids

    def code_id_pairs(self):
        if self._lazy_ready:
            yield from DynamicHAIndex.code_id_pairs(self)
            return
        flat = self._lazy_flat
        offsets = flat._id_offsets.tolist()
        ids_flat = flat._ids_flat.tolist()
        for position, code in enumerate(flat._leaf_codes):
            for tuple_id in ids_flat[
                offsets[position] : offsets[position + 1]
            ]:
                yield code, tuple_id
        yield from zip(flat._buf_codes, flat._buf_ids.tolist())

    @property
    def num_distinct_codes(self) -> int:
        if self._lazy_ready:
            return DynamicHAIndex.num_distinct_codes.fget(self)
        flat = self._lazy_flat
        return len(set(flat._leaf_codes)) + len(set(flat._buf_codes))


def lazy_decode(view: SnapshotView) -> LazySnapshotIndex:
    """A :class:`LazySnapshotIndex` over ``view``'s mapped kernel."""
    flat = load_flat(view)
    meta = view.meta
    index = LazySnapshotIndex.__new__(LazySnapshotIndex)
    index._code_length = int(meta["code_length"])
    index._size = int(meta["size"])
    index._mutations = 0
    index.last_search_ops = 0
    index._window = int(meta["window"])
    index._max_depth = int(meta["max_depth"])
    index._rebuild_buffer = int(meta["rebuild_buffer"])
    index._keep_ids = bool(meta["keep_ids"])
    index._gray_order = bool(meta["gray_order"])
    index._frozen = False
    index._tree_version = 0
    index._compiled = flat
    index._compiled_mutations = 0
    index._compiled_tree_version = 0
    index._lazy_view = view
    index._lazy_flat = flat
    index._lazy_ready = False
    return index


def _combine(matrix: np.ndarray) -> list[int]:
    values = [0] * matrix.shape[0]
    for word in range(matrix.shape[1]):
        shift = word * 64
        values = [
            value | (chunk << shift)
            for value, chunk in zip(values, matrix[:, word].tolist())
        ]
    return values


__all__ = [
    "SNAP_MAGIC",
    "SNAP_VERSION",
    "LazySnapshotIndex",
    "SnapshotView",
    "encode_snapshot",
    "write_snapshot",
    "read_snapshot",
    "load_flat",
    "decode_dynamic",
    "lazy_decode",
]
