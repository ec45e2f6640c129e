"""Exactness check of every served read, and the scan yardstick.

The oracle is the paper's own baseline, ``NestedLoopsIndex`` (one
vectorized XOR + popcount pass over the corpus per query).  A read is
checked against the state of the index at the epoch its
``ServedResult`` reports: the corpus plus the first ``epoch`` applied
writes of the run's write log (every write bumps the epoch by one, and
only the sender thread writes, so the log order is the epoch order).

* ``select`` compares sorted id lists (multisets);
* ``probe`` compares the existence bit;
* ``knn`` compares ``(id, distance)`` lists, sorted by distance then id:
  ``knn_select`` over the scan index (exact: each round scans the whole
  corpus) merged with the tuples the log has inserted and not deleted
  by then.  Writes never delete a corpus tuple, so the corpus part of
  the answer is always among the corpus's own ``k`` nearest.

The time the oracle spends in ``NestedLoopsIndex`` is the workload's
``scan.ms_per_query``: the linear-scan cost of its own read stream.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from repro.baselines.nested_loops import NestedLoopsIndex
from repro.core.bitvector import CodeSet
from repro.core.knn import knn_select


class Oracle:
    def __init__(self, codes: CodeSet, writes: list[tuple[str, int, int]]):
        self._scan = NestedLoopsIndex.build(codes)
        self._w_codes = np.array([c for _, c, _ in writes], dtype=np.uint64)
        self._writes = writes
        # Each inserted tuple's life in epochs: live at epoch e iff
        # born < e <= died (write i is the one that makes epoch i + 1).
        born, died = {}, {}
        for position, (kind, code, tuple_id) in enumerate(writes):
            if kind == "insert":
                born[tuple_id] = (position, code)
            else:
                died[tuple_id] = position
        self._t_ids = np.array(list(born), dtype=np.int64)
        self._t_codes = np.array([c for _, c in born.values()], dtype=np.uint64)
        self._t_born = np.array([b for b, _ in born.values()], dtype=np.int64)
        self._t_died = np.array(
            [died.get(t, len(writes)) for t in born], dtype=np.int64
        )
        self._expected: dict[tuple, object] = {}
        self.scans = 0
        self.scan_s = 0.0

    def _scanned(self, call, *args):
        started = time.perf_counter()
        value = call(*args)
        self.scan_s += time.perf_counter() - started
        self.scans += 1
        return value

    def _writes_within(self, query: int, threshold: int, epoch: int):
        """Applied writes up to ``epoch`` whose code is within range."""
        if epoch == 0:
            return []
        head = self._w_codes[:epoch]
        near = np.bitwise_count(head ^ np.uint64(query)) <= threshold
        return [self._writes[i] for i in np.flatnonzero(near)]

    def _select(self, query: int, threshold: int, epoch: int) -> list[int]:
        ids = Counter(self._scanned(self._scan.search, query, threshold))
        for kind, _, tuple_id in self._writes_within(query, threshold, epoch):
            if kind == "insert":
                ids[tuple_id] += 1
            else:
                ids[tuple_id] -= 1
        return sorted(ids.elements())

    def expected(self, kind: str, query: int, param: int, epoch: int):
        key = (kind, query, param, epoch)
        if key in self._expected:
            return self._expected[key]
        if kind == "select":
            value = self._select(query, param, epoch)
        elif kind == "probe":
            value = bool(self.expected("select", query, param, epoch))
        elif kind == "knn":
            pairs = dict(self._scanned(knn_select, query, self._scan, param))
            live = (self._t_born < epoch) & (self._t_died >= epoch)
            distances = np.bitwise_count(
                self._t_codes[live] ^ np.uint64(query)
            )
            pairs.update(
                zip(self._t_ids[live].tolist(), distances.tolist())
            )
            ranked = sorted(pairs.items(), key=lambda pair: (pair[1], pair[0]))
            value = ranked[:param]
        else:
            raise ValueError(f"unknown read kind {kind!r}")
        self._expected[key] = value
        return value

    def mismatches(self, reads) -> int:
        """How many ``(op, epoch, value)`` answers are wrong."""
        wrong = 0
        for (kind, query, param), epoch, got in reads:
            want = self.expected(kind, query, param, epoch)
            if kind == "select":
                got = sorted(got)
            elif kind == "knn":
                got = [tuple(pair) for pair in got]
            if got != want:
                wrong += 1
        return wrong

    @property
    def ms_per_query(self) -> float:
        return self.scan_s * 1000.0 / self.scans if self.scans else 0.0
