"""Workload definitions and seeded input generation.

Every input a run serves is made here, before set-up, from the
workload's fixed corpus and the run's ``--seed``:

* the corpus: NUS-WIDE-like 32-bit spectral codes from
  ``benchmarks.harness.paper_codes`` (fixed per ``(dataset, n)``; the
  harness always draws the dataset with seed 1).  Spectral hashing at
  n=300k takes ~15 s and ~2.6 GB peak, so the codes are generated once
  in a child process and cached as ``.npy`` under ``perfbench/.cache``;
* the request stream, a function of the seed alone: the open loop sends
  a prefix of it and the drain continues from there.

A stream is a list of ``(kind, code, param)`` ops.  Reads carry their
threshold (``select``/``probe``) or ``k`` (``knn``); writes
(``insert``/``delete``) carry the tuple id.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.bitvector import CodeSet
from repro.data.workloads import cluster_codes, near_miss_queries, zipf_queries

HERE = Path(__file__).resolve().parent
CACHE_DIR = HERE / ".cache"

DATASET = "NUS-WIDE"
#: The dataset seed ``benchmarks.harness.paper_dataset`` always uses.
DATASET_SEED = 1
BITS = 32

READS = ("select", "probe", "knn")
WRITES = ("insert", "delete")


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one served configuration.

    ``mix`` lists ``(kind, share, param)``; the shares of the listed
    kinds sum to 1.  ``service`` is ``memory`` (``HammingQueryService``),
    ``durable`` (the same with ``data_dir=``) or ``sharded``
    (``ShardedQueryService`` over Gray-clustered codes).
    """

    name: str
    n: int
    service: str
    rate: float
    queries: str
    mix: tuple[tuple[str, float, int], ...]
    drain_pool: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hot-30k", 30_000, "memory", 2000.0, "zipf",
            (("select", 0.7, 3), ("probe", 0.3, 3)),
            drain_pool=250_000,
        ),
        Workload(
            "churn-durable", 30_000, "durable", 200.0, "near-miss",
            (
                ("select", 0.7, 3), ("knn", 0.1, 10),
                ("insert", 0.1, 0), ("delete", 0.1, 0),
            ),
            drain_pool=60_000,
        ),
        Workload(
            "sharded-300k", 300_000, "sharded", 250.0, "near-miss",
            (("select", 1.0, 3),),
            drain_pool=40_000,
        ),
    )
}

#: Zipf shape of ``hot-30k``: 2,000 distinct codes, exponent 1.0.
ZIPF_DISTINCT = 2000
ZIPF_EXPONENT = 1.0
#: Bit flips of a near-miss query.
NEAR_MISS_FLIPS = 2
#: Gray clusters the sharded corpus is re-prefixed into.
SHARD_CLUSTERS = 8


def cache_path(n: int) -> Path:
    return CACHE_DIR / f"codes-{DATASET}-n{n}-b{BITS}-s{DATASET_SEED}.npy"


def make_codes(n: int, path: Path) -> None:
    """Generate the corpus and write it atomically to ``path``."""
    from benchmarks.harness import paper_codes

    codes = paper_codes(DATASET, n, BITS)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with open(tmp, "wb") as handle:
        np.save(handle, np.asarray(codes.codes, dtype=np.uint64))
    os.replace(tmp, path)


def load_codes(n: int, root: Path) -> CodeSet:
    """The cached corpus, generated in a child process on first use.

    The child keeps the spectral-hashing peak out of this process, so
    the resident-memory metric sees only what set-up adds.
    """
    path = cache_path(n)
    if not path.exists():
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--make-codes", str(n)],
            cwd=root,
            check=True,
            timeout=900,
        )
    codes = np.load(path)
    return CodeSet([int(c) for c in codes], BITS)


def corpus(workload: Workload, root: Path) -> CodeSet:
    codes = load_codes(workload.n, root)
    if workload.service == "sharded":
        codes = cluster_codes(codes, SHARD_CLUSTERS)
    return codes


def _read_codes(
    workload: Workload, codes: CodeSet, count: int, seed: int
) -> list[int]:
    if workload.queries == "zipf":
        return zipf_queries(
            codes, count, seed=seed,
            exponent=ZIPF_EXPONENT, distinct=ZIPF_DISTINCT,
        )
    return near_miss_queries(codes, count, flips=NEAR_MISS_FLIPS, seed=seed)


class WriteState:
    """The write side of a stream: each insert adds a new tuple id on a
    fresh random code (H-Insert's buffer), and each delete removes the
    tuple the latest insert added, so every delete names a present
    tuple and the insert buffer never reaches its merge size."""

    def __init__(self, codes: CodeSet, seed: int) -> None:
        self.rng = random.Random(seed)
        self.next_id = max(codes.ids) + 1
        self.live: list[tuple[int, int]] = []

    def insert(self) -> tuple[str, int, int]:
        code = self.rng.getrandbits(BITS)
        tuple_id = self.next_id
        self.next_id += 1
        self.live.append((code, tuple_id))
        return ("insert", code, tuple_id)

    def delete(self) -> tuple[str, int, int]:
        code, tuple_id = self.live.pop()
        return ("delete", code, tuple_id)


def make_stream(
    workload: Workload, codes: CodeSet, count: int, seed: int
) -> list[tuple[str, int, int]]:
    """``count`` ops in the workload's mix, a function of ``seed``.

    Writes sit at fixed positions (a ``1/share`` period each, deletes
    half a period after inserts), so every window of the stream holds
    the same number of them; the read kinds are drawn at random.
    """
    rng = random.Random(seed)
    reads = _read_codes(workload, codes, count, seed)
    writes = WriteState(codes, seed + 1)
    shares = {kind: share for kind, share, _ in workload.mix}
    kinds = [kind for kind, _, _ in workload.mix if kind in READS]
    weights = [shares[kind] for kind in kinds]
    params = {kind: param for kind, _, param in workload.mix}
    period = round(1 / shares["insert"]) if "insert" in shares else 0
    stream = []
    for position, query in enumerate(reads):
        kind = rng.choices(kinds, weights)[0]
        if period and position % period == 0:
            kind = "insert"
        elif period and position % period == period // 2:
            kind = "delete"
        if kind == "insert":
            stream.append(writes.insert())
        elif kind == "delete":
            stream.append(writes.delete())
        else:
            stream.append((kind, query, params[kind]))
    return stream


def make_inputs(workload: Workload, codes: CodeSet, seed: int, seconds: float):
    """The request stream and the warm-up reads.

    The stream holds ``seconds`` of open loop plus the drain pool.  A
    pass sends a prefix of it open loop and drains from where that
    stopped, so the drain keeps the open loop's query distribution (the
    same Zipf hot set) and every delete follows the insert it undoes.
    """
    count = math.ceil(workload.rate * seconds) + workload.drain_pool
    warmup = near_miss_queries(
        codes, 64, flips=NEAR_MISS_FLIPS + 2, seed=seed + 104729
    )
    return make_stream(workload, codes, count, seed), warmup
