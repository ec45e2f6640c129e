"""Central registry of every query engine the library ships.

One :class:`EngineSpec` per engine, keyed by a short CLI-friendly name.
The registry is the single source of truth consumed by the select/join
front-ends, the ``--engine`` flags of the CLI, and the service planes —
previously ``core/select.py`` and ``cli.py`` each hard-coded their own
builder tables.  ``INDEX_FAMILIES`` (the paper's Table 4 names) is now
derived from the entries that carry a ``paper_name``.

Engines fall into four groups:

* the paper's seven Table 4 approaches (``nested-loops`` .. ``dha``);
* ``flat`` — the compiled vectorized plane of the Dynamic HA-Index;
* ``mih`` — Multi-Index Hashing (:mod:`repro.engines.mih`), the
  substring-table competitor with native progressive-radius kNN;
* ``weighted`` — the weighted Hamming plane
  (:mod:`repro.core.weighted`): thresholds are weighted distances
  under a per-bit weight vector (the codes' own, or ``weights=``
  passed to the builder; uniform weights reproduce the unweighted
  engines exactly).

Builders import their index modules lazily so importing the registry
stays cheap and cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.bitvector import CodeSet
from repro.core.errors import InvalidParameterError
from repro.core.index_base import HammingIndex


@dataclass(frozen=True)
class EngineSpec:
    """One registered engine.

    Attributes:
        name: canonical registry key (also the CLI ``--engine`` value).
        description: one-line summary shown by ``repro info``.
        builder: ``builder(codes, **params) -> HammingIndex``.
        paper_name: Table 4 name when the engine is one of the paper's
            seven compared approaches (feeds ``INDEX_FAMILIES``).
        aliases: alternative names accepted wherever engines are named.
        batched: the built index offers ``search_batch`` /
            ``search_codes_batch`` multi-query entry points.
        mutable: the built index supports ``insert``/``delete``
            (the compiled kernels are read-only: mutate the source
            DHA-Index and recompile).
        weighted: thresholds are *weighted* Hamming distances under
            the engine's per-bit weight vector
            (:mod:`repro.core.weighted`).

    The capability fields feed the generated engine tables in
    ``docs/engines.md``/``docs/api.md`` (``repro docs-gen``), so a new
    engine documents itself by registering here.
    """

    name: str
    description: str
    builder: Callable[..., HammingIndex]
    paper_name: str | None = None
    aliases: tuple[str, ...] = field(default=())
    batched: bool = False
    mutable: bool = True
    weighted: bool = False


def _build_nested_loops(codes: CodeSet, **params) -> HammingIndex:
    from repro.baselines.nested_loops import NestedLoopsIndex

    return NestedLoopsIndex.build(codes, **params)


def _build_mh4(codes: CodeSet, **params) -> HammingIndex:
    from repro.baselines.multi_hash import MultiHashTableIndex

    params.setdefault("num_tables", 4)
    return MultiHashTableIndex.build(codes, **params)


def _build_mh10(codes: CodeSet, **params) -> HammingIndex:
    from repro.baselines.multi_hash import MultiHashTableIndex

    params.setdefault("num_tables", 10)
    return MultiHashTableIndex.build(codes, **params)


def _build_hengine(codes: CodeSet, **params) -> HammingIndex:
    from repro.baselines.hengine import HEngineIndex

    return HEngineIndex.build(codes, **params)


def _build_radix(codes: CodeSet, **params) -> HammingIndex:
    from repro.core.radix_tree import RadixTreeIndex

    return RadixTreeIndex.build(codes, **params)


def _build_sha(codes: CodeSet, **params) -> HammingIndex:
    from repro.core.static_ha import StaticHAIndex

    return StaticHAIndex.build(codes, **params)


def _build_dha(codes: CodeSet, **params) -> HammingIndex:
    from repro.core.dynamic_ha import DynamicHAIndex

    return DynamicHAIndex.build(codes, **params)


def _build_flat(codes: CodeSet, **params) -> HammingIndex:
    from repro.core.dynamic_ha import DynamicHAIndex

    return DynamicHAIndex.build(codes, **params).compile()


def _build_native(codes: CodeSet, **params) -> HammingIndex:
    from repro.core.dynamic_ha import DynamicHAIndex

    return DynamicHAIndex.build(codes, **params).compile_native()


def _build_mih(codes: CodeSet, **params) -> HammingIndex:
    from repro.engines.mih import MIHIndex

    return MIHIndex.build(codes, **params)


def _build_weighted(codes: CodeSet, **params) -> HammingIndex:
    from repro.core.weighted import WeightedHammingIndex

    return WeightedHammingIndex.build(codes, **params)


#: Every registered engine, in Table 4 order first.
ENGINES: dict[str, EngineSpec] = {
    spec.name: spec
    for spec in (
        EngineSpec(
            "nested-loops",
            "vectorized linear scan (the paper's cost yardstick)",
            _build_nested_loops,
            paper_name="Nested-Loops",
        ),
        EngineSpec(
            "mh4",
            "Manku MultiHashTable, 4 tables (single-block keys)",
            _build_mh4,
            paper_name="MH-4",
        ),
        EngineSpec(
            "mh10",
            "Manku MultiHashTable, 10 tables (pair keys)",
            _build_mh10,
            paper_name="MH-10",
        ),
        EngineSpec(
            "hengine",
            "HEngine signature-segmentation baseline",
            _build_hengine,
            paper_name="HEngine",
        ),
        EngineSpec(
            "radix",
            "plain radix (bit-trie) index",
            _build_radix,
            paper_name="Radix-Tree",
        ),
        EngineSpec(
            "sha",
            "Static HA-Index (memoized segment sharing)",
            _build_sha,
            paper_name="SHA-Index",
        ),
        EngineSpec(
            "dha",
            "Dynamic HA-Index, Python node walk",
            _build_dha,
            paper_name="DHA-Index",
            aliases=("nodes",),
        ),
        EngineSpec(
            "flat",
            "Dynamic HA-Index compiled to the vectorized flat kernel",
            _build_flat,
            batched=True,
            mutable=False,
        ),
        EngineSpec(
            "native",
            "flat kernel swept by the compiled C backend "
            "(numpy fallback)",
            _build_native,
            aliases=("jit", "compiled"),
            batched=True,
            mutable=False,
        ),
        EngineSpec(
            "mih",
            "Multi-Index Hashing: substring tables + progressive kNN",
            _build_mih,
            batched=True,
        ),
        EngineSpec(
            "weighted",
            "weighted Hamming plane over the DHA kernel "
            "(native sweep + exact re-rank)",
            _build_weighted,
            aliases=("wha",),
            batched=True,
            weighted=True,
        ),
    )
}

_ALIASES: dict[str, str] = {
    alias: spec.name for spec in ENGINES.values() for alias in spec.aliases
}


def engine_names() -> list[str]:
    """Canonical engine names, registry order."""
    return list(ENGINES)


def engine_choices() -> list[str]:
    """Every accepted engine name (canonical + aliases), sorted.

    The CLI ``--engine`` flags list exactly this, so a newly registered
    engine shows up everywhere without touching the parser.
    """
    return sorted([*ENGINES, *_ALIASES])


def get_engine(name: str) -> EngineSpec:
    """Resolve an engine name (or alias) to its spec."""
    spec = ENGINES.get(_ALIASES.get(name, name))
    if spec is None:
        raise InvalidParameterError(
            f"unknown engine {name!r}; expected one of "
            f"{', '.join(engine_choices())}"
        )
    return spec


def build_index(name: str, codes: CodeSet, **params) -> HammingIndex:
    """Build the named engine's index over ``codes``."""
    return get_engine(name).builder(codes, **params)


def paper_families() -> dict[str, Callable[[CodeSet], HammingIndex]]:
    """Table 4 builders keyed by the paper's names, paper order."""
    return {
        spec.paper_name: spec.builder
        for spec in ENGINES.values()
        if spec.paper_name is not None
    }
