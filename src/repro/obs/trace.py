"""Hierarchical query tracing: spans with wall-clock and op attribution.

A *trace* is a tree of :class:`Span` objects rooted at one
:func:`trace` context.  Instrumentation sites open child spans with
:func:`trace_span` (or attach pre-timed ones with :func:`record_span`)
and attribute *distance computations* to them with
:meth:`Span.add_ops` — the unit the paper's evaluation counts, so a
trace of one H-Search shows exactly where `last_search_ops` was spent.

Overhead discipline
-------------------
Collection only happens while a trace is open **on the current
thread**.  Every instrumentation site first calls :func:`tracing`,
which is a single thread-local attribute probe; with no open trace the
hot paths fall through to their uninstrumented loops, keeping the
disabled overhead below the 2% budget recorded in
``docs/observability.md``.  The engine walks read that probe once per
query and test it once per level for their per-level attribution,
never inside the per-node loops.
"""

from __future__ import annotations

import threading
import time
from typing import Iterator

__all__ = [
    "Span",
    "trace",
    "trace_span",
    "capture_span",
    "attach_span",
    "record_span",
    "tracing",
    "current_span",
    "add_ops",
    "last_trace",
    "render_span_tree",
]


class _Local(threading.local):
    # A class-level default keeps the probe of a thread that never
    # traced off getattr's missing-attribute path, which costs several
    # times the hit.
    stack: "list[Span] | None" = None


_tls = _Local()
_last_lock = threading.Lock()
_last_trace: "Span | None" = None


class Span:
    """One node of a trace tree.

    Attributes:
        name: dotted span name (``h_search.level``, ``mr.map`` ...).
        attrs: static attributes attached at creation or via
            :meth:`annotate` (depth, engine, byte counts ...).
        ops: distance computations attributed directly to this span
            (children excluded; see :attr:`total_ops`).
        seconds: wall-clock (or, for MapReduce phases, simulated)
            duration.  Filled on context exit, or supplied explicitly
            through :func:`record_span`.
        children: sub-spans in creation order.
    """

    __slots__ = ("name", "attrs", "ops", "seconds", "children", "_started")

    def __init__(self, name: str, attrs: dict | None = None) -> None:
        self.name = name
        self.attrs: dict = attrs or {}
        self.ops = 0
        self.seconds = 0.0
        self.children: list[Span] = []
        self._started = 0.0

    def add_ops(self, amount: int) -> None:
        """Attribute ``amount`` distance computations to this span."""
        self.ops += amount

    def annotate(self, **attrs: object) -> None:
        """Attach or overwrite static attributes."""
        self.attrs.update(attrs)

    @property
    def total_ops(self) -> int:
        """Ops of this span plus all descendants."""
        return self.ops + sum(child.total_ops for child in self.children)

    def find(self, name: str) -> list["Span"]:
        """Every descendant span (depth-first) with the given name."""
        found = []
        stack = list(reversed(self.children))
        while stack:
            span = stack.pop()
            if span.name == name:
                found.append(span)
            stack.extend(reversed(span.children))
        return found

    def as_dict(self) -> dict:
        """JSON-able representation of the subtree."""
        return {
            "name": self.name,
            "seconds": self.seconds,
            "ops": self.ops,
            "attrs": dict(self.attrs),
            "children": [child.as_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a subtree serialized by :meth:`as_dict`.

        The process-pool scatter path ships spans across the worker
        pipe as plain dicts (spans hold no picklable guarantees beyond
        their data) and the parent reattaches the rebuilt subtree to
        its own open trace.
        """
        span = cls(str(data["name"]), dict(data.get("attrs") or {}))
        span.ops = int(data.get("ops", 0))
        span.seconds = float(data.get("seconds", 0.0))
        span.children = [
            cls.from_dict(child) for child in data.get("children", ())
        ]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, ops={self.ops}, "
            f"seconds={self.seconds:.6f}, "
            f"children={len(self.children)})"
        )


def _stack() -> list[Span]:
    stack = _tls.stack
    if stack is None:
        stack = _tls.stack = []
    return stack


def tracing() -> bool:
    """True iff a trace is open on the current thread.

    This is the guard every instrumentation site checks before doing
    any collection work; it must stay a single attribute probe.
    """
    return bool(_tls.stack)


def current_span() -> Span | None:
    """The innermost open span of this thread's trace, or ``None``."""
    stack = _tls.stack
    return stack[-1] if stack else None


def add_ops(amount: int) -> None:
    """Attribute ops to the innermost open span (no-op when idle)."""
    stack = _tls.stack
    if stack:
        stack[-1].ops += amount


class _TraceContext:
    """Context manager pushing one span; reusable root and child."""

    __slots__ = ("_span", "_root")

    def __init__(self, span: Span, root: bool) -> None:
        self._span = span
        self._root = root

    def __enter__(self) -> Span:
        span = self._span
        span._started = time.perf_counter()
        _stack().append(span)
        return span

    def __exit__(self, *exc_info: object) -> None:
        span = self._span
        span.seconds = time.perf_counter() - span._started
        stack = _stack()
        assert stack and stack[-1] is span, "unbalanced span nesting"
        stack.pop()
        if self._root:
            global _last_trace
            with _last_lock:
                _last_trace = span


class _NoopContext:
    """Shared do-nothing context handed out when no trace is open."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return _NOOP_SPAN

    def __exit__(self, *exc_info: object) -> None:
        return None


class _NoopSpan:
    """Absorbs span mutations on the disabled path."""

    __slots__ = ()
    ops = 0
    seconds = 0.0
    children: list[Span] = []

    def add_ops(self, amount: int) -> None:
        return None

    def annotate(self, **attrs: object) -> None:
        return None


_NOOP_SPAN = _NoopSpan()
_NOOP_CONTEXT = _NoopContext()


def trace(name: str, **attrs: object):
    """Open a root span, activating collection on this thread.

    Nested calls attach as child spans of the innermost open span, so a
    ``profile=True`` API call inside an already-open trace contributes
    its subtree to the outer trace instead of clobbering it.  On exit
    of a *root* span the finished tree is stored for
    :func:`last_trace`.
    """
    span = Span(name, dict(attrs) if attrs else None)
    root = not tracing()
    if not root:
        _stack()[-1].children.append(span)
    return _TraceContext(span, root)


def trace_span(name: str, ops: int = 0, **attrs: object):
    """Open a child span if a trace is active; no-op otherwise."""
    stack = _tls.stack
    if not stack:
        return _NOOP_CONTEXT
    span = Span(name, dict(attrs) if attrs else None)
    span.ops = ops
    stack[-1].children.append(span)
    return _TraceContext(span, root=False)


def capture_span(name: str, **attrs: object):
    """Root a *detached* span on the current thread.

    Unlike :func:`trace`, the finished span is neither attached to any
    parent nor published as the last trace — the caller re-attaches it
    explicitly (:func:`attach_span`).  This is the collection primitive
    of the parallel scatter executors: a pool thread (or a worker
    process) captures its ``shard.dispatch`` subtree locally, and the
    gather side attaches the completed subtrees to the parent trace in
    deterministic task order, so concurrent completion order can never
    interleave or corrupt the trace tree.

    While the capture is open, :func:`tracing` is True on this thread,
    so engine instrumentation attributes ops into the subtree exactly
    as it would under a directly-open trace.
    """
    return _TraceContext(Span(name, dict(attrs) if attrs else None), root=False)


def attach_span(span: Span) -> bool:
    """Attach a completed (captured) subtree to the innermost open span.

    Returns False (and drops nothing but the attachment) when no trace
    is open on the current thread.
    """
    stack = _tls.stack
    if not stack:
        return False
    stack[-1].children.append(span)
    return True


def record_span(
    name: str, seconds: float, ops: int = 0, **attrs: object
) -> Span | None:
    """Attach a pre-timed child span to the current trace.

    Used where the duration is already known from elsewhere — the
    per-level timings of a vectorized sweep, or the *simulated* wall
    clock of a MapReduce phase (annotate with ``simulated=True`` in
    that case so renderers can flag it).  Returns the span, or ``None``
    when no trace is open.
    """
    stack = _tls.stack
    if not stack:
        return None
    span = Span(name, dict(attrs) if attrs else None)
    span.ops = ops
    span.seconds = seconds
    stack[-1].children.append(span)
    return span


def last_trace() -> Span | None:
    """The most recently completed root span (any thread)."""
    with _last_lock:
        return _last_trace


def _render_lines(
    span: Span, prefix: str, is_last: bool, is_root: bool
) -> Iterator[str]:
    connector = "" if is_root else ("`-- " if is_last else "|-- ")
    attrs = ", ".join(
        f"{key}={value}" for key, value in sorted(span.attrs.items())
    )
    parts = [f"{span.name}"]
    if attrs:
        parts.append(f"[{attrs}]")
    parts.append(f"{span.seconds * 1000.0:.3f} ms")
    if span.ops:
        parts.append(f"ops={span.ops}")
    yield f"{prefix}{connector}{' '.join(parts)}"
    child_prefix = prefix if is_root else prefix + (
        "    " if is_last else "|   "
    )
    for position, child in enumerate(span.children):
        yield from _render_lines(
            child,
            child_prefix,
            position == len(span.children) - 1,
            is_root=False,
        )


def render_span_tree(span: Span) -> str:
    """ASCII tree of a trace: name, attrs, milliseconds, ops per span.

    The root line is followed by a summary of total ops so the
    ``repro trace`` acceptance check (per-level ops summing to
    ``last_search_ops``) is visible at a glance.
    """
    lines = list(_render_lines(span, "", is_last=True, is_root=True))
    lines.append(f"total ops: {span.total_ops}")
    return "\n".join(lines)
