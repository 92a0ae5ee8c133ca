"""Nestable tracing spans with a thread-local active-span stack.

A *span* is one timed region of work — ``span("execute.hash_join")`` —
carrying wall-time, free-form attributes, and numeric counters. Spans
nest: a span opened while another is active becomes its child, so one
session query produces a tree (``session.query`` → ``execute`` →
``execute.hash_join`` …). Each thread keeps its own stack, so actors
running on worker threads cannot corrupt each other's nesting.

Finished *root* spans accumulate in a bounded process-global list (a
run's only store of span trees, ``trace.json``) and export two ways:

* :func:`tree` — a plain-dict JSON tree (name, seconds, attrs, counters,
  children), the format ``repro trace`` pretty-prints;
* :func:`chrome_trace` — a ``traceEvents`` list loadable by
  ``chrome://tracing`` / Perfetto (complete events, microseconds).

Zero overhead when disabled: :func:`span` checks ``STATE.enabled`` and
returns the shared falsy :data:`NULL_SPAN` before allocating anything.
Callers attach attributes allocation-free via::

    with span("execute") as sp:
        if sp:
            sp.set(tables=n_tables)
"""

from __future__ import annotations

import threading
import time
from typing import Any, Optional

from . import context as _context
from .runtime import STATE

#: Cap on retained finished root spans (oldest dropped first, counted by
#: :func:`roots_dropped` so readers can say what is missing).
MAX_ROOTS = 256


class NullSpan:
    """Falsy no-op stand-in returned while observability is disabled."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass

    def count(self, name: str, value: float = 1.0) -> None:
        pass


NULL_SPAN = NullSpan()


class Span:
    """One timed, attributed, counted region of work."""

    __slots__ = (
        "name",
        "start_s",
        "duration_s",
        "attrs",
        "counters",
        "children",
        "error",
        "thread_name",
        "trace_id",
        "span_id",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.start_s = 0.0
        self.duration_s = 0.0
        self.attrs: dict[str, Any] = {}
        self.counters: dict[str, float] = {}
        self.children: list[Span] = []
        self.error: Optional[str] = None
        self.thread_name = ""
        self.trace_id: Optional[str] = None
        self.span_id: Optional[str] = None

    def __bool__(self) -> bool:
        return True

    def set(self, **attrs: Any) -> None:
        """Attach attributes (overwriting on key collision)."""
        self.attrs.update(attrs)

    def count(self, name: str, value: float = 1.0) -> None:
        """Increment a numeric counter on this span."""
        self.counters[name] = self.counters.get(name, 0.0) + float(value)

    # -- context manager ------------------------------------------- #
    def __enter__(self) -> "Span":
        stack = _stack()
        stack.append(self)
        self.thread_name = threading.current_thread().name
        request = _context.current()
        if request is not None:
            self.trace_id = request.trace_id
            self.span_id = request.next_span_id()
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = time.perf_counter() - self.start_s
        if exc is not None:
            self.error = f"{exc_type.__name__}: {exc}"
        stack = _stack()
        # Pop *this* span even if an inner span leaked (exception safety):
        # everything above it on the stack is abandoned, not re-parented.
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        if stack:
            stack[-1].children.append(self)
        else:
            _record_root(self)
        return False  # never swallow exceptions

    # -- export ----------------------------------------------------- #
    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "name": self.name,
            "start_s": self.start_s,
            "seconds": self.duration_s,
        }
        if self.trace_id:
            record["trace_id"] = self.trace_id
        if self.span_id:
            record["span_id"] = self.span_id
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        if self.counters:
            record["counters"] = dict(self.counters)
        if self.error:
            record["error"] = self.error
        if self.children:
            record["children"] = [child.to_dict() for child in self.children]
        return record


_LOCAL = threading.local()
_ROOTS: list[Span] = []
_ROOTS_LOCK = threading.Lock()
_DROPPED = 0

#: Cross-thread view of every thread's active-span stack, so the
#: sampling profiler can attribute a sample taken *of* thread T to T's
#: innermost span without touching T. Keyed by thread ident; entries of
#: dead threads are purged whenever the table outgrows the live set
#: (bounded: live threads + a purge slack of MAX_STACK_TABLE).
MAX_STACK_TABLE = 64
_THREAD_STACKS: dict[int, list[Span]] = {}


def _stack() -> list[Span]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
        _register_stack(stack)
    return stack


def _register_stack(stack: list[Span]) -> None:
    with _ROOTS_LOCK:
        if len(_THREAD_STACKS) >= MAX_STACK_TABLE:
            alive = {t.ident for t in threading.enumerate()}
            for tid in [t for t in _THREAD_STACKS if t not in alive]:
                del _THREAD_STACKS[tid]
        _THREAD_STACKS[threading.get_ident()] = stack


def active_span_name(tid: int) -> Optional[str]:
    """Innermost active span name of thread ``tid`` (profiler-facing).

    Lock-free best-effort read: the owning thread may push/pop
    concurrently, so a sample can land one span early or late — fine
    for statistical attribution, and never corrupts the stack itself.
    """
    stack = _THREAD_STACKS.get(tid)
    if not stack:
        return None
    try:
        return stack[-1].name
    except IndexError:
        return None


def _record_root(root: Span) -> None:
    global _DROPPED
    with _ROOTS_LOCK:
        _ROOTS.append(root)
        evicted = len(_ROOTS) - MAX_ROOTS
        if evicted > 0:
            del _ROOTS[:evicted]
            _DROPPED += evicted


def span(name: str, **attrs: Any):
    """Open a span (context manager); no-op while disabled."""
    if not STATE.enabled:
        return NULL_SPAN
    opened = Span(name)
    if attrs:
        opened.attrs.update(attrs)
    return opened


def current() -> Optional[Span]:
    """The innermost active span on this thread, or None."""
    if not STATE.enabled:
        return None
    stack = _stack()
    return stack[-1] if stack else None


def count(name: str, value: float = 1.0) -> None:
    """Increment a counter on the active span (no-op when disabled/idle)."""
    if not STATE.enabled:
        return
    stack = _stack()
    if stack:
        stack[-1].count(name, value)


def roots() -> list[Span]:
    """Finished root spans, oldest first."""
    with _ROOTS_LOCK:
        return list(_ROOTS)


def roots_dropped() -> int:
    """Finished root spans evicted from the ring since :func:`reset`."""
    return _DROPPED


def reset() -> None:
    """Drop all finished root spans (active stacks are untouched)."""
    global _DROPPED
    with _ROOTS_LOCK:
        _ROOTS.clear()
        _DROPPED = 0


def tree() -> list[dict[str, Any]]:
    """JSON-ready tree of all finished root spans."""
    return [root.to_dict() for root in roots()]


def chrome_trace() -> dict[str, Any]:
    """Chrome-trace-format ("complete event") view of the finished spans.

    Spans render under ``pid=1``, one ``tid`` row per thread.
    Load the written file in ``chrome://tracing`` or
    https://ui.perfetto.dev.
    """
    events: list[dict[str, Any]] = []
    tids: dict[str, int] = {}

    def emit(node: Span) -> None:
        tid = tids.setdefault(node.thread_name, len(tids) + 1)
        args: dict[str, Any] = dict(node.attrs)
        args.update(node.counters)
        if node.error:
            args["error"] = node.error
        events.append(
            {
                "name": node.name,
                "ph": "X",
                "ts": node.start_s * 1e6,
                "dur": node.duration_s * 1e6,
                "pid": 1,
                "tid": tid,
                "args": args,
            }
        )
        for child in node.children:
            emit(child)

    for root in roots():
        emit(root)

    metadata: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": "repro (parent)"},
        }
    ]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def format_tree(
    nodes: Optional[list[dict[str, Any]]] = None, max_depth: int = 6
) -> str:
    """Human-readable rendering of a span tree (used by ``repro trace``)."""
    nodes = tree() if nodes is None else nodes
    lines: list[str] = []

    def render(node: dict[str, Any], depth: int) -> None:
        if depth > max_depth:
            return
        indent = "  " * depth
        extras = []
        for key, value in (node.get("attrs") or {}).items():
            extras.append(f"{key}={value}")
        for key, value in (node.get("counters") or {}).items():
            extras.append(f"{key}={value:g}")
        if node.get("error"):
            extras.append(f"error={node['error']}")
        suffix = ("  [" + " ".join(extras) + "]") if extras else ""
        lines.append(
            f"{indent}{node['name']:<{max(1, 40 - len(indent))}}"
            f" {node.get('seconds', 0.0) * 1e3:9.3f} ms{suffix}"
        )
        for child in node.get("children", []):
            render(child, depth + 1)

    for node in nodes:
        render(node, 0)
    return "\n".join(lines)
