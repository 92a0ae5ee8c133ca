"""Request-scoped causal context: trace ids, span ids, and baggage.

Every stream the observability stack records — spans, telemetry
records, the SLO alerts folded from them — is useless for *triage* unless
the records of one request share an identity. A :class:`RequestContext`
is that identity: a 128-bit trace id, a per-trace span-id counter, and
a small baggage dict (query fingerprint, tenant placeholder for the
serving arc). The active context lives in a :class:`contextvars.ContextVar`,
so it follows the request across threads spawned with a copied context
and is invisible to unrelated work.

Propagation rules (DESIGN.md §13):

* :func:`ensure` is the executor's entry point — it reuses an already
  active context (a session that opened one query-scoped context keeps
  one trace across nested executes) or activates a fresh one;
* :func:`repro.obs.telemetry.emit` and :class:`repro.obs.trace.Span`
  read the context-local on their enabled paths and stamp ``trace_id``
  into everything they record; an SLO names the worst rows' trace ids.

Id generation uses ``os.urandom`` (no global RNG, no wall clock), and
span ids are a cheap per-trace counter — unique within a trace, which
is all causal stitching needs.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator, Optional

#: The context-local holding the active RequestContext (or None).
_ACTIVE: ContextVar[Optional["RequestContext"]] = ContextVar(
    "repro_request_context", default=None
)


def new_trace_id() -> str:
    """A fresh 128-bit trace id as 32 lowercase hex chars."""
    return os.urandom(16).hex()


class RequestContext:
    """Identity of one request: trace id, span-id counter, baggage."""

    __slots__ = ("trace_id", "span_id", "baggage", "_span_counter")

    def __init__(self, baggage: Optional[dict[str, Any]] = None) -> None:
        self.trace_id = new_trace_id()
        self.span_id = "0000000000000001"
        self.baggage: dict[str, Any] = dict(baggage or {})
        self._span_counter = 1

    def next_span_id(self) -> str:
        """A fresh span id, unique within this trace (16 hex chars)."""
        self._span_counter += 1
        return f"{self._span_counter:016x}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RequestContext(trace_id={self.trace_id!r})"


def new_context(
    fingerprint: Optional[str] = None,
    tenant: Optional[str] = None,
    **baggage: Any,
) -> RequestContext:
    """Build a fresh context; fingerprint/tenant land in the baggage."""
    if fingerprint is not None:
        baggage["fingerprint"] = fingerprint
    if tenant is not None:
        baggage["tenant"] = tenant
    return RequestContext(baggage=baggage)


def current() -> Optional[RequestContext]:
    """The active request context, or None outside any request."""
    return _ACTIVE.get()


def current_trace_id() -> Optional[str]:
    """Trace id of the active context (one ContextVar read), or None."""
    context = _ACTIVE.get()
    return context.trace_id if context is not None else None


@contextmanager
def activate(context: RequestContext) -> Iterator[RequestContext]:
    """Make ``context`` active for the duration of the block."""
    token = _ACTIVE.set(context)
    try:
        yield context
    finally:
        _ACTIVE.reset(token)


@contextmanager
def ensure(
    fingerprint: Optional[str] = None, **baggage: Any
) -> Iterator[RequestContext]:
    """Reuse the active context, or activate a fresh one for the block.

    The executor wraps every observed query in this: a caller that
    already opened a request context (one session query spanning
    several executes) keeps a single trace; a bare ``execute()`` gets
    its own. Baggage merges into a reused context without overwriting
    existing keys, so the outermost request wins.
    """
    existing = _ACTIVE.get()
    if existing is not None:
        if fingerprint is not None:
            existing.baggage.setdefault("fingerprint", fingerprint)
        for key, value in baggage.items():
            existing.baggage.setdefault(key, value)
        yield existing
        return
    with activate(new_context(fingerprint=fingerprint, **baggage)) as context:
        yield context
