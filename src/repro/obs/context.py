"""Request-scoped causal context: trace ids and span ids.

Every stream the observability stack records — spans, telemetry
records, the SLO alerts folded from them — is useless for *triage* unless
the records of one request share an identity. A :class:`RequestContext`
is that identity: a 128-bit trace id and a per-trace span-id counter.
The active context lives in a :class:`contextvars.ContextVar`,
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
from typing import Iterator, Optional

#: The context-local holding the active RequestContext (or None).
_ACTIVE: ContextVar[Optional["RequestContext"]] = ContextVar(
    "repro_request_context", default=None
)


def new_trace_id() -> str:
    """A fresh 128-bit trace id as 32 lowercase hex chars."""
    return os.urandom(16).hex()


class RequestContext:
    """Identity of one request: trace id and span-id counter."""

    __slots__ = ("trace_id", "span_id", "_span_counter")

    def __init__(self) -> None:
        self.trace_id = new_trace_id()
        self.span_id = "0000000000000001"
        self._span_counter = 1

    def next_span_id(self) -> str:
        """A fresh span id, unique within this trace (16 hex chars)."""
        self._span_counter += 1
        return f"{self._span_counter:016x}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RequestContext(trace_id={self.trace_id!r})"


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
def ensure() -> Iterator[RequestContext]:
    """Reuse the active context, or activate a fresh one for the block.

    The executor wraps every observed query in this: a caller that
    already opened a request context (one session query spanning
    several executes) keeps a single trace; a bare ``execute()`` gets
    its own.
    """
    existing = _ACTIVE.get()
    if existing is not None:
        yield existing
        return
    with activate(RequestContext()) as context:
        yield context
