"""In-memory span recorder for the benchmark's traced pass.

The benchmark times the program's layers from outside: :meth:`Recorder.wrap`
replaces a public callable *at the attribute its caller looks it up through*
(``repro.core.preprocess.execute``, ``GSLEnvironment.step``, ...) with a
wrapper that records one span per call, and :meth:`Recorder.patching`
restores every replaced attribute on exit, also when the body raises.

A span is ``name, start, end, parent, phase`` plus an optional ``count``
taken at the same boundary (rows returned, samples consumed). Spans stay in
memory until the caller writes them out. A layer's *self* time is its
span's duration minus the union of its direct children's intervals.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable, Iterator, Optional, Sequence, Union

_MISSING = object()

#: A span name, or a function of the wrapped call's arguments giving it.
SpanName = Union[str, Callable[..., str]]


class Span:
    """One timed call. ``parent`` is an index into the recorder, -1 at top."""

    __slots__ = ("name", "start", "end", "parent", "phase", "count")

    def __init__(self, name: str, parent: int, phase: str) -> None:
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.phase = phase
        self.count = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self, workload: str) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "phase": self.phase,
            "count": self.count,
            "workload": workload,
        }


def union_length(intervals: Sequence[tuple[float, float]]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


class Recorder:
    """Collects spans and owns the patches that produce them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = ""
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._by_name: dict[str, list[int]] = {}
        self._indexed = 0

    # ------------------------------------------------------------ #
    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record the enclosed block as one span (benchmark-side calls)."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1, self.phase)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    # ------------------------------------------------------------ #
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: SpanName,
        measure: Optional[Callable[[Any], int]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is the module or class the *caller* resolves the name
        through. ``name`` may be a function of the call's arguments (to
        tell a full-database execute from an approximation-set one);
        ``measure`` maps the call's result to the span's ``count``.
        """
        original = getattr(owner, attr)
        own = vars(owner).get(attr, _MISSING)
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name if isinstance(name, str) else name(*args, **kwargs)
            span = recorder._open(label)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._close(span)
            if measure is not None:
                span.count = measure(result)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        self._patches.append((owner, attr, own))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, most recent first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)  # the attribute was inherited
            else:
                setattr(owner, attr, own)

    @contextmanager
    def patching(self) -> Iterator["Recorder"]:
        """Scope for :meth:`wrap` calls; every patch is gone on exit."""
        try:
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------ #
    def select(self, name: str, phase: Optional[str] = None) -> list[int]:
        """Indices of the spans called ``name`` (in ``phase``, if given)."""
        for i in range(self._indexed, len(self.spans)):  # index new spans once
            self._by_name.setdefault(self.spans[i].name, []).append(i)
        self._indexed = len(self.spans)
        return [
            i
            for i in self._by_name.get(name, ())
            if phase is None or self.spans[i].phase == phase
        ]

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def calls(self, name: str, phase: Optional[str] = None) -> int:
        return len(self.select(name, phase))

    def count(self, name: str, phase: Optional[str] = None) -> int:
        return sum(self.spans[i].count for i in self.select(name, phase))

    def durations(self, name: str, phase: Optional[str] = None) -> list[float]:
        return [self.spans[i].duration for i in self.select(name, phase)]

    def busy(
        self,
        name: str,
        phase: Optional[str] = None,
        under: Optional[str] = None,
    ) -> float:
        """Time spent inside spans called ``name``.

        A span nested in another of the same name (``score_with_keys``
        calling ``batch_score``) is already inside its ancestor's interval
        and is not added again. ``under`` keeps only spans below an
        ancestor of that name.
        """
        return sum(
            self.spans[i].duration
            for i in self.select(name, phase)
            if not self.has_ancestor(i, name)
            and (under is None or self.has_ancestor(i, under))
        )

    def self_time(self, name: str, phase: Optional[str] = None) -> float:
        """Busy time of ``name`` not covered by its direct children."""
        wanted = {
            i for i in self.select(name, phase) if not self.has_ancestor(i, name)
        }
        children: dict[int, list[tuple[float, float]]] = {i: [] for i in wanted}
        for span in self.spans:
            if span.parent in wanted:
                children[span.parent].append((span.start, span.end))
        return sum(
            self.spans[i].duration - union_length(children[i]) for i in wanted
        )

    def to_dicts(self, workload: str) -> list[dict]:
        return [span.to_dict(workload) for span in self.spans]


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call costs over the bare call (calibration)."""

    target = SimpleNamespace(noop=lambda: None)

    def timed_loop() -> float:
        start = perf_counter()
        for _ in range(calls):
            target.noop()
        return perf_counter() - start

    bare = timed_loop()
    recorder = Recorder()
    with recorder.patching():
        recorder.wrap(target, "noop", "noop")
        wrapped = timed_loop()
    return max(0.0, (wrapped - bare) / calls)
