"""Unit tests for the benchmark's span recorder (no program code involved)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from benchmarks.e2e.tracing import Recorder, Span, union_length


def _add(recorder: Recorder, name: str, start: float, end: float, parent: int = -1,
         phase: str = "") -> int:
    span = Span(name, parent, phase)
    span.start, span.end = start, end
    recorder.spans.append(span)
    return len(recorder.spans) - 1


def test_union_length_counts_overlaps_once():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(2.0)
    assert union_length([(0.0, 2.0), (1.0, 3.0)]) == pytest.approx(3.0)
    assert union_length([(0.0, 5.0), (1.0, 2.0), (5.0, 5.0)]) == pytest.approx(5.0)


def test_self_time_on_nested_sibling_and_zero_length_spans():
    recorder = Recorder()
    root = _add(recorder, "root", 0.0, 10.0)
    child = _add(recorder, "child", 1.0, 4.0, parent=root)
    _add(recorder, "grandchild", 2.0, 3.0, parent=child)
    _add(recorder, "child", 6.0, 8.0, parent=root)       # sibling
    _add(recorder, "child", 9.0, 9.0, parent=root)       # zero length
    assert recorder.busy("root") == pytest.approx(10.0)
    assert recorder.self_time("root") == pytest.approx(10.0 - 3.0 - 2.0)
    assert recorder.calls("child") == 3
    assert recorder.busy("child") == pytest.approx(5.0)
    # Only direct children are subtracted: the grandchild is inside "child".
    assert recorder.self_time("child") == pytest.approx(5.0 - 1.0)
    assert recorder.self_time("grandchild") == pytest.approx(1.0)


def test_overlapping_children_are_subtracted_as_a_union():
    recorder = Recorder()
    root = _add(recorder, "root", 0.0, 10.0)
    _add(recorder, "a", 1.0, 5.0, parent=root)
    _add(recorder, "b", 3.0, 7.0, parent=root)
    assert recorder.self_time("root") == pytest.approx(4.0)


def test_same_name_nesting_and_filters():
    recorder = Recorder()
    outer = _add(recorder, "score", 0.0, 4.0, phase="fit")
    _add(recorder, "score", 1.0, 2.0, parent=outer, phase="fit")
    query = _add(recorder, "query", 5.0, 9.0, phase="serve")
    _add(recorder, "execute", 6.0, 8.0, parent=query, phase="serve")
    _add(recorder, "execute", 10.0, 11.0, phase="fit")
    assert recorder.calls("score") == 2
    assert recorder.busy("score") == pytest.approx(4.0)      # inner not re-added
    assert recorder.self_time("score") == pytest.approx(3.0)
    assert recorder.busy("execute") == pytest.approx(3.0)
    assert recorder.busy("execute", phase="serve") == pytest.approx(2.0)
    assert recorder.busy("execute", under="query") == pytest.approx(2.0)
    assert recorder.busy("execute", phase="fit", under="query") == 0.0


def test_wrap_records_parent_links_counts_and_dynamic_names():
    recorder = Recorder()
    module = SimpleNamespace(
        inner=lambda rows: list(range(rows)),
        outer=lambda: module.inner(3) + module.inner(0),
    )
    with recorder.patching():
        recorder.wrap(module, "outer", "outer")
        recorder.wrap(
            module, "inner", lambda rows: "empty" if rows == 0 else "rows", measure=len
        )
        recorder.phase = "fit"
        assert module.outer() == [0, 1, 2]
    names = [span.name for span in recorder.spans]
    assert names == ["outer", "rows", "empty"]
    assert [span.parent for span in recorder.spans] == [-1, 0, 0]
    assert recorder.count("rows") == 3 and recorder.count("empty") == 0
    assert all(span.phase == "fit" and span.end >= span.start for span in recorder.spans)
    exported = recorder.to_dicts("w")[1]
    assert exported["workload"] == "w" and exported["parent"] == 0


class _Base:
    def inherited(self) -> str:
        return "base"


class _Derived(_Base):
    def own(self) -> str:
        return "own"

    @staticmethod
    def static() -> str:
        return "static"


def test_every_patch_is_restored_after_an_exception():
    module = SimpleNamespace(function=len)
    before = (module.function, dict(vars(_Derived)), dict(vars(_Base)))
    recorder = Recorder()
    with pytest.raises(RuntimeError):
        with recorder.patching():
            recorder.wrap(module, "function", "module.function")
            recorder.wrap(_Derived, "own", "derived.own")
            recorder.wrap(_Derived, "inherited", "derived.inherited")
            recorder.wrap(_Derived, "static", "derived.static")
            assert _Derived().own() == "own" and _Derived().inherited() == "base"
            assert _Derived.static() == "static"
            assert module.function([1, 2]) == 2
            raise RuntimeError("the measured program failed")
    assert recorder.calls("derived.inherited") == 1
    assert (module.function, dict(vars(_Derived)), dict(vars(_Base))) == before
    assert "inherited" not in vars(_Derived)


def test_a_raising_call_still_closes_its_span():
    def boom() -> None:
        raise ValueError("boom")

    module = SimpleNamespace(boom=boom)
    recorder = Recorder()
    with recorder.patching():
        recorder.wrap(module, "boom", "boom")
        with pytest.raises(ValueError):
            with recorder.span("outer"):
                module.boom()
        with recorder.span("after"):
            pass
    assert [(s.name, s.parent) for s in recorder.spans] == [
        ("outer", -1), ("boom", 0), ("after", -1),
    ]
    assert module.boom is boom
