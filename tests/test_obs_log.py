"""Tests for repro.obs.log: levels, filtering, and channel discipline.

The module is the only sanctioned output path for library code:
:func:`console` for human-facing lines, :func:`log` for structured
events that land on the telemetry stream — never stdout. These tests
pin the severity-level contract (filtering, validation, the ``info``
default that keeps level-less callers emitting) and the channel
separation itself.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs import log, telemetry


@pytest.fixture(autouse=True)
def clean_obs():
    def scrub():
        log.reset()
        obs.disable()
        telemetry.reset()
        telemetry.configure(None)

    scrub()
    yield
    scrub()


def _records():
    return [r for r in telemetry.records() if r.get("stream") == "log"]


class TestLevels:
    def test_reset_restores_default(self):
        obs.enable()
        log.set_level("error")
        log.reset()
        log.log("a", level="debug")
        log.log("b", level="info")
        assert [r["event"] for r in _records()] == ["b"]

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            log.set_level("verbose")

    def test_unknown_event_level_rejected_even_when_disabled(self):
        # A typo'd level silently vanishing into the default would hide
        # the very events someone marked important — so validation runs
        # before the enabled check.
        assert not obs.STATE.enabled
        with pytest.raises(ValueError, match="unknown log level"):
            log.log("something", level="critical")


class TestFiltering:
    def test_level_less_calls_emit_at_info(self):
        obs.enable()
        log.log("model.loaded", rows=10)
        records = _records()
        assert len(records) == 1
        assert records[0]["event"] == "model.loaded"
        assert records[0]["level"] == "info"
        assert records[0]["rows"] == 10

    def test_debug_dropped_at_default_threshold(self):
        obs.enable()
        log.log("chatter", level="debug")
        assert _records() == []

    def test_debug_passes_when_threshold_lowered(self):
        obs.enable()
        log.set_level("debug")
        log.log("chatter", level="debug")
        assert [r["level"] for r in _records()] == ["debug"]

    def test_threshold_filters_strictly_below(self):
        obs.enable()
        log.set_level("warn")
        log.log("a", level="info")
        log.log("b", level="warn")
        log.log("c", level="error")
        assert [r["level"] for r in _records()] == ["warn", "error"]

    def test_disabled_drops_everything(self):
        log.log("quiet", level="error")
        assert _records() == []


class TestChannelDiscipline:
    def test_log_never_writes_stdout(self, capsys):
        obs.enable()
        log.log("loud.event", level="error", detail="x" * 100)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""

    def test_console_writes_one_stdout_line(self, capsys):
        log.console("hello")
        assert capsys.readouterr().out == "hello\n"

    def test_console_default_is_blank_line(self, capsys):
        log.console()
        assert capsys.readouterr().out == "\n"
