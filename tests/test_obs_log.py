"""Tests for repro.obs.log: the console channel.

The module is the only sanctioned output path for library code:
:func:`console` writes human-facing lines to stdout.
"""

from __future__ import annotations

from repro.obs import log


class TestChannelDiscipline:
    def test_console_writes_one_stdout_line(self, capsys):
        log.console("hello")
        assert capsys.readouterr().out == "hello\n"

    def test_console_default_is_blank_line(self, capsys):
        log.console()
        assert capsys.readouterr().out == "\n"
