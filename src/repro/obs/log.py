"""Console output and structured logging for library code.

Library modules must not call bare ``print`` (enforced by the
``no-bare-print`` rule of ``tests/test_source_rules.py``); the two
sanctioned channels are:

* :func:`console` — human-facing console output (benchmark tables, CLI
  helpers). A thin ``sys.stdout`` wrapper, so ``capsys``/redirection
  behave exactly as with ``print``.
* :func:`log` — structured events. Routed onto the ``"log"`` telemetry
  stream when observability is enabled, dropped otherwise; library code
  can therefore log unconditionally without spamming stdout.

Events carry a severity level (``debug`` < ``info`` < ``warn`` <
``error``); :func:`set_level` filters what reaches the telemetry sink.
The default threshold is ``info``, so existing level-less ``log()``
calls (which default to ``info``) keep emitting exactly as before while
``debug`` chatter stays off unless explicitly requested.
"""

from __future__ import annotations

import sys
from typing import Any

from . import telemetry
from .runtime import STATE

#: Severity order; the threshold drops events strictly below it.
_LEVELS = {"debug": 10, "info": 20, "warn": 30, "error": 40}

_DEFAULT_LEVEL = "info"
_threshold = _LEVELS[_DEFAULT_LEVEL]


def _rank(level: str) -> int:
    try:
        return _LEVELS[level]
    except KeyError:
        raise ValueError(
            f"unknown log level {level!r}; choose from {sorted(_LEVELS)}"
        ) from None


def set_level(level: str) -> None:
    """Set the minimum level that reaches the telemetry stream."""
    global _threshold
    _threshold = _rank(level)


def reset() -> None:
    """Restore the default ``info`` threshold (tests / run boundaries)."""
    global _threshold
    _threshold = _LEVELS[_DEFAULT_LEVEL]


def console(message: object = "") -> None:
    """Write one line to stdout (the only sanctioned console channel)."""
    sys.stdout.write(f"{message}\n")


def log(event: str, level: str = _DEFAULT_LEVEL, **fields: Any) -> None:
    """Emit a structured log event onto the telemetry stream.

    ``level`` must be one of ``debug``/``info``/``warn``/``error``
    (ValueError otherwise — a typo silently vanishing into the default
    would hide the very events someone marked important). Events below
    the :func:`set_level` threshold are dropped; nothing is ever written
    to stdout.
    """
    rank = _rank(level)
    if STATE.enabled and rank >= _threshold:
        telemetry.emit("log", event=event, level=level, **fields)
