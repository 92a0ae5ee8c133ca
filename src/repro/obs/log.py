"""Console output for library code.

Library modules must not call bare ``print`` (enforced by the
``no-bare-print`` rule of ``tests/test_source_rules.py``); the one
sanctioned channel is :func:`console` — human-facing console output
(benchmark tables, CLI helpers). A thin ``sys.stdout`` wrapper, so
``capsys``/redirection behave exactly as with ``print``. Structured
events are telemetry rows (:func:`repro.obs.telemetry.emit`).
"""

from __future__ import annotations

import sys


def console(message: object = "") -> None:
    """Write one line to stdout (the only sanctioned console channel)."""
    sys.stdout.write(f"{message}\n")
