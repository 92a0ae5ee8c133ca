"""Shared on/off switch for the observability subsystem.

Every instrumentation site in the library funnels through one flag:
``STATE.enabled``. The contract (DESIGN.md §Observability) is that when
the flag is off, instrumented code performs *one attribute check and
nothing else* — no span objects, no telemetry rows, no string
formatting — so the hot kernels benchmarked in ``BENCH_kernels.json``
pay effectively nothing for being observable.

This module owns only the flag (plus enable/disable helpers) so that
``obs.trace`` and ``obs.telemetry`` can share it
without import cycles through the package ``__init__``.
"""

from __future__ import annotations


class ObservabilityState:
    """Mutable process-global switch (attribute reads stay live)."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = False


STATE = ObservabilityState()


def enable() -> None:
    """Turn instrumentation on process-wide."""
    STATE.enabled = True


def disable() -> None:
    """Turn instrumentation off process-wide."""
    STATE.enabled = False

