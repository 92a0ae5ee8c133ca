"""Sanctioned wall-clock access for library code.

The ``no-wallclock-in-library`` rule of ``tests/test_source_rules.py``
bans raw ``time.time()`` / ``time.perf_counter()`` in ``src/`` outside
``obs/`` and ``bench/``: scattered clock reads cannot be attributed in
traces, faked in tests, or audited for benchmark hygiene. Library code
that needs a duration it *returns as data* (``setup_seconds``,
``elapsed_seconds``, per-phase timing splits) imports the clock from
here instead::

    from ..obs.clock import perf_counter

    started = perf_counter()
    ...
    elapsed = perf_counter() - started

Timing that exists only for observability should use a tracing span
(:func:`repro.obs.trace.span`) rather than this module — spans time,
attribute, and nest in one construct.

This module is intentionally a thin re-export so the functions stay
the interpreter's own (no wrapper overhead on hot paths); being inside
``obs/`` keeps every wall-clock read in the library greppable from one
place. ``process_time`` rides along for wall-vs-cpu accounting
(``QueryStats``): it is banned outside ``obs/`` by the same rule.
"""

from __future__ import annotations

from time import perf_counter, process_time, time

__all__ = ["perf_counter", "process_time", "time"]
