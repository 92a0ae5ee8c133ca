"""The one percentile definition for raw samples.

A run keeps every number it records in exactly one place — a span of
``trace.json`` or a row of ``telemetry.jsonl`` — and each view folds
what it shows from those at read time. What the views share is how a
percentile of a sorted sample is taken: SLO windows, the ``slow``
trace label, ``repro diff`` and the report's query latencies all use
:func:`percentile`.
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a sorted sample.

    The ``ceil(q·n)``-th smallest value; the epsilon keeps a float
    product such as ``0.7 * 10`` from rounding up a whole rank.
    """
    if not ordered:
        return float("nan")
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]
