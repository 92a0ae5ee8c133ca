"""Plain-text table rendering and JSON persistence for benchmark output.

Every ``benchmarks/bench_*.py`` prints the rows/series of its paper table
or figure through these helpers, and drops a JSON record next to the
test output so EXPERIMENTS.md numbers can be traced to a run.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import subprocess
import time
from typing import Optional, Sequence

from ..obs.log import console


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width table with a header rule (pure text, no dependencies)."""
    rendered = [[_cell(value) for value in row] for row in rows]
    widths = [
        max(len(headers[j]), *(len(row[j]) for row in rendered)) if rendered else len(headers[j])
        for j in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(widths[j]) for j, h in enumerate(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered:
        lines.append(" | ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def results_dir() -> str:
    """Where benchmark JSON records land (override with REPRO_RESULTS_DIR)."""
    path = os.environ.get("REPRO_RESULTS_DIR", "bench_results")
    os.makedirs(path, exist_ok=True)
    return path


def _git_sha() -> str:
    """Short commit SHA of the working tree, or "unknown" outside git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def config_hash() -> str:
    """Stable hash of the default ASQPConfig — changes when defaults do."""
    from dataclasses import asdict

    from ..core.config import ASQPConfig

    payload = json.dumps(asdict(ASQPConfig()), sort_keys=True, default=str)
    return hashlib.sha1(payload.encode()).hexdigest()[:12]


def run_provenance() -> dict:
    """Provenance block stamped into every saved bench payload.

    Git SHA + bench scale + default-config hash make trajectory entries
    comparable across PRs (the timestamp in :func:`save_results` is
    allowed because ``bench/`` is exempt from
    ``tests/test_source_rules.py``'s ``no-wallclock-in-library`` rule).
    """
    return {
        "git_sha": _git_sha(),
        "bench_scale": bench_scale(),
        "config_hash": config_hash(),
    }


def save_results(experiment: str, payload: dict) -> str:
    """Persist one experiment's results as JSON; returns the file path.

    Every record carries a ``provenance`` block (git SHA, bench scale,
    config hash) so ``repro report`` can line up trajectory entries
    recorded under different commits.
    """
    record = {
        "experiment": experiment,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "provenance": run_provenance(),
        **payload,
    }
    path = os.path.join(results_dir(), f"{experiment}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, default=str)
    return path


def load_results(pattern: str) -> list[tuple[str, dict]]:
    """``(path, record)`` of every JSON-object file matching ``pattern``.

    Reads back what :func:`save_results` (and ``bench_kernels.py``)
    wrote, for the report's bench-trajectory section.
    """
    found = []
    for path in sorted(glob.glob(pattern)):
        with open(path) as handle:
            record = json.load(handle)
        if isinstance(record, dict):
            found.append((path, record))
    return found


def bench_scale() -> float:
    """Dataset scale of the figure benchmarks: 0.35, or REPRO_BENCH_SCALE."""
    raw: Optional[str] = os.environ.get("REPRO_BENCH_SCALE")
    if raw is None:
        return 0.35
    value = float(raw)
    if value <= 0:
        raise ValueError(f"REPRO_BENCH_SCALE must be positive, got {raw!r}")
    return value


def bench_splits() -> int:
    """Train/test repetitions for averaged benchmarks (REPRO_BENCH_SPLITS).

    Default 1 keeps a full `pytest benchmarks/` run under an hour; set 2+
    to reproduce the paper's mean ± std over repeated partitions.
    """
    raw = os.environ.get("REPRO_BENCH_SPLITS")
    return int(raw) if raw else 1


#: ASQP-RL overrides for sweep figures (many trainings; ~3x faster each).
SWEEP_PROFILE = dict(
    n_iterations=16,
    early_stopping_patience=6,
    episodes_per_actor=1,
    action_space_target=500,
    n_candidate_rollouts=4,
)


def emit(experiment: str, headers, rows, payload: dict, title: str) -> None:
    """Print a benchmark table and persist JSON + text under bench_results/."""
    text = format_table(headers, rows, title=title)
    console()
    console(text)
    save_results(experiment, {**payload, "table": text})
    with open(os.path.join(results_dir(), f"{experiment}.txt"), "w") as handle:
        handle.write(text + "\n")


#: Plot area of :func:`ascii_chart`, in characters.
CHART_WIDTH, CHART_HEIGHT = 60, 12


def ascii_chart(series: dict, x_labels, title: str = "") -> str:
    """Render one or more numeric series as a plain-text line chart.

    ``series`` maps a name to a list of y-values (all the same length as
    ``x_labels``). Each series plots with its own marker; a legend maps
    markers back to names. Used by the figure benchmarks so the recorded
    ``bench_results/*.txt`` files carry the figure, not just the table.
    """
    markers = "ox+*#@%&"
    names = list(series)
    if not names:
        raise ValueError("ascii_chart needs at least one series")
    n_points = len(x_labels)
    for name in names:
        if len(series[name]) != n_points:
            raise ValueError(
                f"series {name!r} has {len(series[name])} points, "
                f"expected {n_points}"
            )
    all_values = [v for name in names for v in series[name]]
    lo, hi = min(all_values), max(all_values)
    if hi - lo < 1e-12:
        hi = lo + 1.0
    width, height = CHART_WIDTH, CHART_HEIGHT

    grid = [[" "] * width for _ in range(height)]
    for s, name in enumerate(names):
        marker = markers[s % len(markers)]
        for i, value in enumerate(series[name]):
            x = int(round(i * (width - 1) / max(1, n_points - 1)))
            y = int(round((value - lo) / (hi - lo) * (height - 1)))
            grid[height - 1 - y][x] = marker

    lines = []
    if title:
        lines.append(title)
    for r, row in enumerate(grid):
        if r == 0:
            label = f"{hi:8.3f} |"
        elif r == height - 1:
            label = f"{lo:8.3f} |"
        else:
            label = "         |"
        lines.append(label + "".join(row))
    lines.append("         +" + "-" * width)
    first, last = str(x_labels[0]), str(x_labels[-1])
    lines.append(
        "          " + first + " " * max(1, width - len(first) - len(last)) + last
    )
    legend = "   ".join(
        f"{markers[s % len(markers)]} {name}" for s, name in enumerate(names)
    )
    lines.append("          " + legend)
    return "\n".join(lines)
