"""Per-query accounting and the ``repro watch`` console (DESIGN.md §11).

Covers the ``QueryStats`` envelope (wall vs cpu, rows scanned →
produced) on ``ResultSet`` and in EXPLAIN ANALYZE, the ``repro watch``
ops console, and the Chrome-trace export.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.db import (
    Database,
    QueryStats,
    execute,
    explain,
    sql,
)
from repro.obs import telemetry, trace
from repro.obs.report import render_watch

from tests.test_columnstore import make_table

N_ROWS = 6_000


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test: obs off, empty state."""

    def scrub():
        obs.disable()
        trace.reset()
        telemetry.reset()
        telemetry.configure(None)

    scrub()
    yield
    scrub()


def run_scan(seed=41, where="score > 10 AND city != 'drab'"):
    table = make_table(seed=seed, n=N_ROWS)
    db = Database([table])
    return execute(db, sql(f"SELECT city, score, temp FROM t WHERE {where}"))


# ------------------------------------------------------------------ #
# QueryStats envelope
# ------------------------------------------------------------------ #
class TestQueryStats:
    def test_stats_attached_serial(self):
        obs.enable()
        result = run_scan()
        stats = result.stats
        assert isinstance(stats, QueryStats)
        assert stats.wall_seconds > 0.0
        assert stats.rows_scanned == N_ROWS
        assert stats.rows_produced == result.n_rows
        assert 0.0 <= stats.cpu_seconds

    def test_explain_analyze_renders_stats_footer(self):
        obs.enable()
        table = make_table(seed=44, n=N_ROWS)
        db = Database([table])
        plan = explain(db, sql("SELECT city FROM t WHERE score > 10"), analyze=True)
        assert plan.query_stats is not None
        assert plan.query_stats["rows_scanned"] == N_ROWS
        assert "timing: wall=" in plan.format()

    def test_stats_without_obs_are_not_collected(self):
        result = run_scan()
        assert result.stats is None


# ------------------------------------------------------------------ #
# repro watch
# ------------------------------------------------------------------ #
class TestWatchConsole:
    def _run_dir_with_traffic(self, tmp_path):
        obs.enable()
        telemetry.configure(str(tmp_path / "telemetry.jsonl"))
        run_scan()
        telemetry.emit("query", elapsed_seconds=0.01, n_rows=10)
        return str(tmp_path)

    def test_render_watch_frames_traffic(self, tmp_path):
        run_dir = self._run_dir_with_traffic(tmp_path)
        frame = render_watch(obs.rundir.load(run_dir))
        assert "1 queries" in frame
        assert "No SLOs in this run" in frame
        assert "(0 CRIT, 0 WARN)" in frame

    def test_render_watch_is_deterministic_for_a_finished_run(self, tmp_path):
        run_dir = self._run_dir_with_traffic(tmp_path)
        frames = [render_watch(obs.rundir.load(run_dir)) for _ in range(2)]
        assert frames[0] == frames[1]

    def test_render_watch_empty_dir(self, tmp_path):
        # Nothing recorded yet: every section says so instead of failing.
        frame = render_watch(obs.rundir.Run(str(tmp_path)))
        assert "No routed queries in this run." in frame
        assert "No retained traces in this run" in frame
        assert frame.endswith("## Last events\n\nNo records yet.")

    def test_cli_watch_once(self, tmp_path, capsys):
        run_dir = self._run_dir_with_traffic(tmp_path)
        # Scrub module state before re-entering via the CLI path.
        obs.disable()
        from repro.__main__ import main

        assert main(["watch", "--dir", run_dir, "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro watch" in out and "- rate: 1 queries" in out

    @pytest.mark.parametrize("stamps,line", [
        # A run shorter than the window: its own span, not 60 s.
        ([100.0, 100.5, 102.0], "- rate: 3 queries in the trailing 2 s (1.50 qps)"),
        # A longer one: the trailing 60 s of record time.
        ([0.0, 100.0, 130.0, 160.0], "- rate: 3 queries in the trailing 60 s (0.05 qps)"),
        # A window covering no time has no rate.
        ([5.0, 5.0], "- rate: 2 queries in the trailing 0 s (- qps)"),
    ])
    def test_rate_divides_by_the_seconds_its_window_covers(self, stamps, line):
        run = obs.rundir.Run("synthetic", records=[
            {"stream": "query", "ts": ts, "elapsed_seconds": 0.001} for ts in stamps
        ])
        assert line in render_watch(run).splitlines()

    def test_cli_watch_missing_dir(self, tmp_path, capsys):
        assert main_watch_missing(str(tmp_path / "nope"), capsys) != 0


def main_watch_missing(run_dir, capsys):
    from repro.__main__ import main

    status = main(["watch", "--dir", run_dir, "--once"])
    capsys.readouterr()
    return status


# ------------------------------------------------------------------ #
# repro report / stats surface
# ------------------------------------------------------------------ #
class TestReportSurface:
    def test_chrome_trace_roundtrips_through_json(self):
        obs.enable()
        run_scan()
        doc = json.loads(json.dumps(trace.chrome_trace()))
        assert doc["displayTimeUnit"] == "ms"
        assert any(e.get("ph") == "M" for e in doc["traceEvents"])
