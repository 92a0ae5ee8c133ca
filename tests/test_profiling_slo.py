"""Tests for continuous profiling, SLO tracking, and telemetry retention.

Covers the sampling profiler (collapsed stacks, span attribution, the
unique-stack cap, the rate check), the tracemalloc memory tracker
(epoch growth, leak verdicts, inactive no-ops), the declarative SLO
layer (spec parsing, the status fold over a run's recorded rows and the
health alerts built from it), telemetry rotation boundaries (byte cap,
exact line cap, replay across the rotated set), and the ``obs.run``
context manager's flush-on-exception guarantee.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.obs import (
    health,
    memory,
    profiler,
    slo,
    telemetry,
    trace,
)


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends disabled with empty state."""

    def scrub():
        profiler.stop()
        memory.stop()
        obs.disable()
        trace.reset()
        telemetry.reset()
        telemetry.configure(None)

    scrub()
    yield
    scrub()


def _slo_run(specs, rows=()) -> obs.rundir.Run:
    """A hand-built run: one ``slo`` row per spec, then ``rows``."""
    return obs.rundir.Run(
        "mem",
        records=[{"stream": "slo", "spec": spec} for spec in specs] + list(rows),
    )


def _queries(*seconds) -> list[dict]:
    return [{"stream": "query", "elapsed_seconds": s} for s in seconds]


def _severities(run) -> list[tuple[str, str]]:
    return [(a.severity, a.rule) for a in health.alerts(run)]


def _busy_loop(seconds: float) -> int:
    from repro.obs.clock import perf_counter

    deadline = perf_counter() + seconds
    total = 0
    while perf_counter() < deadline:
        total += sum(range(128))
    return total


def _shape_a() -> int:
    return sum(range(256))


def _shape_b() -> int:
    return sum(range(256))


def _busy_two_shapes(seconds: float) -> int:
    """Busy loop whose sampled leaf frame alternates between two shapes."""
    from repro.obs.clock import perf_counter

    deadline = perf_counter() + seconds
    total = 0
    while perf_counter() < deadline:
        total += _shape_a() + _shape_b()
    return total


# ------------------------------------------------------------------ #
# sampling profiler
# ------------------------------------------------------------------ #
class TestSamplingProfiler:
    def test_collapsed_stacks_and_artifacts(self, tmp_path):
        prof = profiler.SamplingProfiler(hz=400)
        prof.start()
        _busy_loop(0.3)
        prof.stop()
        assert prof.sample_count > 10
        collapsed = prof.collapsed()
        assert collapsed
        # Every line is `frame;frame;... count`.
        for line in collapsed.splitlines():
            stack_text, _, count_text = line.rpartition(" ")
            assert stack_text and count_text.isdigit()
        # The busy loop's own frame shows up somewhere.
        assert "_busy_loop" in collapsed

    @pytest.mark.parametrize("hz", [float("nan"), float("inf"), 0.0, -5.0])
    def test_rate_must_be_finite_and_positive(self, hz):
        # A NaN rate used to survive the clamp and spin the sampler thread.
        with pytest.raises(ValueError, match="finite and > 0"):
            profiler.SamplingProfiler(hz=hz)

    def test_parse_collapsed_round_trip(self):
        prof = profiler.SamplingProfiler(hz=400)
        prof.start()
        _busy_loop(0.2)
        prof.stop()
        parsed = profiler.parse_collapsed(prof.collapsed())
        assert parsed == prof.stack_counts()

    def test_samples_attributed_to_active_span(self):
        obs.enable()
        prof = profiler.SamplingProfiler(hz=400)
        prof.start()
        with trace.span("unit.work"):
            _busy_loop(0.3)
        prof.stop()
        spans = profiler.span_samples_of(prof.stack_counts())
        assert spans.get("unit.work", 0) > 0
        # And the collapsed text carries the span frame at stack root.
        assert "span:unit.work;" in prof.collapsed()

    def test_hot_functions_rank_the_busy_frame(self):
        prof = profiler.SamplingProfiler(hz=400)
        prof.start()
        _busy_loop(0.3)
        prof.stop()
        hot = profiler.hot_functions_of(prof.stack_counts())
        assert hot
        frames = [frame for frame, _, _ in hot]
        assert any("_busy_loop" in frame or "sum" in frame for frame in frames)
        fractions = [fraction for _, _, fraction in hot]
        assert all(0.0 <= fraction <= 1.0 for fraction in fractions)
        assert fractions == sorted(fractions, reverse=True)

    def test_unique_stack_cap_aggregates_overflow(self, monkeypatch):
        monkeypatch.setattr(profiler, "MAX_UNIQUE_STACKS", 1)
        prof = profiler.SamplingProfiler(hz=500)
        prof.start()
        # The two leaf shapes guarantee >1 distinct sampled stack, so
        # everything past the first shape must fold into (overflow).
        _busy_two_shapes(0.4)
        prof.stop()
        counts = prof.stack_counts()
        assert len(counts) <= profiler.MAX_UNIQUE_STACKS + 1
        assert prof.dropped_stacks > 0
        assert counts.get((profiler.OVERFLOW_FRAME,), 0) == prof.dropped_stacks

    def test_module_singleton_start_stop(self):
        first = profiler.start()
        assert profiler.is_active()
        assert profiler.start() is first  # idempotent
        stopped = profiler.stop()
        assert stopped is first
        assert not profiler.is_active()
        assert profiler.stop() is None


# ------------------------------------------------------------------ #
# memory tracker
# ------------------------------------------------------------------ #
class TestMemoryTracker:
    def test_inactive_mark_epoch_is_noop(self):
        assert not memory.is_active()
        assert memory.mark_epoch("anything") == 0

    def test_epoch_growth_and_summary_figures(self):
        obs.enable()
        memory.start()
        blocks = [bytes(4096) for _ in range(16)]
        memory.mark_epoch("unit.phase")
        blocks.extend(bytes(4096) for _ in range(16))
        growth = memory.mark_epoch("unit.phase")
        assert growth > 0
        # Traced bytes and RSS are read once per summary, not per mark.
        summary = memory.active().summary()
        memory.stop()
        assert summary["current_kb"] > 0 and summary["rss_kb"] > 0
        assert blocks  # keep the allocations alive until here

    def test_leak_check_flags_monotone_growth(self):
        tracker = memory.MemoryTracker()
        tracker.start()
        hoard = []
        for _ in range(5):
            hoard.append(bytes(64 * 1024))
            tracker.mark_epoch("leaky")
        verdict = tracker.leak_check("leaky")
        assert verdict["suspect"] is True
        assert verdict["growth_bytes"] > 0
        tracker.stop()
        assert hoard

    def test_leak_check_verdict_logic(self):
        from collections import deque

        tracker = memory.MemoryTracker()
        # Flat and shrinking histories are not suspects; too few epochs
        # never are, regardless of shape.
        tracker._epochs["flat"] = deque([1000, 1000, 1000, 1000, 1000])
        assert tracker.leak_check("flat")["suspect"] is False
        tracker._epochs["shrinking"] = deque([5000, 4000, 3000, 2000])
        assert tracker.leak_check("shrinking")["suspect"] is False
        tracker._epochs["young"] = deque([1000, 2000])
        assert tracker.leak_check("young")["suspect"] is False
        tracker._epochs["growing"] = deque([1000, 2000, 3000, 4000])
        verdict = tracker.leak_check("growing")
        assert verdict["suspect"] is True
        assert verdict["growth_bytes"] == 3000

    def test_summary_and_json(self, tmp_path):
        tracker = memory.MemoryTracker()
        tracker.start()
        data = [bytes(8192) for _ in range(8)]
        tracker.mark_epoch("phase")
        doc = json.loads(json.dumps(tracker.summary(), default=str))
        tracker.stop()
        assert doc["tracing"] is True
        assert doc["current_kb"] > 0
        assert "phase" in doc["epochs"]
        assert isinstance(doc["top_allocators"], list)
        assert data

    def test_phase_table_is_bounded(self):
        tracker = memory.MemoryTracker()
        tracker.start()
        for i in range(memory.MAX_PHASES + 10):
            tracker.mark_epoch(f"phase_{i}")
        assert len(tracker._epochs) <= memory.MAX_PHASES
        tracker.stop()


# ------------------------------------------------------------------ #
# SLO parsing
# ------------------------------------------------------------------ #
class TestObjectiveParsing:
    def test_latency_spec_with_alias_and_unit(self):
        objective = slo.parse_objective("query.p95 < 250ms")
        assert objective.metric == "session.query.seconds"
        assert objective.agg == "p95"
        assert objective.op == "<"
        assert objective.threshold == pytest.approx(0.25)
        assert objective.target == pytest.approx(0.99)
        assert objective.windowed

    def test_gauge_spec(self):
        objective = slo.parse_objective("estimator.calibration_error < 0.1")
        assert objective.agg == "value"
        assert not objective.windowed
        assert objective.metric == "estimator.calibration_error"

    def test_explicit_target_and_units(self):
        objective = slo.parse_objective("query.p99 <= 1500us @ 99.9%")
        assert objective.metric == "session.query.seconds"
        assert objective.agg == "p99"
        assert objective.threshold == pytest.approx(0.0015)
        assert objective.target == pytest.approx(0.999)

    def test_bad_specs_raise(self):
        with pytest.raises(ValueError):
            slo.parse_objective("not a spec")
        with pytest.raises(ValueError):
            slo.parse_objective("query.p95 < 250ms @ 150%")

    @pytest.mark.parametrize("spec", [
        "query.p95 < 1.2.3ms",      # not a number
        "query.p95 < .",
        "query.p95 < 250ms @ 9.9.9%",
        "query < 250ms",            # recorded samples need an aggregate
        "recall > 0.85",
    ])
    def test_outside_input_is_unparseable(self, spec):
        with pytest.raises(ValueError, match="unparseable SLO spec"):
            slo.parse_objective(spec)

    def test_compliance_operators(self):
        lt = slo.parse_objective("m.p50 < 1")
        assert lt.complies(0.5) and not lt.complies(1.0)
        ge = slo.parse_objective("coverage >= 0.9")
        assert ge.complies(0.95) and not ge.complies(0.5)


# ------------------------------------------------------------------ #
# SLO burn-rate alerting
# ------------------------------------------------------------------ #
class TestSLOFold:
    def test_violated_latency_slo_raises_crit_health_alert(self):
        """Pinned: a sustained gross violation must read CRIT in health."""
        run = _slo_run(["query.p95 < 10ms"], _queries(*[0.5] * 20))
        alerts = health.alerts(run)
        assert [(a.severity, a.rule) for a in alerts] == [
            (health.CRIT, "slo_burn")
        ]
        assert alerts[0].value == pytest.approx(0.5)
        assert alerts[0].threshold == pytest.approx(0.01)

    def test_within_budget_run_stays_quiet(self):
        run = _slo_run(["query.p95 < 250ms"], _queries(*[0.01] * 50))
        assert _severities(run) == []
        (status,) = slo.statuses(run)
        assert status["ok"] and status["severity"] is None
        assert status["burn_rate"] == 0.0
        assert status["n_samples"] == 50

    def test_min_samples_gate_blocks_early_alerts(self):
        bad = [0.5] * slo.MIN_SAMPLES
        assert _severities(_slo_run(["query.p95 < 10ms"], _queries(*bad[1:]))) == []
        assert _severities(_slo_run(["query.p95 < 10ms"], _queries(*bad))) == [
            (health.CRIT, "slo_burn")
        ]

    def test_burn_thresholds(self):
        # target 90%: budget 0.1; 3 of 10 bad = 3x (WARN), 10 of 10 = 10x.
        spec = ["query.p50 < 10ms @ 90%"]
        assert _severities(_slo_run(spec, _queries(*[0.001] * 9, 0.5))) == []
        assert _severities(_slo_run(spec, _queries(*[0.001] * 7, *[0.5] * 3))) == [
            (health.WARN, "slo_burn")
        ]
        assert _severities(_slo_run(spec, _queries(*[0.5] * 10))) == [
            (health.CRIT, "slo_burn")
        ]

    def test_windows_are_the_last_256_and_32_samples(self):
        """300 rows: 44 bad ones drop out of the slow window, and the
        fast window holds exactly the trailing 32 bad ones."""
        assert (slo.WINDOW, slo.FAST_WINDOW) == (256, 32)
        seconds = [0.5] * 44 + [0.001] * 224 + [0.5] * 32
        (status,) = slo.statuses(_slo_run(["query.p95 < 10ms"], _queries(*seconds)))
        assert status["n_samples"] == 256
        assert status["bad_fraction"] == 32 / 256
        assert status["fast_bad_fraction"] == 1.0
        assert status["burn_rate"] == pytest.approx(12.5)
        assert status["fast_burn_rate"] == pytest.approx(100.0)
        assert status["severity"] == health.CRIT

    def test_each_source_reads_its_rows(self):
        rows = [
            {"stream": "train.update", "rollout_seconds": 2.0, "update_seconds": 0.5},
            {"stream": "quality", "kind": "audit", "recall": 0.25,
             "agg_rel_error": None},
            {"stream": "quality", "kind": "audit", "recall": 0.75,
             "agg_rel_error": 0.125},
            *_queries(0.003),
        ]
        run = _slo_run([
            "train.rollout.max < 1s", "train.update.max < 1s",
            "recall.mean > 0.9", "agg_rel_error.mean < 0.1",
            "query.max < 1ms", "executor.p95 < 200ms",
        ], rows)
        assert [(s["value"], s["n_samples"]) for s in slo.statuses(run)] == [
            (2.0, 1), (0.5, 1), (0.5, 2), (0.125, 1), (0.003, 1), (None, 0),
        ]

    def test_gauge_objective_warn_and_crit(self):
        spec = ["estimator.calibration_error < 0.1"]
        for value, severity in ((0.05, None), (0.15, health.WARN), (0.25, health.CRIT)):
            # The last ``estimator`` row is the gauge's value.
            run = _slo_run(spec, [
                {"stream": "estimator", "calibration_error": 0.9},
                {"stream": "estimator", "calibration_error": value},
            ])
            (status,) = slo.statuses(run)
            assert (status["value"], status["severity"]) == (value, severity)
            expected = [(severity, "slo_violation")] if severity else []
            assert _severities(run) == expected
        (unset,) = slo.statuses(_slo_run(spec))
        assert (unset["value"], unset["n_samples"]) == (None, 0)

    def test_reads_the_parent_status_rows(self):
        """Older runs recorded a status row per objective at every flush;
        each still names its objective once, and nothing else is read."""
        status_row = {
            "stream": "slo", "name": "executor.p95", "spec": "executor.p95 < 200ms",
            "metric": "executor.query.seconds", "threshold": 0.2, "n_samples": 10,
            "value": 0.002, "ok": True, "burn_rate": 0.0, "severity": "CRIT",
            "exemplar_trace_ids": ["ab" * 16],
        }
        run = obs.rundir.Run("mem", records=[
            status_row,
            {**status_row, "name": "query.p95", "spec": "query.p95 < 250ms"},
            *_queries(0.002, 0.004),
            status_row,
        ])
        assert [o.spec for o in slo.objectives(run)] == [
            "executor.p95 < 200ms", "query.p95 < 250ms",
        ]
        executor, query = slo.statuses(run)
        assert (executor["n_samples"], executor["value"]) == (0, None)
        assert executor["exemplar_trace_ids"] == []
        assert (query["n_samples"], query["value"]) == (2, 0.004)
        assert health.alerts(run) == []

    def test_configure_records_one_spec_row_per_objective(self, recorded):
        obs.enable()
        specs = ["query.p95 < 250ms", " estimator.calibration_error < 0.1 "]
        assert [o.spec for o in slo.configure(specs)] == [s.strip() for s in specs]
        records = recorded()
        assert [
            {k: r[k] for k in ("stream", "spec")} for r in records
        ] == [{"stream": "slo", "spec": s.strip()} for s in specs]
        assert all(set(r) == {"stream", "seq", "ts", "spec"} for r in records)
        with pytest.raises(ValueError, match="unparseable SLO spec"):
            slo.configure(["query.p95 < 250ms", "query < 250ms"])
        assert recorded() == records


# ------------------------------------------------------------------ #
# telemetry rotation
# ------------------------------------------------------------------ #
class TestTelemetryRotation:
    def _emit(self, n, payload="x" * 40):
        for i in range(n):
            telemetry.emit("unit", index=i, payload=payload)

    def test_byte_cap_rotates_and_deletes_beyond_max_files(
        self, tmp_path, monkeypatch
    ):
        obs.enable()
        monkeypatch.setattr(telemetry, "MAX_BYTES", 400)
        monkeypatch.setattr(telemetry, "MAX_FILES", 3)
        path = str(tmp_path / "telemetry.jsonl")
        telemetry.configure(path)
        self._emit(60)
        names = sorted(os.listdir(tmp_path))
        assert "telemetry.jsonl" in names
        assert "telemetry.1.jsonl" in names
        # Never more than max_files rotated siblings + the active file.
        assert len(names) <= 4
        for name in names:
            assert os.path.getsize(tmp_path / name) <= 400 + 120

    def test_record_exactly_at_cap_stays_then_next_rotates(
        self, tmp_path, monkeypatch
    ):
        obs.enable()
        # Pin the wall clock so every record serializes to the same size
        # (a float timestamp's repr length varies from call to call).
        monkeypatch.setattr(telemetry.time, "time", lambda: 1700000000.0)
        path = str(tmp_path / "telemetry.jsonl")
        # Measure one record's serialized size, then cap at exactly two.
        telemetry.configure(path)
        telemetry.emit("unit", index=0, payload="y" * 10)
        record_size = os.path.getsize(path)
        monkeypatch.setattr(telemetry, "MAX_BYTES", 2 * record_size)
        telemetry.configure(path)
        telemetry.reset()
        self._emit(2, payload="y" * 10)
        # Two records == exactly the cap: no rotation yet.
        assert not os.path.exists(str(tmp_path / "telemetry.1.jsonl"))
        assert len(telemetry.load_jsonl(path)) == 2
        self._emit(1, payload="y" * 10)
        # The third record tripped the rotation and opened a fresh file.
        assert os.path.exists(str(tmp_path / "telemetry.1.jsonl"))
        assert len(telemetry.load_jsonl(path)) == 1

    def test_oversized_first_record_is_never_dropped(self, tmp_path, monkeypatch):
        obs.enable()
        monkeypatch.setattr(telemetry, "MAX_BYTES", 50)
        path = str(tmp_path / "telemetry.jsonl")
        telemetry.configure(path)
        telemetry.emit("unit", payload="z" * 500)  # alone exceeds the cap
        records = telemetry.load_jsonl(path)
        assert len(records) == 1 and records[0]["payload"] == "z" * 500

    def test_load_run_reads_rotated_set_oldest_first(self, tmp_path, monkeypatch):
        obs.enable()
        # Every record opens a file of its own.
        monkeypatch.setattr(telemetry, "MAX_BYTES", 1)
        monkeypatch.setattr(telemetry, "MAX_FILES", 16)
        path = str(tmp_path / "telemetry.jsonl")
        telemetry.configure(path)
        self._emit(11)
        combined = telemetry.load_run(path)
        assert [r["index"] for r in combined] == list(range(11))
        assert [r["seq"] for r in combined] == sorted(
            r["seq"] for r in combined
        )
        parts = telemetry.rotated_paths(path)
        assert parts[-1] == path and len(parts) == 11

    def test_health_replay_sees_records_across_rotation(
        self, tmp_path, monkeypatch
    ):
        obs.enable()
        # Every record opens a file of its own.
        monkeypatch.setattr(telemetry, "MAX_BYTES", 1)
        monkeypatch.setattr(telemetry, "MAX_FILES", 16)
        path = str(tmp_path / "telemetry.jsonl")
        telemetry.configure(path)
        base = dict(
            mean_episode_reward=1.0, policy_loss=0.1, value_loss=0.1,
            entropy=1.0, clip_fraction=0.1, explained_variance=0.5,
            grad_norm=1.0,
        )
        for i in range(6):
            telemetry.emit("train.update", iteration=i, kl_divergence=0.01,
                           **base)
        telemetry.emit("train.update", iteration=6, kl_divergence=5.0, **base)
        run = obs.rundir.Run("rotated", records=telemetry.load_run(path))
        crits = [a for a in health.alerts(run) if a.severity == health.CRIT]
        assert any(a.rule == "kl_spike" and a.iteration == 6 for a in crits)

    def test_configure_clears_stale_rotations_only(self, tmp_path, monkeypatch):
        obs.enable()
        monkeypatch.setattr(telemetry, "MAX_BYTES", 1)
        path = str(tmp_path / "telemetry.jsonl")
        telemetry.configure(path)
        self._emit(4)
        unrelated = tmp_path / "telemetry.backup.jsonl"
        unrelated.write_text("{}\n")
        telemetry.configure(path)
        names = sorted(os.listdir(tmp_path))
        assert names == ["telemetry.backup.jsonl", "telemetry.jsonl"]
        assert os.path.getsize(tmp_path / "telemetry.jsonl") == 0

    def test_concurrent_writers_never_interleave_partial_lines(
        self, tmp_path, monkeypatch
    ):
        # Two forked processes append to the same sink while it rotates.
        # The in-process lock cannot coordinate them — the O_APPEND
        # single-write discipline in ``emit`` must (a buffered text
        # handle splits payloads past its 8 KiB buffer, so the large
        # payload below would interleave under the old write path).
        # Concurrent rotation renames may clobber *whole files*, so the
        # assertions are about line atomicity, not record counts.
        obs.enable()
        path = str(tmp_path / "telemetry.jsonl")
        monkeypatch.setattr(telemetry, "MAX_BYTES", 64_000)
        monkeypatch.setattr(telemetry, "MAX_FILES", 32)
        telemetry.configure(path)

        import multiprocessing as mp

        context = mp.get_context("fork")

        def hammer(marker: str) -> None:
            # Fork children inherit the configured sink + enabled state.
            payload = marker * 20_000  # ≫ the 8 KiB stdio buffer
            for index in range(12):
                try:
                    telemetry.emit(
                        "writer", marker=marker, index=index, payload=payload
                    )
                except FileNotFoundError:
                    # Lost a rotation rename race with the sibling
                    # writer — out of scope here; keep appending.
                    continue
            os._exit(0)

        children = [
            context.Process(target=hammer, args=(marker,))
            for marker in ("A", "B")
        ]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=60)
            assert child.exitcode == 0

        paths = [tmp_path / name for name in os.listdir(tmp_path)]
        assert len(paths) > 1  # rotation happened under contention
        markers_seen = set()
        for file_path in paths:
            raw = file_path.read_bytes()
            assert raw.endswith(b"\n") or raw == b""
            for line in raw.splitlines():
                record = json.loads(line)  # every line is complete JSON
                assert record["payload"] == record["marker"] * 20_000
                markers_seen.add(record["marker"])
        assert markers_seen == {"A", "B"}


# ------------------------------------------------------------------ #
# obs.run context manager
# ------------------------------------------------------------------ #
class TestRunContextManager:
    def test_artifacts_flush_even_when_the_block_raises(self, tmp_path):
        run_dir = str(tmp_path / "run")
        with pytest.raises(RuntimeError, match="boom"):
            with obs.run(run_dir):
                with trace.span("doomed.work"):
                    telemetry.emit("unit", step=1)
                    raise RuntimeError("boom")
        # Everything the run recorded before the crash is on disk.
        assert not obs.STATE.enabled
        recorded = obs.rundir.load(run_dir)
        assert recorded.stream("unit")
        doomed = next(n for n in recorded.trace if n["name"] == "doomed.work")
        assert "RuntimeError" in doomed.get("error", "")

    def test_run_tears_down_profiler_memory_slo_on_exception(self, tmp_path):
        run_dir = str(tmp_path / "run")
        with pytest.raises(ValueError):
            with obs.run(
                run_dir,
                profile=True,
                memory_tracking=True,
                slo_objectives=["query.p95 < 250ms"],
            ):
                assert profiler.is_active()
                assert memory.is_active()
                raise ValueError("abandon run")
        assert not profiler.is_active()
        assert not memory.is_active()
        assert not obs.STATE.enabled
        for name in ("profile.collapsed.txt", "memory.json"):
            assert os.path.exists(os.path.join(run_dir, name))
        assert not os.path.exists(os.path.join(run_dir, "slo.json"))
        recorded = obs.rundir.load(run_dir)
        assert [o.spec for o in slo.objectives(recorded)] == ["query.p95 < 250ms"]

    def test_unparseable_objective_leaves_observability_off(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(ValueError, match="unparseable SLO spec"):
            with obs.run(str(run_dir), slo_objectives=["query.p95 < bogus"]):
                pass
        assert not obs.STATE.enabled
        telemetry.emit("late", step=1)
        assert not (run_dir / "telemetry.jsonl").exists()

    def test_profiled_session_run_attributes_executor_work(self, tiny_flights):
        """End to end: executor kernels appear in a profiled run's stacks."""
        from repro.db.executor import execute

        prof = profiler.SamplingProfiler(hz=400)
        obs.enable()
        prof.start()
        queries = list(tiny_flights.workload)[:4]
        from repro.obs.clock import perf_counter

        deadline = perf_counter() + 0.8
        while perf_counter() < deadline:
            for query in queries:
                execute(tiny_flights.db, query)
        prof.stop()
        collapsed = prof.collapsed()
        assert "repro/db/executor.py" in collapsed
        spans = profiler.span_samples_of(prof.stack_counts())
        executor_samples = sum(
            count for name, count in spans.items() if name.startswith("execute")
        )
        assert executor_samples > 0
