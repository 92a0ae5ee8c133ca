"""Tests for the observability subsystem (repro.obs).

Covers the tracing spans (nesting, exception safety, thread-locality),
the telemetry streams (JSONL round-trip), the cache statistics,
and one end-to-end run: ``ASQPSystem.fit`` + queries under an enabled
observability run must produce a well-formed trace tree and a telemetry
JSONL whose ``train.update`` rows match ``UpdateStats`` fields, with
each fact in its row and no ``metrics.json``.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import obs
from repro.core import ASQPConfig, ASQPSystem
from repro.obs import telemetry, trace


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends disabled with empty state."""
    obs.disable()
    trace.reset()
    telemetry.reset()
    telemetry.configure(None)
    yield
    obs.disable()
    trace.reset()
    telemetry.reset()
    telemetry.configure(None)


# ------------------------------------------------------------------ #
# spans
# ------------------------------------------------------------------ #
class TestSpans:
    def test_disabled_span_is_falsy_noop(self):
        sp = trace.span("anything", attr=1)
        assert not sp
        with sp:
            sp.set(x=2)
            sp.count("rows", 5)
        assert trace.roots() == []
        assert trace.current() is None

    def test_nesting_builds_a_tree(self):
        obs.enable()
        with trace.span("outer", level=0) as outer:
            with trace.span("inner_a") as inner:
                inner.count("rows", 3)
                inner.count("rows", 4)
            with trace.span("inner_b"):
                pass
        roots = trace.roots()
        assert [r.name for r in roots] == ["outer"]
        assert [c.name for c in outer.children] == ["inner_a", "inner_b"]
        assert outer.children[0].counters["rows"] == 7.0
        assert outer.attrs == {"level": 0}
        assert outer.duration_s >= sum(c.duration_s for c in outer.children) >= 0

    def test_current_tracks_the_active_span(self):
        obs.enable()
        assert trace.current() is None
        with trace.span("a"):
            assert trace.current().name == "a"
            with trace.span("b"):
                assert trace.current().name == "b"
            assert trace.current().name == "a"
        assert trace.current() is None

    def test_exception_records_error_and_unwinds(self):
        obs.enable()
        with pytest.raises(ValueError, match="boom"):
            with trace.span("outer"):
                with trace.span("failing"):
                    raise ValueError("boom")
        (root,) = trace.roots()
        assert root.name == "outer"
        assert root.error and "boom" in root.error
        child = root.children[0]
        assert child.name == "failing"
        assert "ValueError" in child.error
        # The stack fully unwound: new spans are roots again.
        with trace.span("after"):
            pass
        assert [r.name for r in trace.roots()] == ["outer", "after"]

    def test_thread_local_stacks_do_not_interleave(self):
        obs.enable()
        barrier = threading.Barrier(2)
        errors: list[str] = []

        def worker(label: str) -> None:
            try:
                with trace.span(f"{label}.outer"):
                    barrier.wait(timeout=5)
                    with trace.span(f"{label}.inner"):
                        assert trace.current().name == f"{label}.inner"
                    barrier.wait(timeout=5)
            except Exception as exc:  # surface in the main thread
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=worker, args=(name,), name=name)
            for name in ("t1", "t2")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert errors == []
        roots = {r.name: r for r in trace.roots()}
        assert set(roots) == {"t1.outer", "t2.outer"}
        for label in ("t1", "t2"):
            assert [c.name for c in roots[f"{label}.outer"].children] == [
                f"{label}.inner"
            ]
            assert roots[f"{label}.outer"].thread_name == label

    def test_root_cap_keeps_latest(self):
        obs.enable()
        for i in range(trace.MAX_ROOTS + 10):
            with trace.span(f"s{i}"):
                pass
        roots = trace.roots()
        assert len(roots) == trace.MAX_ROOTS
        assert roots[-1].name == f"s{trace.MAX_ROOTS + 9}"

    def test_tree_and_chrome_export(self, tmp_path):
        obs.enable()
        with trace.span("parent", table="flights") as sp:
            sp.count("rows_out", 12)
            with trace.span("child"):
                pass
        tree = trace.tree()
        assert tree[0]["name"] == "parent"
        assert tree[0]["attrs"] == {"table": "flights"}
        assert tree[0]["children"][0]["name"] == "child"
        json.dumps(tree)  # JSON-serializable

        chrome = trace.chrome_trace()
        # Duration events plus one process_name metadata record.
        events = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in events} == {"parent", "child"}
        for event in events:
            assert event["dur"] >= 0
            assert event["pid"] == 1
        metadata = [e for e in chrome["traceEvents"] if e["ph"] == "M"]
        assert any(
            e["name"] == "process_name" and e["args"]["name"] == "repro (parent)"
            for e in metadata
        )
        parent = next(e for e in events if e["name"] == "parent")
        assert parent["args"]["rows_out"] == 12

        path = obs.rundir.write(
            str(tmp_path), "chrome_trace", trace.chrome_trace()
        )
        with open(path) as handle:
            assert json.load(handle)["traceEvents"]

    def test_format_tree_renders_depth_limited(self):
        obs.enable()
        with trace.span("a"):
            with trace.span("b"):
                with trace.span("c"):
                    pass
        text = trace.format_tree(max_depth=1)
        assert "a" in text and "b" in text and "c" not in text


# ------------------------------------------------------------------ #
# telemetry
# ------------------------------------------------------------------ #
class TestTelemetry:
    def test_disabled_emit_is_dropped(self, recorded):
        telemetry.emit("query", rows=1)
        assert recorded() == []

    def test_emit_records_and_filters(self, recorded):
        obs.enable()
        telemetry.emit("query", rows=1)
        telemetry.emit("train.update", iteration=0)
        telemetry.emit("query", rows=2)
        records = recorded()
        assert len(records) == 3
        assert [r["rows"] for r in records if r["stream"] == "query"] == [1, 2]
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs)

    def test_jsonl_sink_and_roundtrip(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        telemetry.configure(str(path))
        obs.enable()
        telemetry.emit("query", rows=3, sql="SELECT 1")
        telemetry.emit("log", event="hello")
        loaded = telemetry.load_jsonl(str(path))
        assert [r["stream"] for r in loaded] == ["query", "log"]
        assert loaded[0]["rows"] == 3
        assert [set(r) for r in loaded] == [
            {"stream", "seq", "ts", "rows", "sql"}, {"stream", "seq", "ts", "event"},
        ]


# ------------------------------------------------------------------ #
# end to end
# ------------------------------------------------------------------ #
class TestEndToEnd:
    def test_fit_and_query_produce_trace_and_telemetry(self, tmp_path, tiny_flights):
        from repro.rl.ppo import UpdateStats

        run_dir = tmp_path / "run"
        config = ASQPConfig(
            memory_budget=100,
            n_iterations=3,
            n_actors=2,
            episodes_per_actor=1,
            action_space_target=60,
            n_query_representatives=8,
            n_candidate_rollouts=2,
            learning_rate=1e-3,
            seed=21,
        )
        with obs.run(str(run_dir)) as run_path:
            session = ASQPSystem(config).fit(
                tiny_flights.db, tiny_flights.workload, auto_fine_tune=False
            )
            for query in list(tiny_flights.workload)[:3]:
                outcome = session.query(query)
                assert outcome.elapsed_seconds >= 0
        paths = {
            key: str(run_dir / obs.rundir.FILES[key])
            for key in ("telemetry", "trace", "chrome_trace")
        }
        assert run_path == str(run_dir)

        # --- trace tree: training root span with nested phases -------- #
        with open(paths["trace"]) as handle:
            tree = json.load(handle)
        names = {node["name"] for node in tree}
        assert "train" in names
        train = next(node for node in tree if node["name"] == "train")
        child_names = [c["name"] for c in train.get("children", [])]
        assert "train.preprocess" in child_names
        assert "train.loop" in child_names
        loop = next(c for c in train["children"] if c["name"] == "train.loop")
        grandchildren = {c["name"] for c in loop.get("children", [])}
        assert {"train.rollout", "train.update"} <= grandchildren
        # Session queries traced too, with executor operators below them.
        session_spans = [n for n in tree if n["name"] == "session.query"]
        assert len(session_spans) == 3
        flat: list[dict] = []

        def walk(node):
            flat.append(node)
            for child in node.get("children", []):
                walk(child)

        for node in tree:
            walk(node)
        executor_spans = [n for n in flat if n["name"] == "execute"]
        assert executor_spans and all(
            n.get("seconds", -1) >= 0 for n in executor_spans
        )

        # --- chrome trace is loadable and non-empty ------------------- #
        with open(paths["chrome_trace"]) as handle:
            chrome = json.load(handle)
        duration_events = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert len(duration_events) == len(flat)

        # --- telemetry JSONL: train.update rows match UpdateStats ----- #
        records = telemetry.load_jsonl(paths["telemetry"])
        updates = [r for r in records if r["stream"] == "train.update"]
        assert len(updates) == len(session.model.history)
        stats_fields = set(UpdateStats.__dataclass_fields__) - {"n_samples"}
        for row, record in zip(updates, session.model.history):
            assert stats_fields <= set(row)
            assert row["iteration"] == record.iteration
            assert row["mean_episode_reward"] == pytest.approx(
                record.mean_episode_reward
            )
            assert row["kl_divergence"] == pytest.approx(record.kl_divergence)
            assert row["clip_fraction"] == pytest.approx(record.clip_fraction)
            assert row["n_samples"] == record.n_samples > 0
            assert row["steps_per_second"] > 0

        # --- per-query outcome rows ----------------------------------- #
        outcomes = [r for r in records if r["stream"] == "query"]
        assert len(outcomes) == 3
        for row in outcomes:
            assert 0.0 <= row["confidence"] <= 1.0
            assert 0.0 <= row["realized_frame_score"] <= 1.0
            assert row["rows"] >= 0
            assert isinstance(row["used_approximation"], bool)

        # --- each fact in its row: no metrics.json -------------------- #
        assert not (run_dir / "metrics.json").exists()
        (estimator_row,) = [r for r in records if r["stream"] == "estimator"]
        assert (
            estimator_row["calibration_error"]
            == session.estimator.calibration_error()
        )
        assert [r["roots_dropped"] for r in records if r["stream"] == "trace"] == [0]

        # finish_run disabled everything again.
        assert not obs.STATE.enabled

    def test_run_training_loop_returns_records(self, tiny_flights):
        from repro.core.trainer import ASQPTrainer

        config = ASQPConfig(
            memory_budget=80,
            n_iterations=2,
            n_actors=1,
            episodes_per_actor=1,
            action_space_target=40,
            n_query_representatives=6,
            learning_rate=1e-3,
            seed=3,
        )
        model = ASQPTrainer(tiny_flights.db, tiny_flights.workload, config).train()
        assert model.history, "training must record iteration history"
        for record in model.history:
            assert record.n_samples > 0
            assert record.rollout_seconds > 0
            assert record.update_seconds > 0
            assert record.steps_per_second > 0
