"""Tests for the command-line interface (python -m repro)."""

import pytest

from repro import __main__ as cli
from repro import obs
from repro.__main__ import main


class TestCLI:
    def test_demo_runs(self, capsys):
        code = main([
            "demo", "--dataset", "flights", "--scale", "0.12",
            "--k", "100", "--iterations", "2", "--light", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "workload quality" in out

    def test_train_then_query(self, tmp_path, capsys):
        model_dir = str(tmp_path / "model")
        code = main([
            "train", "--dataset", "flights", "--scale", "0.12",
            "--k", "100", "--iterations", "2", "--light", "--seed", "1",
            "--out", model_dir,
        ])
        assert code == 0
        code = main([
            "query", "--model", model_dir, "--dataset", "flights",
            "--scale", "0.12",
            "--sql", "SELECT * FROM flights WHERE flights.month BETWEEN 1 AND 3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "rows from the" in out

    def test_unknown_dataset(self):
        with pytest.raises(SystemExit):
            main(["demo", "--dataset", "bogus"])

    @pytest.mark.parametrize("verb", ["demo", "train"])
    @pytest.mark.parametrize("flag, value, field", [
        ("--k", "0", "memory_budget"),
        ("--iterations", "-1", "n_iterations"),
    ])
    def test_bad_config_exits_before_loading_data(
        self, verb, flag, value, field, tmp_path, monkeypatch, capsys
    ):
        def no_data(name, scale):
            raise AssertionError("the dataset was loaded")

        monkeypatch.setattr(cli, "_load_bundle", no_data)
        argv = [verb, "--dataset", "flights", flag, value,
                "--telemetry", str(tmp_path / "run")]
        if verb == "train":
            argv += ["--out", str(tmp_path / "model")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = excinfo.value.code
        assert isinstance(message, str) and "\n" not in message
        assert field in message and value in message
        assert not (tmp_path / "run").exists()  # nothing recorded
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err

    def test_bench_without_results(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "empty"))
        assert main(["bench"]) == 1

    def test_bench_with_results(self, tmp_path, monkeypatch, capsys):
        directory = tmp_path / "res"
        directory.mkdir()
        (directory / "x.txt").write_text("TABLE CONTENT\n")
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(directory))
        assert main(["bench"]) == 0
        assert "TABLE CONTENT" in capsys.readouterr().out

    def test_help_lists_every_command_with_description(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for command in ("demo", "train", "query", "bench",
                        "stats", "trace", "explain", "report"):
            assert command in out
        assert "training, queries and hottest spans" in out
        assert "span tree" in out
        assert "operator tree" in out
        assert "diagnostic artifact" in out

    def test_unknown_subcommand_exits_2_with_command_list(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        for command in ("demo", "train", "query", "bench",
                        "stats", "trace", "explain", "report"):
            assert command in err

    def test_explain_estimate_only(self, capsys):
        code = main([
            "explain",
            "SELECT * FROM flights WHERE flights.month BETWEEN 1 AND 3",
            "--dataset", "flights", "--scale", "0.12",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("EXPLAIN:")
        assert "scan flights" in out
        assert "est=" in out
        assert "act=" not in out  # nothing was executed

    def test_explain_analyze_prefix_and_flag_agree(self, capsys):
        code = main([
            "explain",
            "EXPLAIN ANALYZE SELECT * FROM flights "
            "WHERE flights.month BETWEEN 1 AND 3",
            "--dataset", "flights", "--scale", "0.12",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("EXPLAIN ANALYZE:")
        assert "act=" in out and "q=" in out and "ms" in out

    def test_explain_json_output(self, capsys):
        import json

        code = main([
            "explain", "SELECT * FROM flights LIMIT 5",
            "--dataset", "flights", "--scale", "0.12",
            "--analyze", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analyze"] is True
        assert payload["plan"]["op"] == "limit"
        assert payload["max_q_error"] >= 1.0

    def test_report_on_empty_run_dir_exits_1(
        self, tmp_path, capsys, monkeypatch
    ):
        # An empty dir used to render a misleading all-empty report;
        # it now fails exactly like stats/trace/watch on a missing run.
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "nobench"))
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        code = main(["report", "--dir", str(run_dir)])
        assert code == 1
        assert "no observability run" in capsys.readouterr().out

    def test_report_on_recorded_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "nobench"))
        run_dir = tmp_path / "run"
        with obs.run(str(run_dir)):
            with obs.span("cli_test_phase"):
                pass
        code = main(["report", "--dir", str(run_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "report written to" in out
        report = (run_dir / "report.md").read_text()
        assert "# repro diagnostic report" in report
        assert "Slowest traces" in report

    @pytest.mark.parametrize("verb", ["demo", "train", "explain"])
    def test_telemetry_run_of_a_crashing_command_is_flushed(
        self, verb, tmp_path, monkeypatch
    ):
        def crash(*_args, **_kwargs):
            with obs.span("cli_test.crash"):
                raise RuntimeError("boom")

        monkeypatch.setattr(cli.ASQPTrainer, "train", crash)
        monkeypatch.setattr(cli, "db_explain", crash)
        run_dir = tmp_path / "run"
        argv = {
            "demo": ["demo"],
            "train": ["train", "--out", str(tmp_path / "model")],
            "explain": ["explain", "SELECT * FROM flights"],
        }[verb] + ["--dataset", "flights", "--scale", "0.12",
                   "--telemetry", str(run_dir)]
        with pytest.raises(RuntimeError, match="boom"):
            main(argv)
        assert (run_dir / "trace.json").is_file()
        assert "cli_test.crash" in (run_dir / "trace.json").read_text()
        assert not obs.STATE.enabled

    def test_profile_then_watch(self, tmp_path, capsys):
        run_dir = tmp_path / "prof"
        code = main([
            "profile", "--dir", str(run_dir), "demo",
            "--dataset", "flights", "--scale", "0.12", "--k", "100",
            "--frame-size", "20", "--iterations", "2", "--light",
            "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "profile.collapsed.txt" in out
        assert not (run_dir / "flamegraph.html").exists()
        assert not (run_dir / "traces.json").exists()
        assert (run_dir / "profile.collapsed.txt").stat().st_size > 0
        assert not (run_dir / "slo.json").exists()
        assert (run_dir / "memory.json").stat().st_size > 0

        code = main(["watch", "--dir", str(run_dir), "--once"])
        assert code == 0
        frame = capsys.readouterr().out
        assert "## Service-level objectives" in frame
        assert "query.p95 < 250ms" in frame  # the recorded objective
        assert "### Hot functions (self time)" in frame
        assert "### Samples by enclosing span" in frame
        assert "- traced: " in frame and "RSS" in frame  # the memory pane

    def test_profile_without_command_exits_2(self, capsys):
        assert main(["profile"]) == 2
        assert "usage: repro profile" in capsys.readouterr().out

    def test_profile_refuses_nesting(self, capsys):
        assert main(["profile", "profile", "demo"]) == 2
        assert "nested" in capsys.readouterr().out

    def test_stats_missing_run_dir_exits_1(self, tmp_path, capsys):
        assert main(["stats", "--dir", str(tmp_path / "nope")]) == 1
        assert "no observability run" in capsys.readouterr().out

    def test_trace_missing_run_dir_exits_1(self, tmp_path, capsys):
        assert main(["trace", "--dir", str(tmp_path / "nope")]) == 1
        assert "no observability run" in capsys.readouterr().out

    def test_analyze_missing_run_dir_exits_1(self, tmp_path, capsys):
        assert main(["analyze", "--dir", str(tmp_path / "nope")]) == 1
        assert "no observability run" in capsys.readouterr().out

    def test_diff_missing_run_dir_exits_1(self, tmp_path, capsys):
        assert main([
            "diff", str(tmp_path / "nope_a"), str(tmp_path / "nope_b"),
        ]) == 1
        assert "no observability run" in capsys.readouterr().out

    def _record_traced_run(self, run_dir):
        with obs.run(str(run_dir)):
            with obs.context.ensure():
                with obs.span("cli_analyze_probe"):
                    pass
                trace_id = obs.context.current_trace_id()
        return trace_id

    def test_analyze_round_trip(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        trace_id = self._record_traced_run(run_dir)
        assert main(["analyze", "--dir", str(run_dir), "--slowest", "1"]) == 0
        out = capsys.readouterr().out
        assert trace_id in out
        assert "critical path:" in out
        assert "1 traces (error ×0, low_quality ×0, slow ×0)" in out

        # prefix lookup resolves the same trace; unknown ids exit 1
        assert main([
            "analyze", "--dir", str(run_dir), "--trace", trace_id[:12],
        ]) == 0
        assert trace_id in capsys.readouterr().out
        assert main([
            "analyze", "--dir", str(run_dir), "--trace", "ffffffff",
        ]) == 1
        assert "not found" in capsys.readouterr().out

    def test_diff_run_against_itself_reports_no_regressions(
        self, tmp_path, capsys
    ):
        run_dir = tmp_path / "run"
        self._record_traced_run(run_dir)
        assert main(["diff", str(run_dir), str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "no regressions" in out
        assert "cli_analyze_probe" in out

    def test_trace_corrupt_artifact_exits_1_with_message(
        self, tmp_path, capsys
    ):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "trace.json").write_text("")  # half-written run
        assert main(["trace", "--dir", str(run_dir)]) == 1
        assert "unreadable run artifact" in capsys.readouterr().out

    def test_trace_wrong_shape_artifact_exits_1(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "trace.json").write_text("{}")
        assert main(["trace", "--dir", str(run_dir)]) == 1
        assert "expected a span list" in capsys.readouterr().out

    def test_help_lists_profile_and_watch(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "profile" in out
        assert "watch" in out
        assert "{demo,train,query,explain,report,bench,stats,trace," \
            "analyze,diff,profile,watch,audit}" in out  # 13 verbs
