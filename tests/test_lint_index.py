"""Tests for the lint engine around the rule pack (repro.lint).

Covers the two sink-chokepoint rules against deliberately-violating
fixture packages, the content-hash cache (hit/invalidate-on-edit), the
v2 baseline fingerprints with v1 migration, the relaxed
tests/benchmarks profiles, and the sarif/html output formats.
"""

import json
from pathlib import Path

from repro.lint import run_lint
from repro.lint.cli import run as lint_cli_run
from repro.lint.engine import load_baseline, write_baseline
from repro.lint.index import LintCache, line_hash

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_package(root, modules):
    """Write ``{relative_path: source}`` under root; return root."""
    for relative, source in modules.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


def findings_for(root, rule):
    report = run_lint([str(root)], None)
    return [f for f in report.findings if f.rule == rule]


#: A four-module package whose one violation (an append-mode open
#: outside the telemetry sink) sits in ``helpers.py``.
FIXTURE = {
    "proj/driver.py": (
        "from .tasks import run_task\n"
        "\n"
        "def run(payloads):\n"
        "    return [run_task(payload) for payload in payloads]\n"
    ),
    "proj/tasks.py": (
        "from . import helpers\n"
        "\n"
        "def run_task(payload):\n"
        "    return helpers.accumulate(payload)\n"
    ),
    "proj/helpers.py": (
        "def accumulate(payload):\n"
        "    with open('totals.log', 'a') as handle:\n"
        "        handle.write(str(payload))\n"
        "    return dict(payload)\n"
    ),
    "proj/obs/telemetry.py": (
        "def emit(stream, **fields):\n"
        "    return stream\n"
    ),
}


class TestTelemetrySinkRule:
    def test_direct_append_write_is_flagged(self, tmp_path):
        root = write_package(tmp_path, {
            "mod.py": (
                "import os\n"
                "\n"
                "def log_line(path, text):\n"
                "    with open(path, 'a') as handle:\n"
                "        handle.write(text)\n"
                "    fd = os.open(path, os.O_WRONLY | os.O_APPEND)\n"
                "    os.write(fd, text.encode())\n"
                "    os.close(fd)\n"
                "\n"
                "def outer(path):\n"
                "    def inner(text):\n"
                "        return open(path, mode='ab').write(text)\n"
                "    return inner\n"
            ),
        })
        findings = findings_for(root, "telemetry-sink-only")
        kinds = sorted(f.message.split("(")[1].split(")")[0]
                       for f in findings)
        # open-a, os.open(O_APPEND), os.write, and the nested open-ab
        assert [f.line for f in findings] == [4, 6, 7, 12]
        assert any("os.write" in k for k in kinds)

    def test_telemetry_module_itself_is_exempt(self, tmp_path):
        root = write_package(tmp_path, {
            "obs/telemetry.py": (
                "import os\n"
                "\n"
                "def sink(fd, payload):\n"
                "    os.write(fd, payload)\n"
            ),
        })
        assert not findings_for(root, "telemetry-sink-only")

    def test_read_and_write_modes_are_clean(self, tmp_path):
        root = write_package(tmp_path, {
            "mod.py": (
                "def rewrite(path, text):\n"
                "    with open(path, 'w') as handle:\n"
                "        handle.write(text)\n"
                "    with open(path) as handle:\n"
                "        return handle.read()\n"
            ),
        })
        assert not findings_for(root, "telemetry-sink-only")


class TestQualityTelemetrySinkRule:
    """The ``quality`` telemetry stream has exactly one producer."""

    EMIT = "def emit(stream, **fields):\n    return stream\n"

    def test_rogue_quality_producer_is_flagged(self, tmp_path):
        root = write_package(tmp_path, {
            "proj/obs/telemetry.py": self.EMIT,
            "proj/serving.py": (
                "from .obs import telemetry\n"
                "\n"
                "def report(recall):\n"
                "    telemetry.emit('quality', kind='audit', recall=recall)\n"
            ),
            # The package-relative alias form the obs modules use.
            "proj/obs/slo.py": (
                "from . import telemetry as _telemetry\n"
                "\n"
                "def publish(recall):\n"
                "    _telemetry.emit('quality', kind='audit', recall=recall)\n"
            ),
        })
        findings = findings_for(root, "quality-telemetry-sink-only")
        assert "quality" in findings[0].message
        assert [f.path.rsplit("/", 1)[1] for f in findings] == [
            "slo.py", "serving.py",
        ]

    def test_quality_module_itself_is_exempt(self, tmp_path):
        root = write_package(tmp_path, {
            "proj/obs/telemetry.py": self.EMIT,
            "proj/obs/quality.py": (
                "from . import telemetry\n"
                "\n"
                "def record_audit(recall):\n"
                "    telemetry.emit('quality', kind='audit', recall=recall)\n"
            ),
        })
        assert not findings_for(root, "quality-telemetry-sink-only")

    def test_other_streams_are_clean(self, tmp_path):
        root = write_package(tmp_path, {
            "proj/obs/telemetry.py": self.EMIT,
            "proj/serving.py": (
                "from .obs import telemetry\n"
                "\n"
                "def report(seconds):\n"
                "    telemetry.emit('query', seconds=seconds)\n"
                "    telemetry.emit(compute_stream(), x=1)\n"
                "\n"
                "def compute_stream():\n"
                "    return 'query'\n"
            ),
        })
        assert not findings_for(root, "quality-telemetry-sink-only")


class TestCache:
    def test_warm_cache_hits_and_invalidation_on_edit(self, tmp_path):
        root = write_package(tmp_path / "proj", FIXTURE)
        cache_path = tmp_path / "cache.json"

        cold = run_lint([str(root)], cache_path=str(cache_path))
        assert cold.cache_hits == 0
        assert [(f.rule, f.path.rsplit("/", 1)[1]) for f in cold.findings] == [
            ("telemetry-sink-only", "helpers.py")
        ]
        assert cache_path.exists()

        warm = run_lint([str(root)], cache_path=str(cache_path))
        assert warm.cache_hits == warm.files_checked == 4
        assert [f.fingerprint for f in warm.findings] == [
            f.fingerprint for f in cold.findings
        ]

        # Edit one file: only that file recomputes, findings update.
        helpers = root / "proj" / "helpers.py"
        helpers.write_text(
            "def accumulate(payload):\n"
            "    return dict(payload)\n"
        )
        edited = run_lint([str(root)], cache_path=str(cache_path))
        assert edited.cache_hits == 3
        assert not edited.findings

    def test_cache_respects_rule_subset(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("print('x')\n")
        cache_path = tmp_path / "cache.json"
        full = run_lint([str(path)], cache_path=str(cache_path))
        assert full.findings
        subset = run_lint(
            [str(path)], ["no-silent-except"], cache_path=str(cache_path)
        )
        assert subset.cache_hits == 0  # different rules key
        assert not subset.findings

    def test_corrupt_cache_is_ignored(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("print('x')\n")
        cache_path = tmp_path / "cache.json"
        cache_path.write_text("{not json")
        report = run_lint([str(path)], cache_path=str(cache_path))
        assert [f.rule for f in report.findings] == ["no-bare-print"]

    def test_cached_run_still_reports_suppressions(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("print('x')  # lint: disable=no-bare-print\n")
        cache_path = tmp_path / "cache.json"
        run_lint([str(path)], cache_path=str(cache_path))
        warm = run_lint([str(path)], cache_path=str(cache_path))
        assert warm.cache_hits == 1
        assert not warm.findings


class TestBaselineFingerprints:
    def test_edits_above_do_not_churn_the_baseline(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("print('grandfathered')\n")
        baseline = tmp_path / "baseline.json"
        write_baseline(str(baseline), run_lint([str(path)]).findings)

        # Insert 5 lines above: the finding moves, its hash does not.
        path.write_text(
            "import os\n\n\nVALUE = 3\n\n" "print('grandfathered')\n"
        )
        report = run_lint([str(path)], baseline_path=str(baseline))
        assert report.findings == []
        assert report.baselined == 1

    def test_duplicate_lines_consume_one_entry_each(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("print('dup')\nprint('dup')\n")
        baseline = tmp_path / "baseline.json"
        first = run_lint([str(path)])
        assert len(first.findings) == 2
        # Baseline only the first: the identical second line must still
        # be reported (multiset, not set, semantics).
        write_baseline(str(baseline), first.findings[:1])
        report = run_lint([str(path)], baseline_path=str(baseline))
        assert report.baselined == 1
        assert len(report.findings) == 1

    def test_v1_baseline_is_migrated_by_line_content(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "mod.py"
        path.write_text("x = 1\nprint('legacy')\n")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "findings": [
                {"path": "mod.py", "rule": "no-bare-print", "line": 2},
                {"path": "gone.py", "rule": "no-bare-print", "line": 9},
            ],
        }))
        loaded = load_baseline(str(baseline))
        legacy_hash = line_hash("print('legacy')")
        expected = f"mod.py:no-bare-print:{legacy_hash}"
        assert loaded.counts[expected] == 1
        # The entry for the deleted file is dropped, not an error.
        assert sum(loaded.counts.values()) == 1
        report = run_lint(["mod.py"], baseline_path=str(baseline))
        assert report.findings == []
        assert report.baselined == 1

    def test_written_baseline_is_v2(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("print('x')\n")
        baseline = tmp_path / "baseline.json"
        write_baseline(str(baseline), run_lint([str(path)]).findings)
        payload = json.loads(baseline.read_text())
        assert payload["version"] == 2
        (entry,) = payload["findings"]
        assert set(entry) == {"path", "rule", "line_hash", "line"}
        assert entry["line_hash"] == line_hash("print('x')")


class TestProfiles:
    def test_pytest_import_allowed_under_tests(self, tmp_path):
        source = "import pytest\nimport torch\n"
        root = write_package(tmp_path, {"tests/test_x.py": source})
        report = run_lint([str(root)])
        assert [
            (f.rule, f.line) for f in report.findings
        ] == [("forbidden-import", 2)]

    def test_print_allowed_under_benchmarks(self, tmp_path):
        root = write_package(
            tmp_path, {"benchmarks/bench_x.py": "print('table')\n"}
        )
        assert not run_lint([str(root)]).findings

    def test_print_still_flagged_in_library(self, tmp_path):
        root = write_package(tmp_path, {"pkg/mod.py": "print('x')\n"})
        report = run_lint([str(root)])
        assert [f.rule for f in report.findings] == ["no-bare-print"]


class TestOutputFormats:
    def test_sarif_structure(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text("print('x')\n")
        code, text = lint_cli_run(
            [str(path)], output_format="sarif", no_cache=True
        )
        assert code == 1
        sarif = json.loads(text)
        assert sarif["version"] == "2.1.0"
        (run,) = sarif["runs"]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "telemetry-sink-only" in rule_ids
        (result,) = run["results"]
        assert result["ruleId"] == "no-bare-print"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("bad.py")
        assert location["region"]["startLine"] == 1

    def test_html_is_self_contained(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text("print('x')\n")
        code, text = lint_cli_run(
            [str(path)], output_format="html", no_cache=True
        )
        assert code == 1
        assert text.startswith("<!DOCTYPE html>")
        assert "<style>" in text and "no-bare-print" in text
        assert "src=" not in text and "href=" not in text  # no external assets

    def test_explain_prints_rule_documentation(self):
        code, text = lint_cli_run([], explain="telemetry-sink-only")
        assert code == 0
        assert "telemetry-sink-only (error)" in text
        assert "rationale:" in text
        assert "O_APPEND" in text

    def test_explain_unknown_rule_is_usage_error(self):
        code, text = lint_cli_run([], explain="bogus")
        assert code == 2


class TestRepoAcceptance:
    def test_whole_tree_lint_is_clean(self):
        """Acceptance: src+tests+benchmarks clean under the full pack
        with an empty baseline."""
        paths = [
            str(REPO_ROOT / name)
            for name in ("src", "tests", "benchmarks")
            if (REPO_ROOT / name).exists()
        ]
        report = run_lint(paths)
        assert report.findings == []
        assert report.files_checked > 100
