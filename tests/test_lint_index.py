"""Tests for the lint engine around the rule pack (repro.lint).

Covers the two sink-chokepoint rules against deliberately-violating
fixture packages, the relaxed tests/benchmarks profiles, and ``--explain``.
"""

from pathlib import Path

from repro.lint import run_lint
from repro.lint.cli import run as lint_cli_run

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
        """Acceptance: src+tests+benchmarks clean under the full pack."""
        paths = [
            str(REPO_ROOT / name)
            for name in ("src", "tests", "benchmarks")
            if (REPO_ROOT / name).exists()
        ]
        report = run_lint(paths)
        assert report.findings == []
        assert report.files_checked > 100
