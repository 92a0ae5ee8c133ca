"""Tests for the AST project linter (repro.lint).

Each rule gets an inline-source fixture: a positive hit (correct rule
id, file and line), plus checks that inline suppressions, JSON output,
and exit codes behave as documented. The final test pins the acceptance
invariant: the repo's own ``src/`` tree is clean under the full rule
pack.
"""

import json
from pathlib import Path

import pytest

from repro.lint import RULES, UnknownRuleError, run_lint
from repro.lint.cli import run as lint_cli_run

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_source(tmp_path, source, rules=None, filename="module.py"):
    path = tmp_path / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return run_lint([str(path)], rules)


def rule_lines(report, rule):
    return [(f.rule, f.line) for f in report.findings if f.rule == rule]


class TestRulePack:
    def test_no_global_numpy_random_hit(self, tmp_path):
        report = lint_source(tmp_path, (
            "import numpy as np\n"
            "\n"
            "def f():\n"
            "    return np.random.rand(3)\n"
        ))
        assert rule_lines(report, "no-global-numpy-random") == [
            ("no-global-numpy-random", 4)
        ]

    def test_no_global_numpy_random_from_import(self, tmp_path):
        report = lint_source(tmp_path, (
            "from numpy.random import shuffle\n"
            "shuffle([1, 2])\n"
        ))
        assert rule_lines(report, "no-global-numpy-random") == [
            ("no-global-numpy-random", 2)
        ]

    def test_generator_construction_is_allowed(self, tmp_path):
        report = lint_source(tmp_path, (
            "import numpy as np\n"
            "rng = np.random.default_rng(0)\n"
            "seq = np.random.SeedSequence(1)\n"
            "x = rng.random(3)\n"
        ))
        assert not report.findings

    def test_forbidden_import_hit(self, tmp_path):
        report = lint_source(tmp_path, (
            "import torch\n"
            "from pandas import DataFrame\n"
            "import numpy as np\n"
            "import os\n"
        ))
        assert rule_lines(report, "forbidden-import") == [
            ("forbidden-import", 1),
            ("forbidden-import", 2),
        ]

    def test_relative_imports_are_allowed(self, tmp_path):
        report = lint_source(
            tmp_path, "from . import sibling\nfrom ..pkg import thing\n"
        )
        assert not report.findings

    def test_no_bare_print_hit_and_exemptions(self, tmp_path):
        source = "print('hello')\n"
        report = lint_source(tmp_path, source)
        assert rule_lines(report, "no-bare-print") == [("no-bare-print", 1)]
        # The CLI entry point and the console implementation are exempt.
        assert not lint_source(tmp_path, source, filename="__main__.py").findings
        assert not lint_source(tmp_path, source, filename="obs/log.py").findings

    def test_no_silent_except_hit(self, tmp_path):
        report = lint_source(tmp_path, (
            "try:\n"
            "    x = 1\n"
            "except:\n"
            "    pass\n"
            "try:\n"
            "    y = 2\n"
            "except Exception:\n"
            "    pass\n"
        ))
        assert rule_lines(report, "no-silent-except") == [
            ("no-silent-except", 3),
            ("no-silent-except", 7),
        ]

    def test_handled_or_narrow_except_is_allowed(self, tmp_path):
        report = lint_source(tmp_path, (
            "try:\n"
            "    x = 1\n"
            "except ValueError:\n"
            "    pass\n"
            "except Exception:\n"
            "    raise RuntimeError('context')\n"
        ))
        assert not report.findings

    def test_no_wallclock_hit(self, tmp_path):
        report = lint_source(tmp_path, (
            "import time\n"
            "from time import perf_counter\n"
            "a = time.time()\n"
            "b = perf_counter()\n"
        ))
        assert rule_lines(report, "no-wallclock-in-library") == [
            ("no-wallclock-in-library", 3),
            ("no-wallclock-in-library", 4),
        ]

    def test_wallclock_exempt_under_obs_and_bench(self, tmp_path):
        source = "import time\nstart = time.perf_counter()\n"
        for directory in ("obs", "bench"):
            report = lint_source(
                tmp_path, source, filename=f"{directory}/timing.py"
            )
            assert not report.findings

    def test_obs_clock_import_is_allowed(self, tmp_path):
        report = lint_source(tmp_path, (
            "from repro.obs.clock import perf_counter\n"
            "start = perf_counter()\n"
        ))
        assert not report.findings

    def test_no_mutable_default_arg_hit(self, tmp_path):
        report = lint_source(tmp_path, (
            "def f(xs=[]):\n"
            "    return xs\n"
            "\n"
            "def g(mapping=dict()):\n"
            "    return mapping\n"
            "\n"
            "def ok(xs=None, n=3, name='x'):\n"
            "    return xs\n"
        ))
        assert rule_lines(report, "no-mutable-default-arg") == [
            ("no-mutable-default-arg", 1),
            ("no-mutable-default-arg", 4),
        ]


class TestEngine:
    def test_inline_suppression_honored(self, tmp_path):
        report = lint_source(
            tmp_path, "print('x')  # lint: disable=no-bare-print\n"
        )
        assert not report.findings

    def test_blanket_suppression_honored(self, tmp_path):
        report = lint_source(tmp_path, (
            "import time\n"
            "print(time.time())  # lint: disable\n"
        ))
        assert not report.findings

    def test_suppression_inside_string_is_not_a_directive(self, tmp_path):
        report = lint_source(
            tmp_path, "print('# lint: disable=no-bare-print')\n"
        )
        assert rule_lines(report, "no-bare-print") == [("no-bare-print", 1)]

    def test_suppression_is_rule_specific(self, tmp_path):
        report = lint_source(
            tmp_path, "print('x')  # lint: disable=no-silent-except\n"
        )
        assert rule_lines(report, "no-bare-print") == [("no-bare-print", 1)]

    def test_unknown_rule_raises(self, tmp_path):
        with pytest.raises(UnknownRuleError):
            run_lint([str(tmp_path)], ["no-such-rule"])

    def test_syntax_error_becomes_parse_error_finding(self, tmp_path):
        report = lint_source(tmp_path, "def broken(:\n")
        assert [f.rule for f in report.findings] == ["parse-error"]
        assert report.exit_code == 1

    def test_rule_subset_runs_only_those_rules(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import torch\nprint('x')\n",
            rules=["no-bare-print"],
        )
        assert {f.rule for f in report.findings} == {"no-bare-print"}


class TestCliLayer:
    def test_json_output_schema(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text("print('x')\n")
        code, text = lint_cli_run([str(path)], as_json=True)
        assert code == 1
        payload = json.loads(text)
        assert set(payload) == {
            "rules", "files_checked", "errors", "warnings", "findings",
        }
        assert payload["errors"] == 1
        assert payload["warnings"] == 0
        (finding,) = payload["findings"]
        assert set(finding) == {
            "rule", "path", "line", "col", "message", "severity"
        }
        assert finding["rule"] == "no-bare-print"
        assert finding["line"] == 1
        assert finding["path"].endswith("bad.py")

    def test_human_output_has_file_line_rule(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text("\nprint('x')\n")
        code, text = lint_cli_run([str(path)])
        assert code == 1
        assert "bad.py:2:1: no-bare-print error:" in text

    def test_exit_zero_on_clean_tree(self, tmp_path):
        path = tmp_path / "clean.py"
        path.write_text("import numpy as np\n")
        code, text = lint_cli_run([str(path)])
        assert code == 0
        assert "OK" in text

    def test_exit_two_on_unknown_rule(self, tmp_path):
        code, text = lint_cli_run([str(tmp_path)], rules="bogus-rule")
        assert code == 2
        assert "bogus-rule" in text

    def test_list_rules_mentions_full_pack(self):
        code, text = lint_cli_run([], list_rules=True)
        assert code == 0
        for name in RULES:
            assert name in text


class TestRepoIsClean:
    def test_src_tree_has_no_findings(self):
        """Acceptance: the merged tree lints clean."""
        report = run_lint([str(REPO_ROOT / "src")])
        assert report.findings == []
        assert report.files_checked > 70

    def test_one_violation_of_each_rule_is_caught(self, tmp_path):
        """Acceptance: a fixture seeding one violation per shipped rule
        yields exactly one finding per rule, each at the right line."""
        source = (
            "import numpy as np\n"                       # 1
            "import time\n"                              # 2
            "import torch\n"                             # 3  forbidden-import
            "from .obs import telemetry as _telemetry\n" # 4  relative alias
            "def f(xs=[]):\n"                            # 5  mutable default
            "    print(np.random.rand(2))\n"             # 6  print + global rng
            "    started = time.perf_counter()\n"        # 7  wallclock
            "    try:\n"
            "        return started\n"
            "    except Exception:\n"                    # 10 silent except
            "        pass\n"
            "    _telemetry.emit('quality', kind='x')\n" # 12 quality sink
            "    open('log.jsonl', 'a')\n"               # 13 telemetry sink
        )
        report = lint_source(tmp_path, source)
        by_rule = {f.rule: f.line for f in report.findings}
        assert by_rule == {
            "forbidden-import": 3,
            "no-mutable-default-arg": 5,
            "no-bare-print": 6,
            "no-global-numpy-random": 6,
            "no-wallclock-in-library": 7,
            "no-silent-except": 10,
            "quality-telemetry-sink-only": 12,
            "telemetry-sink-only": 13,
        }
        assert set(by_rule) == set(RULES)
        assert report.exit_code == 1
