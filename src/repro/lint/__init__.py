"""AST-based project linter (``repro lint``).

Machine-checks the repo invariants that the reproduction's correctness
rests on — seeded randomness, the closed dependency surface, structured
output/timing, surfaced failures, and the telemetry-sink chokepoints —
instead of trusting convention. See DESIGN.md §12 for the architecture
and each rule's rationale, and :mod:`repro.lint.rules` for the
implementations.

Public API::

    from repro.lint import run_lint, Finding, RULES

    report = run_lint(["src"])          # full rule pack, no baseline
    report.findings                     # list[Finding], file/line/rule/message
    report.errors, report.warnings      # severity breakdown
    report.exit_code                    # 0 clean, 1 new findings

Suppress a single line with ``# lint: disable=<rule>[,<rule>]`` (or
``# lint: disable`` for all rules); grandfather whole findings with a
``lint_baseline.json`` written by ``repro lint --write-baseline``
(fingerprinted by content hash of the flagged line, so unrelated edits
never churn it). ``repro lint --explain RULE`` prints a rule's full
documentation.
"""

from .engine import (
    DEFAULT_BASELINE,
    Baseline,
    Finding,
    LintReport,
    lint_file,
    load_baseline,
    profile_for,
    run_lint,
    write_baseline,
)
from .formats import to_html, to_sarif
from .index import DEFAULT_CACHE, LintCache
from .rules import RULES, Rule, UnknownRuleError

__all__ = [
    "Baseline",
    "DEFAULT_BASELINE",
    "DEFAULT_CACHE",
    "Finding",
    "LintCache",
    "LintReport",
    "RULES",
    "Rule",
    "UnknownRuleError",
    "lint_file",
    "load_baseline",
    "profile_for",
    "run_lint",
    "to_html",
    "to_sarif",
    "write_baseline",
]
