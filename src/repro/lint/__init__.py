"""AST-based project linter (``repro lint``).

Machine-checks the repo invariants that the reproduction's correctness
rests on — seeded randomness, the closed dependency surface, structured
output/timing, surfaced failures, and the telemetry-sink chokepoints —
instead of trusting convention. See DESIGN.md §12 for the architecture
and each rule's rationale, and :mod:`repro.lint.rules` for the
implementations.

Public API::

    from repro.lint import run_lint, Finding, RULES

    report = run_lint(["src"])          # full rule pack
    report.findings                     # list[Finding], file/line/rule/message
    report.errors, report.warnings      # severity breakdown
    report.exit_code                    # 0 clean, 1 findings

Suppress a single line with ``# lint: disable=<rule>[,<rule>]`` (or
``# lint: disable`` for all rules) — the one suppression mechanism.
``repro lint --explain RULE`` prints a rule's full documentation.
"""

from .engine import Finding, LintReport, lint_file, profile_for, run_lint
from .rules import RULES, Rule, UnknownRuleError

__all__ = [
    "Finding",
    "LintReport",
    "RULES",
    "Rule",
    "UnknownRuleError",
    "lint_file",
    "profile_for",
    "run_lint",
]
