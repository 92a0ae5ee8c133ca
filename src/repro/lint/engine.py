"""Core of the project linter: findings, suppressions, reports.

The engine (DESIGN.md §12) walks Python files, parses each one once
with :mod:`ast`, and hands the tree to every
:class:`~repro.lint.rules.Rule` (a cold pass over the whole tree takes
~4 s, so nothing is cached).

Three layers filter what a rule reports before it becomes a finding:

* per-rule path exemptions (``Rule.exempt``) — e.g. the print rule skips
  the CLI entry point and the console implementation;
* tree profiles — ``tests/`` and ``benchmarks/`` run a relaxed rule
  subset (``Rule.skip_profiles``, ``ForbiddenImport.PROFILE_EXTRA``);
* inline suppressions — a ``# lint: disable=<rule>[,<rule>...]`` comment
  on the flagged line (or ``# lint: disable`` for every rule): the one
  way to grandfather a finding.

Everything here is stdlib-only so the linter can never drag the library
into a dependency it would itself have to flag.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

#: Marker used in the suppression map for "every rule on this line".
ALL_RULES = "*"

_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*disable(?:=(?P<rules>[A-Za-z0-9_,\- ]+))?"
)

#: Rule id used for files the parser rejects (always severity error).
PARSE_ERROR_RULE = "parse-error"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.severity}: {self.message}"
        )

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
        }


def profile_for(path: str) -> str:
    """Tree profile of a display path: library, tests, or benchmarks."""
    parts = path.replace("\\", "/").split("/")[:-1]
    if "tests" in parts:
        return "tests"
    if "benchmarks" in parts:
        return "benchmarks"
    return "library"


class FileContext:
    """A parsed source file plus its inline-suppression map."""

    def __init__(
        self, path: str, source: str, profile: str = "library"
    ) -> None:
        self.path = path
        self.source = source
        self.profile = profile
        self.suppressions = _parse_suppressions(source)

    def is_suppressed(self, rule: str, line: int) -> bool:
        rules = self.suppressions.get(line)
        return rules is not None and (ALL_RULES in rules or rule in rules)


def _parse_suppressions(source: str) -> dict[int, set[str]]:
    """Map line number → rule names disabled there via comments.

    Comments are read with :mod:`tokenize` so a ``# lint: disable`` inside
    a string literal is never mistaken for a directive.
    """
    suppressions: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if not match:
                continue
            names = match.group("rules")
            line = token.start[0]
            bucket = suppressions.setdefault(line, set())
            if names is None:
                bucket.add(ALL_RULES)
            else:
                bucket.update(
                    name.strip() for name in names.split(",") if name.strip()
                )
    except tokenize.TokenError:
        pass  # the ast parse will report the real problem
    return suppressions


# ------------------------------------------------------------------ #
# running
# ------------------------------------------------------------------ #
@dataclass
class LintReport:
    """Outcome of one lint run: findings plus bookkeeping."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules: list[str] = field(default_factory=list)

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity == "error")

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings if f.severity != "error")

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def to_json(self) -> dict:
        return {
            "rules": self.rules,
            "files_checked": self.files_checked,
            "errors": self.errors,
            "warnings": self.warnings,
            "findings": [f.to_json() for f in self.findings],
        }

    def format_human(self) -> str:
        lines = [f.format() for f in self.findings]
        if self.findings:
            summary = (
                f"lint: {len(self.findings)} finding(s) "
                f"({self.errors} error(s), {self.warnings} warning(s)), "
                f"{self.files_checked} file(s) checked"
            )
        else:
            summary = (
                f"lint: OK ({self.files_checked} file(s) checked, "
                f"{len(self.rules)} rule(s))"
            )
        lines.append(summary)
        return "\n".join(lines)


def discover_files(paths: Iterable[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames
                if not d.startswith(".") and d != "__pycache__"
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    found.append(os.path.join(dirpath, name))
    return sorted(dict.fromkeys(os.path.normpath(p) for p in found))


def _display_path(path: str) -> str:
    """Repo-relative, forward-slash path used in findings."""
    cwd = os.getcwd()
    absolute = os.path.abspath(path)
    if absolute.startswith(cwd + os.sep):
        absolute = absolute[len(cwd) + 1:]
    return absolute.replace(os.sep, "/")


def lint_file(path: str, rules: Sequence) -> list[Finding]:
    """Lint one file with the given rule instances."""
    display = _display_path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        return [
            Finding(PARSE_ERROR_RULE, display, 1, 1, f"cannot read file: {exc}")
        ]
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        return [Finding(
            PARSE_ERROR_RULE,
            display,
            exc.lineno or 1,
            exc.offset or 1,
            f"syntax error: {exc.msg}",
        )]

    profile = profile_for(display)
    context = FileContext(display, source, profile)
    findings: list[Finding] = []
    for rule in rules:
        if rule.skip(display, profile):
            continue
        for finding in rule.check(context, tree):
            if not context.is_suppressed(finding.rule, finding.line):
                findings.append(finding)
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def run_lint(
    paths: Sequence[str],
    rule_names: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint ``paths`` and return the report of findings.

    ``rule_names`` restricts the rule pack (default: every registered
    rule); unknown names raise :class:`~repro.lint.rules.UnknownRuleError`.
    """
    from .rules import get_rules

    rules = get_rules(rule_names)
    report = LintReport(rules=[rule.name for rule in rules])
    for path in discover_files(paths):
        report.files_checked += 1
        report.findings.extend(lint_file(path, rules))
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report
