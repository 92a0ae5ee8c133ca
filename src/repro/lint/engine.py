"""Core of the project linter: findings, suppressions, baselines, reports.

The engine (DESIGN.md §12) walks Python files, parses each one once
with :mod:`ast`, and hands the tree to every
:class:`~repro.lint.rules.Rule`; each file's findings are cached in
``.lint_cache.json`` keyed on content hashes (:mod:`repro.lint.index`).

Four layers filter what a rule reports before it becomes a *new*
finding:

* per-rule path exemptions (``Rule.exempt``) — e.g. the print rule skips
  the CLI entry point and the console implementation;
* tree profiles — ``tests/`` and ``benchmarks/`` run a relaxed rule
  subset (``Rule.skip_profiles``, ``ForbiddenImport.PROFILE_EXTRA``);
* inline suppressions — a ``# lint: disable=<rule>[,<rule>...]`` comment
  on the flagged line (or ``# lint: disable`` for every rule);
* a committed baseline of grandfathered findings, matched by
  ``path:rule:<content-hash of the flagged line>`` fingerprint so edits
  elsewhere in a file never invalidate it (see :class:`Baseline`).

Everything here is stdlib-only so the linter can never drag the library
into a dependency it would itself have to flag.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import tokenize
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional, Sequence

from .index import LintCache, content_hash, line_hash, line_hashes, rules_key

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
    #: Content hash of the flagged source line (baseline fingerprint).
    line_hash: str = ""

    @property
    def fingerprint(self) -> str:
        """Stable identity used for baseline matching.

        Keyed on the *content* of the flagged line, not its number, so
        unrelated edits above a grandfathered finding don't churn the
        baseline.
        """
        return f"{self.path}:{self.rule}:{self.line_hash}"

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
            "line_hash": self.line_hash,
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
# baseline
# ------------------------------------------------------------------ #
#: Default baseline filename looked up next to the lint invocation.
DEFAULT_BASELINE = "lint_baseline.json"

BASELINE_VERSION = 2


class BaselineError(ValueError):
    """Raised when a baseline file cannot be read or has a bad shape."""


class Baseline:
    """Multiset of grandfathered finding fingerprints.

    A :class:`Counter` rather than a set: two identical lines in one file
    hash identically, and each baseline entry should absolve exactly one
    finding, not every copy.
    """

    def __init__(self, counts: Optional[Counter] = None) -> None:
        self.counts: Counter = counts if counts is not None else Counter()

    @property
    def empty(self) -> bool:
        return not +self.counts

    def consume(self, fingerprint: str) -> bool:
        """True (and decrement) if the fingerprint is grandfathered."""
        if self.counts[fingerprint] > 0:
            self.counts[fingerprint] -= 1
            return True
        return False


def _migrate_v1_entry(entry: dict) -> Optional[str]:
    """v1 ``{path, rule, line}`` → v2 fingerprint, by hashing the line.

    Reads the *current* file at the recorded path: v1 baselines matched
    by live line number, so the recorded line in today's checkout is the
    grandfathered one. An unreadable file or out-of-range line means the
    finding is gone — the entry is dropped, which is the correct upgrade.
    """
    try:
        with open(entry["path"], encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        flagged = lines[int(entry["line"]) - 1]
    except (OSError, UnicodeDecodeError, IndexError, ValueError):
        return None
    return f"{entry['path']}:{entry['rule']}:{line_hash(flagged)}"


def load_baseline(path: str) -> Baseline:
    """Read a baseline file (v1 entries are migrated on the fly)."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise BaselineError(f"cannot read baseline {path}: {exc}") from exc
    if not isinstance(payload, dict) or "findings" not in payload:
        raise BaselineError(
            f"baseline {path} must be an object with a 'findings' list"
        )
    counts: Counter = Counter()
    for entry in payload["findings"]:
        try:
            if "line_hash" in entry:
                fingerprint = (
                    f"{entry['path']}:{entry['rule']}:{entry['line_hash']}"
                )
            else:
                fingerprint = _migrate_v1_entry(entry)
                if fingerprint is None:
                    continue
        except (TypeError, KeyError) as exc:
            raise BaselineError(
                f"baseline {path}: malformed entry {entry!r}"
            ) from exc
        counts[fingerprint] += 1
    return Baseline(counts)


def write_baseline(path: str, findings: Sequence[Finding]) -> None:
    """Write ``findings`` as the new grandfathered baseline (v2)."""
    payload = {
        "version": BASELINE_VERSION,
        "findings": [
            {
                "path": f.path,
                "rule": f.rule,
                "line_hash": f.line_hash,
                # advisory only — humans locate the finding by this, the
                # matcher never reads it
                "line": f.line,
            }
            for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule))
        ],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


# ------------------------------------------------------------------ #
# running
# ------------------------------------------------------------------ #
@dataclass
class LintReport:
    """Outcome of one lint run: new findings plus bookkeeping."""

    findings: list[Finding] = field(default_factory=list)
    baselined: int = 0
    files_checked: int = 0
    rules: list[str] = field(default_factory=list)
    cache_hits: int = 0

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
            "version": BASELINE_VERSION,
            "rules": self.rules,
            "files_checked": self.files_checked,
            "baselined": self.baselined,
            "errors": self.errors,
            "warnings": self.warnings,
            "findings": [f.to_json() for f in self.findings],
        }

    def format_human(self) -> str:
        lines = [f.format() for f in self.findings]
        if self.findings or self.baselined:
            summary = (
                f"lint: {len(self.findings)} new finding(s) "
                f"({self.errors} error(s), {self.warnings} warning(s)), "
                f"{self.baselined} baselined, "
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
    """Repo-relative, forward-slash path used in findings and baselines."""
    cwd = os.getcwd()
    absolute = os.path.abspath(path)
    if absolute.startswith(cwd + os.sep):
        absolute = absolute[len(cwd) + 1:]
    return absolute.replace(os.sep, "/")


def _attach_line_hash(finding: Finding, hashes: Sequence[str]) -> Finding:
    if 1 <= finding.line <= len(hashes):
        return replace(finding, line_hash=hashes[finding.line - 1])
    return finding


def _file_entry(
    display: str,
    source: str,
    profile: str,
    rules: Sequence,
    sha: str,
    key: str,
) -> dict[str, Any]:
    """Parse one file and run the rules over it (the cacheable unit)."""
    hashes = line_hashes(source)
    entry: dict[str, Any] = {"sha": sha, "rules_key": key, "findings": []}
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        finding = Finding(
            PARSE_ERROR_RULE,
            display,
            exc.lineno or 1,
            exc.offset or 1,
            f"syntax error: {exc.msg}",
        )
        entry["findings"] = [_attach_line_hash(finding, hashes).to_json()]
        return entry

    context = FileContext(display, source, profile)
    findings: list[Finding] = []
    for rule in rules:
        if rule.skip(display, profile):
            continue
        for finding in rule.check(context, tree):
            if not context.is_suppressed(finding.rule, finding.line):
                findings.append(_attach_line_hash(finding, hashes))
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    entry["findings"] = [f.to_json() for f in findings]
    return entry


def lint_file(path: str, rules: Sequence) -> list[Finding]:
    """Lint one file with the given rule instances (no baseline/cache)."""
    display = _display_path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        return [
            Finding(PARSE_ERROR_RULE, display, 1, 1, f"cannot read file: {exc}")
        ]
    entry = _file_entry(
        display, source, profile_for(display), rules,
        content_hash(source), rules_key([r.name for r in rules]),
    )
    return [Finding(**f) for f in entry["findings"]]


def run_lint(
    paths: Sequence[str],
    rule_names: Optional[Sequence[str]] = None,
    baseline_path: Optional[str] = None,
    cache_path: Optional[str] = None,
) -> LintReport:
    """Lint ``paths`` and return the report of *new* findings.

    ``rule_names`` restricts the rule pack (default: every registered
    rule); unknown names raise :class:`~repro.lint.rules.UnknownRuleError`.
    ``baseline_path`` filters out grandfathered fingerprints.
    ``cache_path`` enables the per-file result cache (``None``, the library
    default, never touches disk; the CLI defaults to ``.lint_cache.json``).
    """
    from .rules import get_rules

    rules = get_rules(rule_names)
    key = rules_key([r.name for r in rules])
    cache = LintCache(cache_path)
    baseline = load_baseline(baseline_path) if baseline_path else Baseline()
    report = LintReport(rules=[rule.name for rule in rules])

    raw_findings: list[Finding] = []
    for path in discover_files(paths):
        report.files_checked += 1
        display = _display_path(path)
        try:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raw_findings.append(Finding(
                PARSE_ERROR_RULE, display, 1, 1, f"cannot read file: {exc}"
            ))
            continue
        sha = content_hash(source)
        entry = cache.lookup(display, sha, key)
        if entry is None:
            entry = _file_entry(
                display, source, profile_for(display), rules, sha, key
            )
            cache.store(display, key, entry)
        raw_findings.extend(Finding(**f) for f in entry["findings"])

    raw_findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    for finding in raw_findings:
        if baseline.consume(finding.fingerprint):
            report.baselined += 1
        else:
            report.findings.append(finding)

    cache.save()
    report.cache_hits = cache.hits
    return report
