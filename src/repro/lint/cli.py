"""Argument wiring and rendering for ``repro lint``.

The functions here *return* text instead of printing it: the package's
own ``no-bare-print`` rule applies to this package too, so the only
print site is the designated console surface (``repro/__main__.py``),
which prints what :func:`run` returns.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
from typing import Optional, Sequence

from . import engine
from .rules import RULES, UnknownRuleError

#: Default path set: the library plus the relaxed-profile trees.
DEFAULT_PATHS = ("src", "tests", "benchmarks")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: "
             f"{' '.join(DEFAULT_PATHS)}, skipping ones that don't exist)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the report as JSON instead of text",
    )
    parser.add_argument(
        "--rules", default=None, metavar="RULES",
        help="comma-separated subset of rules to run "
             f"(available: {', '.join(sorted(RULES))})",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules with their rationale and exit",
    )
    parser.add_argument(
        "--explain", default=None, metavar="RULE",
        help="print one rule's full documentation (invariant, rationale, "
             "severity) and exit",
    )


def _list_rules_text() -> str:
    width = max(len(name) for name in RULES)
    return "\n".join(
        f"{name.ljust(width)}  {rule.rationale}"
        for name, rule in sorted(RULES.items())
    )


def _explain_text(name: str) -> tuple[int, str]:
    rule = RULES.get(name)
    if rule is None:
        return 2, (
            f"lint: error: unknown rule {name!r}; "
            f"available: {', '.join(sorted(RULES))}"
        )
    lines = [
        f"{rule.name} ({rule.severity})",
        f"  rationale: {rule.rationale}",
    ]
    if rule.skip_profiles:
        lines.append(
            "  skipped in: " + ", ".join(sorted(rule.skip_profiles))
        )
    doc = inspect.getdoc(rule)
    if doc:
        lines.append("")
        lines.extend(f"  {line}" if line else "" for line in doc.splitlines())
    return 0, "\n".join(lines)


def run(
    paths: Optional[Sequence[str]] = None,
    rules: Optional[str] = None,
    as_json: bool = False,
    list_rules: bool = False,
    explain: Optional[str] = None,
) -> tuple[int, str]:
    """Run the linter; returns ``(exit_code, text_to_print)``.

    Exit codes: 0 clean, 1 findings, 2 usage error (unknown rule).
    """
    if list_rules:
        return 0, _list_rules_text()
    if explain is not None:
        return _explain_text(explain)

    if not paths:
        paths = [p for p in DEFAULT_PATHS if os.path.exists(p)]

    rule_names = None
    if rules is not None:
        rule_names = [name.strip() for name in rules.split(",") if name.strip()]

    try:
        report = engine.run_lint(paths, rule_names)
    except UnknownRuleError as exc:
        return 2, f"lint: error: {exc}"

    if as_json:
        return report.exit_code, json.dumps(report.to_json(), indent=2)
    return report.exit_code, report.format_human()


def run_args(args: argparse.Namespace) -> tuple[int, str]:
    """Adapter from parsed argparse namespace to :func:`run`."""
    return run(
        paths=args.paths,
        rules=args.rules,
        as_json=args.as_json,
        list_rules=args.list_rules,
        explain=args.explain,
    )
