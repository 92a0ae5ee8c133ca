"""Argument wiring and rendering for ``repro lint``.

The functions here *return* text instead of printing it: the package's
own ``no-bare-print`` rule applies to this package too, so the only
print sites are the designated console surfaces (``repro/__main__.py``
and ``repro/lint/__main__.py``), which print what :func:`run` returns.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
from typing import Optional, Sequence

from . import engine, formats
from .engine import DEFAULT_BASELINE
from .index import DEFAULT_CACHE
from .rules import RULES, UnknownRuleError

#: Default path set: the library plus the relaxed-profile trees.
DEFAULT_PATHS = ("src", "tests", "benchmarks")

FORMATS = ("text", "json", "sarif", "html")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: "
             f"{' '.join(DEFAULT_PATHS)}, skipping ones that don't exist)",
    )
    parser.add_argument(
        "--format", default="text", choices=FORMATS, dest="output_format",
        help="output format (default: text; sarif for CI annotations, "
             "html for a self-contained report)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="shorthand for --format json",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline of grandfathered findings (default: "
             f"{DEFAULT_BASELINE} if it exists)",
    )
    parser.add_argument(
        "--rules", default=None, metavar="RULES",
        help="comma-separated subset of rules to run "
             f"(available: {', '.join(sorted(RULES))})",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="record current findings into the baseline file and exit 0",
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
    parser.add_argument(
        "--cache", default=DEFAULT_CACHE, metavar="FILE",
        help="per-file result cache keyed on content hashes "
             f"(default: {DEFAULT_CACHE})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache for this run",
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


def _render(report: engine.LintReport, output_format: str) -> str:
    if output_format == "json":
        return json.dumps(report.to_json(), indent=2)
    if output_format == "sarif":
        return json.dumps(formats.to_sarif(report), indent=2)
    if output_format == "html":
        return formats.to_html(report)
    return report.format_human()


def run(
    paths: Optional[Sequence[str]] = None,
    rules: Optional[str] = None,
    baseline: Optional[str] = None,
    as_json: bool = False,
    write_baseline: bool = False,
    list_rules: bool = False,
    output_format: str = "text",
    explain: Optional[str] = None,
    cache: Optional[str] = DEFAULT_CACHE,
    no_cache: bool = False,
) -> tuple[int, str]:
    """Run the linter; returns ``(exit_code, text_to_print)``.

    Exit codes: 0 clean, 1 new findings, 2 usage error (unknown rule,
    unreadable baseline).
    """
    if list_rules:
        return 0, _list_rules_text()
    if explain is not None:
        return _explain_text(explain)

    if not paths:
        paths = [p for p in DEFAULT_PATHS if os.path.exists(p)]
    if as_json and output_format == "text":
        output_format = "json"

    rule_names = None
    if rules is not None:
        rule_names = [name.strip() for name in rules.split(",") if name.strip()]

    if baseline is None and os.path.exists(DEFAULT_BASELINE):
        baseline = DEFAULT_BASELINE

    cache_path = None if no_cache else cache
    baseline_for_run = None if write_baseline else baseline
    try:
        report = engine.run_lint(
            paths, rule_names, baseline_for_run, cache_path
        )
    except (UnknownRuleError, engine.BaselineError) as exc:
        return 2, f"lint: error: {exc}"

    if write_baseline:
        target = baseline or DEFAULT_BASELINE
        engine.write_baseline(target, report.findings)
        return 0, (
            f"lint: wrote {len(report.findings)} finding(s) to {target}"
        )

    return report.exit_code, _render(report, output_format)


def run_args(args: argparse.Namespace) -> tuple[int, str]:
    """Adapter from parsed argparse namespace to :func:`run`."""
    return run(
        paths=args.paths,
        rules=args.rules,
        baseline=args.baseline,
        as_json=args.as_json,
        write_baseline=args.write_baseline,
        list_rules=args.list_rules,
        output_format=args.output_format,
        explain=args.explain,
        cache=args.cache,
        no_cache=args.no_cache,
    )
