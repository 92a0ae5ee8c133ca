"""The rule pack: each rule machine-checks one repo invariant.

Rules are :class:`ast.NodeVisitor`-style checkers registered in
:data:`RULES`. Each one documents *which reproduction invariant it
protects* (mirrored in DESIGN.md §"Static analysis & strict mode") —
these are not style rules; every one guards something that corrupts
benchmarks, training runs, or the dependency contract when violated.
"""

from __future__ import annotations

import ast
import sys
from typing import Iterator, Optional, Sequence

from .engine import FileContext, Finding


class UnknownRuleError(ValueError):
    """Raised for a rule name that is not registered."""


def _path_parts(path: str) -> list[str]:
    return path.replace("\\", "/").split("/")


def _dotted_name(node: ast.AST, imports: "ImportMap") -> Optional[str]:
    """Resolve an attribute chain to its imported dotted origin.

    ``np.random.rand`` with ``import numpy as np`` resolves to
    ``numpy.random.rand``; a bare name bound by ``from time import
    perf_counter`` resolves to ``time.perf_counter``. Names that were not
    bound by an import resolve to ``None``.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    origin = imports.names.get(node.id)
    if origin is None:
        return None
    return ".".join([origin, *reversed(parts)])


class ImportMap(ast.NodeVisitor):
    """Local name → dotted import origin, for resolving call targets.

    Relative imports resolve against the importing file's directory:
    ``from . import telemetry as _telemetry`` in ``src/repro/obs/slo.py``
    binds ``_telemetry`` to ``src.repro.obs.telemetry``.
    """

    def __init__(self, path: str) -> None:
        self.names: dict[str, str] = {}
        self._package = [part for part in _path_parts(path)[:-1] if part]

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.names[alias.asname] = alias.name
            else:
                top = alias.name.split(".")[0]
                self.names[top] = top

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            keep = len(self._package) - (node.level - 1)
            if keep <= 0:
                return  # climbs above the linted tree: unresolvable
            base = ".".join(self._package[:keep] + ([base] if base else []))
        if not base:
            return
        for alias in node.names:
            self.names[alias.asname or alias.name] = f"{base}.{alias.name}"


def _build_import_map(context: FileContext, tree: ast.AST) -> ImportMap:
    imports = ImportMap(context.path)
    imports.visit(tree)
    return imports


class Rule:
    """Base class: subclasses set ``name``/``rationale`` and ``check``."""

    name: str = ""
    severity: str = "error"
    rationale: str = ""

    #: Tree profiles ("tests", "benchmarks") where the rule is not run at
    #: all — the relaxed rule subset for non-library trees.
    skip_profiles: frozenset = frozenset()

    def exempt(self, path: str) -> bool:
        return False

    def skip(self, path: str, profile: str) -> bool:
        """Whole-file/tree gate combining path exemptions and profiles."""
        return profile in self.skip_profiles or self.exempt(path)

    def check(self, context: FileContext, tree: ast.AST) -> list[Finding]:
        raise NotImplementedError

    def finding(self, context: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.name,
            path=context.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            severity=self.severity,
        )


def _walk_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


# ------------------------------------------------------------------ #
class NoGlobalNumpyRandom(Rule):
    """Invariant: every random draw flows through a passed Generator.

    Training is seeded end to end (``ASQPConfig.seed`` → spawned
    ``SeedSequence`` per actor/environment); a single call into numpy's
    *global* legacy RNG makes runs irreproducible and silently couples
    unrelated components through shared hidden state.
    """

    name = "no-global-numpy-random"
    rationale = (
        "global np.random.* breaks seeded reproducibility; pass an "
        "np.random.Generator explicitly"
    )

    #: Constructors of explicit, instance-scoped randomness — allowed.
    ALLOWED = frozenset({
        "default_rng", "Generator", "SeedSequence", "BitGenerator",
        "RandomState", "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64",
    })

    def check(self, context: FileContext, tree: ast.AST) -> list[Finding]:
        imports = _build_import_map(context, tree)
        findings = []
        for call in _walk_calls(tree):
            dotted = _dotted_name(call.func, imports)
            if not dotted or not dotted.startswith("numpy.random."):
                continue
            leaf = dotted.split(".")[-1]
            if len(dotted.split(".")) == 3 and leaf not in self.ALLOWED:
                findings.append(self.finding(
                    context, call,
                    f"call to global numpy RNG '{dotted}'; use an explicitly "
                    "passed np.random.Generator (np.random.default_rng)",
                ))
        return findings


class ForbiddenImport(Rule):
    """Invariant: the dependency surface stays stdlib + numpy/scipy/networkx.

    DESIGN.md §2 replaces PyTorch/Ray/PostgreSQL/sentence-BERT with
    from-scratch numpy implementations; an import of torch/pandas/ray is
    dependency creep that breaks the offline, CPU-only environment.
    """

    name = "forbidden-import"
    rationale = (
        "dependency surface is stdlib + numpy/scipy/networkx only "
        "(DESIGN.md §2 substitutions)"
    )

    ALLOWED_TOP = frozenset(sys.stdlib_module_names) | {
        "numpy", "scipy", "networkx", "repro",
    }

    #: Non-library trees may additionally use the test toolchain and
    #: import their own sibling modules.
    PROFILE_EXTRA = {
        "tests": frozenset({
            "pytest", "hypothesis", "tests", "benchmarks", "conftest",
        }),
        "benchmarks": frozenset({"pytest", "tests", "benchmarks"}),
    }

    def check(self, context: FileContext, tree: ast.AST) -> list[Finding]:
        allowed = self.ALLOWED_TOP | self.PROFILE_EXTRA.get(
            context.profile, frozenset()
        )
        findings = []
        for node in ast.walk(tree):
            modules: list[str] = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.level or not node.module:
                    continue
                modules = [node.module]
            for module in modules:
                top = module.split(".")[0]
                if top not in allowed:
                    findings.append(self.finding(
                        context, node,
                        f"import of '{module}' outside the allowed dependency "
                        "surface (stdlib + numpy/scipy/networkx; DESIGN.md §2)",
                    ))
        return findings


class NoBarePrint(Rule):
    """Invariant: library output goes through obs.log / telemetry.

    Bare ``print()`` bypasses the structured channels, corrupts captured
    benchmark tables, and cannot be silenced in headless runs. The CLI
    entry point and the console implementation are the two designated
    print surfaces.
    """

    name = "no-bare-print"
    rationale = (
        "library code must use repro.obs.log.console or telemetry, "
        "not print()"
    )

    #: Benchmarks print their result tables to stdout by design.
    skip_profiles = frozenset({"benchmarks"})

    EXEMPT_SUFFIXES = ("__main__.py", "obs/log.py")

    def exempt(self, path: str) -> bool:
        return path.replace("\\", "/").endswith(self.EXEMPT_SUFFIXES)

    def check(self, context: FileContext, tree: ast.AST) -> list[Finding]:
        return [
            self.finding(
                context, call,
                "bare print() in library code; use repro.obs.log.console "
                "or a telemetry stream",
            )
            for call in _walk_calls(tree)
            if isinstance(call.func, ast.Name) and call.func.id == "print"
        ]


class NoSilentExcept(Rule):
    """Invariant: failures surface; they are never silently swallowed.

    A swallowed exception in preprocessing or training yields a model
    trained on partial state — the run completes and reports numbers that
    are quietly wrong, the worst failure mode for a reproduction.
    """

    name = "no-silent-except"
    rationale = (
        "bare/broad except that swallows errors produces silently-wrong "
        "benchmark numbers"
    )

    BROAD = frozenset({"Exception", "BaseException"})

    @staticmethod
    def _handler_names(type_node: Optional[ast.AST]) -> list[str]:
        if type_node is None:
            return []
        nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        names = []
        for node in nodes:
            while isinstance(node, ast.Attribute):
                node = node.value  # builtins.Exception etc.
            if isinstance(node, ast.Name):
                names.append(node.id)
        return names

    @staticmethod
    def _is_trivial(body: Sequence[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            ):
                continue
            return False
        return True

    def check(self, context: FileContext, tree: ast.AST) -> list[Finding]:
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(self.finding(
                    context, node,
                    "bare 'except:' (also catches SystemExit/KeyboardInterrupt); "
                    "catch a specific exception",
                ))
            elif (
                any(n in self.BROAD for n in self._handler_names(node.type))
                and self._is_trivial(node.body)
            ):
                findings.append(self.finding(
                    context, node,
                    "broad except handler silently swallows the error; "
                    "narrow it or handle the failure",
                ))
        return findings


class NoWallclockInLibrary(Rule):
    """Invariant: library timing flows through obs (spans / obs.clock).

    Scattered ``time.time()``/``time.perf_counter()`` reads cannot be
    attributed in traces or faked in tests; the single chokepoint is
    ``repro.obs.clock`` (or a tracing span, which times and attributes
    in one construct). ``obs/`` and the bench harnesses own raw clocks.
    """

    name = "no-wallclock-in-library"
    rationale = (
        "raw wall-clock reads outside obs//bench bypass the tracing/"
        "timing chokepoint (repro.obs.clock)"
    )

    WALLCLOCK = frozenset({
        "time.time", "time.time_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
    })

    EXEMPT_PARTS = frozenset({"obs", "bench", "benchmarks"})

    def exempt(self, path: str) -> bool:
        return bool(self.EXEMPT_PARTS.intersection(_path_parts(path)[:-1]))

    def check(self, context: FileContext, tree: ast.AST) -> list[Finding]:
        imports = _build_import_map(context, tree)
        findings = []
        for call in _walk_calls(tree):
            dotted = _dotted_name(call.func, imports)
            if dotted in self.WALLCLOCK:
                findings.append(self.finding(
                    context, call,
                    f"raw wall-clock call '{dotted}' in library code; use "
                    "repro.obs.clock or a tracing span",
                ))
        return findings


class NoMutableDefaultArg(Rule):
    """Invariant: no state shared across calls through default arguments.

    A mutable default is one object shared by every call — accumulated
    coverage lists or cache dicts leak between training runs and make
    results depend on call history instead of seeds.
    """

    name = "no-mutable-default-arg"
    rationale = (
        "mutable defaults share state across calls, making results "
        "depend on call history"
    )

    MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self.MUTABLE_CALLS
        )

    def check(self, context: FileContext, tree: ast.AST) -> list[Finding]:
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults)
            defaults += [d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if self._is_mutable(default):
                    findings.append(self.finding(
                        context, default,
                        "mutable default argument is shared across calls; "
                        "default to None and create inside the function",
                    ))
        return findings


# ------------------------------------------------------------------ #
# sink chokepoints
# ------------------------------------------------------------------ #
class TelemetrySinkOnly(Rule):
    """Invariant: all append-mode writes flow through the telemetry sink.

    ``obs/telemetry.py`` owns the single ``O_APPEND`` chokepoint whose
    one-``os.write``-per-record discipline makes concurrent appends
    atomic (DESIGN.md §11) — two ``repro`` processes pointed at one run
    directory (a ``repro profile`` recorder and a ``repro watch --once``
    recorder, say) interleave whole records, never partial lines. A
    direct ``os.write``, append-mode ``open(..., "a")``, or
    ``os.open(..., O_APPEND)`` anywhere else can interleave partial
    lines with the sink and corrupt the JSONL streams every
    replay/report tool parses.
    """

    name = "telemetry-sink-only"
    rationale = (
        "append-mode writes outside obs/telemetry.py bypass the atomic "
        "O_APPEND sink chokepoint that lets two repro processes share a "
        "run directory"
    )

    skip_profiles = frozenset({"tests", "benchmarks"})
    EXEMPT_SUFFIXES = ("obs/telemetry.py",)

    def exempt(self, path: str) -> bool:
        return path.replace("\\", "/").endswith(self.EXEMPT_SUFFIXES)

    @staticmethod
    def _append_site(call: ast.Call, imports: ImportMap) -> Optional[str]:
        """Describe the append-mode write ``call`` performs, if any."""
        dotted = _dotted_name(call.func, imports)
        if dotted == "os.write":
            return "os.write"
        if dotted == "os.open" and any(
            (isinstance(sub, ast.Attribute) and sub.attr == "O_APPEND")
            or (isinstance(sub, ast.Name) and sub.id == "O_APPEND")
            for flags in call.args[1:2]
            for sub in ast.walk(flags)
        ):
            return "os.open(O_APPEND)"
        if isinstance(call.func, ast.Name) and call.func.id == "open":
            mode = call.args[1] if len(call.args) >= 2 else None
            for keyword in call.keywords:
                if keyword.arg == "mode":
                    mode = keyword.value
            if (
                isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
                and "a" in mode.value
            ):
                return f"open(..., {mode.value!r})"
        return None

    def check(self, context: FileContext, tree: ast.AST) -> list[Finding]:
        imports = _build_import_map(context, tree)
        findings = []
        for call in _walk_calls(tree):
            description = self._append_site(call, imports)
            if description is not None:
                findings.append(self.finding(
                    context, call,
                    f"direct append-mode write ({description}) outside the "
                    "telemetry sink; emit through repro.obs.telemetry so "
                    "cross-process appends stay atomic",
                ))
        return findings


class QualityTelemetrySinkOnly(Rule):
    """Invariant: the ``quality`` telemetry stream has one producer.

    ``repro report`` and ``repro audit`` treat every ``quality`` record
    as ground truth written by :mod:`repro.obs.quality` — shadow audits
    with measured recall. A second producer anywhere else could inject
    unaudited "audit" records, silently corrupting the calibration
    tables.
    """

    name = "quality-telemetry-sink-only"
    rationale = (
        "emitting on the 'quality' telemetry stream outside "
        "obs/quality.py corrupts the recorded audit ground truth"
    )

    skip_profiles = frozenset({"tests", "benchmarks"})
    EXEMPT_SUFFIXES = ("obs/quality.py",)

    def exempt(self, path: str) -> bool:
        return path.replace("\\", "/").endswith(self.EXEMPT_SUFFIXES)

    def check(self, context: FileContext, tree: ast.AST) -> list[Finding]:
        imports = _build_import_map(context, tree)
        findings = []
        for call in _walk_calls(tree):
            dotted = _dotted_name(call.func, imports) or ""
            if (
                dotted.endswith(".obs.telemetry.emit")
                and call.args
                and isinstance(call.args[0], ast.Constant)
                and call.args[0].value == "quality"
            ):
                findings.append(self.finding(
                    context, call,
                    "emit on the 'quality' telemetry stream outside "
                    "repro.obs.quality; report measurements through "
                    "the QualityMonitor so `repro report` and `repro "
                    "audit` stay trustworthy",
                ))
        return findings


# ------------------------------------------------------------------ #
_ALL_RULES = (
    NoGlobalNumpyRandom(),
    ForbiddenImport(),
    NoBarePrint(),
    NoSilentExcept(),
    NoWallclockInLibrary(),
    NoMutableDefaultArg(),
    TelemetrySinkOnly(),
    QualityTelemetrySinkOnly(),
)

RULES: dict[str, Rule] = {rule.name: rule for rule in _ALL_RULES}


def get_rules(names: Optional[Sequence[str]] = None) -> list[Rule]:
    """Resolve rule names (default: the full pack, registry order)."""
    if names is None:
        return list(_ALL_RULES)
    rules = []
    for name in names:
        rule = RULES.get(name)
        if rule is None:
            raise UnknownRuleError(
                f"unknown lint rule {name!r}; available: {sorted(RULES)}"
            )
        rules.append(rule)
    return rules
