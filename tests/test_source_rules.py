"""Properties of the source trees, stated as one ``ast`` walk per rule.

Every ``.py`` file under ``src/``, ``tests/`` and ``benchmarks/`` is parsed
once. A rule is a function ``(tree, relpath) -> ["path:line what", ...]``;
``RULES`` maps its name to it and to the roots it walks (DESIGN.md §12
says what each protects). ``tests/`` and ``benchmarks/`` may import pytest
and their siblings, and benchmarks may ``print``. There is no suppression
syntax: a flagged line is fixed.
"""

from __future__ import annotations

import ast
import functools
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC, TESTS, BENCH = "src", "tests", "benchmarks"
LIB = "src/repro/mod.py"  # where a fixture lives unless it names a path


@functools.cache
def _trees(root: str) -> list[tuple[str, ast.Module]]:
    """``(relpath, tree)`` of every ``.py`` file under ``root``, parsed once."""
    return [
        (path.relative_to(REPO).as_posix(),
         ast.parse(path.read_text(encoding="utf-8"), str(path)))
        for path in sorted((REPO / root).rglob("*.py"))
    ]


def _imports(tree: ast.AST, path: str) -> dict[str, str]:
    """Local name -> dotted origin; ``from . import telemetry`` in
    ``src/repro/obs/x.py`` binds ``telemetry`` to ``src.repro.obs.telemetry``."""
    directory = path.split("/")[:-1]
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                names[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom):
            package = directory[:len(directory) + 1 - node.level] if node.level else []
            base = ".".join([*package, node.module] if node.module else package)
            for alias in node.names:
                names[alias.asname or alias.name] = f"{base}.{alias.name}"
    return names


def _dotted(node: ast.AST, imports: dict[str, str]) -> str:
    """``np.random.rand`` under ``import numpy as np`` -> ``numpy.random.rand``;
    "" unless the chain starts at an imported name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    origin = imports.get(node.id) if isinstance(node, ast.Name) else None
    return ".".join([origin, *reversed(parts)]) if origin else ""


def _call_rule(skip=lambda path: False):
    """A rule hitting each call for which ``flag(call, imports)`` says what,
    in every file but those ``skip(relpath)`` exempts."""
    def rule(flag):
        def check(tree, path):
            if skip(path):
                return []
            imports = _imports(tree, path)
            return [f"{path}:{node.lineno} {what}" for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and (what := flag(node, imports))]
        return check
    return rule


_RNG_CONSTRUCTORS = {"default_rng", "Generator", "SeedSequence", "BitGenerator",
                     "RandomState", "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64"}


@_call_rule()
def no_global_numpy_random(call, imports):
    dotted = _dotted(call.func, imports)
    module, _, name = dotted.rpartition(".")
    return module == "numpy.random" and name not in _RNG_CONSTRUCTORS and dotted


_ALLOWED_IMPORTS = {*sys.stdlib_module_names, "numpy", "scipy", "networkx", "repro"}
_EXTRA_IMPORTS = {
    TESTS: {"pytest", "hypothesis", "tests", "benchmarks", "conftest"},
    BENCH: {"pytest", "tests", "benchmarks"},
}


def forbidden_import(tree, path):
    allowed = _ALLOWED_IMPORTS | _EXTRA_IMPORTS.get(path.split("/")[0], set())
    return [
        f"{path}:{node.lineno} import {module}"
        for node in ast.walk(tree)
        for module in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and not node.level
            else []
        )
        if module.split(".")[0] not in allowed
    ]


@_call_rule(skip=lambda path: path.endswith(("__main__.py", "obs/log.py")))
def no_bare_print(call, imports):
    return getattr(call.func, "id", None) == "print" and "print()"


def _swallows(handler: ast.ExceptHandler) -> bool:
    """``except Exception:`` (or ``BaseException``) doing only ``pass`` / ``...``."""
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    names = set()
    for name in types:
        while isinstance(name, ast.Attribute):  # builtins.Exception
            name = name.value
        names.add(getattr(name, "id", None))
    return bool(names & {"Exception", "BaseException"}) and all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr) and getattr(stmt.value, "value", None) is Ellipsis)
        for stmt in handler.body
    )


def no_silent_except(tree, path):
    return [
        f"{path}:{node.lineno} " + ("bare except:" if node.type is None else "swallowed")
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and (node.type is None or _swallows(node))
    ]


_WALLCLOCK = {f"time.{name}{ns}" for name in ("time", "perf_counter", "monotonic",
                                              "process_time") for ns in ("", "_ns")}


@_call_rule(skip=lambda path: bool({"obs", "bench"} & set(path.split("/")[:-1])))
def no_wallclock_in_library(call, imports):
    dotted = _dotted(call.func, imports)
    return dotted in _WALLCLOCK and f"{dotted}()"


_MUTABLE = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def no_mutable_default_arg(tree, path):
    return [
        f"{path}:{default.lineno} mutable default"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for default in [*node.args.defaults, *node.args.kw_defaults]
        if isinstance(default, _MUTABLE) or (
            isinstance(default, ast.Call)
            and getattr(default.func, "id", None) in {"list", "dict", "set", "bytearray"}
        )
    ]


@_call_rule(skip=lambda path: path.endswith("obs/telemetry.py"))
def telemetry_sink_only(call, imports):
    dotted = _dotted(call.func, imports)
    if dotted == "os.write":
        return "os.write"
    if dotted == "os.open" and any(
        "O_APPEND" in (getattr(sub, "attr", None), getattr(sub, "id", None))
        for flags in call.args[1:2] for sub in ast.walk(flags)
    ):
        return "os.open(O_APPEND)"
    if getattr(call.func, "id", None) == "open":
        mode = call.args[1] if len(call.args) > 1 else None
        mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), mode)
        text = getattr(mode, "value", None)
        return isinstance(text, str) and "a" in text and f"open(..., {text!r})"
    return None


@_call_rule(skip=lambda path: path.endswith("obs/quality.py"))
def quality_telemetry_sink_only(call, imports):
    return (
        _dotted(call.func, imports).endswith(".obs.telemetry.emit")
        and call.args and getattr(call.args[0], "value", None) == "quality"
        and "emit('quality') outside obs/quality.py"
    )


def no_plain_np_unique(tree, path):
    inside_sorted_unique = {
        id(node) for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and func.name == "sorted_unique"
        for node in ast.walk(func)
    }
    return [
        f"{path}:{call.lineno} np.{call.func.attr} (use kernels.sorted_unique)"
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and id(call) not in inside_sorted_unique
        and isinstance(call.func, ast.Attribute)
        and getattr(call.func.value, "id", None) in ("np", "numpy")
        and (call.func.attr in {"union1d", "intersect1d", "setdiff1d", "setxor1d"}
             or (call.func.attr == "unique"
                 and not any((kw.arg or "").startswith("return_") for kw in call.keywords)))
    ]


ALL = (SRC, TESTS, BENCH)
RULES = {  # name -> (check, roots it walks)
    "no-global-numpy-random": (no_global_numpy_random, ALL),
    "forbidden-import": (forbidden_import, ALL),
    "no-bare-print": (no_bare_print, (SRC, TESTS)),
    "no-silent-except": (no_silent_except, ALL),
    "no-wallclock-in-library": (no_wallclock_in_library, (SRC,)),
    "no-mutable-default-arg": (no_mutable_default_arg, ALL),
    "telemetry-sink-only": (telemetry_sink_only, (SRC,)),
    "quality-telemetry-sink-only": (quality_telemetry_sink_only, (SRC,)),
    "no-plain-np-unique": (no_plain_np_unique, (SRC,)),
}


def _lines(hits: list[str]) -> list[int]:
    return sorted(int(hit.split(" ")[0].rsplit(":", 1)[1]) for hit in hits)


@pytest.mark.parametrize("rule", RULES)
def test_tree_follows_rule(rule):
    check, roots = RULES[rule]
    assert all(_trees(root) for root in roots)
    hits = [hit for root in roots for path, tree in _trees(root) for hit in check(tree, path)]
    assert not hits, f"{rule}: " + ", ".join(hits)


def _case(*values, source, path=LIB):
    return pytest.param(*values, path, source,
                        id=source if path == LIB else f"{path}: {source}")


@pytest.mark.parametrize("rule, lines, path, source", [
    _case("no-global-numpy-random", [4],
          source="import numpy as np\n\ndef f():\n    return np.random.rand(3)\n"),
    _case("no-global-numpy-random", [2],
          source="from numpy.random import shuffle\nshuffle([1, 2])\n"),
    _case("forbidden-import", [1, 2], source="import torch\nfrom pandas import DataFrame\n"
          "import numpy as np\nimport os\n"),
    _case("forbidden-import", [2], source="import pytest\nimport torch\n",
          path="tests/test_x.py"),
    _case("no-bare-print", [1], source="print('hello')\n"),
    _case("no-silent-except", [3, 7], source="try:\n    x = 1\nexcept:\n    pass\n"
          "try:\n    y = 2\nexcept Exception:\n    pass\n"),
    _case("no-wallclock-in-library", [3, 4], source="import time\n"
          "from time import perf_counter\na = time.time()\nb = perf_counter()\n"),
    _case("no-mutable-default-arg", [1, 4], source="def f(xs=[]):\n    return xs\n\n"
          "def g(mapping=dict()):\n    return mapping\n\n"
          "def ok(xs=None, n=3, name='x'):\n    return xs\n"),
    _case("telemetry-sink-only", [4, 6, 7, 12], source="import os\n\n"
          "def log_line(path, text):\n    with open(path, 'a') as handle:\n"
          "        handle.write(text)\n    fd = os.open(path, os.O_WRONLY | os.O_APPEND)\n"
          "    os.write(fd, text.encode())\n    os.close(fd)\n\ndef outer(path):\n"
          "    def inner(text):\n        return open(path, mode='ab').write(text)\n"
          "    return inner\n"),
    _case("quality-telemetry-sink-only", [4], source="from .obs import telemetry\n\n"
          "def report(recall):\n"
          "    telemetry.emit('quality', kind='audit', recall=recall)\n"),
    _case("quality-telemetry-sink-only", [4], path="src/repro/obs/slo.py",
          source="from . import telemetry as _telemetry\n\ndef publish(recall):\n"
          "    _telemetry.emit('quality', kind='audit', recall=recall)\n"),
    _case("no-plain-np-unique", [2], source="import numpy as np\nx = np.unique(a)\n"),
    _case("no-plain-np-unique", [2], source="import numpy\nx = len(numpy.unique(a))\n"),
    _case("no-plain-np-unique", [2], source="def f(a):\n    return np.unique(a, axis=0)\n"),
    _case("no-plain-np-unique", [1], source="x = np.union1d(a, b)\n"),
    _case("no-plain-np-unique", [1], source="x = np.intersect1d(a, b, assume_unique=True)\n"),
    _case("no-plain-np-unique", [1], source="x = np.setdiff1d(a, b)\n"),
    _case("no-plain-np-unique", [1], source="x = np.setxor1d(a, b)\n"),
    _case("no-plain-np-unique", [2],
          source="def sorted_unique_ish(a):\n    return np.unique(a)\n"),
])
def test_injected_violation_is_rejected(rule, lines, path, source):
    check, roots = RULES[rule]
    assert path.split("/")[0] in roots
    assert _lines(check(ast.parse(source), path)) == lines


@pytest.mark.parametrize("path, source", [
    _case(source="import numpy as np\nrng = np.random.default_rng(0)\n"
          "seq = np.random.SeedSequence(1)\nx = rng.random(3)\n"),
    _case(source="from . import sibling\nfrom ..pkg import thing\n"),
    _case(source="try:\n    x = 1\nexcept ValueError:\n    pass\n"
          "except Exception:\n    raise RuntimeError('context')\n"),
    _case(source="print('x')\n", path="src/repro/__main__.py"),
    _case(source="print('x')\n", path="src/repro/obs/log.py"),
    _case(source="print('table')\n", path="benchmarks/bench_x.py"),
    _case(source="from repro.obs.clock import perf_counter\nstart = perf_counter()\n"),
    *(_case(source="import time\nstart = time.perf_counter()\n", path=path)
      for path in ("src/repro/obs/timing.py", "src/repro/bench/timing.py", "tests/test_x.py")),
    _case(source="import os\n\ndef sink(fd, payload):\n    os.write(fd, payload)\n",
          path="src/repro/obs/telemetry.py"),
    _case(source="def rewrite(path, text):\n    with open(path, 'w') as handle:\n"
          "        handle.write(text)\n    with open(path) as handle:\n"
          "        return handle.read()\n"),
    _case(source="from . import telemetry\n\ndef record_audit(recall):\n"
          "    telemetry.emit('quality', kind='audit', recall=recall)\n",
          path="src/repro/obs/quality.py"),
    _case(source="from .obs import telemetry\n\ndef report(seconds):\n"
          "    telemetry.emit('query', seconds=seconds)\n"
          "    telemetry.emit(compute_stream(), x=1)\n"),
    _case(source="x, inv = np.unique(a, return_inverse=True)\n"),
    _case(source="x, n = np.unique(a, return_counts=True)\n"),
    _case(source="def sorted_unique(a):\n    return np.unique(a)\n"),
    _case(source="x = kernels.sorted_unique(a)\n"),
])
def test_allowed_forms_pass(path, source):
    tree, root = ast.parse(source), path.split("/")[0]
    assert not [hit for check, roots in RULES.values() if root in roots
                for hit in check(tree, path)]


def test_one_violation_of_each_rule_is_caught():
    tree = ast.parse(
        "import numpy as np\nimport time\nimport torch\n"           # 3
        "from .obs import telemetry as _telemetry\ndef f(xs=[]):\n"  # 5
        "    print(np.random.rand(2))\n"                             # 6
        "    started = time.perf_counter()\n"                        # 7
        "    try:\n        return started\n    except Exception:\n"  # 10
        "        pass\n    _telemetry.emit('quality', kind='x')\n"   # 12
        "    open('log.jsonl', 'a')\n    return np.unique(xs)\n"     # 13, 14
    )
    assert {rule: _lines(check(tree, LIB)) for rule, (check, _) in RULES.items()} == {
        "forbidden-import": [3], "no-mutable-default-arg": [5],
        "no-bare-print": [6], "no-global-numpy-random": [6],
        "no-wallclock-in-library": [7], "no-silent-except": [10],
        "quality-telemetry-sink-only": [12], "telemetry-sink-only": [13],
        "no-plain-np-unique": [14],
    }
