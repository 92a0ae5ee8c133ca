"""Properties of ``src/`` stated as one ``ast`` walk per rule.

No plain ``np.unique``: on numpy 2.x a ``np.unique`` with no ``return_*``
keyword hashes int and fixed-width string arrays, 12-16x slower than the
sort of :func:`repro.db.kernels.sorted_unique` at join-key sizes, and
``np.union1d`` / ``intersect1d`` / ``setdiff1d`` / ``setxor1d`` call it
internally. ``sorted_unique`` itself is the one place allowed to.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_SET_OPS = {"union1d", "intersect1d", "setdiff1d", "setxor1d"}
_ALLOWED_IN = {"sorted_unique"}


def _numpy_attr(func: ast.expr) -> str | None:
    """``unique`` for ``np.unique`` / ``numpy.unique``, else None."""
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    ):
        return func.attr
    return None


def plain_unique_calls(source: str, filename: str = "<src>") -> list[str]:
    """``file:line name`` of every hash-path ``np.unique`` or set op."""
    found: list[str] = []

    def visit(node: ast.AST, allowed: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            allowed = allowed or node.name in _ALLOWED_IN
        if isinstance(node, ast.Call) and not allowed:
            name = _numpy_attr(node.func)
            plain = name == "unique" and not any(
                (kw.arg or "").startswith("return_") for kw in node.keywords
            )
            if plain or name in _SET_OPS:
                found.append(f"{filename}:{node.lineno} np.{name}")
        for child in ast.iter_child_nodes(node):
            visit(child, allowed)

    visit(ast.parse(source, filename), False)
    return found


def test_src_has_no_plain_np_unique():
    sources = sorted(SRC.rglob("*.py"))
    assert sources
    found = [
        hit
        for path in sources
        for hit in plain_unique_calls(path.read_text(), str(path.relative_to(SRC)))
    ]
    assert not found, "use kernels.sorted_unique: " + ", ".join(found)


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\nx = np.unique(a)\n",
        "import numpy\nx = len(numpy.unique(a))\n",
        "def f(a):\n    return np.unique(a, axis=0)\n",
        "x = np.union1d(a, b)\n",
        "x = np.intersect1d(a, b, assume_unique=True)\n",
        "x = np.setdiff1d(a, b)\n",
        "x = np.setxor1d(a, b)\n",
        "def sorted_unique_ish(a):\n    return np.unique(a)\n",
    ],
)
def test_injected_violation_is_rejected(source):
    assert plain_unique_calls(source)


@pytest.mark.parametrize(
    "source",
    [
        "x, inv = np.unique(a, return_inverse=True)\n",
        "x, n = np.unique(a, return_counts=True)\n",
        "def sorted_unique(a):\n    return np.unique(a)\n",
        "x = kernels.sorted_unique(a)\n",
    ],
)
def test_allowed_forms_pass(source):
    assert not plain_unique_calls(source)
