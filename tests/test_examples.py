"""Every example under ``examples/`` imports.

Loading a script runs only its module-level code (imports, constants,
definitions; ``main()`` is guarded by ``__name__``), so a name an example
imports that the package no longer has fails here rather than on a
reader's first run.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
