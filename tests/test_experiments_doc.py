"""EXPERIMENTS.md's measured results are what ``scripts/build_experiments.py``
renders.

The script rewrites the block between its markers from ``bench_results/``
and its own commentary, so a hand edit of that block which the script does
not carry would be reverted by its next run. It fails here first.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_rendered_block_is_the_committed_one():
    path = ROOT / "scripts" / "build_experiments.py"
    spec = importlib.util.spec_from_file_location("build_experiments", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    block, missing = script.render(str(ROOT / "bench_results"))
    assert missing == []
    _, _, rest = (ROOT / "EXPERIMENTS.md").read_text().partition(script.START)
    committed, found, _ = rest.partition(script.END)
    assert found, "EXPERIMENTS.md has no measured-results block"
    assert block == script.START + committed + script.END
