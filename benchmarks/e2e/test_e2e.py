"""The benchmark against its own declaration, at --smoke size (< 60 s).

Run with ``python -m pytest benchmarks/e2e -q``; tier-1's ``testpaths`` is
unchanged, so the repository's own suite does not collect this file.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.e2e import run as bench

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
DECLARATION = bench.load_declaration()
WORKLOADS = [w["name"] for w in DECLARATION["workloads"]]


def _run(*argv: str, cwd: str = bench.REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(bench.HERE, "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_declaration_is_within_the_contract_limits():
    assert set(DECLARATION) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert DECLARATION["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(DECLARATION["end_to_end"]) <= 16
    assert 1 <= len(DECLARATION["per_layer"]) <= 128
    names = WORKLOADS + [
        m["name"] for m in DECLARATION["end_to_end"] + DECLARATION["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in DECLARATION["workloads"])
    for metric in DECLARATION["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher") and 0 < metric["bound"] <= 0.25
    setup = next(m for m in DECLARATION["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DECLARATION["end_to_end"])
    for metric in DECLARATION["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_specs_match_the_declared_workloads():
    from benchmarks.e2e.specs import RUN_SECONDS, WORKLOADS as SPECS

    assert [spec.name for spec in SPECS] == WORKLOADS
    assert [spec.why for spec in SPECS] == [w["why"] for w in DECLARATION["workloads"]]
    assert RUN_SECONDS == DECLARATION["run_seconds"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_one_run_emits_exactly_the_declared_metrics(workload, trace):
    proc = _run("--workload", workload, "--seed", "11", "--seconds", "10",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = DECLARATION["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], float)
        if not trace:
            assert emitted["value"] > 0, metric["name"]


def test_suite_report_compares_ok_with_itself(tmp_path):
    report_path = str(tmp_path / "report.json")
    proc = _run("--smoke", "--repeats", "2", "--seed", "7",
                "--workload", "drift_finetune", "--out", report_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for metric in DECLARATION["end_to_end"] + DECLARATION["per_layer"]:
        assert metric["name"] in proc.stdout
    with open(report_path) as handle:
        report = json.load(handle)
    assert {"git_sha", "config_hash", "seed", "cpu_count", "python", "numpy",
            "env"} <= set(report["provenance"])
    result = report["workloads"]["drift_finetune"]
    assert result["failed"] == 0 and result["failed_frac"] == 0.0
    with open(report_path + ".spans.json") as handle:
        span = json.load(handle)[0]
    assert {"name", "start", "end", "parent", "workload"} <= set(span)

    same = _run("--compare", report_path, report_path)
    assert same.returncode == 0, same.stdout
    rows = [line for line in same.stdout.splitlines() if "drift_finetune" in line]
    assert len(rows) == len(DECLARATION["end_to_end"])
    assert all(row.split()[-1] == "ok" for row in rows)

    # The same report with one metric made 2x worse must regress.
    entry = result["end_to_end"]["finetune_s"]
    entry["values"] = [2.0 * value for value in entry["values"]]
    worse_path = str(tmp_path / "worse.json")
    with open(worse_path, "w") as handle:
        json.dump(report, handle)
    worse = _run("--compare", report_path, worse_path)
    assert worse.returncode == 1
    assert "regressed" in worse.stdout


@pytest.mark.parametrize(
    "base, new, better, expected",
    [
        ([10.0, 10.1, 10.2], [10.3, 10.4, 10.5], "lower", "ok"),
        ([10.0, 10.1, 10.2], [12.0, 12.1, 12.2], "lower", "regressed"),
        ([10.0, 10.1, 10.2], [8.0, 8.1, 8.2], "lower", "ok"),
        ([10.0, 10.1, 10.2], [8.0, 8.1, 8.2], "higher", "regressed"),
        ([8.0, 10.0, 12.0], [9.0, 11.0, 13.0], "lower", "unresolved"),
        ([8.0, 10.0, 12.0], [5.0, 6.0, 7.0], "lower", "ok"),
        ([8.0, 10.0, 12.0], [14.0, 16.0, 18.0], "lower", "regressed"),
        ([0.7], [0.7], "higher", "ok"),
    ],
)
def test_verdict(base, new, better, expected):
    assert bench.verdict(base, new, better, bound=0.10) == expected


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(bench.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        bench.HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
