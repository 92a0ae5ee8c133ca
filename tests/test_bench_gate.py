"""The kernel gate's rule (``benchmarks/bench_kernels.py::check``) on
synthetic records: no timing, only the arithmetic of the rule."""

from __future__ import annotations

import copy
import json
from pathlib import Path

from benchmarks.bench_kernels import (
    MAX_AUDIT_SHARE,
    MAX_KERNEL_OVERHEAD,
    MAX_WORSENING,
    check,
)

COMMITTED = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCH_kernels.json").read_text()
)


def _record() -> dict:
    return copy.deepcopy(COMMITTED)


def test_the_committed_record_passes_against_itself():
    assert check(_record(), COMMITTED) == ([], [])


def test_the_bounds_are_the_stated_ones():
    assert (MAX_WORSENING, MAX_KERNEL_OVERHEAD, MAX_AUDIT_SHARE) == (1.5, 0.05, 0.02)


def test_a_speedup_fallen_past_the_factor_fails_and_names_its_row():
    record = _record()
    record["kernels"]["join_10k"]["speedup"] /= 1.6
    failures, notes = check(record, COMMITTED)
    assert len(failures) == 1 and failures[0].startswith("join_10k:")
    assert notes == []


def test_a_speedup_fallen_within_the_factor_passes():
    record = _record()
    record["kernels"]["join_10k"]["speedup"] /= 1.4
    assert check(record, COMMITTED) == ([], [])


def test_an_all_on_ratio_risen_past_the_factor_fails():
    record = _record()
    record["all_on"]["serving"]["ratio"] *= 1.6
    failures, _ = check(record, COMMITTED)
    assert len(failures) == 1 and failures[0].startswith("serving:")


def test_a_kernel_all_on_overhead_of_six_percent_fails():
    record, baseline = _record(), _record()
    # A baseline at the same ratio isolates the absolute bound.
    for r in (record, baseline):
        r["all_on"]["kernels_10k"]["ratio"] = 1.06
    failures, _ = check(record, baseline)
    assert failures == ["kernels_10k: all-on overhead +6.00% > 5%"]


def test_an_audit_share_of_two_and_a_half_percent_fails():
    record = _record()
    record["all_on"]["serving"]["audit_share"] = 0.025
    failures, _ = check(record, COMMITTED)
    assert failures == ["serving: audit share 2.50% > 2%"]


def test_a_row_missing_from_the_baseline_is_reported_not_failed():
    record = _record()
    record["kernels"]["new_kernel"] = {"speedup": 0.1}
    baseline = _record()
    del baseline["all_on"]["serving"]
    failures, notes = check(record, baseline)
    assert failures == []
    assert sorted(notes) == [
        "new_kernel: not in the baseline, not checked",
        "serving: not in the baseline, not checked",
    ]
