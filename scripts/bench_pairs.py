#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark's driver form.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N

Each pair runs ``benchmarks/e2e/run.py --workload W --seed S --seconds 10
--trace 0`` once in each checkout with the same seed, alternating which
side goes first (this host drifts over minutes, so back-to-back runs share
its state and the order must not favour a side). Per end-to-end metric it
prints both medians, the parent's inter-quartile range, the ratio
change/parent, wins/ties/losses of the change in the metric's own
direction and the total ``failed``. The rule for claiming a gain
(choosing-metrics §8): the change wins at least nine tenths of the pairs
and the medians differ by more than the parent's IQR.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, extra: list[str]) -> dict:
    """One driver-form run in ``checkout``; its result line as a dict."""
    command = [
        sys.executable, os.path.join(checkout, "benchmarks", "e2e", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", "10", "--trace", "0", *extra,
    ]
    proc = subprocess.run(
        command, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def directions(checkout: str) -> dict[str, str]:
    """``{end-to-end metric: "lower" | "higher"}`` from BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["end_to_end"]
    return {metric["name"]: metric["better"] for metric in declared}


def summarize(name: str, better: str, parent: list[float], change: list[float]) -> str:
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if len(parent) >= 2:
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    else:
        q1 = q3 = p_med
    ratio = c_med / p_med if p_med else float("nan")
    beyond = "yes" if abs(c_med - p_med) > q3 - q1 else "no"
    return (
        f"{name:15s} {p_med:10.4f} [{q1:9.4f} {q3:9.4f}] {c_med:10.4f} "
        f"{ratio:7.3f}  {wins:2d}/{ties:2d}/{len(parent) - wins - ties:2d}  {beyond}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--input-seed", type=int, default=None,
                        help="passed through to run.py (moves data and model seeds)")
    parser.add_argument("--out", default="",
                        help="also write every run's result line here as JSON")
    args = parser.parse_args(argv)
    extra = [] if args.input_seed is None else ["--input-seed", str(args.input_seed)]
    sides = {"parent": os.path.abspath(args.parent_dir),
             "change": os.path.abspath(args.change_dir)}

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, args.first_seed + pair, extra)
            runs[side].append(result)
            fit = result["metrics"]["fit_s"]["value"]
            print(f"pair {pair} {side:6s} fit_s={fit:.3f} failed={result['failed']}",
                  file=sys.stderr, flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"workload": args.workload, **runs}, handle)

    print(f"{args.workload}: {args.pairs} alternating pairs "
          f"(wins/ties/losses are the change's; 'beyond' = medians differ by "
          f"more than the parent's IQR)")
    print(f"{'metric':15s} {'parent':>10s} [{'q1':>9s} {'q3':>9s}] {'change':>10s} "
          f"{'ratio':>7s}  {'w/t/l':>8s}  beyond")
    for name, better in directions(sides["change"]).items():
        values = {
            side: [run["metrics"][name]["value"] for run in runs[side]]
            for side in runs
        }
        print(summarize(name, better, values["parent"], values["change"]))
    failed = {side: sum(run["failed"] for run in runs[side]) for side in runs}
    print(f"failed: parent {failed['parent']}, change {failed['change']}")
    return 1 if failed["change"] > failed["parent"] else 0


if __name__ == "__main__":
    sys.exit(main())
