#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark's driver form.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W [--workload W2 | all] --pairs N [--layers]

Each pair runs ``benchmarks/e2e/run.py --workload W --seed S --seconds 10
--trace 0`` once in each checkout with the same seed, alternating which
side goes first (this host drifts over minutes, so back-to-back runs share
its state and the order must not favour a side). Per (workload, end-to-end
metric) it prints both medians, the parent's inter-quartile range, the
ratio change/parent, wins/ties/losses of the change in the metric's own
direction, and the no-regression verdict against the metric's ``bound`` in
BENCHMARK.json — ``ok`` / ``regressed`` / ``unresolved``, the rule
``run.py --compare`` applies (choosing-metrics §6.5: runs spread wider than
the bound resolve nothing unless they separate cleanly) — then, for every
row whose runs on a side spread wider than its bound (every ``unresolved``
row is one), both sides' values sorted (two modes and plain noise read
differently), then the total ``failed``. Exit status 1 on any ``regressed``
row or if the change fails more operations than the parent. The rule for
claiming a gain (choosing-metrics §8): the change wins at least nine tenths
of the pairs and the medians differ by more than the parent's IQR.

``--layers`` then makes three alternating pairs of ``--trace 1`` runs
(seeds ``--first-seed`` to ``+2``) and prints, with both sides' medians,
every count metric that differs in any pair and every per-layer seconds
metric that all three pairs move the same way by more than 5%: one traced
run per side drifts by more than that on a shared host. Whether the trace
places the saving where the claim put it (choosing-metrics §6.6) is the
same command as the pairs.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(
    checkout: str, workload: str, seed: int, extra: list[str], trace: int = 0
) -> dict:
    """One driver-form run in ``checkout``; its result line as a dict."""
    command = [
        sys.executable, os.path.join(checkout, "benchmarks", "e2e", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", "10", "--trace", str(trace), *extra,
    ]
    proc = subprocess.run(
        command, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def alternating_pairs(
    sides: dict[str, str], workload: str, first_seed: int, pairs: int,
    extra: list[str], trace: int = 0,
) -> dict[str, list[dict]]:
    """``pairs`` runs a side, pair ``i`` at seed ``first_seed + i`` on both,
    alternating which side goes first; each run's result line per side."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], workload, first_seed + pair, extra, trace)
            runs[side].append(result)
            fit = result["metrics"].get("fit_s")  # a traced run has per-layer metrics
            note = f" fit_s={fit['value']:.3f}" if fit else ""
            print(f"{workload} pair {pair} {side:6s}{note} failed={result['failed']}",
                  file=sys.stderr, flush=True)
    return runs


def compare_rules():
    """``run.py --compare``'s ``(verdict, spread)``, so both tools share one rule."""
    spec = importlib.util.spec_from_file_location(
        "e2e_run", os.path.join(REPO, "benchmarks", "e2e", "run.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def spread(values: list[float]) -> float:
        # run.py's spread divides by the median: runs that all agree (an
        # all-zero score included) spread by nothing, any other zero median
        # without bound.
        if min(values) == max(values):
            return 0.0
        return module.spread(values) if statistics.median(values) else float("inf")

    return module.verdict, spread


def summarize(
    metric: dict, parent: list[float], change: list[float], verdict
) -> tuple[str, str]:
    """One table row and its verdict."""
    sign = -1.0 if metric["better"] == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if len(parent) >= 2:
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    else:
        q1 = q3 = p_med
    ratio = c_med / p_med if p_med else float("nan")
    beyond = "yes" if abs(c_med - p_med) > q3 - q1 else "no"
    call = verdict(parent, change, metric["better"], metric["bound"])
    row = (
        f"{metric['name']:15s} {p_med:10.4f} [{q1:9.4f} {q3:9.4f}] {c_med:10.4f} "
        f"{ratio:7.3f}  {wins:2d}/{ties:2d}/{len(parent) - wins - ties:2d}  {beyond:6s}"
        f"  {metric['bound']:5.2f}  {call}"
    )
    return row, call


#: Traced pairs ``--layers`` makes; a layer moved only if every one agrees.
LAYER_PAIRS = 3


def layer_differences(parent: list[dict], change: list[dict]) -> list[str]:
    """Rows for the per-layer metrics of paired traced runs that moved:
    every count that differs in any pair, every seconds metric that each
    pair moves the same way by more than 5%; both sides' medians."""
    rows = []
    for name, entry in parent[0].items():
        if entry["unit"] not in ("count", "s") or any(name not in run for run in change):
            continue
        pairs = [(p[name]["value"], c[name]["value"]) for p, c in zip(parent, change)]
        if entry["unit"] == "count":
            moved = any(p != c for p, c in pairs)
        else:
            moved = all(c > 1.05 * p for p, c in pairs) or all(c < 0.95 * p for p, c in pairs)
        if moved:
            p_med = statistics.median(p for p, _ in pairs)
            c_med = statistics.median(c for _, c in pairs)
            ratio = f"{c_med / p_med:7.3f}" if p_med else "      -"
            rows.append(f"{name:34s} {p_med:14.4f} {c_med:14.4f} {ratio}  {entry['unit']}")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", action="append", required=True,
                        help="a BENCHMARK.json workload; may repeat, or 'all'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--input-seed", type=int, default=None,
                        help="passed through to run.py (moves data and model seeds)")
    parser.add_argument("--layers", action="store_true",
                        help="after the pairs, three alternating traced pairs from "
                             "the first seed: the counts that differ and the per-layer "
                             "seconds every pair moves the same way by more than 5%%")
    parser.add_argument("--out", default="",
                        help="also write every run's result line here as JSON, "
                             "{workload: {parent: [...], change: [...]}}")
    args = parser.parse_args(argv)
    extra = [] if args.input_seed is None else ["--input-seed", str(args.input_seed)]
    sides = {"parent": os.path.abspath(args.parent_dir),
             "change": os.path.abspath(args.change_dir)}
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    workloads = args.workload
    if "all" in workloads:
        workloads = [workload["name"] for workload in declared["workloads"]]
    verdict, spread = compare_rules()

    print("wins/ties/losses are the change's; 'beyond' = medians differ by more "
          "than the parent's IQR; verdict = no worse than 'bound' (choosing-metrics §6.5)")
    runs: dict[str, dict[str, list[dict]]] = {}
    regressed = 0
    for workload in workloads:
        runs[workload] = alternating_pairs(sides, workload, args.first_seed, args.pairs, extra)
        if args.out:  # rewritten after every workload: a long matrix can be read early
            with open(args.out, "w") as handle:
                json.dump(runs, handle)
        print(f"\n{workload}: {args.pairs} alternating pairs")
        print(
            f"{'metric':15s} {'parent':>10s} [{'q1':>9s} {'q3':>9s}] {'change':>10s} "
            f"{'ratio':>7s}  {'w/t/l':>8s}  {'beyond':6s}  {'bound':>5s}  verdict"
        )
        wide = []  # rows whose medians decide nothing (every `unresolved` one is here)
        for metric in declared["end_to_end"]:
            values = {
                side: [run["metrics"][metric["name"]]["value"] for run in side_runs]
                for side, side_runs in runs[workload].items()
            }
            row, call = summarize(metric, values["parent"], values["change"], verdict)
            regressed += call == "regressed"
            print(row)
            if max(map(spread, values.values())) > metric["bound"]:
                wide.append((metric["name"], call, values))
        for name, call, values in wide:
            print(f"{name} ({call}): a side's runs spread wider than the bound; every run, sorted")
            for side, side_values in values.items():
                print(f"  {side:6s} " + " ".join(f"{v:.4f}" for v in sorted(side_values)))
        failed = {
            side: sum(run["failed"] for run in side_runs)
            for side, side_runs in runs[workload].items()
        }
        print(f"failed: parent {failed['parent']}, change {failed['change']}", flush=True)
        regressed += failed["change"] > failed["parent"]
        if args.layers:
            traced = alternating_pairs(
                sides, workload, args.first_seed, LAYER_PAIRS, extra, trace=1
            )
            last = args.first_seed + LAYER_PAIRS - 1
            print(f"\n{workload}: {LAYER_PAIRS} alternating traced pairs (seeds "
                  f"{args.first_seed}-{last}), medians; counts that differ, per-layer "
                  f"seconds every pair moves the same way by more than 5%")
            print(f"{'per-layer metric':34s} {'parent':>14s} {'change':>14s} {'ratio':>7s}  unit")
            rows = layer_differences(
                *([run["metrics"] for run in traced[side]] for side in ("parent", "change"))
            )
            print("\n".join(rows) if rows else "(none)", flush=True)
    print(f"\nregressed rows: {regressed}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
