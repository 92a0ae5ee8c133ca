"""End-to-end ASQP-RL benchmark: fit / serve / drift workloads, per-layer trace.

Three ways to call it (see README.md):

* one measured run, the form the PR driver uses, printing one JSON object
  as the last line of standard output::

      python3 benchmarks/e2e/run.py --workload serve_mixed --seed 7 \
          --seconds 10 --trace 0

* the whole suite (no ``--trace``): every selected workload ``--repeats``
  times untraced, then once traced with the same seed; prints every metric
  declared in BENCHMARK.json by name with unit, direction and bound, and
  with ``--out FILE`` writes the report ``--compare`` reads::

      python3 benchmarks/e2e/run.py --seed 7 [--workload NAME] [--out FILE]

* ``--compare A.json B.json``: one row per (workload, end-to-end metric);
  exit status 1 if any row regressed.

Every measured run happens in a fresh child process with the hash seed and
the BLAS thread counts pinned, because the program's action space depends
on ``set`` iteration order (README.md, "hash-seed finding").
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
OUT_DIR = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(REPO, "BENCHMARK.json")

#: Determinism is pinned here, not fixed in src/: see README.md.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: The contract allows a run 180 s; leave room to report the failure.
CHILD_TIMEOUT_S = 170


def child_env() -> dict[str, str]:
    """The parent's environment minus every REPRO_* switch, plus the pins."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, REPO, *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    return env


def spawn(args: argparse.Namespace, workload: str, trace: int,
          detail: str = "", capture: bool = False) -> subprocess.CompletedProcess:
    """Run one workload once in a pinned child; waits for it to end."""
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.input_seed is not None:
        command += ["--input-seed", str(args.input_seed)]
    if detail:
        command += ["--detail", detail]
    return subprocess.run(
        command,
        env=child_env(),
        stdout=subprocess.PIPE if capture else None,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )


# ------------------------------------------------------------------ #
# child: one measured run
# ------------------------------------------------------------------ #
def run_child(args: argparse.Namespace) -> int:
    import compileall
    from dataclasses import replace

    # A fresh checkout has no byte code yet, and the program imports some of
    # its modules lazily: compile them now, not inside a timed phase.
    compileall.compile_dir(SRC, quiet=2)

    from benchmarks.e2e.lifecycle import Lifecycle
    from benchmarks.e2e.specs import BY_NAME
    from benchmarks.e2e.tracing import Recorder

    spec = BY_NAME[args.workload].sized(args.seconds, args.smoke)
    if args.input_seed is not None:
        spec = replace(spec, input_seed=args.input_seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    recorder = Recorder() if args.trace else None
    result = Lifecycle(spec, args.seed, recorder, OUT_DIR).run()
    metrics = result.per_layer if result.per_layer is not None else result.end_to_end
    if args.detail:
        with open(args.detail, "w") as handle:
            json.dump(
                {
                    "failures": result.checks.failures,
                    "facts": result.facts,
                    "spans": result.spans,
                },
                handle,
                default=float,
            )
    for failure in result.checks.failures:
        sys.stderr.write(f"check failed: {failure}\n")
    sys.stdout.write(
        json.dumps({
            "correct": result.checks.failed == 0,
            "attempted": result.checks.attempted,
            "failed": result.checks.failed,
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        })
        + "\n"
    )
    return 0


# ------------------------------------------------------------------ #
# suite: every workload, both passes, one report
# ------------------------------------------------------------------ #
def load_declaration() -> dict:
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def measured(args: argparse.Namespace, workload: str, trace: int) -> tuple[dict, dict]:
    """One child run: its result line and its detail file."""
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        detail_path = os.path.join(scratch, "detail.json")
        proc = spawn(args, workload, trace, detail=detail_path, capture=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"{workload} (trace={trace}) exited with {proc.returncode}"
            )
        with open(detail_path) as handle:
            detail = json.load(handle)
    return json.loads(proc.stdout.strip().splitlines()[-1]), detail


def provenance(args: argparse.Namespace) -> dict:
    import numpy

    sys.path.insert(0, SRC)
    from repro.bench.reporting import run_provenance

    return {
        **run_provenance(),
        "seed": args.seed,
        "input_seed": args.input_seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "repeats": args.repeats,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "env": PINNED_ENV,
    }


def run_suite(args: argparse.Namespace) -> int:
    declaration = load_declaration()
    names = args.workload or [w["name"] for w in declaration["workloads"]]
    os.makedirs(OUT_DIR, exist_ok=True)
    report = {"provenance": provenance(args), "workloads": {}}
    spans: list[dict] = []
    for name in names:
        untraced = [measured(args, name, trace=0) for _ in range(args.repeats)]
        runs = [result for result, _ in untraced]
        traced, detail = measured(args, name, trace=1)
        spans += detail["spans"]
        end_to_end = {
            metric["name"]: {
                "unit": metric["unit"],
                "values": [run["metrics"][metric["name"]]["value"] for run in runs],
            }
            for metric in declaration["end_to_end"]
        }
        for entry in end_to_end.values():
            entry["median"] = statistics.median(entry["values"])
        attempted = sum(run["attempted"] for run in runs) + traced["attempted"]
        failed = sum(run["failed"] for run in runs) + traced["failed"]
        # The raw intervals and probe samples stay in the runs' detail files.
        facts = {k: v for k, v in detail["facts"].items() if k != "timings"}

        def timed_wall(run_facts: dict) -> float:
            """Plain wall seconds of the timed phases, every repeat."""
            return sum(run_facts["phase_s"][phase] for phase in ("fit", "serve", "drift"))

        untraced_s = statistics.median(timed_wall(d["facts"]) for _, d in untraced)
        traced_s = timed_wall(facts)
        report["workloads"][name] = {
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "failures": detail["failures"],
            "facts": facts,
            "slowdown": [d["facts"]["slowdown"] for _, d in untraced],
            "trace_overhead_measured_frac": (traced_s - untraced_s) / untraced_s,
        }
        print_workload(name, report["workloads"][name], declaration)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
        with open(args.out + ".spans.json", "w") as handle:
            json.dump(spans, handle)
    return 1 if any(w["failed"] for w in report["workloads"].values()) else 0


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 below 2 runs)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1) / abs(statistics.median(values))


def print_workload(name: str, result: dict, declaration: dict) -> None:
    out = sys.stdout.write
    out(f"\n== {name}: failed {result['failed']}/{result['attempted']} "
        f"(failed_frac {result['failed_frac']:.6f})\n")
    for failure in result["failures"]:
        out(f"   check failed: {failure}\n")
    out(f"trace overhead, traced vs untraced wall time of the timed phases: "
        f"{result['trace_overhead_measured_frac']:+.4f}\n")
    out("machine slowdown seen by the probe, per untraced run: "
        + " ".join(f"{value:.2f}" for value in result["slowdown"]) + "\n")
    out(f"{'end-to-end metric':<18}{'median':>12} {'unit':<6}{'better':<8}"
        f"{'bound':>6}{'spread':>8}  runs\n")
    for metric in declaration["end_to_end"]:
        entry = result["end_to_end"][metric["name"]]
        out(f"{metric['name']:<18}{entry['median']:>12.4f} {metric['unit']:<6}"
            f"{metric['better']:<8}{metric['bound']:>6.2f}"
            f"{spread(entry['values']):>8.3f}  {len(entry['values'])}\n")
    out(f"{'per-layer metric':<34}{'value':>14} unit\n")
    for metric in declaration["per_layer"]:
        entry = result["per_layer"][metric["name"]]
        out(f"{metric['name']:<34}{entry['value']:>14.4f} {entry['unit']}\n")


# ------------------------------------------------------------------ #
# compare: two reports, one verdict per (workload, end-to-end metric)
# ------------------------------------------------------------------ #
def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric on one workload."""
    if base == new:
        return "ok"  # the same runs: nothing to resolve
    sign = 1.0 if better == "lower" else -1.0
    base_median, new_median = statistics.median(base), statistics.median(new)
    worse_by = sign * (new_median - base_median) / abs(base_median)
    if max(spread(base), spread(new)) > bound:
        # Too noisy for the medians to decide: only a clean separation does.
        gap = min(sign * v for v in new) - max(sign * v for v in base)
        if gap > bound * abs(base_median):
            return "regressed"
        if max(sign * v for v in new) < min(sign * v for v in base):
            return "ok"
        return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def run_compare(path_a: str, path_b: str) -> int:
    declaration = load_declaration()
    with open(path_a) as handle:
        report_a = json.load(handle)
    with open(path_b) as handle:
        report_b = json.load(handle)
    out = sys.stdout.write
    out(f"{'workload':<17}{'metric':<16}{'A median':>12}{'B median':>12}"
        f"{'B/A':>8} {'better':<7}{'bound':>6}  verdict\n")
    regressed = 0
    for name, result_a in report_a["workloads"].items():
        result_b = report_b["workloads"].get(name)
        if result_b is None:
            continue
        for metric in declaration["end_to_end"]:
            a = result_a["end_to_end"][metric["name"]]["values"]
            b = result_b["end_to_end"][metric["name"]]["values"]
            call = verdict(a, b, metric["better"], metric["bound"])
            regressed += call == "regressed"
            median_a, median_b = statistics.median(a), statistics.median(b)
            out(f"{name:<17}{metric['name']:<16}{median_a:>12.4f}{median_b:>12.4f}"
                f"{median_b / median_a:>8.3f} {metric['better']:<7}"
                f"{metric['bound']:>6.2f}  {call}\n")
        for side, result in (("A", result_a), ("B", result_b)):
            if result["failed"]:
                out(f"{name:<17}{side}: {result['failed']} failed operations\n")
                regressed += 1
        differing = [
            f"{key} {entry['value']:g} -> {result_b['per_layer'][key]['value']:g}"
            for key, entry in result_a["per_layer"].items()
            if entry["unit"] == "count"
            and result_b["per_layer"].get(key, entry)["value"] != entry["value"]
        ]
        if differing:
            out(f"{name:<17}counts differ: {'; '.join(differing)}\n")
    return 1 if regressed else 0


# ------------------------------------------------------------------ #
def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload name (suite mode: may repeat; default all)")
    parser.add_argument("--seed", type=int, default=7,
                        help="seed of the request sequence")
    parser.add_argument("--input-seed", type=int, default=None,
                        help="seed of data, queries and model (default: the spec's)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one run: 0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--repeats", type=int, default=3,
                        help="suite mode: untraced runs per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="the same workloads at ~1/20 size (tests)")
    parser.add_argument("--out", help="suite mode: write the report here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--detail", default="",
                        help="one run: write its checks, facts, spans and raw "
                             "timings (intervals, probe samples) to this file")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.compare:
        return run_compare(*args.compare)
    if not os.path.isdir(SRC):
        sys.stderr.write(f"no program to measure: {SRC} is missing\n")
        return 2
    if args.seconds is None:
        args.seconds = float(load_declaration()["run_seconds"])
    if args.child:
        args.workload = args.workload[0]
        return run_child(args)
    if args.trace is None:
        return run_suite(args)
    if not args.workload or len(args.workload) != 1:
        sys.stderr.write("--trace needs exactly one --workload\n")
        return 2
    return spawn(args, args.workload[0], args.trace, detail=args.detail).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
