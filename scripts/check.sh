#!/bin/sh
# Full per-PR check: tests + end-to-end smokes.
#
# 1. tier-1 pytest           — the repo's own test suite (ROADMAP.md),
#                              the source rules of tests/test_source_rules.py
#                              included (DESIGN.md §12).
# 2. repro explain --analyze  — the EXPLAIN ANALYZE path on a 3-table
#                              IMDB join (per-operator est/act/q-error).
# 3. repro profile -> watch    — profiles a micro demo run (CPU profiler
#                              + memory tracker + SLOs), renders one
#                              frame of `repro watch` (the report's ops
#                              sections) from the recorded artifacts,
#                              its hot-function and memory subsections
#                              included (DESIGN.md §6), and resolves every
#                              trace id the SLO statuses name with
#                              `repro analyze --trace`.
# 4. repro report --smoke      — records one tiny end-to-end run (profiled,
#                              shadow-audited at rate 1.0) and fuses it
#                              into the markdown report; the same run
#                              feeds the answer-quality check (the
#                              predicted-vs-observed Calibration table),
#                              the one-source checks (`repro watch --once`
#                              prints the summary, SLO, queries, answer-
#                              quality, profile and health sections, and
#                              its health verdict counts equal the
#                              report's; its "N shadow-audited" equals
#                              the `quality` audit rows of the run's
#                              telemetry.jsonl), `repro analyze` (a trace
#                              id from the report and every SLO exemplar
#                              id resolve to their span trees) and `repro
#                              diff` of the run against itself (must
#                              report no regressions); `repro stats`
#                              prints its training trajectory and the
#                              run holds no metrics.json. A micro demo run
#                              at audit rate 0 must read as unverified:
#                              `repro audit` exits 1 on it.
# 5. end-to-end benchmark     — the benchmark's own tests (recorder,
#                              speed probe, declaration vs. output) and
#                              one --smoke pass of all four workloads
#                              with every output check on
#                              (benchmarks/e2e/README.md); timings are
#                              not gated here.
# 6. scripts/bench_smoke.sh   — the kernel gate: paired same-run ratios
#                              against BENCH_kernels.json and the all-on
#                              observability arm (~50 s).
# 7. scripts/loc.sh           — lines per package, the size number
#                              ROADMAP.md tracks; informational.
set -e
cd "$(dirname "$0")/.."

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

# Every trace id an SLO status of run directory $1 names must resolve to
# its span tree (the alerts tell the operator to run exactly this).
check_exemplars() {
  ids="$(python -c 'import sys
from repro.obs import rundir, slo
for status in slo.statuses(rundir.load(sys.argv[1])):
    print(" ".join(status.get("exemplar_trace_ids") or []))' "$1")"
  n=0
  for id in $ids; do
    python -m repro analyze --dir "$1" --trace "$id" \
      | grep "critical path" > /dev/null \
      || { echo "SLO exemplar $id not found in $1"; exit 1; }
    n=$((n + 1))
  done
  echo "$n SLO exemplar trace ids resolve"
}

echo "== tier-1 tests"
python -m pytest -x -q

echo "== repro explain --analyze (3-table IMDB join)"
python -m repro explain \
  "SELECT title.title FROM title, movie_companies, company \
   WHERE title.id = movie_companies.movie_id \
   AND movie_companies.company_id = company.id \
   AND title.production_year > 1990" \
  --dataset imdb --scale 0.3 --analyze

echo "== repro profile -> watch --once (one profiled run, every section)"
profile_dir="$(mktemp -d)"
python -m repro profile --dir "$profile_dir" demo \
  --dataset flights --scale 0.12 --k 100 --frame-size 20 \
  --iterations 2 --light --seed 1 > /dev/null
test -s "$profile_dir/profile.collapsed.txt"
python -m repro watch --dir "$profile_dir" --once > "$profile_dir/watch.out"
cat "$profile_dir/watch.out"
grep -qx "### Hot functions (self time)" "$profile_dir/watch.out"
grep -qx "### Memory (tracemalloc)" "$profile_dir/watch.out"
check_exemplars "$profile_dir"
rm -rf "$profile_dir"

echo "== repro report --smoke -> Calibration / analyze / diff (one audited run; one at rate 0)"
report_dir="$(mktemp -d)"
python -m repro report --smoke --dir "$report_dir"
grep -q "Calibration" "$report_dir/report.md"
verdict="$(sed -n 's/^- health verdict: .*(\([0-9]* CRIT, [0-9]* WARN\))$/\1/p' \
  "$report_dir/report.md")"
test -n "$verdict"
python -m repro watch --dir "$report_dir" --once > "$report_dir/watch.out"
for heading in "Run summary" "Service-level objectives" \
  "Queries & estimator calibration" "Answer quality" "CPU & memory profile" \
  "Health alerts"; do
  grep -qx "## $heading" "$report_dir/watch.out" \
    || { echo "repro watch --once: no \"## $heading\" section"; exit 1; }
done
grep -q "^- rate: [0-9]* queries in the trailing .* s ([0-9.]* qps)$" \
  "$report_dir/watch.out"
grep -q "^- latency over the last [0-9]* queries: p50 .* ms, p95 .* ms$" \
  "$report_dir/watch.out"
watch_verdict="$(sed -n 's/^- health verdict: .*(\([0-9]* CRIT, [0-9]* WARN\))$/\1/p' \
  "$report_dir/watch.out")"
test "$watch_verdict" = "$verdict" || {
  echo "report: $verdict, repro watch --once: ${watch_verdict:-no verdict}"
  exit 1
}
audited="$(sed -n 's/^- [0-9]* queries observed (.*), \([0-9]*\) shadow-audited .*/\1/p' \
  "$report_dir/report.md")"
audit_rows="$(python -c 'import json, sys
rows = [json.loads(line) for line in open(sys.argv[1])]
print(sum(r["stream"] == "quality" and r.get("kind") == "audit" for r in rows))' \
  "$report_dir/telemetry.jsonl")"
test -n "$audited" && test "$audited" = "$audit_rows" || {
  echo "report: ${audited:-no} shadow-audited, telemetry: $audit_rows audit rows"
  exit 1
}
trace_id="$(sed -n 's/^| `\([0-9a-f]\{16\}\)` .*/\1/p' \
  "$report_dir/report.md" | head -n 1)"
test -n "$trace_id"
python -m repro analyze --dir "$report_dir" --slowest 1 > /dev/null
python -m repro analyze --dir "$report_dir" --trace "$trace_id" \
  | grep "critical path" > /dev/null
check_exemplars "$report_dir"
python -m repro diff "$report_dir" "$report_dir" \
  | grep -q "no regressions"
python -m repro stats --dir "$report_dir" | grep -q "Training trajectory"
test ! -e "$report_dir/metrics.json"
rm -rf "$report_dir"
rate0_dir="$(mktemp -d)"
REPRO_AUDIT_RATE=0 python -m repro demo --dataset flights --scale 0.12 \
  --k 100 --frame-size 20 --iterations 2 --light --seed 1 \
  --telemetry "$rate0_dir" > /dev/null
code=0
python -m repro audit --dir "$rate0_dir" > "$rate0_dir/audit.out" || code=$?
test "$code" = 1 || { echo "repro audit exited $code on a rate-0 run"; exit 1; }
grep -q "unverified" "$rate0_dir/audit.out"
rm -rf "$rate0_dir"
echo "report smoke: OK"

echo "== end-to-end benchmark (own tests + --smoke suite, output checks on)"
python -m pytest benchmarks/e2e -q
python3 benchmarks/e2e/run.py --smoke > /dev/null
echo "e2e smoke: OK"

echo "== kernel gate (paired ratios + all-on arm)"
sh scripts/bench_smoke.sh

echo "== lines per package (informational)"
sh scripts/loc.sh

echo "check: OK"
