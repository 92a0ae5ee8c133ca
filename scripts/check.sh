#!/bin/sh
# Full per-PR check: tests + static analysis + strict-mode smoke.
#
# 1. tier-1 pytest           — the repo's own test suite (ROADMAP.md).
# 2. repro lint              — the per-file rule pack over
#                              src+tests+benchmarks with an empty
#                              committed baseline.
# 3. lint timing budget      — a second warm-cache run must finish
#                              under the 5s budget so lint never becomes
#                              the slow step (DESIGN.md §12); the cold
#                              (--no-cache) time is printed next to it.
# 4. strict-mode smoke train — a micro fit+query run with the runtime
#                              shape/dtype/NaN contracts enabled
#                              (REPRO_STRICT=1), so a contract that
#                              would fire on the real pipeline fails CI
#                              rather than a user.
# 5. repro explain --analyze  — the EXPLAIN ANALYZE path on a 3-table
#                              IMDB join (per-operator est/act/q-error).
# 6. repro report --smoke     — records a tiny end-to-end run and fuses
#                              it into the markdown diagnostic artifact.
# 7. repro profile + top       — profiles a micro demo run (sampling
#                              profiler + memory tracker + SLOs) and
#                              renders one frame of the live view from
#                              the recorded artifacts.
# 8. repro watch --once        — one frame of the ops console over the
#                              same profiled run dir (DESIGN.md §11).
# 9. analyze/diff smoke        — records an EXPLAIN ANALYZE run with
#                              telemetry, asserts the trace id printed
#                              in the plan footer resolves through
#                              `repro analyze --slowest 1`, and diffs
#                              the run against itself (must report no
#                              regressions).
# 10. repro audit --smoke      — records a run with shadow auditing at
#                              rate 1.0 and prints the predicted-vs-
#                              observed calibration table, so the
#                              answer-quality pipeline (auditor, quality
#                              SLOs, drift detector) is exercised end to
#                              end on every PR (DESIGN.md §14).
# 11. end-to-end benchmark     — the benchmark's own tests (recorder,
#                              speed probe, declaration vs. output) and
#                              one --smoke pass of all four workloads
#                              with every output check on
#                              (benchmarks/e2e/README.md); timings are
#                              not gated here.
# 12. scripts/loc.sh           — lines per package, the size number
#                              ROADMAP.md tracks; informational.
#
# Benchmark gates (kernel regressions, instrumentation + contract
# overhead) live in scripts/bench_smoke.sh.
set -e
cd "$(dirname "$0")/.."

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

echo "== tier-1 tests"
python -m pytest -x -q

echo "== repro lint"
python -m repro lint --baseline lint_baseline.json

echo "== repro lint timing budget (<5s warm cache)"
python - <<'EOF'
import sys, time
from repro.lint import cli

start = time.perf_counter()
cli.run(baseline="lint_baseline.json", no_cache=True)
sys.stdout.write(
    f"cold (--no-cache) full-tree lint: {time.perf_counter() - start:.2f}s\n"
)
start = time.perf_counter()
code, text = cli.run(baseline="lint_baseline.json")
elapsed = time.perf_counter() - start
sys.stdout.write(f"warm-cache full-tree lint: {elapsed:.2f}s\n")
if code != 0:
    sys.stdout.write(text + "\n")
    sys.exit(code)
if elapsed >= 5.0:
    sys.stdout.write("lint timing budget exceeded (>= 5s warm cache)\n")
    sys.exit(1)
EOF

echo "== strict-mode smoke (REPRO_STRICT=1 micro train + queries)"
REPRO_STRICT=1 python -m repro demo \
  --dataset flights --scale 0.12 --k 100 --iterations 2 --light --seed 1 \
  > /dev/null
echo "strict smoke: OK"

echo "== repro explain --analyze (3-table IMDB join)"
python -m repro explain \
  "SELECT title.title FROM title, movie_companies, company \
   WHERE title.id = movie_companies.movie_id \
   AND movie_companies.company_id = company.id \
   AND title.production_year > 1990" \
  --dataset imdb --scale 0.3 --analyze

echo "== repro report --smoke"
report_dir="$(mktemp -d)"
python -m repro report --smoke --dir "$report_dir"
rm -rf "$report_dir"

echo "== repro profile + top (continuous profiler smoke)"
profile_dir="$(mktemp -d)"
python -m repro profile --dir "$profile_dir" demo \
  --dataset flights --scale 0.12 --k 100 --frame-size 20 \
  --iterations 2 --light --seed 1 > /dev/null
test -s "$profile_dir/flamegraph.html"
test -s "$profile_dir/profile.collapsed.txt"
python -m repro top --dir "$profile_dir" --once

echo "== repro watch --once (ops console over the profiled run)"
python -m repro watch --dir "$profile_dir" --once
rm -rf "$profile_dir"

echo "== repro analyze / diff smoke (trace id round trip)"
analyze_dir="$(mktemp -d)"
python -m repro explain \
  "SELECT title.title FROM title WHERE title.production_year > 1990" \
  --dataset imdb --scale 0.3 --analyze --telemetry "$analyze_dir" \
  > "$analyze_dir/explain.out"
trace_id="$(sed -n 's/^trace: \([0-9a-f]\{32\}\)$/\1/p' \
  "$analyze_dir/explain.out")"
test -n "$trace_id"
python -m repro analyze --dir "$analyze_dir" --slowest 1 \
  | grep -q "$trace_id"
python -m repro analyze --dir "$analyze_dir" --trace "$trace_id" > /dev/null
python -m repro diff "$analyze_dir" "$analyze_dir" \
  | grep -q "no regressions"
rm -rf "$analyze_dir"

echo "== repro audit --smoke (shadow auditing + calibration table)"
audit_dir="$(mktemp -d)"
python -m repro audit --smoke --dir "$audit_dir" > "$audit_dir/audit.out"
grep -q "Calibration" "$audit_dir/audit.out"
rm -rf "$audit_dir"
echo "audit smoke: OK"

echo "== end-to-end benchmark (own tests + --smoke suite, output checks on)"
python -m pytest benchmarks/e2e -q
python3 benchmarks/e2e/run.py --smoke > /dev/null
echo "e2e smoke: OK"

echo "== lines per package (informational)"
sh scripts/loc.sh

echo "check: OK"
