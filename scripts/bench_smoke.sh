#!/bin/sh
# CI smoke run: vectorized-kernel micro-benchmark.
#
# benchmarks/bench_kernels.py (fast profile) fails if any kernel's
# vectorized throughput regressed by more than 25% against the committed
# BENCH_kernels.json baseline (override the tolerance with
# BENCH_MAX_REGRESSION for noisy CI machines), if a required speedup over
# the reference implementations no longer holds, if the median
# observability-instrumentation overhead (enabled vs disabled) exceeds 2%
# (--obs-check), or if the running 100hz sampling profiler costs more
# than 5% on the kernels (--profile-check). --audit-check gates shadow
# auditing on end-to-end serving: directly-attributed per-query
# accounting plus audit re-execution time must stay under 2% at the
# default sample rate. --check also gates the column store's one row, the
# serial scan: a predicate on dictionary codes must stay within 1.25x of
# the same predicate on decoded values.
set -e
cd "$(dirname "$0")/.."
PYTHONPATH=src python benchmarks/bench_kernels.py \
  --profile fast \
  --check BENCH_kernels.json \
  --max-regression "${BENCH_MAX_REGRESSION:-1.25}" \
  --obs-check \
  --profile-check \
  --audit-check \
  --output -
