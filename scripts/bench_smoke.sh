#!/bin/sh
# CI smoke run: vectorized-kernel micro-benchmark (fast profile).
#
# Every row is a paired same-run ratio (benchmarks/bench_kernels.py,
# _paired). The run fails if
#   1. a paired ratio worsens by more than 1.5x against the committed
#      BENCH_kernels.json (a kernel's speedup over its reference falls,
#      an all-on/all-off observability ratio rises), or
#   2. everything on costs the four 10k kernels more than 5%, or shadow
#      auditing takes more than 2% of serving seconds.
set -e
cd "$(dirname "$0")/.."
PYTHONPATH=src python benchmarks/bench_kernels.py \
  --profile fast \
  --check BENCH_kernels.json \
  --output -
