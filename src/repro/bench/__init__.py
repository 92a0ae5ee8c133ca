"""Benchmark harness: method evaluation, table rendering, result persistence."""

from .harness import (
    FIG2_METHODS,
    PAPER_FIG2_SCORES,
    AggregatedResult,
    MethodResult,
    bench_asqp_config,
    evaluate_method,
    evaluate_over_splits,
    measure_query_batch,
)
from .reporting import (
    SWEEP_PROFILE,
    ascii_chart,
    bench_scale,
    bench_splits,
    emit,
    format_table,
    results_dir,
    save_results,
)

__all__ = [
    "AggregatedResult",
    "SWEEP_PROFILE",
    "ascii_chart",
    "bench_splits",
    "emit",
    "FIG2_METHODS",
    "MethodResult",
    "PAPER_FIG2_SCORES",
    "bench_asqp_config",
    "bench_scale",
    "evaluate_method",
    "evaluate_over_splits",
    "format_table",
    "measure_query_batch",
    "results_dir",
    "save_results",
]
