"""Experiment harness shared by the ``benchmarks/`` scripts.

The unit of work is *evaluate one method on one train/test split*:
run the method's setup (RL training or a baseline's selection), score the
produced database on the held-out test workload with Eq. 1, and time a
batch of queries against it. Repeated over splits, this yields the
mean ± std rows of the paper's Figure 2 and the sweeps of Figures 8-10.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..baselines import VAEBaseline, make_baseline
from ..core.config import ASQPConfig
from ..core.metric import score
from ..core.trainer import ASQPTrainer, TrainedModel
from ..datasets.workloads import DatasetBundle, Workload
from ..db.database import Database
from ..db.executor import execute

#: Methods evaluated in the Figure 2 table, in paper order.
FIG2_METHODS = [
    "ASQP-RL", "ASQP-Light", "VAE", "CACH", "RAN",
    "QUIK", "VERD", "SKY", "BRT", "QRD", "TOP", "GRE",
]

#: Paper-reported Figure 2 scores (IMDB, MAS) for shape comparison.
PAPER_FIG2_SCORES = {
    "ASQP-RL": (0.64, 0.754),
    "ASQP-Light": (0.53, 0.61),
    "VAE": (0.0025, 0.045),
    "CACH": (0.084, 0.2207),
    "RAN": (0.29, 0.20275),
    "QUIK": (0.343, 0.25025),
    "VERD": (0.471, 0.3045),
    "SKY": (0.347, 0.33362),
    "BRT": (0.297, 0.3975),
    "QRD": (0.3215, 0.377),
    "TOP": (0.2707, 0.4592),
    "GRE": (float("nan"), 0.5177),
}


@dataclass
class MethodResult:
    """Outcome of one method on one split."""

    name: str
    quality: float
    setup_seconds: float
    query_avg_seconds: float
    completed: bool = True
    model: Optional[TrainedModel] = None
    database: Optional[Database] = None


@dataclass
class AggregatedResult:
    """Mean ± std over splits (one Figure 2 row)."""

    name: str
    quality_mean: float
    quality_std: float
    setup_mean: float
    setup_std: float
    query_avg_mean: float
    completed: bool = True
    n_splits: int = 1

    def row(self) -> list:
        quality = (
            "N/A"
            if not np.isfinite(self.quality_mean)
            else f"{self.quality_mean:.3f}±{self.quality_std:.3f}"
        )
        return [
            self.name,
            quality,
            f"{self.setup_mean:.1f}±{self.setup_std:.1f}",
            f"{self.query_avg_mean * 1000:.1f}ms",
            "yes" if self.completed else "TIMEOUT",
        ]


def bench_asqp_config(
    k: int,
    frame_size: int,
    light: bool = False,
    seed: int = 0,
    **overrides,
) -> ASQPConfig:
    """The ASQP-RL (or, with ``light``, ASQP-Light) preset at memory
    budget ``k`` and frame size ``frame_size``."""
    return (ASQPConfig.light if light else ASQPConfig)(
        memory_budget=k, frame_size=frame_size, seed=seed, **overrides
    )


#: Test queries one QueryAvg measurement answers.
QUERY_BATCH = 10

#: Share of the workload each train/test partition holds out.
TEST_FRACTION = 0.3


def measure_query_batch(
    database: Database, workload: Workload, regenerator=None
) -> float:
    """Seconds to answer :data:`QUERY_BATCH` test queries (the paper's
    QueryAvg).

    ``regenerator`` (VAE) is charged per batch: generative engines sample
    their model at query time.
    """
    spj = workload.spj_only()
    queries = spj.queries[:QUERY_BATCH]
    start = time.perf_counter()
    target = database
    if regenerator is not None:
        target = regenerator()
    for query in queries:
        execute(target, query)
    return time.perf_counter() - start


def evaluate_method(
    bundle: DatasetBundle,
    train: Workload,
    test: Workload,
    method: str,
    k: int,
    frame_size: int,
    seed: int = 0,
    time_budget: Optional[float] = None,
    asqp_overrides: Optional[dict] = None,
    full_keys: Optional[Sequence[frozenset]] = None,
) -> MethodResult:
    """Run one method once and score it on the test workload."""
    rng = np.random.default_rng(seed)
    if method in ("ASQP-RL", "ASQP-Light"):
        config = bench_asqp_config(
            k, frame_size, light=(method == "ASQP-Light"), seed=seed,
            **(asqp_overrides or {}),
        )
        trainer = ASQPTrainer(bundle.db, train, config)
        model = trainer.train()
        database = model.approximation_database()
        quality = score(bundle.db, database, test, frame_size, full_keys=full_keys)
        query_avg = measure_query_batch(database, test)
        return MethodResult(
            name=method,
            quality=quality,
            setup_seconds=model.setup_seconds,
            query_avg_seconds=query_avg,
            model=model,
            database=database,
        )

    selector = make_baseline(method)
    result = selector.select(
        bundle.db, train, k, frame_size, rng, time_budget=time_budget
    )
    quality = score(bundle.db, result.database, test, frame_size, full_keys=full_keys)
    regenerator = None
    if isinstance(selector, VAEBaseline):
        regen_rng = np.random.default_rng(seed + 1)
        regenerator = lambda: selector.regenerate(bundle.db, k, regen_rng)  # noqa: E731
    query_avg = measure_query_batch(result.database, test, regenerator=regenerator)
    return MethodResult(
        name=method,
        quality=quality,
        setup_seconds=result.setup_seconds,
        query_avg_seconds=query_avg,
        completed=result.completed,
        database=result.database,
    )


def evaluate_over_splits(
    bundle: DatasetBundle,
    method: str,
    k: int,
    frame_size: int,
    n_splits: int = 2,
    base_seed: int = 0,
    time_budget: Optional[float] = None,
    asqp_overrides: Optional[dict] = None,
) -> AggregatedResult:
    """Mean ± std of a method over repeated train/test partitions."""
    qualities, setups, query_avgs = [], [], []
    completed = True
    for split in range(n_splits):
        rng = np.random.default_rng(base_seed + 1000 * split)
        train, test = bundle.workload.split(TEST_FRACTION, rng)
        result = evaluate_method(
            bundle, train, test, method, k, frame_size,
            seed=base_seed + split, time_budget=time_budget,
            asqp_overrides=asqp_overrides,
        )
        qualities.append(result.quality)
        setups.append(result.setup_seconds)
        query_avgs.append(result.query_avg_seconds)
        completed = completed and result.completed
    return AggregatedResult(
        name=method,
        quality_mean=float(np.mean(qualities)),
        quality_std=float(np.std(qualities)),
        setup_mean=float(np.mean(setups)),
        setup_std=float(np.std(setups)),
        query_avg_mean=float(np.mean(query_avgs)),
        completed=completed,
        n_splits=n_splits,
    )
