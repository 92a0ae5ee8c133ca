"""ASQP-RL core: the paper's primary contribution.

Pre-processing (relaxation, embedding, representative selection,
variational subsampling), the one RL environment (GSL, DRP and DRP+GSL
over one refcounted selection), the PPO actor-critic agent,
training/inference, the answerability estimator, drift detection,
workload generation, and the interactive session facade.
"""

from .action_space import ActionSpace, group_rows_into_actions
from .agent import ASQPAgent
from .approximation import ApproximationSet, TupleKey
from .config import ASQPConfig
from .drift import DriftDetector, DriftEvent
from .environment import GSLEnvironment
from .estimator import AnswerabilityEstimate, AnswerabilityEstimator
from .inference import generate_approximation_set
from .metric import (
    DEFAULT_FRAME_SIZE,
    aggregate_relative_error,
    pairwise_jaccard_diversity,
    per_query_scores,
    query_score,
    relative_error,
    result_diversity,
    score,
    workload_result_keys,
)
from .persistence import ModelError, load_model, save_model
from .preprocess import PreprocessResult, build_coverage, preprocess
from .reward import CoverageTracker, QueryCoverage
from .session import ASQPSession, ASQPSystem, QueryOutcome
from .trainer import ASQPTrainer, IterationRecord, TrainedModel, run_training_loop
from .workload_gen import WorkloadGenerator

__all__ = [
    "ASQPAgent",
    "ASQPConfig",
    "ASQPSession",
    "ASQPSystem",
    "ASQPTrainer",
    "ActionSpace",
    "AnswerabilityEstimate",
    "AnswerabilityEstimator",
    "ApproximationSet",
    "CoverageTracker",
    "DEFAULT_FRAME_SIZE",
    "DriftDetector",
    "DriftEvent",
    "GSLEnvironment",
    "IterationRecord",
    "ModelError",
    "PreprocessResult",
    "QueryCoverage",
    "QueryOutcome",
    "TrainedModel",
    "TupleKey",
    "WorkloadGenerator",
    "aggregate_relative_error",
    "build_coverage",
    "generate_approximation_set",
    "load_model",
    "save_model",
    "group_rows_into_actions",
    "pairwise_jaccard_diversity",
    "per_query_scores",
    "preprocess",
    "query_score",
    "relative_error",
    "result_diversity",
    "run_training_loop",
    "score",
    "workload_result_keys",
]
