"""The §6 baselines: naive, database-domain, and generative comparators."""

from .base import SelectionResult, SubsetSelector
from .brute_force import BruteForce
from .caching import CacheBaseline
from .deepdb import SPNModel, UnsupportedQueryError
from .gaqp import GAQPEstimator
from .greedy import GreedySelection
from .qrd import QueryResultDiversification
from .quickr import QuickRBaseline, plan_signature
from .random_sampling import RandomSampling
from .skyline import SkylineBaseline, skyline_layers
from .top_queried import TopQueriedTuples
from .vae import TabularCodec, TabularVAE, VAEBaseline
from .verdict import VerdictBaseline

_REGISTRY = {
    "RAN": RandomSampling,
    "BRT": BruteForce,
    "GRE": GreedySelection,
    "TOP": TopQueriedTuples,
    "CACH": CacheBaseline,
    "QRD": QueryResultDiversification,
    "SKY": SkylineBaseline,
    "VERD": VerdictBaseline,
    "QUIK": QuickRBaseline,
    "VAE": VAEBaseline,
}


def baseline_names() -> list[str]:
    """All registered subset-selector baseline names."""
    return list(_REGISTRY)


def make_baseline(name: str) -> SubsetSelector:
    """Instantiate a baseline by its paper short-name (e.g. "RAN", "GRE")."""
    try:
        cls = _REGISTRY[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown baseline {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
    return cls()


__all__ = [
    "BruteForce",
    "CacheBaseline",
    "GAQPEstimator",
    "GreedySelection",
    "QueryResultDiversification",
    "QuickRBaseline",
    "RandomSampling",
    "SPNModel",
    "SelectionResult",
    "SkylineBaseline",
    "SubsetSelector",
    "TabularCodec",
    "TabularVAE",
    "TopQueriedTuples",
    "UnsupportedQueryError",
    "VAEBaseline",
    "VerdictBaseline",
    "baseline_names",
    "make_baseline",
    "plan_signature",
    "skyline_layers",
]
