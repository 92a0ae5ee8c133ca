"""Vector representations of queries and tuples, relaxation, clustering.

The paper uses two modified sentence-BERT models (one for SQL, one for
tabular rows); here both are deterministic feature-hashed embedders with
the same geometric contract — see DESIGN.md §2 for the substitution notes.
"""

from .cluster import ClusterResult, kmeans, kmedoids, select_representatives
from .query_embed import QueryEmbedder
from .relaxation import QueryRelaxer
from .text import DEFAULT_DIM, TokenHasher
from .tuple_embed import TupleEmbedder

__all__ = [
    "ClusterResult",
    "DEFAULT_DIM",
    "QueryEmbedder",
    "QueryRelaxer",
    "TokenHasher",
    "TupleEmbedder",
    "kmeans",
    "kmedoids",
    "select_representatives",
]
