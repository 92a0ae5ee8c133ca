"""Deterministic feature-hashed token embeddings.

Stand-in for the paper's modified sentence-BERT: a hashing-trick embedder
that maps token lists to fixed-dimension vectors. Each token gets a stable
pseudo-random direction (seeded by a hash of the token text), and a
sequence embeds as the L2-normalized sum of its token directions. Two
token lists that share many tokens therefore land near each other in
cosine space — the only property the ASQP-RL pipeline actually relies on
("similar queries ⇒ nearby vectors").
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

DEFAULT_DIM = 64

#: Token directions memoized per hasher; the memo is cleared once it holds
#: this many (workloads here are far below the limit).
CACHE_SIZE = 200_000


def _token_seed(token: str) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class TokenHasher:
    """Maps tokens to stable unit vectors and token lists to embeddings.

    Parameters
    ----------
    dim:
        Embedding dimensionality.
    """

    def __init__(self, dim: int = DEFAULT_DIM) -> None:
        if dim < 2:
            raise ValueError(f"embedding dim must be >= 2, got {dim}")
        self.dim = dim
        self._cache: dict[str, np.ndarray] = {}

    def token_vector(self, token: str) -> np.ndarray:
        """The stable unit direction of one token."""
        cached = self._cache.get(token)
        if cached is not None:
            return cached
        # The stream of ``default_rng(seed)``, built without its seed dispatch.
        rng = np.random.Generator(np.random.PCG64(_token_seed(token)))
        vector = rng.standard_normal(self.dim)
        vector /= np.linalg.norm(vector)
        if len(self._cache) >= CACHE_SIZE:
            self._cache.clear()
        self._cache[token] = vector
        return vector

    def token_vectors(self, tokens: Sequence[str]) -> np.ndarray:
        """The directions of ``tokens``, one per row."""
        rows = [self.token_vector(token) for token in tokens]
        return np.array(rows).reshape(len(rows), self.dim)

    def embed(self, tokens: Sequence[str]) -> np.ndarray:
        """L2-normalized sum of token directions.

        An empty token list embeds as the zero vector.
        """
        if not tokens:
            return np.zeros(self.dim)
        total = np.zeros(self.dim)
        for token in tokens:
            total += self.token_vector(token)
        norm = np.linalg.norm(total)
        return total / norm if norm > 0 else total

    def embed_many(self, token_lists: Iterable[Sequence[str]]) -> np.ndarray:
        """Stack embeddings of several token lists into a matrix."""
        rows = [self.embed(tokens) for tokens in token_lists]
        if not rows:
            return np.zeros((0, self.dim))
        return np.vstack(rows)


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Divide each row by its L2 norm, in place (zero rows stay): the norm is
    ``sqrt(row · row)``, what ``np.linalg.norm`` computes for one vector (an
    ``axis=1`` reduction sums pairwise and differs in the last bit)."""
    squares = np.fromiter((row.dot(row) for row in matrix), np.float64, len(matrix))
    matrix /= np.sqrt(np.where(squares > 0, squares, 1.0))[:, None]
    return matrix

