"""Low-level synthetic data primitives.

The paper evaluates on real IMDB / MAS / FLIGHTS data; offline we generate
seeded synthetic equivalents. The primitives here give the generated data
the properties the experiments depend on:

* **Zipfian categorical popularity** — a few very popular values and a long
  tail, so equality predicates have wildly different selectivities;
* **correlated numeric columns** — e.g. votes correlate with rating, delay
  with distance, so range predicates interact;
* **skewed foreign-key fan-out** — popular entities attract more
  references, producing heavy-tailed join result sizes (the reason Eq. 1's
  ``min(F, |q(T)|)`` matters).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..db.table import DictEncoded


def zipf_weights(n: int, exponent: float = 1.1) -> np.ndarray:
    """Normalized Zipf weights over ``n`` ranks."""
    if n < 1:
        raise ValueError(f"need at least one rank, got {n}")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def zipf_choice(
    values: Sequence[str],
    size: int,
    rng: np.random.Generator,
    exponent: float = 1.1,
) -> DictEncoded:
    """Sample ``size`` values with Zipfian popularity by list order, as
    the encoding of the drawn column (:meth:`DictEncoded.from_picks`)."""
    weights = zipf_weights(len(values), exponent)
    picks = rng.choice(len(values), size=size, p=weights)
    return DictEncoded.from_picks(values, picks)


def correlated_numeric(
    base: np.ndarray,
    slope: float,
    noise_std: float,
    rng: np.random.Generator,
    minimum: Optional[float] = None,
    maximum: Optional[float] = None,
) -> np.ndarray:
    """A numeric column linearly correlated with ``base`` plus Gaussian noise."""
    values = slope * base + rng.normal(0.0, noise_std, size=len(base))
    if minimum is not None:
        values = np.maximum(values, minimum)
    if maximum is not None:
        values = np.minimum(values, maximum)
    return values


def skewed_foreign_keys(
    n_rows: int,
    n_parents: int,
    rng: np.random.Generator,
    exponent: float = 1.05,
) -> np.ndarray:
    """Foreign-key values with Zipfian fan-out over a shuffled parent order.

    Shuffling decorrelates popularity from parent id so that id-range
    predicates don't accidentally align with popularity.
    """
    order = rng.permutation(n_parents)
    weights = zipf_weights(n_parents, exponent)
    picks = rng.choice(n_parents, size=n_rows, p=weights)
    return order[picks].astype(np.int64)


_SYLLABLES = [
    "ka", "ri", "to", "mi", "sa", "lo", "ven", "dar", "el", "fu",
    "gor", "han", "ix", "jo", "kel", "lum", "mar", "nor", "pol", "qua",
    "ras", "sol", "tan", "ul", "vor", "wex", "yor", "zan", "bel", "cor",
]
_SYLLABLE_ARRAY = np.array(_SYLLABLES)
_CAPITALISED = np.array([syllable.capitalize() for syllable in _SYLLABLES])


def synthetic_names(
    n: int, rng: np.random.Generator, n_syllables: int = 3, prefix: str = ""
) -> DictEncoded:
    """Pronounceable unique names ("Kelrito_0", "Vensolmar_1", ...), as the
    encoding of the column.

    One ``rng.integers`` call draws the whole ``(n, n_syllables)`` block of
    syllable indices, which consumes the stream exactly as ``n`` per-name
    ``rng.choice(len(_SYLLABLES), size=n_syllables)`` calls would. The
    names are joined column by column over fixed-width ``U`` arrays. Name
    ``i`` ends in ``_i``, so the names are distinct and encode with
    :meth:`DictEncoded.from_distinct`.
    """
    if n_syllables < 1:
        raise ValueError(f"n_syllables must be at least 1, got {n_syllables}")
    picks = rng.integers(0, len(_SYLLABLES), size=(n, n_syllables))
    words = _CAPITALISED[picks[:, 0]]
    if prefix:
        words = np.char.add(prefix, words)
    for column in range(1, n_syllables):
        words = np.char.add(words, _SYLLABLE_ARRAY[picks[:, column]])
    words = np.char.add(np.char.add(words, "_"), np.arange(n).astype(str))
    return DictEncoded.from_distinct(words)


def year_column(
    n: int,
    rng: np.random.Generator,
    low: int = 1950,
    high: int = 2023,
    mode: int = 2005,
) -> np.ndarray:
    """Years drawn from a triangular distribution (recent years dominate)."""
    values = rng.triangular(low, mode, high, size=n)
    return values.astype(np.int64)
