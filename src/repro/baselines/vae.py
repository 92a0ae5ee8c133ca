"""VAE: generative-model baseline (paper §6.1 baseline "VAE", and the
generator behind gAQP in §6.4).

A from-scratch numpy Variational Autoencoder for tabular data, in the
style of [Thirumuruganathan et al., ICDE 2020]: numeric columns are
standardized, categorical columns one-hot encoded (top-V vocabulary), the
encoder emits a Gaussian posterior, and the decoder reconstructs numeric
values (MSE) and categorical logits (cross-entropy) under a KL penalty.

Sampling the decoder produces *fictitious tuples*. The paper's finding —
generated tuples rarely satisfy selective non-aggregate filters and break
joins, so the VAE scores near zero on Eq. 1 — emerges naturally: key
columns are synthesized like any numeric column, so equality joins almost
never match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..obs.clock import perf_counter
from ..db.database import Database
from ..db.schema import ColumnType
from ..db.table import Table
from ..datasets.workloads import Workload
from ..rl.nn import MLP, Adam, softmax
from .base import SelectionResult, SubsetSelector

MAX_VOCAB = 24
OTHER_TOKEN = "<other>"

#: Network and training settings of every :class:`TabularVAE`.
LATENT_DIM = 8
HIDDEN = 48
LEARNING_RATE = 1e-3
KL_WEIGHT = 0.5
BATCH_SIZE = 128

#: Rows a table's VAE trains on at most (a uniform sample beyond it).
MAX_TRAINING_ROWS = 4000

#: Training epochs of the VAE baseline's per-table models.
EPOCHS = 25


@dataclass
class _ColumnCodec:
    """Encoding spec for one column."""

    name: str
    is_numeric: bool
    mean: float = 0.0
    std: float = 1.0
    integral: bool = False
    vocabulary: tuple[str, ...] = ()

    @property
    def width(self) -> int:
        return 1 if self.is_numeric else len(self.vocabulary)


class TabularCodec:
    """Bidirectional table ↔ real-matrix encoding."""

    def __init__(self, table: Table) -> None:
        self.table = table
        self.columns: list[_ColumnCodec] = []
        for column in table.schema.columns:
            array = table.column(column.name)
            if column.ctype.is_numeric:
                values = np.asarray(array, dtype=np.float64)
                std = float(values.std())
                self.columns.append(
                    _ColumnCodec(
                        name=column.name,
                        is_numeric=True,
                        mean=float(values.mean()),
                        std=std if std > 1e-9 else 1.0,
                        integral=column.ctype is ColumnType.INT,
                    )
                )
            else:
                frequencies: dict[str, int] = {}
                for value in array:
                    key = str(value)
                    frequencies[key] = frequencies.get(key, 0) + 1
                ranked = sorted(frequencies, key=lambda v: -frequencies[v])
                vocabulary = tuple(ranked[:MAX_VOCAB]) + (OTHER_TOKEN,)
                self.columns.append(
                    _ColumnCodec(
                        name=column.name, is_numeric=False, vocabulary=vocabulary
                    )
                )

    @property
    def width(self) -> int:
        return sum(codec.width for codec in self.columns)

    def encode(self) -> np.ndarray:
        n = len(self.table)
        matrix = np.zeros((n, self.width))
        offset = 0
        for codec in self.columns:
            array = self.table.column(codec.name)
            if codec.is_numeric:
                values = np.asarray(array, dtype=np.float64)
                matrix[:, offset] = (values - codec.mean) / codec.std
            else:
                index = {v: i for i, v in enumerate(codec.vocabulary)}
                other = index[OTHER_TOKEN]
                for row, value in enumerate(array):
                    matrix[row, offset + index.get(str(value), other)] = 1.0
            offset += codec.width
        return matrix

    def decode(
        self, matrix: np.ndarray, rng: np.random.Generator
    ) -> dict[str, list]:
        """Decoder outputs → column values (categoricals sampled)."""
        columns: dict[str, list] = {}
        offset = 0
        for codec in self.columns:
            block = matrix[:, offset : offset + codec.width]
            if codec.is_numeric:
                values = block[:, 0] * codec.std + codec.mean
                if codec.integral:
                    columns[codec.name] = [int(round(v)) for v in values]
                else:
                    columns[codec.name] = [float(v) for v in values]
            else:
                probs = softmax(block, axis=1)
                picks = [
                    int(rng.choice(codec.width, p=p / p.sum())) for p in probs
                ]
                vocabulary = codec.vocabulary
                columns[codec.name] = [
                    vocabulary[p] if vocabulary[p] != OTHER_TOKEN else vocabulary[0]
                    for p in picks
                ]
            offset += codec.width
        return columns


class TabularVAE:
    """Gaussian-latent VAE with mixed reconstruction heads."""

    def __init__(self, codec: TabularCodec, seed: int = 0) -> None:
        self.codec = codec
        rng = np.random.default_rng(seed)
        d = codec.width
        self.encoder = MLP([d, HIDDEN, 2 * LATENT_DIM], rng)
        self.decoder = MLP([LATENT_DIM, HIDDEN, d], rng)
        self.optimizer = Adam(
            self.encoder.parameters() + self.decoder.parameters(),
            learning_rate=LEARNING_RATE,
        )
        self._train_rng = rng

    # -------------------------------------------------------------- #
    def train(self, data: np.ndarray, epochs: int) -> list[float]:
        """Minibatch training; returns per-epoch mean losses."""
        n = len(data)
        losses = []
        for _epoch in range(epochs):
            order = self._train_rng.permutation(n)
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, n, BATCH_SIZE):
                batch = data[order[start : start + BATCH_SIZE]]
                epoch_loss += self._step(batch)
                n_batches += 1
            losses.append(epoch_loss / max(1, n_batches))
        return losses

    def _step(self, batch: np.ndarray) -> float:
        m = len(batch)
        encoded, enc_cache = self.encoder.forward(batch)
        mu = encoded[:, : LATENT_DIM]
        logvar = np.clip(encoded[:, LATENT_DIM :], -8.0, 8.0)
        eps = self._train_rng.standard_normal(mu.shape)
        sigma = np.exp(0.5 * logvar)
        z = mu + sigma * eps
        output, dec_cache = self.decoder.forward(z)

        # Reconstruction loss + gradient per column block.
        grad_output = np.zeros_like(output)
        recon_loss = 0.0
        offset = 0
        for codec in self.codec.columns:
            block = slice(offset, offset + codec.width)
            if codec.is_numeric:
                diff = output[:, block] - batch[:, block]
                recon_loss += float(np.sum(diff ** 2))
                grad_output[:, block] = 2.0 * diff / m
            else:
                logits = output[:, block]
                probs = softmax(logits, axis=1)
                target = batch[:, block]
                recon_loss += float(
                    -np.sum(target * np.log(np.maximum(probs, 1e-12)))
                )
                grad_output[:, block] = (probs - target) / m
            offset += codec.width

        kl = -0.5 * float(np.sum(1.0 + logvar - mu ** 2 - np.exp(logvar)))
        loss = (recon_loss + KL_WEIGHT * kl) / m

        dec_wgrads, dec_bgrads = self.decoder.backward(dec_cache, grad_output)
        # Gradient into z, then into (mu, logvar).
        grad_z = self._grad_wrt_input(self.decoder, dec_cache, grad_output)
        grad_mu = grad_z + KL_WEIGHT * mu / m
        grad_logvar = (
            grad_z * eps * 0.5 * sigma
            + KL_WEIGHT * (-0.5) * (1.0 - np.exp(logvar)) / m
        )
        grad_encoded = np.concatenate([grad_mu, grad_logvar], axis=1)
        enc_wgrads, enc_bgrads = self.encoder.backward(enc_cache, grad_encoded)

        self.optimizer.step(
            enc_wgrads + enc_bgrads + dec_wgrads + dec_bgrads
        )
        return loss

    @staticmethod
    def _grad_wrt_input(net: MLP, cache, grad_output: np.ndarray) -> np.ndarray:
        """d loss / d network-input, replaying the backward chain."""
        grad = grad_output
        for i in reversed(range(net.n_layers)):
            if i != net.n_layers - 1:
                grad = grad * (1.0 - np.tanh(cache.pre_activations[i]) ** 2)
            grad = grad @ net.weights[i].T
        return grad

    # -------------------------------------------------------------- #
    def generate(self, n: int, rng: np.random.Generator) -> dict[str, list]:
        """Sample ``n`` synthetic tuples (column-value lists)."""
        z = rng.standard_normal((n, LATENT_DIM))
        output = self.decoder.predict(z)
        return self.codec.decode(output, rng)


def _synthetic_shares(db: Database, k: int) -> dict[str, int]:
    """Rows to generate per non-empty table: its share of ``k``,
    proportional to its size and at least one, capped by what the tables
    before it left of ``k``."""
    total_rows = max(1, db.total_rows())
    shares: dict[str, int] = {}
    left = k
    for table in db:
        if len(table):
            share = max(1, int(round(k * len(table) / total_rows)))
            shares[table.name] = min(share, left)
            left -= shares[table.name]
    return shares


class VAEBaseline(SubsetSelector):
    """Per-table VAEs; the "subset" is a synthetic database of size ``k``."""

    name = "VAE"

    def __init__(self) -> None:
        self.models: dict[str, TabularVAE] = {}

    def select(
        self,
        db: Database,
        workload: Workload,
        k: int,
        frame_size: int,
        rng: np.random.Generator,
        time_budget: Optional[float] = None,
    ) -> SelectionResult:
        started = perf_counter()
        shares = _synthetic_shares(db, k)
        synthetic_tables = []
        self.models.clear()
        for table in db:
            if len(table) == 0:
                synthetic_tables.append(table)
                continue
            training_table = table
            if len(table) > MAX_TRAINING_ROWS:
                picks = np.sort(
                    rng.choice(len(table), size=MAX_TRAINING_ROWS, replace=False)
                )
                training_table = table.take(picks)
            codec = TabularCodec(training_table)
            vae = TabularVAE(codec, seed=int(rng.integers(0, 2**31)))
            vae.train(codec.encode(), epochs=EPOCHS)
            self.models[table.name] = vae

            columns = vae.generate(shares[table.name], rng)
            synthetic_tables.append(Table(table.schema, columns))

        database = Database(synthetic_tables, name=f"{db.name}:vae")
        return SelectionResult(
            name=self.name,
            database=database,
            approximation=None,
            setup_seconds=perf_counter() - started,
            completed=True,
            extra={"generative": True},
        )

    # ---------------------------------------------------------------- #
    def regenerate(self, db: Database, k: int, rng: np.random.Generator) -> Database:
        """Fresh synthetic database from the trained models.

        gAQP-style engines sample the generator at query time; the Fig. 2
        "QueryAvg" column charges the VAE this regeneration cost per query
        batch.
        """
        if not self.models:
            raise RuntimeError("select() must run before regenerate()")
        shares = _synthetic_shares(db, k)
        tables = []
        for table in db:
            model = self.models.get(table.name)
            if model is None or len(table) == 0:
                tables.append(table)
                continue
            tables.append(Table(table.schema, model.generate(shares[table.name], rng)))
        return Database(tables, name=f"{db.name}:vae-regen")
