"""Minimal neural-network layer stack with manual backprop, plus Adam.

The paper trains its actor-critic networks with PyTorch; this module is the
CPU/numpy substitute. It provides exactly what ASQP-RL needs: fully
connected MLPs ("a large input layer matching the action space's size,
followed by smaller fully-connected layers", paper §5.1) with tanh hidden
activations, a linear output head, and the Adam optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass
class ForwardCache:
    """Activations recorded during a forward pass, consumed by backward."""

    inputs: list[np.ndarray]       # input to each linear layer
    pre_activations: list[np.ndarray]


class MLP:
    """A fully connected network: tanh hidden layers, linear output.

    Parameters
    ----------
    layer_sizes:
        e.g. ``[n_actions, 128, 64, n_actions]`` for the actor or
        ``[n_actions, 128, 64, 1]`` for the critic.
    rng:
        Initialization randomness (Xavier/Glorot uniform).
    """

    def __init__(self, layer_sizes: Sequence[int], rng: np.random.Generator) -> None:
        if len(layer_sizes) < 2:
            raise ValueError(f"need at least input+output sizes, got {layer_sizes}")
        self.layer_sizes = list(layer_sizes)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    @classmethod
    def from_arrays(
        cls, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]
    ) -> "MLP":
        """The network with these parameters (as C-contiguous ``float64``,
        copied only when they are not): nothing is drawn."""
        net = cls.__new__(cls)
        net.weights = [np.ascontiguousarray(w, dtype=np.float64) for w in weights]
        net.biases = [np.ascontiguousarray(b, dtype=np.float64) for b in biases]
        net.layer_sizes = [net.weights[0].shape[0]] + [w.shape[1] for w in net.weights]
        return net

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    # -------------------------------------------------------------- #
    def forward(self, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
        """Batch forward pass; ``x`` is ``(batch, input_dim)``."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        cache = ForwardCache(inputs=[], pre_activations=[])
        activation = x
        for i in range(self.n_layers):
            cache.inputs.append(activation)
            z = activation @ self.weights[i] + self.biases[i]
            cache.pre_activations.append(z)
            activation = z if i == self.n_layers - 1 else np.tanh(z)
        return activation, cache

    def predict(self, x: np.ndarray) -> np.ndarray:
        """``forward``'s output alone: one live activation, the same ufuncs
        in place (bit-identical), ``x`` itself never written."""
        activation = np.atleast_2d(np.asarray(x, dtype=np.float64))
        for i in range(self.n_layers):
            activation = activation @ self.weights[i]
            activation += self.biases[i]
            if i != self.n_layers - 1:
                np.tanh(activation, out=activation)
        return activation

    def predict_from_first(self, activation: np.ndarray) -> np.ndarray:
        """The rest of :meth:`predict` given the first layer's pre-activation
        ``x @ W0 + b0`` (overwritten): Alg. 2 keeps that sum running, one
        ``W0`` row per selected action. A loop of its own, not one
        ``predict`` calls: a caller's frame would keep the batch-wide first
        layer alive across the |A|-wide last one."""
        for weight, bias in zip(self.weights[1:], self.biases[1:]):
            np.tanh(activation, out=activation)
            activation = activation @ weight
            activation += bias
        return activation

    def backward(
        self, cache: ForwardCache, grad_output: np.ndarray
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Backprop ``dLoss/dOutput`` to per-parameter gradients.

        Returns ``(weight_grads, bias_grads)`` aligned with
        ``self.weights`` / ``self.biases``, averaged over the batch is the
        caller's choice — gradients here are *sums* over the batch.
        """
        grad = np.atleast_2d(np.asarray(grad_output, dtype=np.float64))
        weight_grads: list[Optional[np.ndarray]] = [None] * self.n_layers
        bias_grads: list[Optional[np.ndarray]] = [None] * self.n_layers
        for i in reversed(range(self.n_layers)):
            if i != self.n_layers - 1:
                # The next layer's input is this layer's tanh output.
                grad = grad * (1.0 - cache.inputs[i + 1] ** 2)
            weight_grads[i] = cache.inputs[i].T @ grad
            bias_grads[i] = grad.sum(axis=0)
            if i > 0:
                grad = grad @ self.weights[i].T
        return weight_grads, bias_grads  # type: ignore[return-value]

    # -------------------------------------------------------------- #
    def parameters(self) -> list[np.ndarray]:
        return self.weights + self.biases


#: Elements per block of :meth:`Adam.step`'s walk: the width of its
#: default ``(2, ADAM_BLOCK)`` scratch, 128 KiB a row.
ADAM_BLOCK = 16_384

#: Adam's moment decay rates and denominator guard (Kingma & Ba defaults).
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


class Adam:
    """Adam optimizer over a fixed list of parameter arrays (updated in place)."""

    def __init__(
        self,
        parameters: Sequence[np.ndarray],
        learning_rate: float = 5e-5,
    ) -> None:
        self.parameters = list(parameters)
        # The blocked walk steps 1-D views; on a non-contiguous array the
        # reshape is a copy and the update would be silently lost.
        for i, param in enumerate(self.parameters):
            if not param.flags.c_contiguous:
                raise ValueError(f"parameter {i} {param.shape} is not C-contiguous")
        self.learning_rate = learning_rate
        self._m = [np.zeros_like(p) for p in self.parameters]
        self._v = [np.zeros_like(p) for p in self.parameters]
        self._t = 0

    def step(
        self, gradients: Sequence[np.ndarray], scratch: Optional[np.ndarray] = None
    ) -> None:
        """One descent step given gradients aligned with ``parameters``.

        In place, in the textbook expression's arithmetic order, walking
        each parameter in blocks of ``scratch``'s row length through its
        two rows (default ``(2, ADAM_BLOCK)``): every element sees the same
        ufuncs whatever the block, so any width gives the same bits.
        """
        if len(gradients) != len(self.parameters):
            raise ValueError(
                f"{len(gradients)} gradients for {len(self.parameters)} parameters"
            )
        if scratch is None:
            scratch = np.empty((2, ADAM_BLOCK))
        block = scratch.shape[1]
        self._t += 1
        correction1 = 1.0 - BETA1 ** self._t
        correction2 = 1.0 - BETA2 ** self._t
        for arrays in zip(self.parameters, gradients, self._m, self._v):
            flat = [a.reshape(-1) for a in arrays]
            for start in range(0, flat[0].size, block):
                param, grad, m, v = (a[start : start + block] for a in flat)
                step, work = scratch[:, : param.size]
                m *= BETA1
                m += np.multiply(grad, 1.0 - BETA1, out=work)
                v *= BETA2
                np.multiply(grad, 1.0 - BETA2, out=work)
                work *= grad
                v += work
                np.divide(v, correction2, out=work)
                np.sqrt(work, out=work)
                work += EPSILON
                np.divide(m, correction1, out=step)
                step *= self.learning_rate
                step /= work
                param -= step


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(log-probabilities, probabilities)`` of a stack of rows, invalid
    actions at ``-inf`` / exactly 0 (``-inf`` survives the shift, ``exp``
    maps it to 0).

    ``mask`` is boolean, True = valid. Rows with no valid action raise.
    """
    logits = np.atleast_2d(logits)
    mask = np.atleast_2d(np.asarray(mask, dtype=bool))
    if not mask.any(axis=1).all():
        raise ValueError("at least one row has no valid action")
    log_probs = np.where(mask, logits, -np.inf)
    log_probs -= np.max(log_probs, axis=1, keepdims=True)
    probs = np.exp(log_probs)
    norm = np.sum(probs, axis=1, keepdims=True)
    probs /= norm
    log_probs -= np.log(norm)
    return log_probs, probs


#: Rows per step of :func:`masked_log_softmax_`; its ``exp`` temporary is
#: this many rows wide, not the batch.
_ROW_BLOCK = 128


def masked_log_softmax_(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """:func:`masked_softmax`'s log half written over ``logits`` itself, a row
    block at a time: the same ufuncs and per-row reductions, so the same bits,
    for one block × |A| temporary instead of two batch × |A| arrays."""
    mask = np.atleast_2d(np.asarray(mask, dtype=bool))
    if not mask.any(axis=1).all():
        raise ValueError("at least one row has no valid action")
    for start in range(0, len(logits), _ROW_BLOCK):
        block = logits[start : start + _ROW_BLOCK]
        np.copyto(block, -np.inf, where=~mask[start : start + _ROW_BLOCK])
        block -= np.max(block, axis=1, keepdims=True)
        block -= np.log(np.sum(np.exp(block), axis=1, keepdims=True))
    return logits
