"""Functional building blocks on top of :class:`repro.nn.tensor.Tensor`.

These mirror ``torch.nn.functional`` for the small set of operations the
MMKGR model requires: activations, losses, attention-style products, and the
Hadamard-product bilinear pooling used by the attention-fusion module.

The activations accept either a :class:`Tensor` or a plain ``np.ndarray``:
a Tensor records the op for autograd, an ndarray runs the same formula as
untraced NumPy and returns an ndarray.  Modules built from them (``Linear``,
``LSTMCell``, the fusers, the policy) therefore have one forward that serves
both training and no-grad inference.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.nn.tensor import (
    Tensor,
    concat,
    log_softmax_array,
    sigmoid_array,
    softmax_array,
    stack,
)


def traced(*values) -> bool:
    """Whether any of ``values`` is a Tensor (so the computation is recorded)."""
    return any(isinstance(value, Tensor) for value in values)


def relu(x):
    return x.relu() if isinstance(x, Tensor) else np.maximum(x, 0.0)


def sigmoid(x):
    return x.sigmoid() if isinstance(x, Tensor) else sigmoid_array(x)


def tanh(x):
    return x.tanh() if isinstance(x, Tensor) else np.tanh(x)


def softmax(x, axis: int = -1):
    return x.softmax(axis=axis) if isinstance(x, Tensor) else softmax_array(x, axis=axis)


def log_softmax(x, axis: int = -1):
    if isinstance(x, Tensor):
        return x.log_softmax(axis=axis)
    return log_softmax_array(x, axis=axis)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Element-wise (Hadamard) product used by MLB bilinear pooling (Eq. 6-7)."""
    return a * b


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity at evaluation time or when ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    mask = (rng.random(x.shape) >= p).astype(np.float64) / (1.0 - p)
    return x * Tensor(mask)


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    diff = prediction - target
    return (diff * diff).mean()


def binary_cross_entropy(prediction: Tensor, target: Tensor, eps: float = 1e-12) -> Tensor:
    """BCE over probabilities (used by the ConvE reward-shaping scorer)."""
    clipped = prediction.clip(eps, 1.0 - eps)
    losses = -(target * clipped.log() + (1.0 - target) * (1.0 - clipped).log())
    return losses.mean()


def cross_entropy(logits: Tensor, target_index: int) -> Tensor:
    """Negative log-likelihood of a single target class from logits (1-D)."""
    log_probs = logits.log_softmax(axis=-1)
    return -log_probs[target_index]


def nll_of_indices(log_probs: Tensor, indices: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of per-row target indices for a 2-D input."""
    rows = np.arange(log_probs.shape[0])
    picked = log_probs[rows, indices]
    return -picked.mean()


def margin_ranking_loss(positive: Tensor, negative: Tensor, margin: float) -> Tensor:
    """Max-margin loss used by TransE: ``max(0, margin + pos - neg)``.

    ``positive`` and ``negative`` hold *distances* (lower is better), matching
    the TransE convention.
    """
    raw = positive - negative + margin
    return raw.relu().mean()


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Normalise rows to unit L2 norm (projection step of TransE)."""
    squared = (x * x).sum(axis=axis, keepdims=True)
    norm = (squared + eps) ** 0.5
    return x / norm


def scaled_dot_product_attention(
    query: Tensor, key: Tensor, value: Tensor, scale: Optional[float] = None
) -> Tensor:
    """Standard attention ``softmax(QK^T / sqrt(d)) V`` for 2-D inputs."""
    d = query.shape[-1]
    scale = scale if scale is not None else 1.0 / np.sqrt(d)
    scores = query.matmul(key.T) * scale
    weights = scores.softmax(axis=-1)
    return weights.matmul(value)


def mean_pool(tensors: Sequence[Tensor]) -> Tensor:
    """Average a sequence of equally shaped tensors."""
    if not tensors:
        raise ValueError("cannot pool an empty sequence")
    stacked = stack(list(tensors), axis=0)
    return stacked.mean(axis=0)


def concat_features(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate feature tensors (thin wrapper kept for discoverability)."""
    return concat(list(tensors), axis=axis)
