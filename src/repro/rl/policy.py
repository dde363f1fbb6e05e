"""The policy network (Eq. 17).

``π_θ(a_t | s_t) = softmax(A_t (W_2 ReLU(Z)))`` — the multi-modal
complementary features ``Z`` produced by the fusion network are mapped
through a feed-forward layer, and the result is matched against the stacked
embeddings ``A_t`` of every available action (relation ‖ target entity).
The action with the highest probability is the next reasoning step.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.nn import Linear, Module
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.utils.rng import SeedLike, new_rng


class PolicyNetwork(Module):
    """Feed-forward policy head scoring candidate actions against ``Z``.

    Every method takes either one state — ``Z`` of shape ``(fusion_dim,)``
    with an ``(n, action_dim)`` action matrix — or a batch — ``Z`` of shape
    ``(B, fusion_dim)`` with a padded ``(B, n, action_dim)`` action batch from
    :func:`pad_action_matrices`.  A Tensor ``Z`` is traced; an ndarray ``Z``
    runs untraced and yields arrays.
    """

    def __init__(
        self,
        fusion_dim: int,
        action_dim: int,
        hidden_dim: int = 64,
        rng: SeedLike = None,
    ):
        super().__init__()
        if fusion_dim <= 0 or action_dim <= 0 or hidden_dim <= 0:
            raise ValueError("dimensions must be positive")
        rng = new_rng(rng)
        self.fusion_dim = fusion_dim
        self.action_dim = action_dim
        # W_2 ReLU(Z): two affine maps with a ReLU in between, projecting the
        # complementary features into the action-embedding space.
        self.hidden_layer = Linear(fusion_dim, hidden_dim, rng=rng)
        self.output_layer = Linear(hidden_dim, action_dim, rng=rng)

    def project(self, fused_features):
        """``W_2 ReLU(W_1 Z + b_1) + b_2``, shape ``(..., action_dim)``."""
        return self.output_layer(F.relu(self.hidden_layer(fused_features)))

    def action_scores(self, fused_features, action_embeddings: np.ndarray):
        """Unnormalised scores ``A_t (W_2 ReLU(W_1 Z))``, one per action row."""
        action_embeddings = np.asarray(action_embeddings, dtype=np.float64)
        if (
            action_embeddings.ndim != fused_features.ndim + 1
            or action_embeddings.shape[-1] != self.action_dim
        ):
            raise ValueError(
                f"expected action embeddings of shape (..., n, {self.action_dim}) matching "
                f"the features' batch, got {action_embeddings.shape}"
            )
        projected = self.project(fused_features)
        column = projected.reshape(*projected.shape, 1)
        return (action_embeddings @ column).reshape(action_embeddings.shape[:-1])

    def forward(
        self,
        fused_features,
        action_embeddings: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ):
        """Action log-probabilities ``log π_θ(a_t | s_t)``.

        ``mask`` (boolean, same shape as the scores) marks real actions of a
        padded batch; padded positions get ``-inf``, so each row matches the
        unpadded single-state call on that row's action matrix.
        """
        scores = self.action_scores(fused_features, action_embeddings)
        if mask is not None:
            scores = scores + np.where(np.asarray(mask, dtype=bool), 0.0, -np.inf)
        return F.log_softmax(scores, axis=-1)

    def action_probabilities(self, fused_features, action_embeddings: np.ndarray) -> np.ndarray:
        """Probabilities as a plain array (inference: always untraced)."""
        if isinstance(fused_features, Tensor):
            fused_features = fused_features.data
        return F.softmax(self.action_scores(fused_features, action_embeddings), axis=-1)


def stack_action_embeddings(
    actions: Sequence[Tuple[int, int]],
    relation_embeddings: np.ndarray,
    entity_embeddings: np.ndarray,
) -> np.ndarray:
    """Build the action matrix ``A_t``: each row is ``[relation ; entity]``."""
    if not len(actions):
        raise ValueError("action space is empty")
    ids = np.fromiter(chain.from_iterable(actions), dtype=np.intp, count=2 * len(actions))
    ids = ids.reshape(-1, 2)
    return np.concatenate(
        [relation_embeddings[ids[:, 0]], entity_embeddings[ids[:, 1]]], axis=1
    )


def pad_action_matrices(
    action_lists: Sequence[Sequence[Tuple[int, int]]],
    relation_embeddings: np.ndarray,
    entity_embeddings: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Padded ``A_t`` batch for per-query action spaces of different sizes.

    Returns ``(embeddings, mask)``: ``embeddings`` is ``(B, n_max, 2 * d)``
    with the rows of :func:`stack_action_embeddings` per query, and ``mask``
    a boolean ``(B, n_max)`` marking real (non-padding) actions.  Padding
    rows are zeros after the real actions, preserving each query's order.
    """
    if not action_lists:
        raise ValueError("action_lists must not be empty")
    counts = np.fromiter((len(actions) for actions in action_lists), dtype=np.intp)
    if counts.min() == 0:
        raise ValueError("action space is empty")
    rows = stack_action_embeddings(
        [action for actions in action_lists for action in actions],
        relation_embeddings,
        entity_embeddings,
    )
    mask = np.arange(counts.max()) < counts[:, None]
    embeddings = np.zeros(mask.shape + rows.shape[1:])
    embeddings[mask] = rows  # row-major fill keeps each query's action order
    return embeddings, mask


def padded_relation_ids(
    action_lists: Sequence[Sequence[Tuple[int, int]]], mask: np.ndarray
) -> np.ndarray:
    """``(B, n_max)`` relation ids laid out like :func:`pad_action_matrices`'s mask."""
    relations = np.zeros(mask.shape, dtype=np.intp)
    relations[mask] = [relation for actions in action_lists for relation, _ in actions]
    return relations
