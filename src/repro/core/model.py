"""The MMKGR agent: unified gate-attention fusion + feature-aware policy.

This module wires the paper's two components together into the single agent
that training, evaluation and serving drive through their batched engines:

* per-step feature extraction from a :class:`FeatureStore` (structural TransE
  embeddings + modality features) and the LSTM path-history encoder;
* the unified gate-attention network (or one of its ablation variants) which
  turns those features into the complementary features ``Z``;
* the policy network that scores the available actions against ``Z`` (Eq. 17).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.config import MMKGRConfig
from repro.features.extraction import FeatureStore
from repro.fusion.gate_attention import FusionInputs
from repro.fusion.variants import FusionVariant, build_fuser
from repro.nn import Module
from repro.nn.tensor import Tensor, no_grad
from repro.rl.environment import EpisodeState, Query
from repro.rl.history import PathHistoryEncoder
from repro.rl.policy import PolicyNetwork, stack_action_embeddings
from repro.utils.rng import SeedLike, new_rng


class MMKGRAgent(Module):
    """Multi-hop multi-modal reasoning agent."""

    # Optional ``(probabilities, relations, mask) -> corrections`` over
    # ``(B, n)`` action matrices, added to the policy's log-probs by every
    # rollout and beam search (e.g. RLH's relation level).  A class-level
    # choice: ``None`` leaves Eq. 17's distribution as it is.
    log_prob_correction = None

    def __init__(
        self,
        features: FeatureStore,
        config: Optional[MMKGRConfig] = None,
        rng: SeedLike = None,
    ):
        super().__init__()
        self.config = config or MMKGRConfig()
        self.features = features
        rng = new_rng(self.config.seed if rng is None else rng)

        structural_dim = features.structural_dim
        if structural_dim != self.config.structural_dim:
            # The feature store is authoritative: its dimension comes from the
            # pretrained TransE embeddings.
            self.config.structural_dim = structural_dim

        self.history_encoder = PathHistoryEncoder(
            embedding_dim=structural_dim, hidden_dim=self.config.history_dim, rng=rng
        )
        self.fuser = build_fuser(
            self.config.fusion_variant,
            structural_dim=structural_dim,
            history_dim=self.config.history_dim,
            text_dim=features.text_dim,
            image_dim=features.image_dim,
            auxiliary_dim=self.config.auxiliary_dim,
            attention_dim=self.config.attention_dim,
            joint_dim=self.config.joint_dim,
            rng=rng,
        )
        self.policy = PolicyNetwork(
            fusion_dim=self.fuser.output_dim,
            action_dim=2 * structural_dim,
            hidden_dim=self.config.policy_hidden_dim,
            rng=rng,
        )
        self._query: Optional[Query] = None

    # ------------------------------------------------------------ episode API
    def begin_episode(self, query: Query) -> None:
        """Reset the path history at the query's source entity."""
        self._query = query
        self.history_encoder.reset(self.features.entity_embedding(query.source))

    def observe_step(self, relation: int, entity: int) -> None:
        """Fold a traversed edge into the path history."""
        self.history_encoder.update(
            self.features.relation_embedding(relation),
            self.features.entity_embedding(entity),
        )

    def snapshot(self):
        """Opaque per-episode state for beam-search forking."""
        return self.history_encoder.snapshot()

    def restore(self, snapshot) -> None:
        self.history_encoder.restore(snapshot)

    # ---------------------------------------------------------------- scoring
    def fusion_inputs(
        self,
        sources: np.ndarray,
        currents: np.ndarray,
        relations: np.ndarray,
        history,
    ) -> FusionInputs:
        """The fuser's inputs for a batch of branches, gathered by id.

        ``sources``/``currents``/``relations`` are id arrays of length ``B``;
        ``history`` is the ``(B, history_dim)`` LSTM hidden state, a Tensor
        to trace the fuser or an ndarray to run it untraced.
        """
        features = self.features
        inputs = FusionInputs(
            source_embedding=features.entity_embeddings[sources],
            current_embedding=features.entity_embeddings[currents],
            query_relation_embedding=features.relation_embeddings[relations],
            history=history,
        )
        if getattr(self.fuser, "uses_modalities", True):
            inputs.source_text = features.text_features[sources]
            inputs.source_image = features.image_features[sources]
            inputs.current_text = features.text_features[currents]
            inputs.current_image = features.image_features[currents]
        return inputs

    def complementary_features(self, state: EpisodeState) -> Tensor:
        """The multi-modal complementary features ``Z`` for the current state."""
        query = state.query
        inputs = self.fusion_inputs(
            np.array([query.source]),
            np.array([state.current_entity]),
            np.array([query.relation]),
            self.history_encoder.hidden.reshape(1, -1),
        )
        return self.fuser(inputs).reshape(-1)

    def action_log_probs(
        self, state: EpisodeState, actions: Sequence[Tuple[int, int]]
    ) -> Tensor:
        """Differentiable log π(a|s) over the available actions (Eq. 17)."""
        fused = self.complementary_features(state)
        action_matrix = stack_action_embeddings(
            actions, self.features.relation_embeddings, self.features.entity_embeddings
        )
        log_probs = self.policy(fused, action_matrix)
        if self.log_prob_correction is None:
            return log_probs
        relations = np.array([[relation for relation, _ in actions]], dtype=np.intp)
        corrections = self.log_prob_correction(
            np.exp(log_probs.data)[None], relations, np.ones(relations.shape, dtype=bool)
        )
        return log_probs + Tensor(corrections[0])

    def action_probabilities(
        self, state: EpisodeState, actions: Sequence[Tuple[int, int]]
    ) -> np.ndarray:
        with no_grad():
            log_probs = self.action_log_probs(state, actions)
        return np.exp(log_probs.data)

    # ------------------------------------------------------------- inspection
    @property
    def fusion_variant(self) -> FusionVariant:
        return self.config.fusion_variant

    def describe(self) -> str:
        """One-line description used in logs and result tables."""
        return (
            f"MMKGRAgent(fusion={self.config.fusion_variant.value}, "
            f"modalities={self.features.modalities.label}, "
            f"params={self.num_parameters()})"
        )
