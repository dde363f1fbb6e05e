"""The unified gate-attention network (Section IV-B).

Pipeline: feature extraction → attention-fusion module → irrelevance-
filtration module → multi-modal complementary features ``Z`` consumed by the
complementary feature-aware RL policy.

Feature slots
-------------
The paper stacks the structural features of the elements involved in the
current reasoning state into ``Y`` and the corresponding auxiliary features
into ``X`` (both with ``m`` rows).  This implementation uses three slots:

1. the source entity ``e_s`` of the query,
2. the entity ``e_t`` currently visited by the agent,
3. the query context (the query relation combined with the path history).

Each slot pairs a structural row ``y_i = [e; h_t; r_q]``-style information
with the auxiliary row ``x_i = [f_t W_t ; f_i W_i]`` of the corresponding
entity (Eq. 3); the query-context slot reuses the source entity's auxiliary
features, mirroring how the paper conditions fusion on the triple query.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Union

import numpy as np

from repro.fusion.attention_fusion import AttentionFusionConfig, AttentionFusionModule
from repro.fusion.irrelevance_filtration import IrrelevanceFiltrationModule
from repro.nn import Linear, Module
from repro.nn.tensor import Tensor, concat, stack
from repro.utils.rng import SeedLike, new_rng


@dataclass
class FusionInputs:
    """Raw per-step features of a batch of ``B`` branches handed to a fuser.

    Every field is ``(B, dim)``.  Entity/relation/modality features come from
    static lookup tables and are plain arrays; the modality fields may be
    ``None`` for fusers that never read them.  ``history`` is the LSTM
    encoding of each branch's path so far and decides the forward's mode: a
    :class:`Tensor` history (the live training graph) makes the fuser trace
    every op, wrapping the static features as Tensors so gradients reach the
    text/image projections too; an ndarray history runs the fuser as
    untraced NumPy and yields an ndarray.
    """

    source_embedding: np.ndarray
    current_embedding: np.ndarray
    query_relation_embedding: np.ndarray
    history: Union[np.ndarray, Tensor]
    source_text: Optional[np.ndarray] = None
    source_image: Optional[np.ndarray] = None
    current_text: Optional[np.ndarray] = None
    current_image: Optional[np.ndarray] = None

    def in_history_mode(self) -> "FusionInputs":
        """These inputs with the static features in the history's mode."""
        if not isinstance(self.history, Tensor):
            return self
        values = [getattr(self, field.name) for field in fields(self)]
        return FusionInputs(
            *(v if v is None or isinstance(v, Tensor) else Tensor(v) for v in values)
        )


class UnifiedGateAttentionNetwork(Module):
    """Generates multi-modal complementary features ``Z`` for the RL policy.

    ``use_attention=False`` is the FGKGR ablation (fusion stops at the
    bilinear joint representation of Eq. 6) and ``use_filtration=False`` is
    FAKGR (attended features go straight to the policy).
    """

    def __init__(
        self,
        structural_dim: int,
        history_dim: int,
        text_dim: int,
        image_dim: int,
        auxiliary_dim: int = 32,
        attention_dim: int = 32,
        joint_dim: int = 32,
        rng: SeedLike = None,
        use_attention: bool = True,
        use_filtration: bool = True,
    ):
        super().__init__()
        if auxiliary_dim % 2 != 0:
            raise ValueError("auxiliary_dim must be even (text/image halves)")
        rng = new_rng(rng)
        self.structural_dim = structural_dim
        self.history_dim = history_dim
        self.text_dim = text_dim
        self.image_dim = image_dim
        self.auxiliary_dim = auxiliary_dim
        self.use_attention = use_attention
        self.use_filtration = use_filtration
        slot_structural_dim = 2 * structural_dim + history_dim

        # Eq. (3): learned projections of the raw text/image features.
        half = auxiliary_dim // 2
        self.text_projection = Linear(text_dim, half, bias=False, rng=rng)
        self.image_projection = Linear(image_dim, half, bias=False, rng=rng)

        self.attention_fusion = AttentionFusionModule(
            AttentionFusionConfig(
                structural_dim=slot_structural_dim,
                auxiliary_dim=auxiliary_dim,
                attention_dim=attention_dim,
                joint_dim=joint_dim,
            ),
            rng=rng,
        )
        self.irrelevance_filtration = IrrelevanceFiltrationModule()
        self._output_dim = joint_dim

    @property
    def output_dim(self) -> int:
        return self._output_dim

    def forward(self, inputs: FusionInputs):
        """The complementary features ``Z``, shape ``(B, joint_dim)``."""
        inputs = inputs.in_history_mode()
        source = inputs.source_embedding
        current = inputs.current_embedding
        relation = inputs.query_relation_embedding
        history = inputs.history
        # Structural slots y_i = [e ; h_t ; r_q] (Eq. 1), three per branch.
        structural = stack(
            [
                concat([source, history, relation], axis=1),
                concat([current, history, relation], axis=1),
                concat([relation, history, source], axis=1),
            ],
            axis=1,
        )  # (B, 3, slot_structural_dim)
        # Auxiliary slots x_i = [f_t W_t ; f_i W_i] (Eq. 3); the query-context
        # slot reuses the source entity's features.
        aux_source = concat(
            [self.text_projection(inputs.source_text), self.image_projection(inputs.source_image)],
            axis=1,
        )
        aux_current = concat(
            [
                self.text_projection(inputs.current_text),
                self.image_projection(inputs.current_image),
            ],
            axis=1,
        )
        auxiliary = stack([aux_source, aux_current, aux_source], axis=1)  # (B, 3, auxiliary_dim)

        attended, joint_right = self.attention_fusion(
            auxiliary, structural, attend=self.use_attention
        )
        if self.use_filtration:
            attended = self.irrelevance_filtration(attended, joint_right)
        # Pool the slots into the single feature vector the policy consumes.
        return attended.sum(axis=1)
