"""Fusion variants for ablations and for the Table VII naive-fusion study.

* ``FusionVariant.FULL`` — the complete unified gate-attention network (MMKGR).
* ``FusionVariant.NO_FILTRATION`` — FAKGR: the irrelevance-filtration module is
  removed and the attended features feed the policy directly.
* ``FusionVariant.NO_ATTENTION`` — FGKGR: fusion stops at the bilinear joint
  representation of Eq. (6); only the irrelevance-filtration gate is applied.
* ``FusionVariant.STRUCTURE_ONLY`` — OSKGR: auxiliary features are ignored and
  the policy sees only (a projection of) the structural features.
* ``ConcatenationFuser`` / ``AttentionOnlyFuser`` — the two naive fusion
  strategies (vector concatenation and conventional single-direction
  attention) that Table VII bolts onto existing multi-hop models.

All fusers expose the same interface — ``forward(FusionInputs)`` over a batch
of ``B`` branches, returning ``(B, output_dim)`` — so the policy network,
the serving engine and the trainer never need to know which variant is in
use.  Each forward is written once: an ndarray history runs it as untraced
NumPy (serving), a Tensor history records it for autograd (training).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.fusion.gate_attention import FusionInputs, UnifiedGateAttentionNetwork
from repro.nn import Linear, Module
from repro.nn import functional as F
from repro.nn.tensor import concat, stack
from repro.utils.rng import SeedLike, new_rng


class FusionVariant(str, Enum):
    """Named fusion configurations used across the paper's experiments."""

    FULL = "full"
    NO_FILTRATION = "no_filtration"  # FAKGR
    NO_ATTENTION = "no_attention"  # FGKGR
    STRUCTURE_ONLY = "structure_only"  # OSKGR
    CONCATENATION = "concatenation"  # Table VII naive fusion
    CONVENTIONAL_ATTENTION = "conventional_attention"  # Table VII naive fusion


class ConcatenationFuser(Module):
    """Naive fusion: concatenate pooled structural and auxiliary features.

    This is the fusion strategy of early multi-modal KG models (and one of the
    two strategies evaluated in Table VII): no attention, no gating — just a
    linear projection of the concatenated global features.
    """

    def __init__(
        self,
        structural_dim: int,
        history_dim: int,
        text_dim: int,
        image_dim: int,
        output_dim: int = 32,
        rng: SeedLike = None,
    ):
        super().__init__()
        rng = new_rng(rng)
        input_dim = 2 * structural_dim + history_dim + structural_dim + text_dim + image_dim
        self.projection = Linear(input_dim, output_dim, rng=rng)
        self._output_dim = output_dim

    @property
    def output_dim(self) -> int:
        return self._output_dim

    def forward(self, inputs: FusionInputs):
        inputs = inputs.in_history_mode()
        flat = concat(
            [
                inputs.source_embedding,
                inputs.current_embedding,
                inputs.query_relation_embedding,
                0.5 * (inputs.source_text + inputs.current_text),
                0.5 * (inputs.source_image + inputs.current_image),
                inputs.history,
            ],
            axis=1,
        )
        return F.relu(self.projection(flat))


class AttentionOnlyFuser(Module):
    """Naive fusion: conventional one-direction attention over the modalities.

    Structural context attends over the three auxiliary feature vectors
    (source text, source image, current text+image average); there is no
    intra-modal interaction, no gating, and no filtration — the "Attention"
    column of Table VII.
    """

    def __init__(
        self,
        structural_dim: int,
        history_dim: int,
        text_dim: int,
        image_dim: int,
        output_dim: int = 32,
        rng: SeedLike = None,
    ):
        super().__init__()
        rng = new_rng(rng)
        context_dim = 2 * structural_dim + history_dim
        self.context_projection = Linear(context_dim, output_dim, bias=False, rng=rng)
        self.text_projection = Linear(text_dim, output_dim, bias=False, rng=rng)
        self.image_projection = Linear(image_dim, output_dim, bias=False, rng=rng)
        self.output_projection = Linear(2 * output_dim, output_dim, rng=rng)
        self._output_dim = output_dim

    @property
    def output_dim(self) -> int:
        return self._output_dim

    def forward(self, inputs: FusionInputs):
        inputs = inputs.in_history_mode()
        batch = inputs.history.shape[0]
        context = concat(
            [inputs.source_embedding, inputs.current_embedding, inputs.history], axis=1
        )
        context_vec = self.context_projection(context)  # (B, d)
        candidates = stack(
            [
                self.text_projection(inputs.source_text),
                self.image_projection(inputs.source_image),
                self.text_projection(inputs.current_text),
                self.image_projection(inputs.current_image),
            ],
            axis=1,
        )  # (B, 4, d)
        scores = (candidates @ context_vec.reshape(batch, -1, 1)).reshape(batch, -1)
        weights = F.softmax(scores * (1.0 / np.sqrt(self._output_dim)), axis=-1)
        attended = (candidates * weights.reshape(batch, -1, 1)).sum(axis=1)  # (B, d)
        fused = concat([context_vec, attended], axis=1)
        return F.relu(self.output_projection(fused))


class StructureOnlyFuser(Module):
    """OSKGR: ignore the auxiliary modalities entirely (Eq. 17 with structure only)."""

    # Callers may leave the modality fields of FusionInputs empty.
    uses_modalities = False

    def __init__(
        self,
        structural_dim: int,
        history_dim: int,
        output_dim: int = 32,
        rng: SeedLike = None,
    ):
        super().__init__()
        rng = new_rng(rng)
        input_dim = 3 * structural_dim + history_dim
        self.projection = Linear(input_dim, output_dim, rng=rng)
        self._output_dim = output_dim

    @property
    def output_dim(self) -> int:
        return self._output_dim

    def forward(self, inputs: FusionInputs):
        inputs = inputs.in_history_mode()
        flat = concat(
            [
                inputs.source_embedding,
                inputs.current_embedding,
                inputs.query_relation_embedding,
                inputs.history,
            ],
            axis=1,
        )
        return F.relu(self.projection(flat))


def build_fuser(
    variant: FusionVariant,
    structural_dim: int,
    history_dim: int,
    text_dim: int,
    image_dim: int,
    auxiliary_dim: int = 32,
    attention_dim: int = 32,
    joint_dim: int = 32,
    rng: SeedLike = None,
) -> Module:
    """Factory returning the fuser implementing ``variant``."""
    variant = FusionVariant(variant)
    if variant is FusionVariant.STRUCTURE_ONLY:
        return StructureOnlyFuser(structural_dim, history_dim, output_dim=joint_dim, rng=rng)
    if variant is FusionVariant.CONCATENATION:
        return ConcatenationFuser(
            structural_dim, history_dim, text_dim, image_dim, output_dim=joint_dim, rng=rng
        )
    if variant is FusionVariant.CONVENTIONAL_ATTENTION:
        return AttentionOnlyFuser(
            structural_dim, history_dim, text_dim, image_dim, output_dim=joint_dim, rng=rng
        )
    return UnifiedGateAttentionNetwork(
        structural_dim=structural_dim,
        history_dim=history_dim,
        text_dim=text_dim,
        image_dim=image_dim,
        auxiliary_dim=auxiliary_dim,
        attention_dim=attention_dim,
        joint_dim=joint_dim,
        rng=rng,
        use_attention=variant is not FusionVariant.NO_ATTENTION,
        use_filtration=variant is not FusionVariant.NO_FILTRATION,
    )
