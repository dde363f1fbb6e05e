"""Attention-fusion module (Section IV-B2, Eqs. 5-10).

The module fuses the structural features ``Y`` with the multi-modal auxiliary
features ``X`` through a low-rank bilinear (MLB-style) interaction and a
filtration gate:

* queries/keys/values: ``Q = X W_q``, ``K = Y W_k``, ``V = Y W_v`` (Eq. 5);
* joint representations ``B_l = K W^l_k ⊙ Q W^l_q`` and
  ``B_r = V W^r_v ⊙ Q W^r_q`` (Eqs. 6-7);
* a filtration gate ``g_t = σ(B_l W_m)`` that trades off how much of each
  modality enters the attention scores (Eq. 8);
* gated attention weights
  ``G_s = softmax((g_t ⊙ K)((1 − g_t) ⊙ Q)^T)`` (Eq. 9);
* attended features ``V̂`` obtained by accumulating the bilinear values
  ``B_r`` under those weights (Eq. 10).

Because every row pair entering the bilinear products can come from the same
modality (structure/structure) or different modalities (structure/auxiliary),
the module realises intra-modal and inter-modal interactions in one unified
computation, which is the paper's central fusion claim.

The paper is terse about the exact shapes in Eq. (10); this implementation
keeps the published structure (gated bilinear attention over the ``m`` feature
slots followed by a learned aggregation of ``B_r``) with shapes that type
check, and scales attention scores by ``1/sqrt(d)`` for numerical stability.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.nn import Linear, Module
from repro.nn import functional as F
from repro.utils.rng import SeedLike, new_rng


@dataclass(frozen=True)
class AttentionFusionConfig:
    """Dimensions of the attention-fusion module.

    ``structural_dim`` is the per-slot dimension of ``Y`` (``d_y``),
    ``auxiliary_dim`` the per-slot dimension of ``X`` (``d_x``), ``attention_dim``
    the shared projection size ``d`` of Q/K/V, and ``joint_dim`` the bilinear
    rank ``j`` which is also the dimension of the fused output.
    """

    structural_dim: int
    auxiliary_dim: int
    attention_dim: int = 32
    joint_dim: int = 32

    def __post_init__(self) -> None:
        for name in ("structural_dim", "auxiliary_dim", "attention_dim", "joint_dim"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


class AttentionFusionModule(Module):
    """Gated bilinear attention fusing structural and auxiliary feature slots."""

    def __init__(self, config: AttentionFusionConfig, rng: SeedLike = None):
        super().__init__()
        self.config = config
        rng = new_rng(rng)
        d = config.attention_dim
        j = config.joint_dim
        # Eq. (5): modality-specific projections into a shared attention space.
        self.w_query = Linear(config.auxiliary_dim, d, bias=False, rng=rng)
        self.w_key = Linear(config.structural_dim, d, bias=False, rng=rng)
        self.w_value = Linear(config.structural_dim, d, bias=False, rng=rng)
        # Eqs. (6)-(7): low-rank bilinear joint representations.
        self.w_l_key = Linear(d, j, bias=False, rng=rng)
        self.w_l_query = Linear(d, j, bias=False, rng=rng)
        self.w_r_value = Linear(d, j, bias=False, rng=rng)
        self.w_r_query = Linear(d, j, bias=False, rng=rng)
        # Eq. (8): filtration gate.
        self.w_gate = Linear(j, d, bias=False, rng=rng)
        # Eq. (10): aggregation weights over the attended bilinear values.
        self.w_aggregate = Linear(d, 1, bias=False, rng=rng)

    def forward(self, auxiliary, structural, attend: bool = True):
        """Fuse auxiliary features ``X`` (B, m, d_x) with structural features ``Y`` (B, m, d_y).

        Returns the attended features ``V̂`` and the bilinear values ``B_r``
        (both of shape ``(B, m, j)``); the irrelevance-filtration module
        consumes both.  With ``attend=False`` (the FGKGR ablation) fusion
        stops at the joint representation ``B_l`` of Eq. (6), which is
        returned in place of ``V̂``.  Tensor inputs are traced, plain arrays
        run untraced and return arrays.
        """
        if auxiliary.shape[:2] != structural.shape[:2]:
            raise ValueError(
                f"X and Y must have the same (batch, slot) shape, got {auxiliary.shape[:2]} "
                f"and {structural.shape[:2]}"
            )
        query = self.w_query(auxiliary)  # (B, m, d)
        key = self.w_key(structural)  # (B, m, d)
        value = self.w_value(structural)  # (B, m, d)

        joint_left = self.w_l_key(key) * self.w_l_query(query)  # B_l, (B, m, j)
        joint_right = self.w_r_value(value) * self.w_r_query(query)  # B_r, (B, m, j)
        if not attend:
            return joint_left, joint_right

        gate = F.sigmoid(self.w_gate(joint_left))  # g_t, (B, m, d)
        gated_key = gate * key
        gated_query = (1.0 - gate) * query
        scale = 1.0 / np.sqrt(self.config.attention_dim)
        scores = (gated_key @ gated_query.transpose(0, 2, 1)) * scale  # (B, m, m)
        attention = F.softmax(scores, axis=-1)  # G_s

        mixing = F.sigmoid(self.w_aggregate(attention @ key))  # (B, m, 1)
        attended = mixing * (attention @ joint_right)  # V̂, (B, m, j)
        return attended, joint_right

    @property
    def output_dim(self) -> int:
        return self.config.joint_dim
