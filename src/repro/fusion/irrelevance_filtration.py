"""Irrelevance-filtration module (Section IV-B3, Eqs. 11-12).

The attended features ``V̂`` coming out of the attention-fusion module still
contain contributions that are irrelevant to the triple query (the paper's
example: black image backgrounds).  A multiplicative gate computed from the
agreement between ``B_r`` and ``V̂`` suppresses those contributions:

* ``G_f = σ(B_r ⊙ V̂)`` (Eq. 11),
* ``Z = G_f (B_r ⊙ V̂)`` (Eq. 12),

so feature positions where the bilinear values and the attended values agree
(and are therefore query-relevant) pass through, while conflicting or
near-zero positions are squashed towards zero.
"""

from __future__ import annotations

from repro.nn import Module
from repro.nn import functional as F


class IrrelevanceFiltrationModule(Module):
    """Multiplicative relevance gate over the attended features."""

    def forward(self, attended, joint_right):
        """Apply the filtration gate.

        ``attended`` is ``V̂`` and ``joint_right`` is ``B_r``; both have shape
        ``(B, m, j)``.  The returned complementary features ``Z`` have the
        same shape — pooling over the ``m`` slots happens in the enclosing
        network so ablation variants can share the pooling code.
        """
        if attended.shape != joint_right.shape:
            raise ValueError(
                f"attended features {attended.shape} and bilinear values {joint_right.shape} "
                "must have identical shapes"
            )
        interaction = joint_right * attended
        gate = F.sigmoid(interaction)  # G_f in [0, 1]
        return gate * interaction
