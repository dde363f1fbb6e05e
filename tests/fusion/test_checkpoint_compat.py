"""Pinned parameter names and shapes of every fusion variant.

Checkpoints, registry versions and model arenas store weights by their
``state_dict`` names.  Restructuring a fuser must keep these names, their
order and their shapes, or artifacts published earlier stop loading.
"""

from __future__ import annotations

import pytest

from repro.fusion.variants import FusionVariant, build_fuser

DIMS = dict(
    structural_dim=8,
    history_dim=6,
    text_dim=10,
    image_dim=12,
    auxiliary_dim=4,
    attention_dim=5,
    joint_dim=7,
)

_GATE_ATTENTION = [
    ("text_projection.weight", (10, 2)),
    ("image_projection.weight", (12, 2)),
    ("attention_fusion.w_query.weight", (4, 5)),
    ("attention_fusion.w_key.weight", (22, 5)),
    ("attention_fusion.w_value.weight", (22, 5)),
    ("attention_fusion.w_l_key.weight", (5, 7)),
    ("attention_fusion.w_l_query.weight", (5, 7)),
    ("attention_fusion.w_r_value.weight", (5, 7)),
    ("attention_fusion.w_r_query.weight", (5, 7)),
    ("attention_fusion.w_gate.weight", (7, 5)),
    ("attention_fusion.w_aggregate.weight", (5, 1)),
]

PINNED = {
    FusionVariant.FULL: _GATE_ATTENTION,
    FusionVariant.NO_FILTRATION: _GATE_ATTENTION,
    FusionVariant.NO_ATTENTION: _GATE_ATTENTION,
    FusionVariant.STRUCTURE_ONLY: [
        ("projection.weight", (30, 7)),
        ("projection.bias", (7,)),
    ],
    FusionVariant.CONCATENATION: [
        ("projection.weight", (52, 7)),
        ("projection.bias", (7,)),
    ],
    FusionVariant.CONVENTIONAL_ATTENTION: [
        ("context_projection.weight", (22, 7)),
        ("text_projection.weight", (10, 7)),
        ("image_projection.weight", (12, 7)),
        ("output_projection.weight", (14, 7)),
        ("output_projection.bias", (7,)),
    ],
}


@pytest.mark.parametrize("variant", list(FusionVariant), ids=lambda v: v.value)
def test_state_dict_names_and_shapes_are_stable(variant):
    fuser = build_fuser(variant, rng=0, **DIMS)
    state = fuser.state_dict()
    assert [(name, value.shape) for name, value in state.items()] == PINNED[variant]
