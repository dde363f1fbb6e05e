"""Pinned parameter names and shapes of every fusion variant, and old presets.

Checkpoints, registry versions and model arenas store weights by their
``state_dict`` names.  Restructuring a fuser must keep these names, their
order and their shapes, or artifacts published earlier stop loading.  The
same artifacts embed their preset as JSON, so presets written before a
config field was retired must load too.
"""

from __future__ import annotations

import copy

import pytest

from repro.core.config import fast_preset
from repro.core.config_io import preset_from_dict, preset_to_dict
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


# ``preset_to_dict(fast_preset())`` as written while the scalar rollout and
# evaluation switches and ``ReinforceConfig.entropy_weight`` still existed.
_PRESET_WITH_RETIRED_KEYS = {
    "name": "fast",
    "model": {
        "structural_dim": 16,
        "history_dim": 16,
        "auxiliary_dim": 16,
        "attention_dim": 16,
        "joint_dim": 16,
        "policy_hidden_dim": 32,
        "max_steps": 3,
        "fusion_variant": "full",
        "max_actions": 32,
        "seed": 17,
    },
    "reward": {
        "lambda_destination": 0.1,
        "lambda_distance": 0.8,
        "lambda_diversity": 0.1,
        "distance_threshold": 3,
        "bandwidth": 3.0,
        "use_destination_shaping": True,
        "use_distance": True,
        "use_diversity": True,
    },
    "reinforce": {
        "epochs": 3,
        "batch_size": 64,
        "learning_rate": 0.003,
        "rollouts_per_query": 1,
        "baseline_decay": 0.95,
        "entropy_weight": 0.0,
        "grad_clip": 5.0,
        "seed": 11,
        "vectorized": True,
    },
    "imitation": {
        "epochs": 12,
        "batch_size": 16,
        "learning_rate": 0.008,
        "grad_clip": 5.0,
        "max_demonstrations": None,
        "seed": 23,
        "vectorized": True,
    },
    "embedding": {
        "epochs": 15,
        "batch_size": 64,
        "learning_rate": 0.1,
        "negatives_per_positive": 1,
        "shuffle": True,
        "lr_decay": 1.0,
        "seed": 7,
    },
    "evaluation": {
        "beam_width": 8,
        "hits_at": [1, 5, 10],
        "max_queries": 60,
        "vectorized": True,
        "batch_size": 256,
    },
    "dataset_scale": 0.4,
}


def test_preset_with_retired_keys_still_loads():
    preset = preset_from_dict(copy.deepcopy(_PRESET_WITH_RETIRED_KEYS))
    assert preset == fast_preset()
    assert preset_from_dict(preset_to_dict(preset)) == preset


@pytest.mark.parametrize("section", ["reinforce", "imitation", "evaluation", "model"])
def test_other_unknown_preset_keys_still_raise(section):
    payload = copy.deepcopy(_PRESET_WITH_RETIRED_KEYS)
    payload[section]["no_such_setting"] = 1
    with pytest.raises(TypeError):
        preset_from_dict(payload)
