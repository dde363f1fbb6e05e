"""Tests for the attention-fusion and irrelevance-filtration modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fusion.attention_fusion import AttentionFusionConfig, AttentionFusionModule
from repro.fusion.irrelevance_filtration import IrrelevanceFiltrationModule
from repro.nn.tensor import Tensor


@pytest.fixture()
def fusion_module() -> AttentionFusionModule:
    config = AttentionFusionConfig(
        structural_dim=10, auxiliary_dim=8, attention_dim=6, joint_dim=5
    )
    return AttentionFusionModule(config, rng=0)


class TestAttentionFusionModule:
    def test_output_shapes(self, fusion_module, rng):
        auxiliary = Tensor(rng.normal(size=(2, 3, 8)))
        structural = Tensor(rng.normal(size=(2, 3, 10)))
        attended, joint_right = fusion_module(auxiliary, structural)
        assert attended.shape == (2, 3, 5)
        assert joint_right.shape == (2, 3, 5)
        assert fusion_module.output_dim == 5

    def test_slot_mismatch_raises(self, fusion_module, rng):
        with pytest.raises(ValueError):
            fusion_module(Tensor(rng.normal(size=(2, 2, 8))), Tensor(rng.normal(size=(2, 3, 10))))

    def test_invalid_config_raises(self):
        with pytest.raises(ValueError):
            AttentionFusionConfig(structural_dim=0, auxiliary_dim=8)

    def test_gradients_flow_to_all_projections(self, fusion_module, rng):
        auxiliary = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
        structural = Tensor(rng.normal(size=(2, 3, 10)), requires_grad=True)
        attended, _ = fusion_module(auxiliary, structural)
        attended.sum().backward()
        for name, param in fusion_module.named_parameters():
            assert param.grad is not None, f"no gradient for {name}"
        assert auxiliary.grad is not None
        assert structural.grad is not None

    def test_output_depends_on_both_modalities(self, fusion_module, rng):
        auxiliary = rng.normal(size=(2, 3, 8))
        structural = rng.normal(size=(2, 3, 10))
        base, _ = fusion_module(Tensor(auxiliary), Tensor(structural))
        changed_aux, _ = fusion_module(Tensor(auxiliary + 1.0), Tensor(structural))
        changed_struct, _ = fusion_module(Tensor(auxiliary), Tensor(structural + 1.0))
        assert not np.allclose(base.data, changed_aux.data)
        assert not np.allclose(base.data, changed_struct.data)


class TestIrrelevanceFiltration:
    def test_output_shape_matches_input(self, rng):
        module = IrrelevanceFiltrationModule()
        attended = Tensor(rng.normal(size=(2, 3, 5)))
        joint = Tensor(rng.normal(size=(2, 3, 5)))
        assert module(attended, joint).shape == (2, 3, 5)

    def test_shape_mismatch_raises(self, rng):
        module = IrrelevanceFiltrationModule()
        with pytest.raises(ValueError):
            module(Tensor(rng.normal(size=(2, 3, 5))), Tensor(rng.normal(size=(2, 3, 4))))

    def test_gate_suppresses_magnitude(self, rng):
        """Filtered features never exceed the raw interaction in magnitude (gate <= 1)."""
        module = IrrelevanceFiltrationModule()
        attended = Tensor(rng.normal(size=(2, 4, 6)))
        joint = Tensor(rng.normal(size=(2, 4, 6)))
        interaction = attended.data * joint.data
        filtered = module(attended, joint).data
        assert np.all(np.abs(filtered) <= np.abs(interaction) + 1e-12)

    def test_zero_interaction_is_heavily_gated(self):
        module = IrrelevanceFiltrationModule()
        attended = Tensor(np.zeros((2, 2, 3)))
        joint = Tensor(np.ones((2, 2, 3)))
        np.testing.assert_allclose(module(attended, joint).data, np.zeros((2, 2, 3)))
