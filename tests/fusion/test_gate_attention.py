"""Tests for the unified gate-attention network and fusion variants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fusion.gate_attention import FusionInputs, UnifiedGateAttentionNetwork
from repro.fusion.variants import (
    AttentionOnlyFuser,
    ConcatenationFuser,
    FusionVariant,
    StructureOnlyFuser,
    build_fuser,
)
from repro.nn.tensor import Tensor

BATCH = 5
STRUCTURAL_DIM = 8
HISTORY_DIM = 6
TEXT_DIM = 10
IMAGE_DIM = 12


def make_inputs(rng, history_requires_grad: bool = False) -> FusionInputs:
    history = Tensor(rng.normal(size=(BATCH, HISTORY_DIM)), requires_grad=history_requires_grad)
    return FusionInputs(
        source_embedding=rng.normal(size=(BATCH, STRUCTURAL_DIM)),
        current_embedding=rng.normal(size=(BATCH, STRUCTURAL_DIM)),
        query_relation_embedding=rng.normal(size=(BATCH, STRUCTURAL_DIM)),
        history=history,
        source_text=rng.normal(size=(BATCH, TEXT_DIM)),
        source_image=rng.normal(size=(BATCH, IMAGE_DIM)),
        current_text=rng.normal(size=(BATCH, TEXT_DIM)),
        current_image=rng.normal(size=(BATCH, IMAGE_DIM)),
    )


def make_network(**kwargs) -> UnifiedGateAttentionNetwork:
    defaults = dict(
        structural_dim=STRUCTURAL_DIM,
        history_dim=HISTORY_DIM,
        text_dim=TEXT_DIM,
        image_dim=IMAGE_DIM,
        auxiliary_dim=8,
        attention_dim=8,
        joint_dim=8,
        rng=0,
    )
    defaults.update(kwargs)
    return UnifiedGateAttentionNetwork(**defaults)


class TestUnifiedGateAttentionNetwork:
    def test_output_is_batch_by_joint_dim(self, rng):
        network = make_network()
        z = network(make_inputs(rng))
        assert z.shape == (BATCH, 8)
        assert network.output_dim == 8

    def test_odd_auxiliary_dim_raises(self):
        with pytest.raises(ValueError):
            make_network(auxiliary_dim=7)

    def test_gradients_reach_parameters_and_history(self, rng):
        network = make_network()
        inputs = make_inputs(rng, history_requires_grad=True)
        network(inputs).sum().backward()
        grads = [p.grad for _, p in network.named_parameters()]
        assert all(g is not None for g in grads)
        assert inputs.history.grad is not None

    def test_output_changes_with_modalities(self, rng):
        network = make_network()
        inputs = make_inputs(rng)
        base = network(inputs).data.copy()
        modified = make_inputs(rng)
        modified.current_image = modified.current_image + 5.0
        assert not np.allclose(base, network(modified).data)


class TestVariants:
    @pytest.mark.parametrize(
        "variant",
        [
            FusionVariant.FULL,
            FusionVariant.NO_FILTRATION,
            FusionVariant.NO_ATTENTION,
            FusionVariant.STRUCTURE_ONLY,
            FusionVariant.CONCATENATION,
            FusionVariant.CONVENTIONAL_ATTENTION,
        ],
    )
    def test_all_variants_share_interface(self, variant, rng):
        fuser = build_fuser(
            variant,
            structural_dim=STRUCTURAL_DIM,
            history_dim=HISTORY_DIM,
            text_dim=TEXT_DIM,
            image_dim=IMAGE_DIM,
            auxiliary_dim=8,
            attention_dim=8,
            joint_dim=8,
            rng=0,
        )
        z = fuser(make_inputs(rng))
        assert z.shape == (BATCH, 8)
        assert fuser.output_dim == 8

    def test_structure_only_ignores_modalities(self, rng):
        fuser = StructureOnlyFuser(STRUCTURAL_DIM, HISTORY_DIM, output_dim=8, rng=0)
        inputs = make_inputs(rng)
        base = fuser(inputs).data.copy()
        inputs.current_image = inputs.current_image + 100.0
        inputs.source_text = inputs.source_text + 100.0
        np.testing.assert_allclose(base, fuser(inputs).data)

    def test_concatenation_uses_modalities(self, rng):
        fuser = ConcatenationFuser(
            STRUCTURAL_DIM, HISTORY_DIM, TEXT_DIM, IMAGE_DIM, output_dim=8, rng=0
        )
        inputs = make_inputs(rng)
        base = fuser(inputs).data.copy()
        inputs.current_image = inputs.current_image + 100.0
        assert not np.allclose(base, fuser(inputs).data)

    def test_attention_only_fuser_output(self, rng):
        fuser = AttentionOnlyFuser(
            STRUCTURAL_DIM, HISTORY_DIM, TEXT_DIM, IMAGE_DIM, output_dim=8, rng=0
        )
        assert fuser(make_inputs(rng)).shape == (BATCH, 8)

    def test_variant_enum_round_trip(self):
        assert FusionVariant("full") is FusionVariant.FULL
        with pytest.raises(ValueError):
            FusionVariant("not-a-variant")

    def test_full_differs_from_no_filtration(self, rng):
        kwargs = dict(
            structural_dim=STRUCTURAL_DIM,
            history_dim=HISTORY_DIM,
            text_dim=TEXT_DIM,
            image_dim=IMAGE_DIM,
            auxiliary_dim=8,
            attention_dim=8,
            joint_dim=8,
            rng=0,
        )
        inputs = make_inputs(rng)
        full = build_fuser(FusionVariant.FULL, **kwargs)(inputs).data
        ablated = build_fuser(FusionVariant.NO_FILTRATION, **kwargs)(inputs).data
        assert not np.allclose(full, ablated)
