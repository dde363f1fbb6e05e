"""Tests for the baseline registry and each baseline model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    BASELINE_REGISTRY,
    available_baselines,
    fit_baseline,
    get_baseline,
    result_from_reasoner,
)
from repro.baselines.mtrl import MultiModalTransE, forward_relations
from repro.baselines.neurallp import RuleReasoner
from repro.baselines.gaats import AttenuatedAttentionModel
from repro.embeddings.transe import TransE
from repro.embeddings.trainer import EmbeddingTrainer, EmbeddingTrainingConfig
from repro.kg.graph import NO_OP_RELATION, is_inverse_relation


EXPECTED_BASELINES = {"MTRL", "MINERVA", "RLH", "FIRE", "GAATs", "NeuralLP"}


class TestRegistry:
    def test_all_paper_baselines_registered(self):
        assert EXPECTED_BASELINES <= set(available_baselines())

    def test_get_baseline_returns_runner(self):
        runner = get_baseline("MTRL")
        assert runner.name == "MTRL"

    def test_unknown_baseline_raises(self):
        with pytest.raises(KeyError):
            get_baseline("NotAModel")

    def test_registry_classes_have_names(self):
        for name, cls in BASELINE_REGISTRY.items():
            assert cls.name == name


class TestForwardRelations:
    def test_excludes_inverse_and_no_op(self, tiny_dataset):
        graph = tiny_dataset.graph
        relations = forward_relations(graph)
        for relation in relations:
            name = graph.relations.symbol(relation)
            assert name != NO_OP_RELATION
            assert not is_inverse_relation(name)


class TestMultiModalTransE:
    def test_entity_vectors_concatenate_modalities(self, tiny_dataset):
        multimodal = np.concatenate(
            [tiny_dataset.mkg.text_matrix(), tiny_dataset.mkg.image_matrix()], axis=1
        )
        model = MultiModalTransE(
            tiny_dataset.train_graph,
            multimodal_features=multimodal,
            structural_dim=8,
            multimodal_dim=4,
            rng=0,
        )
        assert model.entity_embeddings.shape == (tiny_dataset.graph.num_entities, 12)

    def test_training_reduces_loss(self, tiny_dataset):
        multimodal = np.concatenate(
            [tiny_dataset.mkg.text_matrix(), tiny_dataset.mkg.image_matrix()], axis=1
        )
        model = MultiModalTransE(
            tiny_dataset.train_graph,
            multimodal_features=multimodal,
            structural_dim=8,
            multimodal_dim=4,
            rng=0,
        )
        trainer = EmbeddingTrainer(
            model, EmbeddingTrainingConfig(epochs=15, batch_size=16, learning_rate=0.1), rng=0
        )
        result = trainer.fit(tiny_dataset.splits.train)
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_feature_row_mismatch_raises(self, tiny_dataset):
        with pytest.raises(ValueError):
            MultiModalTransE(
                tiny_dataset.train_graph, multimodal_features=np.zeros((3, 5)), rng=0
            )


class TestRuleReasoner:
    def test_mines_composition_rule(self, tiny_graph):
        reasoner = RuleReasoner(tiny_graph, max_rule_length=2, min_support=1, min_confidence=0.1)
        lives_in = tiny_graph.relation_id("lives_in")
        rules = reasoner.mine([lives_in])[lives_in]
        assert rules, "expected at least one rule for lives_in"
        works = tiny_graph.relation_id("works_for")
        located = tiny_graph.relation_id("located_in")
        assert any(rule.body == (works, located) for rule in rules)

    def test_rule_application_scores_correct_tail(self, tiny_graph):
        reasoner = RuleReasoner(tiny_graph, max_rule_length=2, min_support=1, min_confidence=0.1)
        lives_in = tiny_graph.relation_id("lives_in")
        reasoner.mine([lives_in])
        alice = tiny_graph.entity_id("alice")
        berlin = tiny_graph.entity_id("berlin")
        scores = reasoner.score_tails(alice, lives_in)
        assert scores[berlin] == scores.max()
        assert reasoner.score_triple(alice, lives_in, berlin) > 0

    def test_invalid_rule_length(self, tiny_graph):
        with pytest.raises(ValueError):
            RuleReasoner(tiny_graph, max_rule_length=0)


class TestGAATsPropagation:
    def test_propagation_preserves_shapes_and_norms(self, tiny_dataset):
        transe = TransE(tiny_dataset.train_graph, embedding_dim=8, rng=0)
        model = AttenuatedAttentionModel(tiny_dataset.train_graph, transe, rounds=1)
        assert model.entity_embeddings.shape == transe.entity_embeddings.shape
        norms = np.linalg.norm(model.entity_embeddings, axis=1)
        np.testing.assert_allclose(norms, np.ones_like(norms), atol=1e-6)

    def test_invalid_parameters(self, tiny_dataset):
        transe = TransE(tiny_dataset.train_graph, embedding_dim=8, rng=0)
        with pytest.raises(ValueError):
            AttenuatedAttentionModel(tiny_dataset.train_graph, transe, rounds=0)
        with pytest.raises(ValueError):
            AttenuatedAttentionModel(tiny_dataset.train_graph, transe, mixing=2.0)

    def test_train_step_not_supported(self, tiny_dataset):
        transe = TransE(tiny_dataset.train_graph, embedding_dim=8, rng=0)
        model = AttenuatedAttentionModel(tiny_dataset.train_graph, transe)
        with pytest.raises(NotImplementedError):
            model.train_step([], [], 0.1)


@pytest.mark.parametrize("name", sorted(EXPECTED_BASELINES))
def test_every_baseline_runs_end_to_end(name, tiny_dataset, tiny_preset):
    """Smoke test: each baseline trains and reports the standard metrics."""
    reasoner = fit_baseline(name, tiny_dataset, preset=tiny_preset, rng=0)
    result = result_from_reasoner(reasoner, tiny_dataset, tiny_preset, rng=0)
    assert result.name == name
    assert set(result.entity_metrics) == {"mrr", "hits@1", "hits@5", "hits@10"}
    assert 0.0 <= result.entity_metrics["mrr"] <= 1.0


def test_baseline_relation_map_evaluation(tiny_dataset, tiny_preset):
    reasoner = fit_baseline("MTRL", tiny_dataset, preset=tiny_preset, rng=0)
    result = result_from_reasoner(
        reasoner, tiny_dataset, tiny_preset, evaluate_relations=True, rng=0
    )
    assert "overall" in result.relation_metrics
    assert 0.0 <= result.relation_metrics["overall"] <= 1.0
