"""End-to-end tests of the Reasoner facades: fit, query, batch, save/load.

The checkpoint round-trip tests pin the satellite requirement: a saved and
restored reasoner must reproduce *identical* query rankings on a fixed seed,
for MMKGR and for the baselines.
"""

from __future__ import annotations

import pytest

from repro.baselines.registry import available_baselines, fit_baseline
from repro.rl.environment import Query
from repro.rl.rollout import beam_search
from repro.serve import Prediction, Reasoner, load_reasoner
from repro.serve.reasoner import EmbeddingReasoner


@pytest.fixture(scope="module")
def fitted_reasoner(request):
    tiny_dataset = request.getfixturevalue("tiny_dataset")
    tiny_preset = request.getfixturevalue("tiny_preset")
    return Reasoner(preset=tiny_preset, rng=0).fit(tiny_dataset)


@pytest.fixture(scope="module")
def test_queries(request):
    tiny_dataset = request.getfixturevalue("tiny_dataset")
    return [(t.head, t.relation) for t in tiny_dataset.splits.test[:8]]


def _ranking(predictions):
    return [(p.entity, round(p.score, 10)) for p in predictions]


class TestQuery:
    def test_query_returns_ranked_predictions(self, fitted_reasoner, test_queries):
        head, relation = test_queries[0]
        predictions = fitted_reasoner.query(head, relation, k=5)
        assert predictions, "the beam should reach at least one entity"
        assert all(isinstance(p, Prediction) for p in predictions)
        scores = [p.score for p in predictions]
        assert scores == sorted(scores, reverse=True)

    def test_query_accepts_entity_names(self, fitted_reasoner, test_queries):
        graph = fitted_reasoner.graph
        head, relation = test_queries[0]
        by_name = fitted_reasoner.query(
            graph.entities.symbol(head), graph.relations.symbol(relation), k=3
        )
        by_id = fitted_reasoner.query(head, relation, k=3)
        assert _ranking(by_name) == _ranking(by_id)

    def test_predictions_carry_reasoning_paths(self, fitted_reasoner, test_queries):
        head, relation = test_queries[0]
        top = fitted_reasoner.query(head, relation, k=1)[0]
        if top.path:  # the agent may legitimately stay at the source
            assert top.path[-1][1] == top.entity
            assert top.render_path().endswith(top.entity_name)

    def test_unfitted_reasoner_rejects_queries(self, tiny_preset):
        with pytest.raises(RuntimeError):
            Reasoner(preset=tiny_preset).query(0, 0)

    def test_invalid_k_rejected(self, fitted_reasoner):
        with pytest.raises(ValueError):
            fitted_reasoner.query(0, 0, k=0)


class TestQueryBatch:
    def test_batch_matches_sequential_queries(self, fitted_reasoner, test_queries):
        batched = fitted_reasoner.query_batch(test_queries, k=3)
        sequential = [fitted_reasoner.query(h, r, k=3) for h, r in test_queries]
        assert [list(map(_ranking, batched))] == [list(map(_ranking, sequential))]

    def test_batch_top1_matches_legacy_beam_search(self, fitted_reasoner, test_queries):
        pipeline = fitted_reasoner.pipeline
        batched = fitted_reasoner.query_batch(test_queries, k=1)
        for (head, relation), predictions in zip(test_queries, batched):
            legacy = beam_search(
                pipeline.agent,
                pipeline.environment,
                Query(head, relation, -1),
                beam_width=fitted_reasoner.engine.beam_width,
            )
            assert predictions[0].entity == legacy.best_entity()

    def test_empty_batch(self, fitted_reasoner):
        assert fitted_reasoner.query_batch([]) == []


class TestPipelineReasonerStage:
    def test_trained_pipeline_exposes_reasoner(self, fitted_reasoner):
        reasoner = fitted_reasoner.pipeline.reasoner(name="stage")
        assert reasoner.name == "stage"
        assert reasoner.is_fitted

    def test_untrained_pipeline_refuses(self, tiny_dataset, tiny_preset):
        from repro.core.trainer import MMKGRPipeline

        with pytest.raises(RuntimeError):
            MMKGRPipeline(tiny_dataset, preset=tiny_preset).reasoner()


class TestCheckpointRoundTrip:
    def test_mmkgr_roundtrip_identical_rankings(
        self, fitted_reasoner, test_queries, tmp_path
    ):
        before = fitted_reasoner.query_batch(test_queries, k=5)
        directory = fitted_reasoner.save(tmp_path / "mmkgr")
        restored = load_reasoner(directory)
        after = restored.query_batch(test_queries, k=5)
        assert list(map(_ranking, before)) == list(map(_ranking, after))

    # MTRL covers the pickle family; NeuralLP the "rules" dispatch; MINERVA
    # the checkpoint family; RLH and FIRE the agent/environment
    # specialisations restored from the manifest.
    @pytest.mark.parametrize("name", ["MTRL", "NeuralLP", "MINERVA", "RLH", "FIRE"])
    def test_baseline_roundtrip_identical_rankings(
        self, name, tiny_dataset, tiny_preset, test_queries, tmp_path
    ):
        reasoner = fit_baseline(name, tiny_dataset, preset=tiny_preset, rng=0)
        before = reasoner.query_batch(test_queries, k=5)
        directory = reasoner.save(tmp_path / name)
        restored = load_reasoner(directory)
        assert restored.name == name
        after = restored.query_batch(test_queries, k=5)
        assert list(map(_ranking, before)) == list(map(_ranking, after))

    def test_load_reasoner_rejects_non_reasoner_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_reasoner(tmp_path)


class TestEveryBaselineThroughProtocol:
    @pytest.mark.parametrize("name", sorted(["MTRL", "TransAE", "GAATs", "NeuralLP"]))
    def test_single_hop_baselines_are_queryable(
        self, name, tiny_dataset, tiny_preset, test_queries
    ):
        reasoner = fit_baseline(name, tiny_dataset, preset=tiny_preset, rng=0)
        assert isinstance(reasoner, EmbeddingReasoner)
        answers = reasoner.query_batch(test_queries, k=3)
        assert len(answers) == len(test_queries)
        assert all(len(predictions) == 3 for predictions in answers)

    def test_registry_covers_all_baselines(self):
        assert set(available_baselines()) == {
            "MTRL",
            "TransAE",
            "MINERVA",
            "FIRE",
            "GAATs",
            "NeuralLP",
            "RLH",
        }
