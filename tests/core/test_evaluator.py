"""Batched-vs-reference evaluation parity and the ranking-determinism fixes.

Every protocol runs through the lockstep ``BatchBeamSearch``.  That must be
an optimisation, not a protocol change: under the same seed it has to return
metric dictionaries byte-identical to the per-query reference
``repro.rl.rollout.beam_search`` for every protocol (entity MRR/Hits,
relation MAP, hop distribution) — for MMKGR and for the hierarchical RLH
baseline, whose relation-level correction the engine applies per depth.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.baselines.rlh import HierarchicalAgent
from repro.core import evaluator
from repro.core.config import EvaluationConfig, MMKGRConfig
from repro.core.evaluator import (
    beam_search_results,
    evaluate_entity_prediction,
    evaluate_relation_prediction,
    hop_distribution,
)
from repro.core.model import MMKGRAgent
from repro.core.trainer import MMKGRPipeline
from repro.features.extraction import FeatureStore
from repro.fusion.variants import FusionVariant
from repro.kg.graph import KnowledgeGraph
from repro.kg.multimodal import MultiModalKnowledgeGraph
from repro.rl.environment import MKGEnvironment, Query
from repro.rl.rollout import beam_search
from repro.serve.engine import BatchBeamSearch


@pytest.fixture(scope="module")
def trained_pipeline(request):
    tiny_dataset = request.getfixturevalue("tiny_dataset")
    tiny_preset = request.getfixturevalue("tiny_preset")
    pipeline = MMKGRPipeline(tiny_dataset, preset=tiny_preset, rng=3)
    pipeline.train()
    return tiny_dataset, pipeline


def _config(beam_width: int = 4, **kwargs) -> EvaluationConfig:
    return EvaluationConfig(beam_width=beam_width, **kwargs)


def _reference_results(agent, environment, queries, config=None, cache=None):
    """``beam_search_results`` as one reference beam search per query."""
    config = config or EvaluationConfig()
    return [
        beam_search(agent, environment, query, beam_width=config.beam_width)
        for query in queries
    ]


def _engine_and_reference(evaluate):
    """``evaluate()`` through the engine, then through the reference loop."""
    engine = evaluate()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluator, "beam_search_results", _reference_results)
        reference = evaluate()
    return engine, reference


def _assert_same_search(fast, slow):
    assert fast.query == slow.query
    # Raw log-probs may differ at float-noise level between the batched and
    # per-row BLAS paths; the ranking (what every metric consumes) must match
    # exactly.
    fast_ranked = fast.ranked_entities()
    slow_ranked = slow.ranked_entities()
    assert [e for e, _ in fast_ranked] == [e for e, _ in slow_ranked]
    np.testing.assert_allclose(
        [score for _, score in fast_ranked],
        [score for _, score in slow_ranked],
        rtol=1e-9,
    )
    assert fast.entity_hops == slow.entity_hops


class TestScalarVectorizedParity:
    def test_entity_metrics_identical(self, trained_pipeline):
        dataset, pipeline = trained_pipeline
        engine, reference = _engine_and_reference(
            lambda: evaluate_entity_prediction(
                pipeline.agent,
                pipeline.environment,
                dataset.splits.test,
                filter_graph=dataset.graph,
                config=_config(),
                rng=7,
            )
        )
        assert engine == reference

    def test_relation_metrics_identical(self, trained_pipeline):
        dataset, pipeline = trained_pipeline
        engine, reference = _engine_and_reference(
            lambda: evaluate_relation_prediction(
                pipeline.agent,
                pipeline.environment,
                dataset.splits.test[:6],
                config=_config(),
                rng=7,
            )
        )
        assert engine == reference
        assert "overall" in engine

    def test_hop_distribution_identical(self, trained_pipeline):
        dataset, pipeline = trained_pipeline
        engine, reference = _engine_and_reference(
            lambda: hop_distribution(
                pipeline.agent,
                pipeline.environment,
                dataset.splits.test,
                filter_graph=dataset.graph,
                config=_config(),
                rng=7,
            )
        )
        assert engine == reference

    def test_parity_survives_chunked_batches(self, trained_pipeline):
        # Chunking the lockstep engine must not change any ranking: a
        # batch_size smaller than the query count exercises the chunk loop.
        dataset, pipeline = trained_pipeline
        engine, reference = _engine_and_reference(
            lambda: evaluate_entity_prediction(
                pipeline.agent,
                pipeline.environment,
                dataset.splits.test,
                filter_graph=dataset.graph,
                config=_config(batch_size=3),
                rng=7,
            )
        )
        assert engine == reference

    def test_subsampling_draws_identical_queries(self, trained_pipeline):
        # max_queries subsampling happens before any beam search, so both
        # paths must evaluate the same subset under the same rng.
        dataset, pipeline = trained_pipeline
        engine, reference = _engine_and_reference(
            lambda: evaluate_entity_prediction(
                pipeline.agent,
                pipeline.environment,
                dataset.splits.test,
                filter_graph=dataset.graph,
                config=_config(max_queries=5),
                rng=11,
            )
        )
        assert engine == reference


class TestBaselineParity:
    @pytest.fixture(scope="class")
    def rlh_reasoner(self, request):
        from repro.baselines.registry import fit_baseline

        tiny_dataset = request.getfixturevalue("tiny_dataset")
        tiny_preset = request.getfixturevalue("tiny_preset")
        return tiny_dataset, fit_baseline("RLH", tiny_dataset, preset=tiny_preset, rng=3)

    def test_rlh_beam_search_matches_reference(self, rlh_reasoner):
        dataset, reasoner = rlh_reasoner
        agent = reasoner.pipeline.agent
        environment = reasoner.pipeline.environment
        assert isinstance(agent, HierarchicalAgent)
        queries = [Query(t.head, t.relation, t.tail) for t in dataset.splits.test[:8]]
        engine = BatchBeamSearch(agent, environment, beam_width=4)
        for query, fast in zip(queries, engine.run(queries)):
            slow = beam_search(agent, environment, query, beam_width=4)
            _assert_same_search(fast, slow)
            assert fast.paths == slow.paths

    def test_rlh_entity_metrics_identical(self, rlh_reasoner):
        dataset, reasoner = rlh_reasoner
        engine, reference = _engine_and_reference(
            lambda: reasoner.entity_metrics(
                dataset.splits.test, filter_graph=dataset.graph, config=_config(), rng=7
            )
        )
        assert engine == reference

    def test_rlh_relation_metrics_identical(self, rlh_reasoner):
        dataset, reasoner = rlh_reasoner
        engine, reference = _engine_and_reference(
            lambda: reasoner.relation_metrics(dataset.splits.test[:4], config=_config(), rng=7)
        )
        assert engine == reference

    def test_rlh_two_threads_match_sequential(self, rlh_reasoner):
        # The engines share one agent and never mutate it, so concurrent
        # searches need no lock and must answer exactly as a sequential run.
        dataset, reasoner = rlh_reasoner
        agent = reasoner.pipeline.agent
        environment = reasoner.pipeline.environment
        test = dataset.splits.test
        batches = [
            [Query(t.head, t.relation, -1) for t in test[half::2][:12]] for half in (0, 1)
        ]
        engines = [BatchBeamSearch(agent, environment, beam_width=4) for _ in batches]
        expected = [engine.run(batch) for engine, batch in zip(engines, batches)]
        barrier = threading.Barrier(len(engines))
        answers = [[] for _ in engines]

        def serve(index):
            barrier.wait()
            for _ in range(5):
                answers[index].append(engines[index].run(batches[index]))

        threads = [threading.Thread(target=serve, args=(i,)) for i in range(len(engines))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for index, rounds in enumerate(answers):
            assert len(rounds) == 5
            for results in rounds:
                for got, want in zip(results, expected[index]):
                    assert got.ranked_entities() == want.ranked_entities()
                    assert got.paths == want.paths


class _UniformAgent:
    """A protocol-only agent: it rolls out by hand but is no MMKGRAgent."""

    def begin_episode(self, query) -> None:
        pass

    def observe_step(self, relation: int, entity: int) -> None:
        pass

    def action_log_probs(self, state, actions):
        from repro.nn.tensor import Tensor

        return Tensor(np.full(len(actions), -np.log(len(actions))))

    def action_probabilities(self, state, actions) -> np.ndarray:
        return np.full(len(actions), 1.0 / len(actions))

    def snapshot(self):
        return None

    def restore(self, snapshot) -> None:
        pass


def _uniform_agent(graph: KnowledgeGraph) -> MMKGRAgent:
    """An MMKGRAgent whose policy scores every action 0: a uniform policy."""
    zeros = np.zeros((graph.num_entities, 4))
    mkg = MultiModalKnowledgeGraph.from_matrices(graph, zeros, zeros)
    features = FeatureStore(mkg, structural_dim=4, rng=np.random.default_rng(0))
    config = MMKGRConfig(
        structural_dim=4,
        history_dim=4,
        auxiliary_dim=4,
        attention_dim=4,
        joint_dim=4,
        policy_hidden_dim=4,
        max_steps=1,
        seed=0,
    )
    agent = MMKGRAgent(features, config=config, rng=0)
    for parameter in agent.policy.output_layer.parameters():
        parameter.data[...] = 0.0
    return agent


class TestScalarFallback:
    """No scalar fallback is left: the evaluator only drives MMKGRAgents."""

    def test_engine_rejects_protocol_only_agent(self, trained_pipeline):
        dataset, pipeline = trained_pipeline
        queries = [Query(t.head, t.relation, t.tail) for t in dataset.splits.test[:3]]
        with pytest.raises(TypeError):
            beam_search_results(_UniformAgent(), pipeline.environment, queries, _config())
        with pytest.raises(TypeError):
            evaluate_relation_prediction(
                _UniformAgent(), pipeline.environment, dataset.splits.test[:3], config=_config()
            )

    def test_beam_search_results_order_and_length(self, trained_pipeline):
        dataset, pipeline = trained_pipeline
        queries = [
            Query(t.head, t.relation, t.tail) for t in dataset.splits.test[:5]
        ]
        fast = beam_search_results(pipeline.agent, pipeline.environment, queries, _config())
        slow = _reference_results(pipeline.agent, pipeline.environment, queries, _config())
        assert len(fast) == len(slow) == len(queries)
        for query, fast_result, slow_result in zip(queries, fast, slow):
            assert fast_result.query == query
            _assert_same_search(fast_result, slow_result)


class TestFusionVariantBeamParity:
    """Every fusion variant runs the engine's fast path with the scalar beams."""

    @pytest.mark.parametrize("variant", list(FusionVariant), ids=lambda v: v.value)
    def test_batch_beam_search_matches_scalar_beam_search(self, tiny_dataset, variant):
        features = FeatureStore(tiny_dataset.mkg, structural_dim=8, rng=np.random.default_rng(0))
        config = MMKGRConfig(
            structural_dim=8,
            history_dim=8,
            auxiliary_dim=8,
            attention_dim=8,
            joint_dim=8,
            policy_hidden_dim=16,
            max_steps=3,
            max_actions=16,
            seed=0,
            fusion_variant=variant,
        )
        agent = MMKGRAgent(features, config=config, rng=0)
        environment = MKGEnvironment(tiny_dataset.train_graph, max_steps=3, max_actions=16)
        queries = [Query(t.head, t.relation, -1) for t in tiny_dataset.splits.test[:8]]
        engine = BatchBeamSearch(agent, environment, beam_width=4)
        for query, fast in zip(queries, engine.run(queries)):
            slow = beam_search(agent, environment, query, beam_width=4)
            _assert_same_search(fast, slow)
            assert fast.paths == slow.paths


class TestRelationRankingDeterminism:
    def test_map_independent_of_candidate_order(self, trained_pipeline):
        # Ties (every relation whose beam misses the tail scores -inf) used
        # to be broken by candidate iteration order; they must now rank by
        # ascending relation id regardless of how candidates are listed.
        dataset, pipeline = trained_pipeline
        candidates = list(range(min(6, dataset.graph.num_relations)))
        forward = evaluate_relation_prediction(
            pipeline.agent,
            pipeline.environment,
            dataset.splits.test[:5],
            candidate_relations=candidates,
            config=_config(),
            rng=7,
        )
        backward = evaluate_relation_prediction(
            pipeline.agent,
            pipeline.environment,
            dataset.splits.test[:5],
            candidate_relations=list(reversed(candidates)),
            config=_config(),
            rng=7,
        )
        assert forward == backward


class TestHopDistributionFilteredProtocol:
    @pytest.fixture()
    def duplicate_answer_setup(self):
        """A graph where (head, relation) has two correct tails.

        With a uniform policy the beam reaches both answers with identical
        scores, so the deterministic tie-break top-ranks the *other* correct
        answer (lower entity id) for the query asking about the second one.
        """
        # No no-op self-loop: it would put the (lower-id) source entity into
        # the tie pool and obscure the duplicate-answer scenario under test.
        graph = KnowledgeGraph(add_no_op=False)
        graph.add_triple_by_name("h", "r", "t1")
        graph.add_triple_by_name("h", "r", "t2")
        graph.add_triple_by_name("x", "r", "t1")
        environment = MKGEnvironment(graph, max_steps=1, mask_answer_edge=False)
        return graph, environment

    def test_success_matches_filtered_hits_at_1(self, duplicate_answer_setup):
        graph, environment = duplicate_answer_setup
        agent = _uniform_agent(graph)
        t2 = graph.entities.index("t2")
        triple = next(t for t in graph.triples() if t.tail == t2)
        config = EvaluationConfig(beam_width=4, hits_at=(1,))

        metrics = evaluate_entity_prediction(
            agent, environment, [triple], filter_graph=graph, config=config
        )
        distribution = hop_distribution(
            agent, environment, [triple], filter_graph=graph, config=config
        )
        # Both correct tails tie, t1 (lower id) ranks first unfiltered — yet
        # the query counts as solved under the filtered protocol, and the
        # hop distribution must agree with Table III's Hits@1 on that.
        assert metrics["hits@1"] == 1.0
        assert distribution["success_count"] == 1.0
        assert distribution["1_hops"] == 1.0

    def test_unreached_answer_never_counts_as_solved(self, duplicate_answer_setup):
        # With beam_width=1 the uniform beam keeps a single branch, so one of
        # the two answers goes unreached.  Filtering the reached duplicate
        # empties the candidate list, and rank_of's expected-rank convention
        # then yields rank 1 for the *unreached* answer on this tiny graph —
        # but a query without a real path must not enter the hop counts.
        graph, environment = duplicate_answer_setup
        agent = _uniform_agent(graph)
        t1 = graph.entities.index("t1")
        t2 = graph.entities.index("t2")
        config = EvaluationConfig(beam_width=1)
        unreached = None
        for triple in graph.triples():
            if triple.tail not in (t1, t2):
                continue
            (search,) = beam_search_results(
                agent,
                environment,
                [Query(triple.head, triple.relation, triple.tail)],
                config,
            )
            if triple.tail not in search.entity_log_probs:
                other = t1 if triple.tail == t2 else t2
                assert search.rank_of(triple.tail, filtered_out={other}) == 1
                unreached = triple
        assert unreached is not None, "expected one answer to fall off the beam"
        distribution = hop_distribution(
            agent, environment, [unreached], filter_graph=graph, config=config
        )
        assert distribution["success_count"] == 0.0

    def test_unfiltered_best_entity_would_have_missed_it(self, duplicate_answer_setup):
        graph, environment = duplicate_answer_setup
        agent = _uniform_agent(graph)
        t1 = graph.entities.index("t1")
        t2 = graph.entities.index("t2")
        triple = next(t for t in graph.triples() if t.tail == t2)
        config = EvaluationConfig(beam_width=4)
        (search,) = beam_search_results(
            agent,
            environment,
            [Query(triple.head, triple.relation, triple.tail)],
            config,
        )
        # Pin the scenario: the unfiltered top-1 is the duplicate answer, so
        # the old success definition (best_entity() == tail) under-counted.
        assert search.best_entity() == t1
        assert search.best_entity() != t2
        assert search.rank_of(t2, filtered_out={t1}) == 1
