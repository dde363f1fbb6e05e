"""``BatchBeamSearch`` against the per-query reference ``beam_search``.

The fusion-variant, RLH and evaluator suites (``tests/core/test_evaluator.py``)
cover trained and random MMKGR agents on the dict-built dataset graph.  This
file adds the action-space rules the engine now reads through
``action_block``: FIRE's pruned environment, ``max_actions`` truncation and
CSR-built graphs; the host-independent tie order under a uniform policy; the
dead-end branches the reference cannot walk; and the memory bound of a hub
row without an action prefix.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.fire import PrunedEnvironment
from repro.core.config import MMKGRConfig, fast_preset
from repro.core.model import MMKGRAgent
from repro.features.extraction import FeatureStore
from repro.kg.csr import CSRKnowledgeGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.multimodal import MultiModalKnowledgeGraph
from repro.rl.environment import MKGEnvironment, Query
from repro.rl.rollout import beam_search
from repro.serve.engine import BatchBeamSearch
from repro.serve.reasoner import reasoner_over_graph


def _assert_same(agent, environment, queries, beam_width=4):
    engine = BatchBeamSearch(agent, environment, beam_width=beam_width)
    for query, fast in zip(queries, engine.run(queries)):
        slow = beam_search(agent, environment, query, beam_width=beam_width)
        assert [e for e, _ in fast.ranked_entities()] == [e for e, _ in slow.ranked_entities()]
        np.testing.assert_allclose(
            [s for _, s in fast.ranked_entities()],
            [s for _, s in slow.ranked_entities()],
            rtol=1e-9,
        )
        assert fast.paths == slow.paths
        assert fast.entity_hops == slow.entity_hops


@pytest.fixture(scope="module")
def agent(tiny_dataset):
    features = FeatureStore(tiny_dataset.mkg, structural_dim=8, rng=np.random.default_rng(0))
    config = MMKGRConfig(
        structural_dim=8,
        history_dim=8,
        auxiliary_dim=8,
        attention_dim=8,
        joint_dim=8,
        policy_hidden_dim=16,
        max_steps=3,
        seed=0,
    )
    return MMKGRAgent(features, config=config, rng=0)


def _queries(tiny_dataset, answers: bool, count: int = 12):
    return [
        Query(t.head, t.relation, t.tail if answers else -1)
        for t in tiny_dataset.splits.test[:count]
    ]


class TestActionSpaceRules:
    @pytest.mark.parametrize("backend", ["dict", "csr"])
    @pytest.mark.parametrize("max_actions", [None, 2, 5])
    @pytest.mark.parametrize("answers", [False, True])
    def test_truncation_and_backends(self, agent, tiny_dataset, backend, max_actions, answers):
        graph = tiny_dataset.train_graph
        if backend == "csr":
            graph = CSRKnowledgeGraph.from_graph(graph)
        environment = MKGEnvironment(graph, max_steps=3, max_actions=max_actions)
        _assert_same(agent, environment, _queries(tiny_dataset, answers))

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    @pytest.mark.parametrize("prune_to", [2, 4])
    def test_fire_pruned_environment(self, agent, tiny_dataset, backend, prune_to):
        graph = tiny_dataset.train_graph
        if backend == "csr":
            graph = CSRKnowledgeGraph.from_graph(graph)
        environment = PrunedEnvironment(
            graph,
            max_steps=3,
            max_actions=8,
            entity_embeddings=agent.features.entity_embeddings,
            relation_embeddings=agent.features.relation_embeddings,
            prune_to=prune_to,
        )
        for answers in (False, True):
            _assert_same(agent, environment, _queries(tiny_dataset, answers))

    def test_beam_width_one_and_wide(self, agent, tiny_dataset):
        environment = MKGEnvironment(tiny_dataset.train_graph, max_steps=3, max_actions=6)
        for width in (1, 16):
            _assert_same(agent, environment, _queries(tiny_dataset, True), beam_width=width)


class TestUniformPolicyTieOrder:
    """Every action of a row ties: the tie rule alone decides the beam."""

    def test_engine_paths_equal_reference_on_long_rows(self):
        rng = np.random.default_rng(4)
        graph = KnowledgeGraph()
        for index in range(60):
            graph.add_entity(f"e{index}")
        for head in range(12):  # twelve heads with 17-29 edges each
            size = int(rng.integers(17, 30))
            for tail in rng.choice(np.arange(12, 60), size=size, replace=False):
                graph.add_triple_by_name(f"e{head}", f"r{int(tail) % 3}", f"e{int(tail)}")
        # Zero modalities through the gate-attention fuser give zero fused
        # features, so every action scores exactly 0.
        reasoner = reasoner_over_graph(graph, rng=0)
        pipeline = reasoner.pipeline
        queries = [Query(head, graph.relation_id("r0"), -1) for head in range(12)]
        engine = reasoner.engine
        for query, fast in zip(queries, engine.run(queries)):
            slow = beam_search(
                pipeline.agent, pipeline.environment, query, beam_width=engine.beam_width
            )
            assert fast.paths == slow.paths
            assert [e for e, _ in fast.ranked_entities()] == [e for e, _ in slow.ranked_entities()]
        assert max(graph.degree(head) for head in range(12)) > 16


class TestDeadEnds:
    def test_branch_without_actions_stays_on_the_beam(self):
        # a -r-> b and a -s-> c -t-> d, no NO_OP and no inverse edges: at
        # depth 1 the branch at b has no action; it keeps its place and
        # score, while the branch at c walks on to d.
        graph = KnowledgeGraph(add_inverse=False, add_no_op=False)
        for head, relation, tail in (("a", "r", "b"), ("a", "s", "c"), ("c", "t", "d")):
            graph.add_triple_by_name(head, relation, tail)
        zeros = np.zeros((graph.num_entities, 4))
        features = FeatureStore(
            MultiModalKnowledgeGraph.from_matrices(graph, zeros, zeros),
            structural_dim=4,
            rng=np.random.default_rng(0),
        )
        config = MMKGRConfig(
            structural_dim=4, history_dim=4, auxiliary_dim=4, attention_dim=4,
            joint_dim=4, policy_hidden_dim=4, max_steps=2, seed=0,
        )
        agent = MMKGRAgent(features, config=config, rng=0)
        for parameter in agent.policy.output_layer.parameters():
            parameter.data[...] = 0.0  # uniform policy
        environment = MKGEnvironment(graph, max_steps=2)
        a, b, c, d = (graph.entity_id(name) for name in "abcd")
        r, s, t = (graph.relation_id(name) for name in "rst")
        (result,) = BatchBeamSearch(agent, environment, beam_width=4).run([Query(a, r, -1)])
        half = float(np.log(0.5 + 1e-12))
        assert result.entity_log_probs == {b: half, d: half + float(np.log(1.0 + 1e-12))}
        assert result.paths == {b: [(r, b)], d: [(s, c), (t, d)]}
        assert result.entity_hops == {b: 1, d: 2}
        # A query whose source has no action at all answers with its source.
        (stuck,) = BatchBeamSearch(agent, environment, beam_width=4).run([Query(d, r, -1)])
        assert stuck.entity_log_probs == {d: 0.0} and stuck.paths == {d: []}


class TestHubMemory:
    def test_no_prefix_hub_costs_actions_not_rows_times_width_times_dim(self):
        # One query at a 4000-edge hub and 15 at leaves, no action prefix:
        # the padded block is 16 x 4001 ids, but the action embeddings are
        # gathered for the ~4030 real actions only, never as a padded
        # (16, 4001, 2d) tensor.
        graph = KnowledgeGraph()
        for index in range(4000):
            graph.add_triple_by_name("hub", f"r{index % 3}", f"leaf{index}")
        csr = CSRKnowledgeGraph.from_graph(graph)
        preset = fast_preset()
        preset = preset.with_overrides(model=replace(preset.model, structural_dim=64))
        agent = reasoner_over_graph(csr, preset=preset, rng=0).pipeline.agent
        environment = MKGEnvironment(csr, max_steps=1, max_actions=None)
        engine = BatchBeamSearch(agent, environment, beam_width=8)
        queries = [Query(csr.entity_id("hub"), 1, -1)] + [
            Query(csr.entity_id(f"leaf{i}"), 1, -1) for i in range(15)
        ]
        engine.run(queries)  # warm-up
        tracemalloc.start()
        results = engine.run(queries)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(results[0].entity_log_probs) == 8
        padded = len(queries) * 4001 * 2 * agent.features.structural_dim * 8
        assert peak < padded / 4
