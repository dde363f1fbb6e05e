"""The array action-space kernel against the per-state ``available_actions``.

``MKGEnvironment.action_block`` is what the beam-search engine reads; the
per-state ``available_actions`` is what training rollouts and the reference
beam search read.  Row by row they must agree exactly, on both graph
backends and under every rule of the MDP: the step-0 answer-edge mask, the
``max_actions`` prefix, the NO_OP self-loop and FIRE's pruning.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.baselines.fire import PrunedEnvironment
from repro.kg.csr import CSRKnowledgeGraph
from repro.kg.graph import KnowledgeGraph, Triple
from repro.rl.environment import MKGEnvironment, Query


def _random_graph(seed: int = 0, entities: int = 30, edges: int = 160, **kwargs):
    """A dict graph with uneven degrees: a few entities carry most edges."""
    rng = np.random.default_rng(seed)
    graph = KnowledgeGraph(**kwargs)
    for index in range(entities):
        graph.add_entity(f"e{index}")
    for index in range(4):
        graph.add_relation(f"r{index}")
    forward = [graph.relation_id(f"r{index}") for index in range(4)]
    weights = 1.0 / np.arange(1, entities + 1)
    weights /= weights.sum()
    for _ in range(edges):
        head, tail = rng.choice(entities, size=2, replace=False, p=weights)
        graph.add_triple(Triple(int(head), int(rng.choice(forward)), int(tail)))
    return graph


def _rows(block):
    relation_ids, tail_ids, mask = block
    return [
        list(zip(relations[row_mask].tolist(), tails[row_mask].tolist()))
        for relations, tails, row_mask in zip(relation_ids, tail_ids, mask)
    ]


def _expected(environment, queries, entities, step):
    rows = []
    for query, entity in zip(queries, entities):
        state = environment.reset(query)
        state.current_entity = int(entity)
        state.step = step
        rows.append(environment.available_actions(state))
    return rows


def _block(environment, queries, entities, step):
    return environment.action_block(
        np.asarray(entities),
        step,
        np.array([q.relation for q in queries]),
        np.array([q.answer for q in queries]),
        np.array([q.source for q in queries]),
    )


def _assert_rows_match(environment, queries, entities, step):
    block = _block(environment, queries, entities, step)
    relation_ids, tail_ids, mask = block
    assert relation_ids.shape == tail_ids.shape == mask.shape
    # Left-aligned rows, zero padding.
    counts = mask.sum(axis=1)
    assert np.array_equal(mask, np.arange(mask.shape[1]) < counts[:, None])
    assert not relation_ids[~mask].any() and not tail_ids[~mask].any()
    assert _rows(block) == _expected(environment, queries, entities, step)


def _edge_queries(graph, answers: bool):
    """One query per forward triple, asked at its head (answer = its tail)."""
    return [
        Query(t.head, t.relation, t.tail if answers else -1) for t in graph.triples()
    ]


@pytest.fixture(scope="module", params=["dict", "csr"])
def graph(request):
    built = _random_graph()
    return built if request.param == "dict" else CSRKnowledgeGraph.from_graph(built)


class TestMatchesAvailableActions:
    @pytest.mark.parametrize("max_actions", [None, 1, 3, 8])
    @pytest.mark.parametrize("step", [0, 1])
    def test_every_head_and_query(self, graph, max_actions, step):
        environment = MKGEnvironment(graph, max_steps=3, max_actions=max_actions)
        for answers in (False, True):
            queries = _edge_queries(graph, answers)
            _assert_rows_match(environment, queries, [q.source for q in queries], step)

    def test_answer_edges_inside_and_outside_the_prefix(self, graph):
        # Every triple's edge sits somewhere in its head's row; with a prefix
        # of 3, some answer edges fall inside it (the fourth edge moves up)
        # and some beyond it (nothing moves).
        environment = MKGEnvironment(graph, max_steps=3, max_actions=3)
        inside = outside = 0
        queries = _edge_queries(graph, answers=True)
        for query in queries:
            position = graph.outgoing_edges(query.source).index((query.relation, query.answer))
            if graph.degree(query.source) > 3:
                inside += position < 3
                outside += position >= 3
        assert inside and outside
        _assert_rows_match(environment, queries, [q.source for q in queries], 0)

    def test_mixed_answer_and_serving_rows(self, graph):
        environment = MKGEnvironment(graph, max_steps=3, max_actions=2)
        queries = _edge_queries(graph, answers=True)
        queries = [q if i % 2 else Query(q.source, q.relation, -1) for i, q in enumerate(queries)]
        _assert_rows_match(environment, queries, [q.source for q in queries], 0)

    def test_unmasked_environment(self, graph):
        environment = MKGEnvironment(graph, max_steps=3, mask_answer_edge=False, max_actions=2)
        queries = _edge_queries(graph, answers=True)
        _assert_rows_match(environment, queries, [q.source for q in queries], 0)

    def test_rows_at_other_entities(self, graph):
        environment = MKGEnvironment(graph, max_steps=3, max_actions=4)
        queries = _edge_queries(graph, answers=True)[: graph.num_entities]
        entities = np.arange(len(queries)) % graph.num_entities
        _assert_rows_match(environment, queries, entities, 0)
        _assert_rows_match(environment, queries, entities, 2)


class TestEdgeCases:
    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_no_no_op_and_a_zero_degree_entity(self, backend):
        graph = _random_graph(add_no_op=False)
        isolated = graph.add_entity("isolated")
        if backend == "csr":
            graph = CSRKnowledgeGraph.from_graph(graph)
        environment = MKGEnvironment(graph, max_steps=2, max_actions=3)
        queries = [Query(isolated, 1, -1), Query(0, 1, -1), Query(isolated, 1, 0)]
        entities = [isolated, 0, isolated]
        _assert_rows_match(environment, queries, entities, 0)
        relation_ids, _, mask = _block(environment, queries, entities, 0)
        assert mask.sum(axis=1).tolist()[::2] == [0, 0]  # dead branches

    def test_single_edge_that_is_the_answer_leaves_a_dead_row(self):
        graph = KnowledgeGraph(add_no_op=False, add_inverse=False)
        triple = graph.add_triple_by_name("a", "r", "b")
        environment = MKGEnvironment(graph, max_steps=2)
        query = Query(triple.head, triple.relation, triple.tail)
        _, _, mask = _block(environment, [query], [triple.head], 0)
        assert mask.shape == (1, 0)
        assert environment.available_actions(environment.reset(query)) == []

    def test_empty_batch(self, graph):
        environment = MKGEnvironment(graph, max_steps=2, max_actions=4)
        relation_ids, tail_ids, mask = _block(environment, [], np.empty(0, dtype=np.intp), 0)
        assert relation_ids.shape[0] == tail_ids.shape[0] == mask.shape[0] == 0

    def test_dict_graph_mutated_after_its_first_snapshot(self):
        graph = _random_graph(seed=3)
        environment = MKGEnvironment(graph, max_steps=2, max_actions=None)
        queries = _edge_queries(graph, answers=False)
        _assert_rows_match(environment, queries, [q.source for q in queries], 1)
        first = graph.adjacency_arrays()
        assert graph.adjacency_arrays() is first  # built once
        newcomer = graph.add_entity("newcomer")
        graph.add_triple(Triple(0, graph.relation_id("r0"), newcomer))
        graph.add_triple(Triple(newcomer, graph.relation_id("r1"), 5))
        assert graph.adjacency_arrays() is not first
        queries = _edge_queries(graph, answers=True)
        _assert_rows_match(environment, queries, [q.source for q in queries], 0)
        _assert_rows_match(environment, queries, [newcomer] * len(queries), 1)

    def test_hub_row_block_stays_proportional_to_its_edges(self):
        # A 3000-edge hub next to leaves: with no prefix the block is one
        # hub-wide row per query, i.e. O(rows x n) ids, never a per-edge
        # Python object; with a prefix only max_actions + 1 edges are read.
        graph = KnowledgeGraph()
        hub = graph.add_entity("hub")
        for index in range(3000):
            graph.add_triple_by_name("hub", f"r{index % 3}", f"leaf{index}")
        csr = CSRKnowledgeGraph.from_graph(graph)
        leaf = graph.entity_id("leaf7")
        queries = [Query(hub, 1, -1), Query(leaf, 1, -1), Query(hub, 1, leaf)]
        entities = [hub, leaf, hub]
        for backend in (graph, csr):
            environment = MKGEnvironment(backend, max_steps=2, max_actions=None)
            _assert_rows_match(environment, queries, entities, 0)
            backend.adjacency_arrays()  # the snapshot is not the block's cost
            tracemalloc.start()
            _block(environment, queries, entities, 0)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            rows, width = len(queries), 3001
            # Two int64 id arrays and a mask, plus the flat gathers and the
            # answer-mask temporaries: a small multiple of rows x width.
            assert peak < 12 * rows * width * 8
        limited = MKGEnvironment(csr, max_steps=2, max_actions=16)
        relation_ids, _, mask = _block(limited, queries, entities, 0)
        assert mask.shape == (3, 17)
        _assert_rows_match(limited, queries, entities, 0)


class TestPrunedEnvironment:
    @pytest.fixture(scope="class")
    def embeddings(self):
        rng = np.random.default_rng(1)
        graph = _random_graph()
        return rng.normal(size=(graph.num_entities, 6)), rng.normal(size=(graph.num_relations, 6))

    @pytest.mark.parametrize("prune_to", [2, 5, 40])
    @pytest.mark.parametrize("max_actions", [None, 6])
    def test_pruned_rows_match(self, graph, embeddings, prune_to, max_actions):
        entity_embeddings, relation_embeddings = embeddings
        environment = PrunedEnvironment(
            graph,
            max_steps=3,
            max_actions=max_actions,
            entity_embeddings=entity_embeddings,
            relation_embeddings=relation_embeddings,
            prune_to=prune_to,
        )
        for answers in (False, True):
            queries = _edge_queries(graph, answers)
            entities = (np.arange(len(queries)) * 7) % graph.num_entities
            for step in (0, 1):
                _assert_rows_match(environment, queries, entities, step)

    def test_tied_scores_keep_the_higher_index(self, graph):
        # All-equal embeddings: every action ties, so pruning keeps the last
        # prune_to actions of each row, in their original order.
        environment = PrunedEnvironment(
            graph,
            max_steps=3,
            entity_embeddings=np.zeros((graph.num_entities, 3)),
            relation_embeddings=np.zeros((graph.num_relations, 3)),
            prune_to=3,
        )
        queries = _edge_queries(graph, answers=False)
        rows = _rows(_block(environment, queries, [q.source for q in queries], 1))
        for query, row in zip(queries, rows):
            full = MKGEnvironment.available_actions(environment, environment.reset(query))
            assert row == full[-3:]
