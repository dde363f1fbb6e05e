"""Dict-vs-CSR backend parity: same reads, same action spaces, same predictions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.trainer import MMKGRPipeline
from repro.kg.csr import CSRKnowledgeGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.vocab import RangeVocabulary, Vocabulary
from repro.rl.environment import MKGEnvironment, Query
from repro.serve.reasoner import NO_ANSWER, Reasoner


@pytest.fixture(scope="module")
def csr_tiny(tiny_graph):
    return CSRKnowledgeGraph.from_graph(tiny_graph)


@pytest.fixture(scope="module")
def dataset_graphs(tiny_dataset):
    graph = tiny_dataset.graph
    return graph, CSRKnowledgeGraph.from_graph(graph)


class TestReadParity:
    def test_sizes(self, tiny_graph, csr_tiny):
        assert csr_tiny.num_entities == tiny_graph.num_entities
        assert csr_tiny.num_relations == tiny_graph.num_relations
        assert csr_tiny.num_triples == tiny_graph.num_triples
        assert len(csr_tiny) == len(tiny_graph)

    def test_triples_match_as_sets(self, tiny_graph, csr_tiny):
        assert {t.as_tuple() for t in csr_tiny.triples()} == {
            t.as_tuple() for t in tiny_graph.triples()
        }

    def test_outgoing_edges_match_as_sets(self, dataset_graphs):
        dict_graph, csr = dataset_graphs
        for entity in range(dict_graph.num_entities):
            assert sorted(csr.outgoing_edges(entity)) == sorted(
                dict_graph.outgoing_edges(entity)
            )

    def test_csr_rows_are_relation_tail_sorted(self, dataset_graphs):
        _, csr = dataset_graphs
        for entity in range(csr.num_entities):
            edges = csr.outgoing_edges(entity)
            assert edges == sorted(edges)

    def test_neighbors_and_degree_match(self, dataset_graphs):
        dict_graph, csr = dataset_graphs
        for entity in range(dict_graph.num_entities):
            assert csr.neighbors(entity) == dict_graph.neighbors(entity)
            assert csr.degree(entity) == dict_graph.degree(entity)

    def test_contains_forward_inverse_and_negatives(self, dataset_graphs):
        dict_graph, csr = dataset_graphs
        for triple in dict_graph.triples():
            assert csr.contains(triple.head, triple.relation, triple.tail)
            inverse = dict_graph.inverse_relation_id(triple.relation)
            assert csr.contains(triple.tail, inverse, triple.head)
        rng = np.random.default_rng(0)
        for _ in range(200):
            h, t = rng.integers(0, dict_graph.num_entities, size=2)
            r = rng.integers(0, dict_graph.num_relations)
            assert csr.contains(int(h), int(r), int(t)) == dict_graph.contains(
                int(h), int(r), int(t)
            )

    def test_tails_for_matches(self, dataset_graphs):
        dict_graph, csr = dataset_graphs
        for triple in dict_graph.triples():
            assert csr.tails_for(triple.head, triple.relation) == dict_graph.tails_for(
                triple.head, triple.relation
            )

    def test_relation_frequencies_match(self, dataset_graphs):
        dict_graph, csr = dataset_graphs
        assert csr.relation_frequencies() == dict_graph.relation_frequencies()

    def test_vocab_and_inverse_ids_shared(self, tiny_graph, csr_tiny):
        assert csr_tiny.entities is tiny_graph.entities
        works = tiny_graph.relation_id("works_for")
        assert csr_tiny.relation_id("works_for") == works
        assert csr_tiny.inverse_relation_id(works) == tiny_graph.inverse_relation_id(works)
        assert csr_tiny.no_op_relation_id == tiny_graph.no_op_relation_id
        no_op = csr_tiny.no_op_relation_id
        assert csr_tiny.inverse_relation_id(no_op) == no_op

    def test_paths_between_match(self, tiny_graph, csr_tiny):
        alice = tiny_graph.entity_id("alice")
        berlin = tiny_graph.entity_id("berlin")
        dict_paths = tiny_graph.paths_between(alice, berlin, max_hops=2, limit=1000)
        csr_paths = csr_tiny.paths_between(alice, berlin, max_hops=2, limit=1000)
        assert sorted(map(tuple, dict_paths)) == sorted(map(tuple, csr_paths))

    def test_subgraph_matches_dict_subgraph(self, tiny_graph, csr_tiny):
        subset = tiny_graph.triples()[:4]
        dict_sub = tiny_graph.subgraph(subset)
        csr_sub = csr_tiny.subgraph(subset)
        assert csr_sub.num_triples == dict_sub.num_triples
        for entity in range(dict_sub.num_entities):
            assert sorted(csr_sub.outgoing_edges(entity)) == sorted(
                dict_sub.outgoing_edges(entity)
            )

    def test_out_of_range_reads_are_safe(self, csr_tiny):
        assert csr_tiny.outgoing_edges(-1) == []
        assert csr_tiny.outgoing_edges(10**6) == []
        assert csr_tiny.neighbors(10**6) == ()
        assert csr_tiny.degree(10**6) == 0
        assert not csr_tiny.contains(10**6, 0, 0)
        assert csr_tiny.tails_for(10**6, 0) == frozenset()
        with pytest.raises(IndexError):
            csr_tiny.outgoing_arrays(10**6)


class TestConstruction:
    def test_from_triple_arrays_dedupes(self):
        entities = Vocabulary(["a", "b", "c"])
        relations = Vocabulary(["NO_OP", "r", "inv::r"])
        csr = CSRKnowledgeGraph.from_triple_arrays(
            np.array([0, 0, 1]),
            np.array([1, 1, 1]),
            np.array([1, 1, 2]),
            entity_vocab=entities,
            relation_vocab=relations,
        )
        assert csr.num_triples == 2

    def test_out_of_range_ids_rejected(self):
        entities = Vocabulary(["a", "b"])
        relations = Vocabulary(["NO_OP", "r", "inv::r"])
        with pytest.raises(IndexError):
            CSRKnowledgeGraph.from_triple_arrays(
                np.array([0]),
                np.array([1]),
                np.array([7]),
                entity_vocab=entities,
                relation_vocab=relations,
            )

    def test_empty_graph(self):
        graph = KnowledgeGraph()
        graph.add_entity("a")
        csr = CSRKnowledgeGraph.from_graph(graph)
        assert csr.num_triples == 0
        assert csr.outgoing_edges(0) == []
        assert csr.triples() == []

    def test_cached_rows_are_copied(self, csr_tiny):
        edges = csr_tiny.outgoing_edges(0)
        edges.append((0, 0))
        assert csr_tiny.outgoing_edges(0) != edges


class TestPersistence:
    def test_save_load_roundtrip(self, tiny_graph, csr_tiny, tmp_path):
        csr_tiny.save(tmp_path / "g")
        loaded = CSRKnowledgeGraph.load(tmp_path / "g")
        assert loaded.num_triples == csr_tiny.num_triples
        assert loaded.num_edges == csr_tiny.num_edges
        for entity in range(loaded.num_entities):
            assert loaded.outgoing_edges(entity) == csr_tiny.outgoing_edges(entity)
        assert loaded.entities.symbols() == tiny_graph.entities.symbols()
        assert loaded.relations.symbols() == tiny_graph.relations.symbols()

    def test_load_memory_maps_by_default(self, csr_tiny, tmp_path):
        csr_tiny.save(tmp_path / "g")
        loaded = CSRKnowledgeGraph.load(tmp_path / "g")
        assert isinstance(loaded._adj_tails, np.memmap)
        eager = CSRKnowledgeGraph.load(tmp_path / "g", mmap=False)
        assert not isinstance(eager._adj_tails, np.memmap)

    def test_range_vocabulary_roundtrip(self, tmp_path):
        relations = Vocabulary(["NO_OP", "r", "inv::r"])
        csr = CSRKnowledgeGraph.from_triple_arrays(
            np.array([0, 1]),
            np.array([1, 1]),
            np.array([1, 2]),
            entity_vocab=RangeVocabulary("e", 5),
            relation_vocab=relations,
        )
        csr.save(tmp_path / "g")
        loaded = CSRKnowledgeGraph.load(tmp_path / "g")
        assert isinstance(loaded.entities, RangeVocabulary)
        assert loaded.entity_id("e3") == 3
        assert not (tmp_path / "g" / "entities.json").exists()

    def test_load_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CSRKnowledgeGraph.load(tmp_path / "nothing")


class TestLoadValidation:
    """A corrupt array file fails at load, naming the file, not at query time."""

    def _corrupt(self, csr, directory, name, change):
        csr.save(directory)
        array = np.load(directory / name)
        change(array)
        np.save(directory / name, array)

    @pytest.mark.parametrize(
        "name, change, message",
        [
            ("indptr.npy", lambda a: a.__setitem__(0, 1), "offsets must run from 0"),
            ("indptr.npy", lambda a: a.__setitem__(-1, a[-1] - 1), "offsets must run from 0"),
            ("indptr.npy", lambda a: a.__setitem__(3, a[4] + 1), "offsets decrease"),
            ("adj_tails.npy", lambda a: a.__setitem__(5, 10_000), "ids outside"),
            ("adj_tails.npy", lambda a: a.__setitem__(0, -1), "ids outside"),
            ("adj_relations.npy", lambda a: a.__setitem__(2, 999), "ids outside"),
            ("adj_relations.npy", lambda a: a.__setitem__(-1, -3), "ids outside"),
        ],
    )
    def test_corrupt_file_raises_naming_it(self, csr_tiny, tmp_path, name, change, message):
        self._corrupt(csr_tiny, tmp_path / "g", name, change)
        for mmap in (True, False):
            with pytest.raises(ValueError, match=message) as raised:
                CSRKnowledgeGraph.load(tmp_path / "g", mmap=mmap)
            assert name in str(raised.value)

    def test_valid_files_load(self, csr_tiny, tmp_path):
        csr_tiny.save(tmp_path / "g")
        loaded = CSRKnowledgeGraph.load(tmp_path / "g")
        assert loaded.num_edges == csr_tiny.num_edges


class TestServingParity:
    """A trained agent must produce identical predictions over both backends."""

    @pytest.fixture(scope="class")
    def trained(self, tiny_dataset, tiny_preset):
        pipeline = MMKGRPipeline(tiny_dataset, preset=tiny_preset, rng=11)
        pipeline.train()
        return pipeline

    def _reasoner(self, trained, tiny_dataset, graph):
        # max_actions=None: prefix truncation depends on backend edge order,
        # so parity requires the full action space.
        environment = MKGEnvironment(
            graph, max_steps=trained.preset.model.max_steps, max_actions=None
        )
        pipeline = MMKGRPipeline.from_components(
            tiny_dataset,
            agent=trained.agent,
            environment=environment,
            features=trained.features,
            preset=trained.preset,
        )
        return Reasoner.from_pipeline(pipeline, beam_width=4)

    def test_environment_action_spaces_match(self, trained, tiny_dataset):
        dict_graph = tiny_dataset.splits.train_graph
        csr = CSRKnowledgeGraph.from_graph(dict_graph)
        env_dict = MKGEnvironment(dict_graph, max_steps=3, max_actions=None)
        env_csr = MKGEnvironment(csr, max_steps=3, max_actions=None)
        for entity in range(dict_graph.num_entities):
            query = Query(entity, 1, NO_ANSWER)
            state_a = env_dict.reset(query)
            state_b = env_csr.reset(query)
            assert sorted(env_dict.available_actions(state_a)) == sorted(
                env_csr.available_actions(state_b)
            )

    def test_beam_search_results_match(self, trained, tiny_dataset):
        dict_graph = tiny_dataset.splits.train_graph
        csr = CSRKnowledgeGraph.from_graph(dict_graph)
        r_dict = self._reasoner(trained, tiny_dataset, dict_graph)
        r_csr = self._reasoner(trained, tiny_dataset, csr)
        queries = [Query(t.head, t.relation, NO_ANSWER) for t in tiny_dataset.splits.test]
        for a, b in zip(r_dict.engine.run(queries), r_csr.engine.run(queries)):
            assert set(a.entity_log_probs) == set(b.entity_log_probs)
            for entity, log_prob in a.entity_log_probs.items():
                assert b.entity_log_probs[entity] == pytest.approx(log_prob, abs=1e-9)

    def test_query_batch_predictions_match(self, trained, tiny_dataset):
        dict_graph = tiny_dataset.splits.train_graph
        csr = CSRKnowledgeGraph.from_graph(dict_graph)
        r_dict = self._reasoner(trained, tiny_dataset, dict_graph)
        r_csr = self._reasoner(trained, tiny_dataset, csr)
        queries = [(t.head, t.relation) for t in tiny_dataset.splits.test[:10]]
        for preds_a, preds_b in zip(
            r_dict.query_batch(queries, k=3), r_csr.query_batch(queries, k=3)
        ):
            assert [p.entity for p in preds_a] == [p.entity for p in preds_b]
            for a, b in zip(preds_a, preds_b):
                assert a.score == pytest.approx(b.score, abs=1e-9)
