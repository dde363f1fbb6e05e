"""The structural knowledge graph: triples, adjacency, and inverse edges.

Following the problem definition in Section III of the paper, a knowledge
graph ``G = {E, R, U}`` is a directed heterogeneous graph whose edge set
``U`` holds relation triplets ``(source entity, relation, target entity)``.
RL-based multi-hop reasoning additionally needs, for every visited entity,
the set of outgoing edges (the action space ``A_t``); this module maintains
that adjacency structure, including inverse edges so the agent can traverse
relations in both directions, plus a self-loop ``NO_OP`` relation so the agent
can stay in place once it has reached an answer before the maximum step.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.kg.vocab import Vocabulary

INVERSE_PREFIX = "inv::"
NO_OP_RELATION = "NO_OP"


def inverse_relation_name(relation: str) -> str:
    """Name of the inverse of ``relation`` (involutive)."""
    if relation.startswith(INVERSE_PREFIX):
        return relation[len(INVERSE_PREFIX):]
    return f"{INVERSE_PREFIX}{relation}"


def is_inverse_relation(relation: str) -> bool:
    return relation.startswith(INVERSE_PREFIX)


@dataclass(frozen=True)
class Triple:
    """A single ``(head, relation, tail)`` fact expressed with integer ids."""

    head: int
    relation: int
    tail: int

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.head, self.relation, self.tail)

    def inverse(self, graph: "KnowledgeGraph") -> "Triple":
        """The same fact traversed backwards, using the graph's inverse relation id."""
        return Triple(self.tail, graph.inverse_relation_id(self.relation), self.head)


class KnowledgeGraph:
    """Structural knowledge graph with id vocabularies and adjacency indexes.

    The default, fully mutable backend: adjacency lives in Python dicts and
    lists, which is convenient for incremental construction and small
    datasets.  For large (10^5-10^6 entity) graphs, build once and convert to
    the compact read-only :class:`repro.kg.csr.CSRKnowledgeGraph`, which
    serves the same read interface from memory-mappable int32 arrays.

    >>> graph = KnowledgeGraph()
    >>> _ = graph.add_triple_by_name("alice", "knows", "bob")
    >>> _ = graph.add_triple_by_name("alice", "knows", "carol")
    >>> graph.num_entities, graph.num_triples
    (3, 2)
    >>> graph.contains(graph.entity_id("alice"), graph.relation_id("knows"),
    ...                graph.entity_id("bob"))
    True
    >>> graph.neighbors(graph.entity_id("alice"))  # sorted, deterministic
    (1, 2)
    """

    # CSR snapshot of ``_outgoing`` for :meth:`adjacency_arrays`; a class
    # default so graphs unpickled from older saves have it too.
    _adjacency: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def __init__(
        self,
        entity_vocab: Optional[Vocabulary] = None,
        relation_vocab: Optional[Vocabulary] = None,
        add_inverse: bool = True,
        add_no_op: bool = True,
    ):
        self.entities = entity_vocab or Vocabulary()
        self.relations = relation_vocab or Vocabulary()
        self.add_inverse = add_inverse
        self.add_no_op = add_no_op
        self._triples: List[Triple] = []
        self._triple_set: Set[Tuple[int, int, int]] = set()
        # entity -> list of (relation, neighbour) pairs, i.e. the action space.
        self._outgoing: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        # (head, relation) -> set of tails, for filtered evaluation.
        self._tails_by_query: Dict[Tuple[int, int], Set[int]] = defaultdict(set)
        if add_no_op:
            self.relations.add(NO_OP_RELATION)

    # ----------------------------------------------------------------- build
    def add_entity(self, name: str) -> int:
        return self.entities.add(name)

    def add_relation(self, name: str) -> int:
        """Register a relation (and its inverse when ``add_inverse`` is set)."""
        relation_id = self.relations.add(name)
        if self.add_inverse and not is_inverse_relation(name):
            self.relations.add(inverse_relation_name(name))
        return relation_id

    def add_triple_by_name(self, head: str, relation: str, tail: str) -> Triple:
        """Add a fact given symbol names; creates vocabulary entries as needed."""
        head_id = self.add_entity(head)
        relation_id = self.add_relation(relation)
        tail_id = self.add_entity(tail)
        return self.add_triple(Triple(head_id, relation_id, tail_id))

    def add_triple(self, triple: Triple) -> Triple:
        """Add a fact by ids; silently ignores exact duplicates."""
        self._validate_triple(triple)
        key = triple.as_tuple()
        if key in self._triple_set:
            return triple
        self._triple_set.add(key)
        self._triples.append(triple)
        self._adjacency = None
        self._outgoing[triple.head].append((triple.relation, triple.tail))
        self._tails_by_query[(triple.head, triple.relation)].add(triple.tail)
        if self.add_inverse:
            inv_rel = self.inverse_relation_id(triple.relation)
            inv_key = (triple.tail, inv_rel, triple.head)
            if inv_key not in self._triple_set:
                self._triple_set.add(inv_key)
                self._outgoing[triple.tail].append((inv_rel, triple.head))
                self._tails_by_query[(triple.tail, inv_rel)].add(triple.head)
        return triple

    def add_triples(self, triples: Iterable[Triple]) -> None:
        for triple in triples:
            self.add_triple(triple)

    def _validate_triple(self, triple: Triple) -> None:
        if not 0 <= triple.head < len(self.entities):
            raise IndexError(f"head entity id {triple.head} out of range")
        if not 0 <= triple.tail < len(self.entities):
            raise IndexError(f"tail entity id {triple.tail} out of range")
        if not 0 <= triple.relation < len(self.relations):
            raise IndexError(f"relation id {triple.relation} out of range")

    # ----------------------------------------------------------------- sizes
    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    @property
    def num_triples(self) -> int:
        """Number of forward facts (inverse copies are not counted)."""
        return len(self._triples)

    def __len__(self) -> int:
        return self.num_triples

    # ----------------------------------------------------------------- access
    def triples(self) -> List[Triple]:
        """All forward triples (copy of the list, not of the triples)."""
        return list(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def contains(self, head: int, relation: int, tail: int) -> bool:
        return (head, relation, tail) in self._triple_set

    def outgoing_edges(self, entity: int) -> List[Tuple[int, int]]:
        """Outgoing ``(relation, neighbour)`` pairs: the RL action space at ``entity``."""
        return list(self._outgoing.get(entity, []))

    def adjacency_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, relations, tails)``: every row of :meth:`outgoing_edges` as CSR.

        Row ``e`` is ``relations[indptr[e]:indptr[e + 1]]`` (and the same slice
        of ``tails``), in :meth:`outgoing_edges` order.  The snapshot is built
        on first use and dropped by :meth:`add_triple`.
        """
        snapshot = self._adjacency
        if snapshot is None or len(snapshot[0]) != self.num_entities + 1:
            rows = [self._outgoing.get(entity, ()) for entity in range(self.num_entities)]
            indptr = np.zeros(len(rows) + 1, dtype=np.int64)
            np.cumsum([len(row) for row in rows], out=indptr[1:])
            edges = np.array(
                [edge for row in rows for edge in row], dtype=np.intp
            ).reshape(-1, 2)
            snapshot = (indptr, edges[:, 0].copy(), edges[:, 1].copy())
            self._adjacency = snapshot
        return snapshot

    def neighbors(self, entity: int) -> Tuple[int, ...]:
        """The neighbour entities ``N_t`` used in the MDP state (Section IV-C).

        Returned as an id-sorted tuple of distinct neighbours: a set here
        would make downstream iteration order depend on hash randomization,
        and consumers (entity descriptions, state featurization) iterate it.
        """
        return tuple(sorted({tail for _, tail in self._outgoing.get(entity, [])}))

    def degree(self, entity: int) -> int:
        return len(self._outgoing.get(entity, []))

    def tails_for(self, head: int, relation: int) -> FrozenSet[int]:
        """All known answer tails for ``(head, relation)`` — used for filtering."""
        return frozenset(self._tails_by_query.get((head, relation), frozenset()))

    def relation_id(self, name: str) -> int:
        return self.relations.index(name)

    def entity_id(self, name: str) -> int:
        return self.entities.index(name)

    def inverse_relation_id(self, relation_id: int) -> int:
        """Id of the inverse relation; the inverse of NO_OP is NO_OP itself."""
        name = self.relations.symbol(relation_id)
        if name == NO_OP_RELATION:
            return relation_id
        return self.relations.index(inverse_relation_name(name))

    @property
    def no_op_relation_id(self) -> Optional[int]:
        if not self.add_no_op:
            return None
        return self.relations.index(NO_OP_RELATION)

    # ------------------------------------------------------------- utilities
    def relation_frequencies(self) -> Dict[int, int]:
        """Number of forward triples per relation id."""
        counts: Dict[int, int] = defaultdict(int)
        for triple in self._triples:
            counts[triple.relation] += 1
        return dict(counts)

    def subgraph(self, triples: Sequence[Triple]) -> "KnowledgeGraph":
        """A new graph over the same vocabularies containing only ``triples``.

        Used to build the *training* graph the agent is allowed to walk while
        valid/test triples stay held out.
        """
        graph = KnowledgeGraph(
            entity_vocab=self.entities,
            relation_vocab=self.relations,
            add_inverse=self.add_inverse,
            add_no_op=self.add_no_op,
        )
        graph.add_triples(triples)
        return graph

    def paths_between(
        self, source: int, target: int, max_hops: int, limit: int = 100
    ) -> List[List[Tuple[int, int]]]:
        """Enumerate up to ``limit`` relation paths from ``source`` to ``target``.

        Each path is a list of ``(relation, entity)`` steps.  This is an
        analysis utility (used to report hop distributions and to sanity-check
        that the synthetic datasets contain compositional paths), not part of
        the reasoning algorithm itself.
        """
        return enumerate_paths(self, source, target, max_hops, limit)


def enumerate_paths(
    graph, source: int, target: int, max_hops: int, limit: int = 100
) -> List[List[Tuple[int, int]]]:
    """Breadth-first path enumeration over any graph backend.

    Works against the read interface (``outgoing_edges``) only, so the dict
    and CSR backends share one implementation.
    """
    if max_hops < 1:
        raise ValueError(f"max_hops must be >= 1, got {max_hops}")
    results: List[List[Tuple[int, int]]] = []
    frontier: List[Tuple[int, List[Tuple[int, int]]]] = [(source, [])]
    for _ in range(max_hops):
        next_frontier: List[Tuple[int, List[Tuple[int, int]]]] = []
        for entity, path in frontier:
            for relation, neighbour in graph.outgoing_edges(entity):
                new_path = path + [(relation, neighbour)]
                if neighbour == target:
                    results.append(new_path)
                    if len(results) >= limit:
                        return results
                next_frontier.append((neighbour, new_path))
        frontier = next_frontier
        if not frontier:
            break
    return results
