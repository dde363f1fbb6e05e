"""The Markov decision process over a multi-modal knowledge graph.

Section IV-C of the paper defines the 4-tuple (States, Actions, Transition,
Rewards).  This module implements the first three:

* a **state** ``s_t = (e_t, (e_s, r_q), N_t, E_t)`` — the entity the agent is
  visiting, the query, and the neighbourhood of the current entity;
* the **action space** ``A_t`` — the outgoing edges of ``e_t`` plus an
  explicit STOP (self-loop through the NO_OP relation), which prevents the
  infinite unrolling the paper warns about;
* the deterministic **transition** that follows the chosen edge.

Rewards are computed by ``repro.rl.rewards`` from finished episodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.kg.graph import KnowledgeGraph

ActionBlock = Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class Query:
    """A reasoning task ``(e_s, r_q, ?)`` with the (hidden) gold answer."""

    source: int
    relation: int
    answer: int

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.source, self.relation, self.answer)


@dataclass
class EpisodeState:
    """Mutable state of one reasoning episode."""

    query: Query
    current_entity: int
    step: int = 0
    path: List[Tuple[int, int]] = field(default_factory=list)  # (relation, entity) steps
    stopped: bool = False

    @property
    def hops(self) -> int:
        """Number of real (non-NO_OP) hops taken so far."""
        return len([1 for relation, _ in self.path if relation not in self._no_op_ids])

    # Populated by the environment so ``hops`` can ignore self-loops.
    _no_op_ids: Set[int] = field(default_factory=set, repr=False)

    def visited_entities(self) -> List[int]:
        return [self.query.source] + [entity for _, entity in self.path]

    def relation_path(self) -> List[int]:
        return [relation for relation, _ in self.path]


class MKGEnvironment:
    """Deterministic MDP over the training graph of a multi-modal KG."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        max_steps: int = 4,
        mask_answer_edge: bool = True,
        max_actions: Optional[int] = None,
    ):
        if max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        self.graph = graph
        self.max_steps = max_steps
        self.mask_answer_edge = mask_answer_edge
        self.max_actions = max_actions
        self._no_op = graph.no_op_relation_id
        self._no_op_ids: Set[int] = {self._no_op} if self._no_op is not None else set()

    # ------------------------------------------------------------------ reset
    def reset(self, query: Query) -> EpisodeState:
        """Start a new episode at the query's source entity."""
        if not 0 <= query.source < self.graph.num_entities:
            raise IndexError(f"source entity {query.source} out of range")
        state = EpisodeState(query=query, current_entity=query.source)
        state._no_op_ids = self._no_op_ids
        return state

    # ---------------------------------------------------------------- actions
    def available_actions(self, state: EpisodeState) -> List[Tuple[int, int]]:
        """The action space ``A_t``: outgoing edges plus STOP (NO_OP self-loop).

        During training on a query ``(e_s, r_q, e_d)`` the direct edge
        ``(e_s, r_q, e_d)`` is masked at the first step (when present) so the
        agent cannot trivially read off the answer it is supposed to infer —
        the standard MINERVA-style protocol.
        """
        actions = self.graph.outgoing_edges(state.current_entity)
        if self.mask_answer_edge and state.step == 0:
            query = state.query
            actions = [
                (relation, entity)
                for relation, entity in actions
                if not (relation == query.relation and entity == query.answer)
            ]
        if self.max_actions is not None and len(actions) > self.max_actions:
            # Keep a deterministic prefix: each backend returns edges in a
            # stable order (insertion order for the dict graph, sorted by
            # (relation, tail) for CSR), so truncation is stable across runs.
            actions = actions[: self.max_actions]
        no_op = self.graph.no_op_relation_id
        if no_op is not None:
            actions = actions + [(no_op, state.current_entity)]
        return actions

    def action_block(
        self,
        entities: np.ndarray,
        step: int,
        query_relations: np.ndarray,
        query_answers: np.ndarray,
        query_sources: Optional[np.ndarray] = None,
    ) -> ActionBlock:
        """The action spaces of many states at one ``step``, as padded id arrays.

        Row ``i`` is :meth:`available_actions` of a state at ``entities[i]``
        answering ``(query_sources[i], query_relations[i], query_answers[i])``
        (answer ``-1``: none).  Returns ``(relation_ids, tail_ids, mask)``, each
        ``(B, n)``: a row's actions are left-aligned in order and ``mask``
        marks them; padding ids are 0.  The sources are only read by
        subclasses whose action space depends on them.  At most
        ``max_actions + 1`` edges of a row are read, so a hub costs what a
        leaf costs.

        >>> from repro.kg.graph import KnowledgeGraph
        >>> graph = KnowledgeGraph()
        >>> _ = graph.add_triple_by_name("alice", "knows", "bob")
        >>> _ = graph.add_triple_by_name("alice", "likes", "carol")
        >>> env = MKGEnvironment(graph, max_actions=1)
        >>> knows, bob = graph.relation_id("knows"), graph.entity_id("bob")
        >>> relations, tails, mask = env.action_block(
        ...     np.array([0, 0]), 0, np.array([knows, knows]), np.array([-1, bob]))
        >>> relations.tolist()  # row 1 masks its answer edge (knows, bob)
        [[1, 0], [3, 0]]
        >>> tails.tolist(), mask.tolist()
        ([[1, 0], [2, 0]], [[True, True], [True, True]])
        """
        indptr, relations, tails = self.graph.adjacency_arrays()
        entities = np.asarray(entities, dtype=np.intp)
        starts = indptr[entities]
        counts = indptr[entities + 1] - starts
        limit = self.max_actions
        masking = (
            self.mask_answer_edge and step == 0 and bool((query_answers >= 0).any())
        )
        if limit is not None:
            # One edge past the prefix: it moves up when the answer edge drops out.
            counts = np.minimum(counts, limit + masking)
        no_op = self._no_op
        relation_ids, tail_ids, mask = _rows(
            relations, tails, starts, counts, no_op is not None and not masking
        )
        if masking:
            mask &= (relation_ids != query_relations[:, None]) | (
                tail_ids != query_answers[:, None]
            )
            counts = mask.sum(axis=1)
            if limit is not None:
                counts = np.minimum(counts, limit)
                mask &= np.cumsum(mask, axis=1) <= counts[:, None]
            relation_ids, tail_ids, mask = pack_actions(
                counts, relation_ids[mask], tail_ids[mask], no_op is not None
            )
        if no_op is not None:
            stop = np.arange(mask.shape[1]) == counts[:, None]
            relation_ids[stop] = no_op
            tail_ids[stop] = entities
            mask |= stop
        return relation_ids, tail_ids, mask

    # ------------------------------------------------------------------- step
    def step(self, state: EpisodeState, action: Tuple[int, int]) -> EpisodeState:
        """Apply ``action`` (a ``(relation, entity)`` pair) and return the state."""
        if state.stopped:
            raise RuntimeError("cannot step a finished episode")
        relation, entity = action
        state.path.append((relation, entity))
        state.current_entity = entity
        state.step += 1
        if state.step >= self.max_steps:
            state.stopped = True
        return state

    def is_terminal(self, state: EpisodeState) -> bool:
        return state.stopped or state.step >= self.max_steps

    # -------------------------------------------------------------- inspection
    def reached_answer(self, state: EpisodeState) -> bool:
        return state.current_entity == state.query.answer

    @property
    def no_op_relation_ids(self) -> Set[int]:
        return set(self._no_op_ids)


def _width(counts: np.ndarray, spare_column: bool) -> int:
    return (int(counts.max()) if len(counts) else 0) + spare_column


def _rows(
    relations: np.ndarray,
    tails: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    spare_column: bool,
) -> ActionBlock:
    """The first ``counts[i]`` edges from ``starts[i]``, left-aligned, zero-padded."""
    columns = np.arange(_width(counts, spare_column))
    mask = columns < counts[:, None]
    if not len(relations):  # no edge at all: every row is padding
        return np.zeros(mask.shape, dtype=np.intp), np.zeros(mask.shape, dtype=np.intp), mask
    edges = starts[:, None] + columns  # clipped reads past the end are masked out
    return (
        np.where(mask, relations.take(edges, mode="clip"), 0),
        np.where(mask, tails.take(edges, mode="clip"), 0),
        mask,
    )


def pack_actions(
    counts: np.ndarray, relations: np.ndarray, tails: np.ndarray, spare_column: bool = False
) -> ActionBlock:
    """Lay ``counts[i]`` flat ``(relation, tail)`` ids per row out as an action block."""
    mask = np.arange(_width(counts, spare_column)) < counts[:, None]
    relation_ids = np.zeros(mask.shape, dtype=np.intp)
    tail_ids = np.zeros(mask.shape, dtype=np.intp)
    relation_ids[mask] = relations
    tail_ids[mask] = tails
    return relation_ids, tail_ids, mask
