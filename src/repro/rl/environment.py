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

from repro.kg.graph import KnowledgeGraph


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
        no_op = graph.no_op_relation_id
        self._no_op_ids: Set[int] = {no_op} if no_op is not None else set()

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
