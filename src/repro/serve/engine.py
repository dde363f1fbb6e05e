"""Vectorized lockstep beam search across many queries.

:class:`BatchBeamSearch` is the only beam search evaluation, serving and
explanation run.  It advances *all* queries of a batch depth-by-depth and
calls the agent's own modules on ``(B, ...)`` ndarrays, which run their
single forward as untraced NumPy:

* the fuser produces every branch's complementary features in one call,
  whichever fusion variant the agent uses;
* the policy head projects them in one matrix product
  (:meth:`repro.rl.policy.PolicyNetwork.project`), leaving only a
  per-branch dot with the (cached) action matrix;
* the path-history ``LSTMCell`` folds all surviving expansions in one call.

Agent classes with a ``log_prob_correction`` (the hierarchical RLH agent)
get it applied once per depth over the padded ``(branches, actions)``
probability matrix; plain MMKGR agents pay nothing for it.  The engine never
mutates agent state, so engines on different serving workers can share one
agent without locking.

:class:`repro.rl.batched_rollout.BatchedRolloutEngine` calls the same
modules with a Tensor history on the training side, and
:func:`repro.rl.rollout.beam_search` is the per-query reference the parity
suites compare this engine against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import MMKGRAgent
from repro.nn.functional import softmax as stable_softmax
from repro.nn.tensor import log_softmax_array
from repro.rl.environment import EpisodeState, MKGEnvironment, Query
from repro.rl.policy import padded_relation_ids, stack_action_embeddings
from repro.rl.rollout import BeamSearchResult
from repro.serve.cache import ActionSpaceCache

_LOG_EPS = 1e-12


def _require_mmkgr_agent(agent) -> None:
    if not isinstance(agent, MMKGRAgent):
        raise TypeError(f"beam search needs an MMKGRAgent, got {type(agent).__name__}")


@dataclass
class _Branch:
    """One beam entry: graph position plus the branch's LSTM history state."""

    entity: int
    step: int
    log_prob: float
    path: Tuple[Tuple[int, int], ...]
    hidden: np.ndarray  # (1, history_dim)
    cell: np.ndarray  # (1, history_dim)
    dead: bool = False  # no outgoing actions; excluded from expansion


class BatchBeamSearch:
    """Lockstep beam search over a batch of queries against one trained agent."""

    def __init__(
        self,
        agent: MMKGRAgent,
        environment: MKGEnvironment,
        cache: Optional[ActionSpaceCache] = None,
        beam_width: int = 8,
    ):
        if beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        _require_mmkgr_agent(agent)
        self.agent = agent
        self.environment = environment
        self.beam_width = beam_width
        self.cache = cache or self.build_cache(agent, environment)
        self._lstm = agent.history_encoder.cell
        self._correction = agent.log_prob_correction

    @staticmethod
    def build_cache(
        agent: MMKGRAgent, environment: MKGEnvironment, maxsize: int = 4096
    ) -> ActionSpaceCache:
        """The action-space cache an engine over ``agent`` would use.

        The single place that knows which embeddings back the cached
        ``[relation ; entity]`` action matrices; evaluation and the serving
        reasoner build shared caches through it.
        """
        _require_mmkgr_agent(agent)
        features = agent.features
        return ActionSpaceCache(
            environment,
            features.relation_embeddings,
            features.entity_embeddings,
            maxsize=maxsize,
        )

    # ---------------------------------------------------------------- helpers
    def _state_for(self, query: Query, branch: _Branch) -> EpisodeState:
        state = EpisodeState(
            query=query,
            current_entity=branch.entity,
            step=branch.step,
            path=list(branch.path),
        )
        state._no_op_ids = self.environment.no_op_relation_ids
        return state

    def _initial_branches(self, queries: Sequence[Query]) -> List[List[_Branch]]:
        """Seed one branch per query; histories start with one batched LSTM step."""
        features = self.agent.features
        dim = features.structural_dim
        batch = len(queries)
        sources = np.fromiter((q.source for q in queries), dtype=np.intp, count=batch)
        inputs = np.concatenate(
            [np.zeros((batch, dim)), features.entity_embeddings[sources]], axis=1
        )
        hidden = np.zeros((batch, self._lstm.hidden_size))
        cell = np.zeros((batch, self._lstm.hidden_size))
        hidden, cell = self._lstm(inputs, (hidden, cell))
        return [
            [
                _Branch(
                    entity=query.source,
                    step=0,
                    log_prob=0.0,
                    path=(),
                    hidden=hidden[i : i + 1],
                    cell=cell[i : i + 1],
                )
            ]
            for i, query in enumerate(queries)
        ]

    def _probabilities(
        self,
        entries: List[Tuple[int, _Branch, List[Tuple[int, int]], np.ndarray]],
        queries: Sequence[Query],
    ) -> List[np.ndarray]:
        """Action probabilities for every (query, branch) entry."""
        agent = self.agent
        batch = len(entries)
        sources = np.fromiter(
            (queries[qi].source for qi, *_ in entries), dtype=np.intp, count=batch
        )
        currents = np.fromiter(
            (branch.entity for _, branch, *_ in entries), dtype=np.intp, count=batch
        )
        relations = np.fromiter(
            (queries[qi].relation for qi, *_ in entries), dtype=np.intp, count=batch
        )
        history = np.concatenate([branch.hidden for _, branch, *_ in entries], axis=0)
        fused = agent.fuser(agent.fusion_inputs(sources, currents, relations, history))
        projected = agent.policy.project(fused)
        if self._correction is None:
            return [
                stable_softmax(matrix @ projected[i])
                for i, (_, _, _, matrix) in enumerate(entries)
            ]
        return self._corrected_probabilities(entries, projected)

    def _corrected_probabilities(self, entries, projected) -> List[np.ndarray]:
        """Probabilities under the agent's log-prob correction, one padded batch."""
        action_lists = [actions for _, _, actions, _ in entries]
        counts = np.fromiter(map(len, action_lists), dtype=np.intp, count=len(entries))
        mask = np.arange(counts.max()) < counts[:, None]
        scores = np.full(mask.shape, -np.inf)
        scores[mask] = np.concatenate(
            [matrix @ projected[i] for i, (_, _, _, matrix) in enumerate(entries)]
        )
        log_probs = log_softmax_array(scores)
        log_probs = log_probs + self._correction(
            np.exp(log_probs), padded_relation_ids(action_lists, mask), mask
        )
        probabilities = np.exp(log_probs)
        return [probabilities[i, :count] for i, count in enumerate(counts)]

    # -------------------------------------------------------------------- run
    def run(self, queries: Sequence[Query]) -> List[BeamSearchResult]:
        """Beam-search every query in lockstep; one result per query."""
        queries = list(queries)
        if not queries:
            return []
        beams = self._initial_branches(queries)
        max_steps = self.environment.max_steps

        for _ in range(max_steps):
            entries: List[Tuple[int, _Branch, List[Tuple[int, int]], np.ndarray]] = []
            for qi, branches in enumerate(beams):
                for branch in branches:
                    if branch.step >= max_steps or branch.dead:
                        continue
                    state = self._state_for(queries[qi], branch)
                    actions = self.cache.actions(state)
                    if not actions:
                        branch.dead = True
                        continue
                    matrix = self.cache.action_matrix(state, actions)
                    entries.append((qi, branch, actions, matrix))
            if not entries:
                break

            probabilities = self._probabilities(entries, queries)

            # Per-query candidate pools, mirroring the sequential beam_search:
            # expand the locally best actions, then keep the globally best
            # `beam_width` expansions next to already-finished branches.
            candidates: Dict[int, List[Tuple[_Branch, Tuple[int, int], float]]] = {
                qi: [] for qi in range(len(queries))
            }
            for (qi, branch, actions, _), probs in zip(entries, probabilities):
                top = np.argsort(probs)[::-1][: self.beam_width]
                for index in top:
                    candidates[qi].append(
                        (
                            branch,
                            actions[index],
                            branch.log_prob + float(np.log(probs[index] + _LOG_EPS)),
                        )
                    )

            expansions: List[Tuple[int, _Branch, Tuple[int, int], float]] = []
            survivors: List[List[_Branch]] = []
            for qi, branches in enumerate(beams):
                finished = [
                    b for b in branches if b.step >= max_steps or b.dead
                ]
                pool = sorted(candidates[qi], key=lambda item: item[2], reverse=True)
                kept = pool[: self.beam_width]
                for parent, action, log_prob in kept:
                    expansions.append((qi, parent, action, log_prob))
                survivors.append(finished)

            if expansions:
                features = self.agent.features
                inputs = stack_action_embeddings(
                    [action for _, _, action, _ in expansions],
                    features.relation_embeddings,
                    features.entity_embeddings,
                )
                hidden = np.concatenate(
                    [parent.hidden for _, parent, _, _ in expansions], axis=0
                )
                cell = np.concatenate(
                    [parent.cell for _, parent, _, _ in expansions], axis=0
                )
                hidden, cell = self._lstm(inputs, (hidden, cell))
                for i, (qi, parent, action, log_prob) in enumerate(expansions):
                    survivors[qi].append(
                        _Branch(
                            entity=action[1],
                            step=parent.step + 1,
                            log_prob=log_prob,
                            path=parent.path + (action,),
                            hidden=hidden[i : i + 1],
                            cell=cell[i : i + 1],
                        )
                    )

            beams = [
                sorted(branches, key=lambda b: b.log_prob, reverse=True)[
                    : self.beam_width
                ]
                for branches in survivors
            ]

        no_op_ids = self.environment.no_op_relation_ids
        results = []
        for qi, branches in enumerate(beams):
            entity_log_probs: Dict[int, float] = {}
            entity_hops: Dict[int, int] = {}
            paths: Dict[int, List[Tuple[int, int]]] = {}
            for branch in branches:
                entity = branch.entity
                if (
                    entity not in entity_log_probs
                    or branch.log_prob > entity_log_probs[entity]
                ):
                    entity_log_probs[entity] = branch.log_prob
                    entity_hops[entity] = sum(
                        1 for relation, _ in branch.path if relation not in no_op_ids
                    )
                    paths[entity] = list(branch.path)
            results.append(
                BeamSearchResult(
                    query=queries[qi],
                    entity_log_probs=entity_log_probs,
                    entity_hops=entity_hops,
                    paths=paths,
                    num_entities=self.environment.graph.num_entities,
                )
            )
        return results
