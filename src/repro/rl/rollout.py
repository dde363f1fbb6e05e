"""Per-query reference rollouts: stochastic sampling and beam search.

:func:`sample_episode` and :func:`beam_search` walk one query at a time
through the small ``ReasoningAgent`` protocol.  No production path calls
them: training samples through
:class:`~repro.rl.batched_rollout.BatchedRolloutEngine` and evaluation,
serving and explanation search through
:class:`~repro.serve.engine.BatchBeamSearch`.  They are the plain-loop
reference that the parity suites and the speedup benchmarks compare those
engines against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.nn.tensor import Tensor
from repro.rl.environment import EpisodeState, MKGEnvironment, Query
from repro.utils.rng import SeedLike, new_rng


class ReasoningAgent(Protocol):
    """The interface rollouts need from a reasoning model."""

    def begin_episode(self, query: Query) -> None:
        """Reset per-episode state (e.g. the path-history LSTM)."""

    def observe_step(self, relation: int, entity: int) -> None:
        """Fold a traversed edge into the episode state."""

    def action_log_probs(self, state: EpisodeState, actions: Sequence[Tuple[int, int]]) -> Tensor:
        """Differentiable log-probabilities over ``actions``."""

    def action_probabilities(
        self, state: EpisodeState, actions: Sequence[Tuple[int, int]]
    ) -> np.ndarray:
        """Plain probabilities over ``actions`` (no gradient tracking)."""

    def snapshot(self):
        """Opaque copy of the per-episode state (for beam search forking)."""

    def restore(self, snapshot) -> None:
        """Restore a state captured by :meth:`snapshot`."""


@dataclass
class SampledEpisode:
    """Outcome of one stochastic rollout: the final state and each step's
    chosen-action log π (untraced when the batched engine sampled it)."""

    state: EpisodeState
    log_probs: List[Tensor] = field(default_factory=list)

    @property
    def reached_entity(self) -> int:
        return self.state.current_entity

    @property
    def path_length(self) -> int:
        return self.state.hops


def sample_episode(
    agent: ReasoningAgent,
    environment: MKGEnvironment,
    query: Query,
    rng: SeedLike = None,
    greedy: bool = False,
) -> SampledEpisode:
    """Roll out one episode by sampling (or greedily following) the policy."""
    rng = new_rng(rng)
    state = environment.reset(query)
    agent.begin_episode(query)
    episode = SampledEpisode(state=state)
    while not environment.is_terminal(state):
        actions = environment.available_actions(state)
        log_probs = agent.action_log_probs(state, actions)
        probabilities = np.exp(log_probs.data)
        probabilities = probabilities / probabilities.sum()
        if greedy:
            choice = int(np.argmax(probabilities))
        else:
            choice = int(rng.choice(len(actions), p=probabilities))
        episode.log_probs.append(log_probs[choice])
        relation, entity = actions[choice]
        agent.observe_step(relation, entity)
        state = environment.step(state, (relation, entity))
    return episode


@dataclass
class BeamSearchResult:
    """Terminal entities reached by beam search with their path statistics."""

    query: Query
    entity_log_probs: Dict[int, float]
    entity_hops: Dict[int, int]
    paths: Dict[int, List[Tuple[int, int]]]
    num_entities: int = 0

    def ranked_entities(self) -> List[Tuple[int, float]]:
        """Entities sorted by accumulated log-probability (best first).

        Equal scores are broken by ascending entity id, so the ranking (and
        every metric derived from it) is a pure function of the scores —
        independent of dict insertion order, and therefore identical whether
        the beam was produced by the scalar :func:`beam_search` or the
        vectorized :class:`~repro.serve.engine.BatchBeamSearch`.
        """
        return sorted(self.entity_log_probs.items(), key=lambda kv: (-kv[1], kv[0]))

    def rank_of(self, entity: int, filtered_out: Optional[Sequence[int]] = None) -> int:
        """1-based rank of ``entity`` among reached candidates.

        Entities in ``filtered_out`` (other known correct answers) are
        ignored; ties between reached candidates are broken by ascending
        entity id (see :meth:`ranked_entities`).

        **Unreached-rank convention.**  A path-based reasoner assigns no
        score to entities its beam never reached, so when ``entity`` is
        unreached its rank cannot be read off the ranking.  Instead the
        *expected* rank under a uniform shuffle of the unreached pool is
        returned: the candidate sits, on average, in the middle of the
        ``remaining = num_entities - len(candidates) - len(filtered_out)``
        unreached entities, giving ``len(candidates) + max(1, remaining // 2)``
        (floor division; the ``max`` keeps the rank strictly below any
        reached candidate's even on tiny graphs).  This keeps MRR/Hits
        comparable with models that score the full entity set, instead of
        the optimistic ``len(candidates) + 1`` (treating a miss as "next in
        line") or the pessimistic ``num_entities`` (treating it as last).
        """
        excluded = set(filtered_out or ()) - {entity}
        candidates = [(e, s) for e, s in self.ranked_entities() if e not in excluded]
        for position, (candidate, _) in enumerate(candidates, start=1):
            if candidate == entity:
                return position
        remaining = max(0, self.num_entities - len(candidates) - len(excluded))
        return len(candidates) + max(1, remaining // 2)

    def best_entity(self) -> Optional[int]:
        ranked = self.ranked_entities()
        return ranked[0][0] if ranked else None

    def score_of(self, entity: int) -> float:
        """Accumulated log-probability of reaching ``entity`` (-inf if unreached)."""
        return self.entity_log_probs.get(entity, float("-inf"))


def beam_search(
    agent: ReasoningAgent,
    environment: MKGEnvironment,
    query: Query,
    beam_width: int = 32,
) -> BeamSearchResult:
    """Explore the graph with beam search under the agent's policy.

    Each beam entry carries the episode state, the agent's per-branch
    snapshot, and the accumulated log-probability.  At the final step the
    probability mass of branches that end at the same entity is max-pooled,
    which is how MINERVA-style reasoners turn paths into an entity ranking.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")

    agent.begin_episode(query)
    initial_state = environment.reset(query)
    beams: List[Tuple[EpisodeState, object, float]] = [
        (initial_state, agent.snapshot(), 0.0)
    ]

    for _ in range(environment.max_steps):
        # Each candidate expansion is (parent state, parent snapshot, action,
        # new log prob); the (comparatively expensive) history update is only
        # applied to candidates that survive pruning.
        finished: List[Tuple[EpisodeState, object, float]] = []
        candidates: List[Tuple[EpisodeState, object, Tuple[int, int], float]] = []
        for state, snapshot, log_prob in beams:
            if environment.is_terminal(state):
                finished.append((state, snapshot, log_prob))
                continue
            agent.restore(snapshot)
            actions = environment.available_actions(state)
            probabilities = agent.action_probabilities(state, actions)
            # Expand only the locally most probable actions to bound the fanout.
            top = np.argsort(probabilities)[::-1][:beam_width]
            for action_index in top:
                candidates.append(
                    (
                        state,
                        snapshot,
                        actions[action_index],
                        log_prob + float(np.log(probabilities[action_index] + 1e-12)),
                    )
                )
        candidates.sort(key=lambda item: item[3], reverse=True)
        new_beams: List[Tuple[EpisodeState, object, float]] = list(finished)
        for state, snapshot, action, log_prob in candidates[:beam_width]:
            relation, entity = action
            agent.restore(snapshot)
            agent.observe_step(relation, entity)
            branched_state = EpisodeState(
                query=state.query,
                current_entity=state.current_entity,
                step=state.step,
                path=list(state.path),
                stopped=state.stopped,
            )
            branched_state._no_op_ids = state._no_op_ids
            environment.step(branched_state, (relation, entity))
            new_beams.append((branched_state, agent.snapshot(), log_prob))
        new_beams.sort(key=lambda item: item[2], reverse=True)
        beams = new_beams[:beam_width]
        if all(environment.is_terminal(state) for state, _, _ in beams):
            break

    entity_log_probs: Dict[int, float] = {}
    entity_hops: Dict[int, int] = {}
    paths: Dict[int, List[Tuple[int, int]]] = {}
    for state, _, log_prob in beams:
        entity = state.current_entity
        if entity not in entity_log_probs or log_prob > entity_log_probs[entity]:
            entity_log_probs[entity] = log_prob
            entity_hops[entity] = state.hops
            paths[entity] = list(state.path)
    return BeamSearchResult(
        query=query,
        entity_log_probs=entity_log_probs,
        entity_hops=entity_hops,
        paths=paths,
        num_entities=environment.graph.num_entities,
    )
