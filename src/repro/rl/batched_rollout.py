"""REINFORCE rollouts and teacher forcing: a mini-batch of episodes in lockstep.

:class:`BatchedRolloutEngine` is the only episode sampler training uses.  It
advances *all* queries of a training mini-batch depth-by-depth:

* one call of the agent's fuser per step with the live ``(B, hidden)``
  history Tensor, so the fuser traces its forward and gradients flow into
  the fuser weights and through the history into the LSTM;
* one masked policy evaluation per step over padded per-query action spaces
  (:class:`repro.rl.policy.PolicyNetwork` with
  :func:`repro.rl.policy.pad_action_matrices`), followed by the agent
  class's ``log_prob_correction`` when it has one (RLH's relation level),
  then one gather of the chosen (or gold) actions' log-probs for the loss;
* one batched ``LSTMCell`` call per step folding every query's chosen edge
  into its path history.

These are the same modules, with the same single forward, that the serving
engine runs on ndarrays and that the per-query reference
:func:`repro.rl.rollout.sample_episode` runs as a batch of one.

Per-query termination is honoured: finished episodes drop out of the batch
while the rest keep walking, so environments that stop early stay supported.

RNG contract
------------
Each episode draws from its **own** child generator, spawned in episode order
from one parent stream (:func:`repro.utils.rng.spawn_rngs`).  Lockstep
execution interleaves draws *across* episodes (step-major) while the
reference loop drains each episode in turn (episode-major); with a single
shared stream the two orders would consume different numbers and silently
diverge.  Spawned child streams make the draw order irrelevant: the
reference loop and the batched engine produce identical episodes from the
same parent seed, which is exactly what ``tests/rl/test_batched_rollout.py``
asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.tensor import Tensor
from repro.rl.environment import MKGEnvironment, Query
from repro.rl.policy import (
    pad_action_matrices,
    padded_relation_ids,
    stack_action_embeddings,
)
from repro.rl.rollout import SampledEpisode
from repro.utils.rng import SeedLike, spawn_rngs


@dataclass
class Rollout:
    """A lockstep batch of sampled episodes and its traced log-probabilities.

    ``steps[t]`` is ``(rows, log_probs)``: the indices of the episodes still
    walking at depth ``t`` and their chosen actions' log π, gathered from that
    depth's policy output as one Tensor.  Each episode's ``log_probs`` holds
    the same values untraced.
    """

    episodes: List[SampledEpisode]
    steps: List[Tuple[np.ndarray, Tensor]]


class BatchedRolloutEngine:
    """Samples REINFORCE episodes for a batch of queries in lockstep."""

    def __init__(self, agent, environment: MKGEnvironment):
        # Imported here: repro.core.model pulls in repro.core.config, which
        # imports back into repro.rl during package initialisation.
        from repro.core.model import MMKGRAgent

        if not isinstance(agent, MMKGRAgent):
            raise TypeError(
                f"batched rollouts need an MMKGRAgent, got {type(agent).__name__}"
            )
        self.agent = agent
        self.environment = environment

    # ---------------------------------------------------------------- helpers
    def _start(self, queries: List[Query]):
        """Reset every episode and run the batched begin_episode(): fold the
        (zero relation, source entity) seed step through the agent's own LSTM
        cell so the episode graph starts at the trainable parameters."""
        features = self.agent.features
        cell_module = self.agent.history_encoder.cell
        batch = len(queries)
        states = [self.environment.reset(query) for query in queries]
        sources = np.fromiter((q.source for q in queries), dtype=np.intp, count=batch)
        relations = np.fromiter((q.relation for q in queries), dtype=np.intp, count=batch)
        seed_inputs = np.concatenate(
            [np.zeros((batch, features.structural_dim)), features.entity_embeddings[sources]],
            axis=1,
        )
        return states, sources, relations, cell_module(seed_inputs, cell_module.init_state(batch))

    def _step_log_probs(self, states, sources, relations, rows, action_lists, hidden):
        """Masked log π over each active row's action space, shape (rows, n_max)."""
        agent = self.agent
        active = np.asarray(rows, dtype=np.intp)
        padded, mask = pad_action_matrices(
            action_lists, agent.features.relation_embeddings, agent.features.entity_embeddings
        )
        currents = np.fromiter(
            (states[i].current_entity for i in rows), dtype=np.intp, count=len(rows)
        )
        fused = agent.fuser(
            agent.fusion_inputs(sources[active], currents, relations[active], hidden)
        )
        log_probs = agent.policy(fused, padded, mask)
        if agent.log_prob_correction is None:
            return log_probs
        corrections = agent.log_prob_correction(
            np.exp(log_probs.data), padded_relation_ids(action_lists, mask), mask
        )
        return log_probs + Tensor(corrections)

    def _advance(self, states, rows, action_lists, choices, hidden, cell):
        """Batched observe_step() and environment step for each row's choice."""
        features = self.agent.features
        chosen = [actions[choice] for actions, choice in zip(action_lists, choices)]
        step_inputs = stack_action_embeddings(
            chosen, features.relation_embeddings, features.entity_embeddings
        )
        for i, action in zip(rows, chosen):
            self.environment.step(states[i], action)
        return self.agent.history_encoder.cell(step_inputs, (hidden, cell))

    # -------------------------------------------------------------------- run
    def sample_episodes(
        self,
        queries: Sequence[Query],
        rngs: Optional[Sequence[np.random.Generator]] = None,
        rng: SeedLike = None,
        greedy: bool = False,
    ) -> Rollout:
        """Roll out one episode per query, all queries advanced in lockstep.

        ``rngs`` supplies one child generator per episode (the trainer spawns
        them from its own generator); when omitted they are spawned here from
        ``rng``.  Episode ``i`` is sampled exactly as
        ``sample_episode(agent, environment, queries[i], rng=rngs[i])`` would
        sample it.
        """
        queries = list(queries)
        if not queries:
            return Rollout([], [])
        if rngs is None:
            rngs = spawn_rngs(rng, len(queries))
        elif len(rngs) != len(queries):
            raise ValueError(f"expected {len(queries)} rngs, got {len(rngs)}")

        environment = self.environment
        states, sources, relations, (hidden, cell) = self._start(queries)
        episodes = [SampledEpisode(state=state) for state in states]
        steps: List[Tuple[np.ndarray, Tensor]] = []

        # `rows[r]` maps the r-th row of the live hidden/cell batch to its
        # episode index; finished episodes are dropped from the batch.
        rows = list(range(len(queries)))
        while True:
            keep = [r for r, i in enumerate(rows) if not environment.is_terminal(states[i])]
            if not keep:
                break
            if len(keep) != len(rows):
                index = np.asarray(keep, dtype=np.intp)
                hidden, cell = hidden[index], cell[index]
                rows = [rows[r] for r in keep]

            action_lists = [environment.available_actions(states[i]) for i in rows]
            log_probs = self._step_log_probs(
                states, sources, relations, rows, action_lists, hidden
            )
            choices = np.empty(len(rows), dtype=np.intp)
            for row, i in enumerate(rows):
                count = len(action_lists[row])
                probabilities = np.exp(log_probs.data[row, :count])
                probabilities = probabilities / probabilities.sum()
                if greedy:
                    choices[row] = np.argmax(probabilities)
                else:
                    choices[row] = rngs[i].choice(count, p=probabilities)
            chosen = log_probs[np.arange(len(rows)), choices]
            steps.append((np.asarray(rows, dtype=np.intp), chosen))
            for i, value in zip(rows, chosen.data):
                episodes[i].log_probs.append(Tensor(value))
            hidden, cell = self._advance(states, rows, action_lists, choices, hidden, cell)
        return Rollout(episodes, steps)

    def teacher_force(self, demonstrations: Sequence) -> List[Tensor]:
        """Gold-action log-probs for teacher-forced demonstration paths.

        ``demonstrations`` is a sequence of ``(query, path)`` pairs where
        ``path`` is the (already padded) list of gold ``(relation, entity)``
        actions.  Returns one Tensor per depth: the gold log-probs of the
        demonstrations still walking, gathered from that depth's policy
        output.  A demonstration stops contributing as soon as its gold
        action is absent from the action space (a pruned edge), its path is
        exhausted, or its episode is terminal.
        """
        demonstrations = list(demonstrations)
        if not demonstrations:
            return []
        environment = self.environment
        paths = [list(path) for _, path in demonstrations]
        states, sources, relations, (hidden, cell) = self._start(
            [query for query, _ in demonstrations]
        )
        gathered: List[Tensor] = []

        # Live demonstrations take one step per depth: `step` indexes the gold path.
        rows = list(range(len(demonstrations)))
        while True:
            keep, action_lists, gold_indices = [], [], []
            for r, i in enumerate(rows):
                step = states[i].step
                if environment.is_terminal(states[i]) or step >= len(paths[i]):
                    continue
                actions = environment.available_actions(states[i])
                try:
                    gold_index = actions.index(paths[i][step])
                except ValueError:
                    continue  # the demonstration stepped through a pruned edge
                keep.append(r)
                action_lists.append(actions)
                gold_indices.append(gold_index)
            if not keep:
                break
            if len(keep) != len(rows):
                index = np.asarray(keep, dtype=np.intp)
                hidden, cell = hidden[index], cell[index]
                rows = [rows[r] for r in keep]

            log_probs = self._step_log_probs(
                states, sources, relations, rows, action_lists, hidden
            )
            gathered.append(log_probs[np.arange(len(rows)), gold_indices])
            hidden, cell = self._advance(states, rows, action_lists, gold_indices, hidden, cell)
        return gathered
