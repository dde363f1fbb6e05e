"""Vectorized lockstep beam search across many queries.

:class:`BatchBeamSearch` is the only beam search evaluation, serving and
explanation run.  It advances *all* queries of a batch depth-by-depth over a
struct-of-arrays frontier — one row per beam entry, holding its query, entity,
log-probability, LSTM state and path — and calls the agent's own modules on
``(rows, ...)`` ndarrays, which run their single forward as untraced NumPy.
Each depth is a fixed sequence of array operations:

* one :meth:`~repro.rl.environment.MKGEnvironment.action_block` call gives
  every row's action space as padded ``(relation, tail)`` id arrays;
* the fuser and the policy head's projection run once over all rows;
* each real action is scored against its row's projection: the relation
  half of every row against all relations in one product, the entity half
  gathered on the flat list of real actions (so memory is O(actions x dim)
  however wide the padded block is); one masked softmax normalises every
  row;
* one per-row top-k and one pooled per-query top-k pick the survivors, and
  one ``LSTMCell`` call folds their edges into the path history.

Ties are broken as in the reference: within a row by
:func:`~repro.rl.rollout.descending_order`, across a query's candidates by
their expansion order (the pooled sort is stable).

Agent classes with a ``log_prob_correction`` (the hierarchical RLH agent)
get it applied once per depth over the padded ``(rows, actions)``
probability matrix; plain MMKGR agents pay nothing for it.  The engine holds
no mutable state, so engines on different serving workers can share one
agent and environment without locking.

:class:`repro.rl.batched_rollout.BatchedRolloutEngine` calls the same
modules with a Tensor history on the training side, and
:func:`repro.rl.rollout.beam_search` is the per-query reference the parity
suites compare this engine against.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.model import MMKGRAgent
from repro.nn.functional import softmax as stable_softmax
from repro.nn.tensor import log_softmax_array
from repro.rl.environment import MKGEnvironment, Query
from repro.rl.rollout import BeamSearchResult, descending_order

_LOG_EPS = 1e-12


class BatchBeamSearch:
    """Lockstep beam search over a batch of queries against one trained agent."""

    def __init__(
        self,
        agent: MMKGRAgent,
        environment: MKGEnvironment,
        beam_width: int = 8,
    ):
        if beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if not isinstance(agent, MMKGRAgent):
            raise TypeError(f"beam search needs an MMKGRAgent, got {type(agent).__name__}")
        self.agent = agent
        self.environment = environment
        self.beam_width = beam_width
        self._lstm = agent.history_encoder.cell
        self._correction = agent.log_prob_correction

    def _probabilities(self, sources, currents, relations, hidden, block) -> np.ndarray:
        """``(rows, n)`` action probabilities; padding gets probability 0."""
        agent = self.agent
        features = agent.features
        relation_ids, tail_ids, mask = block
        fused = agent.fuser(agent.fusion_inputs(sources, currents, relations, hidden))
        projected = agent.policy.project(fused)
        # An action row is [relation ; entity]: score the relation half
        # against every relation at once, the entity half per real action.
        split = features.relation_embeddings.shape[1]
        relation_scores = projected[:, :split] @ features.relation_embeddings.T
        rows = np.nonzero(mask)[0]
        scores = np.full(mask.shape, -np.inf)
        scores[mask] = relation_scores[rows, relation_ids[mask]] + np.einsum(
            "ij,ij->i", features.entity_embeddings[tail_ids[mask]], projected[rows, split:]
        )
        if self._correction is None:
            return stable_softmax(scores)
        log_probs = log_softmax_array(scores)
        log_probs = log_probs + self._correction(np.exp(log_probs), relation_ids, mask)
        return np.exp(log_probs)

    def run(self, queries: Sequence[Query]) -> List[BeamSearchResult]:
        """Beam-search every query in lockstep; one result per query."""
        queries = list(queries)
        if not queries:
            return []
        environment = self.environment
        features = self.agent.features
        width = self.beam_width
        batch = len(queries)
        sources = np.fromiter((q.source for q in queries), dtype=np.intp, count=batch)
        relations = np.fromiter((q.relation for q in queries), dtype=np.intp, count=batch)
        answers = np.fromiter((q.answer for q in queries), dtype=np.intp, count=batch)

        # The frontier: one row per beam entry, grouped by query and sorted
        # by descending log-probability within each query.  Paths are
        # (relation, tail) id columns; a branch that found no action stays
        # on the beam as finished, padding its path with relation -1.
        owner = np.arange(batch)
        entity = sources
        log_prob = np.zeros(batch)
        hidden = np.zeros((batch, self._lstm.hidden_size))
        hidden, cell = self._lstm(
            np.concatenate(
                [np.zeros((batch, features.structural_dim)), features.entity_embeddings[sources]],
                axis=1,
            ),
            (hidden, hidden),
        )
        path_relations = np.empty((batch, 0), dtype=np.intp)
        path_tails = path_relations
        finished = np.zeros(batch, dtype=bool)

        for step in range(environment.max_steps):
            live = np.flatnonzero(~finished)
            queried = owner[live]
            block = environment.action_block(
                entity[live], step, relations[queried], answers[queried], sources[queried]
            )
            counts = block[2].sum(axis=1)
            if not counts.all():
                dead = counts == 0
                finished[live[dead]] = True
                live, queried, counts = live[~dead], queried[~dead], counts[~dead]
                block = tuple(array[~dead] for array in block)
                if not live.size:
                    break
            relation_ids, tail_ids, mask = block
            probabilities = self._probabilities(
                sources[queried], entity[live], relations[queried], hidden[live], block
            )

            # The locally best actions of each row, as flat candidates in
            # (row, rank) order: the order the reference appends them in.
            top = descending_order(np.where(mask, probabilities, -1.0))[:, :width]
            real = top < counts[:, None]  # mask rows are left-aligned
            local = np.nonzero(real)[0]
            column = top[real]
            parent = live[local]
            candidate_lp = log_prob[parent] + np.log(probabilities[local, column] + _LOG_EPS)
            candidate_relation = relation_ids[local, column]
            candidate_tail = tail_ids[local, column]
            if finished.any():
                # Finished branches compete for the beam ahead of expansions.
                done = np.flatnonzero(finished)
                parent = np.concatenate([done, parent])
                candidate_lp = np.concatenate([log_prob[done], candidate_lp])
                candidate_relation = np.concatenate(
                    [np.full(len(done), -1, dtype=np.intp), candidate_relation]
                )
                candidate_tail = np.concatenate([entity[done], candidate_tail])

            # Keep each query's best `width` candidates (stable on ties).
            if batch == 1:
                keep = np.argsort(-candidate_lp, kind="stable")[:width]
            else:
                candidate_owner = owner[parent]
                keep = np.lexsort((-candidate_lp, candidate_owner))
                grouped = candidate_owner[keep]
                rank = np.arange(len(keep)) - np.searchsorted(grouped, grouped)
                keep = keep[rank < width]

            parent = parent[keep]
            step_relations = candidate_relation[keep]
            entity = candidate_tail[keep]
            owner = owner[parent]
            log_prob = candidate_lp[keep]
            finished = step_relations < 0
            hidden, cell = self._lstm(
                np.concatenate(
                    [
                        features.relation_embeddings[step_relations],
                        features.entity_embeddings[entity],
                    ],
                    axis=1,
                ),
                (hidden[parent], cell[parent]),
            )
            path_relations = np.concatenate(
                [path_relations[parent], step_relations[:, None]], axis=1
            )
            path_tails = np.concatenate([path_tails[parent], entity[:, None]], axis=1)

        return self._results(queries, owner, entity, log_prob, path_relations, path_tails)

    def _results(self, queries, owner, entity, log_prob, path_relations, path_tails):
        """One :class:`BeamSearchResult` per query: each entity's best branch."""
        skip = self.environment.no_op_relation_ids | {-1}
        num_entities = self.environment.graph.num_entities
        results = [
            BeamSearchResult(query, {}, {}, {}, num_entities=num_entities) for query in queries
        ]
        for query, reached, score, relations, tails in zip(
            owner.tolist(),
            entity.tolist(),
            log_prob.tolist(),
            path_relations.tolist(),
            path_tails.tolist(),
        ):
            result = results[query]
            if reached in result.entity_log_probs:
                continue  # rows are in descending log-prob order per query
            path = [step for step in zip(relations, tails) if step[0] != -1]
            result.entity_log_probs[reached] = score
            result.entity_hops[reached] = sum(1 for r in relations if r not in skip)
            result.paths[reached] = path
        return results
