"""FIRE (Zhang et al., 2020): few-shot multi-hop relation reasoning.

FIRE targets few-shot relations: it walks the graph with an RL policy whose
search space is pruned by embedding similarity to the query, and adapts
quickly to relations with few training triples.  The property relevant to the
paper's comparison is that FIRE is a multi-hop reasoner, stronger than plain
MINERVA (reward shaping + pruned search) but still structure-only.

Implementation: structure-only RL with destination-reward shaping and a
neighbourhood-pruned action space (the top-``k`` outgoing edges whose target
embedding is most similar to the query translation), mirroring FIRE's
embedding-guided search-space pruning.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.registry import FittableBaseline, register_baseline
from repro.core.config import ExperimentPreset, fast_preset
from repro.core.trainer import MMKGRPipeline
from repro.serve.reasoner import Reasoner
from repro.features.extraction import ModalityConfig
from repro.fusion.variants import FusionVariant
from repro.kg.datasets import MKGDataset
from repro.rl.environment import ActionBlock, EpisodeState, MKGEnvironment, pack_actions
from repro.rl.rewards import RewardConfig
from repro.rl.rollout import descending_order
from repro.utils.rng import SeedLike


class PrunedEnvironment(MKGEnvironment):
    """Environment whose action space is pruned by embedding similarity.

    Given entity embeddings (TransE) the available actions at ``e_t`` are the
    ``prune_to`` outgoing edges whose target entity is closest to
    ``e_s + r_q`` — FIRE's heuristic for discarding unpromising branches.
    """

    def __init__(self, *args, entity_embeddings=None, relation_embeddings=None, prune_to: int = 16, **kwargs):
        super().__init__(*args, **kwargs)
        self._entity_embeddings = entity_embeddings
        self._relation_embeddings = relation_embeddings
        self.prune_to = prune_to

    def _prunes(self) -> bool:
        return self._entity_embeddings is not None and self._relation_embeddings is not None

    def _closeness(self, tails: np.ndarray, sources: np.ndarray, relations: np.ndarray):
        """``-||e_t - (e_s + r_q)||`` per action, one row per (tail, query) pair."""
        targets = self._entity_embeddings[sources] + self._relation_embeddings[relations]
        return -np.sqrt(((self._entity_embeddings[tails] - targets) ** 2).sum(axis=1))

    def available_actions(self, state: EpisodeState) -> List[Tuple[int, int]]:
        actions = super().available_actions(state)
        if not self._prunes() or len(actions) <= self.prune_to:
            return actions
        query = state.query
        scores = self._closeness(
            np.array([entity for _, entity in actions]),
            np.array([query.source]),
            np.array([query.relation]),
        )
        keep = descending_order(scores)[: self.prune_to]
        return [actions[i] for i in sorted(keep)]

    def action_block(
        self, entities, step, query_relations, query_answers, query_sources=None
    ) -> ActionBlock:
        """:meth:`MKGEnvironment.action_block`, pruned row by row like
        :meth:`available_actions` (so ``query_sources`` is required)."""
        relation_ids, tail_ids, mask = super().action_block(
            entities, step, query_relations, query_answers
        )
        counts = mask.sum(axis=1)
        pruned = counts > self.prune_to
        if not self._prunes() or not pruned.any():
            return relation_ids, tail_ids, mask
        inside = mask[pruned]
        rows = np.nonzero(inside)[0]
        scores = np.full(inside.shape, -np.inf)
        scores[inside] = self._closeness(
            tail_ids[pruned][inside],
            np.asarray(query_sources)[pruned][rows],
            np.asarray(query_relations)[pruned][rows],
        )
        chosen = np.zeros_like(inside)
        np.put_along_axis(chosen, descending_order(scores)[:, : self.prune_to], True, axis=1)
        mask[pruned] = chosen
        return pack_actions(
            np.minimum(counts, self.prune_to), relation_ids[mask], tail_ids[mask]
        )


def _fire_preset(preset: ExperimentPreset) -> ExperimentPreset:
    from dataclasses import replace

    return preset.with_overrides(
        model=replace(preset.model, fusion_variant=FusionVariant.STRUCTURE_ONLY),
        reward=RewardConfig.destination_only(),
    )


@register_baseline
class FIREBaseline(FittableBaseline):
    """Structure-only RL with shaped destination reward and pruned search."""

    name = "FIRE"

    def fit(
        self,
        dataset: MKGDataset,
        preset: Optional[ExperimentPreset] = None,
        rng: SeedLike = None,
    ) -> Reasoner:
        preset = _fire_preset(preset or fast_preset())
        pipeline = MMKGRPipeline(
            dataset,
            preset=preset,
            modalities=ModalityConfig.structure_only(),
            reward_scheme="3d",
            shaping_scorer="transe",
            rng=rng,
        )
        pipeline.build()
        # Replace the environment with the embedding-pruned variant.
        pipeline.environment = PrunedEnvironment(
            dataset.train_graph,
            max_steps=preset.model.max_steps,
            max_actions=preset.model.max_actions,
            entity_embeddings=pipeline.features.entity_embeddings,
            relation_embeddings=pipeline.features.relation_embeddings,
            prune_to=max(8, (preset.model.max_actions or 32) // 2),
        )
        pipeline.train()
        return Reasoner.from_pipeline(pipeline, name=self.name)
