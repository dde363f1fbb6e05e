"""The 3D reward mechanism (Section IV-C, Eqs. 13-16).

Three components, combined linearly with discount factors λ1, λ2, λ3:

* **Destination reward** (Eq. 13) — 1 when the agent stops at the gold
  answer, otherwise the soft score ``l(e_s, r_q, e_T)`` of a pretrained
  scorer (ConvE in the paper) — reward shaping that keeps the reward dense;
* **Distance reward** (Eq. 14) — ``1/k`` for paths of ``k ≤ 3`` hops and
  ``-1/k²`` beyond, encouraging the agent to answer within short paths;
* **Diversity reward** (Eq. 15) — a Gaussian-kernel penalty for re-walking
  relation paths that are similar to already-discovered ones, encouraging
  exploration of novel paths.

A plain 0/1 terminal reward (the scheme used by MINERVA/RLH, and the paper's
ZOKGR ablation) is provided for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Protocol, Tuple

import numpy as np

from repro.rl.environment import EpisodeState, MKGEnvironment


class TripleScorer(Protocol):
    """Anything that can score the plausibility of a triple in (0, 1)."""

    def probability(self, head: int, relation: int, tail: int) -> float:
        ...


@dataclass
class RewardConfig:
    """Weights and hyper-parameters of the 3D reward (Eq. 16 defaults)."""

    lambda_destination: float = 0.1
    lambda_distance: float = 0.8
    lambda_diversity: float = 0.1
    distance_threshold: int = 3
    bandwidth: float = 3.0
    use_destination_shaping: bool = True
    use_distance: bool = True
    use_diversity: bool = True

    def __post_init__(self) -> None:
        weights = (self.lambda_destination, self.lambda_distance, self.lambda_diversity)
        if any(w < 0 for w in weights):
            raise ValueError("reward weights must be non-negative")
        if not np.isclose(sum(weights), 1.0):
            raise ValueError(f"reward weights must sum to 1, got {sum(weights)}")
        if self.distance_threshold < 1:
            raise ValueError("distance_threshold must be >= 1")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    @classmethod
    def destination_only(cls) -> "RewardConfig":
        """DEKGR: only the destination reward drives the agent."""
        return cls(
            lambda_destination=1.0,
            lambda_distance=0.0,
            lambda_diversity=0.0,
            use_distance=False,
            use_diversity=False,
        )

    @classmethod
    def destination_distance(cls) -> "RewardConfig":
        """DSKGR: destination + distance rewards."""
        return cls(
            lambda_destination=0.2,
            lambda_distance=0.8,
            lambda_diversity=0.0,
            use_diversity=False,
        )

    @classmethod
    def destination_diversity(cls) -> "RewardConfig":
        """DVKGR: destination + diversity rewards."""
        return cls(
            lambda_destination=0.2,
            lambda_distance=0.0,
            lambda_diversity=0.8,
            use_distance=False,
        )


class DestinationReward:
    """Eq. (13): terminal correctness with ConvE-style reward shaping."""

    def __init__(self, scorer: Optional[TripleScorer] = None, use_shaping: bool = True):
        self.scorer = scorer
        self.use_shaping = use_shaping

    def __call__(self, state: EpisodeState, environment: MKGEnvironment) -> float:
        query = state.query
        if state.current_entity == query.answer:
            return 1.0
        if not self.use_shaping or self.scorer is None:
            return 0.0
        return float(
            np.clip(self.scorer.probability(query.source, query.relation, state.current_entity), 0.0, 1.0)
        )


class DistanceReward:
    """Eq. (14): reward short reasoning paths, penalise overly long ones.

    Interpretation note: Eq. (14) as printed does not condition on reaching
    the answer, which would make "stop immediately" the optimal policy (an
    empty path has the smallest possible ``k``).  Following the paper's
    narrative — the distance reward "encourages the agent to find the target
    entity within the 3 hops most relevant to the query" — the positive part
    ``1/k`` is granted only when the episode terminates at the gold answer,
    while the penalty ``-1/k²`` for exceeding the threshold applies
    unconditionally and an empty path earns nothing.  This keeps the reward
    dense for successful episodes without rewarding degenerate no-op walks;
    the choice is documented in DESIGN.md.
    """

    def __init__(self, threshold: int = 3):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold

    def __call__(self, state: EpisodeState, environment: MKGEnvironment) -> float:
        hops = state.hops
        if hops > self.threshold:
            return -1.0 / (hops * hops)
        if hops == 0:
            return 0.0
        if state.current_entity == state.query.answer:
            return 1.0 / hops
        return 0.0


class DiversityReward:
    """Eq. (15): Gaussian-kernel penalty for re-discovering similar paths.

    The embedding of a relation path is the mean of its relation embeddings.
    Paths that successfully reached an answer are remembered per query
    relation, as the first ``n`` rows of an array that doubles when full.  An
    episode is scored against all ``n`` with one kernel,
    ``-mean(exp(-‖e - m_j‖² / 2σ²)) / n``, before it is itself remembered.
    """

    _INITIAL_CAPACITY = 16

    def __init__(self, relation_embeddings: np.ndarray, bandwidth: float = 3.0):
        relation_embeddings = np.asarray(relation_embeddings, dtype=np.float64)
        if relation_embeddings.ndim != 2:
            raise ValueError("relation_embeddings must be a 2-D matrix")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.relation_embeddings = relation_embeddings
        self.bandwidth = bandwidth
        # relation -> (rows, number of rows in use)
        self._memory: Dict[int, Tuple[np.ndarray, int]] = {}

    def path_embedding(self, state: EpisodeState) -> np.ndarray:
        relations = [
            relation for relation in state.relation_path() if relation not in state._no_op_ids
        ]
        if not relations:
            return np.zeros(self.relation_embeddings.shape[1])
        return self.relation_embeddings[relations].mean(axis=0)

    def __call__(self, state: EpisodeState, environment: MKGEnvironment) -> float:
        relation = state.query.relation
        embedding = self.path_embedding(state)
        memory, count = self._memory.get(relation, (np.empty((0, embedding.size)), 0))
        reward = 0.0
        if count:
            squared = ((embedding - memory[:count]) ** 2).sum(axis=1)
            reward = -float(np.exp(-squared / (2.0 * self.bandwidth ** 2)).mean()) / count
        if state.current_entity == state.query.answer:
            if count == len(memory):
                extra = np.empty((max(self._INITIAL_CAPACITY, count), embedding.size))
                memory = np.concatenate([memory, extra])
            memory[count] = embedding
            self._memory[relation] = (memory, count + 1)
        return reward

    def reset_memory(self) -> None:
        self._memory.clear()

    def known_paths(self, relation: int) -> int:
        return self._memory[relation][1] if relation in self._memory else 0


class CompositeReward:
    """Eq. (16): ``R = λ1 R_destination + λ2 R_distance + λ3 R_diversity``."""

    def __init__(
        self,
        config: RewardConfig,
        destination: DestinationReward,
        distance: Optional[DistanceReward],
        diversity: Optional[DiversityReward],
    ):
        self.config = config
        self.destination = destination
        self.distance = distance
        self.diversity = diversity

    def __call__(self, state: EpisodeState, environment: MKGEnvironment) -> float:
        total = self.config.lambda_destination * self.destination(state, environment)
        if self.config.use_distance and self.distance is not None:
            total += self.config.lambda_distance * self.distance(state, environment)
        if self.config.use_diversity and self.diversity is not None:
            total += self.config.lambda_diversity * self.diversity(state, environment)
        return float(total)

    def reset(self) -> None:
        """Clear episodic memory (the diversity component's path cache)."""
        if self.diversity is not None:
            self.diversity.reset_memory()


class ZeroOneReward:
    """The sparse 0/1 terminal reward used by MINERVA, RLH and the ZOKGR ablation."""

    def __call__(self, state: EpisodeState, environment: MKGEnvironment) -> float:
        return 1.0 if state.current_entity == state.query.answer else 0.0

    def reset(self) -> None:
        """Present for interface parity with :class:`CompositeReward`."""


def build_reward(
    config: Optional[RewardConfig] = None,
    scorer: Optional[TripleScorer] = None,
    relation_embeddings: Optional[np.ndarray] = None,
) -> CompositeReward:
    """Assemble the 3D reward from a config, a shaping scorer and relation embeddings."""
    config = config or RewardConfig()
    destination = DestinationReward(scorer=scorer, use_shaping=config.use_destination_shaping)
    distance = DistanceReward(threshold=config.distance_threshold) if config.use_distance else None
    diversity = None
    if config.use_diversity:
        if relation_embeddings is None:
            raise ValueError("diversity reward requires relation embeddings")
        diversity = DiversityReward(relation_embeddings, bandwidth=config.bandwidth)
    return CompositeReward(config, destination, distance, diversity)
