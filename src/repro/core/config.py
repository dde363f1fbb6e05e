"""Configuration objects for MMKGR training and evaluation.

``MMKGRConfig`` mirrors the hyper-parameters listed in Section V-A3 of the
paper (embedding dimensions, maximum reasoning step ``T = 4``, batch size
``N = 128``, bandwidth ``u = 3``, reward weights ``λ = (0.1, 0.8, 0.1)``),
scaled where necessary to the synthetic datasets.  Two presets bundle
everything an experiment needs: a ``paper`` preset that follows the published
settings proportionally, and a ``fast`` preset used by the test-suite and the
benchmark harness so that every table/figure regenerates in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.embeddings.trainer import EmbeddingTrainingConfig
from repro.fusion.variants import FusionVariant
from repro.rl.imitation import ImitationConfig
from repro.rl.reinforce import ReinforceConfig
from repro.rl.rewards import RewardConfig


@dataclass
class MMKGRConfig:
    """Model hyper-parameters of MMKGR."""

    structural_dim: int = 24
    history_dim: int = 24
    auxiliary_dim: int = 32
    attention_dim: int = 32
    joint_dim: int = 32
    policy_hidden_dim: int = 64
    max_steps: int = 4
    fusion_variant: FusionVariant = FusionVariant.FULL
    max_actions: Optional[int] = 64
    seed: int = 17

    def __post_init__(self) -> None:
        for name in (
            "structural_dim",
            "history_dim",
            "auxiliary_dim",
            "attention_dim",
            "joint_dim",
            "policy_hidden_dim",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        self.fusion_variant = FusionVariant(self.fusion_variant)


@dataclass
class EvaluationConfig:
    """Evaluation-time settings (beam width, metric cut-offs, query budget)."""

    beam_width: int = 16
    hits_at: tuple = (1, 5, 10)
    max_queries: Optional[int] = None
    # Queries per lockstep engine call; bounds the live-branch working set
    # (~batch_size * beam_width branches) when evaluating large query grids
    # such as relation MAP's (triple x candidate relation) flattening.
    batch_size: int = 256

    def __post_init__(self) -> None:
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.max_queries is not None and self.max_queries < 1:
            raise ValueError("max_queries must be >= 1 when given")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class ExperimentPreset:
    """A complete bundle of configs for one experiment run."""

    name: str
    model: MMKGRConfig = field(default_factory=MMKGRConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)
    reinforce: ReinforceConfig = field(default_factory=ReinforceConfig)
    imitation: ImitationConfig = field(default_factory=ImitationConfig)
    embedding: EmbeddingTrainingConfig = field(default_factory=EmbeddingTrainingConfig)
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)
    dataset_scale: float = 1.0

    def with_overrides(self, **kwargs) -> "ExperimentPreset":
        """A copy of this preset with selected fields replaced."""
        return replace(self, **kwargs)


def paper_preset(name: str = "paper") -> ExperimentPreset:
    """Settings proportional to the paper's (T=4, N=128, u=3, λ=(0.1, 0.8, 0.1))."""
    return ExperimentPreset(
        name=name,
        model=MMKGRConfig(max_steps=4),
        reward=RewardConfig(
            lambda_destination=0.1,
            lambda_distance=0.8,
            lambda_diversity=0.1,
            distance_threshold=3,
            bandwidth=3.0,
        ),
        reinforce=ReinforceConfig(epochs=30, batch_size=128, learning_rate=1e-3),
        imitation=ImitationConfig(epochs=15, batch_size=32, learning_rate=5e-3),
        embedding=EmbeddingTrainingConfig(epochs=40, batch_size=64, learning_rate=0.05),
        evaluation=EvaluationConfig(beam_width=32),
        dataset_scale=1.0,
    )


def fast_preset(name: str = "fast") -> ExperimentPreset:
    """Small settings so tests and benches finish in seconds per model."""
    return ExperimentPreset(
        name=name,
        model=MMKGRConfig(
            structural_dim=16,
            history_dim=16,
            auxiliary_dim=16,
            attention_dim=16,
            joint_dim=16,
            policy_hidden_dim=32,
            max_steps=3,
            max_actions=32,
        ),
        reward=RewardConfig(),
        reinforce=ReinforceConfig(epochs=3, batch_size=64, learning_rate=3e-3),
        imitation=ImitationConfig(epochs=12, batch_size=16, learning_rate=8e-3),
        embedding=EmbeddingTrainingConfig(epochs=15, batch_size=64, learning_rate=0.1),
        evaluation=EvaluationConfig(beam_width=8, max_queries=60),
        dataset_scale=0.4,
    )
