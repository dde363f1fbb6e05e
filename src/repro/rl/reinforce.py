"""REINFORCE training of the complementary feature-aware policy (Eqs. 18-19).

The objective is the expected terminal reward over queries sampled from the
training graph; its gradient is estimated with the likelihood-ratio trick

``∇_θ J(θ) = Σ_t R(S_T | e_s, r) ∇_θ log π_θ(a_t | s_t)``

with a moving-average baseline subtracted from the reward to reduce variance
(a standard addition that does not change the expectation of the gradient).

Episode sampling runs through :class:`repro.rl.batched_rollout.BatchedRolloutEngine`
by default (``ReinforceConfig.vectorized``), which rolls out the whole
mini-batch in lockstep with batched fusion/policy/LSTM forwards.  Agents the
engine cannot batch (a custom ``action_log_probs`` — e.g. the hierarchical
RLH baseline) automatically fall back to the scalar
``sample_episode`` loop, as does ``vectorized=False``.  Both paths draw each
episode from its own child RNG stream spawned in episode order from the
trainer's generator, so they produce identical episodes under the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.kg.graph import Triple
from repro.nn import Adam, clip_grad_norm
from repro.nn.layers import Module
from repro.rl.batched_rollout import BatchedRolloutEngine
from repro.rl.environment import MKGEnvironment, Query
from repro.rl.rollout import ReasoningAgent, sample_episode
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, new_rng, spawn_rngs

LOGGER = get_logger("rl.reinforce")

RewardFunction = Callable


@dataclass
class ReinforceConfig:
    """Hyper-parameters of the policy-gradient training loop."""

    epochs: int = 20
    batch_size: int = 128
    learning_rate: float = 1e-3
    rollouts_per_query: int = 1
    baseline_decay: float = 0.95
    entropy_weight: float = 0.0
    grad_clip: float = 5.0
    seed: int = 11
    # Sample each mini-batch with the lockstep BatchedRolloutEngine when the
    # agent supports it; False forces the scalar per-query loop.
    vectorized: bool = True

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.rollouts_per_query < 1:
            raise ValueError("rollouts_per_query must be >= 1")
        if not 0.0 <= self.baseline_decay < 1.0:
            raise ValueError("baseline_decay must be in [0, 1)")


@dataclass
class TrainingHistory:
    """Per-epoch statistics recorded during training (used by Fig. 9/10 benches)."""

    epoch_rewards: List[float] = field(default_factory=list)
    epoch_success_rates: List[float] = field(default_factory=list)
    epoch_metrics: List[Dict[str, float]] = field(default_factory=list)

    @property
    def final_reward(self) -> float:
        return self.epoch_rewards[-1] if self.epoch_rewards else float("nan")


class ReinforceTrainer:
    """Trains any :class:`ReasoningAgent` that is also an ``nn.Module``."""

    def __init__(
        self,
        agent: ReasoningAgent,
        environment: MKGEnvironment,
        reward_fn: RewardFunction,
        config: Optional[ReinforceConfig] = None,
        rng: SeedLike = None,
    ):
        if not isinstance(agent, Module):
            raise TypeError("the agent must be an nn.Module to expose trainable parameters")
        self.agent = agent
        self.environment = environment
        self.reward_fn = reward_fn
        self.config = config or ReinforceConfig()
        self.rng = new_rng(self.config.seed if rng is None else rng)
        self.optimizer = Adam(agent.parameters(), lr=self.config.learning_rate)
        self._baseline = 0.0
        self._engine: Optional[BatchedRolloutEngine] = None
        if self.config.vectorized and BatchedRolloutEngine.supports(agent):
            self._engine = BatchedRolloutEngine(agent, environment)

    @property
    def vectorized(self) -> bool:
        """Whether mini-batches are sampled through the lockstep engine."""
        return self._engine is not None

    # ------------------------------------------------------------------ train
    def fit(
        self,
        train_triples: Sequence[Triple],
        verbose: bool = False,
        epoch_callback: Optional[Callable[[int, TrainingHistory], None]] = None,
    ) -> TrainingHistory:
        """Run REINFORCE over the training queries for ``config.epochs`` epochs."""
        queries = [Query(t.head, t.relation, t.tail) for t in train_triples]
        if not queries:
            raise ValueError("cannot train on an empty query list")
        history = TrainingHistory()
        if hasattr(self.reward_fn, "reset"):
            self.reward_fn.reset()

        for epoch in range(self.config.epochs):
            order = self.rng.permutation(len(queries))
            epoch_reward = 0.0
            epoch_success = 0
            episode_count = 0
            for start in range(0, len(queries), self.config.batch_size):
                batch = [queries[i] for i in order[start : start + self.config.batch_size]]
                batch_reward, batch_success, batch_episodes = self._train_batch(batch)
                epoch_reward += batch_reward
                epoch_success += batch_success
                episode_count += batch_episodes
            mean_reward = epoch_reward / max(1, episode_count)
            success_rate = epoch_success / max(1, episode_count)
            history.epoch_rewards.append(mean_reward)
            history.epoch_success_rates.append(success_rate)
            if verbose:
                LOGGER.info(
                    "epoch %d/%d reward %.4f success %.3f",
                    epoch + 1,
                    self.config.epochs,
                    mean_reward,
                    success_rate,
                )
            if epoch_callback is not None:
                epoch_callback(epoch, history)
        return history

    def _sample_batch(self, batch: Sequence[Query]) -> List:
        """One episode per (query, rollout), identical across both paths.

        The queries are expanded rollout-by-rollout and each episode gets its
        own child RNG stream, spawned in episode order from the trainer's
        generator.  Because the streams (not the order of consumption) carry
        the randomness, the lockstep engine and the scalar loop sample
        *identical* episodes from the same trainer seed — the seed-parity
        property guarded by ``tests/rl/test_batched_rollout.py``.
        """
        expanded = [
            query for query in batch for _ in range(self.config.rollouts_per_query)
        ]
        rngs = spawn_rngs(self.rng, len(expanded))
        if self._engine is not None:
            return self._engine.sample_episodes(expanded, rngs=rngs)
        return [
            sample_episode(self.agent, self.environment, query, rng=episode_rng)
            for query, episode_rng in zip(expanded, rngs)
        ]

    def _train_batch(self, batch: Sequence[Query]) -> tuple:
        """One optimisation step over a batch of queries."""
        self.optimizer.zero_grad()
        total_reward = 0.0
        total_success = 0
        episodes = 0
        losses = []
        for episode in self._sample_batch(batch):
            query = episode.state.query
            reward = float(self.reward_fn(episode.state, self.environment))
            total_reward += reward
            total_success += int(episode.state.current_entity == query.answer)
            episodes += 1
            advantage = reward - self._baseline
            self._baseline = (
                self.config.baseline_decay * self._baseline
                + (1.0 - self.config.baseline_decay) * reward
            )
            if not episode.log_probs:
                continue
            for log_prob in episode.log_probs:
                losses.append(log_prob * (-advantage))
        if losses:
            loss = losses[0]
            for extra in losses[1:]:
                loss = loss + extra
            loss = loss / max(1, episodes)
            loss.backward()
            clip_grad_norm(self.agent.parameters(), self.config.grad_clip)
            self.optimizer.step()
        return total_reward, total_success, episodes
