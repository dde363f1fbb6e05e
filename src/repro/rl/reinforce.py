"""REINFORCE training of the complementary feature-aware policy (Eqs. 18-19).

The objective is the expected terminal reward over queries sampled from the
training graph; its gradient is estimated with the likelihood-ratio trick

``∇_θ J(θ) = Σ_t R(S_T | e_s, r) ∇_θ log π_θ(a_t | s_t)``

with a moving-average baseline subtracted from the reward to reduce variance
(a standard addition that does not change the expectation of the gradient).

Episodes are sampled by :class:`repro.rl.batched_rollout.BatchedRolloutEngine`,
which rolls out the whole mini-batch in lockstep with batched
fusion/policy/LSTM forwards, for every agent (the RLH baseline included).
Each episode draws from its own child RNG stream spawned in episode order
from the trainer's generator, so the per-query reference
:func:`repro.rl.rollout.sample_episode` walks identical episodes under the
same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.kg.graph import Triple
from repro.nn import Adam, clip_grad_norm
from repro.rl.batched_rollout import BatchedRolloutEngine
from repro.rl.environment import MKGEnvironment, Query
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, new_rng, spawn_rngs

if TYPE_CHECKING:
    from repro.core.model import MMKGRAgent

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
    grad_clip: float = 5.0
    seed: int = 11

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
    """Trains an :class:`~repro.core.model.MMKGRAgent` (RL baselines included)."""

    def __init__(
        self,
        agent: MMKGRAgent,
        environment: MKGEnvironment,
        reward_fn: RewardFunction,
        config: Optional[ReinforceConfig] = None,
        rng: SeedLike = None,
    ):
        self._engine = BatchedRolloutEngine(agent, environment)
        self.agent = agent
        self.environment = environment
        self.reward_fn = reward_fn
        self.config = config or ReinforceConfig()
        self.rng = new_rng(self.config.seed if rng is None else rng)
        self.optimizer = Adam(agent.parameters(), lr=self.config.learning_rate)
        self._baseline = 0.0

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
        """One episode per (query, rollout), sampled in lockstep.

        The queries are expanded rollout-by-rollout and each episode gets its
        own child RNG stream, spawned in episode order from the trainer's
        generator.  Because the streams (not the order of consumption) carry
        the randomness, the reference ``sample_episode`` loop samples
        *identical* episodes from the same trainer seed — the seed-parity
        property guarded by ``tests/rl/test_batched_rollout.py``.
        """
        expanded = [
            query for query in batch for _ in range(self.config.rollouts_per_query)
        ]
        return self._engine.sample_episodes(
            expanded, rngs=spawn_rngs(self.rng, len(expanded))
        )

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
