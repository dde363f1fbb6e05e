"""Training throughput: lockstep batched rollouts vs the per-query reference.

The training engine's claim mirrors the serving one: sampling a REINFORCE
mini-batch with one lockstep batched fusion/policy/LSTM forward per step
(``BatchedRolloutEngine``, what ``ReinforceTrainer`` runs) is much faster
than rolling out queries one at a time with the reference
``sample_episode``.  This microbenchmark trains the same agent for one epoch
both ways — the reference side through a trainer whose ``_sample_batch``
loops over ``sample_episode`` — verifies the two paths walk identical
episodes (the seed-parity guarantee), and asserts the batched path is at
least twice as fast at the paper-style batch size.

The measured speedup is a headline number guarded by the benchmark-regression
CI step (``benchmarks/baseline.json``).
"""

from __future__ import annotations

import time

import numpy as np

from common import WN9, bench_preset, format_table

from repro.core.model import MMKGRAgent
from repro.features.extraction import FeatureStore
from repro.kg.datasets import build_named_dataset
from repro.nn.tensor import stack
from repro.rl.batched_rollout import Rollout
from repro.rl.environment import MKGEnvironment
from repro.rl.reinforce import ReinforceConfig, ReinforceTrainer
from repro.rl.rewards import ZeroOneReward
from repro.rl.rollout import sample_episode
from repro.utils.rng import spawn_rngs

QUERY_COUNT = 192
BATCH_SIZE = 32  # >= 16, the regime the acceptance bar targets
MIN_SPEEDUP = 2.0


class _ReferenceReinforceTrainer(ReinforceTrainer):
    """Samples every mini-batch with the per-query reference loop.

    The episodes' traced per-step log-probs are stacked depth by depth into
    the ``(rows, Tensor)`` gathers that ``BatchedRolloutEngine`` returns.
    """

    def _sample_batch(self, batch):
        expanded = [
            query for query in batch for _ in range(self.config.rollouts_per_query)
        ]
        episodes = [
            sample_episode(self.agent, self.environment, query, rng=episode_rng)
            for query, episode_rng in zip(expanded, spawn_rngs(self.rng, len(expanded)))
        ]
        steps = []
        for depth in range(max(len(episode.log_probs) for episode in episodes)):
            rows = [i for i, episode in enumerate(episodes) if len(episode.log_probs) > depth]
            steps.append(
                (np.asarray(rows), stack([episodes[i].log_probs[depth] for i in rows]))
            )
        return Rollout(episodes, steps)


def _trainer(dataset, features, preset, vectorized: bool) -> ReinforceTrainer:
    # Same model/optimizer seeds for both paths; only the rollout path differs.
    agent = MMKGRAgent(features, config=preset.model, rng=11)
    environment = MKGEnvironment(
        dataset.train_graph,
        max_steps=preset.model.max_steps,
        max_actions=preset.model.max_actions,
    )
    config = ReinforceConfig(epochs=1, batch_size=BATCH_SIZE, learning_rate=3e-3)
    trainer_class = ReinforceTrainer if vectorized else _ReferenceReinforceTrainer
    return trainer_class(agent, environment, ZeroOneReward(), config, rng=5)


def test_vectorized_training_beats_scalar_loop(benchmark):
    preset = bench_preset("train-vectorized")
    dataset = build_named_dataset(WN9, scale=preset.dataset_scale, seed=7)
    # The comparison isolates the REINFORCE loop, so skip TransE pre-training
    # and use the raw feature store directly — both paths share it.
    features = FeatureStore(
        dataset.mkg,
        structural_dim=preset.model.structural_dim,
        rng=np.random.default_rng(0),
    )
    train = dataset.splits.train
    while len(train) < QUERY_COUNT:
        train = train + train
    train = train[:QUERY_COUNT]

    def time_once(vectorized: bool):
        trainer = _trainer(dataset, features, preset, vectorized)
        start = time.perf_counter()
        history = trainer.fit(train)
        return time.perf_counter() - start, history

    # Best-of-2 per path so one scheduling hiccup cannot decide the outcome.
    scalar_s, scalar_history = min(
        (time_once(False) for _ in range(2)), key=lambda item: item[0]
    )
    vectorized_s, vectorized_history = min(
        (time_once(True) for _ in range(2)), key=lambda item: item[0]
    )
    benchmark.pedantic(
        lambda: _trainer(dataset, features, preset, True).fit(train),
        rounds=1,
        iterations=1,
    )

    speedup = scalar_s / vectorized_s
    benchmark.extra_info["train_epoch_speedup"] = round(speedup, 3)
    benchmark.extra_info["batch_size"] = BATCH_SIZE
    print()
    print(
        format_table(
            ["path", "epoch wall clock (s)", "episodes/s"],
            [
                ["reference sample_episode loop", f"{scalar_s:.3f}", f"{QUERY_COUNT / scalar_s:.1f}"],
                ["BatchedRolloutEngine", f"{vectorized_s:.3f}", f"{QUERY_COUNT / vectorized_s:.1f}"],
                ["speedup", f"{speedup:.2f}x", ""],
            ],
            title=(
                f"REINFORCE epoch — {QUERY_COUNT} queries, batch size {BATCH_SIZE}, "
                f"max_steps {preset.model.max_steps}"
            ),
        )
    )

    # Seed parity: both paths must have walked identical episodes.
    np.testing.assert_allclose(
        vectorized_history.epoch_rewards, scalar_history.epoch_rewards, atol=1e-9
    )
    np.testing.assert_allclose(
        vectorized_history.epoch_success_rates,
        scalar_history.epoch_success_rates,
        atol=1e-9,
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized training ({vectorized_s:.3f}s/epoch) should be at least "
        f"{MIN_SPEEDUP}x faster than the reference loop ({scalar_s:.3f}s/epoch) "
        f"at batch size {BATCH_SIZE}; measured {speedup:.2f}x"
    )
