"""Seed parity of the batched rollout engine against the per-query reference.

The central guarantee: with per-episode RNG streams spawned from one parent
seed, ``BatchedRolloutEngine.sample_episodes`` and a loop of reference
``sample_episode`` calls produce *identical* episodes — same paths, same
rewards, same log-probabilities — for MMKGR and for the hierarchical RLH
agent alike.  This pins down the RNG-ordering bug class where lockstep
execution reorders draws across queries and silently changes every training
run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.rlh import HierarchicalAgent, relation_level_correction
from repro.core.config import MMKGRConfig
from repro.core.model import MMKGRAgent
from repro.features.extraction import FeatureStore
from repro.fusion.variants import FusionVariant
from repro.nn import Module, clip_grad_norm
from repro.nn.tensor import Tensor, stack
from repro.rl.batched_rollout import BatchedRolloutEngine, Rollout
from repro.rl.environment import MKGEnvironment, Query
from repro.rl.imitation import ImitationConfig, ImitationTrainer
from repro.rl import reinforce
from repro.rl.reinforce import ReinforceConfig, ReinforceTrainer
from repro.rl.rewards import RewardConfig, ZeroOneReward, build_reward
from repro.rl.rollout import sample_episode
from repro.utils.rng import spawn_rngs


@pytest.fixture(scope="module")
def setup(request):
    tiny_dataset = request.getfixturevalue("tiny_dataset")
    features = FeatureStore(tiny_dataset.mkg, structural_dim=8, rng=np.random.default_rng(0))
    return tiny_dataset, features


def _config(variant=FusionVariant.FULL) -> MMKGRConfig:
    return MMKGRConfig(
        structural_dim=8,
        history_dim=8,
        auxiliary_dim=8,
        attention_dim=8,
        joint_dim=8,
        policy_hidden_dim=16,
        max_steps=3,
        max_actions=16,
        seed=0,
        fusion_variant=variant,
    )


def _queries(dataset, count=20):
    return [Query(t.head, t.relation, t.tail) for t in dataset.splits.train[:count]]


def _assert_identical_episodes(rollout, scalar):
    batched = rollout.episodes
    assert len(batched) == len(scalar)
    for batched_episode, scalar_episode in zip(batched, scalar):
        assert batched_episode.state.path == scalar_episode.state.path
        assert batched_episode.state.current_entity == scalar_episode.state.current_entity
        assert len(batched_episode.log_probs) == len(scalar_episode.log_probs)
        np.testing.assert_allclose(
            [float(t.data) for t in batched_episode.log_probs],
            [float(t.data) for t in scalar_episode.log_probs],
            atol=1e-9,
        )


class TestSeedParity:
    @pytest.mark.parametrize("variant", list(FusionVariant))
    def test_identical_episodes_under_same_seed(self, setup, variant):
        dataset, features = setup
        agent = MMKGRAgent(features, config=_config(variant), rng=0)
        environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
        queries = _queries(dataset)

        engine = BatchedRolloutEngine(agent, environment)
        batched = engine.sample_episodes(queries, rngs=spawn_rngs(7, len(queries)))
        scalar = [
            sample_episode(agent, environment, query, rng=episode_rng)
            for query, episode_rng in zip(queries, spawn_rngs(7, len(queries)))
        ]
        _assert_identical_episodes(batched, scalar)

    def test_greedy_matches_scalar_greedy(self, setup):
        dataset, features = setup
        agent = MMKGRAgent(features, config=_config(), rng=0)
        environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
        queries = _queries(dataset, count=8)
        engine = BatchedRolloutEngine(agent, environment)
        batched = engine.sample_episodes(queries, greedy=True)
        scalar = [
            sample_episode(agent, environment, query, rng=0, greedy=True)
            for query in queries
        ]
        _assert_identical_episodes(batched, scalar)

    def test_rng_seed_spawns_are_deterministic(self, setup):
        dataset, features = setup
        agent = MMKGRAgent(features, config=_config(), rng=0)
        environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
        queries = _queries(dataset, count=10)
        engine = BatchedRolloutEngine(agent, environment)
        first = engine.sample_episodes(queries, rng=123)
        second = engine.sample_episodes(queries, rng=123)
        _assert_identical_episodes(first, second.episodes)

    def test_rng_count_mismatch_rejected(self, setup):
        dataset, features = setup
        agent = MMKGRAgent(features, config=_config(), rng=0)
        environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
        engine = BatchedRolloutEngine(agent, environment)
        with pytest.raises(ValueError):
            engine.sample_episodes(_queries(dataset, count=4), rngs=spawn_rngs(0, 3))

    def test_empty_batch_returns_empty(self, setup):
        dataset, features = setup
        agent = MMKGRAgent(features, config=_config(), rng=0)
        environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
        rollout = BatchedRolloutEngine(agent, environment).sample_episodes([])
        assert rollout.episodes == [] and rollout.steps == []


class _EarlyStopEnvironment(MKGEnvironment):
    """Stops even-source episodes after one step: exercises ragged termination."""

    def step(self, state, action):
        state = super().step(state, action)
        if state.query.source % 2 == 0 and state.step >= 1:
            state.stopped = True
        return state


class TestPerQueryTermination:
    def test_ragged_termination_matches_scalar(self, setup):
        dataset, features = setup
        agent = MMKGRAgent(features, config=_config(), rng=0)
        environment = _EarlyStopEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
        queries = _queries(dataset, count=16)
        engine = BatchedRolloutEngine(agent, environment)
        batched = engine.sample_episodes(queries, rngs=spawn_rngs(5, len(queries)))
        scalar = [
            sample_episode(agent, environment, query, rng=episode_rng)
            for query, episode_rng in zip(queries, spawn_rngs(5, len(queries)))
        ]
        _assert_identical_episodes(batched, scalar)
        lengths = {len(e.state.path) for e in batched.episodes}
        assert len(lengths) > 1, "workload should mix early and full-length episodes"


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


class _ReferenceImitationTrainer(ImitationTrainer):
    """Teacher-forces one demonstration at a time through the agent itself."""

    def _train_batch(self, batch) -> float:
        self.optimizer.zero_grad()
        losses = []
        for query, path in batch:
            state = self.environment.reset(query)
            self.agent.begin_episode(query)
            for gold_action in self._padded_path(query, path):
                actions = self.environment.available_actions(state)
                try:
                    gold_index = actions.index(gold_action)
                except ValueError:
                    break  # the demonstration stepped through a pruned edge
                log_probs = self.agent.action_log_probs(state, actions)
                losses.append(-log_probs[gold_index])
                relation, entity = gold_action
                self.agent.observe_step(relation, entity)
                state = self.environment.step(state, gold_action)
                if self.environment.is_terminal(state):
                    break
        if not losses:
            return 0.0
        loss = losses[0]
        for extra in losses[1:]:
            loss = loss + extra
        loss = loss / len(losses)
        loss.backward()
        clip_grad_norm(self.agent.parameters(), self.config.grad_clip)
        self.optimizer.step()
        return float(loss.item())


def _assert_same_parameters(first, second, atol):
    for first_param, second_param in zip(first.parameters(), second.parameters()):
        np.testing.assert_allclose(first_param.data, second_param.data, atol=atol)


def _agent_for(features, agent_class):
    variant = (
        FusionVariant.STRUCTURE_ONLY if agent_class is HierarchicalAgent else FusionVariant.FULL
    )
    return agent_class(features, config=_config(variant), rng=0)


def _zero_one_reward(features):
    return ZeroOneReward()


def _three_d_reward(features):
    """The paper's full 3D reward, diversity memory included."""
    return build_reward(RewardConfig(), relation_embeddings=features.relation_embeddings)


def _assert_reinforce_parity(setup, agent_class, make_reward=_zero_one_reward):
    dataset, features = setup
    runs = []
    for trainer_class in (ReinforceTrainer, _ReferenceReinforceTrainer):
        agent = _agent_for(features, agent_class)
        environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
        config = ReinforceConfig(epochs=2, batch_size=16, learning_rate=1e-3)
        reward = make_reward(features)
        trainer = trainer_class(agent, environment, reward, config, rng=0)
        runs.append((trainer.fit(dataset.splits.train[:32]), agent))
    (history_fast, agent_fast), (history_slow, agent_slow) = runs
    diversity = getattr(reward, "diversity", None)
    if diversity is not None:
        relations = range(dataset.train_graph.num_relations)
        assert sum(diversity.known_paths(r) for r in relations) > 1
    np.testing.assert_allclose(
        history_fast.epoch_rewards, history_slow.epoch_rewards, atol=1e-9
    )
    np.testing.assert_allclose(
        history_fast.epoch_success_rates, history_slow.epoch_success_rates, atol=1e-9
    )
    _assert_same_parameters(agent_fast, agent_slow, atol=1e-9)


def _assert_imitation_parity(setup, agent_class):
    dataset, features = setup
    runs = []
    for trainer_class in (ImitationTrainer, _ReferenceImitationTrainer):
        agent = _agent_for(features, agent_class)
        environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
        config = ImitationConfig(
            epochs=4, batch_size=8, learning_rate=8e-3, max_demonstrations=20
        )
        trainer = trainer_class(agent, environment, config, rng=0)
        runs.append((trainer.fit(dataset.splits.train[:30]), agent))
    (fast_losses, fast_agent), (slow_losses, slow_agent) = runs
    np.testing.assert_allclose(fast_losses, slow_losses, atol=1e-9)
    _assert_same_parameters(fast_agent, slow_agent, atol=1e-8)
    assert fast_losses[-1] < fast_losses[0]


class TestTrainerIntegration:
    def test_both_paths_train_identically(self, setup):
        _assert_reinforce_parity(setup, MMKGRAgent)

    def test_both_paths_train_identically_under_3d_reward(self, setup):
        _assert_reinforce_parity(setup, MMKGRAgent, _three_d_reward)

    def test_one_gather_per_depth(self, setup, monkeypatch):
        """The loss reads each depth's log-probs with one gather over all rows,
        not one ``log_probs[row, choice]`` node per episode per depth."""
        dataset, features = setup
        gathers = []
        getitem = Tensor.__getitem__

        def counting_getitem(tensor, key):
            if isinstance(key, tuple) and not any(isinstance(k, slice) for k in key):
                gathers.append(key)
            return getitem(tensor, key)

        monkeypatch.setattr(Tensor, "__getitem__", counting_getitem)
        agent = MMKGRAgent(features, config=_config(), rng=0)
        environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
        queries = _queries(dataset, count=16)
        trainer = ReinforceTrainer(agent, environment, ZeroOneReward(), rng=0)
        trainer._train_batch(queries)
        assert len(gathers) == 3
        assert all(len(rows) == 16 for rows, _ in gathers)

        gathers.clear()
        imitation = ImitationTrainer(agent, environment, rng=0)
        demonstrations = imitation.collect_demonstrations(dataset.splits.train[:16])
        imitation._train_batch(demonstrations)
        assert 1 <= len(gathers) <= 3

    def test_gathered_loss_has_the_per_step_loss_gradient(self, setup, monkeypatch):
        """``concat(gathers) @ -advantage[rows] / B`` against the per-episode,
        per-step ``Σ log_prob * (-advantage) / B`` built from reference episodes."""
        dataset, features = setup
        queries = _queries(dataset, count=16)
        environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
        monkeypatch.setattr(reinforce, "clip_grad_norm", lambda parameters, limit: None)
        agent = MMKGRAgent(features, config=_config(), rng=0)
        config = ReinforceConfig(batch_size=16)
        trainer = ReinforceTrainer(agent, environment, _three_d_reward(features), config, rng=3)
        trainer._baseline = 0.3  # advantages of both signs
        trainer.optimizer.step = lambda: None
        trainer._train_batch(queries)

        reference_agent = MMKGRAgent(features, config=_config(), rng=0)
        reward_fn = _three_d_reward(features)
        baseline, terms = 0.3, []
        for query, episode_rng in zip(queries, spawn_rngs(3, len(queries))):
            episode = sample_episode(reference_agent, environment, query, rng=episode_rng)
            reward = reward_fn(episode.state, environment)
            advantage = reward - baseline
            baseline = config.baseline_decay * baseline + (1 - config.baseline_decay) * reward
            terms.extend(log_prob * (-advantage) for log_prob in episode.log_probs)
        loss = terms[0]
        for term in terms[1:]:
            loss = loss + term
        (loss / len(queries)).backward()
        for param, reference in zip(agent.parameters(), reference_agent.parameters()):
            np.testing.assert_allclose(param.grad, reference.grad, rtol=0, atol=1e-12)

    def test_rollouts_per_query_expansion_matches(self, setup):
        dataset, features = setup
        agents = []
        histories = []
        for trainer_class in (ReinforceTrainer, _ReferenceReinforceTrainer):
            agent = MMKGRAgent(features, config=_config(), rng=0)
            environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
            config = ReinforceConfig(
                epochs=1, batch_size=8, learning_rate=1e-3, rollouts_per_query=2
            )
            trainer = trainer_class(agent, environment, ZeroOneReward(), config, rng=1)
            histories.append(trainer.fit(dataset.splits.train[:16]))
            agents.append(agent)
        np.testing.assert_allclose(
            histories[0].epoch_rewards, histories[1].epoch_rewards, atol=1e-9
        )
        _assert_same_parameters(agents[0], agents[1], atol=1e-9)

    def test_imitation_paths_train_identically(self, setup):
        _assert_imitation_parity(setup, MMKGRAgent)

    def test_non_mmkgr_agent_is_rejected(self, setup):
        dataset, _ = setup
        environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
        with pytest.raises(TypeError):
            BatchedRolloutEngine(Module(), environment)


def _dict_loop_correction(probs, relations):
    """The relation-level correction as a per-action dict accumulation."""
    relation_mass = {}
    for relation, prob in zip(relations, probs):
        relation_mass[relation] = relation_mass.get(relation, 0.0) + float(prob)
    return np.array(
        [
            np.log(relation_mass[relation] + 1e-12)
            - np.log(probs[i] + 1e-12)
            + np.log(probs[i] / (relation_mass[relation] + 1e-12) + 1e-12)
            for i, relation in enumerate(relations)
        ]
    )


class TestHierarchicalAgent:
    def test_correction_matches_dict_loop_bit_for_bit(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            counts = rng.integers(1, 20, size=int(rng.integers(1, 6)))
            mask = np.arange(counts.max()) < counts[:, None]
            logits = np.where(mask, rng.normal(size=mask.shape) * 8.0, -np.inf)
            probs = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs /= probs.sum(axis=1, keepdims=True)
            relations = np.where(mask, rng.integers(0, 6, size=mask.shape), 0)
            corrections = relation_level_correction(probs, relations, mask)
            assert not corrections[~mask].any()
            for row, count in enumerate(counts):
                expected = _dict_loop_correction(probs[row, :count], relations[row, :count])
                np.testing.assert_array_equal(corrections[row, :count], expected)

    def test_engine_episodes_match_reference(self, setup):
        dataset, features = setup
        agent = HierarchicalAgent(features, config=_config(FusionVariant.STRUCTURE_ONLY), rng=0)
        environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
        queries = _queries(dataset)
        batched = BatchedRolloutEngine(agent, environment).sample_episodes(
            queries, rngs=spawn_rngs(7, len(queries))
        )
        reference = [
            sample_episode(agent, environment, query, rng=episode_rng)
            for query, episode_rng in zip(queries, spawn_rngs(7, len(queries)))
        ]
        _assert_identical_episodes(batched, reference)

    def test_trainer_matches_reference(self, setup):
        _assert_reinforce_parity(setup, HierarchicalAgent)

    def test_imitation_matches_reference(self, setup):
        _assert_imitation_parity(setup, HierarchicalAgent)
