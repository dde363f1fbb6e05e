"""Tests for the 3D reward mechanism."""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl.environment import MKGEnvironment, Query
from repro.rl.rewards import (
    CompositeReward,
    DestinationReward,
    DistanceReward,
    DiversityReward,
    RewardConfig,
    ZeroOneReward,
    build_reward,
)


class FixedScorer:
    """Triple scorer returning a constant probability (test double for ConvE)."""

    def __init__(self, value: float):
        self.value = value

    def probability(self, head: int, relation: int, tail: int) -> float:
        return self.value


@pytest.fixture()
def environment(tiny_graph) -> MKGEnvironment:
    return MKGEnvironment(tiny_graph, max_steps=4)


def make_state(environment, tiny_graph, path_names, answer="berlin"):
    query = Query(
        source=tiny_graph.entity_id("alice"),
        relation=tiny_graph.relation_id("lives_in"),
        answer=tiny_graph.entity_id(answer),
    )
    state = environment.reset(query)
    for relation_name, entity_name in path_names:
        action = (tiny_graph.relation_id(relation_name), tiny_graph.entity_id(entity_name))
        environment.step(state, action)
    return state


class TestRewardConfig:
    def test_default_weights_sum_to_one(self):
        RewardConfig()  # must not raise

    def test_invalid_weights_raise(self):
        with pytest.raises(ValueError):
            RewardConfig(lambda_destination=0.5, lambda_distance=0.2, lambda_diversity=0.2)
        with pytest.raises(ValueError):
            RewardConfig(lambda_destination=-0.1, lambda_distance=1.0, lambda_diversity=0.1)

    def test_named_ablation_configs(self):
        assert not RewardConfig.destination_only().use_distance
        assert not RewardConfig.destination_distance().use_diversity
        assert not RewardConfig.destination_diversity().use_distance

    def test_invalid_threshold_and_bandwidth(self):
        with pytest.raises(ValueError):
            RewardConfig(distance_threshold=0)
        with pytest.raises(ValueError):
            RewardConfig(bandwidth=0.0)


class TestDestinationReward:
    def test_correct_answer_gets_one(self, environment, tiny_graph):
        state = make_state(
            environment, tiny_graph, [("works_for", "acme"), ("located_in", "berlin")]
        )
        reward = DestinationReward(scorer=FixedScorer(0.3))
        assert reward(state, environment) == pytest.approx(1.0)

    def test_wrong_answer_uses_shaping(self, environment, tiny_graph):
        state = make_state(environment, tiny_graph, [("works_for", "acme")])
        reward = DestinationReward(scorer=FixedScorer(0.3))
        assert reward(state, environment) == pytest.approx(0.3)

    def test_wrong_answer_without_shaping_is_zero(self, environment, tiny_graph):
        state = make_state(environment, tiny_graph, [("works_for", "acme")])
        assert DestinationReward(scorer=None)(state, environment) == 0.0
        assert DestinationReward(scorer=FixedScorer(0.9), use_shaping=False)(
            state, environment
        ) == 0.0


class TestDistanceReward:
    def test_correct_short_path_rewarded(self, environment, tiny_graph):
        state = make_state(
            environment, tiny_graph, [("works_for", "acme"), ("located_in", "berlin")]
        )
        assert DistanceReward(threshold=3)(state, environment) == pytest.approx(0.5)

    def test_incorrect_short_path_gets_zero(self, environment, tiny_graph):
        state = make_state(environment, tiny_graph, [("works_for", "acme")])
        assert DistanceReward(threshold=3)(state, environment) == 0.0

    def test_long_path_penalised(self, environment, tiny_graph):
        state = make_state(
            environment,
            tiny_graph,
            [
                ("friend_of", "bob"),
                ("works_for", "acme"),
                ("located_in", "berlin"),
                ("in_country", "germany"),
            ],
            answer="germany",
        )
        assert DistanceReward(threshold=3)(state, environment) == pytest.approx(-1.0 / 16)

    def test_empty_path_gets_zero(self, environment, tiny_graph):
        state = make_state(environment, tiny_graph, [])
        assert DistanceReward(threshold=3)(state, environment) == 0.0

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            DistanceReward(threshold=0)

    def test_shorter_correct_paths_earn_more(self, environment, tiny_graph):
        two_hop = make_state(
            environment, tiny_graph, [("works_for", "acme"), ("located_in", "berlin")]
        )
        three_hop = make_state(
            environment,
            tiny_graph,
            [("friend_of", "bob"), ("works_for", "acme"), ("located_in", "berlin")],
        )
        reward = DistanceReward(threshold=3)
        assert reward(two_hop, environment) > reward(three_hop, environment)


class TestDiversityReward:
    def test_first_path_is_free(self, environment, tiny_graph, rng):
        reward = DiversityReward(rng.normal(size=(tiny_graph.num_relations, 6)), bandwidth=3.0)
        state = make_state(
            environment, tiny_graph, [("works_for", "acme"), ("located_in", "berlin")]
        )
        assert reward(state, environment) == 0.0
        assert reward.known_paths(state.query.relation) == 1

    def test_repeating_a_successful_path_is_penalised(self, environment, tiny_graph, rng):
        reward = DiversityReward(rng.normal(size=(tiny_graph.num_relations, 6)), bandwidth=3.0)
        path = [("works_for", "acme"), ("located_in", "berlin")]
        first_state = make_state(environment, tiny_graph, path)
        reward(first_state, environment)
        second_state = make_state(environment, tiny_graph, path)
        assert reward(second_state, environment) < 0.0

    def test_failed_paths_are_not_remembered(self, environment, tiny_graph, rng):
        reward = DiversityReward(rng.normal(size=(tiny_graph.num_relations, 6)), bandwidth=3.0)
        state = make_state(environment, tiny_graph, [("works_for", "acme")])
        reward(state, environment)
        assert reward.known_paths(state.query.relation) == 0

    def test_reset_memory(self, environment, tiny_graph, rng):
        reward = DiversityReward(rng.normal(size=(tiny_graph.num_relations, 6)))
        state = make_state(
            environment, tiny_graph, [("works_for", "acme"), ("located_in", "berlin")]
        )
        reward(state, environment)
        reward.reset_memory()
        assert reward.known_paths(state.query.relation) == 0

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            DiversityReward(rng.normal(size=(4,)))
        with pytest.raises(ValueError):
            DiversityReward(rng.normal(size=(4, 3)), bandwidth=0.0)


class _ListDiversityReward:
    """Eq. (15) over a Python list of remembered vectors, one ``np.sum`` each.

    The memory layout :class:`DiversityReward` had before it kept one array
    per relation; kept here as the reference the array memory must match.
    """

    def __init__(self, relation_embeddings, bandwidth):
        self.path_embedding = DiversityReward(relation_embeddings, bandwidth).path_embedding
        self.bandwidth = bandwidth
        self.memory = defaultdict(list)

    def __call__(self, state, environment):
        known = self.memory.get(state.query.relation, [])
        embedding = self.path_embedding(state)
        if not known:
            reward = 0.0
        else:
            kernel_values = [
                np.exp(-np.sum((embedding - previous) ** 2) / (2.0 * self.bandwidth ** 2))
                for previous in known
            ]
            reward = -float(np.mean(kernel_values)) / len(known)
        if state.current_entity == state.query.answer:
            self.memory[state.query.relation].append(embedding)
        return reward


class TestDiversityArrayMemory:
    def test_bit_identical_to_list_memory(self, environment, tiny_graph):
        rng = np.random.default_rng(2024)
        embeddings = rng.normal(size=(tiny_graph.num_relations, 6))
        reward = DiversityReward(embeddings, bandwidth=1.5)
        reference = _ListDiversityReward(embeddings, bandwidth=1.5)
        query_relations = range(4)
        capacity = DiversityReward._INITIAL_CAPACITY
        for episode in range(600):
            if episode == 400:
                reward.reset_memory()
                reference.memory.clear()
            answer = int(rng.integers(tiny_graph.num_entities))
            query = Query(0, int(rng.choice(query_relations)), answer)
            state = environment.reset(query)
            for _ in range(int(rng.integers(0, 4))):
                relation = int(rng.integers(tiny_graph.num_relations))
                environment.step(state, (relation, int(rng.integers(tiny_graph.num_entities))))
            if rng.random() < 0.6:
                state.current_entity = answer
            assert reward(state, environment) == reference(state, environment)
            for relation in query_relations:
                assert reward.known_paths(relation) == len(reference.memory[relation])
            if episode == 399:
                assert min(reward.known_paths(r) for r in query_relations) > 2 * capacity
        assert max(reward.known_paths(r) for r in query_relations) > capacity


class TestCompositeAndZeroOne:
    def test_zero_one_reward(self, environment, tiny_graph):
        reward = ZeroOneReward()
        success = make_state(
            environment, tiny_graph, [("works_for", "acme"), ("located_in", "berlin")]
        )
        failure = make_state(environment, tiny_graph, [("works_for", "acme")])
        assert reward(success, environment) == 1.0
        assert reward(failure, environment) == 0.0
        reward.reset()  # must be a no-op, not an error

    def test_build_reward_requires_relation_embeddings_for_diversity(self):
        with pytest.raises(ValueError):
            build_reward(RewardConfig(), scorer=FixedScorer(0.5), relation_embeddings=None)

    def test_composite_combines_components(self, environment, tiny_graph, rng):
        reward = build_reward(
            RewardConfig(),
            scorer=FixedScorer(0.5),
            relation_embeddings=rng.normal(size=(tiny_graph.num_relations, 6)),
        )
        success = make_state(
            environment, tiny_graph, [("works_for", "acme"), ("located_in", "berlin")]
        )
        value = reward(success, environment)
        # λ1 * 1.0 + λ2 * 0.5 + λ3 * 0.0 with the default weights (0.1, 0.8, 0.1).
        assert value == pytest.approx(0.1 * 1.0 + 0.8 * 0.5)

    def test_composite_reset_clears_diversity_memory(self, environment, tiny_graph, rng):
        reward = build_reward(
            RewardConfig(),
            scorer=FixedScorer(0.5),
            relation_embeddings=rng.normal(size=(tiny_graph.num_relations, 6)),
        )
        state = make_state(
            environment, tiny_graph, [("works_for", "acme"), ("located_in", "berlin")]
        )
        reward(state, environment)
        reward.reset()
        assert reward.diversity.known_paths(state.query.relation) == 0

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_composite_reward_is_bounded(self, shaping_value):
        config = RewardConfig()
        destination = DestinationReward(scorer=FixedScorer(shaping_value))
        distance = DistanceReward()
        composite = CompositeReward(config, destination, distance, None)
        # Bounds follow from each component being in [-1, 1].
        assert -1.0 <= config.lambda_destination + config.lambda_distance <= 1.0
