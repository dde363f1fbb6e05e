"""One forward per module, over batches, for both modes.

Every fuser, ``LSTMCell`` and ``PolicyNetwork`` has a single forward over
``(B, ...)`` batches.  An ndarray input runs it as untraced NumPy (the serving
engine), a Tensor input records autograd ops (the training engine), and the
per-query agent path is a batch of one.  These tests pin that the two modes
compute the same numbers, that the traced mode reaches every parameter, and
that a batch equals its rows evaluated one at a time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import MMKGRConfig
from repro.core.model import MMKGRAgent
from repro.features.extraction import FeatureStore
from repro.fusion.variants import FusionVariant
from repro.nn import functional as F
from repro.nn.tensor import Tensor, concat
from repro.rl.batched_rollout import BatchedRolloutEngine
from repro.rl.environment import MKGEnvironment, Query
from repro.rl.policy import pad_action_matrices, stack_action_embeddings
from repro.rl.rollout import beam_search, sample_episode
from repro.serve.engine import BatchBeamSearch

VARIANTS = list(FusionVariant)
# Parameters of the attention stage, which the FGKGR ablation skips.
ATTENTION_ONLY_PARAMS = {"attention_fusion.w_gate.weight", "attention_fusion.w_aggregate.weight"}


@pytest.fixture(scope="module")
def store(request):
    tiny_dataset = request.getfixturevalue("tiny_dataset")
    return tiny_dataset, FeatureStore(
        tiny_dataset.mkg, structural_dim=8, rng=np.random.default_rng(0)
    )


def _agent(store, variant: FusionVariant) -> MMKGRAgent:
    _, features = store
    config = MMKGRConfig(
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
    return MMKGRAgent(features, config=config, rng=0)


def _walk_states(store, agent, count=12, steps=1, seed=3):
    """Per-query states + history snapshots after ``steps`` random hops."""
    dataset, features = store
    environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
    rng = np.random.default_rng(seed)
    states, hiddens = [], []
    for triple in dataset.splits.train[:count]:
        query = Query(triple.head, triple.relation, triple.tail)
        state = environment.reset(query)
        agent.begin_episode(query)
        for _ in range(steps):
            actions = environment.available_actions(state)
            relation, entity = actions[rng.integers(len(actions))]
            agent.observe_step(relation, entity)
            state = environment.step(state, (relation, entity))
        states.append(state)
        hiddens.append(agent.history_encoder.snapshot()[0])
    return states, np.concatenate(hiddens, axis=0)


def _fusion_inputs(agent, states, history):
    return agent.fusion_inputs(
        np.array([s.query.source for s in states]),
        np.array([s.current_entity for s in states]),
        np.array([s.query.relation for s in states]),
        history,
    )


def _action_batch(store, count=9):
    dataset, _ = store
    environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
    action_lists = []
    for triple in dataset.splits.train[:count]:
        state = environment.reset(Query(triple.head, triple.relation, triple.tail))
        action_lists.append(environment.available_actions(state))
    return action_lists


def _padded(store, action_lists):
    features = store[1]
    return pad_action_matrices(
        action_lists, features.relation_embeddings, features.entity_embeddings
    )


# --------------------------------------------------------------------------
# ndarray call == Tensor call, and the traced call reaches every parameter.
def _fuser_case(store, variant, rng):
    agent = _agent(store, variant)
    states, hiddens = _walk_states(store, agent)
    history = Tensor(hiddens, requires_grad=True)
    expected_grads = {
        name
        for name, _ in agent.fuser.named_parameters()
        if not (variant is FusionVariant.NO_ATTENTION and name in ATTENTION_ONLY_PARAMS)
    }
    return (
        agent.fuser,
        lambda: agent.fuser(_fusion_inputs(agent, states, hiddens)),
        lambda: agent.fuser(_fusion_inputs(agent, states, history)),
        history,
        expected_grads,
    )


def _lstm_case(store, variant, rng):
    cell = _agent(store, FusionVariant.FULL).history_encoder.cell
    inputs = rng.normal(size=(7, cell.input_size))
    hidden = rng.normal(size=(7, cell.hidden_size))
    state = rng.normal(size=(7, cell.hidden_size))
    traced_hidden = Tensor(hidden, requires_grad=True)
    return (
        cell,
        lambda: np.concatenate(cell(inputs, (hidden, state)), axis=1),
        lambda: concat(list(cell(inputs, (traced_hidden, state))), axis=1),
        traced_hidden,
        {name for name, _ in cell.named_parameters()},
    )


def _policy_case(store, variant, rng):
    policy = _agent(store, FusionVariant.FULL).policy
    action_lists = _action_batch(store)
    # Unmasked, so every entry stays finite; masking has its own tests below.
    padded, _ = _padded(store, action_lists)
    fused = rng.normal(size=(len(action_lists), policy.fusion_dim))
    traced_fused = Tensor(fused, requires_grad=True)
    return (
        policy,
        lambda: policy(fused, padded),
        lambda: policy(traced_fused, padded),
        traced_fused,
        {name for name, _ in policy.named_parameters()},
    )


CASES = [(_fuser_case, variant) for variant in VARIANTS] + [
    (_lstm_case, None),
    (_policy_case, None),
]


def _case_id(case):
    build, variant = case
    return variant.value if variant is not None else build.__name__.strip("_")


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_ndarray_call_equals_tensor_call(store, rng, case):
    build, variant = case
    module, untraced_call, traced_call, traced_input, expected_grads = build(store, variant, rng)
    untraced = untraced_call()
    traced = traced_call()
    assert isinstance(untraced, np.ndarray)
    assert isinstance(traced, Tensor)
    np.testing.assert_allclose(untraced, traced.data, rtol=0, atol=1e-12)

    module.zero_grad()
    weights = rng.normal(size=traced.shape)
    (traced * Tensor(weights)).sum().backward()
    reached = {name for name, p in module.named_parameters() if p.grad is not None}
    assert reached == expected_grads
    assert traced_input.grad is not None
    assert np.abs(traced_input.grad).sum() > 0


# --------------------------------------------------------------------------
class TestStableActivations:
    def test_sigmoid_matches_tensor(self, rng):
        x = rng.normal(scale=50, size=(5, 7))
        np.testing.assert_allclose(F.sigmoid(x), Tensor(x).sigmoid().data, atol=1e-12)

    def test_softmax_matches_tensor(self, rng):
        x = rng.normal(scale=10, size=(4, 9))
        np.testing.assert_allclose(F.softmax(x), Tensor(x).softmax().data, atol=1e-12)


class TestBatchedLSTM:
    def test_matches_cell_forward(self, store, rng):
        cell_module = _agent(store, FusionVariant.FULL).history_encoder.cell
        batch = 17
        inputs = rng.normal(size=(batch, cell_module.input_size))
        hidden0 = rng.normal(size=(batch, cell_module.hidden_size))
        cell0 = rng.normal(size=(batch, cell_module.hidden_size))

        h_fast, c_fast = cell_module(inputs, (hidden0, cell0))
        h_mod, c_mod = cell_module(Tensor(inputs), (Tensor(hidden0), Tensor(cell0)))
        np.testing.assert_allclose(h_fast, h_mod.data, atol=1e-12)
        np.testing.assert_allclose(c_fast, c_mod.data, atol=1e-12)

    def test_matches_per_row_evaluation(self, store, rng):
        cell_module = _agent(store, FusionVariant.FULL).history_encoder.cell
        inputs = rng.normal(size=(6, cell_module.input_size))
        hidden0 = rng.normal(size=(6, cell_module.hidden_size))
        cell0 = rng.normal(size=(6, cell_module.hidden_size))
        h_fast, _ = cell_module(inputs, (hidden0, cell0))
        for i in range(6):
            h_row, _ = cell_module(
                Tensor(inputs[i : i + 1]), (Tensor(hidden0[i : i + 1]), Tensor(cell0[i : i + 1]))
            )
            np.testing.assert_allclose(h_fast[i : i + 1], h_row.data, atol=1e-12)


class TestBatchedFusionEquivalence:
    """A batched fuser call equals the per-query agent path row by row."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_no_grad_fusion_matches_agent_forward(self, store, variant):
        agent = _agent(store, variant)
        states, hiddens = _walk_states(store, agent)
        fused = agent.fuser(_fusion_inputs(agent, states, hiddens))
        assert isinstance(fused, np.ndarray)
        for i, state in enumerate(states):
            agent.restore((hiddens[i : i + 1], np.zeros_like(hiddens[i : i + 1])))
            expected = agent.complementary_features(state)
            np.testing.assert_allclose(fused[i], expected.data, atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_differentiable_fusion_matches_agent_forward(self, store, variant):
        agent = _agent(store, variant)
        states, hiddens = _walk_states(store, agent)
        fused = agent.fuser(_fusion_inputs(agent, states, Tensor(hiddens)))
        assert isinstance(fused, Tensor)
        for i, state in enumerate(states):
            agent.restore((hiddens[i : i + 1], np.zeros_like(hiddens[i : i + 1])))
            expected = agent.complementary_features(state)
            np.testing.assert_allclose(fused.data[i], expected.data, atol=1e-12)

    def test_differentiable_fusion_propagates_gradients(self, store):
        agent = _agent(store, FusionVariant.FULL)
        states, hiddens = _walk_states(store, agent, count=6)
        agent.fuser(_fusion_inputs(agent, states, Tensor(hiddens))).sum().backward()
        fuser_params = agent.fuser.parameters()
        assert fuser_params
        assert all(p.grad is not None for p in fuser_params)

    def test_conventional_attention_fuser_is_batched(self, store):
        agent = _agent(store, FusionVariant.CONVENTIONAL_ATTENTION)
        dataset, _ = store
        environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
        queries = [Query(t.head, t.relation, t.tail) for t in dataset.splits.train[:4]]
        episodes = BatchedRolloutEngine(agent, environment).sample_episodes(
            queries, greedy=True
        )
        searches = BatchBeamSearch(agent, environment, beam_width=4).run(queries)
        for query, episode, search in zip(queries, episodes, searches):
            reference = sample_episode(agent, environment, query, greedy=True)
            assert episode.state.path == reference.state.path
            reference = beam_search(agent, environment, query, beam_width=4)
            assert [e for e, _ in search.ranked_entities()] == [
                e for e, _ in reference.ranked_entities()
            ]
        states, hiddens = _walk_states(store, agent, count=5)
        fused = agent.fuser(_fusion_inputs(agent, states, hiddens))
        assert fused.shape == (5, agent.fuser.output_dim)


class TestPolicyLogProbsBatch:
    def test_matches_per_row_forward(self, store, rng):
        agent = _agent(store, FusionVariant.FULL)
        action_lists = _action_batch(store)
        features = store[1]
        fused = rng.normal(size=(len(action_lists), agent.policy.fusion_dim))
        padded, mask = _padded(store, action_lists)
        log_probs = agent.policy(Tensor(fused), padded, mask)
        for i, actions in enumerate(action_lists):
            matrix = stack_action_embeddings(
                actions, features.relation_embeddings, features.entity_embeddings
            )
            expected = agent.policy(Tensor(fused[i]), matrix)
            np.testing.assert_allclose(
                log_probs.data[i, : len(actions)], expected.data, atol=1e-9
            )
            assert np.all(np.isneginf(log_probs.data[i, len(actions) :]))

    def test_padded_positions_get_no_probability_mass(self, store, rng):
        agent = _agent(store, FusionVariant.FULL)
        action_lists = _action_batch(store)
        fused = rng.normal(size=(len(action_lists), agent.policy.fusion_dim))
        padded, mask = _padded(store, action_lists)
        log_probs = agent.policy(Tensor(fused), padded, mask)
        probabilities = np.exp(log_probs.data)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0, atol=1e-9)
        assert probabilities[~mask].sum() == 0.0

    def test_gradient_flows_through_masked_rows(self, store, rng):
        agent = _agent(store, FusionVariant.FULL)
        action_lists = _action_batch(store, count=4)
        fused = Tensor(
            rng.normal(size=(len(action_lists), agent.policy.fusion_dim)),
            requires_grad=True,
        )
        padded, mask = _padded(store, action_lists)
        log_probs = agent.policy(fused, padded, mask)
        log_probs[0, 0].backward()
        assert fused.grad is not None
        assert np.isfinite(fused.grad).all()
        assert np.abs(fused.grad[0]).sum() > 0
        # Other rows' features do not influence row 0's log-probability.
        assert np.abs(fused.grad[1:]).sum() == 0


class TestPadActionMatrices:
    def test_rows_match_stack_action_embeddings(self, store):
        features = store[1]
        action_lists = [
            [(0, 1), (1, 2), (2, 3)],
            [(1, 0)],
            [(2, 4), (0, 5)],
        ]
        padded, mask = _padded(store, action_lists)
        assert padded.shape == (3, 3, 2 * features.structural_dim)
        assert mask.tolist() == [[True, True, True], [True, False, False], [True, True, False]]
        for i, actions in enumerate(action_lists):
            expected = stack_action_embeddings(
                actions, features.relation_embeddings, features.entity_embeddings
            )
            np.testing.assert_array_equal(padded[i, : len(actions)], expected)
            assert np.all(padded[i, len(actions) :] == 0.0)

    def test_empty_inputs_are_rejected(self, store):
        with pytest.raises(ValueError):
            _padded(store, [])
        with pytest.raises(ValueError):
            _padded(store, [[(0, 1)], []])
