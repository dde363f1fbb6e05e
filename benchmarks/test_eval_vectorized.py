"""Evaluation throughput: lockstep beam search vs the per-query reference.

Tables III/IV and Figs. 6-7 rank answers with beam search.  A per-query
protocol runs one reference ``beam_search`` per query — and relation MAP one
per (triple x candidate relation) *pair* — which made evaluation dominate
every experiment's wall clock.  This microbenchmark evaluates the same agent
through the evaluator's lockstep ``BatchBeamSearch`` and, with
``repro.core.evaluator.beam_search_results`` swapped for the reference loop,
one query at a time.  It verifies the two return byte-identical metric
dictionaries (the parity guarantee of ``tests/core/test_evaluator.py``), and
asserts the batched path is at least twice as fast for both entity metrics
and relation MAP.

The measured speedups are headline numbers guarded by the
benchmark-regression CI step (``benchmarks/baseline.json``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from common import WN9, bench_preset, format_table

from repro.core import evaluator
from repro.core.config import EvaluationConfig
from repro.core.evaluator import (
    evaluate_entity_prediction,
    evaluate_relation_prediction,
)
from repro.baselines.mtrl import forward_relations
from repro.core.model import MMKGRAgent
from repro.features.extraction import FeatureStore
from repro.kg.datasets import build_named_dataset
from repro.rl.environment import MKGEnvironment
from repro.rl.rollout import beam_search

ENTITY_QUERY_COUNT = 64
RELATION_TRIPLE_COUNT = 12
MIN_SPEEDUP = 2.0


def _reference_results(agent, environment, queries, config=None, cache=None):
    """``beam_search_results`` as one reference beam search per query."""
    return [
        beam_search(agent, environment, query, beam_width=config.beam_width)
        for query in queries
    ]


def test_vectorized_evaluation_beats_scalar_loop(benchmark):
    preset = bench_preset("eval-vectorized")
    dataset = build_named_dataset(WN9, scale=preset.dataset_scale, seed=7)
    # Beam-search cost does not depend on how the weights were reached, so
    # skip training entirely: both paths rank with the same untrained agent.
    features = FeatureStore(
        dataset.mkg,
        structural_dim=preset.model.structural_dim,
        rng=np.random.default_rng(0),
    )
    agent = MMKGRAgent(features, config=preset.model, rng=11)
    environment = MKGEnvironment(
        dataset.train_graph,
        max_steps=preset.model.max_steps,
        max_actions=preset.model.max_actions,
    )
    triples = dataset.splits.test
    while len(triples) < ENTITY_QUERY_COUNT:
        triples = triples + triples
    entity_triples = triples[:ENTITY_QUERY_COUNT]
    relation_triples = triples[:RELATION_TRIPLE_COUNT]

    def evaluate_once():
        config = EvaluationConfig(beam_width=6)
        start = time.perf_counter()
        entity = evaluate_entity_prediction(
            agent, environment, entity_triples, filter_graph=dataset.graph, config=config
        )
        entity_s = time.perf_counter() - start
        start = time.perf_counter()
        relation = evaluate_relation_prediction(
            agent, environment, relation_triples, config=config
        )
        relation_s = time.perf_counter() - start
        return entity_s, relation_s, entity, relation

    def evaluate_both(vectorized: bool):
        if vectorized:
            return evaluate_once()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluator, "beam_search_results", _reference_results)
            return evaluate_once()

    # Best-of-2 per path so one scheduling hiccup cannot decide the outcome.
    scalar_entity_s, scalar_relation_s, scalar_entity, scalar_relation = min(
        (evaluate_both(False) for _ in range(2)), key=lambda item: item[0] + item[1]
    )
    vec_entity_s, vec_relation_s, vec_entity, vec_relation = min(
        (evaluate_both(True) for _ in range(2)), key=lambda item: item[0] + item[1]
    )
    benchmark.pedantic(
        lambda: evaluate_both(True), rounds=1, iterations=1, warmup_rounds=0
    )

    # The parity guarantee: same seed, byte-identical metric dictionaries.
    assert vec_entity == scalar_entity
    assert vec_relation == scalar_relation

    entity_speedup = scalar_entity_s / vec_entity_s
    relation_speedup = scalar_relation_s / vec_relation_s
    benchmark.extra_info["eval_entity_speedup"] = round(entity_speedup, 2)
    benchmark.extra_info["eval_relation_speedup"] = round(relation_speedup, 2)
    benchmark.extra_info["entity_queries"] = ENTITY_QUERY_COUNT
    benchmark.extra_info["relation_pairs"] = RELATION_TRIPLE_COUNT * len(
        forward_relations(dataset.train_graph)
    )

    print()
    print(
        format_table(
            ["path", "entity (s)", "relation MAP (s)"],
            [
                ["reference loop", scalar_entity_s, scalar_relation_s],
                ["BatchBeamSearch", vec_entity_s, vec_relation_s],
                ["speedup", entity_speedup, relation_speedup],
            ],
            title=(
                f"evaluation throughput — {ENTITY_QUERY_COUNT} entity queries, "
                f"{RELATION_TRIPLE_COUNT} relation triples ({WN9})"
            ),
        )
    )

    assert entity_speedup >= MIN_SPEEDUP, (
        f"vectorized entity evaluation only {entity_speedup:.2f}x faster "
        f"(floor {MIN_SPEEDUP}x)"
    )
    assert relation_speedup >= MIN_SPEEDUP, (
        f"vectorized relation evaluation only {relation_speedup:.2f}x faster "
        f"(floor {MIN_SPEEDUP}x)"
    )
