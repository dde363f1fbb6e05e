"""Paired per-query comparison of two reasoning agents.

The paper's tables compare aggregate metrics; on the small synthetic datasets
of this reproduction those aggregates move by whole queries, so a fair
comparison needs the *paired* per-query scores: both systems answer exactly
the same queries, and the question is whether one system's reciprocal ranks
are consistently better than the other's.  This module extracts the per-query
reciprocal ranks a beam-search reasoner assigns to the gold answers and wraps
the bootstrap / sign tests from :mod:`repro.analysis.bootstrap` around them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.bootstrap import paired_bootstrap_test, sign_test
from repro.core.config import EvaluationConfig
from repro.core.evaluator import beam_search_results
from repro.core.model import MMKGRAgent
from repro.kg.graph import KnowledgeGraph, Triple
from repro.rl.environment import MKGEnvironment, Query
from repro.utils.rng import SeedLike, new_rng


def per_query_reciprocal_ranks(
    agent: MMKGRAgent,
    environment: MKGEnvironment,
    triples: Sequence[Triple],
    filter_graph: Optional[KnowledgeGraph] = None,
    config: Optional[EvaluationConfig] = None,
) -> List[float]:
    """Reciprocal rank of the gold answer for every query, in input order.

    Uses the same filtered beam-search protocol as
    :func:`repro.core.evaluator.evaluate_entity_prediction` — the lockstep
    batched beam search — but returns the raw per-query values
    instead of their mean, which is what paired significance testing needs.
    """
    config = config or EvaluationConfig()
    filter_graph = filter_graph or environment.graph
    queries = [Query(t.head, t.relation, t.tail) for t in triples]
    searches = beam_search_results(agent, environment, queries, config)
    ranks: List[float] = []
    for triple, search in zip(triples, searches):
        other_answers = filter_graph.tails_for(triple.head, triple.relation) - {triple.tail}
        rank = search.rank_of(triple.tail, filtered_out=other_answers)
        ranks.append(1.0 / rank)
    return ranks


@dataclass
class ComparisonResult:
    """Outcome of a paired comparison between two systems."""

    name_a: str
    name_b: str
    scores_a: List[float]
    scores_b: List[float]
    mean_difference: float
    bootstrap_p_value: float
    wins_a: int
    wins_b: int
    ties: int
    sign_test_p_value: float

    @property
    def num_queries(self) -> int:
        return len(self.scores_a)

    @property
    def mrr_a(self) -> float:
        return float(np.mean(self.scores_a)) if self.scores_a else 0.0

    @property
    def mrr_b(self) -> float:
        return float(np.mean(self.scores_b)) if self.scores_b else 0.0

    def significant(self, alpha: float = 0.05) -> bool:
        """Whether the bootstrap test rejects "no difference" at level ``alpha``."""
        return self.bootstrap_p_value < alpha

    def summary(self) -> Dict[str, float]:
        return {
            "queries": float(self.num_queries),
            f"mrr_{self.name_a}": self.mrr_a,
            f"mrr_{self.name_b}": self.mrr_b,
            "mean_difference": self.mean_difference,
            "bootstrap_p_value": self.bootstrap_p_value,
            "wins_a": float(self.wins_a),
            "wins_b": float(self.wins_b),
            "ties": float(self.ties),
            "sign_test_p_value": self.sign_test_p_value,
        }

    def render(self, precision: int = 3) -> str:
        direction = ">" if self.mean_difference > 0 else ("<" if self.mean_difference < 0 else "=")
        return (
            f"{self.name_a} (MRR {self.mrr_a:.{precision}f}) {direction} "
            f"{self.name_b} (MRR {self.mrr_b:.{precision}f}) on {self.num_queries} queries; "
            f"Δ={self.mean_difference:+.{precision}f}, bootstrap p={self.bootstrap_p_value:.3f}, "
            f"wins {self.wins_a}-{self.wins_b} (ties {self.ties}), sign-test p={self.sign_test_p_value:.3f}"
        )


def compare_scores(
    scores_a: Sequence[float],
    scores_b: Sequence[float],
    name_a: str = "A",
    name_b: str = "B",
    num_samples: int = 1000,
    rng: SeedLike = 0,
) -> ComparisonResult:
    """Paired comparison of two per-query score lists (same queries, same order)."""
    a = list(map(float, scores_a))
    b = list(map(float, scores_b))
    if len(a) != len(b) or not a:
        raise ValueError("paired scores must be non-empty and equally sized")
    difference, bootstrap_p = paired_bootstrap_test(a, b, num_samples=num_samples, rng=rng)
    wins_a, wins_b, sign_p = sign_test(a, b)
    ties = len(a) - wins_a - wins_b
    return ComparisonResult(
        name_a=name_a,
        name_b=name_b,
        scores_a=a,
        scores_b=b,
        mean_difference=difference,
        bootstrap_p_value=bootstrap_p,
        wins_a=wins_a,
        wins_b=wins_b,
        ties=ties,
        sign_test_p_value=sign_p,
    )


def compare_agents(
    agent_a: MMKGRAgent,
    agent_b: MMKGRAgent,
    environment: MKGEnvironment,
    triples: Sequence[Triple],
    name_a: str = "A",
    name_b: str = "B",
    filter_graph: Optional[KnowledgeGraph] = None,
    config: Optional[EvaluationConfig] = None,
    max_queries: Optional[int] = None,
    num_samples: int = 1000,
    rng: SeedLike = 0,
) -> ComparisonResult:
    """Paired comparison of two agents on the same queries and environment.

    Both agents answer exactly the same (optionally subsampled) queries under
    the same filtered protocol; the result records per-query reciprocal ranks,
    the mean difference, and bootstrap / sign-test p-values.
    """
    items = list(triples)
    if not items:
        raise ValueError("compare_agents needs at least one query")
    if max_queries is not None and len(items) > max_queries:
        generator = new_rng(rng)
        indices = generator.choice(len(items), size=max_queries, replace=False)
        items = [items[i] for i in sorted(indices)]
    scores_a = per_query_reciprocal_ranks(agent_a, environment, items, filter_graph, config)
    scores_b = per_query_reciprocal_ranks(agent_b, environment, items, filter_graph, config)
    return compare_scores(
        scores_a, scores_b, name_a=name_a, name_b=name_b, num_samples=num_samples, rng=rng
    )
