"""Evaluation protocols: entity link prediction, relation link prediction, hops.

* **Entity link prediction** (Table III) — for every test query ``(e_s, r_q, ?)``
  the agent's beam search produces a ranking of reached entities; MRR and
  Hits@N of the gold answer are reported under the filtered protocol.
* **Relation link prediction** (Table IV) — for every test query
  ``(e_s, ?, e_d)`` each candidate relation is scored by the probability mass
  the agent's beam assigns to ``e_d`` when reasoning under that relation; MAP
  over the relation ranking is reported per relation and overall.
* **Hop distribution** (Figs. 6-7) — the number of hops of the successful
  reasoning path per solved test query, where "successful" uses the same
  filtered top-rank criterion as Table III's Hits@1.

All three protocols consume plain :class:`~repro.rl.rollout.BeamSearchResult`
objects and draw them from :func:`beam_search_results`, which walks every
query of a protocol in lockstep through
:class:`~repro.serve.engine.BatchBeamSearch` — the same engine serving runs.
Relation MAP flattens its (triple x candidate relation) grid into large query
batches rather than one beam search per *pair*.  Rankings break score ties
deterministically by ascending id, never by traversal order, so the metrics
equal those of the per-query reference :func:`~repro.rl.rollout.beam_search`
byte for byte (``tests/core/test_evaluator.py``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import EvaluationConfig
from repro.core.model import MMKGRAgent
from repro.kg.graph import KnowledgeGraph, Triple
from repro.rl.environment import MKGEnvironment, Query
from repro.rl.rollout import BeamSearchResult
from repro.utils.metrics import RankingResult, average_precision
from repro.utils.rng import SeedLike, new_rng


def beam_search_results(
    agent: MMKGRAgent,
    environment: MKGEnvironment,
    queries: Sequence[Query],
    config: Optional[EvaluationConfig] = None,
) -> List[BeamSearchResult]:
    """Beam-search every query in lockstep; one result per query, in order.

    The shared beam-result provider of every evaluation protocol: queries run
    through :class:`~repro.serve.engine.BatchBeamSearch` in chunks of
    ``config.batch_size``.  Raises ``TypeError`` for agents that are not an
    :class:`~repro.core.model.MMKGRAgent`.
    """
    # Imported lazily: repro.serve's package initialisation imports the
    # reasoner, which imports this module.
    from repro.serve.engine import BatchBeamSearch

    config = config or EvaluationConfig()
    engine = BatchBeamSearch(agent, environment, beam_width=config.beam_width)
    queries = list(queries)
    results: List[BeamSearchResult] = []
    for start in range(0, len(queries), config.batch_size):
        results.extend(engine.run(queries[start : start + config.batch_size]))
    return results


def evaluate_entity_prediction(
    agent: MMKGRAgent,
    environment: MKGEnvironment,
    test_triples: Sequence[Triple],
    filter_graph: Optional[KnowledgeGraph] = None,
    config: Optional[EvaluationConfig] = None,
    rng: SeedLike = None,
) -> Dict[str, float]:
    """Beam-search entity ranking metrics (MRR, Hits@N) over ``test_triples``."""
    config = config or EvaluationConfig()
    filter_graph = filter_graph or environment.graph
    triples = _maybe_subsample(test_triples, config.max_queries, rng)

    queries = [Query(t.head, t.relation, t.tail) for t in triples]
    searches = beam_search_results(agent, environment, queries, config)
    result = RankingResult()
    for triple, search in zip(triples, searches):
        other_answers = filter_graph.tails_for(triple.head, triple.relation) - {triple.tail}
        result.add(search.rank_of(triple.tail, filtered_out=other_answers))
    return result.summary(hits_at=config.hits_at)


def evaluate_relation_prediction(
    agent: MMKGRAgent,
    environment: MKGEnvironment,
    test_triples: Sequence[Triple],
    candidate_relations: Optional[Sequence[int]] = None,
    config: Optional[EvaluationConfig] = None,
    rng: SeedLike = None,
) -> Dict[str, float]:
    """MAP of relation link prediction ``(e_s, ?, e_d)``.

    For each test triple, every candidate relation ``r`` is scored by the
    beam-search log-probability of reaching ``e_d`` from ``e_s`` under query
    relation ``r``; the gold relation's position in that ranking defines the
    average precision.  The whole (triple x candidate relation) grid is
    flattened into one query batch for the lockstep engine.  Equal scores —
    ubiquitous here, because every relation whose beam misses ``e_d`` scores
    ``-inf`` — are ranked by ascending relation id, so MAP does not depend
    on the candidate iteration order.  Returns per-relation MAP plus an
    ``overall`` entry.
    """
    config = config or EvaluationConfig()
    graph = environment.graph
    if candidate_relations is None:
        candidate_relations = _forward_relations(graph)
    candidate_relations = list(candidate_relations)
    triples = _maybe_subsample(test_triples, config.max_queries, rng)

    per_relation_scores: Dict[int, List[float]] = defaultdict(list)
    all_scores: List[float] = []
    grid = len(candidate_relations)
    # Flatten whole triple-rows of the (triple x candidate relation) grid
    # into each engine call, but only ~batch_size results at a time: scored
    # rows are discarded immediately, so peak memory stays flat however many
    # test triples the protocol covers.
    rows_per_chunk = max(1, config.batch_size // max(1, grid))
    for chunk_start in range(0, len(triples), rows_per_chunk):
        chunk = triples[chunk_start : chunk_start + rows_per_chunk]
        queries = [
            Query(triple.head, relation, triple.tail)
            for triple in chunk
            for relation in candidate_relations
        ]
        searches = beam_search_results(agent, environment, queries, config)
        for index, triple in enumerate(chunk):
            row = searches[index * grid : (index + 1) * grid]
            scores: List[Tuple[int, float]] = [
                (relation, search.score_of(triple.tail))
                for relation, search in zip(candidate_relations, row)
            ]
            scores.sort(key=lambda item: (-item[1], item[0]))
            relevance = [
                1 if relation == triple.relation else 0 for relation, _ in scores
            ]
            ap = average_precision(relevance)
            per_relation_scores[triple.relation].append(ap)
            all_scores.append(ap)

    result: Dict[str, float] = {}
    for relation, values in per_relation_scores.items():
        name = graph.relations.symbol(relation)
        result[name] = float(np.mean(values))
    result["overall"] = float(np.mean(all_scores)) if all_scores else 0.0
    return result


def hop_distribution(
    agent: MMKGRAgent,
    environment: MKGEnvironment,
    test_triples: Sequence[Triple],
    filter_graph: Optional[KnowledgeGraph] = None,
    config: Optional[EvaluationConfig] = None,
    max_hops: int = 4,
    rng: SeedLike = None,
) -> Dict[str, float]:
    """Proportion of successfully answered queries per path length (Figs. 6-7).

    A query counts as "successfully inferred" when the gold answer is the
    beam's top-ranked entity *under the filtered protocol* — other known
    correct answers from ``filter_graph`` are removed before ranking — which
    is exactly Table III's Hits@1 criterion, so the distribution describes
    the same set of solved queries as the headline table.  (The unfiltered
    ``best_entity()`` criterion used previously under-counted queries whose
    beam top-ranked a *different* correct answer.)  One extra requirement on
    top of Hits@1: the answer must actually be reached by the beam — the
    expected-rank convention for unreached entities can produce rank 1 on a
    tiny, densely filtered graph, but with no path there is no hop count to
    record.  A solved query's path
    length is the hop count of the best path reaching the answer;
    proportions are normalised over the solved queries, as in the paper's
    pie charts.
    """
    config = config or EvaluationConfig()
    filter_graph = filter_graph or environment.graph
    triples = _maybe_subsample(test_triples, config.max_queries, rng)
    queries = [Query(t.head, t.relation, t.tail) for t in triples]
    searches = beam_search_results(agent, environment, queries, config)
    counts: Dict[int, int] = defaultdict(int)
    successes = 0
    for triple, search in zip(triples, searches):
        # The answer must actually be reached: rank_of's expected-rank
        # convention can assign rank 1 to an *unreached* entity on a tiny,
        # densely filtered graph, but an unreached answer has no reasoning
        # path whose hops could be counted.
        if triple.tail not in search.entity_log_probs:
            continue
        other_answers = filter_graph.tails_for(triple.head, triple.relation) - {triple.tail}
        if search.rank_of(triple.tail, filtered_out=other_answers) != 1:
            continue
        hops = min(max(1, search.entity_hops.get(triple.tail, 1)), max_hops)
        counts[hops] += 1
        successes += 1
    distribution = {}
    for hops in range(1, max_hops + 1):
        key = f"{hops}_hops"
        distribution[key] = counts[hops] / successes if successes else 0.0
    distribution["success_count"] = float(successes)
    return distribution


def _forward_relations(graph: KnowledgeGraph) -> List[int]:
    """Relation ids excluding inverse copies and the NO_OP self-loop."""
    from repro.kg.graph import NO_OP_RELATION, is_inverse_relation

    relations = []
    for index in range(graph.num_relations):
        name = graph.relations.symbol(index)
        if name == NO_OP_RELATION or is_inverse_relation(name):
            continue
        relations.append(index)
    return relations


def _maybe_subsample(
    triples: Sequence[Triple], max_queries: Optional[int], rng: SeedLike
) -> List[Triple]:
    triples = list(triples)
    if max_queries is None or len(triples) <= max_queries:
        return triples
    rng = new_rng(rng if rng is not None else 0)
    indices = rng.choice(len(triples), size=max_queries, replace=False)
    return [triples[i] for i in sorted(indices)]
