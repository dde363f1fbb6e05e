"""Correctness checks for served answers.

Every answer must have at most ``k`` predictions, in-range entity ids,
non-increasing scores, and a reasoning path whose every hop is a real graph
edge and which ends at the predicted entity.  A fixed sample of served
queries is also re-asked directly of the reasoner and compared.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

# Served and direct scores of one query may differ in the last bits when the
# query rode a different micro-batch (BLAS blocking changes summation order).
SCORE_TOLERANCE = 1e-6


def _fields(prediction: Any) -> Tuple[int, float, list]:
    if isinstance(prediction, dict):
        return prediction["entity"], prediction["score"], prediction["path"]
    return prediction.entity, prediction.score, prediction.path


def has_edge(graph, head: int, relation: int, tail: int) -> bool:
    """Whether ``head --relation--> tail`` is in ``graph``'s adjacency."""
    rows = getattr(graph, "outgoing_arrays", None)
    if rows is not None:
        relations, tails = rows(head)
        return bool(np.any((relations == relation) & (tails == tail)))
    return (relation, tail) in graph.outgoing_edges(head)


def answer_problems(
    graph, head: int, k: int, predictions: Sequence[Any]
) -> List[str]:
    """Every way ``predictions`` for a query from ``head`` break the contract."""
    problems = []
    if len(predictions) > k:
        problems.append(f"{len(predictions)} predictions for k={k}")
    previous = float("inf")
    for rank, prediction in enumerate(predictions):
        entity, score, path = _fields(prediction)
        if not 0 <= entity < graph.num_entities:
            problems.append(f"rank {rank}: entity {entity} out of range")
            continue
        if not score <= previous:
            problems.append(f"rank {rank}: score {score} above {previous}")
        previous = score
        current = head
        for relation, tail in path:
            if not has_edge(graph, current, relation, tail):
                problems.append(f"rank {rank}: hop ({current}, {relation}, {tail}) not an edge")
                break
            current = tail
        else:
            if current != entity:
                problems.append(f"rank {rank}: path ends at {current}, not {entity}")
    return problems


def same_ranking(served: Sequence[Any], direct: Sequence[Any]) -> bool:
    """Whether two rankings agree: same scores per rank, entities up to ties."""
    if len(served) != len(direct):
        return False
    direct_scores = [_fields(p)[1] for p in direct]
    for rank, (left, right) in enumerate(zip(served, direct)):
        entity_a, score_a, _ = _fields(left)
        entity_b, score_b, _ = _fields(right)
        if abs(score_a - score_b) > SCORE_TOLERANCE:
            return False
        if entity_a != entity_b:
            # A swap is only legitimate between entities with tied scores.
            tied = [
                _fields(direct[i])[0]
                for i, score in enumerate(direct_scores)
                if abs(score - score_a) <= SCORE_TOLERANCE
            ]
            if entity_a not in tied:
                return False
    return True


# One served operation: the (head, relation, k) query, and either its
# predictions or a description of how it failed.
Outcome = Tuple[Tuple[int, int, int], Optional[Sequence[Any]], Optional[str]]


def tally(report, graph, outcomes: Iterable[Outcome]) -> List[bool]:
    """Count every outcome as attempted, and failed unless its answer is valid."""
    verdicts = []
    for query, predictions, error in outcomes:
        report.attempted += 1
        problems = [error] if error else answer_problems(graph, query[0], query[2], predictions)
        if problems:
            report.failed += 1
            report.problem(f"{query}: {problems[0]}")
        verdicts.append(not problems)
    return verdicts


def tally_sample(report, reasoner, outcomes: Iterable[Outcome], size: int) -> None:
    """The first ``size`` answered queries must equal a direct ``Reasoner.query``."""
    answered = (outcome for outcome in outcomes if outcome[2] is None)
    for (head, relation, k), predictions, _ in list(answered)[:size]:
        report.attempted += 1
        if not same_ranking(predictions, reasoner.query(head, relation, k=k)):
            report.failed += 1
            report.problem(f"{(head, relation, k)}: served ranking differs from Reasoner.query")
