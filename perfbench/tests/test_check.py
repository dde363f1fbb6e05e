import numpy as np
import pytest

from check import answer_problems, has_edge, same_ranking


class ListGraph:
    """A dict-backend-shaped graph: 0 -r1-> 1 -r2-> 2, 0 -r3-> 2."""

    num_entities = 4
    _edges = {0: [(1, 1), (3, 2)], 1: [(2, 2)], 2: [], 3: []}

    def outgoing_edges(self, entity):
        return list(self._edges.get(entity, []))


class ArrayGraph(ListGraph):
    """The CSR backend's read path: zero-copy row arrays."""

    def outgoing_arrays(self, entity):
        row = self._edges[entity]
        return (
            np.array([r for r, _ in row], dtype=np.int32),
            np.array([t for _, t in row], dtype=np.int32),
        )


def good_answer():
    return [
        {"entity": 2, "score": -0.1, "path": [[1, 1], [2, 2]]},
        {"entity": 2, "score": -0.5, "path": [[3, 2]]},
        {"entity": 0, "score": -0.9, "path": []},
    ]


@pytest.mark.parametrize("graph", [ListGraph(), ArrayGraph()])
def test_valid_answer_passes(graph):
    assert has_edge(graph, 0, 1, 1) and not has_edge(graph, 0, 1, 2)
    assert answer_problems(graph, 0, 3, good_answer()) == []


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda a: a + [{"entity": 1, "score": -2.0, "path": [[1, 1]]}], "predictions for k=3"),
        (lambda a: [{**a[0], "entity": 9}] + a[1:], "out of range"),
        (lambda a: [a[1], a[0], a[2]], "above"),
        (lambda a: [{**a[0], "path": [[1, 1], [3, 2]]}] + a[1:], "not an edge"),
        (lambda a: [{**a[0], "entity": 1}] + a[1:], "path ends at 2"),
    ],
)
@pytest.mark.parametrize("graph", [ListGraph(), ArrayGraph()])
def test_corrupted_answer_is_rejected(graph, corrupt, message):
    problems = answer_problems(graph, 0, 3, corrupt(good_answer()))
    assert any(message in problem for problem in problems), problems


def test_same_ranking_tolerates_ties_only():
    served = good_answer()
    assert same_ranking(served, good_answer())
    nudged = [{**p, "score": p["score"] + 1e-9} for p in served]
    assert same_ranking(nudged, served)
    assert not same_ranking([{**served[0], "score": -0.2}] + served[1:], served)
    assert not same_ranking(served[:2], served)
    tied = [
        {"entity": 5, "score": -1.0, "path": []},
        {"entity": 6, "score": -1.0, "path": []},
    ]
    assert same_ranking(tied, list(reversed(tied)))
    assert not same_ranking([{**tied[0], "entity": 7}, tied[1]], tied)
