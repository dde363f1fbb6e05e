"""Per-query explanations from a trained reasoning agent.

The explainer replays the agent's beam search for a query and packages the
result as an :class:`Explanation`: the ranked predictions, whether the gold
answer was ranked first, and the symbolic path supporting every prediction.
Queries run in lockstep through the same batched beam search as evaluation
and serving, for every :class:`~repro.core.model.MMKGRAgent` (the MMKGR
agent, its ablations, and the RL baselines), so the same provenance can be
compared across models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.core.config import EvaluationConfig
from repro.core.evaluator import beam_search_results
from repro.core.model import MMKGRAgent
from repro.explain.paths import ReasoningPath, paths_from_beam
from repro.kg.graph import KnowledgeGraph, Triple
from repro.rl.environment import MKGEnvironment, Query
from repro.rl.rollout import BeamSearchResult
from repro.utils.rng import SeedLike, new_rng

QueryLike = Union[Query, Triple]


@dataclass
class Explanation:
    """The provenance of one reasoning query."""

    query: Query
    source_name: str
    query_relation_name: str
    answer_name: str
    paths: List[ReasoningPath] = field(default_factory=list)

    @property
    def predicted_entity_name(self) -> Optional[str]:
        """Name of the top-ranked prediction (``None`` if the beam reached nothing)."""
        if not self.paths:
            return None
        return self.paths[0].reached_entity_name

    @property
    def is_correct(self) -> bool:
        """Whether the top-ranked prediction is the gold answer."""
        if not self.paths:
            return False
        return self.paths[0].reached_entity_id == self.query.answer

    @property
    def answer_rank(self) -> Optional[int]:
        """1-based rank of the gold answer among the explained predictions."""
        for position, path in enumerate(self.paths, start=1):
            if path.reached_entity_id == self.query.answer:
                return position
        return None

    def best_path(self) -> Optional[ReasoningPath]:
        return self.paths[0] if self.paths else None

    def supporting_path(self) -> Optional[ReasoningPath]:
        """The path that reaches the gold answer, if the beam found one."""
        for path in self.paths:
            if path.reached_entity_id == self.query.answer:
                return path
        return None

    # -------------------------------------------------------------- rendering
    def render(self, max_paths: int = 3) -> str:
        """Multi-line human-readable rendering of the explanation."""
        status = "correct" if self.is_correct else "incorrect"
        lines = [
            f"query: ({self.source_name}, {self.query_relation_name}, ?)",
            f"gold answer: {self.answer_name}",
            f"top prediction: {self.predicted_entity_name} [{status}]",
        ]
        for position, path in enumerate(self.paths[:max_paths], start=1):
            lines.append(f"  #{position} (score {path.score:.3f}, {path.hops} hops): {path.render()}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "source": self.source_name,
            "query_relation": self.query_relation_name,
            "answer": self.answer_name,
            "predicted": self.predicted_entity_name,
            "correct": self.is_correct,
            "answer_rank": self.answer_rank,
            "paths": [path.to_dict() for path in self.paths],
        }


class Explainer:
    """Produces :class:`Explanation` objects for reasoning queries."""

    def __init__(
        self,
        agent: MMKGRAgent,
        environment: MKGEnvironment,
        graph: Optional[KnowledgeGraph] = None,
        beam_width: int = 8,
        top_k: int = 3,
    ):
        if beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.agent = agent
        self.environment = environment
        self.graph = graph or environment.graph
        self.beam_width = beam_width
        self.top_k = top_k

    # ----------------------------------------------------------------- single
    def explain(self, query: QueryLike) -> Explanation:
        """Explain one query (a :class:`Query` or a test :class:`Triple`)."""
        (explanation,) = self._explain([_as_query(query)])
        return explanation

    def _explain(self, queries: List[Query]) -> List[Explanation]:
        """Beam-search ``queries`` in lockstep and package every result."""
        searches = beam_search_results(
            self.agent,
            self.environment,
            queries,
            EvaluationConfig(beam_width=self.beam_width),
        )
        return [self._explanation(query, search) for query, search in zip(queries, searches)]

    def _explanation(self, query: Query, search: BeamSearchResult) -> Explanation:
        paths = paths_from_beam(
            self.graph,
            query,
            search.entity_log_probs,
            search.paths,
            top_k=self.top_k,
        )
        return Explanation(
            query=query,
            source_name=self.graph.entities.symbol(query.source),
            query_relation_name=self.graph.relations.symbol(query.relation),
            answer_name=self.graph.entities.symbol(query.answer),
            paths=paths,
        )

    # ------------------------------------------------------------------ batch
    def explain_triples(
        self,
        triples: Iterable[QueryLike],
        max_queries: Optional[int] = None,
        rng: SeedLike = None,
    ) -> List[Explanation]:
        """Explain a collection of queries, optionally subsampled to ``max_queries``."""
        items = [_as_query(item) for item in triples]
        if max_queries is not None and len(items) > max_queries:
            if max_queries < 1:
                raise ValueError("max_queries must be >= 1 when given")
            generator = new_rng(rng if rng is not None else 0)
            indices = generator.choice(len(items), size=max_queries, replace=False)
            items = [items[i] for i in sorted(indices)]
        return self._explain(items)


def explain_pipeline(
    pipeline,
    triples: Optional[Sequence[QueryLike]] = None,
    max_queries: Optional[int] = None,
    beam_width: Optional[int] = None,
    top_k: int = 3,
) -> List[Explanation]:
    """Explain test queries of a trained :class:`~repro.core.trainer.MMKGRPipeline`.

    ``triples`` defaults to the pipeline's test split; ``beam_width`` defaults
    to the pipeline's evaluation beam width.
    """
    if pipeline.agent is None or pipeline.environment is None:
        raise RuntimeError("the pipeline has not been trained yet")
    evaluation: EvaluationConfig = pipeline.preset.evaluation
    explainer = Explainer(
        pipeline.agent,
        pipeline.environment,
        graph=pipeline.dataset.graph,
        beam_width=beam_width or evaluation.beam_width,
        top_k=top_k,
    )
    queries = triples if triples is not None else pipeline.dataset.splits.test
    return explainer.explain_triples(queries, max_queries=max_queries)


def _as_query(item: QueryLike) -> Query:
    if isinstance(item, Query):
        return item
    if isinstance(item, Triple):
        return Query(item.head, item.relation, item.tail)
    raise TypeError(f"expected a Query or Triple, got {type(item).__name__}")
