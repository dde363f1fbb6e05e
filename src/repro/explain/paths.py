"""Symbolic reasoning paths.

A reasoning path is the sequence of ``(relation, entity)`` steps an agent
walked from the query's source entity to the entity it predicts.  The RL
machinery works on integer ids; this module resolves those ids back to the
graph's symbols so paths can be shown to a person, compared across queries,
and aggregated into rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.kg.graph import (
    NO_OP_RELATION,
    KnowledgeGraph,
    inverse_relation_name,
    is_inverse_relation,
)
from repro.rl.environment import Query


def display_relation(name: str) -> str:
    """Relation label with the inverse marker rendered as ``^-1``."""
    if is_inverse_relation(name):
        return f"{inverse_relation_name(name)}^-1"
    return name


@dataclass(frozen=True)
class PathStep:
    """One traversed edge of a reasoning path."""

    relation_id: int
    entity_id: int
    relation_name: str
    entity_name: str

    @property
    def is_no_op(self) -> bool:
        """Whether this step is the STOP self-loop rather than a real hop."""
        return self.relation_name == NO_OP_RELATION

    @property
    def is_inverse(self) -> bool:
        """Whether the step traverses an edge against its stored direction."""
        return is_inverse_relation(self.relation_name)

    @property
    def display_relation(self) -> str:
        """Relation label with the inverse marker rendered as ``^-1``."""
        return display_relation(self.relation_name)

    def to_dict(self) -> Dict[str, object]:
        return {
            "relation_id": self.relation_id,
            "entity_id": self.entity_id,
            "relation": self.relation_name,
            "entity": self.entity_name,
            "is_inverse": self.is_inverse,
            "is_no_op": self.is_no_op,
        }


@dataclass
class ReasoningPath:
    """A full reasoning path for one query, with its beam-search score."""

    source_id: int
    source_name: str
    query_relation_id: int
    query_relation_name: str
    steps: List[PathStep] = field(default_factory=list)
    score: float = 0.0

    # ------------------------------------------------------------- structure
    @property
    def reached_entity_id(self) -> int:
        """Id of the entity the path ends at (the source if the path is empty)."""
        for step in reversed(self.steps):
            return step.entity_id
        return self.source_id

    @property
    def reached_entity_name(self) -> str:
        for step in reversed(self.steps):
            return step.entity_name
        return self.source_name

    @property
    def hops(self) -> int:
        """Number of real hops (STOP self-loops are not hops)."""
        return sum(1 for step in self.steps if not step.is_no_op)

    def real_steps(self) -> List[PathStep]:
        """The steps excluding STOP self-loops."""
        return [step for step in self.steps if not step.is_no_op]

    def relation_signature(self) -> Tuple[str, ...]:
        """The ordered relation labels of the real hops.

        This is the symbolic "rule body" the path instantiates — e.g.
        ``("Heroine", "Played_by")`` for the paper's Kate Winslet example —
        and the unit that :mod:`repro.explain.rules` aggregates over.
        """
        return tuple(step.display_relation for step in self.real_steps())

    # -------------------------------------------------------------- rendering
    def render(self, arrow: str = " --{relation}--> ") -> str:
        """Human-readable rendering, e.g. ``alice --works_for--> acme``."""
        parts = [self.source_name]
        for step in self.real_steps():
            parts.append(arrow.format(relation=step.display_relation))
            parts.append(step.entity_name)
        if len(parts) == 1:
            parts.append(" (no hops: the agent stayed at the source)")
        return "".join(parts)

    def to_dict(self) -> Dict[str, object]:
        return {
            "source": self.source_name,
            "query_relation": self.query_relation_name,
            "reached_entity": self.reached_entity_name,
            "hops": self.hops,
            "score": self.score,
            "steps": [step.to_dict() for step in self.steps],
            "rendered": self.render(),
        }

    def __str__(self) -> str:  # pragma: no cover - convenience only
        return self.render()


def path_from_steps(
    graph: KnowledgeGraph,
    query: Query,
    steps: Sequence[Tuple[int, int]],
    score: float = 0.0,
) -> ReasoningPath:
    """Resolve raw ``(relation_id, entity_id)`` steps into a :class:`ReasoningPath`.

    ``steps`` is the ``path`` attribute of an :class:`EpisodeState` or an entry
    of ``BeamSearchResult.paths``.
    """
    resolved = [
        PathStep(
            relation_id=relation,
            entity_id=entity,
            relation_name=graph.relations.symbol(relation),
            entity_name=graph.entities.symbol(entity),
        )
        for relation, entity in steps
    ]
    return ReasoningPath(
        source_id=query.source,
        source_name=graph.entities.symbol(query.source),
        query_relation_id=query.relation,
        query_relation_name=graph.relations.symbol(query.relation),
        steps=resolved,
        score=float(score),
    )


def paths_from_beam(
    graph: KnowledgeGraph,
    query: Query,
    entity_log_probs: Dict[int, float],
    entity_paths: Dict[int, Sequence[Tuple[int, int]]],
    top_k: Optional[int] = None,
) -> List[ReasoningPath]:
    """Build the ranked reasoning paths of a beam-search result.

    The paths are ordered by descending score; ``top_k`` truncates the list.
    """
    ranked = sorted(entity_log_probs.items(), key=lambda kv: kv[1], reverse=True)
    if top_k is not None:
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        ranked = ranked[:top_k]
    paths = []
    for entity, score in ranked:
        steps = entity_paths.get(entity, [])
        paths.append(path_from_steps(graph, query, steps, score=score))
    return paths
