"""Supervised path-imitation warm start for RL reasoning agents.

Policy-gradient training from a random initialisation needs a very large
number of rollouts before the agent stumbles on rewarding paths, which is far
beyond what a laptop-scale reproduction can afford.  Standard practice in
path-based KG reasoning implementations is to warm-start the policy by
imitating demonstration paths extracted from the training graph (shortest
paths from the query source to the gold answer), and then fine-tune with
REINFORCE.

Every RL-based model in this reproduction — MMKGR, all its ablations, and the
RL baselines (MINERVA, FIRE, RLH) — shares the *same* warm start, so the
differences the experiments measure are attributable to the fusion network
and the reward design, not to the warm start itself.  See DESIGN.md.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.kg.graph import KnowledgeGraph, Triple
from repro.nn import Adam, clip_grad_norm
from repro.nn.tensor import concat
from repro.rl.batched_rollout import BatchedRolloutEngine
from repro.rl.environment import MKGEnvironment, Query
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, new_rng

if TYPE_CHECKING:
    from repro.core.model import MMKGRAgent

LOGGER = get_logger("rl.imitation")


@dataclass
class ImitationConfig:
    """Hyper-parameters of the supervised warm start."""

    epochs: int = 3
    batch_size: int = 32
    learning_rate: float = 5e-3
    grad_clip: float = 5.0
    max_demonstrations: Optional[int] = None
    seed: int = 23

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


def find_demonstration_path(
    graph: KnowledgeGraph,
    query: Query,
    max_steps: int,
    forbid_direct_edge: bool = True,
) -> Optional[List[Tuple[int, int]]]:
    """Shortest relation path from the query source to its answer (BFS).

    The direct edge ``(source, query relation, answer)`` is excluded when
    ``forbid_direct_edge`` is set, matching the environment's first-step mask,
    so demonstrations are genuine multi-hop (or alternative single-hop) paths.
    Returns ``None`` when no path of at most ``max_steps`` hops exists.
    """
    if query.source == query.answer:
        return []
    visited = {query.source}
    frontier = deque([(query.source, [])])
    while frontier:
        entity, path = frontier.popleft()
        if len(path) >= max_steps:
            continue
        for relation, neighbor in graph.outgoing_edges(entity):
            if (
                forbid_direct_edge
                and not path
                and relation == query.relation
                and neighbor == query.answer
            ):
                continue
            if neighbor in visited:
                continue
            new_path = path + [(relation, neighbor)]
            if neighbor == query.answer:
                return new_path
            visited.add(neighbor)
            frontier.append((neighbor, new_path))
    return None


class ImitationTrainer:
    """Teacher-forcing trainer of an :class:`~repro.core.model.MMKGRAgent`."""

    def __init__(
        self,
        agent: MMKGRAgent,
        environment: MKGEnvironment,
        config: Optional[ImitationConfig] = None,
        rng: SeedLike = None,
    ):
        self._engine = BatchedRolloutEngine(agent, environment)
        self.agent = agent
        self.environment = environment
        self.config = config or ImitationConfig()
        self.rng = new_rng(self.config.seed if rng is None else rng)
        self.optimizer = Adam(agent.parameters(), lr=self.config.learning_rate)

    # ------------------------------------------------------------ demonstrations
    def collect_demonstrations(
        self, triples: Sequence[Triple]
    ) -> List[Tuple[Query, List[Tuple[int, int]]]]:
        """Pair each training query with a shortest demonstration path."""
        demonstrations = []
        for triple in triples:
            query = Query(triple.head, triple.relation, triple.tail)
            path = find_demonstration_path(
                self.environment.graph, query, self.environment.max_steps
            )
            if path:
                demonstrations.append((query, path))
            if (
                self.config.max_demonstrations is not None
                and len(demonstrations) >= self.config.max_demonstrations
            ):
                break
        return demonstrations

    # ------------------------------------------------------------------ training
    def fit(self, triples: Sequence[Triple], verbose: bool = False) -> List[float]:
        """Teacher-force the agent on demonstration paths; returns epoch losses."""
        if self.config.epochs == 0:
            return []
        demonstrations = self.collect_demonstrations(triples)
        if not demonstrations:
            LOGGER.warning("no demonstration paths found; skipping imitation warm start")
            return []
        epoch_losses: List[float] = []
        for epoch in range(self.config.epochs):
            order = self.rng.permutation(len(demonstrations))
            total_loss = 0.0
            count = 0
            for start in range(0, len(demonstrations), self.config.batch_size):
                batch = [demonstrations[i] for i in order[start : start + self.config.batch_size]]
                loss_value = self._train_batch(batch)
                total_loss += loss_value
                count += 1
            epoch_losses.append(total_loss / max(1, count))
            if verbose:
                LOGGER.info(
                    "imitation epoch %d/%d loss %.4f",
                    epoch + 1,
                    self.config.epochs,
                    epoch_losses[-1],
                )
        return epoch_losses

    def _padded_path(self, query: Query, path) -> List[Tuple[int, int]]:
        """Extend a demonstration with NO_OP self-loops up to ``max_steps``.

        After the demonstration reaches the answer, the gold action for every
        remaining step is the NO_OP self-loop, which teaches the agent to stop
        once it has found the target.
        """
        no_op = self.environment.graph.no_op_relation_id
        padded_path = list(path)
        if no_op is not None:
            while len(padded_path) < self.environment.max_steps:
                padded_path.append(
                    (no_op, padded_path[-1][1] if padded_path else query.source)
                )
        return padded_path

    def _train_batch(self, batch) -> float:
        """Mean negative log-likelihood of the gold actions, one gather per depth."""
        self.optimizer.zero_grad()
        gathered = self._engine.teacher_force(
            [(query, self._padded_path(query, path)) for query, path in batch]
        )
        if not gathered:
            return 0.0
        log_probs = concat(gathered, axis=0)
        loss = -log_probs.sum() / len(log_probs)
        loss.backward()
        clip_grad_norm(self.agent.parameters(), self.config.grad_clip)
        self.optimizer.step()
        return float(loss.item())
