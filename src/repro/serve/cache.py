"""LRU caches for the hot query path.

Beam search touches the same entities over and over: serving traffic is
skewed towards popular heads, and every branch expansion rebuilds the action
space and the stacked ``[relation ; entity]`` action-embedding matrix of the
entity it sits on.  Both are pure functions of the entity (given a fixed
graph and fixed embeddings), so a per-reasoner LRU cache removes them from
the per-query cost.  ``fit`` and checkpoint loading invalidate the cache by
constructing a fresh one.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.rl.environment import EpisodeState, MKGEnvironment, Query
from repro.rl.policy import stack_action_embeddings
from repro.utils.lru import LRUCache

__all__ = ["ActionSpaceCache"]


class ActionSpaceCache:
    """Caches action spaces and stacked action-embedding matrices per entity.

    The cache respects environment subclasses that override
    ``available_actions`` (e.g. FIRE's embedding-pruned environment): their
    action space may depend on the query, so the key widens to
    ``(entity, query source, query relation)``.  Step-0 answer-edge masking is
    applied *after* retrieval so the cache never mixes masked and unmasked
    spaces.
    """

    def __init__(
        self,
        environment: MKGEnvironment,
        relation_embeddings: np.ndarray,
        entity_embeddings: np.ndarray,
        maxsize: int = 4096,
    ):
        self.environment = environment
        self._relation_embeddings = relation_embeddings
        self._entity_embeddings = entity_embeddings
        self._query_dependent = (
            type(environment).available_actions is not MKGEnvironment.available_actions
        )
        self.actions_cache: LRUCache[tuple, List[Tuple[int, int]]] = LRUCache(maxsize)
        self.matrix_cache: LRUCache[tuple, np.ndarray] = LRUCache(maxsize)

    # ------------------------------------------------------------------- keys
    def _key(self, entity: int, query: Query) -> tuple:
        if self._query_dependent:
            return (entity, query.source, query.relation)
        return (entity,)

    def _cache_key(self, state: EpisodeState) -> Optional[tuple]:
        """The cache key for ``state``, or ``None`` when it must not be cached.

        Step-0 answer-edge masking depends on the (training-only) gold
        answer; those lookups bypass the cache rather than key on it.
        """
        if (
            self.environment.mask_answer_edge
            and state.step == 0
            and state.query.answer >= 0
        ):
            return None
        return self._key(state.current_entity, state.query)

    # ---------------------------------------------------------------- lookups
    def actions(self, state: EpisodeState) -> List[Tuple[int, int]]:
        """The action space at ``state`` (masking applied on top of the cache)."""
        env = self.environment
        key = self._cache_key(state)
        if key is None:
            return env.available_actions(state)
        return self.actions_cache.get_or_compute(
            key, lambda: env.available_actions(state)
        )

    def action_matrix(
        self, state: EpisodeState, actions: List[Tuple[int, int]]
    ) -> np.ndarray:
        """The stacked ``[relation ; entity]`` rows for ``actions`` at ``state``."""
        key = self._cache_key(state)
        if key is None:
            return self._stack(actions)
        return self.matrix_cache.get_or_compute(key, lambda: self._stack(actions))

    def _stack(self, actions: List[Tuple[int, int]]) -> np.ndarray:
        return stack_action_embeddings(
            actions, self._relation_embeddings, self._entity_embeddings
        )

    # ------------------------------------------------------------------ stats
    def stats(self) -> dict:
        return {
            "actions_hits": self.actions_cache.hits,
            "actions_misses": self.actions_cache.misses,
            "matrix_hits": self.matrix_cache.hits,
            "matrix_misses": self.matrix_cache.misses,
        }

    def clear(self) -> None:
        self.actions_cache.clear()
        self.matrix_cache.clear()
