"""The benchmark's own seeded workload generator.

Everything a workload sends is drawn here from ``--seed``: arrival times
and ``(head, relation, k)`` queries.  The program under test receives only
these generated inputs; nothing here depends on ``repro.loadgen``, so a
change to the load generator cannot move the benchmark.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

Query = Tuple[int, int, int]  # (head, relation, k)

ANSWERS_K = 10
HOT_POOL_SIZE = 64
ZIPF_EXPONENT = 1.1
# The hot pool and its popularity ranks are part of the workload's
# definition, not of a run: a seed-dependent pool would make throughput
# depend on which 64 pairs a seed happened to pick.
HOT_POOL_SEED = 0

# Independent streams per purpose, so changing one draw never shifts another.
_SCHEDULE, _HOT_POOL, _HOT_DRAWS, _UNIFORM, _ORDER = range(5)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def arrival_schedule(seed: int, rate_qps: float, duration_s: float) -> np.ndarray:
    """Poisson arrival offsets (seconds from phase start) within ``duration_s``."""
    if rate_qps <= 0 or duration_s <= 0:
        raise ValueError("rate_qps and duration_s must be positive")
    rng = _rng(seed, _SCHEDULE)
    expected = int(rate_qps * duration_s)
    gaps = rng.exponential(1.0 / rate_qps, size=expected * 2 + 64)
    offsets = np.cumsum(gaps)
    return offsets[offsets < duration_s]


def hot_queries(seed: int, triples: np.ndarray, count: int) -> List[Query]:
    """Zipf-skewed draws over a small fixed pool of (head, relation) pairs.

    The pool holds :data:`HOT_POOL_SIZE` distinct pairs picked from the forward
    triples, so the engine's caches see a working set far below their size.
    ``seed`` drives the draws; the pool is fixed by :data:`HOT_POOL_SEED`.
    """
    pool_rng = _rng(HOT_POOL_SEED, _HOT_POOL)
    pairs = np.unique(np.asarray(triples)[:, :2], axis=0)
    picked = pairs[pool_rng.choice(len(pairs), size=HOT_POOL_SIZE, replace=False)]
    weights = 1.0 / np.arange(1, HOT_POOL_SIZE + 1) ** ZIPF_EXPONENT
    draws = _rng(seed, _HOT_DRAWS).choice(
        HOT_POOL_SIZE, size=count, p=weights / weights.sum()
    )
    return [(int(picked[i, 0]), int(picked[i, 1]), ANSWERS_K) for i in draws]


def uniform_queries(seed: int, triples: np.ndarray, count: int) -> List[Query]:
    """Heads and relations of forward triples drawn uniformly with replacement."""
    triples = np.asarray(triples)
    rows = _rng(seed, _UNIFORM).integers(0, len(triples), size=count)
    return [(int(triples[i, 0]), int(triples[i, 1]), ANSWERS_K) for i in rows]


def shuffled(seed: int, items: Sequence) -> list:
    """``items`` in a seed-determined order."""
    order = _rng(seed, _ORDER).permutation(len(items))
    return [items[i] for i in order]
