"""Serving throughput: ``query_batch`` vs a sequential ``query`` loop.

The serving layer's claim is that answering a batch of queries with one
lockstep beam search (batched action-space reads and fusion/policy/LSTM
forward passes) is faster than looping ``query`` over the same traffic.
This microbenchmark trains one small MMKGR reasoner, replays a skewed
query workload both ways, verifies the rankings agree, and asserts the
batched path wins.
"""

from __future__ import annotations

import time

from common import WN9, bench_preset, format_table

from repro.kg.datasets import build_named_dataset
from repro.serve import Reasoner

QUERY_COUNT = 64


def _workload(dataset, count: int):
    triples = dataset.splits.test + dataset.splits.valid
    queries = [(t.head, t.relation) for t in triples]
    # Serving traffic repeats popular heads; cycle the split if it is short.
    while len(queries) < count:
        queries = queries + queries
    return queries[:count]


def test_query_batch_beats_sequential_loop(benchmark):
    preset = bench_preset("serve-throughput")
    dataset = build_named_dataset(WN9, scale=preset.dataset_scale, seed=7)
    reasoner = Reasoner(preset=preset, rng=7).fit(dataset)
    queries = _workload(dataset, QUERY_COUNT)

    # Warm the engine up for both measurements so the comparison isolates
    # batching, not first-call costs.
    reasoner.query_batch(queries[:8], k=5)

    # Best-of-2 per path: a single noisy scheduling hiccup on a shared
    # runner must not decide the comparison.
    def time_once(fn):
        start = time.perf_counter()
        result = fn()
        return time.perf_counter() - start, result

    sequential_s, sequential = min(
        (time_once(lambda: [reasoner.query(h, r, k=5) for h, r in queries])
         for _ in range(2)),
        key=lambda item: item[0],
    )
    batched_s, batched = min(
        (time_once(lambda: reasoner.query_batch(queries, k=5)) for _ in range(2)),
        key=lambda item: item[0],
    )
    benchmark.pedantic(
        lambda: reasoner.query_batch(queries, k=5), rounds=1, iterations=1
    )

    throughput_seq = len(queries) / sequential_s
    throughput_batch = len(queries) / batched_s
    # Headline number guarded by the benchmark-regression CI step.
    benchmark.extra_info["batch_speedup"] = round(sequential_s / batched_s, 3)
    print()
    print(
        format_table(
            ["path", "wall clock (s)", "queries/s"],
            [
                ["sequential query() loop", f"{sequential_s:.3f}", f"{throughput_seq:.1f}"],
                ["query_batch()", f"{batched_s:.3f}", f"{throughput_batch:.1f}"],
                ["speedup", f"{sequential_s / batched_s:.2f}x", ""],
            ],
            title=f"serving throughput — {len(queries)} queries, beam width "
            f"{reasoner.engine.beam_width}",
        )
    )

    # Same engine, same caches: the rankings must agree exactly.
    for per_query_sequential, per_query_batched in zip(sequential, batched):
        assert [p.entity for p in per_query_sequential] == [
            p.entity for p in per_query_batched
        ]
    # The acceptance bar: batching across queries beats the sequential loop.
    assert batched_s < sequential_s, (
        f"query_batch ({batched_s:.3f}s) should beat the sequential loop "
        f"({sequential_s:.3f}s) on {len(queries)} queries"
    )
