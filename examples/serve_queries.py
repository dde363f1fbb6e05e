"""Serving walkthrough: train once, then answer query traffic.

Run with::

    PYTHONPATH=src python examples/serve_queries.py

The script trains one MMKGR reasoner on a small synthetic dataset, answers a
single ``(head, relation, ?)`` query with its reasoning paths, replays a
batch of queries through the vectorized ``query_batch`` path (timing it
against a sequential loop), and round-trips the reasoner through
``save``/``load_reasoner`` to show that serving needs no retraining.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro import Reasoner, build_named_dataset, fast_preset, load_reasoner
from repro.utils.tables import format_table


def main() -> None:
    print("Training an MMKGR reasoner (train once) ...")
    dataset = build_named_dataset("wn9-img-txt", scale=0.4, seed=7)
    reasoner = Reasoner(preset=fast_preset(), rng=7).fit(dataset)

    # --- one query, with provenance -------------------------------------
    triple = dataset.splits.test[0]
    graph = dataset.graph
    head = graph.entities.symbol(triple.head)
    relation = graph.relations.symbol(triple.relation)
    print(f"\nQuery: ({head}, {relation}, ?)")
    rows = [
        [rank, p.entity_name, f"{p.score:.3f}", p.hops, p.render_path()]
        for rank, p in enumerate(reasoner.query(head, relation, k=5), start=1)
    ]
    print(format_table(["rank", "entity", "score", "hops", "path"], rows))

    # --- query many times: batched vs sequential ------------------------
    queries = [(t.head, t.relation) for t in dataset.splits.test[:48]]
    reasoner.query_batch(queries[:4])  # warm-up: first-call allocations

    start = time.perf_counter()
    for query_head, query_relation in queries:
        reasoner.query(query_head, query_relation, k=5)
    sequential_s = time.perf_counter() - start

    start = time.perf_counter()
    reasoner.query_batch(queries, k=5)
    batched_s = time.perf_counter() - start

    print(
        f"\n{len(queries)} queries — sequential: {sequential_s * 1000:.0f} ms, "
        f"batched: {batched_s * 1000:.0f} ms "
        f"({sequential_s / batched_s:.1f}x faster)"
    )

    # --- persist and serve from a fresh process -------------------------
    with tempfile.TemporaryDirectory() as directory:
        saved = reasoner.save(Path(directory) / "mmkgr")
        restored = load_reasoner(saved)
        answer = restored.query(head, relation, k=1)
        print(
            f"\nrestored reasoner answers ({head}, {relation}, ?) -> "
            f"{answer[0].entity_name if answer else 'nothing reached'}"
        )


if __name__ == "__main__":
    main()
