"""Graph-backend scale: CSR build throughput, mmap footprint, query QPS.

The CSR backend's claim is that million-entity graphs fit the serving box:
int32 adjacency arrays build in seconds, persist as ``.npy`` files, and load
back memory-mapped so the resident set stays bounded by what queries touch,
not by graph size.  This benchmark builds a 100k-entity scale-free graph
(``REPRO_BENCH_SCALE`` grows it), round-trips it through ``save``/``load``,
answers a batched beam-search workload through an untrained reasoner over the
memory-mapped arrays, and ships three headline numbers:

* ``kg_build_entities_per_s`` — synthetic build throughput (floor-guarded);
* ``kg_query_qps``            — beam-search queries/s over mmap CSR (floor);
* ``kg_rss_mb``               — process RSS after the query replay, the first
  footprint ceiling in the baseline (``"direction": "lower"``).

The full 10^6-entity acceptance run is too heavy for every CI invocation;
set ``REPRO_KG_MILLION=1`` to run it (build + save + mmap load + batched
queries with peak RSS asserted under 4 GB).

A machine-readable report lands in ``BENCH_kg_scale_report.json`` next to the
pytest-benchmark JSON so the CI artifact glob picks both up.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
from common import BENCH_SCALE, format_table, run_once

from repro.kg.csr import CSRKnowledgeGraph
from repro.kg.synthetic import ScaleFreeKGConfig, generate_scale_free_graph
from repro.serve.reasoner import reasoner_over_graph

ENTITIES = max(10_000, int(100_000 * BENCH_SCALE))
RELATIONS = 24
AVG_DEGREE = 8.0
QUERY_COUNT = 64
RSS_CEILING_MB = 4096.0  # the PR's acceptance bar, asserted at every scale
REPORT_FILE = "BENCH_kg_scale_report.json"


def _rss_mb() -> float:
    """Current resident set size in MiB (Linux /proc; getrusage fallback)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    # ru_maxrss is the *peak* in KiB on Linux — a conservative stand-in.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _query_workload(graph, count: int):
    """(head, relation) pairs drawn from real forward triples, hubs first."""
    triples = graph.triples_array()
    step = max(1, len(triples) // count)
    return [
        (int(head), int(relation)) for head, relation, _ in triples[::step][:count]
    ]


def _build_save_load(config: ScaleFreeKGConfig, directory: Path):
    """Build, persist, and mmap-reload one synthetic graph; return timings."""
    start = time.perf_counter()
    graph = generate_scale_free_graph(config)
    build_s = time.perf_counter() - start

    start = time.perf_counter()
    graph.save(directory)
    save_s = time.perf_counter() - start

    start = time.perf_counter()
    mapped = CSRKnowledgeGraph.load(directory)
    load_s = time.perf_counter() - start
    return graph, mapped, build_s, save_s, load_s


def _replay_queries(mapped, count: int):
    """Answer a batched beam-search workload over the mmap graph; return QPS."""
    reasoner = reasoner_over_graph(mapped, name="kg-scale", rng=7)
    queries = _query_workload(mapped, count)
    reasoner.query_batch(queries[:8], k=5)  # warm the engine up
    start = time.perf_counter()
    batches = reasoner.query_batch(queries, k=5)
    elapsed = time.perf_counter() - start
    assert len(batches) == len(queries)
    assert all(predictions for predictions in batches)
    return len(queries) / elapsed


def test_kg_scale_build_and_query(benchmark, tmp_path):
    config = ScaleFreeKGConfig(
        num_entities=ENTITIES,
        num_relations=RELATIONS,
        avg_degree=AVG_DEGREE,
        seed=7,
    )
    graph, mapped, build_s, save_s, load_s = run_once(
        benchmark, lambda: _build_save_load(config, tmp_path / "kg")
    )
    qps = _replay_queries(mapped, QUERY_COUNT)
    rss_mb = _rss_mb()

    stats = graph.statistics()
    entities_per_s = ENTITIES / build_s
    benchmark.extra_info["kg_build_entities_per_s"] = round(entities_per_s, 1)
    benchmark.extra_info["kg_query_qps"] = round(qps, 2)
    benchmark.extra_info["kg_rss_mb"] = round(rss_mb, 1)
    benchmark.extra_info["kg_entities"] = ENTITIES
    benchmark.extra_info["kg_forward_triples"] = stats["forward_triples"]
    benchmark.extra_info["kg_array_mb"] = stats["array_mb"]

    print()
    print(
        format_table(
            ["stage", "measure"],
            [
                ["build", f"{build_s:.2f} s ({entities_per_s:,.0f} entities/s)"],
                ["save", f"{save_s:.2f} s ({stats['array_mb']:.1f} MB of arrays)"],
                ["mmap load", f"{load_s * 1000:.1f} ms"],
                ["beam search", f"{qps:.1f} qps over {QUERY_COUNT} queries"],
                ["process RSS", f"{rss_mb:.0f} MB (ceiling {RSS_CEILING_MB:.0f})"],
            ],
            title=f"CSR scale — {ENTITIES:,} entities, "
            f"{stats['forward_triples']:,} forward triples, "
            f"degree p99 {stats['degree_p99']:.0f}",
        )
    )

    report = {
        "entities": ENTITIES,
        "forward_triples": stats["forward_triples"],
        "build_s": round(build_s, 3),
        "save_s": round(save_s, 3),
        "mmap_load_s": round(load_s, 4),
        "query_qps": round(qps, 2),
        "rss_mb": round(rss_mb, 1),
        "array_mb": stats["array_mb"],
        "degree_p99": stats["degree_p99"],
        "bench_scale": BENCH_SCALE,
    }
    Path(REPORT_FILE).write_text(json.dumps(report, indent=2), encoding="utf-8")

    # Memory-mapped loading must not materialize the arrays eagerly.
    assert isinstance(mapped._adj_tails, np.memmap)
    assert mapped.num_triples == graph.num_triples
    assert rss_mb < RSS_CEILING_MB
    assert qps >= 1.0, f"beam search over mmap CSR too slow: {qps:.2f} qps"


@pytest.mark.skipif(
    os.environ.get("REPRO_KG_MILLION") != "1",
    reason="10^6-entity acceptance run; set REPRO_KG_MILLION=1 to enable",
)
def test_kg_scale_million_entities(tmp_path):
    """The PR's acceptance criterion: 1M entities, queries answered, RSS < 4 GB."""
    config = ScaleFreeKGConfig(
        num_entities=1_000_000,
        num_relations=RELATIONS,
        avg_degree=AVG_DEGREE,
        seed=7,
    )
    graph, mapped, build_s, _, _ = _build_save_load(config, tmp_path / "kg")
    qps = _replay_queries(mapped, 32)
    rss_mb = _rss_mb()
    print(
        f"\n1M-entity run: build {build_s:.1f}s, "
        f"{graph.num_triples:,} triples, {qps:.1f} qps, RSS {rss_mb:.0f} MB"
    )
    assert rss_mb < RSS_CEILING_MB
    assert qps >= 0.5
