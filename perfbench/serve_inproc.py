"""serve-hot and serve-cold: an in-process ``ReasoningServer`` over a CSR graph.

Both workloads share one deployment (threads backend, one worker,
``max_batch_size`` 16, 2 ms ``max_wait_ms``) serving ``reasoner_over_graph``
over a seeded 100k-entity scale-free graph that is saved and mmap-loaded,
and one arrival schedule.  They differ only in which queries arrive: a
Zipf-skewed pool of 64 (head, relation) pairs (caches hit) or heads drawn
uniformly from all forward triples (caches miss).

Each run alternates two kinds of one-second window, driven from one
generator thread: open-loop Poisson arrivals at :data:`RATE_QPS` (latency,
timed from each request's due time) and a closed loop keeping 4 x
``max_batch_size`` requests outstanding (throughput).  Each metric is the
median over its windows.
"""

from __future__ import annotations

import gc
import os
import shutil
import threading
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import gen
from check import tally, tally_sample
from host import peak_rss_mb, reset_peak_rss
from report import Report
from stats import median, percentile, ratio
from spans import Target, Tracer

GRAPH_ENTITIES = 100_000
GRAPH_SEED = 7
MODEL_SEED = 7
MAX_BATCH = 16
MAX_WAIT_MS = 2.0
OUTSTANDING = 4 * MAX_BATCH
RATE_QPS = 150.0
SLO_MS = 10.0
SETUP_REPEATS = 3
WARMUP_QUERIES = 512
SAMPLE_CHECKS = 32
# Queries generated for the capacity windows per second of them; cycled if
# the program ever answers faster.
CAPACITY_QUERIES_PER_S = 3000
RESULT_TIMEOUT_S = 60.0
WINDOW_S = 1.0


@dataclass
class Sent:
    """One submitted request and its timestamps (``perf_counter`` seconds)."""

    query: Tuple[int, int, int]
    due: float
    sent: float
    future: object = None
    done: Optional[float] = None
    ok: bool = False  # answered, and the answer passed every check


class Deployment:
    """The graph on disk, its mmap view, the reasoner and the running server."""

    def __init__(self, directory: Path):
        from repro.kg.csr import CSRKnowledgeGraph
        from repro.kg.synthetic import ScaleFreeKGConfig, generate_scale_free_graph
        from repro.serve import ReasoningServer, ServeConfig
        from repro.serve.reasoner import reasoner_over_graph

        self.directory = directory
        built = generate_scale_free_graph(
            ScaleFreeKGConfig(num_entities=GRAPH_ENTITIES, seed=GRAPH_SEED)
        )
        built.save(directory)
        del built
        self.graph = CSRKnowledgeGraph.load(directory)
        self.reasoner = reasoner_over_graph(self.graph, name="bench", rng=MODEL_SEED)
        self.server = ReasoningServer(
            self.reasoner,
            config=ServeConfig(
                workers=1, max_batch_size=MAX_BATCH, max_wait_ms=MAX_WAIT_MS
            ),
        ).start()

    def warm(self, queries: Sequence[Tuple[int, int, int]]) -> None:
        for start in range(0, len(queries), MAX_BATCH):
            chunk = queries[start : start + MAX_BATCH]
            self.reasoner.query_batch([(h, r) for h, r, _ in chunk], k=gen.ANSWERS_K)

    def close(self) -> None:
        self.server.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def _queries(workload: str, seed: int, triples, count: int):
    if workload == "serve-hot":
        return gen.hot_queries(seed, triples, count)
    return gen.uniform_queries(seed, triples, count)


def _finish(record: Sent, slots: Optional[threading.Semaphore], future) -> None:
    record.done = time.perf_counter()
    if slots is not None:
        slots.release()


def _submit(server, record: Sent, slots=None) -> Sent:
    head, relation, k = record.query
    record.future = server.submit(head, relation, k=k)
    record.future.add_done_callback(partial(_finish, record, slots))
    return record


def _wait(records: Sequence[Sent]) -> None:
    for record in records:
        try:
            record.future.result(timeout=RESULT_TIMEOUT_S)
        except Exception:  # counted as a failed operation by _check
            pass


def open_loop(server, offsets, queries) -> Tuple[List[Sent], float]:
    """Send ``queries[i]`` at ``offsets[i]`` regardless of completions."""
    records = []
    start = time.perf_counter() + 0.01
    for offset, query in zip(offsets, queries):
        due = start + float(offset)
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        records.append(_submit(server, Sent(query, due, time.perf_counter())))
    _wait(records)
    return records, start


def closed_loop(
    server, queries, duration_s: float, first: int = 0
) -> Tuple[List[Sent], float]:
    """Keep :data:`OUTSTANDING` requests in flight for ``duration_s``.

    Sends ``queries[first:]``, cycling if the window outlasts them, and
    returns once every sent request has been answered.
    """
    slots = threading.Semaphore(OUTSTANDING)
    records = []
    start = time.perf_counter()
    end = start + duration_s
    index = first
    while True:
        now = time.perf_counter()
        if now >= end or not slots.acquire(timeout=end - now):
            break
        query = queries[index % len(queries)]
        index += 1
        now = time.perf_counter()
        records.append(_submit(server, Sent(query, now, now), slots))
    _wait(records)
    return records, start


def _latency_window(records: Sequence[Sent]) -> Tuple:
    """(p50 ms, p90 ms, share answered correctly within :data:`SLO_MS`)."""
    latencies = [
        1000.0 * (r.done - r.due) if r.done is not None else float("inf") for r in records
    ]
    within = sum(1 for r, ms in zip(records, latencies) if r.ok and ms <= SLO_MS)
    return percentile(latencies, 0.5), percentile(latencies, 0.9), ratio(within, len(records))


def _last_done(records: Sequence[Sent]) -> float:
    """When the last answer of a phase arrived (its requests drain past the end)."""
    return max(r.done for r in records if r.done is not None)


def _outcomes(records: Sequence[Sent]) -> list:
    outcomes = []
    for record in records:
        try:
            outcomes.append((record.query, record.future.result(timeout=0), None))
        except Exception as error:  # unanswered in time, or a server-side failure
            outcomes.append((record.query, None, f"{type(error).__name__}: {error}"))
    return outcomes


def _settle(report: Report, graph, records: Sequence[Sent], sample: list) -> None:
    """Check one window's answers, keep the verdicts and drop the answers.

    Answers are checked between windows, not at the end, so the benchmark's
    own bookkeeping stays small next to the program's memory.  The first
    :data:`SAMPLE_CHECKS` answers are kept in ``sample`` for the comparison
    with a direct query once the server has stopped.
    """
    outcomes = _outcomes(records)
    for record, ok in zip(records, tally(report, graph, outcomes)):
        record.ok = ok
        record.future = None
    sample.extend(o for o in outcomes[: SAMPLE_CHECKS - len(sample)] if o[2] is None)


def _add_stages(layers: dict, server, count: int, histogram_before: dict) -> None:
    """Accumulate the batcher's stage samples and batch sizes of one window."""
    time.sleep(0.01)  # the worker records a batch's stages just after answering it
    stats = server.stats
    for stage, values in stats.stage_samples().items():
        layers["stages"].setdefault(stage, []).extend(values[-count:] if count else [])
    for size, n in stats.batch_size_histogram.items():
        added = n - histogram_before.get(size, 0)
        layers["sizes"][size] = layers["sizes"].get(size, 0) + added


def _add_counts(total: dict, counts: dict) -> None:
    for key, value in counts.items():
        total[key] = total.get(key, 0) + value


def _cache_counts(deployment: Deployment) -> dict:
    """Cache hit/miss counters, for the layers that still have caches."""
    stats = getattr(deployment.reasoner, "cache_stats", None)
    counts = dict(stats()) if callable(stats) else {}
    rows = getattr(deployment.graph, "row_cache_stats", None)
    if callable(rows):
        row_stats = rows()
        counts["row_hits"] = row_stats.get("hits", 0)
        counts["row_misses"] = row_stats.get("misses", 0)
    return counts


def _hit_ratio(before: dict, after: dict, prefix: str) -> float:
    hits = after.get(f"{prefix}_hits", 0) - before.get(f"{prefix}_hits", 0)
    misses = after.get(f"{prefix}_misses", 0) - before.get(f"{prefix}_misses", 0)
    return ratio(hits, hits + misses)


TARGETS = (
    Target("repro.serve.reasoner", "Reasoner.query_batch", "reasoner.query_batch"),
    Target(
        "repro.serve.engine",
        "BatchBeamSearch.run",
        "engine.run",
        lambda args, result: {"queries": len(args[1])},
    ),
    Target("repro.serve.cache", "ActionSpaceCache.actions", "cache.actions"),
    Target("repro.serve.cache", "ActionSpaceCache.action_matrix", "cache.action_matrix"),
    Target("repro.nn.batched", "BatchedFusion.fuse", "nn.fuse"),
    Target("repro.nn.batched", "BatchedLSTM.step", "nn.lstm"),
    Target("repro.serve.engine", "stable_softmax", "nn.softmax"),
    Target(
        "repro.rl.policy",
        "PolicyNetwork.project_batch",
        "policy.project",
        lambda args, result: {"branches": len(args[1])},
    ),
)


def engine_layers(tracer: Tracer) -> dict:
    """Per-layer split of the traced beam-search calls, per 1000 queries."""
    queries = tracer.counters.get("queries", 0.0)
    kq = queries / 1000.0

    def per_kq(*names: str) -> float:
        return ratio(sum(tracer.total(name) for name in names), kq)

    reasoner = tracer.named("reasoner.query_batch")
    assembly = sum(span.duration for span in reasoner) - tracer.total("engine.run")
    return {
        "reasoner.assembly_s_per_kq": ratio(assembly, kq) if reasoner else 0.0,
        "engine.self_s_per_kq": ratio(tracer.self_total("engine.run"), kq),
        "engine.branches_per_query": ratio(tracer.counters.get("branches", 0.0), queries),
        "nn.fuse_s_per_kq": per_kq("nn.fuse"),
        "nn.lstm_s_per_kq": per_kq("nn.lstm"),
        "nn.softmax_s_per_kq": per_kq("nn.softmax"),
        "nn.softmax_calls_per_query": ratio(len(tracer.named("nn.softmax")), queries),
        "policy.project_s_per_kq": per_kq("policy.project"),
        "cache.lookup_s_per_kq": per_kq("cache.actions", "cache.action_matrix"),
    }


def _set_up(workload: str, seed: int, seconds: float, workdir: Path, repeats: int):
    """Build the deployment ``repeats`` times (keeping the last); time each.

    Returns ``(deployment, setup seconds, arrival offsets, queries)``; the
    first :data:`WARMUP_QUERIES` queries have already warmed the caches.
    """
    setups = []
    deployment = None
    try:
        for index in range(repeats):
            if deployment is not None:
                deployment.close()
                deployment = None
            start = time.perf_counter()
            deployment = Deployment(workdir / f"graph-{index}")
            built = time.perf_counter() - start
            # Generating the inputs is the benchmark's work, not the program's.
            offsets = gen.arrival_schedule(seed, RATE_QPS, seconds / 2.0)
            count = WARMUP_QUERIES + len(offsets) + int(CAPACITY_QUERIES_PER_S * seconds / 2.0)
            queries = _queries(workload, seed, deployment.graph.triples_array(), count)
            start = time.perf_counter()
            deployment.warm(queries[:WARMUP_QUERIES])
            setups.append(built + time.perf_counter() - start)
    except BaseException:
        if deployment is not None:
            deployment.close()
        raise
    return deployment, setups, offsets, queries


@dataclass
class Window:
    """One one-second stretch of one phase, and what it sent."""

    records: List[Sent]
    start: float
    traced: bool = False


def measure(
    deployment: Deployment, offsets, open_queries, capacity_queries, seconds, tracer, report
):
    """Alternate one-second open-loop and capacity windows for ``seconds``.

    Interleaving the phases, and reporting medians over windows, keeps a
    slow stretch of the host (a noisy neighbour, a collector pause) from
    landing on one phase only or moving a whole run's figures.  With a
    ``tracer``, every second capacity window runs traced; the returned dict
    holds the per-layer counters gathered around the open-loop and traced
    windows.  Returns the windows, those counters and the answers kept for
    the sample check.
    """
    server = deployment.server
    opened: List[Window] = []
    capacity: List[Window] = []
    layers = {"stages": {}, "sizes": {}, "before": {}, "after": {}}
    sample: list = []
    arrived = sent = 0
    for index in range(max(1, int(seconds / 2.0 // WINDOW_S))):
        low, high = index * WINDOW_S, (index + 1) * WINDOW_S
        segment = offsets[(offsets >= low) & (offsets < high)] - low
        histogram = dict(server.stats.batch_size_histogram)
        records, start = open_loop(server, segment, open_queries[arrived:])
        arrived += len(records)
        opened.append(Window(records, start))
        if tracer is not None:
            _add_stages(layers, server, len(records), histogram)
        _settle(report, deployment.graph, records, sample)
        traced = tracer is not None and index % 2 == 1
        if traced:
            _add_counts(layers["before"], _cache_counts(deployment))
            tracer.install(TARGETS)
        try:
            records, start = closed_loop(server, capacity_queries, WINDOW_S, first=sent)
        finally:
            if traced:
                tracer.uninstall()
                _add_counts(layers["after"], _cache_counts(deployment))
        sent += len(records)
        _settle(report, deployment.graph, records, [])
        capacity.append(Window(records, start, traced))
    return opened, capacity, layers, sample


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Report:
    report = Report()
    deployment, setups, offsets, queries = _set_up(
        workload, seed, seconds, workdir, 1 if trace else SETUP_REPEATS
    )
    tracer = Tracer() if trace else None
    try:
        open_queries = queries[WARMUP_QUERIES : WARMUP_QUERIES + len(offsets)]
        capacity_queries = queries[WARMUP_QUERIES + len(offsets) :]
        gc.collect()  # discarded set-ups must not count towards the peak
        reset_peak_rss([os.getpid()])
        opened, capacity, layers, sample = measure(
            deployment, offsets, open_queries, capacity_queries, seconds, tracer, report
        )
        rss_mb = peak_rss_mb([os.getpid()])
        deployment.server.close()
        tally_sample(report, deployment.reasoner, sample, SAMPLE_CHECKS)
    finally:
        deployment.close()

    all_opened = [r for w in opened for r in w.records]
    latencies = [_latency_window(w.records) for w in opened]
    rates = [
        (sum(r.ok for r in w.records) / (_last_done(w.records) - w.start), w) for w in capacity
    ]
    report.samples = {
        "open_loop": len(all_opened),
        "capacity": sum(len(w.records) for w in capacity),
        "windows": len(opened),
    }
    if not trace:
        report.metrics = {
            "setup_s": median(setups),
            "throughput_qps": median([rate for rate, _ in rates]),
            "latency_p50_ms": median([w[0] for w in latencies]),
            "latency_p90_ms": median([w[1] for w in latencies]),
            "slo_ok_ratio": median([w[2] for w in latencies]),
            "rss_mb": rss_mb,
        }
        return report

    before, after = layers["before"], layers["after"]
    kq = tracer.counters.get("queries", 0.0) / 1000.0
    stages, sizes = layers["stages"], layers["sizes"]
    report.metrics = {
        "driver.lag_ms_p99": percentile([1000.0 * (r.sent - r.due) for r in all_opened], 0.99),
        "tail.latency_p99_ms": percentile(
            [1000.0 * (r.done - r.due) for r in all_opened if r.done is not None], 0.99
        ),
        "batcher.queue_wait_ms_p50": 1000.0 * median(stages.get("queue_wait", [])),
        "batcher.batch_wait_ms_p50": 1000.0 * median(stages.get("batch_wait", [])),
        "batcher.batch_size_mean": ratio(
            sum(size * n for size, n in sizes.items()), sum(sizes.values())
        ),
        **engine_layers(tracer),
        "cache.actions_hit_ratio": _hit_ratio(before, after, "actions"),
        "cache.matrix_hit_ratio": _hit_ratio(before, after, "matrix"),
        "csr.row_hit_ratio": _hit_ratio(before, after, "row"),
        "csr.rows_materialized_per_kq": ratio(
            after.get("row_misses", 0) - before.get("row_misses", 0), kq
        ),
        "trace.overhead_ratio": ratio(
            median([rate for rate, w in rates if w.traced]),
            median([rate for rate, w in rates if not w.traced]),
        ),
    }
    report.notes["trace_missing"] = tracer.missing
    report.tracer = tracer
    return report
