"""serve-http: ``mmkgr serve`` as a subprocess, driven over keep-alive HTTP.

Set-up trains a small model through the repo's API, publishes it to a
temporary registry and launches ``python -m repro serve --backend processes
--workers 1``, so the client never shares the server's interpreter lock.
Load is a closed loop over two keep-alive HTTP/1.1 connections from this
process.  The engine work per query is tiny here: this workload measures
the HTTP handler, the JSON path, ``procpool`` IPC and the arena-mapped worker.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Tuple

import gen
from check import tally, tally_sample
from host import peak_rss_mb, reset_peak_rss
from report import Report
from spans import read_spans, self_times
from stats import median, percentile, ratio

DATASET = "wn9-img-txt"
DATASET_SCALE = 1.0
SEED = 7
MODEL = "mmkgr"
CONNECTIONS = 2
MAX_BATCH = 16
MAX_WAIT_MS = 2.0
SLO_MS = 100.0
SETUP_REPEATS = 3
WARMUP_QUERIES = 32
SAMPLE_CHECKS = 32
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0
QUERY_PATH = f"/v1/models/{MODEL}/query"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def train_and_publish(registry: Path):
    """A small MMKGR model trained with the repo's API, published as ``mmkgr``."""
    from repro import build_named_dataset
    from repro.core.config import fast_preset
    from repro.core.trainer import MMKGRPipeline
    from repro.rl.imitation import ImitationConfig
    from repro.rl.reinforce import ReinforceConfig

    dataset = build_named_dataset(DATASET, scale=DATASET_SCALE, seed=SEED)
    preset = fast_preset("bench-http")
    preset = replace(
        preset,
        imitation=ImitationConfig(epochs=1, batch_size=32, learning_rate=8e-3),
        reinforce=ReinforceConfig(epochs=1, batch_size=64, learning_rate=3e-3),
        embedding=replace(preset.embedding, epochs=5),
    )
    pipeline = MMKGRPipeline(dataset, preset=preset, rng=SEED)
    pipeline.train()
    pipeline.publish(str(registry), name=MODEL)
    return dataset


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """One ``mmkgr serve`` subprocess (optionally under the tracing launcher)."""

    def __init__(self, registry: Path, workdir: Path, spans_file: Optional[Path] = None):
        self.port = _free_port()
        serve = [
            "serve",
            "--registry", str(registry),
            "--backend", "processes",
            "--workers", "1",
            "--port", str(self.port),
            "--max-batch-size", str(MAX_BATCH),
            "--max-wait-ms", str(MAX_WAIT_MS),
        ]
        if spans_file is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            launcher = str(HERE / "launch_server.py")
            command = [sys.executable, launcher, str(spans_file), "--", *serve]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.log = open(workdir / f"server-{self.port}.log", "w+", encoding="utf-8")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=self.log, stderr=subprocess.STDOUT
        )
        self.workers: List[int] = []
        try:
            self._wait_ready()
            self.workers = self.pids()[1:]
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                self.log.seek(0)
                raise RuntimeError(f"server exited during start-up:\n{self.log.read()}")
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.05)
        raise RuntimeError("server did not become ready")

    def get(self, path: str) -> Tuple[int, dict]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            connection.close()

    def pids(self) -> List[int]:
        _, stats = self.get("/stats")
        return [self.process.pid, *stats.get("workers", {}).get("pids", [])]

    def stop(self) -> None:
        """SIGINT drains the server and stops its workers; then reap it.

        A server that ignores SIGINT is killed, and then so are the worker
        processes it would have stopped, so none outlives the run.
        """
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
                for pid in self.workers:
                    _kill_and_wait(pid)
        self.log.close()


def _kill_and_wait(pid: int, timeout_s: float = 5.0) -> None:
    """SIGKILL ``pid`` if it still runs, and wait until it is gone."""
    deadline = time.monotonic() + timeout_s
    try:
        os.kill(pid, signal.SIGKILL)
        while time.monotonic() < deadline:
            os.kill(pid, 0)
            time.sleep(0.05)
    except ProcessLookupError:
        pass


class Exchange:
    """One request on the wire: query, send and receive times, raw reply."""

    __slots__ = ("query", "start", "end", "status", "body", "error")

    def __init__(self, query):
        self.query = query
        self.start = self.end = 0.0
        self.status = 0
        self.body = b""
        self.error: Optional[str] = None


def _client(port: int, queries, deadline: float, out: List[Exchange]) -> None:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    headers = {"Content-Type": "application/json"}
    try:
        for query in queries:
            if time.perf_counter() >= deadline:
                return
            head, relation, k = query
            body = json.dumps({"head": head, "relation": relation, "k": k}).encode()
            exchange = Exchange(query)
            exchange.start = time.perf_counter()
            try:
                connection.request("POST", QUERY_PATH, body=body, headers=headers)
                response = connection.getresponse()
                exchange.body = response.read()
                exchange.status = response.status
            except (OSError, http.client.HTTPException) as error:
                exchange.error = f"{type(error).__name__}: {error}"
                connection.close()
                connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            exchange.end = time.perf_counter()
            out.append(exchange)
    finally:
        connection.close()


def closed_loop(port: int, queries, duration_s: float):
    """``CONNECTIONS`` keep-alive clients, each sending its next query on reply."""
    outs: List[List[Exchange]] = [[] for _ in range(CONNECTIONS)]
    start = time.perf_counter()
    deadline = start + duration_s
    threads = [
        threading.Thread(
            target=_client, args=(port, queries[i::CONNECTIONS], deadline, outs[i])
        )
        for i in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    exchanges = [exchange for out in outs for exchange in out]
    return exchanges, start


def _last_end(exchanges) -> float:
    return max(exchange.end for exchange in exchanges)


def _outcomes(exchanges) -> list:
    outcomes = []
    for exchange in exchanges:
        if exchange.error or exchange.status != 200:
            error = exchange.error or f"HTTP {exchange.status}: {exchange.body[:200]!r}"
            outcomes.append((exchange.query, None, error))
            continue
        try:
            outcomes.append((exchange.query, json.loads(exchange.body)["predictions"], None))
        except (ValueError, KeyError, TypeError) as error:
            outcomes.append((exchange.query, None, f"unreadable reply: {error}"))
    return outcomes


def _check(registry: Path, graph, exchanges, report: Report) -> List[bool]:
    """Validate every reply and compare a fixed sample with a direct query."""
    from repro.serve.registry import ModelRegistry

    outcomes = _outcomes(exchanges)
    verdicts = tally(report, graph, outcomes)
    reasoner = ModelRegistry(str(registry)).resolve(f"{MODEL}@latest").load()
    tally_sample(report, reasoner, outcomes, SAMPLE_CHECKS)
    return verdicts


def _setup(workdir: Path, index: int, spans_file: Optional[Path] = None):
    registry = workdir / f"registry-{index}"
    dataset = train_and_publish(registry)
    server = Server(registry, workdir, spans_file)
    return dataset, registry, server


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Report:
    report = Report()
    servers: List[Server] = []
    try:
        setups = []
        for index in range(1 if trace else SETUP_REPEATS):
            for server in servers:
                server.stop()
            start = time.perf_counter()
            dataset, registry, server = _setup(workdir, index)
            servers.append(server)
            elapsed = time.perf_counter() - start
            # Generating the inputs is the benchmark's work, not the program's;
            # enough queries that two clients never run out within the phase.
            triples = [(t.head, t.relation, t.tail) for t in dataset.graph.triples()]
            queries = gen.uniform_queries(seed, triples, WARMUP_QUERIES + 4000 * int(seconds))
            start = time.perf_counter()
            closed_loop(server.port, queries[:WARMUP_QUERIES], 60.0)
            setups.append(elapsed + time.perf_counter() - start)
        measured = queries[WARMUP_QUERIES:]
        graph = dataset.graph

        if not trace:
            pids = server.pids()
            gc.collect()  # discarded set-ups must not count towards the peak
            reset_peak_rss([os.getpid(), *pids])
            exchanges, start = closed_loop(server.port, measured, seconds)
            rss_mb = peak_rss_mb([os.getpid(), *pids])
            good = _check(registry, graph, exchanges, report)
            rtts = [1000.0 * (e.end - e.start) for e in exchanges]
            report.samples = {"requests": len(exchanges)}
            report.metrics = {
                "setup_s": median(setups),
                "throughput_qps": sum(good) / (_last_end(exchanges) - start),
                "latency_p50_ms": percentile(rtts, 0.50),
                "latency_p90_ms": percentile(rtts, 0.90),
                "slo_ok_ratio": ratio(
                    sum(1 for r, ok in zip(rtts, good) if ok and r <= SLO_MS), len(exchanges)
                ),
                "rss_mb": rss_mb,
            }
            return report

        # Traced run: the same loop against a plain server, then against one
        # started through the tracing launcher; the ratio is the overhead.
        untraced, untraced_start = closed_loop(server.port, measured, seconds / 2.0)
        server.stop()
        spans_file = workdir.parent / f"spans-serve-http-seed{seed}-{int(time.time())}.jsonl"
        server = Server(registry, workdir, spans_file)
        servers.append(server)
        closed_loop(server.port, queries[:WARMUP_QUERIES], 60.0)
        traced, traced_start = closed_loop(server.port, measured, seconds / 2.0)
        _, stats = server.get("/stats")
        server.stop()
        _check(registry, graph, untraced + traced, report)

        server_spans = read_spans(spans_file)
        selfs = self_times(server_spans)
        handler_self = [
            1000.0 * selfs[s.id] for s in server_spans if s.name == "server.handle_post"
        ]
        rtts = [1000.0 * (e.end - e.start) for e in traced]
        stages = stats.get("stages", {})
        report.samples = {"untraced": len(untraced), "traced": len(traced)}
        report.metrics = {
            "tail.latency_p99_ms": percentile(rtts, 0.99),
            "server.frontend_ms_p50": percentile(rtts, 0.5) - stats["latency_p50_ms"],
            "server.handler_self_ms_p50": median(handler_self),
            "batcher.queue_wait_ms_p50": stages.get("queue_wait_ms", {}).get("p50", 0.0),
            "batcher.batch_wait_ms_p50": stages.get("batch_wait_ms", {}).get("p50", 0.0),
            "batcher.batch_size_mean": stats.get("mean_batch_size", 0.0),
            "procpool.compute_ms_p50": stages.get("compute_ms", {}).get("p50", 0.0),
            "procpool.worker_restarts": stats.get("workers", {}).get("restarts", 0),
            "trace.overhead_ratio": ratio(
                len(traced) / (_last_end(traced) - traced_start),
                len(untraced) / (_last_end(untraced) - untraced_start),
            ),
        }
        report.notes["server_latency_p50_ms"] = stats["latency_p50_ms"]
        return report
    finally:
        for server in servers:
            server.stop()
