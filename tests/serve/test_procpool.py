"""Process-backend tests: parity with threads, crash recovery, hot swap.

Worker processes are spawned (not forked), so each boot pays an interpreter
start — the tests share one published registry version and keep worker
counts small.  The crash-recovery test SIGKILLs a live worker mid-burst and
requires every in-flight future to resolve: either retried successfully on
the respawned worker or failed cleanly with a server-side error, never hung.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.serve import (
    ModelRegistry,
    Reasoner,
    ReasoningServer,
    ServeConfig,
    WorkerCrashError,
)

_PROC_CONFIG = dict(
    backend="processes",
    max_batch_size=8,
    max_wait_ms=2.0,
    heartbeat_interval_s=0.2,
    request_timeout_s=60.0,
)


@pytest.fixture(scope="module")
def fitted_reasoner(request):
    tiny_dataset = request.getfixturevalue("tiny_dataset")
    tiny_preset = request.getfixturevalue("tiny_preset")
    return Reasoner(preset=tiny_preset, rng=0).fit(tiny_dataset)


@pytest.fixture(scope="module")
def test_queries(request):
    tiny_dataset = request.getfixturevalue("tiny_dataset")
    return [(t.head, t.relation) for t in tiny_dataset.splits.test[:6]]


@pytest.fixture(scope="module")
def registry_root(fitted_reasoner, tmp_path_factory):
    root = tmp_path_factory.mktemp("registry")
    registry = ModelRegistry(root)
    registry.publish(fitted_reasoner, name="mmkgr", aliases=("prod",))
    return root


@pytest.fixture(scope="module")
def thread_baseline(registry_root, test_queries):
    """Reference predictions and stats schema from the threads backend."""
    config = ServeConfig(max_batch_size=8, max_wait_ms=2.0)
    with ReasoningServer(
        registry=ModelRegistry(registry_root), default_model="mmkgr@prod", config=config
    ) as server:
        predictions = [server.query(h, r, k=5) for h, r in test_queries]
        stats = server.stats_dict()
    return predictions, stats


def _ranking(predictions):
    return [(p.entity, round(p.score, 10)) for p in predictions]


def _rankings(batches):
    return [_ranking(predictions) for predictions in batches]


def _wait_for_alive(server, expected, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if server.stats_dict()["workers"]["alive"] == expected:
            return
        time.sleep(0.1)
    raise AssertionError(
        f"worker pool never returned to {expected} alive: "
        f"{server.stats_dict()['workers']}"
    )


@pytest.fixture(scope="module")
def process_server(registry_root):
    config = ServeConfig(workers=2, **_PROC_CONFIG)
    server = ReasoningServer(
        registry=ModelRegistry(registry_root), default_model="mmkgr@prod", config=config
    )
    server.start()
    yield server
    server.close()


class TestBackendParity:
    def test_workers_attach_the_arena(self, process_server):
        entry = process_server.pool.entry("mmkgr")
        assert entry.arena_attached
        pids = entry.worker_pids()
        assert len(pids) == 2
        assert all(pid != os.getpid() for pid in pids)

    def test_predictions_match_threads_backend(
        self, process_server, thread_baseline, test_queries
    ):
        reference, _ = thread_baseline
        got = [process_server.query(h, r, k=5) for h, r in test_queries]
        assert _rankings(got) == _rankings(reference)

    def test_stats_schema_matches_threads_modulo_backend_blocks(
        self, process_server, thread_baseline
    ):
        _, thread_stats = thread_baseline
        proc_stats = process_server.stats_dict()
        assert thread_stats["backend"] == "threads"
        assert proc_stats["backend"] == "processes"
        # Same surface except the process side's worker-pool block.
        assert set(thread_stats) ^ set(proc_stats) == {"workers"}
        workers = proc_stats["workers"]
        assert workers["configured"] == 2
        assert workers["alive"] == 2
        assert workers["arena_attached"] is True
        assert len(workers["pids"]) == 2

    def test_client_errors_stay_client_errors(self, process_server):
        with pytest.raises((KeyError, IndexError, ValueError, TypeError)):
            process_server.query("no-such-entity", 1, k=3)


class TestCrashRecovery:
    def test_sigkill_mid_burst_never_hangs(
        self, process_server, test_queries, thread_baseline
    ):
        server = process_server
        before = server.stats_dict()
        futures = [server.submit(h, r, k=5) for h, r in test_queries * 5]
        victim = server.pool.entry("mmkgr").worker_pids()[0]
        os.kill(victim, signal.SIGKILL)

        served, failures = 0, []
        for future in futures:
            try:
                future.result(timeout=120)
                served += 1
            except Exception as error:  # noqa: BLE001 - classified below
                failures.append(error)
        # Every future resolved; any casualty surfaced as the 5xx-class
        # crash error, not a client error and not a hang.
        assert served + len(failures) == len(futures)
        assert all(isinstance(error, WorkerCrashError) for error in failures)

        _wait_for_alive(server, expected=2)
        after = server.stats_dict()
        assert after["workers"]["restarts"] >= 1
        assert (
            after["errors_total"] - before["errors_total"] == len(failures)
        )

        # The respawned pool serves the exact reference rankings again.
        reference, _ = thread_baseline
        again = [server.query(h, r, k=5) for h, r in test_queries]
        assert _rankings(again) == _rankings(reference)


class TestHotSwap:
    def test_promote_and_reload_drains_onto_new_version(
        self, process_server, registry_root, fitted_reasoner, test_queries,
        thread_baseline,
    ):
        registry = ModelRegistry(registry_root)
        published = registry.publish(fitted_reasoner, name="mmkgr")
        registry.promote("mmkgr", "prod", published.version)

        resolved = process_server.reload("mmkgr")
        assert resolved.version == published.version
        assert process_server.pool.entry("mmkgr").version == published.version
        assert process_server.stats_dict()["version"] == published.version

        reference, _ = thread_baseline
        got = [process_server.query(h, r, k=5) for h, r in test_queries]
        assert _rankings(got) == _rankings(reference)


class TestWorkConservingDispatch:
    @pytest.fixture(scope="class")
    def slow_flush_server(self, registry_root):
        config = ServeConfig(workers=1, **{**_PROC_CONFIG, "max_wait_ms": 200.0})
        server = ReasoningServer(
            registry=ModelRegistry(registry_root), default_model="mmkgr@prod", config=config
        )
        server.start()
        yield server
        server.close()

    def test_sequential_client_never_waits_out_max_wait(
        self, slow_flush_server, test_queries
    ):
        head, relation = test_queries[0]
        slow_flush_server.query(head, relation, k=3)  # warm up
        start = time.monotonic()
        for _ in range(20):
            slow_flush_server.query(head, relation, k=3)
        elapsed = time.monotonic() - start
        assert elapsed < 2.0, f"20 sequential queries took {elapsed:.2f}s"

    def test_cancelled_requests_add_no_stage_samples(
        self, slow_flush_server, test_queries
    ):
        entry = slow_flush_server.pool.entry("mmkgr")
        before = len(entry.stats.stage_samples()["compute"])
        head, relation = test_queries[0]
        futures = [slow_flush_server.submit(head, relation, k=3) for _ in range(10)]
        cancelled = sum(future.cancel() for future in futures[5:])
        assert cancelled, "the single worker cannot have started every request yet"
        for future in futures:
            if not future.cancelled():
                future.result(timeout=30)
        # Stages are recorded after the futures resolve; wait for the drain.
        deadline = time.monotonic() + 10.0
        while entry.batcher.depth and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.5)
        grown = len(entry.stats.stage_samples()["compute"]) - before
        assert grown == len(futures) - cancelled


class TestInMemorySpill:
    def test_in_memory_reasoner_spills_and_attaches(
        self, fitted_reasoner, test_queries, thread_baseline
    ):
        config = ServeConfig(workers=1, **_PROC_CONFIG)
        server = ReasoningServer(fitted_reasoner, config=config)
        spill_dirs = list(server._spill_dirs)
        assert spill_dirs, "processes backend must spill an in-memory reasoner"
        try:
            server.start()
            assert server.pool.entry("MMKGR").arena_attached
            reference, _ = thread_baseline
            got = [server.query(h, r, k=5) for h, r in test_queries]
            assert _rankings(got) == _rankings(reference)
        finally:
            server.close()
        assert all(not spill.exists() for spill in spill_dirs)
