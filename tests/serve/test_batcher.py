"""DynamicBatcher unit tests: flush policy, fallback, and error isolation.

These run against the batcher alone (payloads are plain ints/strings, the
"model" is a lambda), so they pin the coalescing semantics without training
anything.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.serve import BatcherClosed, DynamicBatcher
from repro.serve.batcher import execute_batch


class TestFlushPolicy:
    def test_burst_coalesces_into_full_batches(self):
        batcher = DynamicBatcher(max_batch_size=4, max_wait_ms=50)
        futures = [batcher.submit(i) for i in range(10)]
        sizes = [len(batcher.next_batch()) for _ in range(3)]
        assert sizes == [4, 4, 2]
        assert batcher.depth == 0
        assert all(not f.done() for f in futures)  # workers resolve futures, not the queue

    def test_max_wait_flushes_partial_batch(self):
        batcher = DynamicBatcher(max_batch_size=16, max_wait_ms=20)
        batcher.submit("only")
        start = time.monotonic()
        batch = batcher.next_batch()
        elapsed = time.monotonic() - start
        assert [r.payload for r in batch] == ["only"]
        assert elapsed < 5.0, "a partial batch must flush at max_wait_ms, not hang"

    def test_single_request_fallback_skips_the_wait(self):
        # max_batch_size=1 is per-request dispatch: no coalescing delay at all.
        batcher = DynamicBatcher(max_batch_size=1, max_wait_ms=10_000)
        batcher.submit("now")
        start = time.monotonic()
        batch = batcher.next_batch()
        elapsed = time.monotonic() - start
        assert [r.payload for r in batch] == ["now"]
        assert elapsed < 1.0

    def test_late_arrivals_join_an_open_batch(self):
        batcher = DynamicBatcher(max_batch_size=2, max_wait_ms=10_000)
        collected = []

        def consume():
            collected.append(batcher.next_batch())

        worker = threading.Thread(target=consume)
        batcher.submit("first")
        worker.start()
        # The worker is now holding the batch open for a second request.
        batcher.submit("second")
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert [r.payload for r in collected[0]] == ["first", "second"]

    def test_next_batch_timeout_on_idle_queue(self):
        batcher = DynamicBatcher(max_batch_size=4, max_wait_ms=5)
        assert batcher.next_batch(timeout=0.05) is None

    def test_concurrent_workers_never_receive_empty_batches(self):
        # Two workers racing over one request: whoever loses the pop must go
        # back to waiting (and see the close), never return an empty batch.
        batcher = DynamicBatcher(max_batch_size=4, max_wait_ms=20)
        results = []

        def worker():
            results.append(batcher.next_batch())

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        batcher.submit("one")
        time.sleep(0.1)
        batcher.close()
        for thread in threads:
            thread.join(timeout=5)
        assert [] not in results, "a worker must never receive an empty batch"
        assert None in results, "the losing worker sees the close"
        winners = [batch for batch in results if batch]
        assert len(winners) == 1
        assert [r.payload for r in winners[0]] == ["one"]


class TestWorkConservingFlush:
    """An idle worker dispatches at once; only a queued backlog coalesces."""

    def test_idle_worker_dispatches_a_lone_request_at_once(self):
        batcher = DynamicBatcher(max_batch_size=16, max_wait_ms=10_000)
        collected = []

        def consume():
            collected.append(batcher.next_batch())
            collected.append(time.monotonic())

        worker = threading.Thread(target=consume)
        worker.start()
        time.sleep(0.05)  # let the worker start waiting on the empty queue
        submitted = time.monotonic()
        batcher.submit("lone")
        worker.join(timeout=5)
        assert not worker.is_alive()
        batch, returned = collected
        assert [r.payload for r in batch] == ["lone"]
        assert returned - submitted < 1.0, "an idle worker must not hold a lone request"
        # Dispatched at once: no batch-assembly wait is recorded.
        assert batch[0].dequeued_at - batch[0].assembly_started_at < 0.5

    def test_queued_backlog_still_coalesces_under_max_wait(self):
        # A request found already queued piled up behind a running batch: the
        # worker holds it open for company up to the oldest one's deadline.
        batcher = DynamicBatcher(max_batch_size=16, max_wait_ms=100)
        batcher.submit("backlog")
        start = time.monotonic()
        batch = batcher.next_batch()
        assert [r.payload for r in batch] == ["backlog"]
        assert time.monotonic() - start >= 0.08

    def test_idle_dispatch_takes_everything_queued_at_wakeup(self):
        batcher = DynamicBatcher(max_batch_size=8, max_wait_ms=10_000)
        collected = []
        worker = threading.Thread(target=lambda: collected.append(batcher.next_batch()))
        worker.start()
        time.sleep(0.05)  # let the worker start waiting on the empty queue
        # Hold the (reentrant) lock so all four arrivals queue before it wakes.
        with batcher._condition:
            for i in range(4):
                batcher.submit(i)
        worker.join(timeout=1.0)
        assert not worker.is_alive(), "the woken idle worker must not coalesce"
        assert [r.payload for r in collected[0]] == [0, 1, 2, 3]

    def test_two_idle_workers_racing_over_one_request(self):
        # The winner returns the request at once; the loser goes back to
        # waiting (and sees the close), never returning an empty batch.
        batcher = DynamicBatcher(max_batch_size=4, max_wait_ms=10_000)
        results = []

        def worker():
            results.append(batcher.next_batch())

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        batcher.submit("one")
        deadline = time.monotonic() + 1.0
        while not results and time.monotonic() < deadline:
            time.sleep(0.005)
        dispatched_at_once = bool(results)
        batcher.close()
        for thread in threads:
            thread.join(timeout=5)
        assert dispatched_at_once, "an idle worker must dispatch the request at once"
        assert [] not in results
        assert None in results
        winners = [batch for batch in results if batch]
        assert len(winners) == 1
        assert [r.payload for r in winners[0]] == ["one"]

    def test_stress_every_request_dispatched_once_in_bounded_batches(self):
        # More workers than cores, short thread switch interval: idle and
        # coalescing workers race over one queue fed by two producers.
        batcher = DynamicBatcher(max_batch_size=4, max_wait_ms=1)
        seen, sizes, lock = [], [], threading.Lock()

        def worker():
            while (batch := batcher.next_batch()) is not None:
                with lock:
                    sizes.append(len(batch))
                    seen.extend(r.payload for r in batch)

        def producer(offset):
            for i in range(300):
                batcher.submit(offset + i)
                if i % 7 == 0:
                    time.sleep(0.0005)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=worker) for _ in range(4)]
            producers = [threading.Thread(target=producer, args=(k * 1000,)) for k in range(2)]
            for thread in workers + producers:
                thread.start()
            for thread in producers:
                thread.join(timeout=30)
            batcher.close()
            for thread in workers:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert all(not thread.is_alive() for thread in workers + producers)
        assert sorted(seen) == [k * 1000 + i for k in range(2) for i in range(300)]
        assert min(sizes) >= 1 and max(sizes) <= 4


class TestLifecycle:
    def test_submit_after_close_raises(self):
        batcher = DynamicBatcher()
        batcher.close()
        with pytest.raises(BatcherClosed):
            batcher.submit("late")

    def test_close_drains_queued_requests_then_returns_none(self):
        batcher = DynamicBatcher(max_batch_size=8, max_wait_ms=10_000)
        batcher.submit("queued")
        batcher.close()
        assert [r.payload for r in batcher.next_batch()] == ["queued"]
        assert batcher.next_batch() is None

    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicBatcher(max_batch_size=0)
        with pytest.raises(ValueError):
            DynamicBatcher(max_wait_ms=-1)

    def test_close_flushes_a_batch_a_worker_is_holding_open(self):
        # A worker coalescing a partial batch must release it as soon as the
        # batcher closes, not sleep out the remaining max_wait_ms budget.
        batcher = DynamicBatcher(max_batch_size=8, max_wait_ms=60_000)
        collected = []

        def consume():
            collected.append(batcher.next_batch())

        worker = threading.Thread(target=consume)
        batcher.submit("pending")
        worker.start()
        time.sleep(0.05)  # let the worker enter the coalescing wait
        start = time.monotonic()
        batcher.close()
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert time.monotonic() - start < 5.0
        assert [r.payload for r in collected[0]] == ["pending"]

    def test_close_with_many_pending_drains_in_order_across_batches(self):
        batcher = DynamicBatcher(max_batch_size=4, max_wait_ms=10_000)
        futures = [batcher.submit(i) for i in range(10)]
        batcher.close()
        drained = []
        while (batch := batcher.next_batch()) is not None:
            drained.append([r.payload for r in batch])
        assert drained == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert batcher.depth == 0
        # The queue hands requests to workers; the futures are still theirs
        # to resolve — closing must not touch them.
        assert all(not f.done() for f in futures)

    def test_shutdown_with_pending_requests_resolves_every_future(self):
        # End-to-end worker-pool shape: requests queued at close() time must
        # still be answered before the workers exit.
        batcher = DynamicBatcher(max_batch_size=3, max_wait_ms=5)

        def worker():
            while (batch := batcher.next_batch()) is not None:
                time.sleep(0.01)  # keep a backlog queued at close() time
                execute_batch(
                    batch,
                    lambda payloads: [p * 2 for p in payloads],
                    lambda payload: payload * 2,
                )

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        futures = {i: batcher.submit(i) for i in range(20)}
        batcher.close()
        for thread in threads:
            thread.join(timeout=10)
        assert all(not thread.is_alive() for thread in threads)
        assert {i: f.result(timeout=1) for i, f in futures.items()} == {
            i: i * 2 for i in range(20)
        }
        with pytest.raises(BatcherClosed):
            batcher.submit("too late")


class TestErrorIsolation:
    def _drain(self, batcher):
        return batcher.next_batch()

    def test_batch_success_resolves_every_future(self):
        batcher = DynamicBatcher(max_batch_size=4, max_wait_ms=5)
        futures = [batcher.submit(i) for i in range(4)]
        execute_batch(
            self._drain(batcher),
            lambda payloads: [p * 10 for p in payloads],
            lambda payload: payload * 10,
        )
        assert [f.result(timeout=1) for f in futures] == [0, 10, 20, 30]

    def test_one_bad_request_never_fails_its_batchmates(self):
        batcher = DynamicBatcher(max_batch_size=4, max_wait_ms=5)
        futures = {i: batcher.submit(i) for i in (1, 2, 3)}

        def answer(payload):
            if payload == 2:
                raise KeyError("unknown entity")
            return payload * 10

        execute_batch(
            self._drain(batcher),
            lambda payloads: [answer(p) for p in payloads],  # poisons the batch
            answer,
        )
        assert futures[1].result(timeout=1) == 10
        assert futures[3].result(timeout=1) == 30
        with pytest.raises(KeyError, match="unknown entity"):
            futures[2].result(timeout=1)

    def test_wrong_result_count_triggers_per_request_fallback(self):
        batcher = DynamicBatcher(max_batch_size=3, max_wait_ms=5)
        futures = [batcher.submit(i) for i in range(3)]
        execute_batch(
            self._drain(batcher),
            lambda payloads: payloads[:-1],  # silently dropped a result
            lambda payload: payload,
        )
        assert [f.result(timeout=1) for f in futures] == [0, 1, 2]

    def test_cancelled_requests_are_skipped(self):
        batcher = DynamicBatcher(max_batch_size=2, max_wait_ms=5)
        keep = batcher.submit("keep")
        dropped = batcher.submit("dropped")
        assert dropped.cancel()
        execute_batch(
            self._drain(batcher),
            lambda payloads: [p.upper() for p in payloads],
            lambda payload: payload.upper(),
        )
        assert keep.result(timeout=1) == "KEEP"
        assert dropped.cancelled()
