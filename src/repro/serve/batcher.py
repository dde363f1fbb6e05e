"""Dynamic micro-batching: coalesce concurrent requests into engine batches.

Serving traffic arrives as concurrent *single* queries, but the batched beam
search (:class:`~repro.serve.engine.BatchBeamSearch`) only pays off when many
queries advance in lockstep.  The :class:`DynamicBatcher` bridges the two: it
queues requests as they arrive and releases them to workers in micro-batches.
The flush rule is work-conserving: a request that reaches an idle worker (one
already waiting on an empty queue) is dispatched at once, together with
whatever else is queued at that instant.  Only requests that piled up behind a
running batch are coalesced, until ``max_batch_size`` have accumulated or the
oldest has waited ``max_wait_ms``.  So ``max_wait_ms`` bounds the extra wait a
backlog may take to fill a batch; it never delays a request an idle worker
could start on (the idea behind Clipper's adaptive batching and Triton's
dynamic batcher).

Each request carries its own :class:`~concurrent.futures.Future`, and
:func:`execute_batch` guarantees error isolation: when the batched call
fails, every request is retried individually so one bad query (an unknown
entity name, an out-of-range id) never fails its batchmates.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, List, Optional, Sequence

__all__ = ["BatchRequest", "BatcherClosed", "DynamicBatcher", "execute_batch"]


class BatcherClosed(RuntimeError):
    """Raised when submitting to a batcher that has been closed."""


@dataclass
class BatchRequest:
    """One queued request: its payload, result future, and stage timestamps.

    ``enqueued_at`` is stamped at submission; the batcher stamps
    ``assembly_started_at`` (a worker began coalescing the batch that will
    carry this request) and ``dequeued_at`` (the batch flushed to the worker)
    when the request leaves the queue.  The three timestamps let the serving
    stats split total latency into queue wait (enqueue -> assembly), batch
    wait (assembly -> flush) and compute (flush -> completion).
    """

    payload: Any
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.monotonic)
    assembly_started_at: Optional[float] = None
    dequeued_at: Optional[float] = None


class DynamicBatcher:
    """A thread-safe request queue that releases work in micro-batches.

    Producers call :meth:`submit` and wait on the returned future; consumers
    (worker threads) call :meth:`next_batch` when they are free, which blocks
    until a batch is ready under the flush policy:

    * flush **idle** — the queue was empty when the worker started waiting:
      the first arrival is dispatched at once with whatever else is queued;
    * otherwise requests were already queued (they piled up behind a running
      batch), and the batch is held open until it is **full**
      (``max_batch_size`` requests) or **stale** (the oldest request is
      ``max_wait_ms`` old), or the batcher closes.

    ``max_batch_size=1`` degenerates to per-request dispatch (no coalescing,
    no added latency), which is the baseline the serving benchmark compares
    against.
    """

    def __init__(self, max_batch_size: int = 16, max_wait_ms: float = 5.0):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self._queue: Deque[BatchRequest] = deque()
        self._condition = threading.Condition()
        self._closed = False

    # ----------------------------------------------------------------- producer
    def submit(self, payload: Any) -> Future:
        """Queue ``payload`` and return the future its result will land on."""
        request = BatchRequest(payload)
        with self._condition:
            if self._closed:
                raise BatcherClosed("cannot submit to a closed batcher")
            self._queue.append(request)
            self._condition.notify_all()
        return request.future

    # ----------------------------------------------------------------- consumer
    def next_batch(self, timeout: Optional[float] = None) -> Optional[List[BatchRequest]]:
        """Block until a micro-batch is ready and pop it off the queue.

        Returns ``None`` when the batcher is closed and drained, or when
        ``timeout`` (seconds) elapses with no request arriving.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._condition:
            while True:
                # Work-conserving: a worker that finds the queue empty starts
                # on the first arrival at once.
                idle = not self._queue
                while not self._queue:
                    if self._closed:
                        return None
                    wait = None if deadline is None else deadline - time.monotonic()
                    if wait is not None and wait <= 0:
                        return None
                    self._condition.wait(wait)
                # Coalesce a backlog found already queued: hold the batch open
                # until it fills or the oldest request has waited max_wait_ms.
                assembly_started = time.monotonic()
                flush_at = self._queue[0].enqueued_at + self.max_wait_ms / 1000.0
                while (
                    not idle
                    and len(self._queue) < self.max_batch_size
                    and not self._closed
                ):
                    remaining = flush_at - time.monotonic()
                    if remaining <= 0:
                        break
                    self._condition.wait(remaining)
                if not self._queue:
                    # A sibling worker drained the queue while this one was
                    # coalescing; go back to waiting instead of returning an
                    # empty batch.
                    continue
                size = min(self.max_batch_size, len(self._queue))
                dequeued = time.monotonic()
                batch = []
                for _ in range(size):
                    request = self._queue.popleft()
                    request.assembly_started_at = assembly_started
                    request.dequeued_at = dequeued
                    batch.append(request)
                return batch

    # ------------------------------------------------------------------ control
    @property
    def depth(self) -> int:
        """Number of requests currently waiting in the queue."""
        with self._condition:
            return len(self._queue)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Refuse new submissions; queued requests still drain to workers."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()


def execute_batch(
    requests: Sequence[BatchRequest],
    batch_fn: Callable[[List[Any]], Sequence[Any]],
    single_fn: Callable[[Any], Any],
) -> List[BatchRequest]:
    """Resolve every request's future via ``batch_fn``, isolating failures.

    The happy path answers the whole micro-batch with one ``batch_fn`` call.
    If that call raises — typically because one malformed query poisons the
    batch — every request is retried individually through ``single_fn`` so
    only the offending request(s) receive the exception.  Requests cancelled
    before compute are skipped; the ones answered are returned.
    """
    live = [r for r in requests if r.future.set_running_or_notify_cancel()]
    if not live:
        return live
    try:
        results = batch_fn([r.payload for r in live])
        if len(results) != len(live):
            raise RuntimeError(
                f"batch_fn returned {len(results)} results for {len(live)} requests"
            )
    except Exception:
        for request in live:
            try:
                request.future.set_result(single_fn(request.payload))
            except Exception as error:
                request.future.set_exception(error)
        return live
    for request, result in zip(live, results):
        request.future.set_result(result)
    return live
