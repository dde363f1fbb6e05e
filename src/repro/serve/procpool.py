"""The process execution backend: OS workers over the shared model arena.

The thread backend (:class:`repro.serve.server._ModelEntry`) keeps every
replica inside one Python process, so the GIL caps a model's aggregate QPS at
roughly one core no matter how many workers are configured.
:class:`ProcessWorkerGroup` escapes it:

* ``config.workers`` **OS processes** are spawned per hosted model, each
  restoring the model from its on-disk save — agent models attach to the
  published ``arena.npy`` memory-mapped read-only
  (:func:`repro.serve.arena.load_serving_reasoner`), so N workers share one
  physical copy of the weights in the page cache;
* the parent keeps the model's :class:`~repro.serve.batcher.DynamicBatcher`
  and :class:`~repro.serve.server.ServerStats` exactly as the thread backend
  does — one **dispatcher thread per worker** drains micro-batches and ships
  them over a per-worker ``multiprocessing`` request/response queue pair, so
  ``/stats``, the per-stage latency split, and ``/healthz`` drain semantics
  are backend-agnostic;
* an idle worker emits a **heartbeat** every ``config.heartbeat_interval_s``;
  the dispatcher detects a dead or wedged worker (no response, process gone,
  or ``config.request_timeout_s`` exceeded), **respawns** it, and re-runs the
  in-flight batch once on the fresh worker — a batch that dies twice fails
  its requests with :class:`WorkerCrashError` (an HTTP 500 / error-rate
  event, never a hang).

Start method defaults to ``spawn`` (see
:data:`repro.serve.config.START_METHODS`): forking a parent that already runs
batcher and dispatcher threads is deadlock-prone, and a spawned worker
demonstrably holds no inherited copy of the weights — only the mmap.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.serve.batcher import BatchRequest
from repro.serve.config import ServeConfig
from repro.serve.protocol import Prediction
from repro.serve.server import QUERY_ERRORS, ServerStats, WorkerGroup

PathLike = Union[str, Path]

# How long one worker may take to restore the model at spawn.
_READY_TIMEOUT_S = 120.0
# How long close() waits for a worker to honour the shutdown sentinel before
# escalating to terminate / kill.
_SHUTDOWN_GRACE_S = 2.0

__all__ = ["ProcessWorkerGroup", "WorkerCrashError"]


class WorkerCrashError(RuntimeError):
    """A request failed because its worker process died (twice) serving it."""


class _WorkerDied(Exception):
    """Internal: the current worker incarnation is unusable; respawn it."""


# Query-shaped errors re-raise as their original class in the parent so the
# HTTP front end still answers 400; anything else is a 500 RuntimeError.
_CLIENT_ERRORS = {cls.__name__: cls for cls in QUERY_ERRORS}


def _rebuild_error(type_name: str, message: str) -> Exception:
    cls = _CLIENT_ERRORS.get(type_name)
    if cls is not None:
        return cls(message)
    return RuntimeError(f"worker error ({type_name}): {message}")


class _WorkerHandle:
    """One live worker incarnation: its process and private queue pair.

    A fresh handle gets fresh queues — a killed process can leave a shared
    queue's pipe in an unusable state, so incarnations never share transport.
    """

    def __init__(self, process, request_q, response_q, arena_attached: bool):
        self.process = process
        self.request_q = request_q
        self.response_q = response_q
        self.arena_attached = arena_attached
        self.pid = process.pid

    def stop(self, grace_s: float = _SHUTDOWN_GRACE_S) -> None:
        """Shutdown ladder: sentinel -> terminate -> kill, then drop queues."""
        try:
            if self.process.is_alive():
                self.request_q.put_nowait(None)
                self.process.join(timeout=grace_s)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=grace_s)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=grace_s)
        finally:
            for q in (self.request_q, self.response_q):
                q.cancel_join_thread()
                q.close()


class _WorkerSlot:
    """One worker position: the current handle plus its batch-id counter."""

    def __init__(self, index: int):
        self.index = index
        self.handle: Optional[_WorkerHandle] = None
        self._batch_id = 0

    def next_batch_id(self) -> int:
        self._batch_id += 1
        return self._batch_id


class ProcessWorkerGroup(WorkerGroup):
    """A hosted model served by supervised OS worker processes."""

    backend = "processes"

    def __init__(
        self,
        name: str,
        model_path: PathLike,
        stats: ServerStats,
        config: ServeConfig,
        version: Optional[int] = None,
        source: Optional[str] = None,
    ):
        super().__init__(name, stats=stats, config=config, version=version, source=source)
        self.model_path = Path(model_path)
        self._ctx = multiprocessing.get_context(config.start_method)
        self._slots = [_WorkerSlot(index) for index in range(config.workers)]
        self._dispatchers: List[threading.Thread] = []
        self._restarts = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> None:
        if self._dispatchers:
            return
        for slot in self._slots:
            slot.handle = self._spawn_handle()
        for slot in self._slots:
            thread = threading.Thread(
                target=self._dispatch_loop,
                args=(slot,),
                name=f"mmkgr-dispatch-{self.name}-{slot.index}",
                daemon=True,
            )
            thread.start()
            self._dispatchers.append(thread)

    def close(self) -> None:
        # Same drain contract as the thread backend: refuse new submissions,
        # let queued batches finish on the (still live) workers, then stop
        # the worker processes themselves.
        self.batcher.close()
        for thread in self._dispatchers:
            thread.join()
        self._dispatchers = []
        for slot in self._slots:
            if slot.handle is not None:
                slot.handle.stop()

    # ----------------------------------------------------------------- reporting
    def stats_dict(self) -> dict:
        payload = super().stats_dict()
        with self._lock:
            handles = [slot.handle for slot in self._slots if slot.handle is not None]
            restarts = self._restarts
        payload["workers"] = {
            "configured": self.config.workers,
            "alive": sum(1 for handle in handles if handle.process.is_alive()),
            "restarts": restarts,
            "pids": [handle.pid for handle in handles],
            "arena_attached": bool(handles)
            and all(handle.arena_attached for handle in handles),
        }
        return payload

    @property
    def arena_attached(self) -> bool:
        """Whether every live worker maps the arena (vs. a copying fallback)."""
        with self._lock:
            handles = [slot.handle for slot in self._slots if slot.handle is not None]
        return bool(handles) and all(handle.arena_attached for handle in handles)

    def worker_pids(self) -> List[int]:
        with self._lock:
            return [
                slot.handle.pid for slot in self._slots if slot.handle is not None
            ]

    # ---------------------------------------------------------------- supervision
    def _spawn_handle(self) -> _WorkerHandle:
        request_q = self._ctx.Queue()
        response_q = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                str(self.model_path),
                self.config.heartbeat_interval_s,
                request_q,
                response_q,
            ),
            name=f"mmkgr-worker-{self.name}",
            daemon=True,
        )
        process.start()
        deadline = time.monotonic() + _READY_TIMEOUT_S
        while True:
            try:
                message = response_q.get(timeout=1.0)
            except queue.Empty:
                if not process.is_alive():
                    raise RuntimeError(
                        f"worker for model {self.name!r} died during startup "
                        f"(exit code {process.exitcode})"
                    )
                if time.monotonic() > deadline:
                    process.terminate()
                    raise RuntimeError(
                        f"worker for model {self.name!r} timed out restoring "
                        f"{self.model_path}"
                    )
                continue
            if message[0] == "ready":
                _, _pid, arena_attached = message
                return _WorkerHandle(process, request_q, response_q, arena_attached)
            if message[0] == "fatal":
                process.join(timeout=_SHUTDOWN_GRACE_S)
                raise RuntimeError(
                    f"worker for model {self.name!r} failed to load "
                    f"{self.model_path}: {message[1]}"
                )
            # Startup heartbeats (possible under a tiny heartbeat interval)
            # are simply skipped while waiting for the ready banner.

    def _respawn(self, slot: _WorkerSlot) -> None:
        dead = slot.handle
        if dead is not None:
            dead.stop(grace_s=0.1)
        handle = self._spawn_handle()
        with self._lock:
            slot.handle = handle
            self._restarts += 1

    # ------------------------------------------------------------------- dispatch
    def _dispatch_loop(self, slot: _WorkerSlot) -> None:
        while True:
            batch = self.batcher.next_batch()
            if batch is None:
                return
            self.stats.record_batch(len(batch))
            live = [r for r in batch if r.future.set_running_or_notify_cancel()]
            if live:
                try:
                    outcomes = self._run_batch(slot, live)
                except WorkerCrashError as crash:
                    for request in live:
                        request.future.set_exception(WorkerCrashError(str(crash)))
                else:
                    self._deliver(live, outcomes)
            self._record_batch_stages(live, time.monotonic())

    def _run_batch(
        self, slot: _WorkerSlot, live: List[BatchRequest]
    ) -> List[tuple]:
        """Ship one micro-batch to the slot's worker; requeue once on death."""
        payloads = [(r.payload.head, r.payload.relation, r.payload.k) for r in live]
        death: Optional[_WorkerDied] = None
        for _attempt in range(2):
            handle = slot.handle
            batch_id = slot.next_batch_id()
            try:
                handle.request_q.put(("batch", batch_id, payloads))
                return self._await_result(handle, batch_id)
            except _WorkerDied as died:
                death = died
                self._respawn(slot)
        raise WorkerCrashError(
            f"model {self.name!r} worker died twice serving one batch: {death}"
        )

    def _await_result(self, handle: _WorkerHandle, batch_id: int) -> List[tuple]:
        deadline = time.monotonic() + self.config.request_timeout_s
        while True:
            try:
                message = handle.response_q.get(
                    timeout=self.config.heartbeat_interval_s
                )
            except queue.Empty:
                if not handle.process.is_alive():
                    raise _WorkerDied(
                        f"pid {handle.pid} exited with code {handle.process.exitcode}"
                    ) from None
                if time.monotonic() > deadline:
                    raise _WorkerDied(
                        f"pid {handle.pid} gave no answer within "
                        f"{self.config.request_timeout_s}s"
                    ) from None
                continue
            kind = message[0]
            if kind == "heartbeat":
                continue
            if kind == "result":
                _, result_id, outcomes = message
                if result_id == batch_id:
                    return outcomes
                # A stale id can only come from a batch this incarnation was
                # re-sent after a timeout race; drop it and keep waiting.
                continue
            if kind == "fatal":
                raise _WorkerDied(str(message[1]))

    @staticmethod
    def _deliver(live: Sequence[BatchRequest], outcomes: Sequence[tuple]) -> None:
        for request, outcome in zip(live, outcomes):
            if outcome[0] == "ok":
                request.future.set_result(
                    [Prediction.from_wire(wire) for wire in outcome[1]]
                )
            else:
                request.future.set_exception(_rebuild_error(outcome[1], outcome[2]))


# --------------------------------------------------------------------- worker
def _worker_main(
    model_path: str,
    heartbeat_interval_s: float,
    request_q,
    response_q,
) -> None:
    """Entry point of one worker process (spawned; must be importable).

    Restores the model (arena-attached when possible), announces readiness,
    then alternates between serving batches and heartbeating while idle.
    A ``None`` message is the parent's shutdown sentinel.
    """
    # The parent owns shutdown: a terminal Ctrl-C lands on the whole process
    # group, and workers interrupting mid-batch would turn a clean drain into
    # a spurious crash-respawn cycle.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        from repro.serve.arena import load_serving_reasoner

        reasoner, arena_attached = load_serving_reasoner(model_path)
    except BaseException as error:  # the parent must hear about *any* failure
        response_q.put(("fatal", f"{type(error).__name__}: {error}"))
        return
    response_q.put(("ready", os.getpid(), arena_attached))
    while True:
        try:
            message = request_q.get(timeout=heartbeat_interval_s)
        except queue.Empty:
            response_q.put(("heartbeat", time.monotonic()))
            continue
        if message is None:
            return
        _, batch_id, payloads = message
        response_q.put(("result", batch_id, _serve_batch(reasoner, payloads)))


def _serve_batch(reasoner, payloads: Sequence[Tuple]) -> List[tuple]:
    """Answer ``(head, relation, k)`` payloads with picklable outcomes.

    Mirrors the parent-side :func:`~repro.serve.batcher.execute_batch`
    contract: one vectorised ``query_batch`` per distinct ``k``, falling back
    to per-request calls when the batched call fails so one bad query never
    poisons its batchmates.  Outcomes are ``("ok", [wire...])`` or
    ``("error", type_name, message)``.
    """
    outcomes: List[Optional[tuple]] = [None] * len(payloads)
    by_k: Dict[int, List[int]] = defaultdict(list)
    for index, (_head, _relation, k) in enumerate(payloads):
        by_k[k].append(index)
    for k, indices in by_k.items():
        results = None
        try:
            results = reasoner.query_batch(
                [(payloads[i][0], payloads[i][1]) for i in indices], k=k
            )
            if len(results) != len(indices):
                results = None
        except Exception:
            results = None
        if results is not None:
            for index, predictions in zip(indices, results):
                outcomes[index] = ("ok", [p.to_wire() for p in predictions])
            continue
        for index in indices:
            head, relation, _k = payloads[index]
            try:
                predictions = reasoner.query(head, relation, k=k)
                outcomes[index] = ("ok", [p.to_wire() for p in predictions])
            except Exception as error:
                outcomes[index] = ("error", type(error).__name__, str(error))
    return outcomes
