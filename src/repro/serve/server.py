"""The serving daemon: a multi-tenant, micro-batching front end over reasoners.

:class:`ReasoningServer` routes requests to a :class:`ModelPool` of hosted
models.  Each hosted model owns its own worker group — a
:class:`~repro.serve.batcher.DynamicBatcher` plus worker threads holding
reasoner replicas (same trained pipeline, same shared LRU action-space
caches, private beam-search engine) — while all groups share one stats
registry, so per-model counters survive hot swaps.

One daemon can therefore serve every published model of a
:class:`~repro.serve.registry.ModelRegistry` at once:

* versioned HTTP surface — ``POST /v1/models/<name>/query``,
  ``GET /v1/models`` (listing), ``GET /v1/models/<name>/stats`` — with the
  PR-2 endpoints (``POST /query``, ``GET /stats``, ``GET /healthz``) kept as
  aliases for the default model;
* **hot swap** — :meth:`ReasoningServer.reload` re-resolves a model's
  registry reference (so a ``promote()`` of the ``prod`` alias takes effect
  live), switches routing to a fresh worker group, then drains the old
  group's in-flight batches: no request is ever dropped mid-swap;
* **canary routing** — :meth:`ReasoningServer.route` sends a configured
  fraction of one model's traffic to a canary model, drawn from a seeded RNG
  so a replayed request sequence splits identically.

Both front ends (:meth:`~ReasoningServer.serve_http` HTTP/JSON and
:meth:`~ReasoningServer.serve_stdio` JSON-lines) submit into the same pool,
so HTTP traffic and in-process :meth:`~ReasoningServer.submit` callers batch
together per model.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time
from collections import defaultdict, deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Deque, Dict, IO, List, Optional, Sequence, Union
from urllib.parse import unquote

from repro.serve.arena import write_arena
from repro.serve.batcher import BatcherClosed, BatchRequest, DynamicBatcher, execute_batch
from repro.serve.config import ServeConfig
from repro.serve.protocol import EntityLike, Prediction, RelationLike
from repro.serve.registry import ModelRegistry, ModelVersion
from repro.utils.rng import new_rng

__all__ = [
    "STAGES",
    "CanaryRoute",
    "ModelPool",
    "QueryRequest",
    "ReasoningServer",
    "ServeConfig",
    "ServerStats",
    "WorkerGroup",
]

# Errors a malformed query raises at resolve time; reported to the client as
# a request failure, never as a server crash.
QUERY_ERRORS = (KeyError, IndexError, ValueError, TypeError)

_LATENCY_WINDOW = 4096


@dataclass(frozen=True)
class QueryRequest:
    """One ``(head, relation, ?)`` query with its requested answer count."""

    head: EntityLike
    relation: RelationLike
    k: int = 10


def _percentile(sample: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile over ``sample`` (NumPy's default method).

    The previous nearest-rank variant used ``int(round(...))``, and Python's
    banker's rounding made small-window percentiles jump between neighbouring
    samples: the 2-sample p50 snapped to the *lower* sample
    (``round(0.5) == 0``) while the 4-sample p50 snapped to the upper-middle
    one (``round(1.5) == 2``).  Interpolating between the two straddling
    order statistics keeps every window size smooth: one sample returns
    itself, two samples return their ``fraction``-weighted blend.
    """
    if not sample:
        return 0.0
    ordered = sorted(sample)
    position = fraction * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * weight


# The per-stage components of one request's latency, in dispatch order:
# queue wait (enqueue -> a worker starts assembling its batch), batch wait
# (assembly -> the batch flushes to the worker) and compute (flush -> done).
STAGES = ("queue_wait", "batch_wait", "compute")


@dataclass
class ServerStats:
    """Running counters of one hosted model, exposed via the stats endpoints.

    Latency percentiles are computed over a sliding window of the most
    recent :data:`_LATENCY_WINDOW` requests (queueing + execution time);
    the per-stage breakdown (:data:`STAGES`) keeps its own windows of the
    same size so capacity reports can attribute latency to queue wait,
    batch-assembly wait, or compute.
    """

    requests_total: int = 0
    errors_total: int = 0
    batches_total: int = 0
    batch_size_histogram: Dict[int, int] = field(default_factory=dict)
    _latencies: Deque[float] = field(
        default_factory=lambda: deque(maxlen=_LATENCY_WINDOW), repr=False
    )
    _stages: Dict[str, Deque[float]] = field(
        default_factory=lambda: {
            stage: deque(maxlen=_LATENCY_WINDOW) for stage in STAGES
        },
        repr=False,
    )
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # ---------------------------------------------------------------- recording
    def record_batch(self, size: int) -> None:
        with self._lock:
            self.batches_total += 1
            self.batch_size_histogram[size] = self.batch_size_histogram.get(size, 0) + 1

    def record_request(self, latency_s: float, error: bool = False) -> None:
        with self._lock:
            self.requests_total += 1
            if error:
                self.errors_total += 1
            self._latencies.append(latency_s)

    def record_stage_times(
        self, queue_wait_s: float, batch_wait_s: float, compute_s: float
    ) -> None:
        """Record one request's per-stage latency split (seconds)."""
        with self._lock:
            self._stages["queue_wait"].append(queue_wait_s)
            self._stages["batch_wait"].append(batch_wait_s)
            self._stages["compute"].append(compute_s)

    # ----------------------------------------------------------------- reporting
    @property
    def mean_batch_size(self) -> float:
        with self._lock:
            total = sum(size * count for size, count in self.batch_size_histogram.items())
            return total / self.batches_total if self.batches_total else 0.0

    def latency_percentile_ms(self, fraction: float) -> float:
        with self._lock:
            return 1000.0 * _percentile(list(self._latencies), fraction)

    def stage_percentile_ms(self, stage: str, fraction: float) -> float:
        with self._lock:
            return 1000.0 * _percentile(list(self._stages[stage]), fraction)

    def stage_samples(self) -> Dict[str, List[float]]:
        """A snapshot of the per-stage latency windows (seconds, oldest first)."""
        with self._lock:
            return {stage: list(samples) for stage, samples in self._stages.items()}

    def error_rate(self) -> float:
        with self._lock:
            return self.errors_total / self.requests_total if self.requests_total else 0.0

    def to_dict(self, queue_depth: int = 0) -> dict:
        with self._lock:
            histogram = {
                str(size): count
                for size, count in sorted(self.batch_size_histogram.items())
            }
            requests_total = self.requests_total
            errors_total = self.errors_total
            batches_total = self.batches_total
            stages = {stage: list(samples) for stage, samples in self._stages.items()}
        stage_block = {}
        for stage, samples in stages.items():
            stage_block[f"{stage}_ms"] = {
                "mean": 1000.0 * (sum(samples) / len(samples)) if samples else 0.0,
                "p50": 1000.0 * _percentile(samples, 0.50),
                "p99": 1000.0 * _percentile(samples, 0.99),
            }
        return {
            "requests_total": requests_total,
            "errors_total": errors_total,
            "batches_total": batches_total,
            "queue_depth": queue_depth,
            "batch_size_histogram": histogram,
            "mean_batch_size": self.mean_batch_size,
            "latency_p50_ms": self.latency_percentile_ms(0.50),
            "latency_p99_ms": self.latency_percentile_ms(0.99),
            "stages": stage_block,
        }


@dataclass(frozen=True)
class CanaryRoute:
    """A weighted traffic split: ``fraction`` of a model's requests go to ``canary``."""

    canary: str
    fraction: float


class WorkerGroup:
    """Common machinery of one hosted model's worker group, on any backend.

    A group owns the model's :class:`~repro.serve.batcher.DynamicBatcher` and
    records into the pool's shared per-name :class:`ServerStats` block; a
    concrete backend supplies the workers that drain the batcher — reasoner
    replicas on threads here (:class:`_ModelEntry`), OS processes attached to
    the memory-mapped model arena in
    :class:`repro.serve.procpool.ProcessWorkerGroup`.  Groups are immutable
    once started; a hot swap builds a fresh group and retires the old one.
    """

    backend = "threads"

    def __init__(
        self,
        name: str,
        stats: ServerStats,
        config: ServeConfig,
        version: Optional[int] = None,
        source: Optional[str] = None,
    ):
        self.name = name
        self.stats = stats
        self.config = config
        self.version = version
        self.source = source
        self.reasoner = None
        self.batcher = DynamicBatcher(
            max_batch_size=config.max_batch_size, max_wait_ms=config.max_wait_ms
        )

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Stop accepting work and drain: queued requests still get answers."""
        raise NotImplementedError

    # ------------------------------------------------------------------- serving
    def submit(self, payload: QueryRequest) -> "Future[List[Prediction]]":
        submitted = time.monotonic()
        future = self.batcher.submit(payload)

        def _record(done: Future) -> None:
            failed = (not done.cancelled()) and done.exception() is not None
            self.stats.record_request(time.monotonic() - submitted, error=failed)

        future.add_done_callback(_record)
        return future

    def stats_dict(self) -> dict:
        payload = self.stats.to_dict(queue_depth=self.batcher.depth)
        payload["model"] = self.name
        payload["backend"] = self.backend
        if self.version is not None:
            payload["version"] = self.version
        return payload

    def _record_batch_stages(self, batch: List[BatchRequest], completed: float) -> None:
        """Attribute each answered request's latency to the serving stages."""
        for request in batch:
            # A request that arrived while the batch was already coalescing
            # never waited in the queue; its wait is all batch-assembly time.
            dequeued = request.dequeued_at if request.dequeued_at is not None else completed
            assembly = (
                request.assembly_started_at
                if request.assembly_started_at is not None
                else dequeued
            )
            self.stats.record_stage_times(
                max(0.0, assembly - request.enqueued_at),
                max(0.0, dequeued - max(assembly, request.enqueued_at)),
                max(0.0, completed - dequeued),
            )


class _ModelEntry(WorkerGroup):
    """The thread execution backend: reasoner replicas on worker threads.

    Replicas share the trained pipeline and its LRU action-space caches;
    cheap to boot, but the GIL serialises their numpy compute, so aggregate
    throughput stays roughly one core's worth regardless of ``workers``.
    """

    def __init__(
        self,
        name: str,
        reasoner,
        stats: ServerStats,
        config: ServeConfig,
        version: Optional[int] = None,
        source: Optional[str] = None,
    ):
        super().__init__(name, stats=stats, config=config, version=version, source=source)
        self.reasoner = reasoner
        self._replicas = [reasoner]
        for _ in range(config.workers - 1):
            replicate = getattr(reasoner, "replicate", None)
            self._replicas.append(replicate() if callable(replicate) else reasoner)
        self._threads: List[threading.Thread] = []

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> None:
        if self._threads:
            return
        for index, replica in enumerate(self._replicas):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(replica,),
                name=f"mmkgr-serve-{self.name}-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def close(self) -> None:
        self.batcher.close()
        for thread in self._threads:
            thread.join()
        self._threads = []

    # ----------------------------------------------------------------- reporting
    def stats_dict(self) -> dict:
        payload = super().stats_dict()
        cache_stats = getattr(self.reasoner, "cache_stats", None)
        if callable(cache_stats):
            payload["cache"] = cache_stats()
        return payload

    # ------------------------------------------------------------------- workers
    def _worker_loop(self, replica) -> None:
        while True:
            batch = self.batcher.next_batch()
            if batch is None:
                return
            self.stats.record_batch(len(batch))
            self._process(replica, batch)
            self._record_batch_stages(batch, time.monotonic())

    def _process(self, replica, batch: List[BatchRequest]) -> None:
        # query_batch answers one k for the whole batch; group mixed-k
        # traffic so every request still rides a vectorized call.
        by_k: Dict[int, List[BatchRequest]] = defaultdict(list)
        for request in batch:
            by_k[request.payload.k].append(request)
        for k, group in by_k.items():
            execute_batch(
                group,
                lambda payloads, k=k: replica.query_batch(
                    [(p.head, p.relation) for p in payloads], k=k
                ),
                lambda payload, k=k: replica.query(payload.head, payload.relation, k=k),
            )


class ModelPool:
    """Named per-model worker groups behind one shared stats registry.

    The pool's :class:`ServeConfig` decides the execution backend of every
    group it builds: thread-backed :class:`_ModelEntry` replicas (default),
    or process-backed groups attached to the on-disk model arena
    (``backend="processes"``, which therefore needs each model's
    ``model_path``).  Routing reads and entry swaps synchronise on one lock;
    the swap replaces the routing entry first and drains the retired worker
    group *outside* the lock, so new traffic flows to the new workers while
    old batches finish on the old ones.
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config if config is not None else ServeConfig()
        self._entries: Dict[str, WorkerGroup] = {}
        self._stats: Dict[str, ServerStats] = {}
        self._lock = threading.RLock()
        self._started = False

    # ------------------------------------------------------------------ access
    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._entries

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def entry(self, name: str) -> WorkerGroup:
        with self._lock:
            try:
                return self._entries[name]
            except KeyError:
                known = ", ".join(sorted(self._entries)) or "(none)"
                raise KeyError(f"no hosted model {name!r} (hosted: {known})") from None

    def stats_for(self, name: str) -> ServerStats:
        """The shared (swap-surviving) counter block of ``name``."""
        return self.entry(name).stats

    # ---------------------------------------------------------------- building
    def _build_group(
        self,
        name: str,
        reasoner,
        stats: ServerStats,
        version: Optional[int],
        source: Optional[str],
        model_path: Optional[Path],
    ) -> WorkerGroup:
        if self.config.backend == "processes":
            from repro.serve.procpool import ProcessWorkerGroup

            if model_path is None:
                raise ValueError(
                    f"model {name!r} has no on-disk save for process workers to "
                    "attach to; publish it to a registry or let the server "
                    "spill it (ReasoningServer.add_model does this)"
                )
            return ProcessWorkerGroup(
                name,
                model_path,
                stats=stats,
                config=self.config,
                version=version,
                source=source,
            )
        return _ModelEntry(
            name,
            reasoner,
            stats=stats,
            config=self.config,
            version=version,
            source=source,
        )

    # ---------------------------------------------------------------- mutation
    def add(
        self,
        name: str,
        reasoner,
        version: Optional[int] = None,
        source: Optional[str] = None,
        model_path: Optional[Path] = None,
    ) -> WorkerGroup:
        with self._lock:
            if name in self._entries:
                raise ValueError(f"model {name!r} is already hosted; use swap() to replace it")
            stats = self._stats.setdefault(name, ServerStats())
            entry = self._build_group(name, reasoner, stats, version, source, model_path)
            self._entries[name] = entry
            if self._started:
                entry.start()
            return entry

    def swap(
        self,
        name: str,
        reasoner,
        version: Optional[int] = None,
        source: Optional[str] = None,
        model_path: Optional[Path] = None,
    ) -> WorkerGroup:
        """Replace ``name``'s worker group, then drain the retired group."""
        with self._lock:
            retired = self.entry(name)
            entry = self._build_group(
                name,
                reasoner,
                self._stats[name],
                version,
                source if source is not None else retired.source,
                model_path,
            )
            if self._started:
                entry.start()
            self._entries[name] = entry
        # Outside the lock: in-flight and queued requests finish on the old
        # workers while new submissions already hit the new ones.
        retired.close()
        return entry

    # --------------------------------------------------------------- lifecycle
    def start(self) -> None:
        with self._lock:
            self._started = True
            entries = list(self._entries.values())
        for entry in entries:
            entry.start()

    def close(self) -> None:
        with self._lock:
            self._started = False
            entries = list(self._entries.values())
        for entry in entries:
            entry.close()


class ReasoningServer:
    """Multi-tenant router: a :class:`ModelPool` behind HTTP/stdio front ends.

    The single-model shape from PR 2 still works unchanged —
    ``ReasoningServer(reasoner)`` hosts one model (named after the reasoner)
    and ``submit``/``query``/``/query`` address it implicitly.  Hand the
    server a :class:`~repro.serve.registry.ModelRegistry` (``registry=``) and
    it can additionally host published versions by reference
    (:meth:`add_model`), re-resolve them live (:meth:`reload`), and split
    traffic between them (:meth:`route`).
    """

    def __init__(
        self,
        reasoner=None,
        config: Optional[ServeConfig] = None,
        registry: Optional[Union[ModelRegistry, str]] = None,
        default_model: Optional[str] = None,
    ):
        config = config if config is not None else ServeConfig()
        if registry is None and config.registry is not None:
            registry = config.registry
        if default_model is None:
            default_model = config.default_model
        if reasoner is None and registry is None:
            raise ValueError("pass a reasoner, a registry=, or both")
        if registry is not None and not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        self.config = config
        self.registry = registry
        self.default_k = config.default_k
        self.pool = ModelPool(config)
        self.default_model: Optional[str] = None
        self._routes: Dict[str, CanaryRoute] = {}
        self._route_lock = threading.Lock()
        self._route_rng = new_rng(config.seed)
        self._spill_dirs: List[Path] = []
        self._started = False
        self._shutting_down = False
        if reasoner is not None:
            self.add_model(reasoner=reasoner, name=default_model)
        elif default_model is not None:
            self.add_model(default_model)

    # --------------------------------------------------------------- tenancy
    def add_model(
        self,
        ref: Optional[str] = None,
        reasoner=None,
        name: Optional[str] = None,
    ) -> str:
        """Host a model and return its routing key.

        Either pass ``reasoner=`` (an in-memory fitted reasoner; ``name``
        defaults to its ``.name``) or a registry reference ``ref`` like
        ``"mmkgr"``, ``"mmkgr@3"`` or ``"mmkgr@prod"`` — the reference is
        remembered verbatim so :meth:`reload` re-resolves aliases.  The
        first hosted model becomes the default.
        """
        model_path: Optional[Path] = None
        if reasoner is not None:
            key = name or getattr(reasoner, "name", None) or "default"
            entry_version: Optional[int] = None
            source: Optional[str] = None
            if self.config.backend == "processes":
                reasoner, model_path = None, self._spill(reasoner)
        else:
            if ref is None:
                raise ValueError("pass a registry reference or reasoner=")
            if self.registry is None:
                raise RuntimeError(
                    "this server has no registry; construct it with registry= "
                    "to host models by reference"
                )
            resolved = self.registry.resolve(ref)
            key = name or resolved.name
            entry_version = resolved.version
            source = str(ref)
            if self.config.backend == "processes":
                # The parent never loads the weights: workers map the
                # published version's arena straight off disk.
                model_path = resolved.path
            else:
                reasoner = resolved.load()
        self.pool.add(
            key, reasoner, version=entry_version, source=source, model_path=model_path
        )
        if self.default_model is None:
            self.default_model = key
        return key

    def _spill(self, reasoner) -> Path:
        """Persist an in-memory reasoner so worker processes can load it.

        Agent reasoners additionally get an arena, so the spilled copy still
        attaches zero-copy; pickle families (no weight archives) load per
        worker.  Spill directories are removed on :meth:`close`.
        """
        spill = Path(tempfile.mkdtemp(prefix=f"mmkgr-spill-{os.getpid()}-"))
        reasoner.save(spill)
        write_arena(spill)
        self._spill_dirs.append(spill)
        return spill

    def reload(self, name: Optional[str] = None, reasoner=None) -> Optional[ModelVersion]:
        """Hot-swap a hosted model without dropping in-flight requests.

        With ``reasoner=`` the given instance takes over.  Otherwise the
        model's stored registry reference is re-resolved — so after
        ``registry.promote(name, "prod", v)`` a ``reload(name)`` switches the
        live ``name@prod`` traffic to version ``v``.  New submissions route
        to the fresh worker group immediately; the retired group drains its
        queued batches before its threads exit.  Returns the
        :class:`~repro.serve.registry.ModelVersion` swapped in (``None`` for
        an explicit ``reasoner=``).
        """
        key = name or self._require_default()
        entry = self.pool.entry(key)
        if reasoner is not None:
            if self.config.backend == "processes":
                self.pool.swap(key, None, model_path=self._spill(reasoner))
            else:
                self.pool.swap(key, reasoner)
            return None
        if self.registry is None or entry.source is None:
            raise RuntimeError(
                f"model {key!r} is not registry-backed; pass reasoner= to swap it"
            )
        resolved = self.registry.resolve(entry.source)
        if self.config.backend == "processes":
            # Map the new version's arena; the retired group drains, then its
            # workers exit and the old mapping disappears with them.
            self.pool.swap(
                key,
                None,
                version=resolved.version,
                source=entry.source,
                model_path=resolved.path,
            )
        else:
            self.pool.swap(
                key, resolved.load(), version=resolved.version, source=entry.source
            )
        return resolved

    def route(
        self, name: str, canary_fraction: float, canary: Optional[str] = None
    ) -> Optional[str]:
        """Send ``canary_fraction`` of ``name``'s traffic to a canary model.

        ``canary`` may be an already-hosted key or a registry reference
        (hosted on demand under the reference itself); by default the
        model's ``@canary`` alias is resolved from the registry.  The split
        is drawn from the server's seeded RNG, so an identical submission
        sequence reproduces the identical split.  ``canary_fraction=0``
        removes the route.  Returns the canary's routing key.
        """
        if not 0.0 <= canary_fraction <= 1.0:
            raise ValueError("canary_fraction must be within [0, 1]")
        key = name
        entry = self.pool.entry(key)
        if canary_fraction == 0.0:
            with self._route_lock:
                self._routes.pop(key, None)
            return None
        canary_key = canary
        if canary_key is None:
            model_name = (entry.source or key).partition("@")[0]
            canary_key = f"{model_name}@canary"
        if canary_key not in self.pool:
            self.add_model(canary_key, name=canary_key)
        if canary_key == key:
            raise ValueError(f"model {key!r} cannot canary to itself")
        with self._route_lock:
            self._routes[key] = CanaryRoute(canary=canary_key, fraction=float(canary_fraction))
        return canary_key

    def routes(self) -> Dict[str, CanaryRoute]:
        with self._route_lock:
            return dict(self._routes)

    def _require_default(self) -> str:
        if self.default_model is None:
            raise RuntimeError("no models hosted; call add_model() first")
        return self.default_model

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> "ReasoningServer":
        """Launch every hosted model's worker group (idempotent)."""
        if self._started:
            return self
        self._started = True
        self._shutting_down = False
        self.pool.start()
        return self

    def close(self) -> None:
        """Stop accepting work and wait for queued requests to drain.

        The shutdown flag flips *before* the pool drains, so ``/healthz``
        reports 503 for the whole drain window — a load balancer stops
        sending traffic to a daemon that is already refusing submissions.
        """
        self._shutting_down = True
        self.pool.close()
        self._started = False
        spills, self._spill_dirs = self._spill_dirs, []
        for spill in spills:
            shutil.rmtree(spill, ignore_errors=True)

    def __enter__(self) -> "ReasoningServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------- serving
    def submit(
        self,
        head: EntityLike,
        relation: RelationLike,
        k: Optional[int] = None,
        model: Optional[str] = None,
    ) -> "Future[List[Prediction]]":
        """Queue one query; the returned future resolves to its predictions.

        ``model`` picks a hosted model (default: the default model).  When a
        canary route is configured for the chosen model, this call draws the
        canary split from the seeded RNG.
        """
        if not self._started:
            raise RuntimeError("the server is not running; call start() first")
        key = model if model is not None else self._require_default()
        with self._route_lock:
            route = self._routes.get(key)
            # Draw inside the lock: one shared stream keeps the split
            # reproducible for a deterministic submission order.
            if route is not None and self._route_rng.random() < route.fraction:
                key = route.canary
        payload = QueryRequest(head, relation, k if k is not None else self.default_k)
        while True:
            entry = self.pool.entry(key)
            try:
                return entry.submit(payload)
            except BatcherClosed:
                # A hot swap retired this entry between the pool lookup and
                # the submit; the pool already routes to its replacement.
                # Only a still-registered closed entry means the server
                # itself is shutting down.
                if self.pool.entry(key) is entry:
                    raise

    def query(
        self,
        head: EntityLike,
        relation: RelationLike,
        k: Optional[int] = None,
        model: Optional[str] = None,
    ) -> List[Prediction]:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(head, relation, k=k, model=model).result()

    # ----------------------------------------------------------------- reporting
    @property
    def stats(self) -> ServerStats:
        """The default model's counters (single-model API of PR 2)."""
        return self.pool.stats_for(self._require_default())

    @property
    def reasoner(self):
        """The default model's live reasoner (single-model API of PR 2)."""
        return self.pool.entry(self._require_default()).reasoner

    def stats_dict(self, model: Optional[str] = None) -> dict:
        return self.pool.entry(model or self._require_default()).stats_dict()

    def healthz_dict(self) -> tuple:
        """``(healthy, payload)`` for ``GET /healthz``.

        Healthy means the server is started, not shutting down, and every
        hosted model's worker group still accepts submissions; the payload
        carries per-model readiness so a load balancer can tell a draining
        daemon from one with a single wedged worker group.
        """
        models = {}
        for name in self.pool.names():
            entry = self.pool.entry(name)
            models[name] = {"ready": not entry.batcher.closed}
            if entry.version is not None:
                models[name]["version"] = entry.version
        healthy = (
            self._started
            and not self._shutting_down
            and all(model["ready"] for model in models.values())
        )
        if self._shutting_down:
            status = "draining"
        elif healthy:
            status = "ok"
        else:
            status = "unready"
        return healthy, {"status": status, "models": models}

    def models_dict(self) -> dict:
        """The ``GET /v1/models`` listing: every hosted model and its route."""
        routes = self.routes()
        models = []
        for key in self.pool.names():
            entry = self.pool.entry(key)
            info: Dict[str, Any] = {
                "name": key,
                "version": entry.version,
                "source": entry.source,
                "requests_total": entry.stats.requests_total,
            }
            route = routes.get(key)
            if route is not None:
                info["canary"] = {"model": route.canary, "fraction": route.fraction}
            models.append(info)
        return {"default_model": self.default_model, "models": models}

    # ---------------------------------------------------------------- front ends
    def serve_http(self, host: str = "127.0.0.1", port: int = 8977) -> None:
        """Serve HTTP/JSON until interrupted (blocking)."""
        with self.http_server(host, port) as httpd:
            httpd.serve_forever()

    def http_server(self, host: str = "127.0.0.1", port: int = 8977) -> ThreadingHTTPServer:
        """Build (but do not run) the HTTP front end; useful for tests."""
        self.start()
        server = ThreadingHTTPServer((host, port), _RequestHandler)
        server.daemon_threads = True
        server.reasoning_server = self
        return server

    def serve_stdio(self, input_stream: IO[str], output_stream: IO[str]) -> int:
        """JSON-lines mode: one query per input line, one result per output line.

        Queries are submitted as they are read, so consecutive lines coalesce
        into micro-batches; an optional ``"model"`` field routes a line to a
        hosted model.  Answered lines are emitted in input order; a line the
        server cannot even submit (malformed JSON, bad fields, unknown model)
        is answered immediately with an error record, ahead of earlier valid
        lines whose batches are still in flight.  Returns the number of
        failed requests (0 = every line answered).
        """
        self.start()
        pending: Deque[tuple[dict, Future]] = deque()
        failures = 0

        def drain(block: bool) -> int:
            failed = 0
            while pending and (block or pending[0][1].done()):
                echo, future = pending.popleft()
                try:
                    predictions = future.result()
                    record = dict(echo)
                    record["predictions"] = [p.to_dict() for p in predictions]
                except Exception as error:
                    # Bad queries and engine failures alike become an error
                    # record on the stream — pending lines must still get
                    # their answers, mirroring the HTTP front end's 400/500.
                    record = dict(echo)
                    record["error"] = str(error)
                    failed += 1
                output_stream.write(json.dumps(record) + "\n")
            output_stream.flush()
            return failed

        for line in input_stream:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                model = None
                if isinstance(payload, dict) and "model" in payload:
                    model = payload["model"]
                    if not isinstance(model, str):
                        raise ValueError("'model' must be a hosted model name")
                head, relation, k = _parse_query_object(payload, self.default_k)
                future = self.submit(head, relation, k=k, model=model)
            except (ValueError, TypeError, KeyError) as error:
                output_stream.write(json.dumps({"error": str(error), "input": line}) + "\n")
                output_stream.flush()
                failures += 1
                continue
            echo = {"head": head, "relation": relation, "k": k}
            if model is not None:
                echo["model"] = model
            pending.append((echo, future))
            failures += drain(block=False)
        failures += drain(block=True)
        return failures


def _reject_boolean(name: str, value: Any) -> Any:
    """``bool`` is an ``int`` subclass, so ``True`` would silently pass every
    integer-shaped check and resolve as entity/relation id 1; reject it with
    a clear client error instead."""
    if isinstance(value, bool):
        raise ValueError(f"'{name}' must not be a boolean")
    return value


def _parse_query_object(payload: Any, default_k: int) -> tuple:
    """Accept ``{"head": .., "relation": .., "k": ..}`` or a ``[head, relation]`` pair."""
    if isinstance(payload, dict):
        if "head" not in payload or "relation" not in payload:
            raise ValueError("query object requires 'head' and 'relation' fields")
        k = payload.get("k", default_k)
    elif isinstance(payload, (list, tuple)) and len(payload) == 2:
        payload = {"head": payload[0], "relation": payload[1]}
        k = default_k
    else:
        raise ValueError(
            "expected a {'head', 'relation'[, 'k']} object or a [head, relation] pair"
        )
    head = _reject_boolean("head", payload["head"])
    relation = _reject_boolean("relation", payload["relation"])
    k = int(_reject_boolean("k", k))
    if k < 1:
        raise ValueError("k must be >= 1")
    return head, relation, k


class _RequestHandler(BaseHTTPRequestHandler):
    """Stdlib request handler for the versioned multi-tenant surface.

    ``POST /v1/models/<name>/query`` and ``GET /v1/models/<name>/stats``
    address hosted models; ``GET /v1/models`` lists them; ``/query``,
    ``/stats`` and ``/healthz`` stay as the PR-2 default-model aliases.
    """

    protocol_version = "HTTP/1.1"
    # Each reply leaves as one TCP segment: Nagle is off, and the buffered
    # wfile holds the header block and the body until the stdlib flushes it
    # after the request.  Two small writes with Nagle on make every
    # keep-alive reply wait out the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True
    wbufsize = 64 * 1024
    # 30 s is far beyond any sane micro-batch wait; it bounds a wedged worker.
    result_timeout_s = 30.0
    # A query body is a few dozen bytes; anything past this is refused unread.
    max_body_bytes = 1 << 20
    # Socket read/write timeout (stdlib StreamRequestHandler): a body that
    # stalls this long answers 408, and an idle keep-alive connection closes.
    timeout = 10.0

    @property
    def reasoning(self) -> ReasoningServer:
        return self.server.reasoning_server

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        pass  # per-request logging is the stats endpoint's job

    def handle_expect_100(self) -> bool:
        # The buffered wfile would hold the interim 100 back while the
        # client waits for it before sending the body.
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _model_path(self, expected_leaf: str) -> Optional[str]:
        """``/v1/models/<name>/<leaf>`` -> the decoded model name, else ``None``."""
        parts = self.path.split("/")
        if len(parts) == 5 and parts[1] == "v1" and parts[2] == "models" and parts[4] == expected_leaf:
            return unquote(parts[3])
        return None

    def _resolve_model(self, name: Optional[str]) -> Optional[str]:
        """Validate the addressed model; answers the 404 itself on a miss."""
        if name is not None and name not in self.reasoning.pool:
            self._send_json(
                404,
                {"error": f"no hosted model {name!r}", "models": self.reasoning.pool.names()},
            )
            return None
        return name if name is not None else self.reasoning.default_model

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/stats":
            self._send_json(200, self.reasoning.stats_dict())
        elif self.path == "/healthz":
            healthy, payload = self.reasoning.healthz_dict()
            self._send_json(200 if healthy else 503, payload)
        elif self.path == "/v1/models":
            self._send_json(200, self.reasoning.models_dict())
        elif (name := self._model_path("stats")) is not None:
            if self._resolve_model(name) is not None:
                self._send_json(200, self.reasoning.stats_dict(model=name))
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        # Always consume the body first: on a keep-alive connection, unread
        # body bytes would be parsed as the next request line.  A body that
        # is refused unread closes the connection instead.
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except (ValueError, TypeError):
            length = -1
        if length < 0:
            self.close_connection = True
            self._send_json(400, {"error": "invalid Content-Length header"})
            return
        if length > self.max_body_bytes:
            self.close_connection = True
            self._send_json(
                413, {"error": f"request body exceeds {self.max_body_bytes} bytes"}
            )
            return
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            self.close_connection = True
            self._send_json(
                408, {"error": f"request body not received within {self.timeout:g} s"}
            )
            return
        if self.path == "/query":
            url_model = None
        elif (url_model := self._model_path("query")) is None:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            payload = json.loads(body or b"null")
            # The body may name a model too (the stdio protocol's shape); it
            # must agree with the URL when both are given.
            body_model = None
            if isinstance(payload, dict) and "model" in payload:
                body_model = payload["model"]
                if not isinstance(body_model, str):
                    raise ValueError("'model' must be a hosted model name")
            if url_model is not None and body_model is not None and body_model != url_model:
                raise ValueError(
                    f"body model {body_model!r} conflicts with URL model {url_model!r}"
                )
            head, relation, k = _parse_query_object(payload, self.reasoning.default_k)
        except (ValueError, TypeError, KeyError) as error:
            self._send_json(400, {"error": str(error)})
            return
        model = url_model if url_model is not None else body_model
        served_by = self._resolve_model(model)
        if served_by is None and model is not None:
            return  # 404 already sent
        try:
            future = self.reasoning.submit(head, relation, k=k, model=model)
            predictions = future.result(timeout=self.result_timeout_s)
        except FutureTimeoutError:
            # A request still queued is dropped by its backend, not computed.
            future.cancel()
            self._send_json(
                504, {"error": f"no result within {self.result_timeout_s:g} s"}
            )
            return
        except QUERY_ERRORS as error:
            self._send_json(400, {"error": str(error)})
            return
        except Exception as error:  # engine failure: the client still gets JSON
            self._send_json(500, {"error": str(error)})
            return
        self._send_json(
            200,
            {
                "model": served_by,
                "head": head,
                "relation": relation,
                "k": k,
                "predictions": [p.to_dict() for p in predictions],
            },
        )
