"""Serving layer: train once, query many times.

The experiment-oriented entry point (:meth:`~repro.core.trainer.
MMKGRPipeline.run`) fuses training and evaluation into one call.  This
package is the query/serving API on top of the trained models:

* :class:`ReasonerProtocol` — the ``fit`` / ``query`` / ``query_batch`` /
  ``save`` contract every reasoner implements;
* :class:`Reasoner` — the facade over the multi-hop RL agents (MMKGR, its
  ablations, and the RL baselines);
* :class:`EmbeddingReasoner` / :class:`RuleReasonerAdapter` — the same
  contract for the single-hop embedding baselines and NeuralLP;
* :func:`load_reasoner` — restore any saved reasoner from disk.

``query_batch`` answers many queries with one lockstep beam search whose
policy/LSTM forward passes are batched across every branch of every query,
which is why it beats a sequential ``query`` loop on serving traffic.

On top of the reasoners sits the model registry and the serving daemon:

* :class:`ModelRegistry` / :class:`ModelVersion` — a versioned on-disk store
  of published reasoners (``publish`` -> immutable ``<name>/<version>/``
  directories, mutable ``prod``/``canary``/``latest`` aliases with atomic
  ``promote``, ``resolve("name@alias")`` look-ups);
* :class:`DynamicBatcher` — coalesces concurrent single queries into
  micro-batches with per-request futures and error isolation; it is
  work-conserving: a request that reaches an idle worker is dispatched at
  once, and only a backlog queued behind a running batch is held, up to
  ``max_wait_ms`` for the oldest, to fill ``max_batch_size``;
* :class:`ReasoningServer` — a multi-tenant router: a :class:`ModelPool` of
  per-model worker groups (reasoner replicas + batcher each, one shared
  stats registry), a versioned HTTP surface (``POST /v1/models/<name>/query``,
  ``GET /v1/models``, per-model ``/stats``) plus the legacy default-model
  endpoints, hot-swap ``reload()`` that drains in-flight batches, and
  seeded-RNG canary routing via ``route()``.

:class:`ServerStats` additionally keeps per-stage latency windows
(:data:`STAGES`: queue wait -> batch-assembly wait -> compute), the raw
material of the load-test harness's capacity reports (:mod:`repro.loadgen`),
and ``healthz_dict()`` turns ``GET /healthz`` into a real readiness probe:
per-model readiness, 503 the moment a drain starts.

The whole deployment shape — including the **execution backend** — lives in
one frozen :class:`ServeConfig`.  ``backend="threads"`` (default) runs
reasoner replicas on worker threads; ``backend="processes"`` spawns OS worker
processes that attach to the published model **arena** (a flattened,
memory-mappable ``arena.npy`` written by ``ModelRegistry.publish``) zero-copy
via :func:`open_arena`, escaping the GIL so aggregate QPS scales with cores
(:class:`ProcessWorkerGroup`, with heartbeats, crash detection and respawn).
"""

from repro.serve.arena import (
    arena_manifest,
    load_arena_reasoner,
    open_arena,
    write_arena,
)
from repro.serve.batcher import BatcherClosed, BatchRequest, DynamicBatcher, execute_batch
from repro.serve.config import BACKENDS, ServeConfig
from repro.serve.engine import BatchBeamSearch
from repro.serve.procpool import ProcessWorkerGroup, WorkerCrashError
from repro.serve.protocol import Prediction, QuerySpec, ReasonerProtocol
from repro.serve.reasoner import (
    EmbeddingReasoner,
    Reasoner,
    RuleReasonerAdapter,
    dataset_fingerprint,
    load_reasoner,
)
from repro.serve.registry import ModelRegistry, ModelVersion
from repro.serve.server import (
    STAGES,
    CanaryRoute,
    ModelPool,
    QueryRequest,
    ReasoningServer,
    ServerStats,
    WorkerGroup,
)

__all__ = [
    "BACKENDS",
    "BatchBeamSearch",
    "BatcherClosed",
    "BatchRequest",
    "CanaryRoute",
    "DynamicBatcher",
    "EmbeddingReasoner",
    "ModelPool",
    "ModelRegistry",
    "ModelVersion",
    "Prediction",
    "ProcessWorkerGroup",
    "QueryRequest",
    "QuerySpec",
    "Reasoner",
    "ReasonerProtocol",
    "ReasoningServer",
    "RuleReasonerAdapter",
    "STAGES",
    "ServeConfig",
    "ServerStats",
    "WorkerCrashError",
    "WorkerGroup",
    "arena_manifest",
    "dataset_fingerprint",
    "execute_batch",
    "load_arena_reasoner",
    "load_reasoner",
    "open_arena",
    "write_arena",
]
