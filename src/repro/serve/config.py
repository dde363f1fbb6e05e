"""The unified serving configuration surface.

Every way of booting a daemon — ``ReasoningServer(...)`` in process, the
``mmkgr serve`` CLI, and a load-test spec's ``deployment`` section — used to
grow its own copy of the same kwarg sprawl (workers, batcher shape, default
k, stats interval, ...).  :class:`ServeConfig` collapses them into one frozen
dataclass that all three consume, and adds the knob the sprawl could never
express: the **execution backend**.

* ``backend="threads"`` (default) — reasoner replicas on worker threads in
  this process, sharing one trained pipeline.  Cheapest to boot, but the
  GIL caps aggregate throughput at roughly one core no matter how many
  workers are configured.
* ``backend="processes"`` — OS worker processes that attach to the published
  model arena memory-mapped read-only (:mod:`repro.serve.arena`) and serve
  batches over a request/response queue pair (:mod:`repro.serve.procpool`).
  One copy of the weights in the page cache serves every worker, and QPS
  scales with cores.

The remaining fields are the shared serving shape: worker count, micro-batch
flush policy, default answer count, an optional registry reference, the
canary-routing seed, and the process backend's supervision timings.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

__all__ = ["BACKENDS", "ServeConfig"]

# The execution backends a worker group can run on (see module docstring).
BACKENDS = ("threads", "processes")

# multiprocessing start methods the process backend accepts. "spawn" is the
# default everywhere: forking a parent that already runs batcher/dispatcher
# threads can deadlock in the child, and a spawned worker demonstrably holds
# no inherited copy of the weights — only the mmap.
START_METHODS = ("spawn", "fork", "forkserver")


@dataclass(frozen=True)
class ServeConfig:
    """One serving deployment's complete shape.

    ``registry`` is a registry *root path* (the serialisable form used by
    specs and the CLI); callers holding a live
    :class:`~repro.serve.registry.ModelRegistry` object pass it to
    :class:`~repro.serve.server.ReasoningServer` directly.  The
    ``heartbeat_interval_s`` / ``request_timeout_s`` / ``start_method``
    block only applies to ``backend="processes"``.

    ``max_batch_size`` and ``max_wait_ms`` shape the work-conserving
    :class:`~repro.serve.batcher.DynamicBatcher`: a request that reaches an
    idle worker is dispatched at once, and ``max_wait_ms`` only bounds how
    long a backlog queued behind a running batch is held open to fill up to
    ``max_batch_size``.

    The dataclass is frozen; derive deployment variants with
    :meth:`with_overrides`, which re-validates and rejects typo'd fields
    instead of silently ignoring them:

    >>> config = ServeConfig(max_batch_size=8, max_wait_ms=2.0)
    >>> config.with_overrides(backend="processes", workers=4).workers
    4
    >>> config.workers  # the original is untouched
    1
    >>> config.with_overrides(wrokers=4)
    Traceback (most recent call last):
        ...
    ValueError: unknown ServeConfig field(s): ['wrokers']
    >>> ServeConfig(backend="fibers")
    Traceback (most recent call last):
        ...
    ValueError: backend must be one of ('threads', 'processes'), got 'fibers'
    """

    backend: str = "threads"
    workers: int = 1
    max_batch_size: int = 16
    max_wait_ms: float = 5.0
    default_k: int = 10
    registry: Optional[str] = None
    default_model: Optional[str] = None
    stats_interval_s: Optional[float] = None
    seed: int = 0
    # --- process-backend supervision ---
    heartbeat_interval_s: float = 0.5
    request_timeout_s: float = 30.0
    start_method: str = "spawn"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.default_k < 1:
            raise ValueError("default_k must be >= 1")
        if self.stats_interval_s is not None and self.stats_interval_s <= 0:
            raise ValueError("stats_interval_s must be > 0 when set")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be > 0")
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be > 0")
        if self.start_method not in START_METHODS:
            raise ValueError(
                f"start_method must be one of {START_METHODS}, got {self.start_method!r}"
            )

    def with_overrides(self, **overrides) -> "ServeConfig":
        """A copy with ``overrides`` applied (validated on construction)."""
        unknown = sorted(set(overrides) - {f.name for f in fields(self)})
        if unknown:
            raise ValueError(f"unknown ServeConfig field(s): {unknown}")
        return replace(self, **overrides)
