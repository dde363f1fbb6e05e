"""The sweep runner: boot a server per operating point and measure it.

Execution of one spec:

1. build the deployment's reasoners once — train from a named preset (one
   trained model, a shared-cache replica per hosted name) or load each
   reference from a model registry;
2. plan every sweep point's request sequence up front (seeded child
   streams: replayable by construction);
3. per point, boot a fresh :class:`~repro.serve.ReasoningServer` with the
   spec's worker/batcher shape, drive the plan, and collect client records
   plus the server's per-stage latency windows;
4. find the saturation knee across points and, when the spec carries an
   SLO, run one extra open-loop validation point at the configured fraction
   of the knee.

A fresh server per point keeps the stats windows and batcher queues of one
operating point from bleeding into the next; the (warmed-up) reasoners are
shared across points on purpose — capacity planning measures the steady
state, not cold starts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.config import (
    EvaluationConfig,
    ExperimentPreset,
    MMKGRConfig,
)
from repro.embeddings.trainer import EmbeddingTrainingConfig
from repro.kg.datasets import build_named_dataset
from repro.loadgen.driver import run_plan
from repro.loadgen.metering import point_metrics
from repro.loadgen.report import build_report, evaluate_slo, find_knee
from repro.loadgen.spec import DeploymentSpec, LoadTestSpec, spec_to_dict
from repro.loadgen.workload import WorkloadPlan, plan_slo_point, plan_sweep, query_mix
from repro.rl.imitation import ImitationConfig
from repro.rl.reinforce import ReinforceConfig
from repro.rl.rewards import RewardConfig
from repro.serve import ModelRegistry, Reasoner, ReasoningServer, ServeConfig

__all__ = ["build_reasoners", "deployment_preset", "run_loadtest"]


def _tiny_preset() -> ExperimentPreset:
    """The smallest trainable shape — smoke loadtests and unit tests."""
    return ExperimentPreset(
        name="loadgen-tiny",
        model=MMKGRConfig(
            structural_dim=8,
            history_dim=8,
            auxiliary_dim=8,
            attention_dim=8,
            joint_dim=8,
            policy_hidden_dim=16,
            max_steps=3,
            max_actions=16,
            seed=3,
        ),
        reward=RewardConfig(),
        reinforce=ReinforceConfig(epochs=1, batch_size=32, learning_rate=3e-3),
        imitation=ImitationConfig(epochs=2, batch_size=16, learning_rate=8e-3),
        embedding=EmbeddingTrainingConfig(epochs=5, batch_size=32, learning_rate=0.1),
        evaluation=EvaluationConfig(beam_width=4, max_queries=10),
        dataset_scale=0.2,
    )


def _bench_preset() -> ExperimentPreset:
    """The benchmark harness's model shape (benchmarks/common.bench_preset)."""
    return ExperimentPreset(
        name="loadgen-bench",
        model=MMKGRConfig(
            structural_dim=16,
            history_dim=16,
            auxiliary_dim=16,
            attention_dim=16,
            joint_dim=16,
            policy_hidden_dim=32,
            max_steps=3,
            max_actions=32,
            seed=11,
        ),
        reward=RewardConfig(),
        reinforce=ReinforceConfig(epochs=2, batch_size=64, learning_rate=3e-3),
        imitation=ImitationConfig(epochs=20, batch_size=16, learning_rate=8e-3),
        embedding=EmbeddingTrainingConfig(epochs=15, batch_size=64, learning_rate=0.1),
        evaluation=EvaluationConfig(beam_width=6, max_queries=25),
        dataset_scale=0.3,
    )


_PRESETS = {"tiny": _tiny_preset, "bench": _bench_preset}


def deployment_preset(deployment: DeploymentSpec) -> ExperimentPreset:
    """Resolve the deployment's training preset (named or from a JSON file)."""
    if deployment.preset_config is not None:
        from repro.core.config_io import load_preset

        return load_preset(deployment.preset_config)
    return _PRESETS[deployment.preset]()


def build_reasoners(deployment: DeploymentSpec, dataset) -> Dict[str, object]:
    """The hosted reasoners, keyed by routing name.

    Registry deployments resolve each entry of ``models`` as a reference and
    host it under the reference's model name.  Preset deployments train one
    reasoner and host a shared-cache replica under every requested name —
    multi-tenant routing and hot-key skew are exercised without paying for
    one training run per tenant.
    """
    if deployment.registry is not None:
        registry = ModelRegistry(deployment.registry)
        reasoners: Dict[str, object] = {}
        for ref in deployment.models:
            resolved = registry.resolve(ref)
            if resolved.name in reasoners:
                raise ValueError(
                    f"deployment.models resolves {ref!r} to already-hosted "
                    f"model {resolved.name!r}"
                )
            reasoners[resolved.name] = resolved.load()
        return reasoners
    preset = deployment_preset(deployment)
    base = Reasoner(preset=preset, rng=deployment.seed).fit(dataset)
    reasoners = {}
    for index, name in enumerate(deployment.models):
        if name in reasoners:
            raise ValueError(f"deployment.models lists {name!r} twice")
        reasoners[name] = base if index == 0 else base.replicate()
    return reasoners


def _boot_server(deployment: DeploymentSpec, reasoners: Dict[str, object]) -> ReasoningServer:
    config = ServeConfig(
        backend=deployment.backend,
        workers=deployment.workers,
        max_batch_size=deployment.max_batch_size,
        max_wait_ms=deployment.max_wait_ms,
        default_k=deployment.k,
    )
    server: Optional[ReasoningServer] = None
    for name, reasoner in reasoners.items():
        if server is None:
            server = ReasoningServer(reasoner, config=config, default_model=name)
        else:
            server.add_model(reasoner=reasoner, name=name)
    return server.start()


def _measure_point(
    deployment: DeploymentSpec,
    reasoners: Dict[str, object],
    plan: WorkloadPlan,
    timeout_s: float,
) -> dict:
    server = _boot_server(deployment, reasoners)
    try:
        result = run_plan(server, plan, timeout_s=timeout_s)
    finally:
        server.close()
    # Pool every hosted model's per-stage windows so the breakdown covers
    # the whole deployment, then keep the per-model detail alongside.
    pooled: Dict[str, List[float]] = {}
    per_model_stats = {}
    for name in server.pool.names():
        stats = server.pool.stats_for(name)
        for stage, samples in stats.stage_samples().items():
            pooled.setdefault(stage, []).extend(samples)
        per_model_stats[name] = server.stats_dict(model=name)
    point = point_metrics(result, pooled, plan)
    point["concurrency"] = plan.concurrency
    point["server_stats"] = per_model_stats
    return point


def run_loadtest(
    spec: LoadTestSpec,
    *,
    sweep: bool = False,
    reasoners: Optional[Dict[str, object]] = None,
    dataset=None,
    timeout_s: float = 120.0,
) -> dict:
    """Execute a spec and return its JSON report.

    ``sweep=False`` runs the base workload as a single operating point;
    ``sweep=True`` runs the spec's ramp, locates the knee, and (with an
    ``slo`` section) validates the latency objective at the configured
    fraction of the knee.  ``reasoners``/``dataset`` let callers inject
    pre-built deployments (tests, benchmarks) instead of training inline.
    """
    spec.validate()
    if sweep and spec.sweep is None:
        raise ValueError(f"spec {spec.name!r} has no sweep section; use run instead")
    if dataset is None:
        dataset = build_named_dataset(
            spec.deployment.dataset, scale=spec.deployment.scale, seed=spec.deployment.seed
        )
    queries = query_mix(dataset)
    if reasoners is None:
        reasoners = build_reasoners(spec.deployment, dataset)
    models = list(reasoners)

    if sweep:
        plans = plan_sweep(spec, queries, models)
        axis_values: Tuple[float, ...] = spec.sweep.values
    else:
        plans = plan_sweep(
            LoadTestSpec(
                name=spec.name,
                deployment=spec.deployment,
                workload=spec.workload,
                sweep=None,
                slo=spec.slo,
            ),
            queries,
            models,
        )
        axis_values = ()

    points = []
    for index, plan in enumerate(plans):
        point = _measure_point(spec.deployment, reasoners, plan, timeout_s)
        if axis_values:
            point["axis"] = spec.sweep.axis
            point["axis_value"] = axis_values[index]
        points.append(point)

    knee = None
    slo_verdict = None
    if sweep:
        knee = find_knee(points, axis=spec.sweep.axis)
        if spec.slo is not None:
            target_qps = spec.slo.at_fraction_of_knee * knee["qps"]
            slo_plan = plan_slo_point(spec, queries, models, target_qps)
            slo_point = _measure_point(spec.deployment, reasoners, slo_plan, timeout_s)
            slo_verdict = evaluate_slo(
                spec.slo, knee["qps"], slo_point["latency_ms"]["p99"], target_qps
            )
            slo_verdict["point"] = slo_point
    elif spec.slo is not None and points:
        # Single-point runs still get a direct latency-vs-limit check.
        measured = points[0]["latency_ms"]["p99"]
        slo_verdict = {
            "p99_ms_limit": spec.slo.p99_ms,
            "measured_p99_ms": measured,
            "passed": measured <= spec.slo.p99_ms,
        }

    return build_report(
        spec_to_dict(spec),
        mode="sweep" if sweep else "run",
        points=points,
        knee=knee,
        slo=slo_verdict,
    )

