"""Capacity planning: sweep the serving daemon to its saturation knee.

The loadgen harness's claim is the serving claims turned into operating
guidance: ramp a seeded open-loop Poisson workload across offered QPS levels,
find the knee where achieved throughput stops tracking offered load, then
re-measure latency at a safe fraction of that knee and check the p99 SLO.
The same knee and SLO numbers are recorded in ``extra_info`` and guarded by
the benchmark-regression CI step (``capacity_p99_ms_at_80pct_knee`` is the
repo's first lower-is-better guarded metric).

This benchmark trains one small MMKGR reasoner, runs the declarative sweep
through :func:`repro.loadgen.run_loadtest` with the deployment injected (no
second training run), and prints the offered-vs-achieved curve with the
per-stage queue-wait / batch-wait / compute breakdown.
"""

from __future__ import annotations

from common import WN9, bench_preset, run_once

from repro.kg.datasets import build_named_dataset
from repro.loadgen import (
    DeploymentSpec,
    LoadTestSpec,
    SLOSpec,
    SweepSpec,
    WorkloadSpec,
    render_report_text,
    run_loadtest,
)
from repro.serve import Reasoner

# The ramp: the bench reasoner comfortably clears the low end even on a
# shared runner, and the high end saturates a laptop so the knee is visible.
SWEEP_QPS = (25.0, 50.0, 100.0, 200.0, 400.0)
POINT_DURATION_S = 0.8
MIN_KNEE_QPS = 20.0
SLO_P99_MS = 250.0


def _capacity_spec(scale: float) -> LoadTestSpec:
    return LoadTestSpec(
        name="bench-capacity",
        deployment=DeploymentSpec(
            preset="bench",
            models=("mmkgr",),
            dataset=WN9,
            scale=scale,
            seed=7,
            workers=1,
            max_batch_size=16,
            max_wait_ms=5.0,
            k=5,
        ),
        workload=WorkloadSpec(
            mode="open", qps=SWEEP_QPS[0], duration_s=POINT_DURATION_S, seed=11
        ),
        sweep=SweepSpec(axis="qps", values=SWEEP_QPS),
        slo=SLOSpec(p99_ms=SLO_P99_MS, at_fraction_of_knee=0.8),
    )


def test_capacity_sweep_finds_knee_and_meets_slo(benchmark):
    preset = bench_preset("loadtest-capacity")
    dataset = build_named_dataset(WN9, scale=preset.dataset_scale, seed=7)
    reasoner = Reasoner(preset=preset, rng=7).fit(dataset)
    # Warm the reasoner up: capacity planning measures the steady state,
    # not cold starts.
    triples = dataset.splits.test[:8]
    reasoner.query_batch([(t.head, t.relation) for t in triples], k=5)

    spec = _capacity_spec(preset.dataset_scale)
    measure = lambda: run_loadtest(  # noqa: E731
        spec, sweep=True, reasoners={"mmkgr": reasoner}, dataset=dataset
    )
    report = run_once(benchmark, measure)
    # Same policy as the daemon benchmark's best-of-2: one scheduling hiccup
    # on a shared runner must not decide the verdict. A latency-transient
    # failure gets one clean re-measure before the assertions judge it.
    if not report["slo"]["passed"] or report["knee"]["qps"] < MIN_KNEE_QPS:
        report = measure()

    print()
    print(render_report_text(report))

    # The full ramp was measured and every point carries the breakdown.
    assert [point["axis_value"] for point in report["points"]] == list(SWEEP_QPS)
    for point in report["points"]:
        assert point["requests"] > 0
        assert set(point["stages_ms"]) == {"queue_wait", "batch_wait", "compute"}
        assert point["stages_ms"]["compute"]["mean_ms"] > 0
        assert set(point["latency_ms"]) == {"p50", "p99", "p99.9", "mean"}

    knee = report["knee"]
    slo = report["slo"]
    # Headline numbers guarded by the benchmark-regression CI step.  The
    # floors/ceilings in baseline.json are aligned with these assertions.
    benchmark.extra_info["capacity_knee_qps"] = round(knee["qps"], 1)
    benchmark.extra_info["capacity_p99_ms_at_80pct_knee"] = round(
        slo["measured_p99_ms"], 2
    )

    # Even a slow shared runner must sustain the low end of the ramp.
    assert knee["qps"] >= MIN_KNEE_QPS, report["points"][0]
    # Backing off to 80% of the knee must leave tail latency inside the SLO.
    assert slo["passed"], (
        f"p99 {slo['measured_p99_ms']:.1f} ms at {slo['target_qps']:.1f} qps "
        f"exceeds the {SLO_P99_MS:.0f} ms SLO"
    )
    # The validation point really ran at the backed-off rate.
    assert slo["target_qps"] == 0.8 * knee["qps"]
