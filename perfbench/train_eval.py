"""train-eval: one REINFORCE ``fit`` and the Table III ranking protocol.

Set-up builds ``wn9-img-txt`` at scale 1.5 (360 entities, 1300 training and
163 test triples), pretrains TransE and runs a one-epoch imitation warm
start.  Each measured round restores the warm-started weights, runs one
REINFORCE ``fit`` of :data:`EPOCHS` epochs in a single call (so the
diversity reward's memory grows inside the window), then runs the filtered
entity-ranking protocol over the full test split (beam width 16, lockstep
batches of 256 queries) :data:`EVAL_REPEATS` times.  Rounds repeat until
the measuring time is spent.

Training inputs are fixed (dataset seed, trainer seed): REINFORCE at this
scale is unstable across trainer seeds, and the MRR check below needs a
deterministic outcome.  ``--seed`` orders the test queries, which changes
the lockstep batch composition the protocol sees.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import replace
from pathlib import Path
from typing import List

import gen
from host import peak_rss_mb, reset_peak_rss
from report import Report
from serve_inproc import TARGETS as ENGINE_TARGETS
from serve_inproc import engine_layers
from spans import Target, Tracer
from stats import median, percentile, ratio

DATASET = "wn9-img-txt"
DATASET_SCALE = 1.5
DATA_SEED = 7
EPOCHS = 4
BATCH_SIZE = 64
EVAL_REPEATS = 5
STEP_SLO_MS = 100.0
SETUP_REPEATS = 3

TRAIN_TARGETS = (
    Target("repro.rl.batched_rollout", "BatchedRolloutEngine.sample_episodes", "rollout"),
    Target("repro.rl.rewards", "CompositeReward.__call__", "reward"),
    Target("repro.nn.tensor", "Tensor.backward", "backward"),
    Target("repro.nn.optim", "Adam.step", "optim"),
    Target("repro.rl.reinforce", "clip_grad_norm", "optim"),
)
EVAL_TARGETS = (
    Target("repro.core.evaluator", "evaluate_entity_prediction", "evaluator"),
    *ENGINE_TARGETS,
)


def _preset():
    from repro.core.config import EvaluationConfig, fast_preset
    from repro.rl.imitation import ImitationConfig
    from repro.rl.reinforce import ReinforceConfig

    preset = fast_preset("bench-train")
    return replace(
        preset,
        imitation=ImitationConfig(epochs=1, batch_size=32, learning_rate=8e-3),
        reinforce=ReinforceConfig(epochs=EPOCHS, batch_size=BATCH_SIZE, learning_rate=3e-3),
        evaluation=EvaluationConfig(beam_width=16, batch_size=256),
    )


def setup():
    """Dataset, TransE, agent and a shortened imitation warm start."""
    from repro import build_named_dataset
    from repro.core.trainer import MMKGRPipeline

    dataset = build_named_dataset(DATASET, scale=DATASET_SCALE, seed=DATA_SEED)
    pipeline = MMKGRPipeline(dataset, preset=_preset(), rng=DATA_SEED)
    pipeline.build()
    pipeline.warm_start()
    return pipeline


def fit(pipeline, warm_state, epoch_marks: List[float]):
    """One REINFORCE fit from the warm start; returns (step stamps, start, end)."""
    from repro.rl.reinforce import ReinforceTrainer

    pipeline.agent.load_state_dict(warm_state)
    trainer = ReinforceTrainer(
        pipeline.agent,
        pipeline.environment,
        pipeline.reward,
        config=pipeline.preset.reinforce,
    )
    stamps: List[float] = []
    step = trainer.optimizer.step

    def clocked_step():
        step()
        stamps.append(time.perf_counter())

    trainer.optimizer.step = clocked_step
    start = time.perf_counter()
    trainer.fit(
        pipeline.dataset.splits.train,
        epoch_callback=lambda epoch, history: epoch_marks.append(time.perf_counter()),
    )
    return stamps, start, time.perf_counter()


def evaluate(pipeline, test):
    from repro.core import evaluator

    return evaluator.evaluate_entity_prediction(
        pipeline.agent,
        pipeline.environment,
        test,
        filter_graph=pipeline.dataset.graph,
        config=pipeline.preset.evaluation,
    )


def check_ranking(pipeline, test, metrics, report: Report) -> None:
    """Every test query must be ranked, and the ranks must give the same MRR."""
    from repro.core.evaluator import beam_search_results
    from repro.rl.environment import Query
    from repro.utils.metrics import RankingResult

    results = beam_search_results(
        pipeline.agent,
        pipeline.environment,
        [Query(t.head, t.relation, t.tail) for t in test],
        pipeline.preset.evaluation,
    )
    ranks = RankingResult()
    for triple, result in zip(test, results):
        others = pipeline.dataset.graph.tails_for(triple.head, triple.relation) - {triple.tail}
        ranks.add(result.rank_of(triple.tail, filtered_out=others))
    report.attempted += len(test)
    unranked = len(test) - len(results)
    report.failed += unranked
    if unranked:
        report.problem(f"{unranked} of {len(test)} test queries were not ranked")
    if abs(ranks.mrr - metrics["mrr"]) > 1e-12:
        report.failed += 1
        report.problem(f"protocol MRR {metrics['mrr']} != recomputed {ranks.mrr}")


def _by_epoch(spans, name: str, marks: List[float], start: float) -> List[float]:
    edges = [start, *marks]
    totals = [0.0] * len(marks)
    for span in spans:
        if span.name != name:
            continue
        for epoch in range(len(marks)):
            if edges[epoch] <= span.start < edges[epoch + 1]:
                totals[epoch] += span.duration
                break
    return totals


def _check_learned(metrics, before: float, report: Report) -> None:
    """REINFORCE must leave the agent ranking better than the warm start did."""
    if not metrics["mrr"] > before:
        report.failed += 1
        report.problem(f"MRR after REINFORCE {metrics['mrr']:.4f} <= before {before:.4f}")


def _traced(pipeline, warm_state, test, before: float, report: Report) -> Tracer:
    """An untraced fit, a traced fit and a traced evaluation; fills the metrics."""
    episodes = EPOCHS * len(pipeline.dataset.splits.train)
    _, start, end = fit(pipeline, warm_state, [])
    untraced_rate = episodes / (end - start)
    training = Tracer().install(TRAIN_TARGETS)
    marks: List[float] = []
    try:
        _, start, end = fit(pipeline, warm_state, marks)
    finally:
        training.uninstall()
    tracer = Tracer().install(EVAL_TARGETS)
    try:
        metrics = evaluate(pipeline, test)
    finally:
        tracer.uninstall()
    check_ranking(pipeline, test, metrics, report)
    _check_learned(metrics, before, report)

    def per_epoch(name: str) -> List[float]:
        return _by_epoch(training.spans, name, marks, start)

    diversity = getattr(pipeline.reward, "diversity", None)
    remembered = 0
    if diversity is not None:
        relations = range(pipeline.dataset.graph.num_relations)
        remembered = sum(diversity.known_paths(r) for r in relations)
    engine = tracer.total("engine.run")
    report.samples = {"epochs": len(marks), "test_queries": len(test)}
    report.metrics = {
        "rollout.s_per_epoch": ratio(sum(per_epoch("rollout")), len(marks)),
        "reward.s_epoch_first": per_epoch("reward")[0],
        "reward.s_epoch_last": per_epoch("reward")[-1],
        "reward.diversity_memory_paths": remembered,
        "backward.s_per_epoch": ratio(sum(per_epoch("backward")), len(marks)),
        "optim.s_per_epoch": ratio(sum(per_epoch("optim")), len(marks)),
        "reinforce.episodes_per_s": untraced_rate,
        "evaluator.engine_s": engine,
        "evaluator.self_s": tracer.total("evaluator") - engine,
        "evaluator.mrr": metrics["mrr"],
        **engine_layers(tracer),
        "trace.overhead_ratio": ratio(episodes / (end - start), untraced_rate),
    }
    tracer.spans[:0] = training.spans  # one span file for the whole run
    report.notes["trace_missing"] = training.missing + tracer.missing
    return tracer


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Report:
    report = Report()
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        start = time.perf_counter()
        pipeline = setup()
        setups.append(time.perf_counter() - start)
    warm_state = {key: value.copy() for key, value in pipeline.agent.state_dict().items()}
    test = gen.shuffled(seed, pipeline.dataset.splits.test)
    before = evaluate(pipeline, test)["mrr"]
    report.notes["mrr_before_reinforce"] = before
    gc.collect()  # discarded set-ups must not count towards the peak
    reset_peak_rss([os.getpid()])
    if trace:
        report.tracer = _traced(pipeline, warm_state, test, before, report)
        return report

    steps: List[float] = []
    eval_rates: List[float] = []
    deadline = time.perf_counter() + seconds
    while report.attempted == 0 or time.perf_counter() < deadline:
        stamps, fit_start, _ = fit(pipeline, warm_state, [])
        edges = [fit_start, *stamps]
        steps.extend(1000.0 * (b - a) for a, b in zip(edges, edges[1:]))
        for _ in range(EVAL_REPEATS):
            start = time.perf_counter()
            metrics = evaluate(pipeline, test)
            eval_rates.append(len(test) / (time.perf_counter() - start))
        report.attempted += 1  # one fit
        _check_learned(metrics, before, report)
    fits = report.attempted
    rss_mb = peak_rss_mb([os.getpid()])
    check_ranking(pipeline, test, metrics, report)
    report.notes["mrr_after_reinforce"] = metrics["mrr"]
    report.samples = {"fits": fits, "update_steps": len(steps), "evaluations": len(eval_rates)}
    report.metrics = {
        "setup_s": median(setups),
        "throughput_qps": median(eval_rates),
        "latency_p50_ms": percentile(steps, 0.50),
        "latency_p90_ms": percentile(steps, 0.90),
        "slo_ok_ratio": ratio(sum(1 for s in steps if s <= STEP_SLO_MS), len(steps)),
        "rss_mb": rss_mb,
    }
    return report
