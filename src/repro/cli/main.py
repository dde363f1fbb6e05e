"""Argument parsing and command dispatch for the ``mmkgr`` CLI."""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path
from typing import IO, Optional, Sequence

from repro.analysis.export import save_metrics_csv
from repro.baselines.registry import available_baselines, fit_baseline, result_from_reasoner
from repro.core.ablations import AblationName, build_ablation_pipeline
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.config import ExperimentPreset, fast_preset, paper_preset
from repro.core.config_io import load_preset, save_dataset_config
from repro.explain.explainer import explain_pipeline
from repro.explain.report import build_report
from repro.fewshot.adaptation import AdaptationConfig
from repro.fewshot.evaluation import evaluate_fewshot
from repro.kg.datasets import DATASET_REGISTRY, build_named_dataset
from repro.kg.io import write_triples_tsv
from repro.kg.statistics import describe_dataset, relation_cardinality
from repro.serve import BACKENDS, ModelRegistry, ReasoningServer, ServeConfig
from repro.utils.tables import format_table

PRESETS = {"fast": fast_preset, "paper": paper_preset}


# ------------------------------------------------------------------ utilities
def _resolve_preset(args: argparse.Namespace) -> ExperimentPreset:
    """Preset from ``--config`` (JSON file) or ``--preset`` (named factory)."""
    if getattr(args, "config", None):
        return load_preset(args.config)
    return PRESETS[args.preset]()


def _print_metrics(title: str, metrics: dict) -> None:
    rows = [[name, value] for name, value in metrics.items()]
    print(format_table(["metric", "value"], rows, title=title))


def _triples_as_strings(dataset, triples):
    graph = dataset.graph
    return [
        (
            graph.entities.symbol(t.head),
            graph.relations.symbol(t.relation),
            graph.entities.symbol(t.tail),
        )
        for t in triples
    ]


# ------------------------------------------------------------------- commands
def cmd_dataset_stats(args: argparse.Namespace) -> int:
    dataset = build_named_dataset(args.name, scale=args.scale, seed=args.seed)
    description = describe_dataset(dataset, rng=args.seed)
    _print_metrics(f"dataset statistics — {dataset.config.name}", description)
    if args.cardinality:
        cardinality = relation_cardinality(dataset.graph)
        rows = [[relation, kind] for relation, kind in sorted(cardinality.items())]
        print()
        print(format_table(["relation", "cardinality"], rows, title="relation cardinality"))
    return 0


def cmd_dataset_generate(args: argparse.Namespace) -> int:
    dataset = build_named_dataset(args.name, scale=args.scale, seed=args.seed)
    output = Path(args.output)
    output.mkdir(parents=True, exist_ok=True)
    for split_name, triples in (
        ("train", dataset.splits.train),
        ("valid", dataset.splits.valid),
        ("test", dataset.splits.test),
    ):
        write_triples_tsv(output / f"{split_name}.tsv", _triples_as_strings(dataset, triples))
    save_dataset_config(dataset.config, output / "dataset_config.json")
    (output / "statistics.json").write_text(
        json.dumps(describe_dataset(dataset, rng=args.seed), indent=2), encoding="utf-8"
    )
    print(f"wrote train/valid/test TSV splits, dataset_config.json and statistics.json to {output}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    preset = _resolve_preset(args)
    dataset = build_named_dataset(args.dataset, scale=args.scale, seed=args.seed)
    ablation = AblationName(args.ablation)
    pipeline = build_ablation_pipeline(dataset, ablation, preset=preset, rng=args.seed)
    result = pipeline.run(evaluate_relations=args.relations)
    _print_metrics(f"{ablation.value} on {args.dataset} — entity link prediction", result.entity_metrics)
    if args.relations:
        _print_metrics("relation link prediction (MAP)", result.relation_metrics)
    if args.output:
        save_checkpoint(pipeline, args.output)
        print(f"checkpoint written to {args.output}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    pipeline = load_checkpoint(args.checkpoint)
    metrics = pipeline.evaluate()
    _print_metrics("entity link prediction", metrics)
    if args.csv:
        save_metrics_csv({"checkpoint": metrics}, args.csv, label="model")
        print(f"metrics written to {args.csv}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    pipeline = load_checkpoint(args.checkpoint)
    explanations = explain_pipeline(
        pipeline, max_queries=args.max_queries, top_k=args.top_k
    )
    report = build_report(
        explanations,
        min_support=args.min_support,
        model_description=pipeline.agent.describe(),
    )
    print(report.render_text(max_explanations=args.max_queries))
    if args.output:
        report.save(args.output)
        print(f"\nreport written to {args.output}")
    return 0


def cmd_fewshot(args: argparse.Namespace) -> int:
    pipeline = load_checkpoint(args.checkpoint)
    result = evaluate_fewshot(
        pipeline,
        support_size=args.support_size,
        max_relations=args.max_relations,
        adaptation=AdaptationConfig(imitation_epochs=args.adaptation_epochs),
        rng=args.seed,
    )
    headers = ["relation", *result.regimes()]
    print(
        format_table(
            headers,
            result.as_rows(args.metric),
            title=f"few-shot relations — {args.metric} with {args.support_size}-shot support",
        )
    )
    return 0


def _load_serving_reasoner(checkpoint: str):
    """A queryable reasoner from either a reasoner save or a bare checkpoint."""
    from repro.serve.reasoner import REASONER_FILE, Reasoner, load_reasoner

    if (Path(checkpoint) / REASONER_FILE).exists():
        return load_reasoner(checkpoint)
    # Bare pipeline checkpoints (written by `mmkgr train --output`) serve too.
    return Reasoner.from_pipeline(load_checkpoint(checkpoint))


def _load_graph_reasoner(graph_dir: str):
    """An untrained demo reasoner over a saved CSR graph directory.

    The graph's adjacency arrays stay memory-mapped; when the directory also
    holds saved modality matrices they are mapped in as well, otherwise the
    features are zero-byte broadcast zeros.  Predictions are deterministic
    per seed but not meaningful — this is the capacity/scale path.
    """
    from repro.kg.csr import CSRKnowledgeGraph
    from repro.kg.multimodal import MODAL_META_FILE, MultiModalKnowledgeGraph
    from repro.serve.reasoner import reasoner_over_graph

    graph = CSRKnowledgeGraph.load(graph_dir)
    mkg = None
    if (Path(graph_dir) / MODAL_META_FILE).exists():
        mkg = MultiModalKnowledgeGraph.load_modalities(graph_dir, graph)
    return reasoner_over_graph(graph, mkg=mkg, name=Path(graph_dir).name or "graph")


def _resolve_reasoner(args: argparse.Namespace):
    """Dispatch ``--checkpoint`` (trained) vs ``--graph`` (untrained CSR demo)."""
    if getattr(args, "graph", None):
        return _load_graph_reasoner(args.graph)
    return _load_serving_reasoner(args.checkpoint)


def _print_predictions(head: str, relation: str, predictions) -> None:
    rows = [
        [rank, p.entity_name, f"{p.score:.4f}", p.hops, p.render_path()]
        for rank, p in enumerate(predictions, start=1)
    ]
    print(
        format_table(
            ["rank", "entity", "score", "hops", "reasoning path"],
            rows,
            title=f"({head}, {relation}, ?)",
        )
    )


def _id_or_name(value) -> object:
    """CLI operands arrive as strings; numeric ones are entity/relation ids."""
    text = str(value)
    return int(text) if text.lstrip("-").isdigit() else text


# Malformed inputs (bad query files, unknown entities/relations, missing
# checkpoints) exit with this code and a one-line stderr message instead of
# an unhandled traceback.
EXIT_BAD_INPUT = 2

# SIGINT shutdown: the conventional 128 + SIGINT code, returned after the
# server has fully drained and stopped its workers (threads or processes).
EXIT_INTERRUPTED = 130

# What query resolution and query-file parsing legitimately raise on bad
# user input; anything else is a real bug and should keep its traceback.
_INPUT_ERRORS = (OSError, ValueError, KeyError, IndexError, TypeError)


def _input_error(error: Exception) -> int:
    if isinstance(error, OSError):
        message = error  # str(OSError) carries errno text and the file name
    else:
        # args[0] rather than str(): KeyError's str() wraps the message in
        # an extra layer of quotes.
        message = error.args[0] if error.args else error
    print(f"error: {message}", file=sys.stderr)
    return EXIT_BAD_INPUT


def cmd_query(args: argparse.Namespace) -> int:
    from repro.serve.protocol import resolve_query

    # Input validation (checkpoint, entity/relation names, k) gets the
    # one-line error + exit 2 treatment; the engine call runs outside the
    # except so a genuine engine bug keeps its traceback.
    try:
        reasoner = _resolve_reasoner(args)
        if args.k < 1:
            raise ValueError("k must be >= 1")
        spec = resolve_query(
            reasoner.graph, _id_or_name(args.head), _id_or_name(args.relation)
        )
    except _INPUT_ERRORS as error:
        return _input_error(error)
    predictions = reasoner.query(spec.head, spec.relation, k=args.k)
    if args.json:
        print(json.dumps([p.to_dict() for p in predictions], indent=2))
    else:
        _print_predictions(args.head, args.relation, predictions)
    return 0


def _read_query_file(path: str):
    """Queries from a file: JSON list of [head, relation] or TSV head<TAB>relation."""
    text = Path(path).read_text(encoding="utf-8")
    if path.endswith(".json"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}: not valid JSON: {error}")
        if not isinstance(payload, list):
            raise ValueError(f"{path}: expected a JSON list of [head, relation] pairs")
        queries = []
        for number, item in enumerate(payload):
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ValueError(
                    f"{path}: item {number} is not a [head, relation] pair: {item!r}"
                )
            queries.append((_id_or_name(item[0]), _id_or_name(item[1])))
        return queries
    queries = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{number}: expected 'head<TAB>relation', got {line!r}")
        queries.append((_id_or_name(parts[0]), _id_or_name(parts[1])))
    return queries


def cmd_serve_batch(args: argparse.Namespace) -> int:
    from repro.serve.protocol import resolve_query

    try:
        reasoner = _resolve_reasoner(args)
        queries = _read_query_file(args.queries)
        if args.k < 1:
            raise ValueError("k must be >= 1")
        graph = reasoner.graph
        specs = [resolve_query(graph, head, relation) for head, relation in queries]
    except _INPUT_ERRORS as error:
        return _input_error(error)
    results = reasoner.query_batch([spec.as_tuple() for spec in specs], k=args.k)
    if args.output:
        payload = [
            {
                "head": str(head),
                "relation": str(relation),
                "predictions": [p.to_dict() for p in predictions],
            }
            for (head, relation), predictions in zip(queries, results)
        ]
        Path(args.output).write_text(json.dumps(payload, indent=2), encoding="utf-8")
        print(f"answered {len(queries)} queries; results written to {args.output}")
    else:
        for (head, relation), predictions in zip(queries, results):
            _print_predictions(str(head), str(relation), predictions)
            print()
    return 0


def _serve_config(args: argparse.Namespace) -> ServeConfig:
    """The ``mmkgr serve`` flags as one :class:`ServeConfig`."""
    return ServeConfig(
        backend=args.backend,
        workers=args.workers,
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        default_k=args.k,
        stats_interval_s=args.stats_interval,
    )


def _registry_server(args: argparse.Namespace) -> ReasoningServer:
    """A multi-tenant server hosting every model of ``--registry``.

    Each model is served at its ``prod`` alias when one exists, otherwise at
    ``latest``; ``--model name[@ref]`` overrides the reference for that model
    and makes it the default.
    """
    registry = ModelRegistry(args.registry)
    models = registry.list_models()
    if not models:
        raise ValueError(f"registry {args.registry} has no published models")
    default_name = None
    overrides = {}
    if args.model:
        default_name = args.model.partition("@")[0]
        overrides[default_name] = args.model
        if default_name not in {m["name"] for m in models}:
            raise KeyError(f"no model named {default_name!r} in {args.registry}")
    server = ReasoningServer(registry=registry, config=_serve_config(args))
    for model in models:
        name = model["name"]
        ref = overrides.get(name) or (
            f"{name}@prod" if "prod" in model["aliases"] else f"{name}@latest"
        )
        server.add_model(ref)
    server.default_model = default_name or models[0]["name"]
    return server


def _stats_snapshot_line(server: ReasoningServer) -> str:
    """One JSON line: every hosted model's stats (with per-stage breakdown)."""
    return json.dumps(
        {
            "ts": round(time.time(), 3),
            "models": {
                name: server.stats_dict(model=name) for name in server.pool.names()
            },
        }
    )


def _start_stats_logger(
    server: ReasoningServer, interval_s: float, stream: IO[str]
) -> threading.Event:
    """Write the stats snapshot to ``stream`` every ``interval_s`` seconds.

    Returns the stop event; setting it ends the logger thread.  Long-running
    load tests use this as the server-side trace matching the client-side
    request records.
    """
    stop = threading.Event()

    def loop() -> None:
        while not stop.wait(interval_s):
            print(_stats_snapshot_line(server), file=stream, flush=True)

    thread = threading.Thread(target=loop, name="mmkgr-stats-logger", daemon=True)
    thread.start()
    return stop


def cmd_serve(args: argparse.Namespace) -> int:
    try:
        if args.registry:
            server = _registry_server(args)
            serving = ", ".join(
                model["source"] or model["name"]
                for model in server.models_dict()["models"]
            )
        else:
            if not args.checkpoint:
                raise ValueError("pass --checkpoint or --registry")
            reasoner = _load_serving_reasoner(args.checkpoint)
            server = ReasoningServer(reasoner, config=_serve_config(args))
            serving = getattr(reasoner, "name", "reasoner")
    except _INPUT_ERRORS as error:
        return _input_error(error)
    # The `with server:` guarantees the full close() drain on every exit path
    # — including SIGINT, which must also stop process-backend workers, so
    # KeyboardInterrupt is caught around *both* front ends (not just HTTP)
    # and converted to the conventional 130 after the drain completes.
    interrupted = False
    with server:
        stats_stop = None
        if args.stats_interval:
            stats_stop = _start_stats_logger(server, args.stats_interval, sys.stderr)
        try:
            if args.stdio:
                try:
                    failures = server.serve_stdio(sys.stdin, sys.stdout)
                except KeyboardInterrupt:
                    print("shutting down", file=sys.stderr, flush=True)
                    interrupted = True
                else:
                    return 1 if failures else 0
            else:
                print(
                    f"serving {serving} (default {server.default_model}) on "
                    f"http://{args.host}:{args.port} "
                    f"(backend={args.backend}, max_batch_size={args.max_batch_size}, "
                    f"max_wait_ms={args.max_wait_ms}, workers={args.workers}); "
                    "POST /v1/models/<name>/query, GET /v1/models"
                )
                try:
                    server.serve_http(args.host, args.port)
                except KeyboardInterrupt:
                    print("shutting down", file=sys.stderr, flush=True)
                    interrupted = True
                except OSError as error:  # bind failures: port busy, privileged, bad host
                    return _input_error(error)
        finally:
            if stats_stop is not None:
                stats_stop.set()
    return EXIT_INTERRUPTED if interrupted else 0


# ------------------------------------------------------------ graph backends
def cmd_kg_build(args: argparse.Namespace) -> int:
    """Convert a named dataset's full graph to a saved CSR directory."""
    from repro.kg.csr import CSRKnowledgeGraph

    dataset = build_named_dataset(args.name, scale=args.scale, seed=args.seed)
    csr = CSRKnowledgeGraph.from_graph(dataset.graph)
    output = csr.save(args.output)
    dataset.mkg.save_modalities(output)
    _print_metrics(f"CSR graph — {dataset.config.name}", csr.statistics())
    print(f"adjacency arrays and modality matrices written to {output}")
    return 0


def cmd_kg_synth(args: argparse.Namespace) -> int:
    """Generate a seeded scale-free graph and save it as a CSR directory."""
    from repro.kg.synthetic import (
        ScaleFreeKGConfig,
        build_scale_free_mkg,
        generate_scale_free_graph,
    )

    try:
        config = ScaleFreeKGConfig(
            num_entities=args.entities,
            num_relations=args.relations,
            avg_degree=args.avg_degree,
            degree_exponent=args.degree_exponent,
            image_coverage=args.image_coverage,
            text_coverage=args.text_coverage,
            seed=args.seed,
        )
    except ValueError as error:
        return _input_error(error)
    if args.features:
        mkg, graph = build_scale_free_mkg(config)
    else:
        mkg, graph = None, generate_scale_free_graph(config)
    output = graph.save(args.output)
    if mkg is not None:
        mkg.save_modalities(output)
    _print_metrics(f"synthetic scale-free graph — seed {config.seed}", graph.statistics())
    print(f"CSR graph written to {output}")
    return 0


def cmd_kg_stats(args: argparse.Namespace) -> int:
    """Statistics of a saved CSR graph (memory-mapped; no full load)."""
    import numpy as np

    from repro.kg.csr import CSRKnowledgeGraph
    from repro.kg.synthetic import fit_degree_exponent

    try:
        graph = CSRKnowledgeGraph.load(args.graph)
    except _INPUT_ERRORS as error:
        return _input_error(error)
    stats = graph.statistics()
    degrees = np.diff(graph._indptr)
    try:
        stats["degree_tail_exponent"] = round(fit_degree_exponent(degrees), 3)
    except ValueError:
        pass  # tiny graphs have no tail to fit
    if args.json:
        print(json.dumps(stats, indent=2))
    else:
        _print_metrics(f"CSR graph {args.graph}", stats)
    return 0


# --------------------------------------------------------------- load testing
def cmd_loadtest(args: argparse.Namespace) -> int:
    """``mmkgr loadtest run|sweep <spec.json>``: capacity-planning harness.

    ``run`` drives the spec's base workload as a single operating point;
    ``sweep`` ramps the spec's sweep axis, locates the saturation knee, and
    validates the SLO at a fraction of it.  Both print the report and can
    emit it as JSON for CI artifacts.
    """
    from repro.loadgen import load_spec, render_report_text, run_loadtest

    try:
        spec = load_spec(args.spec)
        report = run_loadtest(spec, sweep=args.loadtest_command == "sweep")
    except _INPUT_ERRORS as error:
        return _input_error(error)
    print(render_report_text(report))
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=2), encoding="utf-8")
        print(f"report written to {args.output}")
    if args.enforce_slo:
        slo = report.get("slo")
        if slo is None:
            print(
                "error: --enforce-slo requires an 'slo' section in the spec",
                file=sys.stderr,
            )
            return EXIT_BAD_INPUT
        if not slo["passed"]:
            print(
                f"SLO failed: p99 {slo['measured_p99_ms']:.1f} ms exceeds the "
                f"{slo['p99_ms_limit']:.1f} ms limit",
                file=sys.stderr,
            )
            return 1
    return 0


# ----------------------------------------------------------- model registry
def _registry(args: argparse.Namespace) -> ModelRegistry:
    return ModelRegistry(args.registry)


def cmd_models_publish(args: argparse.Namespace) -> int:
    try:
        reasoner = _load_serving_reasoner(args.checkpoint)
        metrics = None
        if args.metrics:
            metrics = json.loads(Path(args.metrics).read_text(encoding="utf-8"))
            if not isinstance(metrics, dict):
                raise ValueError(f"{args.metrics}: expected a JSON object of metrics")
        version = _registry(args).publish(
            reasoner, name=args.name, metrics=metrics, aliases=args.alias or ()
        )
    except _INPUT_ERRORS as error:
        return _input_error(error)
    aliases = ["latest", *(args.alias or ())]
    print(f"published {version.ref} ({', '.join(aliases)}) to {args.registry}")
    return 0


def cmd_models_list(args: argparse.Namespace) -> int:
    models = _registry(args).list_models()
    if args.json:
        print(json.dumps(models, indent=2))
        return 0
    rows = [
        [
            model["name"],
            ",".join(str(v) for v in model["versions"]),
            ", ".join(
                f"{alias}->{version}"
                for alias, version in sorted(model["aliases"].items())
            ),
        ]
        for model in models
    ]
    print(format_table(["model", "versions", "aliases"], rows, title=f"registry {args.registry}"))
    return 0


def cmd_models_promote(args: argparse.Namespace) -> int:
    name, _, version = args.model.partition("@")
    try:
        target = _registry(args).promote(name, args.alias, version or None)
    except _INPUT_ERRORS as error:
        return _input_error(error)
    print(f"promoted {target.ref} to {name}@{args.alias}")
    return 0


def cmd_models_show(args: argparse.Namespace) -> int:
    try:
        description = _registry(args).describe(args.model)
    except _INPUT_ERRORS as error:
        return _input_error(error)
    if args.json:
        print(json.dumps(description, indent=2))
        return 0
    rows = [[key, json.dumps(value) if isinstance(value, (dict, list)) else value]
            for key, value in description.items()]
    print(format_table(["field", "value"], rows, title=args.model))
    return 0


def cmd_baselines(args: argparse.Namespace) -> int:
    preset = _resolve_preset(args)
    dataset = build_named_dataset(args.dataset, scale=args.scale, seed=args.seed)
    names = args.models.split(",") if args.models else available_baselines()
    results = {}
    for name in names:
        name = name.strip()
        reasoner = fit_baseline(name, dataset, preset=preset, rng=args.seed)
        results[name] = result_from_reasoner(
            reasoner, dataset, preset, rng=args.seed
        ).entity_metrics
    metrics = ("mrr", "hits@1", "hits@5", "hits@10")
    rows = [[name, *[values.get(m) for m in metrics]] for name, values in results.items()]
    print(format_table(["model", *metrics], rows, title=f"baselines on {args.dataset}"))
    if args.csv:
        save_metrics_csv(results, args.csv)
        print(f"metrics written to {args.csv}")
    return 0


# --------------------------------------------------------------------- parser
def _add_common_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", type=float, default=0.5, help="dataset scale factor (default 0.5)"
    )
    parser.add_argument("--seed", type=int, default=7, help="random seed (default 7)")


def _add_preset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset", choices=sorted(PRESETS), default="fast", help="named preset (default fast)"
    )
    parser.add_argument(
        "--config", type=str, default=None, help="path to a preset JSON file (overrides --preset)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmkgr",
        description="MMKGR: multi-hop multi-modal knowledge graph reasoning (reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # dataset ------------------------------------------------------------
    dataset = subparsers.add_parser("dataset", help="inspect or export synthetic datasets")
    dataset_sub = dataset.add_subparsers(dest="dataset_command", required=True)

    stats = dataset_sub.add_parser("stats", help="print dataset statistics")
    stats.add_argument("--name", choices=sorted(DATASET_REGISTRY), default="wn9-img-txt")
    stats.add_argument("--cardinality", action="store_true", help="also print relation cardinality")
    _add_common_dataset_arguments(stats)
    stats.set_defaults(handler=cmd_dataset_stats)

    generate = dataset_sub.add_parser("generate", help="export TSV splits and config")
    generate.add_argument("--name", choices=sorted(DATASET_REGISTRY), default="wn9-img-txt")
    generate.add_argument("--output", required=True, help="output directory")
    _add_common_dataset_arguments(generate)
    generate.set_defaults(handler=cmd_dataset_generate)

    # kg -----------------------------------------------------------------
    kg = subparsers.add_parser(
        "kg", help="build, synthesize and inspect compact CSR graph directories"
    )
    kg_sub = kg.add_subparsers(dest="kg_command", required=True)

    kg_build = kg_sub.add_parser(
        "build", help="convert a named dataset's graph to a memory-mappable CSR directory"
    )
    kg_build.add_argument("--name", choices=sorted(DATASET_REGISTRY), default="wn9-img-txt")
    kg_build.add_argument("--output", required=True, help="output directory")
    _add_common_dataset_arguments(kg_build)
    kg_build.set_defaults(handler=cmd_kg_build)

    kg_synth = kg_sub.add_parser(
        "synth", help="generate a seeded scale-free graph (tested to 10^6 entities)"
    )
    kg_synth.add_argument("--entities", type=int, default=100_000, help="entity count (default 100k)")
    kg_synth.add_argument("--relations", type=int, default=24, help="base relation count (default 24)")
    kg_synth.add_argument(
        "--avg-degree", type=float, default=8.0, help="mean forward edges per entity (default 8)"
    )
    kg_synth.add_argument(
        "--degree-exponent", type=float, default=2.2,
        help="power-law degree tail exponent (default 2.2)",
    )
    kg_synth.add_argument(
        "--image-coverage", type=float, default=0.6,
        help="fraction of entities with image features (default 0.6)",
    )
    kg_synth.add_argument(
        "--text-coverage", type=float, default=0.9,
        help="fraction of entities with text features (default 0.9)",
    )
    kg_synth.add_argument(
        "--features", action="store_true",
        help="also generate and save modality feature matrices "
        "(float32; adds entities x dim x 8 bytes on disk)",
    )
    kg_synth.add_argument("--seed", type=int, default=7, help="random seed (default 7)")
    kg_synth.add_argument("--output", required=True, help="output directory")
    kg_synth.set_defaults(handler=cmd_kg_synth)

    kg_stats = kg_sub.add_parser("stats", help="statistics of a saved CSR graph directory")
    kg_stats.add_argument("--graph", required=True, help="CSR graph directory")
    kg_stats.add_argument("--json", action="store_true", help="print as JSON")
    kg_stats.set_defaults(handler=cmd_kg_stats)

    # train ----------------------------------------------------------------
    train = subparsers.add_parser("train", help="train MMKGR or an ablation variant")
    train.add_argument("--dataset", choices=sorted(DATASET_REGISTRY), default="wn9-img-txt")
    train.add_argument(
        "--ablation",
        choices=[name.value for name in AblationName],
        default=AblationName.MMKGR.value,
        help="model variant to train (default MMKGR)",
    )
    train.add_argument("--relations", action="store_true", help="also evaluate relation MAP")
    train.add_argument("--output", type=str, default=None, help="checkpoint directory to write")
    _add_common_dataset_arguments(train)
    _add_preset_arguments(train)
    train.set_defaults(handler=cmd_train)

    # evaluate ---------------------------------------------------------------
    evaluate = subparsers.add_parser("evaluate", help="evaluate a checkpoint")
    evaluate.add_argument("--checkpoint", required=True)
    evaluate.add_argument("--csv", type=str, default=None, help="write metrics to this CSV file")
    evaluate.set_defaults(handler=cmd_evaluate)

    # query -----------------------------------------------------------------
    query = subparsers.add_parser(
        "query", help="answer one (head, relation, ?) query with a trained reasoner"
    )
    query_source = query.add_mutually_exclusive_group(required=True)
    query_source.add_argument(
        "--checkpoint", help="saved reasoner or checkpoint directory"
    )
    query_source.add_argument(
        "--graph",
        help="saved CSR graph directory: beam-search it with an untrained "
        "seeded agent (capacity/scale demos, not meaningful predictions)",
    )
    query.add_argument("--head", required=True, help="head entity name or integer id")
    query.add_argument("--relation", required=True, help="relation name or integer id")
    query.add_argument("-k", type=int, default=10, help="number of ranked answers (default 10)")
    query.add_argument("--json", action="store_true", help="print predictions as JSON")
    query.set_defaults(handler=cmd_query)

    # serve-batch -----------------------------------------------------------
    serve_batch = subparsers.add_parser(
        "serve-batch", help="answer a file of queries with one batched beam search"
    )
    serve_batch_source = serve_batch.add_mutually_exclusive_group(required=True)
    serve_batch_source.add_argument("--checkpoint")
    serve_batch_source.add_argument(
        "--graph",
        help="saved CSR graph directory: beam-search it with an untrained "
        "seeded agent (capacity/scale demos, not meaningful predictions)",
    )
    serve_batch.add_argument(
        "--queries",
        required=True,
        help="query file: TSV lines 'head<TAB>relation' or a .json list of pairs",
    )
    serve_batch.add_argument("-k", type=int, default=10)
    serve_batch.add_argument(
        "--output", type=str, default=None, help="write results to this JSON file"
    )
    serve_batch.set_defaults(handler=cmd_serve_batch)

    # serve -----------------------------------------------------------------
    serve = subparsers.add_parser(
        "serve",
        help="run the serving daemon: micro-batched HTTP/JSON or JSON-lines stdio",
    )
    serve_source = serve.add_mutually_exclusive_group(required=True)
    serve_source.add_argument(
        "--checkpoint", help="saved reasoner or checkpoint directory"
    )
    serve_source.add_argument(
        "--registry",
        help="model registry root: serve every published model (multi-tenant)",
    )
    serve.add_argument(
        "--model",
        default=None,
        help="with --registry: default model as name[@version|@alias] "
        "(default: each model's prod alias, falling back to latest)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8977, help="listen port (default 8977)")
    serve.add_argument(
        "--max-batch-size", type=int, default=16,
        help="flush a micro-batch at this many queued requests (default 16)",
    )
    serve.add_argument(
        "--max-wait-ms", type=float, default=5.0,
        help="flush a partial batch once its oldest request is this old; only a "
        "backlog queued behind a running batch waits, a request that reaches an "
        "idle worker is dispatched at once (default 5)",
    )
    serve.add_argument(
        "--backend", choices=BACKENDS, default="threads",
        help="execution backend: 'threads' (replicas in-process, GIL-bound) "
        "or 'processes' (OS workers memory-mapping the model arena; "
        "QPS scales with cores)",
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="workers, one reasoner replica each: threads or OS processes "
        "per --backend (default 1)",
    )
    serve.add_argument("-k", type=int, default=10, help="default answers per query (default 10)")
    serve.add_argument(
        "--stdio", action="store_true",
        help="serve JSON-lines on stdin/stdout instead of HTTP",
    )
    serve.add_argument(
        "--stats-interval", type=float, default=None,
        help="write the /stats snapshot (per-stage breakdown included) as a "
        "JSON line to stderr every this many seconds",
    )
    serve.set_defaults(handler=cmd_serve)

    # loadtest ---------------------------------------------------------------
    loadtest = subparsers.add_parser(
        "loadtest",
        help="declarative load testing & capacity planning against the daemon",
    )
    loadtest_sub = loadtest.add_subparsers(dest="loadtest_command", required=True)
    for leaf, description in (
        ("run", "drive the spec's base workload as a single operating point"),
        ("sweep", "ramp the sweep axis, find the saturation knee, check the SLO"),
    ):
        loadtest_leaf = loadtest_sub.add_parser(leaf, help=description)
        loadtest_leaf.add_argument("spec", help="path to a load-test spec JSON file")
        loadtest_leaf.add_argument(
            "--output", type=str, default=None, help="write the JSON report to this file"
        )
        loadtest_leaf.add_argument(
            "--enforce-slo", action="store_true",
            help="exit 1 when the spec's SLO fails (for CI gates)",
        )
        loadtest_leaf.set_defaults(handler=cmd_loadtest)

    # models ----------------------------------------------------------------
    models = subparsers.add_parser(
        "models", help="publish, list, promote and inspect registry model versions"
    )
    models_sub = models.add_subparsers(dest="models_command", required=True)

    publish = models_sub.add_parser(
        "publish", help="publish a saved reasoner/checkpoint as the next version"
    )
    publish.add_argument("--registry", required=True, help="model registry root directory")
    publish.add_argument(
        "--checkpoint", required=True, help="saved reasoner or checkpoint directory"
    )
    publish.add_argument(
        "--name", default=None, help="model name (default: the reasoner's own name)"
    )
    publish.add_argument(
        "--alias",
        action="append",
        default=None,
        help="also promote this alias to the new version (repeatable)",
    )
    publish.add_argument(
        "--metrics", default=None, help="JSON file with a metrics snapshot to record"
    )
    publish.set_defaults(handler=cmd_models_publish)

    models_list = models_sub.add_parser("list", help="list registered models")
    models_list.add_argument("--registry", required=True)
    models_list.add_argument("--json", action="store_true", help="print as JSON")
    models_list.set_defaults(handler=cmd_models_list)

    promote = models_sub.add_parser(
        "promote", help="atomically point an alias at a version"
    )
    promote.add_argument("--registry", required=True)
    promote.add_argument(
        "--model",
        required=True,
        help="name[@version|@alias] to promote (bare name = latest)",
    )
    promote.add_argument("--alias", required=True, help="alias to move, e.g. prod or canary")
    promote.set_defaults(handler=cmd_models_promote)

    show = models_sub.add_parser("show", help="show one version's manifest")
    show.add_argument("--registry", required=True)
    show.add_argument("--model", required=True, help="name[@version|@alias]")
    show.add_argument("--json", action="store_true", help="print as JSON")
    show.set_defaults(handler=cmd_models_show)

    # explain ---------------------------------------------------------------
    explain = subparsers.add_parser("explain", help="explain test predictions of a checkpoint")
    explain.add_argument("--checkpoint", required=True)
    explain.add_argument("--max-queries", type=int, default=10)
    explain.add_argument("--top-k", type=int, default=3)
    explain.add_argument("--min-support", type=int, default=1)
    explain.add_argument("--output", type=str, default=None, help=".json or .txt report path")
    explain.set_defaults(handler=cmd_explain)

    # fewshot ---------------------------------------------------------------
    fewshot = subparsers.add_parser("fewshot", help="few-shot relation protocol on a checkpoint")
    fewshot.add_argument("--checkpoint", required=True)
    fewshot.add_argument("--support-size", type=int, default=3)
    fewshot.add_argument("--max-relations", type=int, default=None)
    fewshot.add_argument("--adaptation-epochs", type=int, default=4)
    fewshot.add_argument("--metric", default="mrr", choices=["mrr", "hits@1", "hits@5", "hits@10"])
    fewshot.add_argument("--seed", type=int, default=7)
    fewshot.set_defaults(handler=cmd_fewshot)

    # baselines ---------------------------------------------------------------
    baselines = subparsers.add_parser("baselines", help="run the reimplemented baselines")
    baselines.add_argument("--dataset", choices=sorted(DATASET_REGISTRY), default="wn9-img-txt")
    baselines.add_argument(
        "--models", type=str, default="MTRL,MINERVA,RLH",
        help="comma-separated baseline names (default MTRL,MINERVA,RLH; empty = all)",
    )
    baselines.add_argument("--csv", type=str, default=None, help="write metrics to this CSV file")
    _add_common_dataset_arguments(baselines)
    _add_preset_arguments(baselines)
    baselines.set_defaults(handler=cmd_baselines)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by the console script and ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
