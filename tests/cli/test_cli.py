"""Tests for the ``mmkgr`` command-line interface.

The commands are exercised through :func:`repro.cli.main.main` with explicit
argument lists; training commands use a tiny preset written to a JSON config
file so every invocation stays fast.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli.main import build_parser, main
from repro.core.checkpoint import checkpoint_exists
from repro.core.config_io import save_preset


class _InterruptingStdin:
    """A stdio stand-in that delivers SIGINT's KeyboardInterrupt mid-stream.

    ``serve --stdio`` iterates its input; yielding the given lines first
    means the interrupt arrives with work already in flight, so the test
    exercises the full drain-then-exit-130 path rather than an idle exit.
    """

    def __init__(self, lines):
        self._lines = iter(lines)

    def __iter__(self):
        return self

    def __next__(self):
        for line in self._lines:
            return line + "\n"
        raise KeyboardInterrupt


@pytest.fixture(scope="module")
def tiny_preset_file(request, tmp_path_factory):
    preset = request.getfixturevalue("tiny_preset")
    path = tmp_path_factory.mktemp("config") / "tiny_preset.json"
    save_preset(preset, path)
    return str(path)


@pytest.fixture(scope="module")
def trained_checkpoint(tiny_preset_file, tmp_path_factory):
    """One CLI-trained checkpoint shared by the evaluate/explain/fewshot tests."""
    directory = tmp_path_factory.mktemp("checkpoints") / "mmkgr"
    exit_code = main(
        [
            "train",
            "--dataset", "wn9-img-txt",
            "--scale", "0.2",
            "--seed", "3",
            "--config", tiny_preset_file,
            "--output", str(directory),
        ]
    )
    assert exit_code == 0
    return str(directory)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.dataset == "wn9-img-txt"
        assert args.ablation == "MMKGR"
        assert args.preset == "fast"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--checkpoint", "ckpt"])
        assert args.host == "127.0.0.1"
        assert args.port == 8977
        assert args.max_batch_size == 16
        assert args.max_wait_ms == 5.0
        assert args.workers == 1
        assert not args.stdio
        assert args.stats_interval is None

    def test_serve_stats_interval_parses(self):
        args = build_parser().parse_args(
            ["serve", "--checkpoint", "ckpt", "--stats-interval", "2"]
        )
        assert args.stats_interval == 2.0

    def test_serve_backend_parses_and_defaults_to_threads(self):
        args = build_parser().parse_args(["serve", "--checkpoint", "ckpt"])
        assert args.backend == "threads"
        args = build_parser().parse_args(
            ["serve", "--checkpoint", "ckpt", "--backend", "processes"]
        )
        assert args.backend == "processes"

    def test_serve_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--checkpoint", "ckpt", "--backend", "gevent"]
            )

    def test_loadtest_defaults(self):
        args = build_parser().parse_args(["loadtest", "run", "spec.json"])
        assert args.loadtest_command == "run"
        assert args.spec == "spec.json"
        assert args.output is None
        assert not args.enforce_slo
        args = build_parser().parse_args(
            ["loadtest", "sweep", "spec.json", "--output", "r.json", "--enforce-slo"]
        )
        assert args.loadtest_command == "sweep"
        assert args.output == "r.json" and args.enforce_slo

    def test_loadtest_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadtest"])


class TestDatasetCommands:
    def test_stats_prints_table(self, capsys):
        exit_code = main(
            ["dataset", "stats", "--name", "wn9-img-txt", "--scale", "0.2", "--cardinality"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "dataset statistics" in captured
        assert "relation cardinality" in captured

    def test_generate_writes_splits_and_config(self, tmp_path, capsys):
        output = tmp_path / "export"
        exit_code = main(
            [
                "dataset", "generate",
                "--name", "wn9-img-txt",
                "--scale", "0.2",
                "--output", str(output),
            ]
        )
        assert exit_code == 0
        for name in ("train.tsv", "valid.tsv", "test.tsv", "dataset_config.json", "statistics.json"):
            assert (output / name).exists()
        statistics = json.loads((output / "statistics.json").read_text())
        assert statistics["entities"] > 0


class TestTrainEvaluateExplain:
    def test_train_writes_checkpoint_and_prints_metrics(self, trained_checkpoint, capsys):
        assert checkpoint_exists(trained_checkpoint)

    def test_evaluate_from_checkpoint(self, trained_checkpoint, tmp_path, capsys):
        csv_path = tmp_path / "metrics.csv"
        exit_code = main(
            ["evaluate", "--checkpoint", trained_checkpoint, "--csv", str(csv_path)]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "entity link prediction" in captured
        assert csv_path.exists()

    def test_explain_from_checkpoint(self, trained_checkpoint, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        exit_code = main(
            [
                "explain",
                "--checkpoint", trained_checkpoint,
                "--max-queries", "3",
                "--output", str(report_path),
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "mined rules" in captured
        payload = json.loads(report_path.read_text())
        assert payload["summary"]["num_queries"] == 3.0

    def test_fewshot_from_checkpoint(self, trained_checkpoint, capsys):
        exit_code = main(
            [
                "fewshot",
                "--checkpoint", trained_checkpoint,
                "--support-size", "2",
                "--max-relations", "1",
                "--adaptation-epochs", "1",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "few-shot relations" in captured
        assert "overall" in captured

    def test_train_ablation_without_checkpoint(self, tiny_preset_file, capsys):
        exit_code = main(
            [
                "train",
                "--dataset", "wn9-img-txt",
                "--scale", "0.2",
                "--seed", "3",
                "--ablation", "OSKGR",
                "--config", tiny_preset_file,
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "OSKGR" in captured


class TestBaselinesCommand:
    def test_baselines_table_and_csv(self, tiny_preset_file, tmp_path, capsys):
        csv_path = tmp_path / "baselines.csv"
        exit_code = main(
            [
                "baselines",
                "--dataset", "wn9-img-txt",
                "--scale", "0.2",
                "--seed", "3",
                "--models", "MTRL,TransAE",
                "--config", tiny_preset_file,
                "--csv", str(csv_path),
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "MTRL" in captured and "TransAE" in captured
        assert csv_path.exists()


class TestQueryCommands:
    def test_query_from_bare_checkpoint(self, trained_checkpoint, capsys):
        exit_code = main(
            ["query", "--checkpoint", trained_checkpoint, "--head", "0", "--relation", "1", "-k", "3"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "reasoning path" in captured

    def test_query_json_output(self, trained_checkpoint, capsys):
        exit_code = main(
            [
                "query",
                "--checkpoint", trained_checkpoint,
                "--head", "0",
                "--relation", "1",
                "--json",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        payload = json.loads(captured)
        assert isinstance(payload, list)
        if payload:
            assert {"entity", "entity_name", "score"} <= set(payload[0])

    def test_serve_batch_from_tsv(self, trained_checkpoint, tmp_path, capsys):
        queries = tmp_path / "queries.tsv"
        queries.write_text("0\t1\n2\t1\n", encoding="utf-8")
        output = tmp_path / "answers.json"
        exit_code = main(
            [
                "serve-batch",
                "--checkpoint", trained_checkpoint,
                "--queries", str(queries),
                "-k", "3",
                "--output", str(output),
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "answered 2 queries" in captured
        payload = json.loads(output.read_text())
        assert len(payload) == 2
        assert payload[0]["head"] == "0"

    def test_serve_batch_rejects_malformed_tsv(self, trained_checkpoint, tmp_path, capsys):
        queries = tmp_path / "bad.tsv"
        queries.write_text("only-one-column\n", encoding="utf-8")
        exit_code = main(
            ["serve-batch", "--checkpoint", trained_checkpoint, "--queries", str(queries)]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err and ":1" in captured.err

    def test_serve_batch_rejects_malformed_json(self, trained_checkpoint, tmp_path, capsys):
        queries = tmp_path / "bad.json"
        queries.write_text('{"not": "a list of pairs"}', encoding="utf-8")
        exit_code = main(
            ["serve-batch", "--checkpoint", trained_checkpoint, "--queries", str(queries)]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err

    def test_serve_batch_missing_query_file(self, trained_checkpoint, tmp_path, capsys):
        exit_code = main(
            [
                "serve-batch",
                "--checkpoint", trained_checkpoint,
                "--queries", str(tmp_path / "does-not-exist.tsv"),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err

    def test_query_unknown_entity_exits_nonzero(self, trained_checkpoint, capsys):
        exit_code = main(
            [
                "query",
                "--checkpoint", trained_checkpoint,
                "--head", "no-such-entity",
                "--relation", "1",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "no-such-entity" in captured.err

    def test_serve_stdio_mode(self, trained_checkpoint, capsys, monkeypatch):
        lines = [
            json.dumps({"head": 0, "relation": 1, "k": 3}),
            json.dumps({"head": 2, "relation": 1}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        exit_code = main(
            ["serve", "--checkpoint", trained_checkpoint, "--stdio", "--max-wait-ms", "5"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        records = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert len(records) == 2
        assert all("predictions" in record for record in records)

    def test_serve_rejects_busy_port(self, trained_checkpoint, capsys):
        import socket

        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            exit_code = main(
                ["serve", "--checkpoint", trained_checkpoint, "--port", str(port)]
            )
        finally:
            blocker.close()
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err

    def test_serve_stdio_reports_failures(self, trained_checkpoint, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(json.dumps({"head": "no-such-entity", "relation": 1}) + "\n"),
        )
        exit_code = main(["serve", "--checkpoint", trained_checkpoint, "--stdio"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "error" in captured.out

    def test_serve_stdio_sigint_drains_and_exits_130(
        self, trained_checkpoint, capsys, monkeypatch
    ):
        lines = [json.dumps({"head": 0, "relation": 1, "k": 3})]
        monkeypatch.setattr("sys.stdin", _InterruptingStdin(lines))
        exit_code = main(
            ["serve", "--checkpoint", trained_checkpoint, "--stdio", "--max-wait-ms", "5"]
        )
        captured = capsys.readouterr()
        assert exit_code == 130
        assert "shutting down" in captured.err

    def test_serve_stdio_sigint_stops_process_backend_workers(
        self, trained_checkpoint, capsys, monkeypatch
    ):
        import multiprocessing

        lines = [json.dumps({"head": 0, "relation": 1, "k": 3})]
        monkeypatch.setattr("sys.stdin", _InterruptingStdin(lines))
        exit_code = main(
            [
                "serve",
                "--checkpoint", trained_checkpoint,
                "--stdio",
                "--backend", "processes",
                "--max-wait-ms", "5",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 130
        assert "shutting down" in captured.err
        # The close() drain must take the worker processes down with it.
        assert multiprocessing.active_children() == []

    def test_query_from_saved_reasoner(self, trained_checkpoint, tmp_path, capsys):
        from repro.core.checkpoint import load_checkpoint
        from repro.serve import Reasoner

        saved = tmp_path / "reasoner"
        reasoner = Reasoner.from_pipeline(load_checkpoint(trained_checkpoint))
        reasoner.save(saved)
        exit_code = main(
            ["query", "--checkpoint", str(saved), "--head", "0", "--relation", "1"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "reasoning path" in captured


class TestKgCommands:
    @pytest.fixture(scope="class")
    def synth_graph_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("graphs") / "synth"
        exit_code = main(
            [
                "kg", "synth",
                "--entities", "800",
                "--relations", "4",
                "--avg-degree", "5",
                "--features",
                "--image-coverage", "0.5",
                "--seed", "5",
                "--output", str(directory),
            ]
        )
        assert exit_code == 0
        return str(directory)

    def test_synth_writes_csr_directory(self, synth_graph_dir):
        from pathlib import Path

        names = {p.name for p in Path(synth_graph_dir).iterdir()}
        assert {"csr_meta.json", "indptr.npy", "adj_tails.npy", "triples.npy"} <= names
        assert "modal_meta.json" in names  # --features
        assert "entities.json" not in names  # RangeVocabulary stays implicit

    def test_stats_json(self, synth_graph_dir, capsys):
        exit_code = main(["kg", "stats", "--graph", synth_graph_dir, "--json"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        payload = json.loads(captured)
        assert payload["entities"] == 800
        assert payload["relations"] == 2 * 4 + 1
        assert payload["isolated_entities"] == 0

    def test_build_from_named_dataset(self, tmp_path, capsys):
        directory = tmp_path / "built"
        exit_code = main(
            ["kg", "build", "--name", "wn9-img-txt", "--scale", "0.2",
             "--output", str(directory)]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "written to" in captured
        assert (directory / "csr_meta.json").exists()
        assert (directory / "modal_meta.json").exists()

    def test_query_graph(self, synth_graph_dir, capsys):
        exit_code = main(
            ["query", "--graph", synth_graph_dir, "--head", "e7",
             "--relation", "rel_000", "-k", "3"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "reasoning path" in captured

    def test_serve_batch_graph(self, synth_graph_dir, tmp_path, capsys):
        queries = tmp_path / "queries.tsv"
        queries.write_text("e7\trel_000\ne11\trel_001\n", encoding="utf-8")
        output = tmp_path / "answers.json"
        exit_code = main(
            ["serve-batch", "--graph", synth_graph_dir, "--queries", str(queries),
             "-k", "2", "--output", str(output)]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "answered 2 queries" in captured
        payload = json.loads(output.read_text())
        assert len(payload) == 2 and len(payload[0]["predictions"]) == 2

    def test_synth_rejects_bad_exponent(self, tmp_path, capsys):
        exit_code = main(
            ["kg", "synth", "--entities", "100", "--degree-exponent", "1.2",
             "--output", str(tmp_path / "bad")]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err

    def test_query_missing_graph_dir(self, tmp_path, capsys):
        exit_code = main(
            ["query", "--graph", str(tmp_path / "nope"), "--head", "e1",
             "--relation", "rel_000"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err

    def test_query_rejects_graph_and_checkpoint_together(self, synth_graph_dir):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--graph", synth_graph_dir, "--checkpoint", "x",
                 "--head", "0", "--relation", "1"]
            )


class TestLoadtestCommand:
    @staticmethod
    def _spec_payload(**slo) -> dict:
        return {
            "name": "cli-smoke",
            "deployment": {
                "preset": "tiny",
                "models": ["mmkgr"],
                "dataset": "wn9-img-txt",
                "scale": 0.2,
                "seed": 3,
                "max_wait_ms": 2.0,
                "k": 3,
            },
            "workload": {
                "mode": "closed",
                "concurrency": 2,
                "duration_s": 0.3,
                "max_requests": 12,
                "seed": 5,
            },
            **({"slo": slo} if slo else {}),
        }

    def test_run_prints_table_and_writes_report(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self._spec_payload(p99_ms=60_000.0)))
        output = tmp_path / "report.json"
        exit_code = main(["loadtest", "run", str(spec_path), "--output", str(output)])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "cli-smoke" in captured and "compute p50" in captured
        report = json.loads(output.read_text())
        assert report["mode"] == "run" and len(report["points"]) == 1
        point = report["points"][0]
        assert point["completed"] > 0 and point["errors"] == 0
        assert set(point["stages_ms"]) == {"queue_wait", "batch_wait", "compute"}
        assert report["slo"]["passed"] is True

    def test_enforce_slo_failure_exits_1(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self._spec_payload(p99_ms=0.000001)))
        exit_code = main(["loadtest", "run", str(spec_path), "--enforce-slo"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "SLO failed" in captured.err
        assert "SLO FAIL" in captured.out

    def test_missing_spec_file_exits_2(self, tmp_path, capsys):
        exit_code = main(["loadtest", "run", str(tmp_path / "missing.json")])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"workload": {"mode": "bogus"}}))
        exit_code = main(["loadtest", "run", str(spec_path)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "workload.mode" in captured.err


class _FakeStatsServer:
    """Just enough server surface for the stats-logger helpers."""

    class _Pool:
        @staticmethod
        def names():
            return ["mmkgr"]

    pool = _Pool()

    @staticmethod
    def stats_dict(model=None):
        return {"requests_total": 4, "stages": {}}


class TestStatsLogger:
    def test_snapshot_line_is_one_json_object(self):
        from repro.cli.main import _stats_snapshot_line

        payload = json.loads(_stats_snapshot_line(_FakeStatsServer()))
        assert "ts" in payload
        assert payload["models"]["mmkgr"]["requests_total"] == 4

    def test_logger_emits_periodically_until_stopped(self):
        import time

        from repro.cli.main import _start_stats_logger

        stream = io.StringIO()
        stop = _start_stats_logger(_FakeStatsServer(), interval_s=0.01, stream=stream)
        time.sleep(0.15)
        stop.set()
        time.sleep(0.05)
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) >= 2
        assert all(json.loads(line)["models"] for line in lines)

    def test_serve_stdio_with_stats_interval(self, trained_checkpoint, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps({"head": 0, "relation": 1, "k": 3}) + "\n")
        )
        exit_code = main(
            [
                "serve",
                "--checkpoint", trained_checkpoint,
                "--stdio",
                "--max-wait-ms", "5",
                "--stats-interval", "0.01",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "predictions" in captured.out
        # Any snapshot lines that made it out before shutdown are valid JSON.
        for line in captured.err.strip().splitlines():
            assert "models" in json.loads(line)


class TestModelsCommands:
    """The registry workflow driven end to end through the CLI."""

    @pytest.fixture(scope="class")
    def registry_root(self, trained_checkpoint, tmp_path_factory):
        root = tmp_path_factory.mktemp("registry")
        for arguments in (
            ["models", "publish", "--registry", str(root),
             "--checkpoint", trained_checkpoint, "--name", "mmkgr"],
            ["models", "publish", "--registry", str(root),
             "--checkpoint", trained_checkpoint, "--name", "mmkgr", "--alias", "prod"],
        ):
            assert main(arguments) == 0
        return str(root)

    def test_publish_prints_the_version_ref(
        self, registry_root, trained_checkpoint, capsys, tmp_path
    ):
        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps({"hits@1": 0.5}))
        exit_code = main(
            ["models", "publish", "--registry", registry_root,
             "--checkpoint", trained_checkpoint, "--name", "side",
             "--metrics", str(metrics)]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "published side@1" in captured

    def test_list_table_and_json(self, registry_root, capsys):
        assert main(["models", "list", "--registry", registry_root]) == 0
        table = capsys.readouterr().out
        assert "mmkgr" in table and "prod->2" in table
        assert main(["models", "list", "--registry", registry_root, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        mmkgr = next(m for m in payload if m["name"] == "mmkgr")
        assert mmkgr["versions"] == [1, 2]
        assert mmkgr["aliases"]["prod"] == 2

    def test_promote_and_show(self, registry_root, capsys):
        exit_code = main(
            ["models", "promote", "--registry", registry_root,
             "--model", "mmkgr@1", "--alias", "canary"]
        )
        assert exit_code == 0
        assert "promoted mmkgr@1 to mmkgr@canary" in capsys.readouterr().out
        exit_code = main(
            ["models", "show", "--registry", registry_root,
             "--model", "mmkgr@canary", "--json"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        description = json.loads(captured)
        assert description["version"] == 1
        assert "canary" in description["aliases"]

    def test_promote_unknown_version_exits_2(self, registry_root, capsys):
        exit_code = main(
            ["models", "promote", "--registry", registry_root,
             "--model", "mmkgr@9", "--alias", "prod"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err

    def test_serve_registry_stdio(self, registry_root, capsys, monkeypatch):
        lines = [
            json.dumps({"head": 0, "relation": 1, "k": 3}),
            json.dumps({"head": 2, "relation": 1, "model": "mmkgr"}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        exit_code = main(
            ["serve", "--registry", registry_root, "--model", "mmkgr@prod",
             "--stdio", "--max-wait-ms", "5"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        records = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert len(records) == 2
        assert all("predictions" in record for record in records)

    def test_serve_registry_rejects_unknown_model(self, registry_root, capsys):
        exit_code = main(["serve", "--registry", registry_root, "--model", "ghost"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "ghost" in captured.err

    def test_serve_rejects_checkpoint_and_registry_together(self, registry_root):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--checkpoint", "ckpt", "--registry", registry_root]
            )
