"""ModelRegistry tests: publish/resolve/promote, manifests, backcompat.

One tiny MMKGR reasoner is trained per module and published repeatedly; the
registry must hand back versions that answer queries identically to the
original, and its alias file must flip atomically under ``promote``.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.baselines.registry import fit_baseline
from repro.serve import ModelRegistry, ModelVersion, Reasoner, load_reasoner
from repro.serve.reasoner import REASONER_FILE, dataset_fingerprint
from repro.serve.registry import ALIASES_FILE, VERSION_FILE


@pytest.fixture(scope="module")
def fitted_reasoner(request):
    tiny_dataset = request.getfixturevalue("tiny_dataset")
    tiny_preset = request.getfixturevalue("tiny_preset")
    return Reasoner(preset=tiny_preset, rng=0).fit(tiny_dataset)


@pytest.fixture(scope="module")
def test_queries(request):
    tiny_dataset = request.getfixturevalue("tiny_dataset")
    return [(t.head, t.relation) for t in tiny_dataset.splits.test[:6]]


def _ranking(predictions):
    return [(p.entity, round(p.score, 10)) for p in predictions]


class TestPublish:
    def test_versions_are_sequential_and_immutable_directories(
        self, fitted_reasoner, tmp_path
    ):
        registry = ModelRegistry(tmp_path / "registry")
        first = registry.publish(fitted_reasoner, name="mmkgr")
        second = registry.publish(fitted_reasoner, name="mmkgr")
        assert (first.version, second.version) == (1, 2)
        assert first.ref == "mmkgr@1"
        for version in (first, second):
            assert (version.path / VERSION_FILE).exists()
            assert (version.path / REASONER_FILE).exists()

    def test_version_manifest_records_provenance(self, fitted_reasoner, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        version = registry.publish(
            fitted_reasoner, name="mmkgr", metrics={"hits@1": 0.5, "mrr": 0.6}
        )
        manifest = version.manifest
        assert manifest["name"] == "mmkgr"
        assert manifest["version"] == 1
        assert manifest["repro_version"] == repro.__version__
        assert manifest["reasoner_type"] == "agent"
        assert manifest["dataset"]["name"] == "tiny-mkg"
        assert manifest["dataset"]["fingerprint"]
        assert version.metrics == {"hits@1": 0.5, "mrr": 0.6}
        assert "published_at" in manifest

    def test_publish_updates_latest_and_extra_aliases(self, fitted_reasoner, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(fitted_reasoner, name="mmkgr")
        registry.publish(fitted_reasoner, name="mmkgr", aliases=("prod",))
        assert registry.aliases("mmkgr") == {"latest": 2, "prod": 2}

    def test_publish_rejects_bad_names_and_reserved_aliases(
        self, fitted_reasoner, tmp_path
    ):
        registry = ModelRegistry(tmp_path / "registry")
        with pytest.raises(ValueError, match="invalid model name"):
            registry.publish(fitted_reasoner, name="bad@name")
        with pytest.raises(ValueError, match="managed by the registry"):
            registry.publish(fitted_reasoner, name="ok", aliases=("latest",))

    def test_defaults_to_the_reasoner_name(self, fitted_reasoner, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        version = registry.publish(fitted_reasoner)
        assert version.name == fitted_reasoner.name == "MMKGR"

    def test_concurrent_publishers_claim_distinct_versions(
        self, tiny_dataset, tiny_preset, tmp_path
    ):
        # Two publishers racing for the same version number must both land:
        # the loser retries with the next free number instead of failing (or
        # deleting its completed save).
        import threading

        mtrl = fit_baseline("MTRL", tiny_dataset, preset=tiny_preset, rng=0)
        registry = ModelRegistry(tmp_path / "registry")
        published, errors = [], []

        def publish():
            try:
                for _ in range(3):
                    published.append(registry.publish(mtrl, name="mtrl").version)
            except Exception as error:  # pragma: no cover - the regression
                errors.append(error)

        threads = [threading.Thread(target=publish) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert sorted(published) == [1, 2, 3, 4, 5, 6]
        assert registry.resolve("mtrl").version == 6
        for version in range(1, 7):
            assert registry.resolve(f"mtrl@{version}").manifest["version"] == version

    def test_embedding_reasoner_publishes_and_loads(
        self, tiny_dataset, tiny_preset, test_queries, tmp_path
    ):
        mtrl = fit_baseline("MTRL", tiny_dataset, preset=tiny_preset, rng=0)
        registry = ModelRegistry(tmp_path / "registry")
        version = registry.publish(mtrl, name="mtrl")
        assert version.manifest["reasoner_type"] == "embedding"
        assert version.manifest["dataset"]["fingerprint"]
        restored = version.load()
        assert list(map(_ranking, restored.query_batch(test_queries, k=3))) == list(
            map(_ranking, mtrl.query_batch(test_queries, k=3))
        )


class TestResolve:
    @pytest.fixture()
    def registry(self, fitted_reasoner, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(fitted_reasoner, name="mmkgr")
        registry.publish(fitted_reasoner, name="mmkgr", aliases=("prod",))
        return registry

    def test_bare_name_resolves_latest(self, registry):
        assert registry.resolve("mmkgr").version == 2

    def test_version_and_alias_selectors(self, registry):
        assert registry.resolve("mmkgr@1").version == 1
        assert registry.resolve("mmkgr@prod").version == 2
        assert registry.resolve("mmkgr@latest").version == 2

    def test_unknown_lookups_raise_keyerror(self, registry):
        with pytest.raises(KeyError, match="no model named"):
            registry.resolve("nope")
        with pytest.raises(KeyError, match="no alias"):
            registry.resolve("mmkgr@staging")
        with pytest.raises(KeyError, match="no version 9"):
            registry.resolve("mmkgr@9")

    def test_resolved_version_loads_identical_rankings(
        self, registry, fitted_reasoner, test_queries
    ):
        restored = registry.load("mmkgr@prod")
        assert list(map(_ranking, restored.query_batch(test_queries, k=5))) == list(
            map(_ranking, fitted_reasoner.query_batch(test_queries, k=5))
        )

    def test_resolve_returns_model_version(self, registry):
        resolved = registry.resolve("mmkgr@1")
        assert isinstance(resolved, ModelVersion)
        assert resolved.path.is_dir()


class TestPromote:
    @pytest.fixture()
    def registry(self, fitted_reasoner, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(fitted_reasoner, name="mmkgr")
        registry.publish(fitted_reasoner, name="mmkgr")
        return registry

    def test_promote_moves_the_alias(self, registry):
        registry.promote("mmkgr", "prod", 1)
        assert registry.aliases("mmkgr")["prod"] == 1
        registry.promote("mmkgr", "prod", 2)
        assert registry.aliases("mmkgr")["prod"] == 2

    def test_promote_defaults_to_latest_and_copies_aliases(self, registry):
        registry.promote("mmkgr", "canary")
        assert registry.aliases("mmkgr")["canary"] == 2
        registry.promote("mmkgr", "prod", "canary")
        assert registry.aliases("mmkgr")["prod"] == 2

    def test_promote_rejects_reserved_and_numeric_aliases(self, registry):
        with pytest.raises(ValueError, match="managed by the registry"):
            registry.promote("mmkgr", "latest", 1)
        with pytest.raises(ValueError, match="shadow a version"):
            registry.promote("mmkgr", "3", 1)

    def test_promote_to_unknown_version_raises(self, registry):
        with pytest.raises(KeyError):
            registry.promote("mmkgr", "prod", 9)

    def test_alias_file_never_holds_partial_state(self, registry):
        # promote() writes a unique sibling temp file and os.replace()s it
        # in, so the visible file is always complete JSON and no staging
        # files leak.
        registry.promote("mmkgr", "prod", 1)
        path = registry.root / "mmkgr" / ALIASES_FILE
        assert json.loads(path.read_text()) == {"latest": 2, "prod": 1}
        assert not list(path.parent.glob(f"{ALIASES_FILE}.*"))

    def test_concurrent_promotes_neither_crash_nor_strand_temp_files(self, registry):
        import threading

        errors = []

        def promote(alias, version):
            try:
                for _ in range(10):
                    registry.promote("mmkgr", alias, version)
            except Exception as error:  # pragma: no cover - the regression
                errors.append(error)

        threads = [
            threading.Thread(target=promote, args=("prod", 1)),
            threading.Thread(target=promote, args=("canary", 2)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        # Whole-file replacement means the surviving map is valid JSON with
        # plausible values even when one writer's update lost the race.
        aliases = registry.aliases("mmkgr")
        assert aliases.get("prod", 1) == 1
        assert aliases.get("canary", 2) == 2
        assert not list((registry.root / "mmkgr").glob(f"{ALIASES_FILE}.*"))


class TestListing:
    def test_list_models_summarises_versions_and_aliases(
        self, fitted_reasoner, tmp_path
    ):
        registry = ModelRegistry(tmp_path / "registry")
        assert registry.list_models() == []
        registry.publish(fitted_reasoner, name="alpha")
        registry.publish(fitted_reasoner, name="beta", aliases=("prod",))
        registry.publish(fitted_reasoner, name="beta")
        listing = registry.list_models()
        assert [m["name"] for m in listing] == ["alpha", "beta"]
        beta = listing[1]
        assert beta["versions"] == [1, 2]
        assert beta["latest"] == 2
        assert beta["aliases"] == {"latest": 2, "prod": 1}

    def test_describe_includes_pointing_aliases(self, fitted_reasoner, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(fitted_reasoner, name="mmkgr", aliases=("prod",))
        description = registry.describe("mmkgr@prod")
        assert description["version"] == 1
        assert description["aliases"] == ["latest", "prod"]


class TestPipelinePublish:
    def test_trained_pipeline_publishes_directly(
        self, fitted_reasoner, test_queries, tmp_path
    ):
        version = fitted_reasoner.pipeline.publish(
            tmp_path / "registry", name="from-pipeline", metrics={"mrr": 0.4}
        )
        assert version.ref == "from-pipeline@1"
        assert version.metrics == {"mrr": 0.4}
        restored = version.load()
        assert list(map(_ranking, restored.query_batch(test_queries, k=3))) == list(
            map(_ranking, fitted_reasoner.query_batch(test_queries, k=3))
        )

    def test_untrained_pipeline_refuses_to_publish(
        self, tiny_dataset, tiny_preset, tmp_path
    ):
        from repro.core.trainer import MMKGRPipeline

        with pytest.raises(RuntimeError):
            MMKGRPipeline(tiny_dataset, preset=tiny_preset).publish(tmp_path / "r")


class TestSaveManifestProvenance:
    """Satellite: the enriched reasoner.json and PR-1 backward compatibility."""

    def test_saved_manifest_records_version_dataset_and_metrics(
        self, fitted_reasoner, tmp_path
    ):
        directory = fitted_reasoner.save(tmp_path / "save", metrics={"hits@1": 0.25})
        manifest = json.loads((directory / REASONER_FILE).read_text())
        assert manifest["repro_version"] == repro.__version__
        assert manifest["dataset"]["name"] == "tiny-mkg"
        assert manifest["dataset"]["fingerprint"] == dataset_fingerprint(
            fitted_reasoner.pipeline.dataset.config
        )
        assert manifest["metrics"] == {"hits@1": 0.25}

    def test_metrics_are_optional(self, fitted_reasoner, tmp_path):
        directory = fitted_reasoner.save(tmp_path / "save")
        manifest = json.loads((directory / REASONER_FILE).read_text())
        assert "metrics" not in manifest

    def test_pr1_manifest_still_loads_with_identical_rankings(
        self, fitted_reasoner, test_queries, tmp_path
    ):
        # A PR-1 era save carries none of the provenance keys, and a
        # "cache_size" key that is no longer written; loading it must keep
        # working (and ranking identically) forever.
        directory = fitted_reasoner.save(tmp_path / "old-format")
        manifest = json.loads((directory / REASONER_FILE).read_text())
        pr1_keys = (
            "format_version",
            "reasoner_type",
            "name",
            "beam_width",
            "agent_class",
            "environment_class",
            "prune_to",
        )
        pr1_manifest = {key: manifest[key] for key in pr1_keys}
        pr1_manifest["cache_size"] = 4096
        (directory / REASONER_FILE).write_text(json.dumps(pr1_manifest, indent=2))
        restored = load_reasoner(directory)
        assert list(map(_ranking, restored.query_batch(test_queries, k=5))) == list(
            map(_ranking, fitted_reasoner.query_batch(test_queries, k=5))
        )

    def test_dataset_fingerprint_is_stable_and_discriminating(self, tiny_dataset):
        config = tiny_dataset.config
        assert dataset_fingerprint(config) == dataset_fingerprint(tiny_dataset)
        assert dataset_fingerprint(config) != dataset_fingerprint(
            tiny_dataset.graph
        ), "config and graph digests hash different material"
        assert dataset_fingerprint(None) is None
        assert len(dataset_fingerprint(config)) == 16
