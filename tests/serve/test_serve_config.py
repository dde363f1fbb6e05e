"""ServeConfig tests: validation, overrides, and the constructor surface.

The unified config is the one surface every entry point (constructor, CLI,
load-test spec) funnels through, so its validation errors must stay exact.
"""

from __future__ import annotations

import pytest

from repro.serve import BACKENDS, ReasoningServer, ServeConfig


class _StubReasoner:
    """The minimal fit-reasoner shape the server's threads backend needs."""

    name = "stub"

    def query(self, head, relation, k=10):
        return []

    def query_batch(self, queries, k=10):
        return [[] for _ in queries]


class TestValidation:
    def test_defaults_are_valid_and_threads_backed(self):
        config = ServeConfig()
        assert config.backend == "threads"
        assert config.workers == 1

    def test_backends_constant_lists_both_backends(self):
        assert BACKENDS == ("threads", "processes")

    @pytest.mark.parametrize(
        ("field", "value", "match"),
        [
            ("backend", "gevent", "backend must be one of"),
            ("workers", 0, "workers must be >= 1"),
            ("max_batch_size", 0, "max_batch_size must be >= 1"),
            ("max_wait_ms", -1.0, "max_wait_ms must be >= 0"),
            ("default_k", 0, "default_k must be >= 1"),
            ("stats_interval_s", 0.0, "stats_interval_s must be > 0"),
            ("heartbeat_interval_s", 0.0, "heartbeat_interval_s must be > 0"),
            ("request_timeout_s", 0.0, "request_timeout_s must be > 0"),
            ("start_method", "thread", "start_method must be one of"),
        ],
    )
    def test_bad_values_fail_at_construction(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            ServeConfig(**{field: value})

    def test_frozen(self):
        config = ServeConfig()
        with pytest.raises(AttributeError):
            config.workers = 4


class TestWithOverrides:
    def test_overrides_produce_a_validated_copy(self):
        base = ServeConfig()
        derived = base.with_overrides(backend="processes", workers=3)
        assert (derived.backend, derived.workers) == ("processes", 3)
        assert (base.backend, base.workers) == ("threads", 1)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown ServeConfig field"):
            ServeConfig().with_overrides(wrokers=2)

    def test_override_values_are_still_validated(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ServeConfig().with_overrides(workers=0)


class TestLegacyKwargShim:
    """The pre-ServeConfig constructor kwargs are gone; config= is the only way in."""

    def test_legacy_kwargs_are_rejected(self):
        with pytest.raises(TypeError):
            ReasoningServer(_StubReasoner(), num_workers=2)

    def test_config_only_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            server = ReasoningServer(
                _StubReasoner(), config=ServeConfig(max_batch_size=4)
            )
        server.close()
        assert server.config.max_batch_size == 4

    def test_config_carries_default_model_and_default_k(self):
        config = ServeConfig(default_k=7)
        server = ReasoningServer(_StubReasoner(), config=config)
        try:
            assert server.default_k == 7
            assert server.default_model == "stub"
        finally:
            server.close()
