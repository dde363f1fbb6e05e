import sys
import time
import types
from concurrent.futures import Future

import pytest

from spans import Span, Target, Tracer, covered, read_spans, self_times


def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([(1.0, 2.0), (4.0, 6.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([(-5.0, 2.0), (9.0, 20.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_time_is_duration_minus_children_only():
    spans = [
        Span(1, "engine", 0.0, 10.0, 0, 1),
        Span(2, "cache", 1.0, 3.0, 1, 1),
        Span(3, "fuse", 4.0, 5.0, 1, 1),
        Span(4, "inner", 4.2, 4.6, 3, 1),  # a grandchild does not count twice
    ]
    table = self_times(spans)
    assert table[1] == pytest.approx(7.0)
    assert table[2] == pytest.approx(2.0)
    assert table[3] == pytest.approx(0.6)
    assert table[4] == pytest.approx(0.4)


class Widget:
    def outer(self, items):
        return self.inner(items) + 1

    def inner(self, items):
        time.sleep(0.001)
        return len(items)


@pytest.fixture
def module():
    fake = types.ModuleType("perfbench_fake")
    fake.Widget = Widget
    fake.helper = lambda x: x * 2
    fake.later = lambda: Future()
    sys.modules["perfbench_fake"] = fake
    yield fake
    del sys.modules["perfbench_fake"]


def test_tracer_records_nested_spans_and_counters_then_uninstalls(module):
    original_outer = Widget.outer
    tracer = Tracer().install(
        [
            Target("perfbench_fake", "Widget.outer", "outer",
                   lambda args, result: {"items": len(args[1])}),
            Target("perfbench_fake", "Widget.inner", "inner"),
            Target("perfbench_fake", "helper", "helper"),
            Target("perfbench_fake", "Widget.absent", "absent"),
        ]
    )
    assert Widget().outer([1, 2, 3]) == 4
    assert module.helper(2) == 4
    tracer.uninstall()
    assert Widget.outer is original_outer
    assert Widget().outer([1]) == 2  # no longer recorded

    outer, = tracer.named("outer")
    inner, = tracer.named("inner")
    helper, = tracer.named("helper")
    assert inner.parent == outer.id and inner.root == outer.id
    assert outer.parent == 0 and helper.parent == 0 and helper.root == helper.id
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert tracer.counters["items"] == 3
    assert tracer.missing == ["perfbench_fake.Widget.absent"]
    assert tracer.self_total("outer") == pytest.approx(outer.duration - inner.duration)


def test_inherited_method_is_restored_by_deletion(module):
    class Child(Widget):
        pass

    module.Child = Child
    tracer = Tracer().install([Target("perfbench_fake", "Child.inner", "inner")])
    assert "inner" in vars(Child)
    tracer.uninstall()
    assert "inner" not in vars(Child)


def test_until_done_span_ends_when_the_future_completes(module):
    tracer = Tracer().install([Target("perfbench_fake", "later", "later", until_done=True)])
    future = module.later()
    assert tracer.spans == []
    time.sleep(0.002)
    future.set_result(None)
    tracer.uninstall()
    span, = tracer.named("later")
    assert span.duration >= 0.002


def test_dump_writes_a_header_and_one_line_per_span(module, tmp_path):
    import json

    tracer = Tracer().install([Target("perfbench_fake", "helper", "helper")])
    module.helper(1)
    tracer.uninstall()
    path = tmp_path / "spans.jsonl"
    tracer.dump(path, extra={"workload": "x"})
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["header"] == {"workload": "x"}
    assert [line["name"] for line in lines[1:]] == ["helper"]
    assert read_spans(path) == tracer.spans
