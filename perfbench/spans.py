"""In-memory span tracing installed around a program's public calls.

A :class:`Tracer` replaces named functions and methods with wrappers that
record one span per call: name, start, end, parent span and the id of the
root span of the call tree (the batch or request the call served).  Spans
stay in memory and are written out once, at the end of a run.  Nothing here
edits the program: the wrappers are installed from outside and removed by
:meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# A counter hook maps (positional args, result) to {counter name: amount}.
CounterFn = Callable[[tuple, object], Dict[str, float]]


@dataclass(frozen=True)
class Target:
    """One call site to wrap: ``module`` attribute path ``attr`` as span ``name``."""

    module: str
    attr: str
    name: str
    counters: Optional[CounterFn] = None
    # For calls returning a future: end the span when the future completes.
    until_done: bool = False


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # 0 for a root span
    root: int  # id of the outermost span of this call tree

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters from wrapped calls, in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # ---------------------------------------------------------------- wrapping
    def _wrap(self, function: Callable, target: Target):
        spans, ids, local, totals = self.spans, self._ids, self._local, self.counters
        clock = time.perf_counter
        name, counters, until_done = target.name, target.counters, target.until_done

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            root = stack[0] if stack else span_id
            stack.append(span_id)
            start = clock()
            deferred = False
            try:
                result = function(*args, **kwargs)
                if until_done and hasattr(result, "add_done_callback"):
                    result.add_done_callback(
                        lambda _: spans.append(
                            Span(span_id, name, start, clock(), parent, root)
                        )
                    )
                    deferred = True
            finally:
                end = clock()
                stack.pop()
                if not deferred:
                    spans.append(Span(span_id, name, start, end, parent, root))
            if counters is not None:
                for key, amount in counters(args, result).items():
                    totals[key] += amount
            return result

        return traced

    def install(self, targets: Iterable[Target]) -> "Tracer":
        """Wrap every target that exists; remember the absent ones in ``missing``."""
        for target in targets:
            try:
                owner = importlib.import_module(target.module)
                *parents, leaf = target.attr.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            own = vars(owner).get(leaf)
            setattr(owner, leaf, self._wrap(original, target))
            self._undo.append(_restorer(owner, leaf, own))
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # --------------------------------------------------------------- reporting
    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        return sum(span.duration for span in self.named(name))

    def self_total(self, name: str) -> float:
        table = self_times(self.spans)
        return sum(table[span.id] for span in self.named(name))

    def dump(self, path, extra: Optional[dict] = None) -> None:
        """Write the spans as JSON lines, after one header line of ``extra``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": extra or {}, "missing": self.missing}) + "\n")
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "root": span.root,
                        }
                    )
                    + "\n"
                )


def read_spans(path) -> List[Span]:
    """The spans of a file written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        next(handle)  # the header line
        return [
            Span(r["id"], r["name"], r["start"], r["end"], r["parent"], r["root"])
            for r in map(json.loads, handle)
        ]


def _restorer(owner, leaf: str, own) -> Callable[[], None]:
    def restore() -> None:
        if own is None:
            delattr(owner, leaf)  # the wrapped attribute was inherited
        else:
            setattr(owner, leaf, own)

    return restore


def covered(intervals: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    current_start = current_end = None
    for a, b in clipped:
        if current_end is None or a > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = a, b
        else:
            current_end = max(current_end, b)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }
