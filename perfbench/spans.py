"""In-memory span recorder used by the traced (``--trace 1``) runs.

The benchmark records spans from its own files, around each call it makes
into a layer of the program.  A span has a name (``<layer>.<operation>``),
a start and an end on the ``time.perf_counter`` clock, the id of the span
that caused it, and the id of the operation (one suite instance, one CLI
command, one request) it belongs to.  Spans stay in a list until the run
ends; :meth:`Tracer.self_times` then folds them into per-name self time: a
span's duration minus the part of its interval covered by its children.

``Tracer(enabled=False)`` keeps the same call structure but records
nothing, so the untraced replay runs the identical code path and the
difference between the two replays is the tracing overhead.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._next_op = 0

    @contextmanager
    def operation(self, name: str):
        """Root span of one operation; its descendants share its op id."""
        self._next_op += 1
        outer, self._op = self._op, self._next_op
        try:
            with self.span(name):
                yield
        finally:
            self._op = outer

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span = Span(len(self.spans), name, 0.0, 0.0, self._parent(), self._op)
        self.spans.append(span)
        self._stack.append(span.span_id)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished child span of the current span (e.g. a solve that
        ran on an engine worker and reported its own duration)."""
        if self.enabled:
            self.spans.append(Span(len(self.spans), name, start, end, self._parent(), self._op))

    def _parent(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: dict[str, float] = {}
        for span in self.spans:
            covered = _covered(span, children.get(span.span_id, ()))
            totals[span.name] = totals.get(span.name, 0.0) + span.duration - covered
        return totals

    def layer_self_times(self) -> dict[str, float]:
        """Self time summed per layer (the span-name prefix before the first dot)."""
        layers: dict[str, float] = {}
        for name, seconds in self.self_times().items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        return layers


def _covered(span: Span, children) -> float:
    """Length of the union of the children's intervals, clipped to ``span``."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered
