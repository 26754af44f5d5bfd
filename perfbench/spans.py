"""In-memory spans and the summary statistics the benchmark reports.

A :class:`Tracer` records one span per timed call: name, parent span,
start, wall seconds and optional counts.  Spans stay in memory until the
phase ends; :meth:`Tracer.self_seconds` turns them into per-layer self
time (a span's wall time minus the part its child spans cover).
:func:`spans_around` records the calls the program makes itself, by
replacing the names it calls with traced wrappers for a while.
"""

from __future__ import annotations

import statistics
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from functools import wraps
from typing import Any, Callable, Iterable, Iterator
from unittest import mock

#: A tail percentile is reported only with at least this many samples
#: beyond it (p90 therefore needs 100 samples).
MIN_TAIL_SAMPLES = 10


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    wall_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Nested wall-clock spans recorded from the benchmark's own calls."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1].span_id if self._stack else None
        record = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.wall_s = time.perf_counter() - record.start
            self._stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        count: Callable[[Any], dict[str, float]] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``;
        ``count`` turns the call's result into the span's counts."""

        @wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if count is not None:
                    record.counts.update(count(result))
                return result

        return traced

    def self_seconds(self, root: int | None = None) -> dict[str, float]:
        """Self time per span name, over the subtree under ``root``
        (every span when ``root`` is None); ``root`` itself is left out."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.wall_s
        inside = self._subtree(root)
        totals: dict[str, float] = {}
        for span in self.spans:
            if span.span_id in inside and span.span_id != root:
                self_s = span.wall_s - covered[span.span_id]
                totals[span.name] = totals.get(span.name, 0.0) + self_s
        return totals

    def counts(self, root: int | None = None) -> dict[str, float]:
        """Counts summed over the spans under ``root``."""
        inside = self._subtree(root)
        totals: dict[str, float] = {}
        for span in self.spans:
            if span.span_id in inside:
                for key, value in span.counts.items():
                    totals[key] = totals.get(key, 0.0) + value
        return totals

    def _subtree(self, root: int | None) -> set[int]:
        if root is None:
            return {span.span_id for span in self.spans}
        inside = {root}
        # Spans are appended in start order, so parents precede children.
        for span in self.spans[root + 1 :]:
            if span.parent in inside:
                inside.add(span.span_id)
        return inside


#: One call site to trace: the object that holds the name, the name, the
#: span to record and an optional ``count`` for :meth:`Tracer.wrap`.
Target = tuple[Any, str, str, "Callable[[Any], dict[str, float]] | None"]


@contextmanager
def maybe_span(tracer: Tracer | None, name: str) -> Iterator[Span]:
    """``tracer.span(name)``, or a throwaway record without a tracer."""
    if tracer is None:
        yield Span(-1, None, name, 0.0)
    else:
        with tracer.span(name) as record:
            yield record


@contextmanager
def spans_around(tracer: Tracer | None, targets: Iterable[Target]) -> Iterator[None]:
    """While inside, every call of each target goes through
    :meth:`Tracer.wrap`; the original names are restored on exit.

    A target names a module-level function or class as the calling
    module imported it, a method on a class, or a method on one object.
    Without a tracer nothing is replaced.
    """
    with ExitStack() as stack:
        if tracer is not None:
            for owner, attribute, name, count in targets:
                traced = tracer.wrap(name, getattr(owner, attribute), count)
                stack.enter_context(mock.patch.object(owner, attribute, traced))
        yield


def median(samples: list[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def p90(samples: list[float]) -> float:
    """The 90th percentile, refused below 100 samples so that at least
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    needed = MIN_TAIL_SAMPLES * 10
    if len(samples) < needed:
        raise ValueError(
            f"p90 needs {needed} samples ({MIN_TAIL_SAMPLES} beyond it), "
            f"got {len(samples)}"
        )
    return statistics.quantiles(samples, n=10)[-1]
