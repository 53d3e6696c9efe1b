"""Span recorder, per-layer self time and the statistics of the benchmark.

A span is one timed call into a ``mucat`` module, named ``<layer>.<stage>``
(for example ``lawvere.interval_build``).  Spans of the benchmark's own glue
use the layer ``bench``.  Spans are kept in memory and written out once, when
the run ends, so recording them costs a list append per call.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from time import perf_counter

_NULL = nullcontext()


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    start: float
    end: float = 0.0
    error: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class NullRecorder:
    """Tracing off: spans and counts cost one method call and record nothing."""

    enabled = False
    op = None

    def span(self, name: str):
        return _NULL

    def count(self, name: str, n: int = 1) -> None:
        pass


class Recorder:
    """Tracing on: records every span with its parent and operation id."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, parent, self.op, 0.0)
        self.spans.append(record)
        self._stack.append(record.id)
        record.start = perf_counter()
        try:
            yield record
        except BaseException:
            record.error = True
            raise
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other or stick out of their parent; only the
    union of their intervals inside the parent is subtracted.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children[span.id], key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = (span.end - span.start) - covered
    return out


def stage_totals(spans: list[Span]) -> dict[str, float]:
    """Self time summed per span name."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += own[span.id]
    return dict(totals)


def layer_calls(spans: list[Span]) -> tuple[dict[str, int], dict[str, int]]:
    """Spans and failed spans per layer."""
    calls: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    for span in spans:
        calls[span.layer] += 1
        errors[span.layer] += span.error
    return dict(calls), dict(errors)


# Share of a shape's times below the one that stands for the shape.
SHAPE_PERCENTILE = 0.1


def low_by_shape(samples: list[tuple[str, float]]) -> list[float]:
    """Each sample's time replaced by the low percentile of its shape's times in the run.

    Operations of one shape do the same work, so their spread within a run
    is interference from the rest of the machine, which only ever adds time.
    The time at rank int(SHAPE_PERCENTILE * n) of a shape's n sorted times
    steps over that, and varies less from run to run than the fastest: a
    shape with fewer than 1 / SHAPE_PERCENTILE times counts at its fastest.
    """
    times: dict[str, list[float]] = defaultdict(list)
    for shape, t in samples:
        times[shape].append(t)
    low = {shape: sorted(ts)[int(SHAPE_PERCENTILE * len(ts))] for shape, ts in times.items()}
    return [low[shape] for shape, _ in samples]


TAIL_PERCENTILES = (0.999, 0.99, 0.9)


def tail_percentile(samples: list[float], min_beyond: int = 10) -> tuple[float, float, int]:
    """The highest of p99.9/p99/p90 with at least ``min_beyond`` samples above its rank.

    Uses the nearest-rank definition: the p-th percentile of n sorted samples
    is the one at rank ceil(p * n), and the samples beyond it are the
    n - ceil(p * n) after it.  Falls back to p90 when no percentile qualifies.
    Returns (percentile, value, samples beyond).
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p * n)
        if n - rank >= min_beyond:
            break
    return p, ordered[rank - 1], n - rank
