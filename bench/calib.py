"""A reference job that measures how fast the machine runs Python at the moment.

The host the benchmark runs on shares its cores with other tenants, and its
speed changes for minutes at a time: every job slows by up to 2x together,
and a whole run can fall inside a slow stretch.  A low percentile of an
operation shape's times in the run cannot remove such a stretch, so the
timed run also runs this job between operations, and scales each
operation's time by REF_S / (the fastest of the job runs nearest to it in
time), that is, to what it would read at the reference speed.

The job builds the meet table of the boolean lattice B_5 from frozensets,
dicts and lists, then computes the Möbius function of B_6 by its defining
recursion over frozen dataclasses: the same kinds of objects and calls
``mucat`` spends its time on.  It shares no code with ``mucat`` (or with
``gen.py``, which may change), so a change to the library never moves it.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_left
from dataclasses import dataclass
from time import perf_counter

# About the fastest time of job() on the reference machine (2 shared vCPUs
# of an Intel Xeon, Python 3.11) in its fast state.  It only sets the scale
# of the reported timings, but every timing moves with it, so it must stay
# fixed for runs to be comparable.
REF_S = 0.001

# Operation time per run of the job: with the job taking about 1 ms, it adds
# 5% to a run, and the job runs as densely in time around a long operation
# as around many short ones.
EVERY_S = 0.02

# Job runs around an operation whose fastest time gives the speed there:
# about a third of a second of operation time.
NEAREST = 16

TABLE_RANK = 5
MOEBIUS_RANK = 6


@dataclass(frozen=True)
class _Subset:
    bits: int


def job() -> int:
    """Build B_5's meet table, then mu(0, y) on B_6; returns a checksum."""
    subsets = [frozenset(c) for r in range(TABLE_RANK + 1)
               for c in itertools.combinations(range(TABLE_RANK), r)]
    names = ["".join("abcde"[i] for i in sorted(s)) or "0" for s in subsets]
    index = {s: n for n, s in enumerate(subsets)}
    table = [[names[index[x & y]] for y in subsets] for x in subsets]
    text = json.dumps({"elements": names, "table": table})
    below = [(x, e) for e in range(len(subsets)) for x in range(len(subsets))
             if index[subsets[x] & subsets[e]] == x]

    nodes = [_Subset(b) for b in range(1 << MOEBIUS_RANK)]
    under = {y: [x for x in nodes if x.bits & y.bits == x.bits] for y in nodes}
    mu: dict[_Subset, int] = {}
    for y in nodes:  # every subset of y has a smaller number, so comes first
        total = sum(mu[z] for z in under[y] if z != y)
        mu[y] = 1 if y.bits == 0 else -total
    return len(text) + len(below) + sum(mu.values())


class Calibrator:
    """Runs ``job`` after operations, once per ``EVERY_S`` of operation time."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self._owed = 0.0

    def after(self, spent: float) -> None:
        self._owed += spent
        while self._owed >= EVERY_S:
            self._owed -= EVERY_S
            self.times.append(perf_counter())
            self.samples.append(time_job())


def time_job() -> float:
    start = perf_counter()
    job()
    return perf_counter() - start


def fastest(repeats: int) -> float:
    """The fastest of ``repeats`` back-to-back runs of the job."""
    return min(time_job() for _ in range(repeats))


def local_scales(at: list[float], times: list[float], samples: list[float]) -> list[float]:
    """For each instant in ``at``: REF_S over the fastest of the NEAREST job runs closest to it.

    ``times`` (ascending) and ``samples`` are the start and duration of each
    job run.  Scaling each operation by the speed around it, rather than by
    the fastest job run of the whole run, keeps a run that is fast for only
    part of its time from being scaled as if it were fast throughout.
    """
    if not samples:
        raise ValueError("no reference job runs")
    out = []
    for t in at:
        hi = min(len(times), max(bisect_left(times, t) + NEAREST // 2, NEAREST))
        out.append(REF_S / min(samples[max(0, hi - NEAREST):hi]))
    return out
