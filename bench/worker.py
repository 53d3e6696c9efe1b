"""One workload in its own process: set up, run whole passes, report one JSON line.

Started by ``run.py``; not meant to be run by hand.  Set-up time is counted
from the launch instant the parent passes in (CLOCK_MONOTONIC, which is
system-wide on Linux) to the start of the timed phase, so it covers
interpreter start, the imports below (``workloads`` imports ``mucat``) and
input generation.  Right after set-up every child also times the reference
job of ``calib.py`` a few times, so ``run.py`` can scale its set-up time to
the reference speed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

import calib
import gen
import spans
import workloads

SETUP_CALIBRATION_REPEATS = 40
MAX_OVERRUN = 1.2


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    inputs = gen.make_inputs(args.workload, args.seed)
    run_pass = workloads.PASSES[args.workload]
    started = _now()
    report = {
        "setup_s": started - args.launched,
        "calibration_s": calib.fastest(SETUP_CALIBRATION_REPEATS),
    }
    if args.setup_only:
        print(json.dumps(report))
        return 0

    if args.trace:
        report.update(_traced(run_pass, inputs, args.spans_out))
    else:
        report.update(_timed(args.workload, run_pass, inputs, args.seconds))
    print(json.dumps(report))
    return 0


def _timed(workload, run_pass, inputs, seconds) -> dict:
    """A fixed number of whole passes, untraced, sized to take about ``seconds``.

    The work is fixed rather than the time, so the sample count, and with it
    the percentile ``op_tail_ms`` reports, is the same on every run.  Only
    when the machine is so slow that the next pass would end past
    ``MAX_OVERRUN`` times ``seconds`` does the run stop early, so that a run
    always ends in time.  The reference job of ``calib.py`` runs between
    operations.  Peak RSS is read after the first pass: every pass does the
    same work, and later ones add only the run's own per-operation records,
    so a peak read at the end would grow with the number of passes.
    """
    rec = spans.NullRecorder()
    speed = calib.Calibrator()
    tally = workloads.Tally(after_op=speed.after)
    passes = []
    for _ in range(workloads.pass_count(workload, seconds)):
        if passes and sum(passes) * (len(passes) + 1) / len(passes) > MAX_OVERRUN * seconds:
            break
        # Free the previous pass's cyclic garbage (convolution_inverse leaves
        # some), so peak RSS does not depend on when the collector runs.
        gc.collect()
        t = _now()
        run_pass(rec, inputs, tally)
        passes.append(_now() - t)
        if len(passes) == 1:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "elapsed_s": sum(passes),
        "passes_s": passes,
        "op_samples": list(zip(tally.shapes, tally.latencies)),
        "op_starts": tally.starts,
        "load_samples": tally.loads,
        "load_starts": tally.load_starts,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "peak_rss_mb": peak_kb / 1024,
        "calibration": {"times": speed.times, "samples": speed.samples},
    }


def _traced(run_pass, inputs, spans_out) -> dict:
    """One untraced pass, then the same pass staged and traced; results must match."""
    plain = workloads.Tally()
    gc.collect()
    t = _now()
    run_pass(spans.NullRecorder(), inputs, plain)
    untraced_wall = _now() - t

    rec = spans.Recorder()
    staged = workloads.Tally()
    gc.collect()
    t = _now()
    run_pass(rec, inputs, staged)
    traced_wall = _now() - t
    if spans_out:
        rec.write(spans_out)

    mismatches = sum(a != b for a, b in zip(plain.results, staged.results))
    mismatches += abs(len(plain.results) - len(staged.results))
    return {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "attempted": plain.attempted + staged.attempted,
        "failed": plain.failed + staged.failed,
        "errors": plain.errors + staged.errors,
        "staged_mismatches": mismatches,
        "stages_s": spans.stage_totals(rec.spans),
        "cli_self_s": _cli_self(rec.spans),
        "counts": dict(rec.counts),
        "layer_calls": spans.layer_calls(rec.spans),
    }


def _cli_self(all_spans) -> float:
    """cli.main time minus the staged library spans of the same operation."""
    main_s: dict = {}
    library_s: dict = {}
    for s in all_spans:
        if s.name == "cli.main":
            main_s[s.op] = main_s.get(s.op, 0.0) + s.end - s.start
        elif s.layer not in ("cli", "bench"):
            library_s[s.op] = library_s.get(s.op, 0.0) + s.end - s.start
    return sum(t - library_s.get(op, 0.0) for op, t in main_s.items())


if __name__ == "__main__":
    sys.exit(main())
