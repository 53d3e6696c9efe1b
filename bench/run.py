"""mucat benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload cm_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in a fresh child process
(``worker.py``) with ``PYTHONHASHSEED`` pinned, one operation at a time (a
closed loop with one client).  With ``--trace 0`` the last line of stdout is
a JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced pass.  Lines before it give provenance and
details.  Exits 2 without a result when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

HASH_SEED = "0"
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_ratio": "ratio",
}

STAGES = {
    "cm_dm": ("slice_build",),
    "category": ("fact_index", "conv_inverse", "convolve"),
    "lawvere": ("interval_build", "one_way", "interval_poset"),
    "poset": ("moebius", "is_lattice"),
    "semigroups": (
        "parse", "validate", "d_classes", "division_category",
        "quotient_rule", "idempotent_rule",
    ),
    "cli": ("parse",),
}
COUNTS = (
    "cm_dm.morphisms", "cm_dm.compose_entries", "category.factorization_pairs",
    "lawvere.interval_objects", "lawvere.hom_hits", "lawvere.hom_candidates",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, stages in STAGES.items():
        for stage in stages:
            units[f"{layer}.{stage}_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.errors"] = "count"
    units.update({name: "count" for name in COUNTS})
    units["lawvere.hom_hit_ratio"] = "ratio"
    units["cli.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "pythonhashseed": HASH_SEED,
    }


class Launcher:
    """Starts worker processes one after another, within one deadline."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(
            os.environ,
            PYTHONHASHSEED=HASH_SEED,
            PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]),
        )

    def run(self, *extra: str) -> dict:
        a = self.args
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace), *extra,
            "--launched", repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
        ]
        done = subprocess.run(
            cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        if done.returncode != 0:
            raise RuntimeError(f"worker exited {done.returncode}:\n{done.stderr}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(report: dict, setups: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics of a timed run, its timings scaled to the reference speed.

    Each operation and set-up step is scaled by the speed around it
    (``calib.local_scales``) before the low percentile of each shape is taken
    (``spans.low_by_shape``).
    ``setups`` holds the set-up launches, each a dict with ``setup_s`` and the
    fastest ``calibration_s`` of its own process.
    """
    ops, loads = report["op_samples"], report["load_samples"]
    cal = report["calibration"]
    op_scales = calib.local_scales(report["op_starts"], cal["times"], cal["samples"])
    load_scales = calib.local_scales(report["load_starts"], cal["times"], cal["samples"])
    lat = spans.low_by_shape([(s, t * f) for (s, t), f in zip(ops, op_scales)])
    busy = sum(lat) + sum(spans.low_by_shape(
        [(s, t * f) for (s, t), f in zip(loads, load_scales)]))
    unscaled = spans.low_by_shape(ops)
    unscaled_busy = sum(unscaled) + sum(spans.low_by_shape(loads))
    raw = [t for _, t in ops]
    p, tail, beyond = spans.tail_percentile(lat)
    attempted, failed = report["attempted"], report["failed"]
    setup_scaled = [s["setup_s"] * calib.REF_S / s["calibration_s"] for s in setups]
    values = {
        "throughput_ops_s": attempted / busy,
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_tail_ms": tail * 1000,
        "peak_rss_mb": report["peak_rss_mb"],
        "setup_s": statistics.median(setup_scaled),
        "ok_ratio": (attempted - failed) / attempted,
    }
    details = {
        "tail_percentile": p,
        "tail_samples_beyond": beyond,
        "samples": len(lat),
        "fail_ratio": failed / attempted,
        "speed_scale": statistics.median(op_scales),
        "calibration_samples": len(cal["samples"]),
        "unscaled_throughput_ops_s": attempted / unscaled_busy,
        "unscaled_op_p50_ms": statistics.median(unscaled) * 1000,
        "unscaled_op_tail_ms": spans.tail_percentile(unscaled)[1] * 1000,
        "unscaled_setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_throughput_ops_s": attempted / report["elapsed_s"],
        "raw_op_p50_ms": statistics.median(raw) * 1000,
        "raw_op_tail_ms": spans.tail_percentile(raw)[1] * 1000,
        "passes_s": report["passes_s"],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "setup_scaled_s": setup_scaled,
    }
    return values, details


def per_layer(report: dict) -> tuple[dict, dict]:
    stages = report["stages_s"]
    counts = report["counts"]
    calls, errors = report["layer_calls"]
    values = {}
    for layer, names in STAGES.items():
        for stage in names:
            values[f"{layer}.{stage}_s"] = stages.get(f"{layer}.{stage}", 0.0)
        values[f"{layer}.calls"] = calls.get(layer, 0)
        values[f"{layer}.errors"] = errors.get(layer, 0)
    for name in COUNTS:
        values[name] = counts.get(name, 0)
    candidates = counts.get("lawvere.hom_candidates", 0)
    values["lawvere.hom_hit_ratio"] = (
        counts.get("lawvere.hom_hits", 0) / candidates if candidates else 0.0
    )
    values["cli.self_s"] = report["cli_self_s"]
    values["trace.overhead_s"] = report["traced_wall_s"] - report["untraced_wall_s"]
    details = {
        "untraced_wall_s": report["untraced_wall_s"],
        "traced_wall_s": report["traced_wall_s"],
        "staged_mismatches": report["staged_mismatches"],
    }
    return values, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mucat" / "__init__.py").is_file():
        print(f"error: mucat sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    launcher = Launcher(args)
    try:
        if args.trace:
            report = launcher.run("--spans-out", str(out_dir / f"spans-{stem}.jsonl"))
            values, details = per_layer(report)
            units = per_layer_units()
            correct = report["failed"] == 0 and report["staged_mismatches"] == 0
        else:
            # Half the set-up probes before the timed child and half after, so
            # a slow stretch of the machine at one moment moves few of them.
            before = SETUP_PROBES // 2
            setups = [launcher.run("--setup-only") for _ in range(before)]
            report = launcher.run()
            setups += [launcher.run("--setup-only") for _ in range(SETUP_PROBES - before)]
            values, details = end_to_end(report, setups + [report])
            units = END_TO_END_UNITS
            correct = report["failed"] == 0
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for error in report["errors"]:
        print(error, file=sys.stderr)
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(), "details": details,
        "attempted": report["attempted"], "failed": report["failed"],
        "metrics": values,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    for name, value in values.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(json.dumps({k: full[k] for k in ("provenance", "details")}))
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
