"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import calib
import gen
import run
from spans import (
    Recorder, Span, layer_calls, low_by_shape, self_times, stage_totals, tail_percentile,
)

BENCH = Path(__file__).resolve().parent


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(100, 0.9, 10), (999, 0.9, 99), (1000, 0.99, 10), (9999, 0.99, 99), (10000, 0.999, 10)],
)
def test_tail_uses_highest_percentile_with_ten_beyond(n, percentile, beyond):
    samples = list(range(n, 0, -1))
    p, value, got_beyond = tail_percentile(samples)
    assert (p, got_beyond) == (percentile, beyond)
    assert value == n - beyond


def test_tail_falls_back_to_p90_on_few_samples():
    assert tail_percentile([5.0, 1.0, 3.0]) == (0.9, 5.0, 0)


def test_self_time_subtracts_union_of_children_inside_parent():
    spans = [
        Span(0, "bench.op", None, 0, 0.0, 10.0),
        Span(1, "lawvere.interval_build", 0, 0, 1.0, 4.0),
        Span(2, "poset.moebius", 0, 0, 3.0, 6.0),    # overlaps span 1
        Span(3, "poset.moebius", 0, 0, 9.0, 12.0),   # sticks out of span 0
        Span(4, "cm_dm.slice_build", 1, 0, 2.0, 3.0),
    ]
    own = self_times(spans)
    assert own == {0: 4.0, 1: 2.0, 2: 3.0, 3: 3.0, 4: 1.0}
    assert stage_totals(spans)["poset.moebius"] == 6.0
    calls, errors = layer_calls(spans)
    assert calls == {"bench": 1, "lawvere": 1, "poset": 2, "cm_dm": 1}
    assert errors == {"bench": 0, "lawvere": 0, "poset": 0, "cm_dm": 0}


def test_recorder_nests_spans_and_marks_errors():
    rec = Recorder()
    rec.op = 7
    with rec.span("bench.op"):
        with rec.span("poset.moebius"):
            pass
        with pytest.raises(ZeroDivisionError):
            with rec.span("poset.is_lattice"):
                1 / 0
    outer, inner, failed = rec.spans
    assert (inner.parent, failed.parent, outer.parent) == (0, 0, None)
    assert {s.op for s in rec.spans} == {7}
    assert failed.error and not inner.error
    assert all(s.end >= s.start for s in rec.spans)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert gen.dumps(gen.make_inputs(workload, 11)) == gen.dumps(gen.make_inputs(workload, 11))
    assert gen.dumps(gen.make_inputs(workload, 11)) != gen.dumps(gen.make_inputs(workload, 12))


def _cli_shapes(inputs):
    out = Counter()
    for op in inputs["ops"]:
        kind, _, m, spec, *_, window = op["argv"]
        nums = [int(v) for v in spec.split(",")]
        size = (nums[0], nums[2] - nums[3]) if kind == "mu-cm" else (nums[0] - nums[1],)
        out[(kind, m, window, size, op["mu"])] += 1
    return out


def test_seed_never_changes_the_size_histogram():
    a, b = gen.make_inputs("cm_sweep", 1), gen.make_inputs("cm_sweep", 2)
    assert sorted(map(str, a["ops"])) == sorted(map(str, b["ops"]))
    assert a["ops"] != b["ops"]
    assert _cli_shapes(gen.make_inputs("cli_verify", 1)) == _cli_shapes(gen.make_inputs("cli_verify", 2))
    sizes = [
        sorted((e["name"], len(e["ops"]), len(json.loads(e["json"])["elements"]))
               for e in gen.make_inputs("semigroup_rules", seed)["semigroups"])
        for seed in (1, 2)
    ]
    assert sizes[0] == sizes[1]


def test_expected_values_from_definitions():
    assert [gen.classical_mu(n) for n in (1, 2, 4, 6, 12, 30, 49)] == [1, -1, 0, 1, 0, -1, 0]
    assert [gen.cm_mu(0, 0), gen.cm_mu(1, 2), gen.cm_mu(0, 1), gen.cm_mu(2, 2)] == [1, 1, -1, 0]
    assert [gen.dm_mu(d) for d in range(3)] == [1, -1, 0]
    boolean = next(e for e in gen.make_inputs("semigroup_rules", 3)["semigroups"]
                   if e["name"] == "boolean_3")
    assert Counter(op["mu"] for op in boolean["ops"]) == Counter({1: 8 + 6, -1: 12 + 1})


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cm_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_low_by_shape_replaces_each_time_by_its_shapes_low_percentile():
    samples = [("a", 3.0), ("b", 5.0), ("a", 1.0), ("b", 7.0), ("c", 2.0)]
    assert low_by_shape(samples) == [1.0, 5.0, 1.0, 5.0, 2.0]
    # Twenty times 1..20: the one at rank int(0.1 * 20) = 2, counting from 0.
    many = [("d", float(t)) for t in range(20, 0, -1)]
    assert set(low_by_shape(many)) == {3.0}


def test_reports_carry_every_metric_of_benchmark_json():
    traced = {
        "stages_s": {"poset.moebius": 0.5}, "counts": {"lawvere.hom_hits": 1, "lawvere.hom_candidates": 4},
        "layer_calls": [{"poset": 3}, {}], "cli_self_s": 0.0,
        "traced_wall_s": 2.0, "untraced_wall_s": 1.5, "staged_mismatches": 0,
    }
    values, _ = run.per_layer(traced)
    assert list(values) == list(run.per_layer_units())
    assert values["poset.moebius_s"] == 0.5 and values["poset.calls"] == 3
    assert values["lawvere.hom_hit_ratio"] == 0.25 and values["trace.overhead_s"] == 0.5

    # The reference job ran at half the reference speed for the first second
    # and at full speed after it.
    cal = {"times": [0.05 * k for k in range(40)],
           "samples": [2 * calib.REF_S] * 20 + [calib.REF_S] * 20}
    ops = [("a", 0.002), ("b", 0.004), ("a", 0.001)] * 40
    timed = {
        "op_samples": ops, "op_starts": [0.0] * 60 + [1.5] * 60,
        "load_samples": [("w", 0.1), ("w", 0.2)], "load_starts": [0.0, 1.5],
        "attempted": 120, "failed": 0,
        "elapsed_s": 1.0, "passes_s": [0.5, 0.5], "peak_rss_mb": 20.0, "calibration": cal,
    }
    setups = [{"setup_s": 0.2, "calibration_s": calib.REF_S},
              {"setup_s": 0.1, "calibration_s": calib.REF_S / 2},
              {"setup_s": 0.3, "calibration_s": 3 * calib.REF_S}]
    values, details = run.end_to_end(timed, setups)
    assert list(values) == list(run.END_TO_END_UNITS)
    # Operations in the slow half count at half their time; both halves give
    # a: 0.0005, b: 0.002, w: 0.05.
    assert values["throughput_ops_s"] == pytest.approx(120 / (80 * 0.0005 + 40 * 0.002 + 2 * 0.05))
    assert values["op_p50_ms"] == pytest.approx(0.5)
    assert details["unscaled_op_p50_ms"] == pytest.approx(1.0)
    assert details["tail_percentile"] == 0.9 and values["op_tail_ms"] == pytest.approx(2.0)
    # Each set-up launch is scaled by its own process's reference time: 0.2, 0.2, 0.1.
    assert values["setup_s"] == pytest.approx(0.2) and details["unscaled_setup_s"] == 0.2


def test_local_scale_uses_the_fastest_of_the_nearest_job_runs():
    n = calib.NEAREST
    times = [float(k) for k in range(3 * n)]
    samples = [3 * calib.REF_S] * n + [calib.REF_S] * n + [2 * calib.REF_S] * n
    assert calib.local_scales([0.0, n - 1.0, 1.5 * n, 2.5 * n, 10.0 * n], times, samples) == \
        pytest.approx([1 / 3, 1.0, 1.0, 1 / 2, 1 / 2])


def test_calibrator_runs_the_reference_job_once_per_interval_of_operation_time():
    speed = calib.Calibrator()
    for share in (0.4, 0.4, 0.4, 2.0, 0.1):
        speed.after(share * calib.EVERY_S)
    # 1.2 intervals owed: one run; then 2.2: two more; 0.3 left over.
    assert len(speed.samples) == len(speed.times) == 3
    assert all(t > 0 for t in speed.samples)
    assert calib.job() == calib.job()
