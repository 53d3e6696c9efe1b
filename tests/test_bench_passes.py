"""Each benchmark workload runs one pass, untraced and then staged, so a name,
attribute or option of mucat that bench/workloads.py reads and the library
drops fails a test here, not only the benchmark's smoke runs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import gen  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_benchmark_pass_has_no_failed_operation_or_staged_mismatch(workload):
    result = worker._traced(workloads.PASSES[workload], gen.make_inputs(workload, 1), None)
    assert result["attempted"] > 0
    assert (result["failed"], result["errors"]) == (0, [])
    assert result["staged_mismatches"] == 0
