"""Byte-for-byte CLI output against committed golden files.

Each output file under tests/golden/ holds the exact stdout of one command,
recorded before the poset and interval internals moved to bitmasks (the
semigroup files before the multiplication table moved to positions); stdout,
JSON and DOT must not change with the representation.
"""

from pathlib import Path

import pytest

from mucat.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("verify_m3.txt", ["verify", "--m", "3", "--level-min", "-8"]),
    ("verify_m3.json", ["verify", "--m", "3", "--level-min", "-8", "--format", "json"]),
    ("interval_dot_m3_chain.dot", ["interval-dot", "--m", "3", "6,0,0,-6"]),
    ("interval_dot_m2_grid.dot", ["interval-dot", "--m", "2", "2,0,0,-4"]),
    ("mu_dm_m3_verify.txt", ["mu-dm", "--m", "3", "60,0", "--verify"]),
    ("poset_mu_divisors12.txt", ["poset-mu", str(GOLDEN / "divisors12.json"), "1", "12"]),
    ("semigroup_divisors60.txt", ["semigroup", str(GOLDEN / "divisors60.json"), "1,60"]),
    (
        "semigroup_divisors60.json",
        ["semigroup", str(GOLDEN / "divisors60.json"), "2,30", "--format", "json"],
    ),
    (
        "semigroup_brandt5.txt",
        ["semigroup", str(GOLDEN / "brandt5.json"), "z,e11", "--transversal", "e11,z"],
    ),
    (
        "semigroup_brandt5.json",
        ["semigroup", str(GOLDEN / "brandt5.json"), "z,e11", "--transversal", "e11,z",
         "--format", "json"],
    ),
]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_stdout_matches_golden_file(capsys, name, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()
