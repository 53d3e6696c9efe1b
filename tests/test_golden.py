"""Byte-for-byte CLI output against committed golden files.

Each output file under tests/golden/ holds the exact stdout of one command,
recorded before the poset and interval internals moved to bitmasks (the
semigroup files before the multiplication table moved to positions, the
mu-cm/mu-dm --verify files and the third interval-dot file before those
commands moved from windows to factor slices, the larger verify files before
verify moved from one walk per interval to one order per object); stdout,
JSON and DOT must not change with the representation.  The README's CLI examples that state a
result are run too, and so is each of its ```python blocks.
"""

import re
import shlex
from pathlib import Path

import pytest

from mucat.cli import main

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"

CASES = [
    ("verify_m3.txt", ["verify", "--m", "3", "--level-min", "-8"]),
    ("verify_m3.json", ["verify", "--m", "3", "--level-min", "-8", "--format", "json"]),
    ("verify_m3_-16.txt", ["verify", "--m", "3", "--level-min", "-16"]),
    ("verify_m2_-20.txt", ["verify", "--m", "2", "--level-min", "-20"]),
    ("verify_m2_-20.json", ["verify", "--m", "2", "--level-min", "-20", "--format", "json"]),
    ("interval_dot_m3_chain.dot", ["interval-dot", "--m", "3", "6,0,0,-6"]),
    ("interval_dot_m2_grid.dot", ["interval-dot", "--m", "2", "2,0,0,-4"]),
    ("interval_dot_m3_negative.dot", ["interval-dot", "--m", "3", "2,1,-1,-5"]),
    ("mu_dm_m3_verify.txt", ["mu-dm", "--m", "3", "60,0", "--verify"]),
    ("mu_dm_m5_verify.txt", ["mu-dm", "--m", "5", "22,2", "--verify", "--alpha-max", "40"]),
    ("mu_cm_m5_verify.txt", ["mu-cm", "--m", "5", "2,0,0,-12", "--verify", "--level-min", "-14"]),
    (
        "mu_cm_m5_verify.json",
        ["mu-cm", "--m", "5", "2,0,0,-12", "--verify", "--level-min", "-14", "--format", "json"],
    ),
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


def readme_examples():
    """(argv, stated stdout) for each README line `mucat ... # ... -> result`
    whose arguments name no file."""
    examples = []
    for line in README.read_text(encoding="utf-8").splitlines():
        found = re.fullmatch(r"mucat (.*?)\s*#.*-> (.*)", line)
        if found:
            argv = shlex.split(found[1])
            if not any(arg.endswith(".json") for arg in argv):
                examples.append((argv, found[2] + "\n"))
    return examples


README_EXAMPLES = readme_examples()


def test_readme_has_examples_to_run():
    assert len(README_EXAMPLES) >= 4


@pytest.mark.parametrize("argv, expected", README_EXAMPLES, ids=[" ".join(a) for a, _ in README_EXAMPLES])
def test_readme_example_prints_its_stated_result(capsys, argv, expected):
    code = main(argv)
    assert code == 0
    assert capsys.readouterr().out == expected


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
