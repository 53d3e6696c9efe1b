"""Mutants of the fast paths that rest on a proof, each caught by named tests.

Each row of ``MUTANTS`` names a file under ``src/mucat``, an anchor text that
must occur there exactly once, its replacement, and the test node IDs that
must fail once the anchor is replaced.  A case copies ``src/mucat`` to a
temporary directory, applies its mutant and runs its nodes in a subprocess
that imports ``mucat`` from the copy; one more case runs every listed node on
the unmutated copy and requires each to pass.  A refactor that removes an
anchor fails its case, so the row has to move with the code.

Run with ``python -m pytest mutants`` from the repository root; ``testpaths``
leaves this directory out of the tier-1 run.
"""

import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

LAWVERE, POSET = "tests/test_lawvere.py", "tests/test_poset.py"
SEMIGROUPS, CATEGORY = "tests/test_semigroups.py", "tests/test_category.py"

MUTANTS = {  # name: (file, anchor, replacement, node IDs that must fail)
    # a walk asked for hom-sets must read them off composites
    "keyed walk records no hom-set": (
        "lawvere.py",
        "keyed = once and c._associative and found is None\n",
        "keyed = once and c._associative\n",
        [f"{LAWVERE}::test_marked_routes_read_no_composite_and_homs_read_them"
         "[marked cm_slice(5,-10)]",
         f"{LAWVERE}::test_keyed_walk_counts_a_hom_set_with_two_elements"],
    ),
    # the table's rows are tuples, and a list never equals one
    "identity() compares a list": (
        "semigroups.py",
        "ident = self._table, tuple(range(len(self.elements)))\n",
        "ident = self._table, list(range(len(self.elements)))\n",
        [f"{SEMIGROUPS}::test_identity_is_the_element_every_product_keeps",
         f"{SEMIGROUPS}::test_identity_is_detected_once"],
    ),
    "_linear skips transitivity whatever the mark": (
        "poset.py",
        "    if transitive:\n        return order, up\n",
        "    if True:\n        return order, up\n",
        [f"{LAWVERE}::test_position_route_refuses_as_the_staged_route[not_transitive]",
         f"{POSET}::test_rejects_transitivity_violation"],
    ),
    "_position_route claims transitivity on every input": (
        "lawvere.py",
        "                             c._associative)[1]\n",
        "                             True)[1]\n",
        [f"{LAWVERE}::test_position_route_refuses_as_the_staged_route[not_transitive]",
         f"{LAWVERE}::test_the_transitivity_loop_runs_on_sources_and_unmarked_slices[cm_source]"],
    ),
    "quotient_poset drops the mark": (
        "semigroups.py",
        "FinitePoset._from_masks(carrier, up, c._associative)",
        "FinitePoset._from_masks(carrier, up)",
        [f"{LAWVERE}::test_proof_path_matches_the_full_law_check_on_marked_structures"
         "[division boolean B_4]"],
    ),
    "checked_pairs skips the list rule": (
        "category.py",
        "            i = bad(k, pairs)\n",
        "            i = None\n",
        [f"{CATEGORY}::test_list_rule_refuses_a_planted_pair_as_the_default_loop"
         "[C_2: right factor's residue]",
         f"{CATEGORY}::test_list_rule_refuses_a_planted_pair_as_the_default_loop"
         "[D_3: left factor's target]"],
    ),
}


def _run(tmp_path, nodes, mutant=None):
    """Copy src/mucat under tmp_path, apply mutant (file, anchor,
    replacement) if given, and run pytest on nodes against the copy."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "mucat", src / "mucat",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        name, anchor, replacement = mutant
        path = src / "mucat" / name
        text = path.read_text(encoding="utf-8")
        assert text.count(anchor) == 1, f"anchor occurs {text.count(anchor)} times in {name}"
        path.write_text(text.replace(anchor, replacement), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1", "COLUMNS": "400"}
    # pyproject's ``pythonpath = ["src"]`` would put the tree's own copy first
    cmd = [sys.executable, "-m", "pytest", "-q", "-rA", "-W", "error", "-p", "no:cacheprovider",
           "-o", f"pythonpath={shlex.quote(str(src))}", *nodes]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


def test_unmutated_copy_passes_every_listed_node(tmp_path):
    nodes = list(dict.fromkeys(node for *_, ids in MUTANTS.values() for node in ids))
    run = _run(tmp_path, nodes)
    assert run.returncode == 0, run.stdout + run.stderr
    assert f"{len(nodes)} passed" in run.stdout, run.stdout


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_is_caught(name, tmp_path):
    file, anchor, replacement, nodes = MUTANTS[name]
    run = _run(tmp_path, nodes, (file, anchor, replacement))
    # a node fails, or errors with its module; the unmutated case shows that each exists
    assert run.returncode != 0, run.stdout
    passed = [node for node in nodes if f"PASSED {node}\n" in run.stdout]
    assert not passed, run.stdout
