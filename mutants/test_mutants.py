"""Mutants of the fast paths that rest on a proof, each caught by named tests.

Each row of ``MUTANTS`` names a file under ``src/mucat``, an anchor text that
must occur there exactly once, its replacement, and the test node IDs that
must fail once the anchor is replaced.  A case copies ``src/mucat`` to a
temporary directory, applies its mutant and runs its nodes in a subprocess
that imports ``mucat`` from the copy; it counts as caught only when every
listed node reports FAILED in the ``-rA`` summary, so a mutant that breaks
the import or the collection of a module fails its case.  One more case runs
every listed node on the unmutated copy and requires each to pass.  A
refactor that removes an anchor fails its case, so the row has to move with
the code.  The selected cases start together, from one session fixture, on a
pool of at most ``os.cpu_count()`` workers, and each test asserts its own.

Run with ``python -m pytest mutants`` from the repository root; ``testpaths``
leaves this directory out of the tier-1 run.
"""

import os
import shlex
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

LAWVERE, POSET = "tests/test_lawvere.py", "tests/test_poset.py"
SEMIGROUPS, CATEGORY = "tests/test_semigroups.py", "tests/test_category.py"
CLI, CM_DM = "tests/test_cli.py", "tests/test_cm_dm.py"
PLANTED = f"{CATEGORY}::test_list_rule_refuses_a_planted_pair_as_the_default_loop"
SPIED = f"{CATEGORY}::test_verify_checks_source_lists_with_no_endpoint_call[list rule-"
HALL = f"{POSET}::test_top_column_of_an_ordinal_sum_matches_hall_s_closed_form"
FAILS_UNMARKED = f"{CATEGORY}::test_factor_slice_leaves_a_total_table_that_fails_unmarked"
ORDERS = f"{LAWVERE}::test_object_orders_"
FILTERED = f"{CATEGORY}::test_filter_matches_the_full_scan_on_planted_total_tables"
UNGENERATED = f"{CATEGORY}::test_a_total_table_its_atoms_do_not_generate_takes_the_full_scan"
BY_IDEAL = f"{SEMIGROUPS}::test_division_category_is_the_definition_listed_by_decreasing_ideal"
ENUMERATED = f"{CM_DM}::test_enumerators_list_every_factorization_in_order"
ROWS = "tests/test_rows.py::test_each_row_holds_one_slot_per_morphism_into_its_left_factors_domain"
INDEX = "tests/test_rows.py::test_each_builder_fills_the_object_index_as_it_builds"


def _clauses_dropped(owner, file, rule, faults, indent):
    """One row per clause of ``owner``'s list rule ``rule``, an ``if`` on one
    line of ``file``: the clause dropped, caught by the planted pairs in
    ``faults`` at the clause's position, the faults only that clause refuses."""
    clauses, rows = rule.split(" or "), {}
    for n, clause in enumerate(clauses):
        kept = " or ".join(clauses[:n] + clauses[n + 1:])
        rows[f"{owner} without {clause}"] = (
            file, f"{indent}if {rule}:\n", f"{indent}if {kept}:\n",
            [f"{PLANTED}[{case}]" for case in faults[n]],
        )
    return rows


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
    "the source's list check skips the list rule": (
        "category.py",
        "            i = bad(k, lefts, rights)\n",
        "            i = None\n",
        [f"{PLANTED}[C_2: right factor's residue]", f"{PLANTED}[D_3: left factor's target]"],
    ),
    # a value wider than the planes must add planes, to pos and neg alike
    "planes capped at 8": (
        "poset.py",
        "                width = size.bit_length()\n",
        "                width = min(size.bit_length(), 8)\n",
        [f"{HALL}[3x40]", f"{HALL}[3x70]"],
    ),
    "planes capped at 64": (
        "poset.py",
        "                width = size.bit_length()\n",
        "                width = min(size.bit_length(), 64)\n",
        [f"{HALL}[3x70]"],
    ),
    "neg not grown with pos": (
        "poset.py",
        "                    neg += [0] * (width - len(neg))\n",
        "",
        [f"{HALL}[3x7]", f"{HALL}[3x40]"],
    ),
    "the top plane of a value not recorded": (
        "poset.py",
        "                for k in range(width):\n",
        "                for k in range(width - 1):\n",
        [f"{HALL}[3x7]", f"{HALL}[3x40]"],
    ),
    # the first value outside -1, 0, 1 is summed again by the plane loop, which records it
    "the first wide value not recorded": (
        "poset.py",
        "  # wider: sum w again over more planes\n                w += 1\n",
        "  # wider: sum w again over more planes\n                values[w] = total\n",
        [f"{HALL}[3x7]", f"{HALL}[3x40]"],
    ),
    "the first wide value not summed again": (
        "poset.py",
        "                w += 1\n                break\n",
        "                break\n",
        [f"{HALL}[3x7]", f"{HALL}[3x40]"],
    ),
    # a window is marked only once its identity laws hold, which _light assumes
    "factor_slice's verdict without its identity pass": (
        "category.py",
        "    c._associative = _identity_violation(c, after) is None and _total(c) and _light(c, after)\n",
        "    c._associative = _total(c) and _light(c, after)\n",
        [f"{FAILS_UNMARKED}[a\\u22181 = b]"],  # pytest escapes the id's ∘
    ),
    "division_category without its semigroup's verdict": (
        "semigroups.py",
        "    c._associative = s._associative\n",
        "    c._associative = False\n",
        [f"{LAWVERE}::test_division_category_takes_its_semigroups_verdict"],
    ),
    # each clause of each list rule refuses one planted fault that no other clause sees
    **_clauses_dropped(
        "cm_source's list rule", "cm_dm.py",
        "hx != x or hi != i or gj != j or hj != gi or (ha + hx) % m != gx or (ga + gx) % m != y",
        [[f"C_{m}: {fault}" for m in (2, 5)] for fault in (
            "right factor's residue", "right factor's level", "left factor's target level",
            "middle object's level", "middle object's residue", "left factor's target residue")],
        " " * 12),
    **_clauses_dropped(
        "dm_source's list rule", "cm_dm.py", "h % m != x or g // m % m != y or h // m % m != g % m",
        [[f"D_{m}: {fault}" for m in (2, 3)]
         for fault in ("right factor's residue", "left factor's target", "middle object")],
        " " * 12),
    **_clauses_dropped(
        "the default loop", "category.py", "cod(h) != dom(g) or dom(h) != x or cod(g) != y",
        [["C_2: middle object's residue", "D_3: middle object"],
         ["C_2: right factor's residue", "D_3: right factor's residue"],
         ["C_2: left factor's target residue", "D_3: left factor's target"]],
        " " * 16),
    # the table check reads each pair off the two zipped lists, every clause
    "_adopt's check without dom h = dom k": (
        "category.py",
        "                if cod_of[h] != dom_of[g] or dom_of[h] != x or cod_of[g] != y:\n",
        "                if cod_of[h] != dom_of[g] or cod_of[g] != y:\n",
        [f"{CATEGORY}::test_constructor_checks_every_entry_and_identity[wrong_composite_endpoints]",
         f"{CATEGORY}::test_table_adopting_builder_checks_every_entry_and_identity"
         "[wrong_composite_endpoints]"],
    ),
    # a list rule reads every pair, the first too
    "dm_source's list rule skips the first pair": (
        "cm_dm.py",
        "        for n, (g, h) in enumerate(zip(lefts, rights)):\n",
        "        for n, (g, h) in enumerate(zip(lefts[1:], rights[1:]), 1):\n",
        [f"{CATEGORY}::test_list_rule_names_the_first_of_two_bad_pairs[D_3]"],
    ),
    # the readers of right factors alone take the second of the two lists
    "keyed walk reads the left factors": (
        "lawvere.py",
        "            for v in below[1]:\n",
        "            for v in below[0]:\n",
        [f"{LAWVERE}::test_keyed_walk_equals_the_walk_by_composite[cm_slice(3,-4)]",
         f"{LAWVERE}::test_a_fresh_cm_window_walks_every_morphism_by_right_factor"],
    ),
    "object orders read the left factors": (
        "lawvere.py",
        "            for v in facts[w][1]:\n",
        "            for v in facts[w][0]:\n",
        [f"{ORDERS}give_the_walks_values_and_lattice_verdicts[poset bounded bowtie top-first]"],
    ),
    "quotient masks read the left factors": (
        "semigroups.py",
        "for t in c._facts[s][1]}",
        "for t in c._facts[s][0]}",
        [f"{SEMIGROUPS}::test_quotient_poset_of_chain",
         f"{SEMIGROUPS}::test_quotient_poset_is_cached_and_matches_factor_through_order"],
    ),
    # a source that states no rule checks its lists by the default loop's endpoint calls
    "cm_source states no list rule": (
        "cm_dm.py",
        "obj=lambda x: _new(CmObject, x), bad=bad)",
        "obj=lambda x: _new(CmObject, x))",
        [f"{SPIED}mu-cm --m 2 3,1,0,-8]", f"{SPIED}mu-cm --m 5 12,3,0,-30]"],
    ),
    "dm_source states no list rule": (
        "cm_dm.py",
        "divmod(k, m)),\n                               bad=bad)",
        "divmod(k, m)))",
        [f"{SPIED}mu-dm --m 2 30,0]", f"{SPIED}mu-dm --m 3 40,2]"],
    ),
    # a list naming a right factor twice has no position by right factor alone
    "keyed walk without its once test": (
        "lawvere.py",
        "keyed = once and c._associative and found is None\n",
        "keyed = c._associative and found is None\n",
        [f"{LAWVERE}::test_a_right_factor_listed_twice_keeps_the_walk_by_composite"],
    ),
    # one order per object: its lattice shortcut, its checks and the mark it rests on
    "object order's lattice verdict forced to True": (
        "lawvere.py",
        "                lattice[x] = _is_lattice([u | top for u in up] + [top])\n",
        "                lattice[x] = True\n",
        [f"{ORDERS}give_the_walks_values_and_lattice_verdicts[poset bounded bowtie top-first]"],
    ),
    # an object whose order fails the lattice test is walked, and its column not read
    "the sweep reads the column of an object whose lattice test fails": (
        "lawvere.py",
        "            if lattice[x]:\n                yield _moebius_to(up, position[k])[one], True\n",
        "            mu = _moebius_to(up, position[k])[one]\n"
        "            if lattice[x]:\n                yield mu, True\n",
        [f"{LAWVERE}::test_sweep_reads_no_column_of_an_object_whose_lattice_test_fails"],
    ),
    "object order without its check for a right factor listed twice": (
        "lawvere.py",
        '                if up[i] & bit:\n                    raise InvalidPoset("a right factor listed twice")\n',
        "",
        [f"{LAWVERE}::test_a_right_factor_listed_twice_keeps_the_walk_by_composite",
         f"{LAWVERE}::test_keyed_walk_counts_a_hom_set_with_two_elements"],
    ),
    "object orders read without the mark": (
        "lawvere.py",
        "    if c._associative:\n        x, orders = c._dom[k], c._orders\n",
        "    if True:\n        x, orders = c._dom[k], c._orders\n",
        [f"{LAWVERE}::test_position_route_refuses_as_the_staged_route[not_transitive]",
         f"{ORDERS}run_where_their_checks_pass_and_the_walk_elsewhere[unmarked division boolean B_4]"],
    ),
    "find_semigroup_violation without _inverses": (
        "semigroups.py",
        "        s._inverses()\n    except InvalidSemigroup as exc:\n",
        "        pass\n    except InvalidSemigroup as exc:\n",
        [f"{SEMIGROUPS}::test_left_zero_semigroup_has_non_unique_inverses",
         f"{SEMIGROUPS}::test_inverse_count_violation_matches_oracle[left zero]"],
    ),
    "check_combinatorial as a no-op": (
        "semigroups.py",
        "    if members := s._subgroup_members():\n",
        "    if members := []:\n",
        [f"{SEMIGROUPS}::test_two_element_group_is_inverse_but_not_combinatorial",
         f"{CLI}::test_semigroup_names_a_non_combinatorial_semigroup[2]"],
    ),
    # Light's test: its closure walk and its atom check each refuse a table
    # the other passes, and a total table either refuses takes the full scan
    "_light always True": (
        "category.py",
        "    atoms = {}  # the atoms, by domain\n",
        "    return True\n",
        [UNGENERATED, f"{FILTERED}[cm_slice(2,-4)]"],
    ),
    "_light without its closure test": (
        "category.py",
        "    if len(reached) != len(after):\n        return False\n",
        "",
        [UNGENERATED, f"{FAILS_UNMARKED}[atoms miss b]"],
    ),
    "_light without its atom check": (
        "category.py",
        "            if after[row_x[s]] != list(map(row_x.__getitem__, through)):\n"
        "                return False\n",
        "",
        [f"{FILTERED}[cm_slice(2,-4)]", f"{FILTERED}[cm_slice(3,-5)]"],
    ),
    # a pair with no join may sit past p's first minimal partner
    "_is_lattice joins only the first partner": (
        "poset.py",
        "                return False\n            rest &= ~up[q]\n",
        "                return False\n            rest = 0\n",
        [f"{POSET}::test_lattice_test_joins_every_minimal_partner"],
    ),
    # the one sort of the division category's (x, x⁻¹x) list
    "division_category lists by increasing ideal": (
        "semigroups.py",
        "key=lambda p: -ideal.get(p[1], 0))",
        "key=lambda p: ideal.get(p[1], 0))",
        [f"{BY_IDEAL}[boolean B_4]", f"{BY_IDEAL}[Brandt B_3]"],
    ),
    # one read of _number is a complete handle only on a fully complete slice
    "_closed_handle takes the fully complete shortcut on every slice": (
        "category.py",
        "        if len(self.complete) != len(self._number):\n",
        "        if False:\n",
        [f"{CATEGORY}::test_factorizations_require_completeness",
         f"{SEMIGROUPS}::test_handles_on_a_partial_slice_refuse_as_before"],
    ),
    "rule two without its test of x^-1 x <= e": (
        "semigroups.py",
        "        if p is not None and poset._up[p] >> q & 1:\n",
        "        if p is not None:\n",
        [f"{SEMIGROUPS}::test_idempotent_rule_names_a_pair_that_is_not_a_morphism[pair1]",
         f"{SEMIGROUPS}::test_rules_by_position_match_the_rules_by_name[Brandt B_5]"],
    ),
    # the enumerators against an all-pairs scan; the windows are built in the
    # tests, so a mutant fails them by assertion, not the module's collection
    "cm_source's lower bound on b raised to 1": (
        "cm_dm.py",
        "a + j - l if a + j > l else 0, ",
        "a + j - l if a + j > l else 1, ",
        [f"{ENUMERATED}[cm_source-m2]", f"{ENUMERATED}[cm_source-m5]"],
    ),
    "dm_source's residue shifted by one": (
        "cm_dm.py",
        "for r in (c % m,)]",
        "for r in ((c + 1) % m,)]",
        [f"{ENUMERATED}[dm_source-m2]", f"{ENUMERATED}[dm_source-m3]"],
    ),
    # the object index, filled in the constructor's endpoint pass: its into
    # lists count totality and size the rows, its slots place each
    # composite, its out lists give hom and Light's test; a fault there can
    # break every window build, so the nodes build their windows in the
    # test, not at collection
    "the object index's into lists drop morphism 0": (
        "category.py",
        "            into[y].append(k)\n",
        "            into[y].append(k) if k else None\n",
        [f"{ROWS}[cm_slice(2,-3)]", f"{ROWS}[dm_slice(3,30)]"],
    ),
    "out keyed by codomain": (
        "category.py",
        "            out[x].append(k)\n",
        "            out[y].append(k)\n",
        [f"{INDEX}[constructor, objects reversed]", f"{INDEX}[division(brandt3)]",
         f"{INDEX}[poset(divisors 12)]"],
    ),
    # a row's slots are positions among the morphisms into dom g, so a slot
    # is read only for a composable pair, and each h is written at its slot
    "compose reads a slot without the composability test": (
        "category.py",
        "            if h is not None and c._cod[h] == c._dom[g]:\n",
        "            if h is not None:\n",
        ["tests/test_rows.py::test_compose_refuses_every_pair_that_does_not_compose"],
    ),
    "_rows writes at h's number, not its slot": (
        "category.py",
        "                after[g][slot[h]] = k\n",
        "                after[g][h] = k\n",
        [f"{ROWS}[cm_slice(2,-3)]", f"{ROWS}[dm_slice(3,30)]", f"{ROWS}[from_json(dm_slice(3,9))]"],
    ),
    "hom ignores the codomain": (
        "category.py",
        " if cod[k] == y])\n",
        "])\n",
        [f"{CATEGORY}::test_object_index_reads_match_filters[cm_slice(3,-4)]",
         f"{CATEGORY}::test_object_index_reads_match_filters[poset(divisors 12), objects reversed]"],
    ),
    "_split_names takes the first split when two fit": (
        "cli.py",
        "    if ways > 1:\n",
        "    if False:\n",
        [f"{CLI}::test_semigroup_ambiguous_comma_split"],
    ),
    # every route computes in int, so importing mucat loads no decimal
    "fractions imported with category.py": (
        "category.py",
        "from collections.abc import Mapping\n",
        "from collections.abc import Mapping\nfrom fractions import Fraction\n",
        [f"{CLI}::test_importing_mucat_loads_none_of_the_deferred_modules"],
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


UNMUTATED = "the unmutated copy"
# case: (mutant or None, node IDs); the unmutated copy, the longest, runs first
CASES = {
    UNMUTATED: (None, list(dict.fromkeys(node for *_, ids in MUTANTS.values() for node in ids))),
    **{name: (tuple(row[:3]), row[3]) for name, row in MUTANTS.items()},
}


@pytest.fixture(scope="session")
def runs(request, tmp_path_factory):
    """{case: future of its ``_run``} for every case this session selected,
    all submitted at once."""
    selected = {item.callspec.params["name"] if hasattr(item, "callspec") else UNMUTATED
                for item in request.session.items if item.module.__name__ == __name__}
    pool = ThreadPoolExecutor(max_workers=os.cpu_count() or 1)
    yield {name: pool.submit(_run, tmp_path_factory.mktemp("case"), nodes, mutant)
           for name, (mutant, nodes) in CASES.items() if name in selected}
    pool.shutdown(cancel_futures=True)


def test_unmutated_copy_passes_every_listed_node(runs):
    run, nodes = runs[UNMUTATED].result(), CASES[UNMUTATED][1]
    assert run.returncode == 0, run.stdout + run.stderr
    assert f"{len(nodes)} passed" in run.stdout, run.stdout


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_is_caught(name, runs):
    run, nodes = runs[name].result(), CASES[name][1]
    summary = run.stdout.splitlines()
    # each node ran and failed: an import or collection error names no node
    missed = [node for node in nodes if f"FAILED {node}" not in summary
              and not any(line.startswith(f"FAILED {node} - ") for line in summary)]
    assert run.returncode != 0 and not missed, run.stdout + run.stderr
