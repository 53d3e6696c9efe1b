import gc
import random
import re
import tracemalloc
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucat import (
    CategorySlice,
    CmMorphism,
    CmObject,
    FactorizationSource,
    DmMorphism,
    IncidenceFunction,
    IncompleteSlice,
    InvalidSlice,
    InverseSemigroup,
    NotComparable,
    NotMoebius,
    chain,
    cm_moebius_closed_form,
    cm_slice,
    cm_source,
    convolve,
    division_category,
    dm_moebius_closed_form,
    dm_slice,
    dm_source,
    factor_slice,
    find_slice_violation,
    is_one_way_category,
    lawvere_interval,
    moebius_at,
    moebius_of_slice,
    moebius_via_lawvere,
    moebius_via_quotients,
    poset_as_category,
    validate_cm_morphism,
    validate_dm_morphism,
)
import mucat.category
import mucat.cm_dm
from mucat.category import _poset_source
from mucat.cli import main
from mucat.lawvere import _both_routes

from helpers import (
    B2,
    bf_chain_moebius_of_slice,
    bf_compose,
    bf_slice_violation,
    boolean_lattice,
    brandt,
    brandt_five,
    cm_composite,
    divisor_poset,
    dm_composite,
    inversion_round_trip,
    meet_semilattice,
    objects_reversed,
    opposite,
    paired,
    sides,
    slice_json,
    slice_product,
)


def iso_pair_category():
    """Two objects joined by mutually inverse non-identity morphisms."""
    objects = ["X", "Y"]
    morphisms = ["1X", "1Y", "f", "g"]
    dom = {"1X": "X", "1Y": "Y", "f": "X", "g": "Y"}
    cod = {"1X": "X", "1Y": "Y", "f": "Y", "g": "X"}
    compose = {
        ("1X", "1X"): "1X", ("1Y", "1Y"): "1Y",
        ("f", "1X"): "f", ("1Y", "f"): "f",
        ("g", "1Y"): "g", ("1X", "g"): "g",
        ("g", "f"): "1X", ("f", "g"): "1Y",
    }
    identities = {"X": "1X", "Y": "1Y"}
    return CategorySlice(objects, morphisms, dom, cod, compose, identities, morphisms)


def idempotent_endo_category():
    """One object with an idempotent non-identity endomorphism."""
    objects = ["X"]
    morphisms = ["1", "s"]
    dom = {"1": "X", "s": "X"}
    cod = {"1": "X", "s": "X"}
    compose = {("1", "1"): "1", ("s", "1"): "s", ("1", "s"): "s", ("s", "s"): "s"}
    identities = {"X": "1"}
    return CategorySlice(objects, morphisms, dom, cod, compose, identities, morphisms)


# -- slice structure and validation --------------------------------------------

def test_poset_as_category_is_valid():
    c = poset_as_category(B2)
    assert find_slice_violation(c) is None
    assert is_one_way_category(c)


def test_cm_slice_window_is_valid():
    # exhaustive identity/associativity tuple check on the window i in [-4, 0]
    assert find_slice_violation(cm_slice(3, -4)) is None


def test_slice_and_incidence_function_reprs_give_their_sizes():
    c = cm_slice(2, -2)
    assert repr(c) == "CategorySlice(6 objects, 20 morphisms)"
    assert repr(IncidenceFunction.zeta(c)) == "IncidenceFunction(20 values)"


def test_iso_pair_category_is_valid_but_not_one_way():
    c = iso_pair_category()
    assert find_slice_violation(c) is None
    assert not is_one_way_category(c)


def test_wrong_codomain_composite_is_reported():
    p = chain([0, 1, 2])
    base = poset_as_category(p)
    compose = dict(base.compose)
    compose[((1, 2), (0, 1))] = (0, 1)  # should be (0, 2)
    with pytest.raises(InvalidSlice, match="wrong endpoints"):
        CategorySlice(
            base.objects, base.morphisms, base.dom, base.cod,
            compose, base.identities, base.complete,
        )


def test_missing_identity_law_is_reported():
    p = chain([0, 1])
    base = poset_as_category(p)
    compose = dict(base.compose)
    del compose[((0, 1), (0, 0))]
    broken = CategorySlice(
        base.objects, base.morphisms, base.dom, base.cod,
        compose, base.identities, base.complete,
    )
    message = find_slice_violation(broken)
    assert message is not None and "identity law" in message


def test_missing_left_identity_law_is_reported():
    base = poset_as_category(chain([0, 1]))
    compose = dict(base.compose)
    del compose[((1, 1), (0, 1))]
    broken = CategorySlice(base.objects, base.morphisms, base.dom, base.cod, compose,
                           base.identities)
    assert find_slice_violation(broken) == "left identity law fails at (0, 1)"


def test_associativity_definedness_mismatch_is_reported():
    # (2, 3)∘(0, 2) is left out, so ((2, 3)∘(1, 2))∘(0, 1) = (0, 3) while
    # (2, 3)∘((1, 2)∘(0, 1)) is undefined
    base = poset_as_category(chain([0, 1, 2, 3]))
    compose = dict(base.compose)
    del compose[((2, 3), (0, 2))]
    broken = CategorySlice(base.objects, base.morphisms, base.dom, base.cod, compose,
                           base.identities)
    assert find_slice_violation(broken) == (
        "associativity definedness mismatch on ((2, 3), (1, 2), (0, 1))"
    )


def test_constructor_rejects_dangling_morphisms():
    with pytest.raises(InvalidSlice):
        CategorySlice(["X"], ["1"], {"1": "X"}, {"1": "X"}, {}, {"X": "other"})


@pytest.mark.parametrize(
    "objects, morphisms, dom, complete, message",
    [
        (["X", "X"], [], {}, (), "duplicate objects"),
        (["X"], ["1", "1"], {"1": "X"}, (), "duplicate morphisms"),
        (["X"], ["1"], {}, (), "morphism '1' lacks a domain or codomain"),
        (["X"], ["1"], {"1": "Y"}, (), "morphism '1' has endpoints outside the slice"),
        (["X"], ["1"], {"1": "X"}, ["nope"], "complete set mentions unknown morphisms"),
    ],
    ids=["duplicate_objects", "duplicate_morphisms", "no_domain", "outside", "complete"],
)
def test_constructor_rejects_malformed_objects_and_morphisms(
    objects, morphisms, dom, complete, message
):
    with pytest.raises(InvalidSlice) as caught:
        CategorySlice(objects, morphisms, dom, {"1": "X"}, {}, {"X": "1"}, complete)
    assert str(caught.value) == message


def _arrow_slice(compose, identities=None, build=CategorySlice):
    """Objects X, Y and morphisms 1X, 1Y, f: X -> Y; dom and cod also know
    a morphism "ghost" the slice does not hold."""
    dom = {"1X": "X", "1Y": "Y", "f": "X", "ghost": "X"}
    cod = {"1X": "X", "1Y": "Y", "f": "Y", "ghost": "X"}
    return build(
        ["X", "Y"], ["1X", "1Y", "f"], dom, cod, compose,
        identities or {"X": "1X", "Y": "1Y"}, (),
    )


BAD_ARROW_TABLES = [
    ({("f", "f"): "f"}, None, "compose defined on non-composable pair ('f', 'f')"),
    ({("1Y", "f"): "1Y"}, None, "composite '1Y' of ('1Y', 'f') has wrong endpoints"),
    ({}, {"X": "1X", "Y": "f"}, "identity of 'Y' has endpoints ('X', 'Y')"),
]
BAD_ARROW_IDS = ["non_composable", "wrong_composite_endpoints", "identity_endpoints"]


@pytest.mark.parametrize(
    "compose, identities, message",
    [*BAD_ARROW_TABLES, (
        {("ghost", "1X"): "ghost"}, None,
        "compose entry ('ghost', '1X') -> 'ghost' mentions unknown morphisms",
    )],
    ids=[*BAD_ARROW_IDS, "unknown"],
)
def test_constructor_checks_every_entry_and_identity(compose, identities, message):
    with pytest.raises(InvalidSlice) as caught:
        _arrow_slice(compose, identities)
    assert str(caught.value) == message


def _numbered_tables(objects, morphisms, dom, cod, compose, identities, complete):
    """``_adopt`` on the factorization index, the left and right factors
    composing to each morphism by number, as the builders hand it; a builder
    numbers only morphisms it lists, so no entry can name an unknown one."""
    number = {f: k for k, f in enumerate(morphisms)}
    facts = [([], []) for _ in morphisms]
    for (g, h), k in compose.items():
        facts[number[k]][0].append(number[g])
        facts[number[k]][1].append(number[h])
    return CategorySlice.__new__(CategorySlice)._adopt(
        objects, morphisms, dom, cod, facts, None, identities, complete)


@pytest.mark.parametrize("compose, identities, message", BAD_ARROW_TABLES, ids=BAD_ARROW_IDS)
def test_table_adopting_builder_checks_every_entry_and_identity(compose, identities, message):
    with pytest.raises(InvalidSlice) as caught:
        _arrow_slice(compose, identities, _numbered_tables)
    assert str(caught.value) == message


@pytest.mark.parametrize("build", [CategorySlice, _numbered_tables],
                         ids=["constructor", "adopting builder"])
@pytest.mark.parametrize("first, second", [(0, 2), (2, 0), (1, 2)])
def test_table_check_names_the_first_of_two_bad_pairs(build, first, second):
    # both bad pairs compose to (4, 1), listed in compose order; each check
    # names the one listed first
    w, k = dm_slice(3, 9), DmMorphism(4, 1)
    bad = {BAD_PAIRS[first][0]: k, BAD_PAIRS[second][0]: k}
    compose = {**bad, **{pair: g for pair, g in w.compose.items() if pair not in bad}}
    with pytest.raises(InvalidSlice) as caught:
        build(w.objects, w.morphisms, w.dom, w.cod, compose, w.identities, w.complete)
    assert str(caught.value) == BAD_PAIRS[first][1]


def test_constructor_copies_the_callers_tables():
    compose = {("1X", "1X"): "1X", ("1Y", "1Y"): "1Y", ("f", "1X"): "f", ("1Y", "f"): "f"}
    dom, cod = {"1X": "X", "1Y": "Y", "f": "X"}, {"1X": "X", "1Y": "Y", "f": "Y"}
    identities = {"X": "1X", "Y": "1Y"}
    c = CategorySlice(["X", "Y"], list(dom), dom, cod, compose, identities, list(dom))
    kept = [dict(t) for t in (c.dom, c.cod, c.compose, c.identities)]
    compose[("f", "1X")] = "1Y"
    del compose[("1Y", "f")]
    identities["Y"] = "f"
    dom["f"] = cod["f"] = "X"
    assert [c.dom, c.cod, c.compose, c.identities] == kept
    assert c.factorizations("f") == (("f", "1X"), ("1Y", "f"))


def test_constructor_refuses_identities_of_objects_outside_the_slice():
    data = {"objects": ["x"], "morphisms": [{"id": "1", "dom": "x", "cod": "x"}],
            "compose": [["1", "1", "1"]], "identities": {"x": "1", "y": "1"}, "complete": ["1"]}
    with pytest.raises(InvalidSlice, match="^identities mention unknown objects$"):
        CategorySlice.from_json(data)


def test_constructor_keeps_only_the_endpoints_of_its_own_morphisms():
    c = _arrow_slice({("1X", "1X"): "1X", ("1Y", "1Y"): "1Y", ("f", "1X"): "f", ("1Y", "f"): "f"})
    assert list(c.dom) == list(c.cod) == ["1X", "1Y", "f"]
    with pytest.raises(InvalidSlice, match="^'ghost' is not a morphism of the division category$"):
        moebius_via_quotients(c, "ghost")


def test_associativity_failure_is_reported():
    # one object; a∘a = b and every other product of a, b is a, so
    # (a∘a)∘b = b∘b = a while a∘(a∘b) = a∘a = b
    compose = {("1", f): f for f in "1ab"} | {(f, "1"): f for f in "ab"}
    compose |= {("a", "a"): "b", ("a", "b"): "a", ("b", "a"): "a", ("b", "b"): "a"}
    ends = dict.fromkeys("1ab", "X")
    c = CategorySlice(["X"], ["1", "a", "b"], ends, ends, compose, {"X": "1"}, "1ab")
    assert find_slice_violation(c) == "associativity fails on ('a', 'a', 'b'): 'a' != 'b'"


def _one_object_slice(drop=()):
    """The one-object category of test_associativity_failure_is_reported with
    the compose entries ``drop`` left out."""
    compose = {("1", f): f for f in "1ab"} | {(f, "1"): f for f in "ab"}
    compose |= {("a", "a"): "b", ("a", "b"): "a", ("b", "a"): "a", ("b", "b"): "a"}
    for pair in drop:
        del compose[pair]
    ends = dict.fromkeys("1ab", "X")
    return CategorySlice(["X"], ["1", "a", "b"], ends, ends, compose, {"X": "1"}, "1ab")


@pytest.mark.parametrize(
    "drop, message",
    [
        ((), "associativity fails on ('a', 'a', 'b'): 'a' != 'b'"),
        ([("a", "1")], "right identity law fails at 'a'"),
        ([("1", "b")], "left identity law fails at 'b'"),
        ([("b", "a")], "associativity definedness mismatch on ('a', 'a', 'a')"),
        ([("b", "b")], "associativity definedness mismatch on ('a', 'a', 'b')"),
    ],
    ids=["associativity", "right_identity", "left_identity", "definedness", "definedness_late"],
)
def test_planted_law_failures_are_reported(drop, message):
    c = _one_object_slice(drop)
    assert find_slice_violation(c) == message == bf_slice_violation(c)


@pytest.mark.parametrize(
    "base",
    [cm_slice(2, -3), dm_slice(2, 8), poset_as_category(divisor_poset(12)),
     division_category(brandt_five(), ["e11", "z"])],
    ids=["cm_slice(2,-3)", "dm_slice(2,8)", "poset(divisors 12)", "division(brandt)"],
)
def test_numbered_scan_reports_the_first_violation_of_planted_tables(base):
    # drop entries or redirect one to another morphism with the same endpoints
    rng = random.Random(18)
    entries = list(base.compose.items())
    for _ in range(40):
        compose = dict(entries)
        for pair in rng.sample(entries, rng.randint(0, 2)):
            del compose[pair[0]]
        (g, h), k = rng.choice(entries)
        if (g, h) in compose:
            compose[g, h] = rng.choice(base.hom(base.dom[h], base.cod[g]))
        c = CategorySlice(base.objects, base.morphisms, base.dom, base.cod, compose,
                          base.identities, base.complete)
        assert find_slice_violation(c) == bf_slice_violation(c)
    assert find_slice_violation(base) is None is bf_slice_violation(base)


# -- Light's filter on total tables ---------------------------------------------

def _atoms(c):
    """The non-identities whose every factorization has an identity factor."""
    identities = set(c.identities.values())
    return {f for f in c.morphisms if f not in identities
            and all(identities.intersection(pair) for pair in c.factorizations(f))}


def _calls(monkeypatch, name="_scan"):
    """The slices ``mucat.category``'s ``name`` runs on, in turn: by default
    the full scan."""
    called, real = [], getattr(mucat.category, name)
    monkeypatch.setattr(mucat.category, name, lambda c, *rest: called.append(c) or real(c, *rest))
    return called


@pytest.mark.parametrize("base", [cm_slice(2, -4), cm_slice(3, -5)],
                         ids=["cm_slice(2,-4)", "cm_slice(3,-5)"])
def test_filter_matches_the_full_scan_on_planted_total_tables(base, monkeypatch):
    # redirect one entry (g, h), no identity, to another morphism with the
    # same endpoints, so the table stays total and the identity laws hold;
    # half the edits touch an atom, half only morphisms no generator is
    identities, atoms = set(base.identities.values()), _atoms(base)
    entries = [(pair, k) for pair, k in base.compose.items() if identities.isdisjoint(pair)
               and len(base.hom(base.dom[pair[1]], base.cod[pair[0]])) > 1]
    inner = [entry for entry in entries if atoms.isdisjoint(entry[0])]
    rng = random.Random(38)
    edits = rng.sample(inner, 12) + rng.sample([e for e in entries if e not in inner], 12)
    for (g, h), k in edits:
        compose = dict(base.compose.items())
        compose[g, h] = rng.choice([x for x in base.hom(base.dom[h], base.cod[g]) if x != k])
        filtered, scanned = (CategorySlice(base.objects, base.morphisms, base.dom, base.cod,
                                           compose, base.identities, base.complete)
                             for _ in range(2))
        violation = find_slice_violation(filtered)
        with monkeypatch.context() as patch:  # the full scan alone, as before the filter
            patch.setattr(mucat.category, "_light", lambda c, after: False)
            assert find_slice_violation(scanned) == violation == bf_slice_violation(filtered)
        assert filtered._associative is scanned._associative is (violation is None)


@pytest.mark.parametrize(
    "make, total",
    [(lambda: cm_slice(3, -5), True),
     (lambda: poset_as_category(divisor_poset(12)), True),
     (lambda: division_category(InverseSemigroup.from_json(
         (Path(__file__).parent / "golden" / "divisors60.json").read_text())), True),
     (lambda: dm_slice(2, 8), False)],
    ids=["cm_slice(3,-5)", "poset(divisors 12)", "division(divisors 60)", "dm_slice(2,8)"],
)
def test_only_a_partial_table_that_passes_takes_the_full_scan(make, total, monkeypatch):
    scanned, c = _calls(monkeypatch), make()
    assert find_slice_violation(c) is None
    assert c._associative is total
    assert scanned == ([] if total else [c])


def test_a_total_table_its_atoms_do_not_generate_takes_the_full_scan(monkeypatch):
    # a and b factor through each other, so the one object has no atom
    scanned, c = _calls(monkeypatch), _one_object_slice()
    assert not _atoms(c)
    assert find_slice_violation(c) == bf_slice_violation(c) == (
        "associativity fails on ('a', 'a', 'b'): 'a' != 'b'")
    assert scanned == [c] and not c._associative


# -- the verdict factor_slice decides as it builds -------------------------------

def _total(c) -> bool:
    """Whether c's table composes every composable pair, by definition."""
    return len(c.compose) == sum([c.cod[k] == c.dom[g] for g in c.morphisms for k in c.morphisms])


BUILT_CORPUS = {
    **{f"cm_slice({m},{floor})": (lambda m=m, floor=floor: cm_slice(m, floor))
       for m, floor in [(2, -6), (3, -5), (4, -4), (5, -3)]},
    "poset(divisors 12)": lambda: poset_as_category(divisor_poset(12)),
    "poset(B_3)": lambda: poset_as_category(boolean_lattice(3)),
}


@pytest.mark.parametrize("name", list(BUILT_CORPUS))
def test_factor_slice_marks_a_total_window_that_passes_lights_test(name, monkeypatch):
    # the build runs the law check's identity pass, count and Light's test,
    # never the full scan, and its verdict is the law check's
    lights, scanned = _calls(monkeypatch, "_light"), _calls(monkeypatch)
    c = BUILT_CORPUS[name]()
    assert c._associative and lights == [c] and scanned == []
    assert c._associative is (find_slice_violation(c) is None and _total(c))
    assert c._associative and scanned == []


def test_factor_slice_leaves_a_partial_window_unmarked_and_unscanned(monkeypatch):
    lights, scanned = _calls(monkeypatch, "_light"), _calls(monkeypatch)
    for m, alpha in [(2, 8), (3, 30), (2, 60)]:
        c = dm_slice(m, alpha)
        assert not c._associative and not _total(c)
    assert lights == scanned == []


def _as_source(c) -> FactorizationSource:
    """The complete slice c read as a source, each list in table order."""
    def validate(f):
        if f not in c.complete:
            raise InvalidSlice(f"{f!r} is not a morphism")

    return FactorizationSource(lambda f: sides(c.factorizations(f)), c.dom.get, c.cod.get,
                               c.identities.get, lambda g: lambda h: c.compose[g, h], validate)


@pytest.mark.parametrize("redirect", [False, True], ids=["atoms miss b", "a∘1 = b"])
def test_factor_slice_leaves_a_total_table_that_fails_unmarked(redirect, monkeypatch):
    # a total table whose atoms do not generate it fails Light's test; one
    # whose right identity law fails at a never reaches the test.  Both build,
    # and the law check then names the scan's first failure
    table = _one_object_slice()
    if redirect:
        compose = dict(table.compose.items()) | {("a", "1"): "b"}
        table = CategorySlice(table.objects, table.morphisms, table.dom, table.cod, compose,
                              table.identities, table.complete)
    lights, scanned = _calls(monkeypatch, "_light"), _calls(monkeypatch)
    c = factor_slice(table.morphisms, _as_source(table))
    assert _total(c) and not c._associative
    assert lights == ([] if redirect else [c]) and scanned == []
    violation = find_slice_violation(c)
    assert violation == bf_slice_violation(c) and not c._associative
    if redirect:
        assert violation == "right identity law fails at 'a'"
    else:
        assert violation.startswith("associativity fails on ") and scanned == [c]


# -- opposite categories -------------------------------------------------------

OPPOSITE_CORPUS = {
    "cm_slice(3,-7)": cm_slice(3, -7),
    "cm_slice(2,-9)": cm_slice(2, -9),
    "dm_slice(3,30)": dm_slice(3, 30),
    "division(divisors 60)": division_category(InverseSemigroup.from_json(
        (Path(__file__).parent / "golden" / "divisors60.json").read_text())),
}


@pytest.mark.parametrize("seed", [None, 32], ids=["as_built", "shuffled"])
@pytest.mark.parametrize("name", list(OPPOSITE_CORPUS))
def test_opposite_category_has_the_same_moebius_function(name, seed):
    # mu of f in the opposite is mu of f: factorizations reverse, chains keep their length
    c = OPPOSITE_CORPUS[name]
    op = opposite(c, None if seed is None else random.Random(seed))
    assert find_slice_violation(op) is None
    mu, op_mu = moebius_of_slice(c), moebius_of_slice(op)
    for f in c.morphisms:
        assert op_mu[f] == mu[f] == moebius_via_lawvere(op, f), f


@pytest.mark.parametrize("seed", [None, 32], ids=["as_built", "shuffled"])
def test_opposite_of_a_non_associative_slice_is_refused(seed):
    op = opposite(_one_object_slice(), None if seed is None else random.Random(seed))
    violation = find_slice_violation(op)
    assert violation.startswith("associativity fails on ")
    assert violation == bf_slice_violation(op)


# -- product categories ------------------------------------------------------------

PRODUCT_CASES = {  # (A, B, whether the product's table composes every composable pair)
    "cm_slice(3,-3) x division(divisors 60)":
        (cm_slice(3, -3), OPPOSITE_CORPUS["division(divisors 60)"], True),
    "cm_slice(2,-3) x dm_slice(3,8)": (cm_slice(2, -3), dm_slice(3, 8), False),
    "cm_slice(2,-2) x poset(divisors 12)":
        (cm_slice(2, -2), poset_as_category(divisor_poset(12)), True),
    "cm_slice(2,-2) x dm_slice(2,8)": (cm_slice(2, -2), dm_slice(2, 8), False),
    "dm_slice(2,8) x cm_slice(2,-2)": (dm_slice(2, 8), cm_slice(2, -2), False),
}


@pytest.mark.parametrize("name", list(PRODUCT_CASES))
def test_product_category_multiplies_moebius_functions(name, monkeypatch):
    # intervals of A x B are products of intervals (Leroux 1975), so
    # mu(f, g) = mu_A(f) mu_B(g); a total product table takes Light's test,
    # since (atom, identity) and (identity, atom) generate it when each
    # factor's atoms do, then the keyed walk; a partial one takes the full
    # scan and the walk by composite
    a, b, total = PRODUCT_CASES[name]
    scanned, c = _calls(monkeypatch), slice_product(a, b)
    assert find_slice_violation(c) is None
    assert c._associative is total
    assert scanned == ([] if total else [c])
    mu, mu_a, mu_b = moebius_of_slice(c), moebius_of_slice(a), moebius_of_slice(b)
    assert len(mu) == len(a.morphisms) * len(b.morphisms)
    for f, g in c.morphisms:
        assert mu[f, g] == mu_a[f] * mu_b[g] == moebius_via_lawvere(c, (f, g)), (f, g)


def test_product_with_a_non_associative_slice_is_refused(monkeypatch):
    # each product's table is total, but the one-object factor's atoms do not
    # generate it, so the full scan names the triple
    scanned = _calls(monkeypatch)
    point = CategorySlice(["*"], ["1"], {"1": "*"}, {"1": "*"}, {("1", "1"): "1"}, {"*": "1"}, "1")
    for c in (slice_product(f, g) for total in (point, cm_slice(2, -2))
              for f, g in [(_one_object_slice(), total), (total, _one_object_slice())]):
        violation = find_slice_violation(c)
        assert violation.startswith("associativity fails on ")
        assert violation == bf_slice_violation(c)
        assert scanned[-1] is c and not c._associative


def test_compose_is_a_read_only_view_in_table_order():
    c = cm_slice(2, -2)
    order = [(pair, k) for k in c.morphisms for pair in c.factorizations(k)]
    view = c.compose
    assert isinstance(view, Mapping) and len(view) == len(order) == 42
    assert list(view) == [pair for pair, _ in order]
    assert list(view.items()) == order
    assert list(view.values()) == [k for _, k in order]
    for pair, k in order:
        assert view[pair] == view.get(pair) == k and pair in view
    f, g = CmMorphism(1, 0, 0, -1), CmMorphism(0, 1, 0, 0)  # (0,0) -> (1,-1) and 1 at (1,0)
    missing = [(f, f), (g, f), (f, CmMorphism(0, 0, 5, 5)), (f,), (f, f, f), "ab", 7]
    for key in missing:
        assert key not in view and view.get(key) is None and view.get(key, 0) == 0
        with pytest.raises(KeyError):
            view[key]
    items = view.items()
    assert len(items) == 42 and order[0] in items and ((f, f), f) not in items
    assert (order[0][0], f) not in items and items == dict(order).items()
    expected = dict(order)
    assert view == expected and expected == view
    assert not view != expected and not expected != view
    pair, k = order[-1]
    assert view != {**expected, pair: f} and {**expected, pair: f} != view
    assert view != {p: q for p, q in order[:-1]} != view
    with pytest.raises(TypeError):
        view[pair] = k
    with pytest.raises(TypeError):
        del view[pair]
    assert view == expected


def test_slice_rebuilt_from_a_compose_view_equals_one_rebuilt_from_a_copy():
    # the reversed numbering makes the view's handles differ from the new slice's
    base = dm_slice(2, 12)
    for source in (base, _rebuilt(base, dict(base.compose), base.morphisms[::-1])):
        from_view = _rebuilt(source, source.compose, source.morphisms[::-1])
        from_copy = _rebuilt(source, dict(source.compose.items()), source.morphisms[::-1])
        assert slice_json(from_view) == slice_json(from_copy)
        assert (from_view._facts, from_view._order) == (from_copy._facts, from_copy._order)
        assert list(from_view.compose.items()) == list(from_copy.compose.items())
        assert dict(from_view.compose.items()) == dict(source.compose)


def _rebuilt(c, compose, morphisms):
    return CategorySlice(c.objects, morphisms, c.dom, c.cod, compose, c.identities, c.complete)


# -- factorizations --------------------------------------------------------------

def test_identity_factors_only_trivially_in_poset_category():
    c = poset_as_category(chain([0, 1]))
    assert c.factorizations((0, 0)) == (((0, 0), (0, 0)),)


def test_factorization_counts_in_level_category():
    c = cm_slice(2, -2)
    assert len(c.factorizations(CmMorphism(1, 0, 0, -1))) == 2
    assert len(c.factorizations(CmMorphism(1, 0, 0, -2))) == 4


def test_factorizations_require_completeness():
    base = poset_as_category(chain([0, 1]))
    partial = CategorySlice(
        base.objects, base.morphisms, base.dom, base.cod,
        base.compose, base.identities, complete=(),
    )
    with pytest.raises(IncompleteSlice):
        partial.factorizations((0, 1))


def test_reads_tell_a_non_member_from_an_incomplete_member():
    c = cm_slice(2, -2)
    zeta = IncidenceFunction.zeta(c)
    reads = [c.is_identity, c.factorizations, lambda f: convolve(c, zeta, zeta, f),
             lambda f: moebius_at(c, f), lambda f: moebius_via_lawvere(c, f),
             lambda f: lawvere_interval(c, f)]
    for read in reads:
        with pytest.raises(InvalidSlice, match="^'ghost' is not a morphism of the slice$"):
            read("ghost")
    partial = CategorySlice(c.objects, c.morphisms, c.dom, c.cod, c.compose, c.identities)
    f = c.morphisms[-1]
    with pytest.raises(IncompleteSlice) as caught:
        partial.factorizations(f)
    assert str(caught.value) == f"morphism {f!r} is not marked factorization-complete"


def _dm_window(m, window):
    """The D_m slice that ``factor_slice`` builds on the given window."""
    return factor_slice(window, dm_source(m))


REVERSED_DM_WINDOW = dm_slice(2, 8).morphisms[::-1]
D3, C3 = dm_source(3), cm_source(3)


def _dm3(*morphisms) -> tuple:
    """The handles of D_3 morphisms, by dm_source(3)'s own handle rule."""
    return tuple(map(D3._number.get, morphisms))


def _builder_corpus():
    """(name, slice, the category's checked composition rule) per builder."""
    boolean = meet_semilattice(boolean_lattice(3))
    brandt = brandt_five()
    divisors = divisor_poset(12)
    return [
        ("cm_slice(3,-4)", cm_slice(3, -4), lambda g, f: cm_composite(3, g, f)),
        ("dm_slice(2,12)", dm_slice(2, 12), lambda g, f: dm_composite(2, g, f)),
        ("dm_slice(3,9)", dm_slice(3, 9), lambda g, f: dm_composite(3, g, f)),
        (
            "reversed dm_slice(2,8)", _dm_window(2, REVERSED_DM_WINDOW),
            lambda g, f: dm_composite(2, g, f),
        ),
        (
            "division(B3)", division_category(boolean),
            lambda g, f: (boolean.mul(g[0], f[0]), f[1]),
        ),
        (
            "division(brandt)", division_category(brandt, ["e11", "z"]),
            lambda g, f: (brandt.mul(g[0], f[0]), f[1]),
        ),
        (
            "poset(divisors 12)", poset_as_category(divisors),
            lambda g, f: (f[0], g[1]) if divisors.leq(f[0], g[1]) else None,
        ),
    ]


@pytest.mark.parametrize(
    "c, composite, reversed_window",
    [pytest.param(c, rule, name.startswith("reversed"), id=name)
     for name, c, rule in _builder_corpus()],
)
def test_builders_match_all_pairs_compose_oracle(c, composite, reversed_window):
    expected = bf_compose(c, composite)
    assert c.compose == expected
    for f in c.morphisms:
        listed = tuple(pair for pair, k in expected.items() if k == f)
        # the enumerator lists right factors in dm_slice's order, the reverse of this window's;
        # a division category lists them right factor major, as the all-pairs scan does
        assert c.factorizations(f) == (listed[::-1] if reversed_window else listed)
    # every builder's view lists each morphism's factorizations in turn
    assert list(c.compose.items()) == [(p, k) for k in c.morphisms for p in c.factorizations(k)]


def _two_tuples(c) -> bool:
    """Whether each entry of c's factorization index is two tuples of equal length."""
    return len(c._facts) == len(c.morphisms) and all(
        type(listed) is tuple and len(listed) == 2 and all(type(side) is tuple for side in listed)
        and len(listed[0]) == len(listed[1]) for listed in c._facts)


@pytest.mark.parametrize(
    "c",
    [pytest.param(c, id=name) for name, c, _ in _builder_corpus()]
    + [pytest.param(CategorySlice.from_json(slice_json(dm_slice(3, 9))), id="from_json"),
       pytest.param(iso_pair_category(), id="constructor")],
)
def test_each_factorization_list_is_two_tuples_of_equal_length(c):
    # the i-th entries of k's two tuples are the numbers of k's i-th pair
    assert _two_tuples(c)
    at = c.morphisms
    assert [tuple([(at[g], at[h]) for g, h in zip(*listed)]) for listed in c._facts] == [
        c.factorizations(f) for f in c.morphisms]


def _poset_composite(m, g, f):
    """(y, z) ∘ (x, y) = (x, z) in a poset category; m is not read."""
    return f[0], g[1]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_factorizations_of_a_shuffled_window_match_the_definition(data):
    # factor_slice on any order of a window lists each morphism's pairs as the
    # source enumerates them, and they are the all-pairs scan's pairs
    family, m = data.draw(st.sampled_from("CDP")), data.draw(st.integers(2, 3))
    if family == "C":
        base, source, rule = cm_slice(m, data.draw(st.integers(-3, 0))), cm_source(m), cm_composite
    elif family == "D":
        base, source, rule = dm_slice(m, data.draw(st.integers(m - 1, 10))), dm_source(m), dm_composite
    else:
        p = divisor_poset(data.draw(st.sampled_from([8, 12, 30])))
        base, source, rule = poset_as_category(p), _poset_source(p), _poset_composite
    c = factor_slice(data.draw(st.permutations(base.morphisms)), source)
    assert _two_tuples(c)
    expected = bf_compose(c, lambda g, f: rule(m, g, f))
    for f in c.morphisms:
        listed = c.factorizations(f)
        assert listed == tuple(source.factorizations(f))
        assert sorted(listed) == sorted(pair for pair, k in expected.items() if k == f)


def test_factorization_index_takes_at_most_40_bytes_an_entry():
    # two tuples per morphism take about 28 bytes an entry, traced; a tuple
    # per pair, as the index held before, takes about 61
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        c = cm_slice(3, -8)
        gc.collect()
        held, entries = tracemalloc.get_traced_memory()[0], len(c.compose)
        c._facts = None
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        if started:
            tracemalloc.stop()
    assert entries == 3861 and 16 * entries <= freed <= 40 * entries


@pytest.mark.parametrize(
    "c, reversed_window",
    [pytest.param(c, name.startswith("reversed"), id=name)
     for name, c, _ in _builder_corpus() if not name.startswith("division")],
)
def test_walk_built_slices_hold_only_their_own_morphism_objects(c, reversed_window):
    own = {id(f) for f in c.morphisms}
    assert all(id(f) in own for pair, k in c.compose.items() for f in (*pair, k))
    assert all(id(f) in own for f in c.identities.values())
    if reversed_window:  # the window's own objects, in the order given
        assert list(map(id, c.morphisms)) == list(map(id, REVERSED_DM_WINDOW))


def test_factor_slice_refuses_a_window_not_closed_under_factors_or_listed_twice():
    f = CmMorphism(1, 0, 0, -1)
    factor = repr(CmMorphism(0, 0, 0, 0))  # the first right factor of f listed, 1_(0, 0)
    with pytest.raises(InvalidSlice, match=re.escape(f"factor {factor} of {f!r} lies outside")):
        factor_slice([f], cm_source(2))
    with pytest.raises(InvalidSlice, match="^duplicate morphisms$"):
        _dm_window(2, [*REVERSED_DM_WINDOW, REVERSED_DM_WINDOW[3]])


@pytest.mark.parametrize("outside, named", [
    ({DmMorphism(2, 1), DmMorphism(4, 0)}, DmMorphism(2, 1)),
    ({DmMorphism(7, 2), DmMorphism(3, 1)}, DmMorphism(7, 2)),
], ids=["right factor first", "left factor first"])
def test_factor_slice_names_the_first_factor_outside_in_pair_order(outside, named):
    # (7, 1) lists ((7, 1), (1, 1)), ((7, 2), (2, 1)), ((4, 0), (3, 1)), ...
    # and comes first in the window: the refusal names the first factor
    # outside in (g0, h0, g1, h1, ...) order, whichever side holds it
    f = DmMorphism(7, 1)
    window = [f, *(g for g in dm_slice(3, 9).morphisms if g != f and g not in outside)]
    with pytest.raises(InvalidSlice, match=re.escape(
            f"factor {named!r} of {f!r} lies outside the window")):
        factor_slice(window, dm_source(3))


@pytest.mark.parametrize("missing, named", [
    ({DmMorphism(2, 1), DmMorphism(4, 0)}, DmMorphism(2, 1)),
    ({DmMorphism(7, 2), DmMorphism(3, 1)}, DmMorphism(7, 2)),
], ids=["right factor first", "left factor first"])
def test_closed_handle_names_the_first_incomplete_factor_in_pair_order(missing, named):
    w, f = dm_slice(3, 9), DmMorphism(7, 1)
    partial = CategorySlice(w.objects, w.morphisms, w.dom, w.cod, w.compose, w.identities,
                            [g for g in w.morphisms if g not in missing])
    message = f"^{re.escape(f'factor {named!r} of {f!r}')} is not marked factorization-complete$"
    for read in (moebius_at, moebius_via_lawvere, lawvere_interval):
        with pytest.raises(IncompleteSlice, match=message):
            read(partial, f)


def test_factor_slice_refuses_a_morphism_its_handle_does_not_read_back():
    # (0, 2) is no morphism of D_2: its handle 0·2 + 2 is the handle of (1, 0), which it replaces
    window = [DmMorphism(0, 2) if f == DmMorphism(1, 0) else f for f in dm_slice(2, 5).morphisms]
    with pytest.raises(InvalidSlice, match=re.escape(
            "DmMorphism(alpha=0, x=2) is not a morphism of the source: "
            "its handle reads back as DmMorphism(alpha=1, x=0)")):
        factor_slice(window, dm_source(2))


def test_factor_slice_refuses_a_pair_listed_twice():
    # a row holds one composite per pair, so a pair listed twice, in one list
    # or under two composites, would leave the rows and the lists disagreeing
    window = dm_slice(3, 8).morphisms
    pair = _dm3(DmMorphism(5, 2), DmMorphism(2, 0))  # the last pair listed of (5, 0)
    for again in _dm3(DmMorphism(5, 0), DmMorphism(8, 0)):  # in its own list, then under another
        def listed(k, again=again):
            pairs = paired(D3._enumerate(k))
            return sides([*pairs, pair] if k == again else pairs)
        with pytest.raises(InvalidSlice, match="^a factorization is listed twice$"):
            factor_slice(window, _dm3_source(listed))


def test_factor_slice_refuses_an_identity_outside_the_window():
    nontrivial = _dm3_source(lambda k: ([], []))  # lists no factorization, so 1_0 need not be in the window
    with pytest.raises(InvalidSlice, match="^object 0 lacks an identity morphism$"):
        factor_slice([DmMorphism(3, 0)], nontrivial)


@pytest.mark.parametrize(
    "c, source",
    [pytest.param(cm_slice(m, floor), cm_source(m), id=f"cm_slice({m},{floor})")
     for m, floor in ((2, -6), (3, -5), (5, -4))]
    + [pytest.param(dm_slice(m, cap), dm_source(m), id=f"dm_slice({m},{cap})")
       for m, cap in ((2, 14), (3, 20), (5, 17))],
)
def test_window_reads_as_its_source(c, source):
    for f in c.morphisms:
        assert c.factorizations(f) == tuple(source.factorizations(f))
        k = source._number[f]
        assert (c.dom[f], c.cod[f]) == (source._dom[k], source._cod[k])
    assert c.identities == {x: source._at[source._ident[x]] for x in c.objects}


def test_factor_slice_enumerates_each_list_once_unchecked():
    window = dm_slice(3, 9)
    source, count = _counted_dm3_source()
    assert slice_json(factor_slice(window.morphisms, source)) == slice_json(window)
    assert _per_list(count) == dict.fromkeys(window.morphisms, 1)
    # one dom and one cod read per morphism, and the check of each identity's
    # endpoints; a checked list would read both endpoints of each factor again
    assert count["endpoints"] == 2 * len(window.morphisms) + 2 * len(window.objects)


def _leroux_corpus():
    """(name, slice, checked composition rule, closed-form mu or None, (source, f)
    or None).  A source case checks the source on the middle factors of f, which
    the slice holds."""
    def cm(m):
        return lambda g, f: cm_composite(m, g, f)

    def dm(m):
        return lambda g, f: dm_composite(m, g, f)

    boolean = meet_semilattice(boolean_lattice(3))
    brandt = brandt_five()
    return [
        ("cm_slice(2,-4)", cm_slice(2, -4), cm(2), cm_moebius_closed_form, None),
        ("cm_slice(3,-3)", cm_slice(3, -3), cm(3), cm_moebius_closed_form, None),
        ("dm_slice(3,9)", dm_slice(3, 9), dm(3), dm_moebius_closed_form, None),
        ("cm_factor(3;2,1,-1,-5)", cm_slice(3, -5), cm(3), cm_moebius_closed_form,
         (cm_source(3), CmMorphism(2, 1, -1, -5))),
        ("cm_factor(2;3,0,0,-5)", cm_slice(2, -5), cm(2), cm_moebius_closed_form,
         (cm_source(2), CmMorphism(3, 0, 0, -5))),
        ("dm_factor(3;13,1)", dm_slice(3, 13), dm(3), dm_moebius_closed_form,
         (dm_source(3), DmMorphism(13, 1))),
        ("dm_factor(2;9,0)", dm_slice(2, 9), dm(2), dm_moebius_closed_form,
         (dm_source(2), DmMorphism(9, 0))),
        ("division(B3)", division_category(boolean),
         lambda g, f: (boolean.mul(g[0], f[0]), f[1]), None, None),
        ("division(brandt)", division_category(brandt, ["e11", "z"]),
         lambda g, f: (brandt.mul(g[0], f[0]), f[1]), None, None),
    ]


@pytest.mark.parametrize(
    "c, composite, closed_form, source",
    [pytest.param(c, rule, closed, source, id=name)
     for name, c, rule, closed, source in _leroux_corpus()],
)
def test_slice_moebius_matches_leroux_chain_count(c, composite, closed_form, source):
    expected = bf_chain_moebius_of_slice(c, composite)
    assert dict(moebius_of_slice(c)) == expected
    if closed_form is not None:
        assert {f: closed_form(f) for f in c.morphisms} == expected
    if source is not None:
        s, f = source
        middle = {k for u, _ in c.factorizations(f) for _, k in c.factorizations(u)}
        assert len(middle) > 10
        assert {k: moebius_at(s, k) for k in middle} == {k: expected[k] for k in middle}
        assert {k: moebius_via_lawvere(s, k) for k in middle} == {k: expected[k] for k in middle}


# -- factorization sources -----------------------------------------------------------

def _dm3_source(factorizations=D3._enumerate, identity=lambda x: DmMorphism(x, x),
                dom=D3._dom.get, cod=D3._cod.get):
    """D_3 as a source on dm_source(3)'s own handle rules, whose enumerator,
    identity or endpoint rules may be replaced.  Every rule reads and gives
    handles, but ``identity`` gives a morphism, encoded by the handle rule."""
    return FactorizationSource(
        factorizations, dom, cod, lambda x: D3._number[identity(x)],
        D3._row, lambda f: validate_dm_morphism(3, f),
        D3._number.get, D3._at.get,
    )


def _counted_dm3_source():
    """D_3 as a source that counts its endpoint reads and the lists it
    enumerates, in all and of each morphism k under ("lists", k), k decoded."""
    count = Counter()

    def counted(rule, key):
        def read(k):
            count[key] += 1
            return rule(k)
        return read

    def listed(k):
        count["lists", D3._at[k]] += 1
        return D3._enumerate(k)

    source = _dm3_source(counted(listed, "lists"),
                         dom=counted(D3._dom.get, "endpoints"),
                         cod=counted(D3._cod.get, "endpoints"))
    return source, count


@pytest.mark.parametrize(
    "first, second",
    [(moebius_via_lawvere, moebius_at), (moebius_at, moebius_via_lawvere)],
    ids=["lawvere_then_recursion", "recursion_then_lawvere"],
)
def test_source_checks_every_list_it_hands_out(first, second):
    f = DmMorphism(13, 1)
    read = {f, *(h for _, h in D3.factorizations(f))}  # the lists both routes read
    alone, alone_count = _counted_dm3_source()
    shared, count = _counted_dm3_source()
    assert second(alone, f) == first(shared, f) == 0
    count.clear()
    assert second(shared, f) == 0
    assert count["lists"] == alone_count["lists"] >= len(read)  # enumerated again, not kept
    assert count["lists", f] == alone_count["lists", f] == 1  # f's list once per call
    assert count["endpoints"] == alone_count["endpoints"]  # and checked again


def _counted_cm3_source():
    """C_3 as a source on cm_source(3)'s own handle and endpoint rules that
    counts the lists it enumerates, of each morphism k under ("lists", k), k
    decoded; an endpoint is its plain tuple (residue, level)."""
    count = Counter()

    def listed(k):
        count["lists", C3._at[k]] += 1
        return C3._enumerate(k)

    return FactorizationSource(listed, C3._dom.get, C3._cod.get,
                               lambda x: C3._number[CmMorphism(0, x[0], x[1], x[1])],
                               C3._row,
                               lambda f: validate_cm_morphism(3, f), C3._number.get,
                               C3._at.get, C3._obj), count


def _per_list(count) -> dict:
    """{k: how many times k's list was enumerated} from a counted source's count."""
    return {key[1]: n for key, n in count.items() if isinstance(key, tuple)}


@pytest.mark.parametrize(
    "counted, plain, f",
    [(_counted_dm3_source, D3, DmMorphism(13, 1)),
     (_counted_cm3_source, C3, CmMorphism(3, 0, 0, -6))],
    ids=["D_3", "C_3"],
)
def test_shared_pass_enumerates_each_list_once(counted, plain, f):
    read = {f, *(h for _, h in plain.factorizations(f))}  # the lists both routes read
    in_turn, turn_count = counted()
    shared, count = counted()
    assert _both_routes(shared, f) == (moebius_via_lawvere(in_turn, f), moebius_at(in_turn, f))
    assert len(read) > 10
    assert _per_list(count) == dict.fromkeys(read, 1)
    assert _per_list(turn_count) == dict.fromkeys(read, 2)  # the two routes in turn


def _constructor_message(**changes) -> str:
    """The message the CategorySlice constructor gives for a D_3 window with
    its compose or identities tables updated by ``changes``."""
    w = dm_slice(3, 9)
    tables = {"compose": dict(w.compose), "identities": dict(w.identities)}
    for table, entries in changes.items():
        tables[table].update(entries)
    with pytest.raises(InvalidSlice) as caught:
        CategorySlice(w.objects, w.morphisms, w.dom, w.cod, tables["compose"],
                      tables["identities"], w.complete)
    return str(caught.value)


BAD_PAIRS = [  # (the pair listed first for (4, 1), the constructor's message for it)
    ((DmMorphism(4, 1), DmMorphism(2, 1)),
     "compose defined on non-composable pair "
     "(DmMorphism(alpha=4, x=1), DmMorphism(alpha=2, x=1))"),
    ((DmMorphism(1, 1), DmMorphism(1, 0)),
     "composite DmMorphism(alpha=4, x=1) of "
     "(DmMorphism(alpha=1, x=1), DmMorphism(alpha=1, x=0)) has wrong endpoints"),
    ((DmMorphism(2, 1), DmMorphism(1, 1)),
     "composite DmMorphism(alpha=4, x=1) of "
     "(DmMorphism(alpha=2, x=1), DmMorphism(alpha=1, x=1)) has wrong endpoints"),
]
BAD_PAIR_IDS = ["non_composable", "wrong_domain", "wrong_codomain"]


def _one_bad_pair_source(bad):
    """D_3 as a source that lists ``bad`` in place of the first pair of (4, 1)."""
    k, bad = D3._number[DmMorphism(4, 1)], _dm3(*bad)

    def one_bad_pair(f):
        pairs = paired(D3._enumerate(f))
        return sides([bad, *pairs[1:]] if f == k else pairs)

    return _dm3_source(one_bad_pair)


@pytest.mark.parametrize("bad, message", BAD_PAIRS, ids=BAD_PAIR_IDS)
def test_source_checks_each_pair_as_the_constructor_does(bad, message):
    k = DmMorphism(4, 1)  # a right factor of (7, 1) and of (13, 1)
    assert _constructor_message(compose={bad: k}) == message
    source = _one_bad_pair_source(bad)
    for read in (source.factorizations, lambda f: lawvere_interval(source, f), lambda f: moebius_at(source, f)):
        with pytest.raises(InvalidSlice) as caught:
            read(k)
        assert str(caught.value) == message
    for f in (DmMorphism(7, 1), DmMorphism(13, 1)):  # the pair is read as a right factor's
        with pytest.raises(InvalidSlice, match=f"^{re.escape(message)}$"):
            moebius_at(source, f)
        with pytest.raises(InvalidSlice, match=f"^{re.escape(message)}$"):
            moebius_via_lawvere(source, f)
    assert moebius_at(_dm3_source(), DmMorphism(7, 1)) == 0


@pytest.mark.parametrize("bad, message", BAD_PAIRS, ids=BAD_PAIR_IDS)
def test_source_refuses_a_bad_list_on_a_later_read(bad, message):
    k = DmMorphism(4, 1)
    handle, bad = D3._number[k], _dm3(*bad)
    reads = Counter()

    def bad_on_second_read(f):
        pairs = paired(D3._enumerate(f))
        reads[f] += 1
        return sides([bad, *pairs[1:]] if f == handle and reads[f] == 2 else pairs)

    source = _dm3_source(bad_on_second_read)
    assert source.factorizations(k) == D3.factorizations(k)
    with pytest.raises(InvalidSlice, match=f"^{re.escape(message)}$"):
        source.factorizations(k)
    assert source.factorizations(k) == D3.factorizations(k)


@pytest.mark.parametrize("bad, message", BAD_PAIRS, ids=BAD_PAIR_IDS)
def test_factor_slice_refuses_a_bad_pair_as_the_constructor_does(bad, message):
    with pytest.raises(InvalidSlice, match=f"^{re.escape(message)}$"):
        factor_slice(dm_slice(3, 9).morphisms, _one_bad_pair_source(bad))


# -- list rules ----------------------------------------------------------------------

def _planted(rules, factorizations, bad):
    """A source on the handle, endpoint, identity and row rules of ``rules``
    whose enumerator is ``factorizations`` and whose list rule is ``bad``;
    None gives the default loop on ``dom`` and ``cod``."""
    return FactorizationSource(factorizations, rules._dom.get, rules._cod.get, rules._ident.get,
                               rules._row, rules._validate,
                               rules._number.get, rules._at.get, rules._obj, bad=bad)


# fault: (the pair (g, h) of handles with the fault planted, whether it is
# still composable); each moves one endpoint, so one clause of the rule fails
CM_FAULTS = {
    "right factor's residue": (lambda m, g, h: (g, (h[0] + m - 1, (h[1] + 1) % m, *h[2:])), True),
    "right factor's level": (lambda m, g, h: (g, (*h[:2], h[2] - 1, h[3])), True),
    "left factor's target residue": (lambda m, g, h: ((g[0] + 1, *g[1:]), h), True),
    "left factor's target level": (lambda m, g, h: ((*g[:3], g[3] - 1), h), True),
    "middle object's residue": (lambda m, g, h: (g, (h[0] + 1, *h[1:])), False),
    "middle object's level": (lambda m, g, h: (g, (*h[:3], h[3] - 1)), False),
}
DM_FAULTS = {
    "right factor's residue": (lambda m, g, h: (g, h - h % m + (h + 1) % m), True),
    "left factor's target": (lambda m, g, h: (g + m, h), True),
    "middle object": (lambda m, g, h: (g - g % m + (g + 1) % m, h), False),
}
LIST_RULE_CASES = [  # (m, source, k whose list is planted, f with k as a right factor, fault)
    pytest.param(m, cm_source(m), CmMorphism(2, m - 1, -1, -4), CmMorphism(3, m - 1, -1, -5),
                 fault, id=f"C_{m}: {name}")
    for m in (2, 3, 5) for name, fault in CM_FAULTS.items()
] + [
    pytest.param(m, dm_source(m), DmMorphism(3 * m, m - 1), DmMorphism(4 * m, m - 1),
                 fault, id=f"D_{m}: {name}")
    for m in (2, 3, 5) for name, fault in DM_FAULTS.items()
]


@pytest.mark.parametrize("m, rules, k, f, fault", LIST_RULE_CASES)
def test_list_rule_refuses_a_planted_pair_as_the_default_loop(m, rules, k, f, fault):
    plant, composable = fault
    code, at = rules._number[k], rules._at
    pairs = paired(rules._enumerate(code))
    first = len(pairs) // 2  # planted there and in the last pair; the refusal names the first
    listed = [plant(m, *pair) if n in (first, len(pairs) - 1) else pair
              for n, pair in enumerate(pairs)]

    def planted(h):
        return sides(listed) if h == code else rules._enumerate(h)

    by_rule, by_loop = _planted(rules, planted, rules._bad), _planted(rules, planted, None)
    assert rules._bad(code, *sides(pairs)) is None
    assert by_rule._bad(code, *sides(listed)) == by_loop._bad(code, *sides(listed)) == first
    g, h = at[listed[first][0]], at[listed[first][1]]
    message = (f"composite {k!r} of ({g!r}, {h!r}) has wrong endpoints" if composable
               else f"compose defined on non-composable pair ({g!r}, {h!r})")
    for read, morphism in ((FactorizationSource.factorizations, k), (moebius_at, k),
                           (moebius_via_lawvere, k), (moebius_at, f), (moebius_via_lawvere, f)):
        for source in (by_rule, by_loop):
            with pytest.raises(InvalidSlice) as caught:
                read(source, morphism)
            assert str(caught.value) == message


@pytest.mark.parametrize("rules, k, faults", [
    pytest.param(C3, CmMorphism(2, 2, -1, -4), CM_FAULTS, id="C_3"),
    pytest.param(D3, DmMorphism(9, 2), DM_FAULTS, id="D_3"),
])
def test_list_rule_names_the_first_of_two_bad_pairs(rules, k, faults):
    # two faults planted in k's first and third pairs, each pair of faults in
    # both orders: the stated rule and the default loop name the first pair
    code, at = rules._number[k], rules._at
    pairs = paired(rules._enumerate(code))
    for (early, composable), (late, _) in permutations(faults.values(), 2):
        listed = [early(3, *pairs[0]), pairs[1], late(3, *pairs[2]), *pairs[3:]]

        def planted(h, listed=listed):
            return sides(listed) if h == code else rules._enumerate(h)

        g, h = at[listed[0][0]], at[listed[0][1]]
        message = (f"composite {k!r} of ({g!r}, {h!r}) has wrong endpoints" if composable
                   else f"compose defined on non-composable pair ({g!r}, {h!r})")
        for bad in (rules._bad, None):
            source = _planted(rules, planted, bad)
            assert source._bad(code, *sides(listed)) == 0
            with pytest.raises(InvalidSlice) as caught:
                source.factorizations(k)
            assert str(caught.value) == message


def _handles(m, family):
    """Handles of ``family`` ("C" or "D") in a small range, morphisms or not."""
    if family == "D":
        return st.integers(-2 * m, 30 * m)
    return st.tuples(st.integers(-2, 8), st.integers(-1, m), st.integers(-8, 1), st.integers(-12, 1))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_list_rule_and_default_loop_name_the_same_first_pair(data):
    # on k's own list or a list of any handles, with factors replaced by any
    # handles, then with each planted fault at one pair: the rule reads what
    # the loop reads
    m, family = data.draw(st.integers(2, 6)), data.draw(st.sampled_from("CD"))
    rules = (cm_source if family == "C" else dm_source)(m)
    loop = _planted(rules, rules._enumerate, None)._bad
    x = data.draw(st.integers(0, m - 1))
    if family == "D":
        code = data.draw(st.integers(x, x + 12)) * m + x
    else:
        i = data.draw(st.integers(-4, 0))
        j = data.draw(st.integers(i - 5, i))
        code = (data.draw(st.integers(0, i - j)), x, i, j)
    pairs = paired(rules._enumerate(code))
    handle = _handles(m, family)
    if data.draw(st.integers(0, 3)) == 0:
        pairs = data.draw(st.lists(st.tuples(handle, handle), max_size=6))
    for _ in range(data.draw(st.integers(0, 2)) if pairs else 0):
        n, new = data.draw(st.integers(0, len(pairs) - 1)), data.draw(handle)
        g, h = pairs[n]
        pairs[n] = data.draw(st.sampled_from([(new, h), (g, new)]))
    assert rules._bad(code, *sides(pairs)) == loop(code, *sides(pairs))
    if pairs:
        n = data.draw(st.integers(0, len(pairs) - 1))
        for plant, _ in (CM_FAULTS if family == "C" else DM_FAULTS).values():
            moved = [*pairs[:n], plant(m, *pairs[n]), *pairs[n + 1:]]
            assert rules._bad(code, *sides(moved)) == loop(code, *sides(moved))


@pytest.mark.parametrize("argv", [
    ["mu-cm", "--m", "2", "3,1,0,-8", "--verify"],
    ["mu-cm", "--m", "5", "12,3,0,-30", "--verify"],
    ["mu-dm", "--m", "2", "30,0", "--verify"],
    ["mu-dm", "--m", "3", "40,2", "--verify"],
], ids=lambda argv: " ".join(argv[:4]))
@pytest.mark.parametrize("stated", [True, False], ids=["list rule", "default loop"])
def test_verify_checks_source_lists_with_no_endpoint_call(argv, stated, monkeypatch, capsys):
    # cm_source and dm_source check each list by their stated rule, which reads
    # handles inline; with the rule dropped, the default loop calls dom and cod
    # per pair, and the output is the same
    assert main(argv) == 0
    plain = capsys.readouterr().out
    calls, inside = Counter(), []

    class Spied(FactorizationSource):
        __slots__ = ()

        def __init__(self, factorizations, dom, cod, *rules, bad=None, **named):
            def counted(rule):
                def read(k):
                    calls["in a list check" if inside else "elsewhere"] += 1
                    return rule(k)
                return read

            super().__init__(factorizations, counted(dom), counted(cod), *rules,
                             bad=bad if stated else None, **named)
            checked = self._facts.get

            def listed(k):
                calls["lists"] += 1
                inside.append(k)
                try:
                    return checked(k)
                finally:
                    inside.pop()

            self._facts = mucat.category._Rule(listed)

    monkeypatch.setattr(mucat.cm_dm, "FactorizationSource", Spied)
    assert main(argv) == 0
    assert capsys.readouterr().out == plain
    assert calls["lists"] > 10 and calls["elsewhere"] > 0
    assert (calls["in a list check"] == 0) is stated


def _wrong_identity_source():
    """D_3 as a source whose identity of object 1 is (2, 1), from 1 to 2."""
    return _dm3_source(identity=lambda x: DmMorphism(2, 1) if x == 1 else DmMorphism(x, x))


def test_source_checks_each_identity_as_the_constructor_does():
    message = "identity of 1 has endpoints (1, 2)"
    assert _constructor_message(identities={1: DmMorphism(2, 1)}) == message
    source = _wrong_identity_source()
    with pytest.raises(InvalidSlice, match=f"^{re.escape(message)}$"):
        source._ident[1]
    for read in (moebius_at, moebius_via_lawvere):
        with pytest.raises(InvalidSlice, match=f"^{re.escape(message)}$"):
            read(source, DmMorphism(4, 1))  # an endomorphism of 1
    with pytest.raises(InvalidSlice, match=f"^{re.escape(message)}$"):
        moebius_at(source, DmMorphism(3, 0))  # on 0, but 1_1 is the unit of its right factor (1, 0)
    assert moebius_via_lawvere(source, DmMorphism(3, 0)) == 0  # reads only 1_0
    assert moebius_at(source, DmMorphism(3, 2)) == -1  # right factors end at 2 and 0
    with pytest.raises(InvalidSlice, match=f"^{re.escape(message)}$"):
        factor_slice(dm_slice(3, 9).morphisms, source)


def _cm3_wrong_identity_source():
    """C_3 as a source on cm_source(3)'s own rules whose identity of (1, -1)
    is (0, 1, -1, -2), from (1, -1) to (1, -2)."""
    return FactorizationSource(
        C3._enumerate, C3._dom.get, C3._cod.get,
        lambda x: (0, 1, -1, -2) if x == (1, -1) else C3._ident[x],
        C3._row, lambda f: validate_cm_morphism(3, f),
        C3._number.get, C3._at.get, C3._obj,
    )


def test_cm_source_names_objects_in_its_identity_message():
    # the source checks plain endpoint tuples, and its message decodes them to CmObjects
    message = ("identity of CmObject(residue=1, level=-1) has endpoints "
               "(CmObject(residue=1, level=-1), CmObject(residue=1, level=-2))")
    w = cm_slice(3, -4)
    identities = {**w.identities, CmObject(1, -1): CmMorphism(0, 1, -1, -2)}
    with pytest.raises(InvalidSlice, match=f"^{re.escape(message)}$"):
        CategorySlice(w.objects, w.morphisms, w.dom, w.cod, dict(w.compose), identities, w.complete)
    source = _cm3_wrong_identity_source()
    for x in ((1, -1), CmObject(1, -1)):
        with pytest.raises(InvalidSlice, match=f"^{re.escape(message)}$"):
            source._ident[x]
    for read in (moebius_at, moebius_via_lawvere):
        with pytest.raises(InvalidSlice, match=f"^{re.escape(message)}$"):
            read(source, CmMorphism(2, 1, -1, -3))  # (1, -1) is its domain
    with pytest.raises(InvalidSlice, match=f"^{re.escape(message)}$"):
        factor_slice(w.morphisms, source)


@pytest.mark.parametrize(
    "c, source",
    [pytest.param(dm_slice(m, 30), dm_source(m), id=f"dm_slice({m},30)") for m in (2, 3, 4, 5)]
    + [pytest.param(cm_slice(m, -6), cm_source(m), id=f"cm_slice({m},-6)") for m in (2, 3, 4, 5)]
    + [pytest.param(poset_as_category(divisor_poset(360)),
                    mucat.category._poset_source(divisor_poset(360)),
                    id="poset_as_category(divisors of 360)")],
)
def test_source_row_gives_the_handle_of_each_composite(c, source):
    # row(g) is h ↦ g∘h on handles, as a slice's _row(g) is on numbers
    code, entries = source._number.get, dict(c.compose.items())
    assert len(entries) > 300
    for (g, h), k in entries.items():
        assert source._row(code(g))(code(h)) == code(k)
    if isinstance(c.morphisms[0], DmMorphism):  # D_m's shift h + (beta - y)·m with y != 0
        assert sum(g.x != 0 for g, _ in entries) > 100


def test_poset_source_refuses_an_unrelated_pair():
    # its validate rule: leq refuses a non-member itself, and a pair of
    # members that is not related is no morphism
    source = mucat.category._poset_source(divisor_poset(12))
    assert source.factorizations((2, 12))[0] == ((2, 12), (2, 2))
    with pytest.raises(NotComparable, match=r"^2 <= 3 does not hold$"):
        source.factorizations((2, 3))
    with pytest.raises(NotComparable, match=r"^2 or 5 is not an element of this poset$"):
        source.factorizations((2, 5))


def test_factorizations_skip_non_composable_compose_entries():
    # no slice holds such an entry: the constructor rejects it
    base = poset_as_category(chain([0, 1]))
    compose = dict(base.compose)
    compose[((0, 1), (0, 1))] = (0, 1)  # cod (0, 1) is 1, dom (0, 1) is 0
    with pytest.raises(InvalidSlice, match=re.escape("non-composable pair ((0, 1), (0, 1))")):
        CategorySlice(
            base.objects, base.morphisms, base.dom, base.cod,
            compose, base.identities, base.complete,
        )


def test_factorizations_follow_compose_table_order():
    base = poset_as_category(chain([0, 1, 2]))
    flipped = CategorySlice(
        base.objects, base.morphisms, base.dom, base.cod,
        dict(reversed(list(base.compose.items()))), base.identities, base.complete,
    )
    for f in base.morphisms:
        assert flipped.factorizations(f) == base.factorizations(f)[::-1]


@pytest.mark.parametrize(
    "c",
    [cm_slice(3, -4), dm_slice(2, 12), division_category(brandt(3), ["e11", "z"]),
     CategorySlice.from_json(slice_json(dm_slice(3, 9))),
     objects_reversed(poset_as_category(divisor_poset(12)))],
    ids=["cm_slice(3,-4)", "dm_slice(2,12)", "division(brandt3)", "from_json(dm_slice(3,9))",
         "poset(divisors 12), objects reversed"],
)
def test_object_index_reads_match_filters(c):
    absent = object()
    for x in c.objects:
        assert c.morphisms_from(x) == tuple(f for f in c.morphisms if c.dom[f] == x)
        assert c.hom(x, absent) == c.hom(absent, x) == ()
        for y in c.objects:
            assert c.hom(x, y) == tuple(
                f for f in c.morphisms if c.dom[f] == x and c.cod[f] == y
            )
    assert c.morphisms_from(absent) == c.hom(absent, absent) == ()


def test_factorizations_are_deterministic():
    a = cm_slice(2, -3)
    b = cm_slice(2, -3)
    f = CmMorphism(2, 0, 0, -3)
    assert a.factorizations(f) == b.factorizations(f)


# -- convolution -------------------------------------------------------------------

def test_incidence_functions_compare_by_items_in_slice_order():
    c = cm_slice(2, -2)
    values = dict.fromkeys(c.morphisms[::-1], 1)
    assert IncidenceFunction.zeta(c) == IncidenceFunction(c, values) == values
    assert list(IncidenceFunction(c, values)) == list(c.morphisms)
    assert IncidenceFunction.zeta(c) != IncidenceFunction.delta(c)


def test_delta_is_left_identity_for_convolution():
    c = poset_as_category(B2)
    rng = random.Random(7)
    xi = IncidenceFunction(c, {f: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for f in c.morphisms})
    delta = IncidenceFunction.delta(c)
    for f in c.morphisms:
        assert convolve(c, delta, xi, f) == xi[f]
        assert convolve(c, xi, delta, f) == xi[f]


def test_zeta_squared_counts_factorizations():
    c = cm_slice(2, -2)
    zeta = IncidenceFunction.zeta(c)
    f = CmMorphism(1, 0, 0, -2)
    assert convolve(c, zeta, zeta, f) == 4
    for g in c.morphisms:
        assert convolve(c, zeta, zeta, g) == len(c.factorizations(g))


def test_convolve_requires_total_functions():
    c = poset_as_category(chain([0, 1]))
    with pytest.raises(InvalidSlice, match=r"^incidence function is missing morphism \(0, 1\)$"):
        IncidenceFunction(c, {(0, 0): 1})
    with pytest.raises(InvalidSlice, match=r"^incidence function is missing morphism \(0, 1\)$"):
        convolve(c, {(0, 0): 1}, {(0, 0): 1}, (0, 1))


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_convolution_is_associative(data):
    c = poset_as_category(B2)
    scalars = st.fractions(min_value=-3, max_value=3, max_denominator=6)

    def draw_fn(label):
        return IncidenceFunction(
            c, {f: data.draw(scalars, label=f"{label}{f}") for f in c.morphisms}
        )

    xi, eta, theta = draw_fn("xi"), draw_fn("eta"), draw_fn("theta")
    left_inner = IncidenceFunction(c, {f: convolve(c, xi, eta, f) for f in c.morphisms})
    right_inner = IncidenceFunction(c, {f: convolve(c, eta, theta, f) for f in c.morphisms})
    for f in c.morphisms:
        assert convolve(c, left_inner, theta, f) == convolve(c, xi, right_inner, f)


# -- convolution inverse -------------------------------------------------------------

def test_inverse_of_zeta_on_level_category_window():
    c = cm_slice(3, -4)
    mu = moebius_of_slice(c)
    assert mu[CmMorphism(1, 0, 0, -2)] == 1
    assert mu[CmMorphism(0, 1, -1, -2)] == -1


def test_inverse_needs_complete_slice():
    base = poset_as_category(chain([0, 1]))
    partial = CategorySlice(
        base.objects, base.morphisms, base.dom, base.cod,
        base.compose, base.identities, complete=[(0, 0), (1, 1)],
    )
    with pytest.raises(IncompleteSlice):
        moebius_of_slice(partial)


def test_inverse_of_long_chain_in_reversed_order():
    # right factors come after their composites, so the solve nests ~1100 deep
    d = dm_slice(2, 1100)
    c = CategorySlice(
        d.objects, reversed(d.morphisms), d.dom, d.cod, d.compose, d.identities, d.complete
    )
    mu = moebius_of_slice(c)
    assert all(mu[f] == dm_moebius_closed_form(f) for f in c.morphisms)


def test_iso_pair_yields_not_moebius():
    c = iso_pair_category()
    with pytest.raises(NotMoebius):
        moebius_of_slice(c)


def test_idempotent_endomorphism_yields_not_moebius():
    c = idempotent_endo_category()
    with pytest.raises(NotMoebius):
        moebius_of_slice(c)


# -- Möbius function of a slice --------------------------------------------------------

def test_moebius_matches_poset_moebius():
    for p in (chain([0, 1, 2]), B2, divisor_poset(240)):
        c = poset_as_category(p)
        mu = moebius_of_slice(c)
        for x in p.elements:
            for y in p.elements:
                if p.leq(x, y):
                    assert mu[(x, y)] == p.moebius(x, y)


def test_moebius_on_chain_morphism():
    c = poset_as_category(chain([0, 1, 2]))
    assert moebius_of_slice(c)[(0, 2)] == 0


def test_moebius_values_are_integers():
    # by type: a bool passes isinstance(value, int), compares equal to 1 and
    # prints as true in JSON
    cm_window, dm_window = cm_slice(3, -3), dm_slice(3, 8)
    slices = (cm_window, dm_window, poset_as_category(B2),
              division_category(brandt(3), ["e11", "z"]))
    for c in slices:
        assert {type(value) for value in moebius_of_slice(c).values()} == {int}
    for c, morphisms in ((C3, cm_window.morphisms), (D3, dm_window.morphisms),
                         *((c, c.morphisms) for c in slices)):
        for f in morphisms:
            assert type(moebius_at(c, f)) is int
            assert [type(value) for value in _both_routes(c, f)] == [int, int]


def test_moebius_is_one_on_identities():
    c = cm_slice(3, -3)
    mu = moebius_of_slice(c)
    for x in c.objects:
        assert mu[c.identities[x]] == 1


def test_moebius_convolution_identities():
    c = cm_slice(2, -3)
    mu = moebius_of_slice(c)
    zeta = IncidenceFunction.zeta(c)
    delta = IncidenceFunction.delta(c)
    for f in c.morphisms:
        assert convolve(c, mu, zeta, f) == delta[f]
        assert convolve(c, zeta, mu, f) == delta[f]


def test_convolve_rejects_non_total_incidence_function_every_call():
    c = cm_slice(2, -2)
    zeta = IncidenceFunction.zeta(c)
    partial = {f: 1 for f in c.morphisms[1:]}
    with pytest.raises(InvalidSlice, match="missing morphism"):
        IncidenceFunction(c, partial)
    for _ in range(2):
        with pytest.raises(InvalidSlice, match="missing morphism"):
            convolve(c, partial, zeta, c.morphisms[0])


def test_convolve_rechecks_totality_on_another_slice():
    small, large = cm_slice(2, -2), cm_slice(2, -3)
    zeta = IncidenceFunction.zeta(small)
    f = small.morphisms[-1]
    assert convolve(small, zeta, zeta, f) == len(small.factorizations(f))
    with pytest.raises(InvalidSlice, match="missing morphism"):
        convolve(large, zeta, IncidenceFunction.zeta(large), f)


def test_convolve_rejects_non_total_plain_dict():
    c = cm_slice(2, -2)
    partial = {f: 1 for f in c.morphisms[:-1]}
    with pytest.raises(InvalidSlice, match=re.escape(repr(c.morphisms[-1]))):
        convolve(c, IncidenceFunction.zeta(c), partial, c.morphisms[0])


def test_a_function_on_another_numbering_is_read_again():
    c = cm_slice(2, -3)
    copy = _rebuilt(c, c.compose, c.morphisms[::-1])
    rng = random.Random(5)
    xi = IncidenceFunction(c, {f: 1 if c.is_identity(f) else rng.randint(-4, 4) for f in c.morphisms})
    zeta = IncidenceFunction.zeta(c)
    for f in c.morphisms:
        assert convolve(copy, xi, zeta, f) == convolve(c, xi, zeta, f)
        assert convolve(copy, zeta, xi, f) == convolve(c, zeta, xi, f)
    assert moebius_of_slice(copy) == moebius_of_slice(c)
    assert list(moebius_of_slice(copy)) == list(copy.morphisms)


def test_a_slice_with_its_moebius_function_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        c = cm_slice(2, -3)
        mu, zeta = moebius_of_slice(c), IncidenceFunction.zeta(c)
        assert convolve(c, mu, zeta, CmMorphism(1, 0, 0, -2)) == 0
        del c, mu, zeta
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- Möbius inversion ---------------------------------------------------------------------

def test_inversion_check_for_delta_and_zeta():
    c = cm_slice(2, -3)
    assert inversion_round_trip(c, IncidenceFunction.delta(c))
    assert inversion_round_trip(c, IncidenceFunction.zeta(c))


def test_inversion_check_for_random_integer_functions():
    c = cm_slice(2, -5)
    rng = random.Random(20240811)
    for _ in range(25):
        eta = IncidenceFunction(c, {f: rng.randint(-9, 9) for f in c.morphisms})
        assert inversion_round_trip(c, eta)


# -- serialization ---------------------------------------------------------------------------

def test_slice_json_round_trip():
    c = cm_slice(2, -2)
    loaded = CategorySlice.from_json(slice_json(c))
    assert find_slice_violation(loaded) is None
    assert len(loaded.morphisms) == len(c.morphisms)
    assert set(loaded.complete) == set(loaded.morphisms)
    mu = moebius_of_slice(c)
    loaded_mu = moebius_of_slice(loaded)
    for f in c.morphisms:
        assert loaded_mu[str(f)] == mu[f]


@pytest.mark.parametrize(
    "c",
    [cm_slice(2, -3), dm_slice(3, 9), poset_as_category(divisor_poset(12)), iso_pair_category()],
    ids=["cm", "dm", "poset", "iso_pair"],
)
def test_slice_json_round_trip_keeps_compose_and_factorization_order(c):
    loaded = CategorySlice.from_json(slice_json(c))
    assert list(loaded.compose.items()) == [
        ((str(g), str(h)), str(k)) for (g, h), k in c.compose.items()
    ]
    for f in c.morphisms:
        assert loaded.factorizations(str(f)) == tuple(
            (str(g), str(h)) for g, h in c.factorizations(f)
        )


def test_slice_json_rejects_unknown_keys():
    import json as json_module

    data = json_module.loads(slice_json(cm_slice(2, 0)))
    data["extra"] = []
    with pytest.raises(InvalidSlice):
        CategorySlice.from_json(data)


def test_slice_json_rejects_missing_keys():
    import json as json_module

    data = json_module.loads(slice_json(cm_slice(2, 0)))
    del data["identities"]
    with pytest.raises(InvalidSlice):
        CategorySlice.from_json(data)


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda d: d["morphisms"][0].pop("id"), "morphisms"),
        (lambda d: d["compose"].append(5), "compose"),
        (lambda d: d["morphisms"].append("(0, 0)"), "morphisms"),
        (lambda d: d.update(objects=[["X"]]), "objects"),
    ],
    ids=["morphism_without_id", "non_array_compose_row", "morphism_as_string", "unhashable_object"],
)
def test_slice_json_rejects_malformed_records(edit, field):
    import json as json_module

    data = json_module.loads(slice_json(poset_as_category(chain([0, 1]))))
    edit(data)
    with pytest.raises(InvalidSlice, match=f"'{field}'"):
        CategorySlice.from_json(data)


@pytest.mark.parametrize("composite", ["f", "g"], ids=["same_composite", "other_composite"])
def test_slice_json_rejects_a_pair_listed_twice(composite):
    import json as json_module

    data = json_module.loads(slice_json(iso_pair_category()))
    assert ["1Y", "f", "f"] in data["compose"]
    data["compose"].append(["1Y", "f", composite])
    with pytest.raises(InvalidSlice) as caught:
        CategorySlice.from_json(data)
    assert str(caught.value) == "compose lists the pair ('1Y', 'f') twice"


def test_incidence_values_must_be_exact():
    with pytest.raises(TypeError, match="^incidence values must be exact rationals, got float$"):
        IncidenceFunction(poset_as_category(chain([0])), {(0, 0): 0.5})


def test_convolve_checks_a_plain_mappings_values_are_exact():
    c = cm_slice(2, -2)
    with pytest.raises(TypeError, match="^incidence values must be exact rationals, got float$"):
        convolve(c, dict.fromkeys(c.morphisms, 0.5), IncidenceFunction.zeta(c), c.morphisms[-1])
    halves = dict.fromkeys(c.morphisms, Fraction(1, 2))
    assert convolve(c, halves, halves, c.morphisms[0]) == Fraction(1, 4)
