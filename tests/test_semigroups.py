import ast
import random
import re
from itertools import product
from math import comb, factorial

import pytest

from mucat import (
    CategorySlice,
    Factorization,
    FinitePoset,
    IncompleteSlice,
    InvalidSemigroup,
    InvalidSlice,
    InverseSemigroup,
    MucatError,
    NotCombinatorial,
    NotComparable,
    NotOneWay,
    NotTransversal,
    chain,
    check_transversal,
    default_transversal,
    division_category,
    find_semigroup_violation,
    find_slice_violation,
    interval_as_poset,
    is_one_way,
    is_one_way_category,
    lawvere_interval,
    moebius_of_slice,
    moebius_via_idempotent_lattice,
    moebius_via_lawvere,
    moebius_via_quotients,
    poset_as_category,
    quotient_poset,
)

import mucat.category
import mucat.poset
import mucat.semigroups
from mucat.semigroups import _generators, check_combinatorial

from helpers import (
    B2,
    are_isomorphic,
    bf_compose,
    bf_d_classes,
    bf_is_combinatorial,
    bf_natural_order,
    bf_semigroup_violation,
    bf_top,
    bf_triple_fails,
    boolean_lattice,
    brandt,
    brandt_five,
    divisor_poset,
    fork_poset,
    meet_semilattice,
    partial_identities,
    partition_lattice_json,
    partition_moebius,
    poi,
    semigroup_json,
    symmetric_inverse_monoid,
)


def two_element_group():
    # no "one": the corpora below build it at import, where a faulty identity() would
    # stop the collection of this module instead of failing the identity tests
    return InverseSemigroup(["1", "g"], [["1", "g"], ["g", "1"]])


def passes_combinatorial_check(s) -> bool:
    try:
        check_combinatorial(s)
    except NotCombinatorial:
        return False
    return True


def left_zero_two():
    return InverseSemigroup(["a", "b"], [["a", "a"], ["b", "b"]])


def semilattice_times_z2():
    """Direct product of the 2-chain semilattice with the 2-element group."""
    chain2 = meet_semilattice(chain(["f", "e"]))
    elems = [f"{x}{a}" for x in chain2.elements for a in (0, 1)]
    table = [
        [f"{chain2.mul(x, y)}{(a + b) % 2}" for y in chain2.elements for b in (0, 1)]
        for x in chain2.elements
        for a in (0, 1)
    ]
    return InverseSemigroup(elems, table)


SEMILATTICE_CORPUS = [
    meet_semilattice(chain([f"c{k}" for k in range(n)])) for n in range(1, 6)
] + [meet_semilattice(B2), meet_semilattice(boolean_lattice(3)), meet_semilattice(fork_poset())]


# -- validation ----------------------------------------------------------------

def test_semilattices_are_inverse_semigroups():
    for s in SEMILATTICE_CORPUS:
        assert find_semigroup_violation(s) is None


def test_two_element_group_is_inverse_but_not_combinatorial():
    g = two_element_group()
    assert find_semigroup_violation(g) is None
    with pytest.raises(NotCombinatorial, match="^'g' lies in a nontrivial subgroup$"):
        check_combinatorial(g)
    assert repr(g) == "InverseSemigroup(2 elements)"


def test_reads_refuse_a_non_element_by_name():
    g = two_element_group()
    for read in (lambda: g.mul("ghost", "1"), lambda: g.mul("1", "ghost"),
                 lambda: g.inverse("ghost")):
        with pytest.raises(InvalidSemigroup, match="^'ghost' is not an element of the semigroup$"):
            read()
    assert g.mul("g", "g") == g.inverse("1") == "1"


def test_left_zero_semigroup_has_non_unique_inverses():
    s = left_zero_two()
    violation = find_semigroup_violation(s)
    assert violation is not None and "inverse" in violation


def test_non_associative_table_is_reported():
    s = InverseSemigroup(["a", "b"], [["b", "b"], ["a", "a"]])
    violation = find_semigroup_violation(s)
    assert violation is not None and "associativity" in violation


def test_light_test_names_the_triple_it_meets_mid_table():
    # B_9's meet table (subsets of 9 bits, meet = &) with 255 · 254 planted as
    # 510: row 255 now has the most distinct entries after the top, so 255 is
    # the second generator and the first to fail, at a = 255, c = 254
    n = range(512)
    table = [[str(a & b) for b in n] for a in n]
    table[255][254] = "510"
    s = InverseSemigroup([str(a) for a in n], table)
    assert find_semigroup_violation(s) == "associativity fails on ('255', '255', '254')"


def test_table_shape_is_checked():
    with pytest.raises(InvalidSemigroup):
        InverseSemigroup(["a", "b"], [["a", "b"]])
    with pytest.raises(InvalidSemigroup):
        InverseSemigroup(["a"], [["q"]])


def test_declared_identity_is_checked():
    with pytest.raises(InvalidSemigroup, match=r"^'one' 'b' is not an identity$"):
        InverseSemigroup.from_json('{"elements": ["a", "b"], "table": [["a", "a"], ["a", "a"]], '
                                   '"one": "b"}')


def test_constructor_rejects_duplicate_elements_and_a_foreign_one():
    with pytest.raises(InvalidSemigroup, match="^duplicate elements$"):
        InverseSemigroup(["a", "a"], [["a", "a"], ["a", "a"]])
    with pytest.raises(InvalidSemigroup, match=r"^'one' 'q' is not an element$"):
        InverseSemigroup.from_json('{"elements": ["a"], "table": [["a"]], "one": "q"}')


# -- idempotents, D-classes ----------------------------------------------------------

def test_d_classes_of_semilattice_are_singletons():
    s = meet_semilattice(B2)
    assert all(len(cls) == 1 for cls in s.d_classes())


def test_d_classes_of_group_form_one_class():
    assert len(two_element_group().d_classes()) == 1


def test_d_classes_of_product_with_group():
    s = semilattice_times_z2()
    assert find_semigroup_violation(s) is None
    classes = {frozenset(cls) for cls in s.d_classes()}
    assert classes == {frozenset({"f0", "f1"}), frozenset({"e0", "e1"})}
    assert not passes_combinatorial_check(s)


def test_d_classes_of_brandt():
    s = brandt_five()
    assert find_semigroup_violation(s) is None
    assert passes_combinatorial_check(s)
    classes = {frozenset(cls) for cls in s.d_classes()}
    assert classes == {frozenset({"z"}), frozenset({"e11", "e22", "a", "b"})}


# -- agreement with the oracles in helpers ---------------------------------------

def _named(s):
    """The same table read back from JSON, every element named through str()."""
    return InverseSemigroup.from_json(semigroup_json(s))


ORACLE_CORPUS = {
    **{f"boolean B_{k}": meet_semilattice(boolean_lattice(k)) for k in (2, 3, 4)},
    "divisors of 60": meet_semilattice(divisor_poset(60)),
    "semilattice x Z_2": semilattice_times_z2(),
    "two-element group": two_element_group(),
    **{f"Brandt B_{n}": brandt(n) for n in range(2, 7)},
}


@pytest.mark.parametrize("name", list(ORACLE_CORPUS))
def test_structure_matches_oracles(name):
    s = _named(ORACLE_CORPUS[name])
    assert find_semigroup_violation(s) is None
    assert bf_semigroup_violation(s) is None
    assert s.d_classes() == bf_d_classes(s)
    assert passes_combinatorial_check(s) == bf_is_combinatorial(s)


@pytest.mark.parametrize(
    "s",
    [left_zero_two(), InverseSemigroup(["0", "a"], [["0", "0"], ["0", "0"]])],
    ids=["left zero", "null"],
)
def test_inverse_count_violation_matches_oracle(s):
    violation = find_semigroup_violation(s)
    assert "inverse candidates" in violation
    assert violation == bf_semigroup_violation(s)


def _assert_matches_oracle(s, violation):
    """``violation`` is None exactly when the oracle's verdict is, and of the
    same kind; an inverse message equals the oracle's, and a named triple
    fails in the oracle's table (Light's test need not meet the oracle's
    first triple in table order)."""
    expected = bf_semigroup_violation(s)
    assert (violation is None) == (expected is None)
    triple = violation and re.fullmatch(r"associativity fails on (\(.*\))", violation)
    if triple:
        assert expected.startswith("associativity fails")
        assert bf_triple_fails(s, *ast.literal_eval(triple[1]))
    else:
        assert violation == expected


def _all_tables(n):
    """Every binary operation on the n elements a, b, c, ... as a table."""
    elements = "abc"[:n]
    for entries in product(elements, repeat=n * n):
        yield InverseSemigroup(elements, [entries[k:k + n] for k in range(0, n * n, n)])


def test_every_table_of_order_at_most_three_matches_oracle():
    # the oracle still compares idempotents pairwise, which the library leaves
    # to associativity and unique inverses (Howie, Thm 5.1.1); and in each
    # inverse monoid the identity is the only idempotent of its D-class, which
    # check_transversal relies on
    valid = monoids = 0
    for n in (1, 2, 3):
        for s in _all_tables(n):
            violation = find_semigroup_violation(s)
            _assert_matches_oracle(s, violation)
            if violation is None:
                valid += 1
                one = s.identity()
                if one is not None:
                    monoids += 1
                    (units,) = [cls for cls in s.d_classes() if one in cls]
                    assert [e for e in units if e in s.idempotents()] == [one]
    assert 0 < monoids < valid


def _planted_edits(bases, count, seed):
    """Tables of the bases, in turn, with one or two entries overwritten by a
    random element."""
    rng = random.Random(seed)
    for k in range(count):
        base = bases[k % len(bases)]
        names = list(base.elements)
        table = [[base.mul(x, y) for y in names] for x in names]
        for _ in range(rng.choice((1, 2))):
            table[rng.randrange(len(names))][rng.randrange(len(names))] = rng.choice(names)
        yield InverseSemigroup(names, table)


def test_planted_table_edits_match_oracles():
    bases = [
        _named(meet_semilattice(boolean_lattice(3))),
        brandt(3),
        _named(meet_semilattice(divisor_poset(60))),
    ]
    valid = 0
    for s in _planted_edits(bases, 330, seed=11):
        violation = find_semigroup_violation(s)
        _assert_matches_oracle(s, violation)
        if violation is None:
            valid += 1
            assert s.d_classes() == bf_d_classes(s)
            assert passes_combinatorial_check(s) == bf_is_combinatorial(s)
    assert 0 < valid < 330


def test_idempotent_poset_of_semilattice_is_the_poset():
    p = fork_poset()
    assert are_isomorphic(meet_semilattice(p).idempotent_poset(), p)


# -- transversals ---------------------------------------------------------------------

def test_idempotent_poset_is_built_once():
    s = meet_semilattice(B2)
    assert s.idempotent_poset() is s.idempotent_poset()


def test_default_transversal_on_semilattice_is_everything():
    s = meet_semilattice(B2)
    assert set(default_transversal(s)) == set(s.elements)


def test_default_transversal_is_ambiguous_for_brandt():
    with pytest.raises(NotTransversal):
        default_transversal(brandt_five())


def test_explicit_transversal_for_brandt():
    c = division_category(brandt_five(), ["e11", "z"])
    assert find_slice_violation(c) is None
    assert len(c.morphisms) == 3


def test_transversal_must_be_idempotent():
    with pytest.raises(NotTransversal):
        division_category(brandt_five(), ["a", "z"])


def test_transversal_must_hit_each_class_once():
    with pytest.raises(NotTransversal):
        division_category(brandt_five(), ["e11", "e22", "z"])


def _transversal_refusal(s, reps):
    """check_transversal's verdict by definition: the first non-idempotent in
    reps order, else the first D-class, in d_classes() order, that reps does
    not meet exactly once, with its hits in reps order."""
    idempotents = {x for x in s.elements if s.mul(x, x) == x}
    for e in reps:
        if e not in idempotents:
            return f"{e!r} is not an idempotent"
    for cls in s.d_classes():
        hits = [e for e in reps if e in cls]
        if len(hits) != 1:
            return f"D-class {cls!r} meets the transversal in {hits!r}"
    return None


def test_transversal_refusals_name_the_first_fault():
    s = brandt_five()  # D-classes [e11, e22, a, b] and [z]
    cases = {
        # a non-idempotent is named before any D-class is read
        ("e11", "e22", "a"): "'a' is not an idempotent",
        # both classes fail; the first is named, its hits in reps order
        ("z", "e22", "z", "e11"): "D-class ['e11', 'e22', 'a', 'b'] meets the transversal in ['e22', 'e11']",
        ("e22",): "D-class ['z'] meets the transversal in []",
    }
    for reps, message in cases.items():
        assert _transversal_refusal(s, reps) == message
        with pytest.raises(NotTransversal) as refusal:
            check_transversal(s, reps)
        assert str(refusal.value) == message
    rng = random.Random(35)
    for s in (brandt(3), poi(3), meet_semilattice(B2), symmetric_inverse_monoid(2)):
        names = [*s.elements, *s.idempotents() * 3]
        for _ in range(60):
            reps = rng.sample(names, rng.randint(0, 6))
            try:
                assert check_transversal(s, reps) == tuple(reps)
                got = None
            except NotTransversal as exc:
                got = str(exc)
            assert got == _transversal_refusal(s, reps), reps


def test_transversal_must_contain_identity_of_monoid():
    s = meet_semilattice(B2)
    partial = [e for e in s.elements if e != s.identity()]
    with pytest.raises(NotTransversal):
        division_category(s, partial)


@pytest.mark.parametrize("n", [2, 3])
def test_transversal_without_the_identity_is_rejected_on_symmetric_inverse_monoids(n):
    s = symmetric_inverse_monoid(n)
    *reps, one = partial_identities(n)
    assert s.identity() == one
    with pytest.raises(NotTransversal, match=r"meets the transversal in \[\]$"):
        check_transversal(s, reps)
    with pytest.raises(NotTransversal, match=r"meets the transversal in \[\]$"):
        division_category(s, reps)


def test_light_filter_with_few_generators_matches_oracle():
    # B_5 has 6 generators for 32 elements, POI_4 8 for 70, Brandt B_4 7 for 17
    bases = [_named(meet_semilattice(boolean_lattice(5))), _named(poi(4)), brandt(4)]
    assert [len(_generators(s._table)) for s in bases] == [6, 8, 7]
    failed = 0
    for s in [*bases, *_planted_edits(bases, 45, seed=15)]:
        violation = find_semigroup_violation(s)
        _assert_matches_oracle(s, violation)
        failed += violation is not None and "associativity" in violation
    assert failed > 40


def _closure(s, gens) -> set:
    """Every product of the generators, by squaring the set until it stops growing."""
    reached = set(gens)
    while more := {s.mul(x, y) for x in reached for y in reached} - reached:
        reached |= more
    return reached


GENERATED_CORPUS = {
    **{f"semilattice {k}": s for k, s in enumerate(SEMILATTICE_CORPUS)},
    **ORACLE_CORPUS,
    **{f"POI_{n}": poi(n) for n in (2, 3, 4)},
    "I_3": symmetric_inverse_monoid(3),
    "left zero": left_zero_two(),
}


@pytest.mark.parametrize("name", list(GENERATED_CORPUS))
def test_generators_close_to_the_whole_table(name):
    s = GENERATED_CORPUS[name]
    gens = [s.elements[g] for g in _generators(s._table)]
    assert len(set(gens)) == len(gens)
    assert _closure(s, gens) == set(s.elements)


@pytest.mark.parametrize("k", range(1, 8))
def test_boolean_semilattice_is_generated_by_its_top_and_coatoms(k):
    s = meet_semilattice(boolean_lattice(k))
    top = frozenset(range(1, k + 1))
    assert [s.elements[g] for g in _generators(s._table)] == [top] + [
        x for x in s.elements if len(x) == k - 1
    ]


def test_poi_6_validates_at_scale():
    assert find_semigroup_violation(poi(6)) is None


def test_division_category_computes_d_classes_once(monkeypatch):
    calls = []
    d_classes = InverseSemigroup.d_classes
    monkeypatch.setattr(
        InverseSemigroup, "d_classes", lambda self: calls.append(self) or d_classes(self)
    )
    division_category(meet_semilattice(B2))
    assert len(calls) == 1


# -- division categories -----------------------------------------------------------------

def test_chain_division_category_hom_sets():
    s = meet_semilattice(chain(["f", "e"]))
    c = division_category(s)
    assert c.hom("e", "e") == (("e", "e"),)
    assert c.hom("e", "f") == (("f", "e"),)
    assert c.hom("f", "f") == (("f", "f"),)
    assert c.hom("f", "e") == ()


def test_division_category_identities():
    s = meet_semilattice(B2)
    c = division_category(s)
    for e in c.objects:
        assert c.identities[e] == (e, e)


def test_semilattice_division_category_is_its_poset():
    p = B2
    s = meet_semilattice(p)
    c = division_category(s)
    assert find_slice_violation(c) is None
    related = [(x, y) for x in p.elements for y in p.elements if p.leq(x, y)]
    assert len(c.morphisms) == len(related)
    mu = moebius_of_slice(c)
    for x in p.elements:
        for y in p.elements:
            if p.leq(x, y):
                assert mu[(x, y)] == p.moebius(x, y)


def test_division_category_passes_validation_across_corpus():
    for s in SEMILATTICE_CORPUS:
        assert find_slice_violation(division_category(s)) is None


ORDER_CORPUS = {  # factories, so that a check run in one test marks no semigroup of another
    "boolean B_4": lambda: (meet_semilattice(boolean_lattice(4)), None),
    "divisors of 60": lambda: (meet_semilattice(divisor_poset(60)), None),
    "POI_4": lambda: (poi(4), partial_identities(4)),
    "Brandt B_3": lambda: (brandt(3), ["e11", "z"]),
    "partitions Π_4": lambda: (InverseSemigroup.from_json(partition_lattice_json(4)), None),
}


def order_corpus(name, check):
    """(s, transversal) for a fresh semigroup s of ORDER_CORPUS[name], checked
    iff ``check``, so that its division categories are marked iff ``check``."""
    s, transversal = ORDER_CORPUS[name]()
    if check:
        assert find_semigroup_violation(s) is None
    assert s._associative is check
    return s, transversal


@pytest.mark.parametrize("name", list(ORDER_CORPUS))
def test_division_category_is_the_definition_listed_by_decreasing_ideal(name):
    s, transversal = order_corpus(name, check=False)
    c = division_category(s, transversal)
    source = {x: s.mul(s.inverse(x), x) for x in s.elements}
    target = {x: s.mul(x, s.inverse(x)) for x in s.elements}
    ideal = {x: len({s.mul(source[x], y) for y in s.elements}) for x in s.elements}
    below = bf_natural_order(s)
    by_object = [
        [(x, e) for x in s.elements if target[x] in c.objects and (source[x], e) in below]
        for e in c.objects
    ]
    morphisms = [f for fs in by_object for f in fs]
    assert set(c.morphisms) == set(morphisms)
    # objects by decreasing |eS|, ties in transversal order
    reps = default_transversal(s) if transversal is None else transversal
    assert c.objects == tuple(sorted(reps, key=lambda e: -ideal[e]))
    for a in c.objects:
        for b in c.objects:
            assert set(c.hom(a, b)) == {(x, e) for x, e in morphisms if e == a and target[x] == b}
    table = bf_compose(c, lambda g, f: (s.mul(g[0], f[0]), f[1]))
    assert set(c.compose.items()) == set(table.items())
    # each object's morphisms by decreasing |x⁻¹x·S|, ties in element order
    assert c.morphisms == tuple(f for fs in by_object for f in sorted(fs, key=lambda f: -ideal[f[0]]))


@pytest.mark.parametrize("name", list(ORDER_CORPUS))
def test_compose_view_of_an_unread_division_category_is_its_definition(name):
    # Mapping's items() on a checked division category whose rows were never
    # built: each entry once, in table order (composite major, as listed)
    s, transversal = order_corpus(name, check=True)
    c = division_category(s, transversal)
    assert c._after == []
    table = bf_compose(c, lambda g, f: (s.mul(g[0], f[0]), f[1]))
    items = list(c.compose.items())
    assert items == [((g, h), f) for f in c.morphisms for g, h in c.factorizations(f)]
    assert dict(items) == table and len(c.compose) == len(table)
    misses = [(f, g) for (g, f) in table if (f, g) not in table]
    assert misses  # entries read the other way round that the table does not hold
    for key in [*table, *misses, ("no", "such"), (c.morphisms[0],), "x", None]:
        assert (key in c.compose) is (key in table), key


@pytest.mark.parametrize(
    "name, check",
    [pytest.param(name, check, id=f"marked {name}" if check else name)
     for check in (False, True) for name in ORDER_CORPUS],
)
def test_interval_posets_of_division_categories_need_no_relabelling(name, check, monkeypatch):
    c = division_category(*order_corpus(name, check))
    assert c._associative is check

    def refuse(masks, order):
        raise AssertionError("factorizations are not listed in a linear extension")

    monkeypatch.setattr(mucat.poset, "_relabel", refuse)
    for f in c.morphisms:
        iv = lawvere_interval(c, f)
        assert interval_as_poset(iv).elements == iv.objects


@pytest.mark.parametrize("name", list(ORDER_CORPUS))
def test_division_categories_pass_the_one_way_shortcut(name, monkeypatch):
    # the objects come in a linear extension, so the masks are never transposed
    c = division_category(*order_corpus(name, check=False))

    def refuse(masks):
        raise AssertionError("objects are not listed in a linear extension")

    monkeypatch.setattr(mucat.category, "_transpose", refuse)
    assert is_one_way_category(c)


def test_group_division_category_is_returned_but_not_moebius():
    g = two_element_group()
    c = division_category(g)
    assert find_slice_violation(c) is None
    assert not all(is_one_way(lawvere_interval(c, f)) for f in c.morphisms)
    with pytest.raises(NotCombinatorial):
        moebius_via_idempotent_lattice(g, ("g", "1"))


def test_division_category_of_a_table_that_is_not_associative_names_two_morphisms():
    # a composite (t, f)·(x, e) = (tx, e) that is not a morphism refuses the
    # table in one line; the CLI's Light's test names its own triple first
    s = InverseSemigroup("abc", [["a", "a", "a"], ["a", "b", "a"], ["b", "b", "c"]])
    with pytest.raises(InvalidSemigroup) as refused:
        division_category(s)
    assert str(refused.value) == "('a', 'b') · ('b', 'c') is not a morphism: not associative"
    assert find_semigroup_violation(s) == "associativity fails on ('c', 'b', 'a')"


def test_every_three_element_table_with_unique_inverses_builds_or_is_refused():
    outcomes = {"built": 0, "refused": 0, "composite": 0}
    for s in _all_tables(3):
        try:
            s._inverses()
        except InvalidSemigroup:
            continue
        try:
            division_category(s)
        except MucatError as exc:
            outcomes["refused"] += 1
            outcomes["composite"] += str(exc).endswith("is not a morphism: not associative")
        else:
            outcomes["built"] += 1
    assert min(outcomes.values()) > 0


# -- quotient posets and the two poset rules -----------------------------------------------

def test_quotient_poset_of_chain():
    s = meet_semilattice(chain(["f", "e"]))
    c = division_category(s)
    q = quotient_poset(c, "e")
    assert set(q.elements) == {("e", "e"), ("f", "e")}
    assert q.leq(("f", "e"), ("e", "e"))
    assert bf_top(q) == ("e", "e")


def test_quotient_poset_always_has_identity_top():
    for s in SEMILATTICE_CORPUS:
        c = division_category(s)
        for e in c.objects:
            assert bf_top(quotient_poset(c, e)) == (e, e)


def test_quotient_poset_of_boolean_top_is_boolean():
    s = meet_semilattice(B2)
    c = division_category(s)
    top = s.identity()
    assert are_isomorphic(quotient_poset(c, top), B2)


def test_quotient_poset_is_cached_and_matches_factor_through_order():
    """s <= t iff u∘t = s for some u, read off the all-pairs compose oracle."""
    corpus = [(s, None) for s in SEMILATTICE_CORPUS] + [
        (meet_semilattice(divisor_poset(60)), None),
        (brandt_five(), ["e11", "z"]),
        (poi(4), partial_identities(4)),
    ]
    for s, transversal in corpus:
        c = division_category(s, transversal)
        table = bf_compose(c, lambda g, f: (s.mul(g[0], f[0]), f[1]))
        for e in c.objects:
            q = quotient_poset(c, e)
            assert quotient_poset(c, e) is q
            assert q.elements == c.morphisms_from(e)[::-1]  # top last
            for sf in q.elements:
                for tf in q.elements:
                    below = any(k == sf for (_, t), k in table.items() if t == tf)
                    assert q.leq(sf, tf) == below


def test_quotient_poset_needs_one_way_category():
    c = division_category(two_element_group())
    assert not is_one_way_category(c)
    with pytest.raises(NotOneWay):
        quotient_poset(c, "1")


def test_rule_values_on_chain():
    s = meet_semilattice(chain(["f", "e"]))
    c = division_category(s)
    assert moebius_via_quotients(c, ("e", "e")) == 1
    assert moebius_via_quotients(c, ("f", "e")) == -1
    assert moebius_via_idempotent_lattice(s, ("f", "e")) == -1


def test_idempotent_rule_checks_e_s_e_against_the_idempotents_below_e():
    # unique inverses, but (c b) c != c (b c): E(bSb) is not the down-set of b
    s = InverseSemigroup(["a", "b", "c"], [["a", "a", "a"], ["a", "b", "a"], ["a", "c", "c"]])
    assert find_semigroup_violation(s).startswith("associativity")
    with pytest.raises(InvalidSemigroup, match=r"E\(eSe\) differs"):
        moebius_via_idempotent_lattice(s, ("b", "b"))


def test_idempotent_poset_checks_e_s_e_against_the_idempotents_below_e():
    s = InverseSemigroup(["a", "b", "c"], [["a", "a", "a"], ["a", "b", "a"], ["a", "c", "c"]])
    with pytest.raises(InvalidSemigroup, match=r"E\(eSe\) differs .* below e = 'b'$"):
        s.idempotent_poset()


def test_idempotent_rule_lists_the_idempotents_once_per_semigroup(monkeypatch):
    s = meet_semilattice(boolean_lattice(3))
    c = division_category(s)
    calls = []
    idempotents = InverseSemigroup._idempotents
    monkeypatch.setattr(
        InverseSemigroup, "_idempotents", lambda self: calls.append(self) or idempotents(self)
    )
    assert len(c.morphisms) == 27
    for morphism in c.morphisms:
        moebius_via_idempotent_lattice(s, morphism)
    assert len(calls) <= 1


def test_idempotent_rule_names_an_e_that_is_not_idempotent():
    with pytest.raises(InvalidSemigroup, match=r"^'a' is not an idempotent$"):
        moebius_via_idempotent_lattice(brandt_five(), ("z", "a"))


@pytest.mark.parametrize("pair", [("nope", "e11"), ("b", "e22")])
def test_idempotent_rule_names_a_pair_that_is_not_a_morphism(pair):
    # 'nope' is no element; b⁻¹b = e11 is not below e22
    message = rf"^{re.escape(repr(pair))} is not a morphism of the division category$"
    with pytest.raises(InvalidSemigroup, match=message):
        moebius_via_idempotent_lattice(brandt_five(), pair)


@pytest.mark.parametrize("pair", [("nope", "e11"), ("b", "e22")])
def test_quotient_rule_names_a_pair_that_is_not_a_morphism(pair):
    c = division_category(brandt_five(), ["e11", "z"])
    message = rf"^{re.escape(repr(pair))} is not a morphism of the division category$"
    with pytest.raises(InvalidSlice, match=message):
        moebius_via_quotients(c, pair)


@pytest.mark.parametrize(
    "s, member",
    [(two_element_group(), "g"), (semilattice_times_z2(), "f1")],
    ids=["group", "semilattice-x-z2"],
)
def test_idempotent_rule_refuses_a_non_combinatorial_semigroup(s, member):
    message = rf"^'{member}' lies in a nontrivial subgroup$"
    with pytest.raises(NotCombinatorial, match=message):
        check_combinatorial(s)
    for x in s.elements:  # every idempotent e, whether or not (x, e) is a morphism
        for e in s.idempotents():
            with pytest.raises(NotCombinatorial, match=message):
                moebius_via_idempotent_lattice(s, (x, e))
    assert s._subgroup_members() is s._subgroup_members()  # searched once


def test_rule_values_on_boolean_lattice():
    s = meet_semilattice(B2)
    c = division_category(s)
    bottom, top = frozenset(), frozenset({1, 2})
    assert moebius_via_quotients(c, (bottom, top)) == 1
    assert moebius_via_idempotent_lattice(s, (bottom, top)) == 1


def test_all_rules_agree_across_corpus():
    for s in SEMILATTICE_CORPUS + [brandt_five()]:
        transversal = None
        if s.elements == brandt_five().elements:
            transversal = ["e11", "z"]
        c = division_category(s, transversal)
        mu = moebius_of_slice(c)
        for morphism in c.morphisms:
            quot = moebius_via_quotients(c, morphism)
            idem = moebius_via_idempotent_lattice(s, morphism)
            law = moebius_via_lawvere(c, morphism)
            assert quot == idem == law == mu[morphism]


@pytest.mark.parametrize("n, morphisms", [(2, 7), (3, 15), (4, 31), (5, 63)])
def test_poi_rules_give_the_sign_of_the_rank_difference(n, morphisms):
    # the idempotents below e are the partial identities on subsets of dom e,
    # a boolean lattice, so mu(x, e) = (-1)^(|dom e| - |dom x|)
    s = poi(n)
    assert len(s) == comb(2 * n, n)
    assert find_semigroup_violation(s) is None
    c = division_category(s, partial_identities(n))
    assert len(c.morphisms) == morphisms
    for x, e in c.morphisms:
        expected = (-1) ** (e.count(">") - x.count(">"))
        quot = moebius_via_quotients(c, (x, e))
        idem = moebius_via_idempotent_lattice(s, (x, e))
        law = moebius_via_lawvere(c, (x, e))
        assert (quot, idem, law) == (expected,) * 3, (x, e)


@pytest.mark.parametrize("n, morphisms", [(3, 12), (4, 60), (5, 358), (6, 2471)])
def test_partition_lattice_rules_give_rotas_closed_form(n, morphisms):
    # Π_3 is M_3, the first interval here that is not distributive, and
    # |μ| reaches (n - 1)! = 120 on Π_6
    s = InverseSemigroup.from_json(partition_lattice_json(n))
    assert find_semigroup_violation(s) is None
    c = division_category(s)
    assert len(c.morphisms) == morphisms
    mu = moebius_of_slice(c)
    for x, e in c.morphisms:
        expected = partition_moebius(x, e)
        quot = moebius_via_quotients(c, (x, e))
        idem = moebius_via_idempotent_lattice(s, (x, e))
        law = moebius_via_lawvere(c, (x, e))
        assert (quot, idem, law, mu[x, e]) == (expected,) * 4, (x, e)
    bottom, top = "|".join(map(str, range(n))), "".join(map(str, range(n)))
    assert mu[bottom, top] == (-1) ** (n - 1) * factorial(n - 1)


def test_transversal_choice_comparison_is_recorded():
    # Not asserted as a theorem: compare the two Brandt transversals and report.
    s = brandt_five()
    values = {}
    for reps in (("e11", "z"), ("e22", "z")):
        c = division_category(s, reps)
        mu = moebius_of_slice(c)
        values[reps] = sorted(mu.values())
    print(f"transversal mu multisets: {values}")
    assert set(values) == {("e11", "z"), ("e22", "z")}


# -- the rules by position against the rules by name ----------------------------------------

def _outcome(rule, *args):
    """rule(*args), or the type and message of the error it raises."""
    try:
        return rule(*args)
    except MucatError as exc:
        return type(exc), str(exc)


def _rule_one_by_name(c, f):
    """Rule one on a Q(e) built from ``morphisms_from`` and ``factorizations``
    by name, every poset law checked."""
    if f not in c.dom:
        raise InvalidSlice(f"{f!r} is not a morphism of the division category")
    e = c.dom[f]
    carrier = c.morphisms_from(e)[::-1]
    q = FinitePoset(carrier, leq=[(s, t) for s in carrier for _, t in c.factorizations(s)])
    return q.moebius(f, c.identities[e])


def _rule_two_by_name(s, morphism):
    """Rule two through the public calls: ``mul``, ``inverse``, ``leq``, ``moebius``."""
    x, e = morphism
    poset = s.idempotent_poset()
    if e not in poset:
        raise InvalidSemigroup(f"{e!r} is not an idempotent")
    check_combinatorial(s)
    if (x not in s.elements or (source := s.mul(s.inverse(x), x)) not in poset
            or not poset.leq(source, e)):
        raise InvalidSemigroup(f"({x!r}, {e!r}) is not a morphism of the division category")
    return poset.moebius(source, e)


def _lawvere_by_name(c, f):
    """The Lawvere rule on the staged interval poset, read by factorization."""
    poset = interval_as_poset(lawvere_interval(c, f))
    bottom = Factorization(f, c.identities[c.dom[f]], f)
    return poset.moebius(bottom, Factorization(c.identities[c.cod[f]], f, f))


RULE_CORPUS = {
    **{f"{'marked' if check else 'unmarked'} {name}":
       (lambda name=name, check=check: order_corpus(name, check))
       for check in (True, False) for name in ORDER_CORPUS},
    "Brandt B_5": lambda: (brandt_five(), ["e11", "z"]),
}


@pytest.mark.parametrize("name", list(RULE_CORPUS))
def test_rules_by_position_match_the_rules_by_name(name):
    s, transversal = RULE_CORPUS[name]()
    c = division_category(s, transversal)
    reference = division_category(*RULE_CORPUS[name]())  # its own caches, read by name
    for e in c.objects:
        q, expected = quotient_poset(c, e), quotient_poset(reference, e)
        assert q.elements == expected.elements == reference.morphisms_from(e)[::-1]
        assert [[q.leq(a, b) for b in q.elements] for a in q.elements] == [
            [expected.leq(a, b) for b in q.elements] for a in q.elements]
    for f in c.morphisms:
        assert moebius_via_quotients(c, f) == _rule_one_by_name(reference, f), f
        assert moebius_via_lawvere(c, f) == _lawvere_by_name(reference, f), f
    # rule two on every pair of names, morphisms or not, and names outside s
    names = [*s.elements, "nope"]
    for morphism in product(names, names):
        assert (_outcome(moebius_via_idempotent_lattice, s, morphism)
                == _outcome(_rule_two_by_name, s, morphism)), morphism
        if morphism not in c.dom:
            assert _outcome(moebius_via_quotients, c, morphism) == (
                InvalidSlice, f"{morphism!r} is not a morphism of the division category")


# unique inverses on a table that is not associative: b⁻¹b and c⁻¹c are no idempotents
NOT_ASSOCIATIVE = [["a", "a", "a"], ["a", "a", "c"], ["a", "b", "a"]]


# the rule's other refusals, each with its exact message, are tested above
@pytest.mark.parametrize("make, morphism, error, message", [
    (lambda: InverseSemigroup(["a", "b", "c"], [["a", "a", "a"], ["a", "b", "a"], ["a", "c", "c"]]),
     ("b", "b"), InvalidSemigroup, "E(eSe) differs from the idempotents below e = 'b'"),
    (lambda: InverseSemigroup("abc", NOT_ASSOCIATIVE), ("b", "a"), InvalidSemigroup,
     "('b', 'a') is not a morphism of the division category"),
], ids=["E(eSe)", "x^-1 x no idempotent"])
def test_idempotent_rule_refuses_with_its_exact_message(make, morphism, error, message):
    s = make()
    assert _outcome(moebius_via_idempotent_lattice, s, morphism) == (error, message)
    assert _outcome(_rule_two_by_name, make(), morphism) == (error, message)


def test_quotient_rule_reads_an_object_named_none():
    c = poset_as_category(chain([None, 1]))  # objects None and 1
    assert c.objects == (None, 1)
    assert [moebius_via_quotients(c, f) for f in c.morphisms] == [1, -1, 1]
    for f in [None, (1, None), "ghost"]:
        assert _outcome(moebius_via_quotients, c, f) == (
            InvalidSlice, f"{f!r} is not a morphism of the division category")


def _partial_b2():
    """B_2's category with the morphisms into the top not marked complete."""
    base = poset_as_category(B2)
    top = base.objects[-1]
    complete = [f for f in base.morphisms if f[1] != top]
    return CategorySlice(base.objects, base.morphisms, base.dom, base.cod, base.compose,
                         base.identities, complete), top


def test_handles_on_a_partial_slice_refuse_as_before():
    c, top = _partial_b2()
    bottom, atom = c.objects[0], c.objects[1]
    ghost = (top, bottom)
    for read in (c._handle, c._closed_handle):
        assert _outcome(read, ghost) == (InvalidSlice, f"{ghost!r} is not a morphism of the slice")
        assert _outcome(read, (bottom, top)) == (
            IncompleteSlice, f"morphism {(bottom, top)!r} is not marked factorization-complete")
        assert read((bottom, atom)) == c._number[bottom, atom]
    # (bottom, atom) is complete, and so is each of its factors
    assert c._closed_handle((bottom, atom)) == c._number[bottom, atom]
    # rule one refuses Q(bottom), whose carrier holds incomplete morphisms, as the handle does
    first = c.morphisms_from(bottom)[::-1]
    incomplete = next(f for f in first if f not in c.complete)
    assert _outcome(quotient_poset, c, bottom) == (
        IncompleteSlice, f"morphism {incomplete!r} is not marked factorization-complete")


def test_closed_handle_names_an_incomplete_factor():
    base = poset_as_category(chain([0, 1, 2]))
    c = CategorySlice(base.objects, base.morphisms, base.dom, base.cod, base.compose,
                      base.identities, [f for f in base.morphisms if f != (1, 2)])
    assert c._handle((0, 2)) == c._number[0, 2]
    assert _outcome(c._closed_handle, (0, 2)) == (
        IncompleteSlice, "factor (1, 2) of (0, 2) is not marked factorization-complete")


def test_d_classes_are_found_once_per_semigroup(monkeypatch):
    found, real = [], mucat.semigroups._d_class_keys
    monkeypatch.setattr(mucat.semigroups, "_d_class_keys",
                        lambda *args: found.append(args) or real(*args))
    s = meet_semilattice(divisor_poset(60))
    expected = bf_d_classes(s)
    reps = default_transversal(s)
    division_category(s, reps)  # checks the transversal against the classes again
    assert len(found) == 1
    classes = s.d_classes()
    assert sorted(map(sorted, classes)) == sorted(map(sorted, expected))
    classes[0].append("junk")  # a caller's lists are its own
    assert s.d_classes() != classes and len(found) == 1
    t = brandt_five()
    division_category(t, check_transversal(t, ["e11", "z"]))
    assert len(found) == 2


# -- serialization ----------------------------------------------------------------------------

def test_semigroup_json_round_trip():
    s = meet_semilattice(fork_poset())
    restored = InverseSemigroup.from_json(semigroup_json(s))
    assert restored.elements == s.elements
    for x in s.elements:
        for y in s.elements:
            assert restored.mul(x, y) == s.mul(x, y)


def test_identity_is_detected_once():
    # a meet semilattice's identity is its poset's top; the fork has none
    for p in (B2, boolean_lattice(3), fork_poset(), chain(["f", "e"])):
        s = meet_semilattice(p)
        assert s.identity() == bf_top(p)


def test_identity_is_the_element_every_product_keeps():
    # a brute-force search through mul; of the corpus only Brandt B_3 has none
    missing = []
    for name, make in ORDER_CORPUS.items():
        s = make()[0]
        one = next((e for e in s.elements
                    if all(s.mul(e, x) == x == s.mul(x, e) for x in s.elements)), None)
        assert s.identity() == one, name
        if one is None:
            missing.append(name)
    assert missing == ["Brandt B_3"]


def test_semigroup_json_rejects_unknown_keys():
    with pytest.raises(InvalidSemigroup):
        InverseSemigroup.from_json('{"elements": ["a"], "table": [["a"]], "x": 1}')


def test_semigroup_json_requires_table():
    with pytest.raises(InvalidSemigroup):
        InverseSemigroup.from_json('{"elements": ["a"]}')


@pytest.mark.parametrize(
    "data",
    [
        {"elements": "a", "table": [["a"]]},
        {"elements": ["a"], "table": "a"},
        {"elements": ["a"], "table": ["a"]},
        {"elements": [["a"]], "table": [[["a"]]]},
        {"elements": ["a"], "table": [[["a"]]]},
        {"elements": [1], "table": [[1]]},
        {"elements": ["a"], "table": [["a"]], "one": ["a"]},
    ],
)
def test_semigroup_json_rejects_malformed_shapes(data):
    with pytest.raises(InvalidSemigroup):
        InverseSemigroup.from_json(data)
