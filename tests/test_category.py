import random
import re
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucat import (
    CategorySlice,
    CmMorphism,
    FactorizationSource,
    DmMorphism,
    IncidenceFunction,
    IncompleteSlice,
    InvalidSlice,
    InverseSemigroup,
    NotInvertible,
    NotMoebius,
    chain,
    cm_identity,
    cm_moebius_closed_form,
    cm_slice,
    cm_source,
    convolution_inverse,
    convolve,
    division_category,
    dm_moebius_closed_form,
    dm_identity,
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
from mucat.cm_dm import _cm_composite, _cm_factorizations, _dm_composite, _dm_factorizations
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
    opposite,
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
    """``_adopt`` on the compose table keyed by morphism numbers, as the
    builders hand it; a builder numbers only morphisms it lists, so no entry
    can name an unknown one."""
    number = {f: k for k, f in enumerate(morphisms)}
    table = {(number[g], number[h]): number[k] for (g, h), k in compose.items()}
    return CategorySlice.__new__(CategorySlice)._adopt(
        objects, morphisms, dom, cod, table, identities, complete)


@pytest.mark.parametrize("compose, identities, message", BAD_ARROW_TABLES, ids=BAD_ARROW_IDS)
def test_table_adopting_builder_checks_every_entry_and_identity(compose, identities, message):
    with pytest.raises(InvalidSlice) as caught:
        _arrow_slice(compose, identities, _numbered_tables)
    assert str(caught.value) == message


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
        assert from_view.to_json() == from_copy.to_json()
        assert (from_view._table, from_view._facts) == (from_copy._table, from_copy._facts)
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
    return factor_slice(window, lambda k: _dm_factorizations(m, k), DmMorphism.source,
                        lambda k: k.target(m), dm_identity)


REVERSED_DM_WINDOW = dm_slice(2, 8).morphisms[::-1]


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
    "c, composite, right_factor_major, reversed_window",
    [pytest.param(c, rule, name.startswith("division"), name.startswith("reversed"), id=name)
     for name, c, rule in _builder_corpus()],
)
def test_builders_match_all_pairs_compose_oracle(c, composite, right_factor_major, reversed_window):
    expected = bf_compose(c, composite)
    assert c.compose == expected
    for f in c.morphisms:
        listed = tuple(pair for pair, k in expected.items() if k == f)
        # the enumerator lists right factors in dm_slice's order, the reverse of this window's
        assert c.factorizations(f) == (listed[::-1] if reversed_window else listed)
    if right_factor_major:
        assert list(c.compose.items()) == list(expected.items())
    else:  # built by factor_slice: each morphism's factorizations in turn
        assert list(c.compose.items()) == [(p, k) for k in c.morphisms for p in c.factorizations(k)]


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
        factor_slice([f], lambda k: _cm_factorizations(2, k), CmMorphism.source,
                     lambda k: k.target(2), cm_identity)
    with pytest.raises(InvalidSlice, match="^duplicate morphisms$"):
        _dm_window(2, [*REVERSED_DM_WINDOW, REVERSED_DM_WINDOW[3]])


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

def _dm3_source(factorizations=None, identity=dm_identity, dom=DmMorphism.source,
                cod=lambda k: k.target(3)):
    """D_3 as a source whose enumerator, identity or endpoint rules may be replaced."""
    return FactorizationSource(
        factorizations or (lambda k: _dm_factorizations(3, k)), dom, cod, identity,
        _dm_composite, lambda f: validate_dm_morphism(3, f),
    )


def _counted_dm3_source():
    """D_3 as a source that counts its endpoint reads and the lists it
    enumerates, in all and of each morphism k under ("lists", k)."""
    count = Counter()

    def counted(rule, key):
        def read(k):
            count[key] += 1
            return rule(k)
        return read

    def listed(k):
        count["lists", k] += 1
        return _dm_factorizations(3, k)

    source = _dm3_source(counted(listed, "lists"),
                         dom=counted(DmMorphism.source, "endpoints"),
                         cod=counted(lambda k: k.target(3), "endpoints"))
    return source, count


@pytest.mark.parametrize(
    "first, second",
    [(moebius_via_lawvere, moebius_at), (moebius_at, moebius_via_lawvere)],
    ids=["lawvere_then_recursion", "recursion_then_lawvere"],
)
def test_source_checks_every_list_it_hands_out(first, second):
    f = DmMorphism(13, 1)
    read = {f, *(h for _, h in _dm_factorizations(3, f))}  # the lists both routes read
    alone, alone_count = _counted_dm3_source()
    shared, count = _counted_dm3_source()
    assert second(alone, f) == first(shared, f) == 0
    count.clear()
    assert second(shared, f) == 0
    assert count["lists"] == alone_count["lists"] >= len(read)  # enumerated again, not kept
    assert count["lists", f] == alone_count["lists", f] == 1  # f's list once per call
    assert count["endpoints"] == alone_count["endpoints"]  # and checked again


def _counted_cm3_source():
    """C_3 as a source that counts the lists it enumerates, of each morphism k under ("lists", k)."""
    count = Counter()

    def listed(k):
        count["lists", k] += 1
        return _cm_factorizations(3, k)

    return FactorizationSource(listed, CmMorphism.source, lambda k: k.target(3), cm_identity,
                               _cm_composite, lambda f: validate_cm_morphism(3, f)), count


def _per_list(count) -> dict:
    """{k: how many times k's list was enumerated} from a counted source's count."""
    return {key[1]: n for key, n in count.items() if isinstance(key, tuple)}


@pytest.mark.parametrize(
    "counted, plain, f",
    [(_counted_dm3_source, dm_source(3), DmMorphism(13, 1)),
     (_counted_cm3_source, cm_source(3), CmMorphism(3, 0, 0, -6))],
    ids=["D_3", "C_3"],
)
def test_shared_pass_enumerates_each_list_once(counted, plain, f):
    read = {f, *(h for _, h in plain.factorizations(f))}  # the lists both routes read
    in_turn, turn_count = counted()
    shared, count = counted()
    assert _both_routes(shared, f, {}) == (moebius_via_lawvere(in_turn, f), moebius_at(in_turn, f))
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
    k = DmMorphism(4, 1)

    def one_bad_pair(f):
        pairs = _dm_factorizations(3, f)
        return [bad, *pairs[1:]] if f == k else pairs

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
    reads = Counter()

    def bad_on_second_read(f):
        pairs = _dm_factorizations(3, f)
        reads[f] += 1
        return [bad, *pairs[1:]] if f == k and reads[f] == 2 else pairs

    source = _dm3_source(bad_on_second_read)
    assert source.factorizations(k) == _dm_factorizations(3, k)
    with pytest.raises(InvalidSlice, match=f"^{re.escape(message)}$"):
        source.factorizations(k)
    assert source.factorizations(k) == _dm_factorizations(3, k)


def _wrong_identity_source():
    """D_3 as a source whose identity of object 1 is (2, 1), from 1 to 2."""
    return _dm3_source(identity=lambda x: DmMorphism(2, 1) if x == 1 else dm_identity(x))


def test_source_checks_each_identity_as_the_constructor_does():
    message = "identity of 1 has endpoints (1, 2)"
    assert _constructor_message(identities={1: DmMorphism(2, 1)}) == message
    source = _wrong_identity_source()
    with pytest.raises(InvalidSlice, match=f"^{re.escape(message)}$"):
        source.identities[1]
    for read in (moebius_at, moebius_via_lawvere):
        with pytest.raises(InvalidSlice, match=f"^{re.escape(message)}$"):
            read(source, DmMorphism(4, 1))  # an endomorphism of 1
    with pytest.raises(InvalidSlice, match=f"^{re.escape(message)}$"):
        moebius_at(source, DmMorphism(3, 0))  # on 0, but 1_1 is the unit of its right factor (1, 0)
    assert moebius_via_lawvere(source, DmMorphism(3, 0)) == 0  # reads only 1_0
    assert moebius_at(source, DmMorphism(3, 2)) == -1  # right factors end at 2 and 0


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
    [cm_slice(3, -4), dm_slice(2, 12), division_category(brandt(3), ["e11", "z"])],
    ids=["cm_slice(3,-4)", "dm_slice(2,12)", "division(brandt3)"],
)
def test_grouped_reads_match_filters(c):
    for x in c.objects:
        assert c.morphisms_from(x) == tuple(f for f in c.morphisms if c.dom[f] == x)
        for y in c.objects:
            assert c.hom(x, y) == tuple(
                f for f in c.morphisms if c.dom[f] == x and c.cod[f] == y
            )
    absent = object()
    assert c.morphisms_from(absent) == c.hom(absent, absent) == ()


def test_factorizations_are_deterministic():
    a = cm_slice(2, -3)
    b = cm_slice(2, -3)
    f = CmMorphism(2, 0, 0, -3)
    assert a.factorizations(f) == b.factorizations(f)


# -- convolution -------------------------------------------------------------------

def test_incidence_functions_equal_only_incidence_functions():
    c = cm_slice(2, -2)
    values = dict.fromkeys(c.morphisms, 1)
    assert IncidenceFunction.zeta(c) == IncidenceFunction(values)
    assert IncidenceFunction.zeta(c) != values  # __eq__ gives NotImplemented, so identity decides


def test_delta_is_left_identity_for_convolution():
    c = poset_as_category(B2)
    rng = random.Random(7)
    xi = IncidenceFunction({f: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for f in c.morphisms})
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
    partial = IncidenceFunction({(0, 0): 1})
    with pytest.raises(InvalidSlice):
        convolve(c, partial, partial, (0, 1))


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_convolution_is_associative(data):
    c = poset_as_category(B2)
    scalars = st.fractions(min_value=-3, max_value=3, max_denominator=6)

    def draw_fn(label):
        return IncidenceFunction(
            {f: data.draw(scalars, label=f"{label}{f}") for f in c.morphisms}
        )

    xi, eta, theta = draw_fn("xi"), draw_fn("eta"), draw_fn("theta")
    left_inner = IncidenceFunction({f: convolve(c, xi, eta, f) for f in c.morphisms})
    right_inner = IncidenceFunction({f: convolve(c, eta, theta, f) for f in c.morphisms})
    for f in c.morphisms:
        assert convolve(c, left_inner, theta, f) == convolve(c, xi, right_inner, f)


# -- convolution inverse -------------------------------------------------------------

def test_inverse_of_delta_is_delta():
    c = poset_as_category(B2)
    delta = IncidenceFunction.delta(c)
    assert convolution_inverse(c, delta) == delta


def test_inverse_of_zeta_on_level_category_window():
    c = cm_slice(3, -4)
    mu = convolution_inverse(c, IncidenceFunction.zeta(c))
    assert mu[CmMorphism(1, 0, 0, -2)] == 1
    assert mu[CmMorphism(0, 1, -1, -2)] == -1


def test_not_invertible_when_zero_on_identity():
    c = poset_as_category(chain([0, 1]))
    xi = IncidenceFunction({f: 0 if f == (0, 0) else 1 for f in c.morphisms})
    with pytest.raises(NotInvertible):
        convolution_inverse(c, xi)


def test_inverse_needs_complete_slice():
    base = poset_as_category(chain([0, 1]))
    partial = CategorySlice(
        base.objects, base.morphisms, base.dom, base.cod,
        base.compose, base.identities, complete=[(0, 0), (1, 1)],
    )
    with pytest.raises(IncompleteSlice):
        convolution_inverse(partial, IncidenceFunction.zeta(partial))


def test_inverse_of_twice_zeta_is_half_moebius():
    c = poset_as_category(chain([0, 1, 2]))
    inv = convolution_inverse(c, IncidenceFunction(dict.fromkeys(c.morphisms, 2)))
    half = Fraction(1, 2)
    expected = {(0, 0): half, (0, 1): -half, (0, 2): 0, (1, 1): half, (1, 2): -half, (2, 2): half}
    assert dict(inv) == expected
    assert [type(inv[f]) for f in c.morphisms] == [type(expected[f]) for f in c.morphisms]


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
        convolution_inverse(c, IncidenceFunction.zeta(c))


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
    for c in (poset_as_category(B2), cm_slice(2, -3)):
        for value in moebius_of_slice(c).values():
            assert isinstance(value, int)


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
    partial = IncidenceFunction({f: 1 for f in c.morphisms[1:]})
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


# -- Möbius inversion ---------------------------------------------------------------------

def test_inversion_check_for_delta_and_zeta():
    c = cm_slice(2, -3)
    assert inversion_round_trip(c, IncidenceFunction.delta(c))
    assert inversion_round_trip(c, IncidenceFunction.zeta(c))


def test_inversion_check_for_random_integer_functions():
    c = cm_slice(2, -5)
    rng = random.Random(20240811)
    for _ in range(25):
        eta = IncidenceFunction({f: rng.randint(-9, 9) for f in c.morphisms})
        assert inversion_round_trip(c, eta)


# -- serialization ---------------------------------------------------------------------------

def test_slice_json_round_trip():
    c = cm_slice(2, -2)
    loaded = CategorySlice.from_json(c.to_json())
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
    loaded = CategorySlice.from_json(c.to_json())
    assert list(loaded.compose.items()) == [
        ((str(g), str(h)), str(k)) for (g, h), k in c.compose.items()
    ]
    for f in c.morphisms:
        assert loaded.factorizations(str(f)) == tuple(
            (str(g), str(h)) for g, h in c.factorizations(f)
        )


def test_slice_json_rejects_unknown_keys():
    import json as json_module

    data = json_module.loads(cm_slice(2, 0).to_json())
    data["extra"] = []
    with pytest.raises(InvalidSlice):
        CategorySlice.from_json(data)


def test_slice_json_rejects_missing_keys():
    import json as json_module

    data = json_module.loads(cm_slice(2, 0).to_json())
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

    data = json_module.loads(poset_as_category(chain([0, 1])).to_json())
    edit(data)
    with pytest.raises(InvalidSlice, match=f"'{field}'"):
        CategorySlice.from_json(data)


@pytest.mark.parametrize("composite", ["f", "g"], ids=["same_composite", "other_composite"])
def test_slice_json_rejects_a_pair_listed_twice(composite):
    import json as json_module

    data = json_module.loads(iso_pair_category().to_json())
    assert ["1Y", "f", "f"] in data["compose"]
    data["compose"].append(["1Y", "f", composite])
    with pytest.raises(InvalidSlice) as caught:
        CategorySlice.from_json(data)
    assert str(caught.value) == "compose lists the pair ('1Y', 'f') twice"


def test_json_refuses_morphisms_or_objects_that_share_a_name():
    # the int 1 and the string "1" would both be written as "1"
    c = CategorySlice(["a", "b"], [1, "1"], {1: "a", "1": "b"}, {1: "a", "1": "b"},
                      {(1, 1): 1, ("1", "1"): "1"}, {"a": 1, "b": "1"}, [1, "1"])
    with pytest.raises(InvalidSlice, match="^morphism/object keys are not unique; cannot"):
        c.to_json()
    objects = CategorySlice([0, "0"], ["f", "g"], {"f": 0, "g": "0"}, {"f": 0, "g": "0"},
                            {}, {0: "f", "0": "g"})
    with pytest.raises(InvalidSlice, match="^morphism/object keys are not unique; cannot"):
        objects.to_json()


def test_incidence_values_must_be_exact():
    with pytest.raises(TypeError, match="^incidence values must be exact rationals, got float$"):
        IncidenceFunction({(0, 0): 0.5})
