import json
import random

import pytest

from mucat import (
    InvalidSemigroup,
    InverseSemigroup,
    NotCombinatorial,
    NotOneWay,
    NotTransversal,
    chain,
    default_transversal,
    division_category,
    find_semigroup_violation,
    is_one_way_category,
    meet_semilattice,
    moebius_of_slice,
    moebius_test,
    moebius_via_idempotent_lattice,
    moebius_via_lawvere,
    moebius_via_quotients,
    quotient_poset,
    validate_inverse_semigroup,
    validate_slice,
)

from helpers import (
    B2,
    are_isomorphic,
    bf_d_classes,
    bf_is_combinatorial,
    bf_semigroup_violation,
    boolean_lattice,
    brandt,
    brandt_five,
    divisor_poset,
    fork_poset,
)


def two_element_group():
    return InverseSemigroup(["1", "g"], [["1", "g"], ["g", "1"]], one="1")


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
        assert validate_inverse_semigroup(s)


def test_two_element_group_is_inverse_but_not_combinatorial():
    g = two_element_group()
    assert validate_inverse_semigroup(g)
    assert not g.is_combinatorial()


def test_left_zero_semigroup_has_non_unique_inverses():
    s = left_zero_two()
    violation = find_semigroup_violation(s)
    assert violation is not None and "inverse" in violation


def test_non_associative_table_is_reported():
    s = InverseSemigroup(["a", "b"], [["b", "b"], ["a", "a"]])
    violation = find_semigroup_violation(s)
    assert violation is not None and "associativity" in violation


def test_table_shape_is_checked():
    with pytest.raises(InvalidSemigroup):
        InverseSemigroup(["a", "b"], [["a", "b"]])
    with pytest.raises(InvalidSemigroup):
        InverseSemigroup(["a"], [["q"]])


def test_declared_identity_is_checked():
    with pytest.raises(InvalidSemigroup):
        InverseSemigroup(["a", "b"], [["a", "a"], ["a", "a"]], one="b")


# -- natural order, idempotents, D-classes ----------------------------------------

def test_natural_order_on_semilattice_is_multiplication():
    s = meet_semilattice(B2)
    for x in s.elements:
        for y in s.elements:
            assert s.natural_leq(x, y) == (s.mul(x, y) == x)


def test_natural_order_restricted_to_idempotents():
    for s in (meet_semilattice(fork_poset()), brandt_five()):
        for e in s.idempotents():
            for f in s.idempotents():
                two_sided = e == s.mul(e, f) == s.mul(f, e)
                assert s.natural_leq(e, f) == two_sided


def test_chain_natural_order():
    s = meet_semilattice(chain(["g", "f", "e"]))  # g < f < e
    assert s.natural_leq("g", "e")
    assert not s.natural_leq("e", "g")


def test_d_classes_of_semilattice_are_singletons():
    s = meet_semilattice(B2)
    assert all(len(cls) == 1 for cls in s.d_classes())


def test_d_classes_of_group_form_one_class():
    assert len(two_element_group().d_classes()) == 1


def test_d_classes_of_product_with_group():
    s = semilattice_times_z2()
    assert validate_inverse_semigroup(s)
    classes = {frozenset(cls) for cls in s.d_classes()}
    assert classes == {frozenset({"f0", "f1"}), frozenset({"e0", "e1"})}
    assert not s.is_combinatorial()


def test_d_classes_of_brandt():
    s = brandt_five()
    assert validate_inverse_semigroup(s)
    assert s.is_combinatorial()
    classes = {frozenset(cls) for cls in s.d_classes()}
    assert classes == {frozenset({"z"}), frozenset({"e11", "e22", "a", "b"})}


# -- agreement with the oracles in helpers ---------------------------------------

def _named(s):
    """The same table with every element named through str(), as the oracles read it."""
    return InverseSemigroup.from_json(s.to_json())


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
    assert s.is_combinatorial() == bf_is_combinatorial(s)


@pytest.mark.parametrize(
    "s",
    [left_zero_two(), InverseSemigroup(["0", "a"], [["0", "0"], ["0", "0"]])],
    ids=["left zero", "null"],
)
def test_inverse_count_violation_matches_oracle(s):
    violation = find_semigroup_violation(s)
    assert "inverse candidates" in violation
    assert violation == bf_semigroup_violation(s)


def _planted_edits(count, seed):
    """Tables of B_3, Brandt B_3 and the divisors of 60 with one or two
    entries overwritten by a random element."""
    rng = random.Random(seed)
    bases = [
        _named(meet_semilattice(boolean_lattice(3))),
        brandt(3),
        _named(meet_semilattice(divisor_poset(60))),
    ]
    for k in range(count):
        data = json.loads(bases[k % len(bases)].to_json())
        names, table = data["elements"], data["table"]
        for _ in range(rng.choice((1, 2))):
            table[rng.randrange(len(names))][rng.randrange(len(names))] = rng.choice(names)
        yield InverseSemigroup(names, table)


def test_planted_table_edits_match_oracles():
    valid = 0
    for s in _planted_edits(330, seed=11):
        violation = find_semigroup_violation(s)
        assert violation == bf_semigroup_violation(s)
        if violation is None:
            valid += 1
            assert s.d_classes() == bf_d_classes(s)
            assert s.is_combinatorial() == bf_is_combinatorial(s)
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
    assert validate_slice(c)
    assert len(c.morphisms) == 3


def test_transversal_must_be_idempotent():
    with pytest.raises(NotTransversal):
        division_category(brandt_five(), ["a", "z"])


def test_transversal_must_hit_each_class_once():
    with pytest.raises(NotTransversal):
        division_category(brandt_five(), ["e11", "e22", "z"])


def test_transversal_must_contain_identity_of_monoid():
    s = meet_semilattice(B2)
    partial = [e for e in s.elements if e != s.identity()]
    with pytest.raises(NotTransversal):
        division_category(s, partial)


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
        assert c.identity_of(e) == (e, e)


def test_semilattice_division_category_is_its_poset():
    p = B2
    s = meet_semilattice(p)
    c = division_category(s)
    assert validate_slice(c)
    related = [(x, y) for x in p.elements for y in p.elements if p.leq(x, y)]
    assert len(c.morphisms) == len(related)
    mu = moebius_of_slice(c)
    for x in p.elements:
        for y in p.elements:
            if p.leq(x, y):
                assert mu[(x, y)] == p.moebius(x, y)


def test_division_category_passes_validation_across_corpus():
    for s in SEMILATTICE_CORPUS:
        assert validate_slice(division_category(s))


def test_group_division_category_is_returned_but_not_moebius():
    g = two_element_group()
    c = division_category(g)
    assert validate_slice(c)
    assert not moebius_test(c)
    with pytest.raises(NotCombinatorial):
        division_category(g, require_combinatorial=True)


# -- quotient posets and the two poset rules -----------------------------------------------

def test_quotient_poset_of_chain():
    s = meet_semilattice(chain(["f", "e"]))
    c = division_category(s)
    q = quotient_poset(c, "e")
    assert set(q.elements) == {("e", "e"), ("f", "e")}
    assert q.leq(("f", "e"), ("e", "e"))
    assert q.top() == ("e", "e")


def test_quotient_poset_always_has_identity_top():
    for s in SEMILATTICE_CORPUS:
        c = division_category(s)
        for e in c.objects:
            assert quotient_poset(c, e).top() == (e, e)


def test_quotient_poset_of_boolean_top_is_boolean():
    s = meet_semilattice(B2)
    c = division_category(s)
    top = s.identity()
    assert are_isomorphic(quotient_poset(c, top), B2)


def test_quotient_poset_is_cached_and_matches_factor_through_order():
    for s in SEMILATTICE_CORPUS:
        c = division_category(s)
        for e in c.objects:
            q = quotient_poset(c, e)
            assert quotient_poset(c, e) is q
            assert q.elements == c.morphisms_from(e)
            for sf in q.elements:
                for tf in q.elements:
                    below = any(c.compose.get((u, tf)) == sf for u in c.morphisms_from(c.cod[tf]))
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


# -- serialization ----------------------------------------------------------------------------

def test_semigroup_json_round_trip():
    s = meet_semilattice(fork_poset())
    restored = InverseSemigroup.from_json(s.to_json())
    assert restored.elements == s.elements
    for x in s.elements:
        for y in s.elements:
            assert restored.mul(x, y) == s.mul(x, y)


def test_semigroup_json_keeps_identity():
    s = meet_semilattice(B2)
    restored = InverseSemigroup.from_json(s.to_json())
    assert restored.one == str(s.identity())


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
