import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mucat import (
    FinitePoset,
    InvalidPoset,
    InverseSemigroup,
    NotComparable,
    chain,
    cm_slice,
    moebius_via_lawvere,
    poset_as_category,
)
from mucat.lawvere import _position_route
from mucat.poset import _is_lattice, _linear

from helpers import (
    B2,
    CHAIN3,
    antichain,
    are_isomorphic,
    bf_chain_moebius,
    bf_closure,
    bf_covers,
    bf_first_back_arc,
    bf_interval_elements,
    bf_is_lattice,
    bf_is_partial_order,
    bf_join,
    bf_meet,
    bf_relation,
    bf_relation_covers,
    bf_top,
    boolean_lattice,
    classical_moebius,
    divisor_poset,
    ordinal_sum_json,
    ordinal_sum_moebius,
    partition_lattice_json,
    poset_json,
    product,
)


@st.composite
def random_posets(draw, max_size=12, dense=None):
    """Transitive closures of random DAGs (edges only point up a fixed order):
    at most two arcs per element, or with dense each upward pair an arc by a
    coin flip, so that intervals of nearly the whole poset come up.  Unless
    the caller fixes dense, it is drawn, so sparse and dense posets both come up."""
    if dense is None:
        dense = draw(st.booleans())
    n = draw(st.integers(min_value=1, max_value=max_size))
    elements = [f"e{k}" for k in range(n)]
    upward = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if dense:
        arcs = [arc for arc in upward if draw(st.booleans())]
    else:
        arcs = draw(st.lists(st.sampled_from(upward), max_size=2 * n, unique=True)) if upward else []
    return FinitePoset(elements, covers=[(elements[i], elements[j]) for i, j in arcs])


# -- construction and validation ---------------------------------------------

def test_rejects_duplicate_elements():
    with pytest.raises(InvalidPoset):
        FinitePoset(["a", "a"], covers=[])
    with pytest.raises(InvalidPoset, match="^duplicate elements$"):
        chain(["a", "b", "a"])


def test_rejects_unknown_elements_in_relation():
    with pytest.raises(InvalidPoset):
        FinitePoset(["a"], covers=[("a", "b")])


def test_requires_exactly_one_relation_argument():
    with pytest.raises(InvalidPoset):
        FinitePoset(["a"])
    with pytest.raises(InvalidPoset):
        FinitePoset(["a"], leq=[("a", "a")], covers=[])


def test_rejects_cyclic_covers():
    with pytest.raises(InvalidPoset, match="^cyclic cover input: 'b' and 'a'$"):
        FinitePoset(["a", "b"], covers=[("a", "b"), ("b", "a")])


def _refusal(elements, strict_pairs) -> str:
    """The message FinitePoset raises for the reflexive closure of strict_pairs."""
    with pytest.raises(InvalidPoset) as info:
        FinitePoset(elements, leq=[(x, x) for x in elements] + strict_pairs)
    return str(info.value)


def test_rejects_missing_reflexivity():
    with pytest.raises(InvalidPoset, match="^relation is not reflexive at 'b'$"):
        FinitePoset(["a", "b"], leq=[("a", "a"), ("a", "b")])
    # b is below c but not below itself, so the supplied order is relabelled first
    pairs = [("a", "a"), ("c", "c"), ("a", "b"), ("b", "c"), ("a", "c")]
    with pytest.raises(InvalidPoset, match="^relation is not reflexive at 'b'$"):
        FinitePoset(["b", "a", "c"], leq=pairs)


def test_rejects_antisymmetry_violation():
    pairs = [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")]
    with pytest.raises(InvalidPoset, match="^relation is not antisymmetric on 'a', 'b'$"):
        FinitePoset(["a", "b"], leq=pairs)
    assert (_refusal(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c"), ("c", "b")])
            == "relation is not antisymmetric on 'b', 'c'")


def test_rejects_transitivity_violation():
    pairs = [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")]
    with pytest.raises(InvalidPoset, match="^relation is not transitive: 'a' <= 'b' <= 'c'$"):
        FinitePoset(["a", "b", "c"], leq=pairs)


def test_transitivity_refusal_names_the_lowest_failing_cover_and_its_lowest_escape():
    # a's covers are b and c, lowest first; b's up-set stays inside a's, c
    # reaches d and e outside it, and d is the lower of the two
    strict = [("a", "b"), ("a", "c"), ("c", "d"), ("c", "e")]
    assert _refusal(list("abcde"), strict) == "relation is not transitive: 'a' <= 'c' <= 'd'"
    assert _refusal(list("abcde"), strict + [("b", "e")]) == (
        "relation is not transitive: 'a' <= 'b' <= 'e'")


def test_transitivity_refusal_on_relabelled_masks():
    # the supplied order puts c before a and b, so the masks are relabelled
    assert (_refusal(["c", "a", "b"], [("a", "b"), ("b", "c")])
            == "relation is not transitive: 'a' <= 'b' <= 'c'")
    # relabelling by up-set size puts y, with three elements above it, below
    # x, with two; x's up-set holds y, a lower position, which fails at once
    assert (_refusal(["z", "x", "y", "w"], [("x", "y"), ("y", "z"), ("y", "w")])
            == "relation is not transitive: 'x' <= 'y' <= 'z'")


def test_covers_input_is_transitively_closed():
    p = FinitePoset([0, 1, 2], covers=[(0, 1), (1, 2)])
    assert p.leq(0, 2)
    assert p.leq(0, 0)


# -- covers --------------------------------------------------------------------

def test_covers_of_chain():
    assert CHAIN3.covers() == [(0, 1), (1, 2)]


def test_covers_of_antichain():
    assert antichain(["a", "b"]).covers() == []


def test_covers_of_boolean_lattice():
    # frozen from the brute-force strict-betweenness scan
    empty, one, two, both = (frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2}))
    expected = {(empty, one), (empty, two), (one, both), (two, both)}
    assert set(B2.covers()) == expected
    assert bf_covers(B2) == expected


def test_twenty_element_divisor_lattice():
    p = divisor_poset(240)  # 20 divisors
    assert len(p) == 20
    assert set(p.covers()) == bf_covers(p)
    assert p.is_lattice() and bf_is_lattice(p)
    for y in p.elements:
        total = sum(p.moebius(1, z) for z in p.elements if y % z == 0)
        assert total == (1 if y == 1 else 0)


# -- intervals -----------------------------------------------------------------

def test_interval_of_divisor_poset():
    assert bf_interval_elements(divisor_poset(12), 2, 12) == {2, 4, 6, 12}


# -- lattice test ----------------------------------------------------------------

def test_chains_are_lattices():
    for n in range(1, 6):
        assert chain(range(n)).is_lattice()


def test_antichain_is_not_a_lattice():
    assert not antichain(["a", "b"]).is_lattice()


def test_empty_poset_is_a_lattice():
    assert FinitePoset([], covers=[]).is_lattice()


def test_joins_without_bottom_is_not_a_lattice():
    p = FinitePoset(["a", "b", "top"], covers=[("a", "top"), ("b", "top")])
    assert bf_join(p.elements, bf_relation(p), "a", "b") == "top"
    assert not p.is_lattice()
    assert not bf_is_lattice(p)


def test_bounded_bowtie_is_not_a_lattice():
    # every pair has common upper and lower bounds, but a, b have two minimal
    # upper bounds c, d; supplied top first, so the poset relabels its order
    covers = [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
              ("c", "1"), ("d", "1")]
    p = FinitePoset(["1", "d", "c", "b", "a", "0"], covers=covers)
    elements, relation = p.elements, bf_relation(p)
    assert all(p.leq("0", x) for x in elements) and bf_top(p) == "1"
    assert bf_join(elements, relation, "a", "b") is None is bf_meet(elements, relation, "c", "d")
    assert bf_join(elements, relation, "a", "c") == "c" and bf_meet(elements, relation, "a", "b") == "0"
    assert not p.is_lattice()
    assert not bf_is_lattice(p)


def test_product_of_chains_is_a_lattice():
    p = product(chain([0, 1, 2]), chain([0, 1]))
    assert p.is_lattice()
    assert bf_is_lattice(p)


# -- Möbius ----------------------------------------------------------------------

def test_moebius_is_one_on_the_diagonal():
    for p in (CHAIN3, B2, divisor_poset(12)):
        for x in p.elements:
            assert p.moebius(x, x) == 1


def test_moebius_of_chain():
    assert CHAIN3.moebius(0, 1) == -1
    assert CHAIN3.moebius(0, 2) == 0


def test_moebius_of_boolean_lattice():
    assert B2.moebius(frozenset(), frozenset({1, 2})) == 1


def test_moebius_of_divisor_poset_matches_classical():
    p = divisor_poset(30)
    assert p.moebius(1, 30) == -1
    assert p.moebius(1, 30) == classical_moebius(30)


def test_moebius_requires_comparability():
    with pytest.raises(NotComparable):
        CHAIN3.moebius(2, 0)


def test_moebius_checks_comparability_after_values_are_cached():
    p = chain(["a", "b", "c"])
    assert p.moebius("a", "c") == 0
    with pytest.raises(NotComparable, match="does not hold"):
        p.moebius("c", "a")
    with pytest.raises(NotComparable, match="not an element"):
        p.moebius("a", "z")


def test_leq_refuses_a_non_member_in_either_place():
    p = chain(["a", "b"])
    for x, y in (("a", "ghost"), ("ghost", "a"), ("ghost", "ghost")):
        with pytest.raises(NotComparable, match=f"^'{x}' or '{y}' is not an element of this poset$"):
            p.leq(x, y)
    assert p.leq("a", "b") and not p.leq("b", "a")


def test_chain_moebius_depends_only_on_length():
    for n in range(1, 7):
        p = chain(range(n))
        expected = {1: 1, 2: -1}.get(n, 0)
        assert p.moebius(0, n - 1) == expected


def test_moebius_of_long_chain_needs_no_recursion():
    p = chain(range(1500, 0, -1))
    assert p.moebius(1500, 1) == 0
    assert p.moebius(1500, 1499) == -1


def test_zeta_sum_identity_on_fixtures():
    for p in (CHAIN3, B2, divisor_poset(60), boolean_lattice(3)):
        for x in p.elements:
            for y in p.elements:
                if p.leq(x, y):
                    total = sum(p.moebius(x, z) for z in p.elements if p.leq(x, z) and p.leq(z, y))
                    assert total == (1 if x == y else 0)


# -- products ---------------------------------------------------------------------

def test_square_of_two_chain_is_boolean_lattice():
    # the product the product-law tests below read is the test-side one
    assert are_isomorphic(product(chain([0, 1]), chain([0, 1])), B2)


def test_product_with_singleton_is_identity():
    assert are_isomorphic(product(chain([0]), B2), B2)


def test_product_of_chains_moebius():
    p = product(chain([0, 1]), chain([0, 1, 2]))
    assert p.moebius((0, 0), (1, 2)) == 0  # (-1) * 0


def test_product_law_exhaustive():
    # <= 30 elements, every comparable pair
    q = chain(range(5))
    p = product(B2, q)
    for (a, b) in p.elements:
        for (c, d) in p.elements:
            if p.leq((a, b), (c, d)):
                assert p.moebius((a, b), (c, d)) == B2.moebius(a, c) * q.moebius(b, d)


# -- randomized properties ----------------------------------------------------------

@given(random_posets())
@settings(max_examples=60, deadline=None)
def test_covers_match_brute_force(p):
    assert set(p.covers()) == bf_covers(p)


# the bounded bowtie: a, b have two minimal upper bounds, c and d
BOWTIE = FinitePoset("0abcd1", covers=["0a", "0b", "ac", "ad", "bc", "bd", "c1", "d1"])
# p's incomparable partners are q and Q > q: p, q join at r, but r and Q
# have two minimal upper bounds, u and v, so p, Q have no join; the test
# joins p only with q and meets the failure at the pair Q, r
DETOUR = FinitePoset("0pqQruv1", covers=["0p", "0q", "qQ", "pr", "qr", "ru", "rv", "Qu", "Qv",
                                          "u1", "v1"])


# p's minimal incomparable partners are q and r: p, q join at a, but p, r
# have two minimal upper bounds, c and d, the only pair with no join, which
# the test meets only past p's first partner
FORK = FinitePoset("0pqrabcd1", covers=["0p", "0q", "0r", "pa", "qa", "qb", "rb", "pc", "pd",
                                        "rc", "rd", "a1", "b1", "c1", "d1"])


@given(random_posets())
@example(BOWTIE)
@example(DETOUR)
@settings(max_examples=60, deadline=None)
def test_is_lattice_matches_brute_force(p):
    assert p.is_lattice() == bf_is_lattice(p)


def test_lattice_test_joins_only_minimal_partners_on_a_detour():
    elements, relation = DETOUR.elements, bf_relation(DETOUR)
    assert bf_join(elements, relation, "p", "q") == "r"
    assert bf_join(elements, relation, "p", "Q") is None is bf_join(elements, relation, "r", "Q")
    assert not DETOUR.is_lattice()


def test_lattice_test_joins_every_minimal_partner():
    elements, relation = FORK.elements, bf_relation(FORK)
    assert bf_join(elements, relation, "p", "q") == "a"
    assert [(x, y) for x in elements for y in elements
            if bf_join(elements, relation, x, y) is None] == [("p", "r"), ("r", "p")]
    assert not FORK.is_lattice() and not bf_is_lattice(FORK)


def test_lattice_test_matches_brute_force_on_every_interval_of_a_window():
    c = cm_slice(3, -6)
    for f in c.morphisms:
        masks = _position_route(c, f, c._closed_handle(f))[0]
        assert _is_lattice(masks) == bf_is_lattice(FinitePoset._from_masks(range(len(masks)), masks))


def test_lattice_test_matches_brute_force_on_a_partition_lattice():
    # Π_4 is a lattice that is not distributive; with one partition left
    # out it may keep its joins or lose them
    p = InverseSemigroup.from_json(partition_lattice_json(4)).idempotent_poset()
    assert p.is_lattice() and bf_is_lattice(p)
    verdicts = set()
    for x in p.elements:
        rest = [y for y in p.elements if y != x]
        q = FinitePoset(rest, leq=[(y, z) for y in rest for z in rest if p.leq(y, z)])
        verdicts.add(q.is_lattice())
        assert q.is_lattice() == bf_is_lattice(q), x
    assert verdicts == {True, False}


@given(random_posets(max_size=14, dense=True), st.integers(min_value=0), st.integers(min_value=0))
@example(chain([f"e{k}" for k in range(14)]), 0, 0)
@example(FinitePoset(range(14), covers=[(a, b) for k in range(1, 13) for a, b in [(0, k), (k, 13)]]), 0, 0)
@settings(max_examples=60, deadline=None)
def test_moebius_matches_chain_count_on_wide_intervals_of_dense_posets(p, i, j):
    # dense posets of up to 14 elements, with small i and j picking the
    # widest intervals, sum large up-sets over one value plane (every value
    # -1, 0 or 1, as on the chain, mu 0 from bottom to top) or over several
    # (twelve atoms between a bottom and a top: mu 11, four planes).  One
    # pair per poset: the chain count is exponential
    relation = bf_relation(p)
    x = sorted(p.elements, key=lambda z: -sum((z, w) in relation for w in p.elements))[i % len(p)]
    ups = [w for w in p.elements if (x, w) in relation]
    y = sorted(ups, key=lambda w: -sum((z, w) in relation for z in p.elements))[j % len(ups)]
    expected = bf_chain_moebius(p.elements, relation, x, y)
    assert p.moebius(x, y) == expected
    assert moebius_via_lawvere(poset_as_category(p), (x, y)) == expected


def _top_column_of_ordinal_sum(widths) -> list:
    """mu(x, top) for every x of the ordinal sum of antichains of these
    widths, each checked against Philip Hall's closed form."""
    p = FinitePoset.from_json(ordinal_sum_json(widths))
    column = []
    for x in p.elements:
        level = 0 if x == "bottom" else len(widths) + 1 if x == "top" else int(x.split(".")[0])
        expected = 1 if x == "top" else ordinal_sum_moebius(widths, level)
        assert p.moebius(x, "top") == expected, x
        column.append(expected)
    return column


@pytest.mark.parametrize("widths", [
    [3] * 70, [3] * 40, [5] * 30, [2, 4, 3, 6, 5] * 4, [3] * 8, [3] * 7, [2] * 30,
], ids=["3x70", "3x40", "5x30", "mixed", "3x8", "3x7", "2x30"])
def test_top_column_of_an_ordinal_sum_matches_hall_s_closed_form(widths):
    # |mu| grows level by level from the top, so the value planes of the
    # column grow as it is summed down: to 71 for 3x70 (|mu| = 2 ** 70,
    # wider than any fixed count up to 64), 41 for 3x40, 8 for 3x7; 2x30
    # keeps one plane (every value -1, 0 or 1)
    _top_column_of_ordinal_sum(widths)


@given(st.lists(st.integers(min_value=1, max_value=6), max_size=12))
@example([6] * 12)
@example([])
@settings(max_examples=60, deadline=None)
def test_ordinal_sum_moebius_matches_hall_s_closed_form_random(widths):
    column = _top_column_of_ordinal_sum(widths)
    if sum(widths) <= 16:  # the window holds every pair x <= y of the poset
        p = FinitePoset.from_json(ordinal_sum_json(widths))
        assert moebius_via_lawvere(poset_as_category(p), ("bottom", "top")) == column[0]


@given(random_posets())
@settings(max_examples=60, deadline=None)
def test_zeta_sum_identity_random(p):
    for x in p.elements:
        for y in p.elements:
            if p.leq(x, y):
                total = sum(p.moebius(x, z) for z in p.elements if p.leq(x, z) and p.leq(z, y))
                assert total == (1 if x == y else 0)


@given(random_posets(max_size=8), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_moebius_does_not_depend_on_query_order(p, rnd):
    pairs = [(x, y) for x in p.elements for y in p.elements if p.leq(x, y)]
    shuffled = list(pairs)
    rnd.shuffle(shuffled)
    fresh = FinitePoset.from_json(poset_json(p))
    assert {q: fresh.moebius(*q) for q in shuffled} == {q: p.moebius(*q) for q in pairs}


@given(random_posets(max_size=4), random_posets(max_size=4))
@settings(max_examples=40, deadline=None)
def test_product_law_random(p, q):
    prod = product(p, q)
    for (a, b) in prod.elements:
        for (c, d) in prod.elements:
            if prod.leq((a, b), (c, d)):
                assert prod.moebius((a, b), (c, d)) == p.moebius(a, c) * q.moebius(b, d)


# -- oracles on random relations ----------------------------------------------

@st.composite
def relations(draw, max_size=7, orders_only=False):
    """(elements, relation) on up to max_size elements, the relation a set of
    (smaller, larger) pairs.  Half the draws are arbitrary relations; the
    other half close a random DAG over a shuffled rank order and then toggle
    a few pairs, so that both partial orders and near misses of every law
    come up, and the supplied order is a linear extension only sometimes.
    With orders_only, every draw is a closed DAG with no pair toggled."""
    n = draw(st.integers(min_value=0, max_value=max_size))
    elements = [f"e{k}" for k in range(n)]
    every = [(a, b) for a in elements for b in elements]
    if not every:
        return elements, set()
    if not orders_only and draw(st.booleans()):
        return elements, set(draw(st.lists(st.sampled_from(every), unique=True)))
    rank = dict(zip(elements, draw(st.permutations(range(n)))))
    upward = [(a, b) for a, b in every if rank[a] < rank[b]]
    arcs = draw(st.lists(st.sampled_from(upward), max_size=2 * n)) if upward else []
    relation = bf_closure(elements, arcs)
    if not orders_only:
        for pair in draw(st.lists(st.sampled_from(every), max_size=2)):
            relation ^= {pair}
    return elements, relation


@given(relations())
@settings(max_examples=300, deadline=None)
def test_leq_input_is_rejected_exactly_when_a_law_fails(drawn):
    elements, relation = drawn
    if bf_is_partial_order(elements, relation):
        FinitePoset(elements, leq=sorted(relation))
    else:
        with pytest.raises(InvalidPoset):
            FinitePoset(elements, leq=sorted(relation))


@given(relations(orders_only=True))
@settings(max_examples=200, deadline=None)
def test_order_queries_match_the_relation(drawn):
    elements, relation = drawn
    assert bf_is_partial_order(elements, relation)
    p = FinitePoset(elements, leq=sorted(relation))
    for x in elements:
        for y in elements:
            assert p.leq(x, y) == ((x, y) in relation)
            if (x, y) in relation:
                assert p.moebius(x, y) == bf_chain_moebius(elements, relation, x, y)
    assert set(p.covers()) == bf_relation_covers(elements, relation)
    assert p.is_lattice() == all(
        bf_join(elements, relation, x, y) is not None and bf_meet(elements, relation, x, y) is not None
        for x in elements for y in elements
    )


def _law_check(up, elements, transitive):
    """``_linear``'s (order, masks), or the message it refuses with."""
    try:
        return _linear(up, elements.__getitem__, transitive)
    except InvalidPoset as exc:
        return str(exc)


def test_a_proof_of_transitivity_skips_only_the_transitivity_loop():
    elements = ["a", "b", "c"]
    not_transitive = [0b011, 0b110, 0b100]  # a <= b <= c, not a <= c
    assert _law_check(not_transitive, elements, False) == "relation is not transitive: 'a' <= 'b' <= 'c'"
    assert _law_check(not_transitive, elements, True) == (None, not_transitive)
    # the relabel pass still refuses a pair related both ways, or a missing loop
    assert _law_check([0b11, 0b11], elements, True) == "relation is not antisymmetric on 'a', 'b'"
    assert _law_check([0b10, 0b10], elements, True) == "relation is not reflexive at 'a'"


@given(relations())
@settings(max_examples=300, deadline=None)
def test_a_proof_of_transitivity_changes_nothing_on_a_transitive_relation(drawn):
    # each drawn relation closed transitively (Warshall), not reflexively:
    # partial orders, and near misses of reflexivity and antisymmetry
    elements, relation = drawn
    index = {x: k for k, x in enumerate(elements)}
    up = [0] * len(elements)
    for a, b in relation:
        up[index[a]] |= 1 << index[b]
    for k in range(len(up)):
        for i in range(len(up)):
            if up[i] >> k & 1:
                up[i] |= up[k]
    assert _law_check(up, elements, True) == _law_check(up, elements, False)


@st.composite
def arc_lists(draw, max_size=7):
    """Random cover arcs, loops and cycles allowed, over up to max_size elements."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    elements = [f"e{k}" for k in range(n)]
    every = [(a, b) for a in elements for b in elements]
    return elements, draw(st.lists(st.sampled_from(every), max_size=2 * n))


@given(arc_lists())
@settings(max_examples=200, deadline=None)
def test_covers_input_is_closed_or_rejected_as_cyclic(drawn):
    elements, arcs = drawn
    relation = bf_closure(elements, arcs)
    cyclic = any(a != b and (b, a) in relation for a, b in relation)
    back = bf_first_back_arc(elements, arcs)
    assert (back is not None) == cyclic
    if cyclic:
        # the refusal names the arc that closes the first cycle a depth-first
        # search meets, from each element in order along the arcs as listed
        with pytest.raises(InvalidPoset) as info:
            FinitePoset(elements, covers=arcs)
        assert str(info.value) == "cyclic cover input: {!r} and {!r}".format(*back)
    else:
        p = FinitePoset(elements, covers=arcs)
        assert {(x, y) for x in elements for y in elements if p.leq(x, y)} == relation


@given(random_posets(max_size=8), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_results_do_not_depend_on_element_order(p, rnd):
    pairs = [(x, y) for x in p.elements for y in p.elements if p.leq(x, y)]
    shuffled = list(p.elements)
    rnd.shuffle(shuffled)
    rnd.shuffle(pairs)
    q = FinitePoset(shuffled, leq=pairs)
    assert q.elements == tuple(shuffled)
    assert q.is_lattice() == p.is_lattice()
    for x in p.elements:
        for y in p.elements:
            assert q.leq(x, y) == p.leq(x, y)
            if p.leq(x, y):
                assert q.moebius(x, y) == p.moebius(x, y)
    rank = {x: k for k, x in enumerate(shuffled)}
    assert q.covers() == sorted(p.covers(), key=lambda c: (rank[c[0]], rank[c[1]]))


# -- serialization -------------------------------------------------------------------

def test_json_round_trip():
    p = divisor_poset(12)
    q = FinitePoset.from_json(poset_json(p))
    assert q.elements == tuple(str(d) for d in p.elements)
    assert set(q.covers()) == {(str(a), str(b)) for a, b in p.covers()}
    assert q.moebius("1", "12") == p.moebius(1, 12)


def test_json_accepts_full_relation():
    data = {"elements": ["a", "b"], "leq": [["a", "a"], ["b", "b"], ["a", "b"]]}
    p = FinitePoset.from_json(json.dumps(data))
    assert p.leq("a", "b")


def test_json_rejects_unknown_keys():
    data = {"elements": ["a"], "covers": [], "extra": 1}
    with pytest.raises(InvalidPoset):
        FinitePoset.from_json(data)


def test_json_rejects_both_relations():
    data = {"elements": ["a"], "covers": [], "leq": [["a", "a"]]}
    with pytest.raises(InvalidPoset):
        FinitePoset.from_json(data)


@pytest.mark.parametrize(
    "data",
    [
        {"elements": 5, "leq": []},
        {"elements": "ab", "covers": []},
        {"elements": ["a"], "leq": 7},
        {"elements": ["a"], "covers": {"a": "a"}},
    ],
)
def test_json_rejects_non_array_fields(data):
    with pytest.raises(InvalidPoset, match="must be an array"):
        FinitePoset.from_json(data)


def test_json_rejects_bad_pair_shape():
    data = {"elements": ["a"], "covers": [["a"]]}
    with pytest.raises(InvalidPoset):
        FinitePoset.from_json(data)


def test_dot_output_is_deterministic():
    expected = (
        "digraph hasse {\n"
        "  rankdir=BT;\n"
        '  "0";\n'
        '  "1";\n'
        '  "2";\n'
        '  "0" -> "1";\n'
        '  "1" -> "2";\n'
        "}\n"
    )
    assert CHAIN3.to_dot() == expected
    assert CHAIN3.to_dot() == CHAIN3.to_dot()


def test_dot_has_one_edge_per_cover():
    dot = B2.to_dot(label=lambda s: "".join(map(str, sorted(s))) or "0")
    assert dot.count("->") == len(B2.covers())
