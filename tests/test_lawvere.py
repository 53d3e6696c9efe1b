import random
import tracemalloc

import pytest

from mucat import (
    CategorySlice,
    CmMorphism,
    DmMorphism,
    Factorization,
    FactorizationSource,
    FinitePoset,
    IncompleteSlice,
    InverseSemigroup,
    NotOneWay,
    NotThin,
    Unbounded,
    chain,
    cm_slice,
    cm_source,
    division_category,
    dm_slice,
    dm_source,
    find_semigroup_violation,
    find_slice_violation,
    interval_as_poset,
    is_one_way,
    is_one_way_category,
    lawvere_interval,
    moebius_at,
    moebius_of_slice,
    moebius_via_lawvere,
    poset_as_category,
    quotient_poset,
)
import mucat.lawvere
import mucat.poset
from mucat.category import _rows
from mucat.errors import MucatError
from mucat.lawvere import _both_routes, _lawvere_sweep, _position_route, _walk
from mucat.poset import _is_lattice

from helpers import (
    B2,
    are_isomorphic,
    bf_is_lattice,
    bf_lawvere_homs,
    bf_one_way,
    boolean_lattice,
    divisor_poset,
    is_total_order,
    meet_semilattice,
    opposite,
    paired,
    product,
    sides,
    slice_product,
)

from test_category import (
    BAD_PAIR_IDS,
    BAD_PAIRS,
    D3,
    _dm3_source,
    _one_bad_pair_source,
    _one_object_slice,
    _wrong_identity_source,
    idempotent_endo_category,
    iso_pair_category,
)
from test_semigroups import ORDER_CORPUS, order_corpus


# -- interval construction ----------------------------------------------------

def test_interval_of_identity_is_a_point():
    c = poset_as_category(chain([0, 1]))
    iv = lawvere_interval(c, (0, 0))
    assert len(iv.objects) == 1
    (obj,) = iv.objects
    assert iv.homs.get((obj, obj), ()) == ((0, 0),)
    assert repr(iv) == "LawvereInterval((0, 0), 1 factorizations)"


def test_interval_sizes_in_level_category():
    c = cm_slice(2, -2)
    assert len(lawvere_interval(c, CmMorphism(1, 0, 0, -1)).objects) == 2
    c3 = cm_slice(3, -3)
    assert len(lawvere_interval(c3, CmMorphism(2, 0, 0, -3)).objects) == 6


def test_connecting_morphism_between_trivial_factorizations():
    # the subject itself connects bottom (f, 1) to top (1, f)
    c = cm_slice(2, -1)
    f = CmMorphism(1, 0, 0, -1)
    iv = lawvere_interval(c, f)
    bottom = Factorization(f, CmMorphism(0, 0, 0, 0), f)
    top = Factorization(CmMorphism(0, 1, -1, -1), f, f)
    assert iv.homs.get((bottom, top), ()) == (f,)
    assert iv.homs.get((top, bottom), ()) == ()


@pytest.mark.parametrize(
    "make",
    [
        lambda: cm_slice(3, -4),
        lambda: dm_slice(2, 12),
        lambda: division_category(meet_semilattice(boolean_lattice(3))),
        lambda: poset_as_category(divisor_poset(12)),
        idempotent_endo_category,
        iso_pair_category,
    ],
    ids=["cm_3_-4", "dm_2_12", "division_B3", "poset_D12", "idempotent_endo", "iso_pair"],
)
def test_interval_homs_match_definitional_scan(make):
    c = make()
    for f in c.morphisms:
        homs = lawvere_interval(c, f).homs
        expected = bf_lawvere_homs(c, f)
        assert list(homs.items()) == list(expected.items()), f


@pytest.mark.parametrize(
    "window, source",
    [(cm_slice(3, -6), cm_source(3)), (dm_slice(2, 30), dm_source(2))],
    ids=["cm(3,-6)", "dm(2,30)"],
)
def test_one_walk_reads_slices_by_number_and_sources_by_morphism(window, source):
    mu = moebius_of_slice(window)
    for f in window.morphisms:
        numbered, direct = lawvere_interval(window, f), lawvere_interval(source, f)
        assert numbered.objects == direct.objects
        assert (numbered._up, numbered._more) == (direct._up, direct._more)
        assert numbered.homs == direct.homs
        assert moebius_via_lawvere(window, f) == moebius_via_lawvere(source, f) == mu[f]
        assert moebius_at(window, f) == moebius_at(source, f) == mu[f]


def test_homs_are_built_only_when_read():
    c = cm_slice(3, -4)
    f = CmMorphism(2, 1, 0, -4)
    iv = lawvere_interval(c, f)
    assert is_one_way(iv)
    bottom = Factorization(f, c.identities[c.dom[f]], f)
    top = Factorization(c.identities[c.cod[f]], f, f)
    assert moebius_via_lawvere(c, f) == interval_as_poset(iv).moebius(bottom, top)
    assert iv._homs is None
    assert iv.homs is iv.homs
    assert list(iv.homs.items()) == list(bf_lawvere_homs(c, f).items())


def test_interval_holds_masks_not_connecting_morphisms():
    # one connecting morphism kept per related pair held about 8 MB here
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        iv = lawvere_interval(dm_source(2), DmMorphism(400, 0))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(iv.objects) == 401
    assert held < 1_000_000


def test_source_holds_no_lists():
    # keeping the 401 lists both routes read would take 16 MB
    f = DmMorphism(400, 0)
    for routes in (lambda s: (moebius_via_lawvere(s, f), moebius_at(s, f)),
                   lambda s: _both_routes(s, f)):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            source = dm_source(2)
            assert routes(source) == (0, 0)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 1_000_000


def _values_or_error(routes, c, f):
    """routes(c, f), or the type and message of the error it raises."""
    try:
        return routes(c, f)
    except MucatError as exc:
        return type(exc), str(exc)


def _in_turn(c, f):  # the two routes called one after the other
    return moebius_via_lawvere(c, f), moebius_at(c, f)


def test_shared_pass_falls_back_when_lists_are_in_no_linear_extension(monkeypatch):
    # each list names its largest right factor first, so the walk reads every
    # list before its right factors' values are known and the recursion fills
    # every value but an identity's
    fallbacks = []
    real = mucat.lawvere._invert_from
    monkeypatch.setattr(mucat.lawvere, "_invert_from",  # each root decoded by the source's _at
                        lambda *a: fallbacks.append(a[0]._at[a[-1]]) or real(*a))
    window = dm_slice(3, 14)
    reversed_lists = _dm3_source(lambda k: sides(paired(D3._enumerate(k))[::-1]))
    for f in window.morphisms:
        assert _both_routes(reversed_lists, f) == _in_turn(reversed_lists, f)
    assert fallbacks == [f for f in window.morphisms if f.alpha != f.x]
    fallbacks.clear()
    for f in window.morphisms:  # lists in the enumerator's order need no fallback
        assert _both_routes(_dm3_source(), f) == _in_turn(_dm3_source(), f)
    assert fallbacks == []


def _iso_pair_source_with_wrong_identity():
    """The iso pair read through its rules, with f: X -> Y given as Y's identity."""
    c = iso_pair_category()
    return FactorizationSource(lambda f: sides(c.factorizations(f)), c.dom.__getitem__,
                               c.cod.__getitem__, lambda x: "f" if x == "Y" else c.identities[x],
                               lambda g: lambda h: c.compose[g, h], c.factorizations)


@pytest.mark.parametrize(
    "make, morphisms",
    [
        (iso_pair_category, iso_pair_category().morphisms),
        (idempotent_endo_category, idempotent_endo_category().morphisms),
        *[(lambda bad=bad: _one_bad_pair_source(bad), [DmMorphism(4, 1), DmMorphism(7, 1), DmMorphism(13, 1)])
          for bad, _ in BAD_PAIRS],
        (_wrong_identity_source, dm_slice(3, 14).morphisms),
        (_iso_pair_source_with_wrong_identity, iso_pair_category().morphisms),
    ],
    ids=["iso_pair", "idempotent_endo", *BAD_PAIR_IDS, "wrong_identity", "iso_pair_wrong_identity"],
)
def test_shared_pass_refuses_as_the_two_routes_in_turn(make, morphisms):
    refused = 0
    for f in morphisms:  # fresh for each call: neither starts from the other's slice caches
        expected = _values_or_error(_in_turn, make(), f)
        assert _values_or_error(_both_routes, make(), f) == expected
        refused += isinstance(expected[0], type)
    assert refused


# -- one-way test ----------------------------------------------------------------

def _top_first(p):
    """p with its elements supplied top-first: the objects of its category,
    and of its intervals, are then in no linear extension."""
    elems = p.elements[::-1]
    return FinitePoset(elems, leq=[(x, y) for x in elems for y in elems if p.leq(x, y)])


def _all_one_way(c) -> bool:
    return all(is_one_way(lawvere_interval(c, f)) for f in c.morphisms)


def test_poset_intervals_are_one_way():
    # top-first orders take the one-way test past its linear-extension shortcut
    for p in (B2, _top_first(boolean_lattice(3)), _top_first(divisor_poset(12))):
        c = poset_as_category(p)
        assert is_one_way_category(c)
        assert _all_one_way(c)


def test_iso_pair_interval_is_not_one_way():
    c = iso_pair_category()
    assert not is_one_way(lawvere_interval(c, "1X"))


def test_moebius_test_on_level_category_window():
    assert _all_one_way(cm_slice(3, -4))


def test_moebius_test_on_poset_category():
    assert _all_one_way(poset_as_category(B2))


def test_moebius_test_rejects_iso_pair():
    assert not _all_one_way(iso_pair_category())


@pytest.mark.parametrize("make, expected", [
    (iso_pair_category, False),
    (idempotent_endo_category, False),
    (lambda: poset_as_category(_top_first(boolean_lattice(3))), True),
    (lambda: poset_as_category(_top_first(divisor_poset(12))), True),
    (lambda: division_category(*order_corpus("Brandt B_3", check=False)), True),
    (lambda: division_category(*order_corpus("Brandt B_3", check=True)), True),
], ids=["iso_pair", "idempotent_endo", "B3_top_first", "D12_top_first", "division_brandt_3",
        "marked_division_brandt_3"])
def test_one_way_test_matches_the_definition(make, expected):
    c = make()
    verdicts = [is_one_way(lawvere_interval(c, f)) for f in c.morphisms]
    assert verdicts == [bf_one_way(c, f) for f in c.morphisms]
    assert all(verdicts) is expected


# -- interval as poset --------------------------------------------------------------

def test_grid_interval_is_two_by_two():
    c = cm_slice(2, -2)
    poset = interval_as_poset(lawvere_interval(c, CmMorphism(1, 0, 0, -2)))
    assert are_isomorphic(poset, B2)


def test_interval_of_identity_is_singleton_poset():
    c = cm_slice(2, 0)
    poset = interval_as_poset(lawvere_interval(c, CmMorphism(0, 1, 0, 0)))
    assert len(poset) == 1


def test_residue_category_interval_is_a_chain():
    d = dm_slice(3, 8)
    poset = interval_as_poset(lawvere_interval(d, DmMorphism(4, 2)))
    assert len(poset) == 3
    assert is_total_order(poset)


def test_grid_interval_matches_product_of_chains():
    c = cm_slice(3, -3)
    f = CmMorphism(2, 0, 0, -3)  # 3 x 2 grid
    poset = interval_as_poset(lawvere_interval(c, f))
    grid = product(chain(range(f.a + 1)), chain(range(f.i - f.j - f.a + 1)))
    assert are_isomorphic(poset, grid)
    assert poset.is_lattice()


def test_thin_violation_is_reported():
    with pytest.raises(NotThin) as raised:
        interval_as_poset(lawvere_interval(idempotent_endo_category(), "s"))
    s = "Factorization(left='s', right='s', subject='s')"
    assert str(raised.value) == f"hom-set ({s}, {s}) has 2 elements"


def test_one_way_violation_is_reported():
    with pytest.raises(NotOneWay, match="^interval of '1X': relation is not antisymmetric"):
        interval_as_poset(lawvere_interval(iso_pair_category(), "1X"))


def test_hom_sets_inside_grid_intervals():
    c = cm_slice(3, -4)
    f = CmMorphism(2, 1, 0, -4)
    iv = lawvere_interval(c, f)

    def coords(obj):
        b = obj.right.a
        t = obj.right.j - (f.a - b + f.j)
        return b, t

    for one in iv.objects:
        for two in iv.objects:
            hom = iv.homs.get((one, two), ())
            assert len(hom) <= 1
            b1, t1 = coords(one)
            b2, t2 = coords(two)
            assert bool(hom) == (b1 <= b2 and t2 <= t1)


# -- Möbius via intervals --------------------------------------------------------------

def test_moebius_of_identity_is_one():
    c = cm_slice(2, -1)
    assert moebius_via_lawvere(c, CmMorphism(0, 0, 0, 0)) == 1


def test_moebius_examples():
    c = cm_slice(3, -2)
    assert moebius_via_lawvere(c, CmMorphism(1, 1, 0, -2)) == 1
    assert moebius_via_lawvere(c, CmMorphism(2, 0, 0, -2)) == 0


def test_interval_value_agrees_with_convolution_inverse():
    for c in (cm_slice(2, -4), dm_slice(3, 8), poset_as_category(B2)):
        mu = moebius_of_slice(c)
        for f in c.morphisms:
            assert moebius_via_lawvere(c, f) == mu[f]


def _missing_bottom_category():
    """X -> Y with ("f", "1X") omitted from compose: f's bottom factorization is invisible."""
    objects = ["X", "Y"]
    morphisms = ["1X", "1Y", "f"]
    dom = {"1X": "X", "1Y": "Y", "f": "X"}
    cod = {"1X": "X", "1Y": "Y", "f": "Y"}
    compose = {("1X", "1X"): "1X", ("1Y", "1Y"): "1Y", ("1Y", "f"): "f"}
    return CategorySlice(objects, morphisms, dom, cod, compose, {"X": "1X", "Y": "1Y"}, morphisms)


def _chain_without(pair, p=chain([0, 1, 2])):
    """The category of the chain p, 0 < 1 < 2 by default, with the compose
    entry ``pair`` left out."""
    base = poset_as_category(p)
    compose = {entry: k for entry, k in base.compose.items() if entry != pair}
    return CategorySlice(base.objects, base.morphisms, base.dom, base.cod, compose,
                         base.identities, base.complete)


def _chain_with_a_hole():
    """The category of the chain 0 < 1 < ... < 4 without the morphism (1, 3):
    (1, 2) and (2, 3) compose to nothing, so in the interval of (0, 4) the
    factorization through 1 is connected to the one through 2, and that one
    to the one through 3, but nothing connects the first to the third.  The
    table is partial, so the slice is unmarked."""
    base = poset_as_category(chain(range(5)))
    gone = (1, 3)
    morphisms = [f for f in base.morphisms if f != gone]
    compose = {pair: k for pair, k in base.compose.items() if gone not in (*pair, k)}
    return CategorySlice(base.objects, morphisms, base.dom, base.cod, compose,
                         base.identities, morphisms)


def test_missing_trivial_factorization_is_unbounded():
    with pytest.raises(Unbounded):
        moebius_via_lawvere(_missing_bottom_category(), "f")


def test_trivial_factorizations_that_do_not_bound_the_interval_are_unbounded():
    # without (0, 1)∘1_0 nothing connects the bottom ((0, 2), 1_0) to ((1, 2), (0, 1))
    c = _chain_without(((0, 1), (0, 0)))
    with pytest.raises(Unbounded) as caught:
        moebius_via_lawvere(c, (0, 2))
    assert str(caught.value) == "interval of (0, 2) is not bounded by its trivial factorizations"


def test_incomplete_factor_of_a_complete_morphism_is_rejected():
    # without (1, 2), (0, 3)'s interval loses 0 <= 1 <= 2 <= 3; read anyway it gives mu = 1
    base = poset_as_category(chain([0, 1, 2, 3]))
    gone = (1, 2)
    morphisms = [f for f in base.morphisms if f != gone]
    compose = {pair: k for pair, k in base.compose.items() if gone not in (*pair, k)}
    c = CategorySlice(base.objects, morphisms, base.dom, base.cod, compose,
                      base.identities, [(0, 3)])
    assert find_slice_violation(c) is None
    assert c.factorizations((0, 3)) == base.factorizations((0, 3))
    for route in (moebius_via_lawvere, moebius_at):
        with pytest.raises(IncompleteSlice, match=r"factor .* of \(0, 3\) is not marked"):
            route(c, (0, 3))


def test_lawvere_route_needs_only_f_and_its_factors_complete():
    # (0, 3) is a factor of no other morphism
    p = chain([0, 1, 2, 3])
    base = poset_as_category(p)
    complete = [f for f in base.morphisms if f != (0, 3)]
    c = CategorySlice(base.objects, base.morphisms, base.dom, base.cod, base.compose,
                      base.identities, complete)
    for f in complete:
        assert moebius_via_lawvere(c, f) == p.moebius(*f)


# -- the position route against the staged route ---------------------------------

def _staged(c, f, window):
    """The Lawvere route through its public stages: interval, poset, poset μ;
    the trivial factorizations' identities are read from a slice, c or c's window."""
    bottom = Factorization(f, window.identities[window.dom[f]], f)
    top = Factorization(window.identities[window.cod[f]], f, f)
    return interval_as_poset(lawvere_interval(c, f)).moebius(bottom, top)


PARITY_CASES = {
    "cm_slice(3, -6)": lambda: (cm_slice(3, -6), None),
    "dm_slice(3, 14)": lambda: (dm_slice(3, 14), None),
    "cm_source(3)": lambda: (cm_source(3), cm_slice(3, -5)),
    "dm_source(2)": lambda: (dm_source(2), dm_slice(2, 24)),
    **{f"{'marked ' if check else ''}division {name}":
       (lambda name=name, check=check: (division_category(*order_corpus(name, check)), None))
       for check in (False, True) for name in ORDER_CORPUS},
    "poset D12": lambda: (poset_as_category(divisor_poset(12)), None),
    "poset B3 top-first": lambda: (poset_as_category(_top_first(boolean_lattice(3))), None),
    # a and b have two minimal upper bounds, c and d: not a lattice
    "poset bounded bowtie top-first": lambda: (poset_as_category(_top_first(FinitePoset(
        "0abcd1", covers=["0a", "0b", "ac", "ad", "bc", "bd", "c1", "d1"]))), None),
}


@pytest.mark.parametrize("name", list(PARITY_CASES))
def test_position_route_matches_the_staged_route(name, monkeypatch):
    c, window = PARITY_CASES[name]()
    window = window or c
    relabelled = []
    relabel = mucat.poset._relabel
    monkeypatch.setattr(mucat.poset, "_relabel",
                        lambda masks, order: relabelled.append(order) or relabel(masks, order))
    for f in window.morphisms:
        assert moebius_via_lawvere(c, f) == _staged(c, f, window), f
        # verify's lattice test reads the position route's masks, relabelled if need be
        poset = interval_as_poset(lawvere_interval(c, f))
        linear = _position_route(c, f, c._closed_handle(f))[0]
        assert _is_lattice(linear) == poset.is_lattice() == bf_is_lattice(poset), f
    # a top-first poset lists every nontrivial interval top first
    assert bool(relabelled) == name.endswith("top-first")


def _relisted(edit):
    """D_3 as a source that hands the factorizations of (7, 1) through ``edit``."""
    def factorizations(k):
        pairs = paired(D3._enumerate(k))
        return sides(edit(pairs) if k == D3._number[DmMorphism(7, 1)] else pairs)

    return _dm3_source(factorizations)


@pytest.mark.parametrize(
    "make, f, error, message",
    [
        (idempotent_endo_category, "s", NotThin, "hom-set "),
        # the top (1, f) meets a pair listed twice twice; without the top, no hom-set does
        (lambda: _relisted(lambda pairs: pairs + pairs[:1]), DmMorphism(7, 1), NotThin,
         "hom-set "),
        (lambda: _relisted(lambda pairs: pairs[:-1] + pairs[:1]), DmMorphism(7, 1), NotOneWay,
         "interval of DmMorphism(alpha=7, x=1): duplicate elements"),
        (_missing_bottom_category, "f", Unbounded, "interval of 'f' lacks its trivial"),
        (lambda: _chain_without(((0, 1), (0, 0))), (0, 2), Unbounded,
         "interval of (0, 2) is not bounded"),
        # the bottom is least, but ((1, 2), (0, 1)) is not below the top
        (lambda: _chain_without(((2, 2), (1, 2))), (0, 2), Unbounded,
         "interval of (0, 2) is not bounded"),
        # antisymmetry and reflexivity fail on relabelled masks; top first, the
        # bottom ((0, 2), 1_0) is listed last and relabelled to the middle
        (iso_pair_category, "1X", NotOneWay, "interval of '1X': relation is not antisymmetric"),
        (lambda: _chain_without(((0, 0), (0, 0)), _top_first(chain([0, 1, 2]))), (0, 2), NotOneWay,
         "interval of (0, 2): relation is not reflexive at "
         "Factorization(left=(0, 2), right=(0, 0), subject=(0, 2))"),
        (_chain_with_a_hole, (0, 4), NotOneWay,
         "interval of (0, 4): relation is not transitive: "
         "Factorization(left=(1, 4), right=(0, 1), subject=(0, 4)) <= "
         "Factorization(left=(2, 4), right=(0, 2), subject=(0, 4)) <= "
         "Factorization(left=(3, 4), right=(0, 3), subject=(0, 4))"),
    ],
    ids=["not_thin", "listed_twice", "listed_twice_without_top", "missing_bottom",
         "not_bounded_below", "not_bounded_above", "not_antisymmetric", "not_reflexive",
         "not_transitive"],
)
def test_position_route_refuses_as_the_staged_route(make, f, error, message):
    # the staged stages check thinness and the poset laws; only the position
    # route checks that the trivial factorizations bound the interval
    c = make()
    with pytest.raises(error) as direct:
        moebius_via_lawvere(c, f)
    assert type(direct.value) is error
    assert str(direct.value).startswith(message)
    if error is not Unbounded:
        with pytest.raises(error) as staged:
            interval_as_poset(lawvere_interval(c, f))
        assert type(staged.value) is error
        assert str(staged.value) == str(direct.value)


# -- the keyed walk on checked slices -------------------------------------------

class _CountingRows(list):
    """A slice's composition table, one row per left factor, that counts the
    composites read through any row's ``get``."""

    def __init__(self, rows):
        super().__init__(_CountingRow(row, self) for row in rows)
        self.reads = 0


class _CountingRow(dict):
    def __init__(self, row, rows):
        super().__init__(row)
        self.rows = rows

    def get(self, key, default=None):
        self.rows.reads += 1
        return super().get(key, default)


def _walks(c):
    """Each morphism's walk on c (its pairs, how many distinct pairs they
    hold and its masks) and how many composites the walks read."""
    table = c._after = _CountingRows(_rows(c))
    return [_walk(c, k) for k in range(len(c.morphisms))], table.reads


def _lists_a_right_factor_twice(c) -> bool:
    return any(len(set(rights)) < len(rights) for _, rights in c._facts)


def _letter_slice(objects, ends, compose):
    """The slice on one-letter objects whose morphisms run as ``ends`` says
    (dom then cod), with the entries ``compose``, then every identity entry;
    "1X" is the identity of X, and every morphism is complete."""
    ident = {x: f"1{x}" for x in objects}
    compose = dict(compose)
    for g, (x, y) in ends.items():
        compose[g, ident[x]] = compose[ident[y], g] = g
    dom = {g: x for g, (x, _) in ends.items()}
    cod = {g: y for g, (_, y) in ends.items()}
    return CategorySlice(objects, list(ends), dom, cod, compose, ident, list(ends))


def _two_left_factors():
    """A one-way category with u∘v = u2∘v = f: f's list names v twice.  Its
    table composes every composable pair and is associative."""
    ends = {"1A": "AA", "1B": "BB", "1C": "CC", "v": "AB", "u": "BC", "u2": "BC", "f": "AC"}
    return _letter_slice("ABC", ends, {("u", "v"): "f", ("u2", "v"): "f"})


def _two_connecting_morphisms():
    """A category with h∘v = k∘v = w, u2∘h = u2∘k = u and u∘v = u2∘w = f:
    h and k both connect (u, v) to (u2, w), so f's interval is not thin.  Its
    table composes every composable pair and is associative, and f's list
    names each right factor once."""
    ends = {"1A": "AA", "1B": "BB", "1P": "PP", "1C": "CC", "v": "AB", "h": "BP", "k": "BP",
            "w": "AP", "u2": "PC", "u": "BC", "f": "AC"}
    return _letter_slice("ABPC", ends, {
        ("h", "v"): "w", ("k", "v"): "w", ("u2", "h"): "u", ("u2", "k"): "u",
        ("u", "v"): "f", ("u2", "w"): "f",
    })


KEYED_CORPUS = {
    "cm_slice(3,-4)": lambda: cm_slice(3, -4),
    "cm_slice(2,-6)": lambda: cm_slice(2, -6),
    "poset D12": lambda: poset_as_category(divisor_poset(12)),
    "poset B3 top-first": lambda: poset_as_category(_top_first(boolean_lattice(3))),
    **{f"division {name}": (lambda name=name: division_category(*order_corpus(name, check=False)))
       for name in ORDER_CORPUS},
    "opposite cm_slice(3,-4)": lambda: opposite(cm_slice(3, -4)),
    # POI_4's division category lists a left factor twice: its opposite mixes both walks
    "opposite division POI_4": lambda: opposite(
        division_category(*order_corpus("POI_4", check=False)), random.Random(35)),
    "iso pair": iso_pair_category,
    "idempotent endo": idempotent_endo_category,
    "u∘v = u2∘v": _two_left_factors,
    "h∘v = k∘v": _two_connecting_morphisms,
}


@pytest.mark.parametrize("name", list(KEYED_CORPUS))
def test_keyed_walk_equals_the_walk_by_composite(name):
    # a passing law check on a total table lets the walk key positions by
    # right factor; masks, hom-sets, values and refusals stay the unchecked
    # walk's.  factor_slice's windows arrive marked, so plain's mark is cleared
    checked, plain = KEYED_CORPUS[name](), KEYED_CORPUS[name]()
    plain._associative = False
    assert find_slice_violation(checked) is None and checked._associative
    keyed, keyed_reads = _walks(checked)
    walked, reads = _walks(plain)
    assert keyed == walked
    assert (keyed_reads == 0) is not _lists_a_right_factor_twice(checked) and reads > 0
    for f in checked.morphisms:
        homs = lawvere_interval(checked, f).homs
        assert homs == lawvere_interval(plain, f).homs
        assert homs == bf_lawvere_homs(checked, f), f  # an opposite lists pairs in its own order
        for routes in (_in_turn, _both_routes):
            assert _values_or_error(routes, checked, f) == _values_or_error(routes, plain, f), f


def test_a_fresh_cm_window_walks_every_morphism_by_right_factor():
    # factor_slice decides Light's verdict as it builds, so no law check is
    # needed before the walk stops reading composites
    built, plain = cm_slice(5, -10), cm_slice(5, -10)
    assert built._associative
    plain._associative = False
    keyed, keyed_reads = _walks(built)
    walked, reads = _walks(plain)
    assert keyed_reads == 0 < reads and keyed == walked


def test_a_right_factor_listed_twice_keeps_the_walk_by_composite():
    c = _two_left_factors()
    assert find_slice_violation(c) is None and c._associative
    table = c._after = _CountingRows(_rows(c))
    for k, f in enumerate(c.morphisms):  # only f's list names a right factor twice
        before = table.reads
        _walk(c, k)
        assert (table.reads > before) is (f == "f"), f
    assert _walks(c)[0] == _walks(_two_left_factors())[0]
    # bottom (f, 1A) < (u, v), (u2, v) < top (1C, f): mu = 1 on both routes
    assert moebius_via_lawvere(c, "f") == moebius_at(c, "f") == moebius_of_slice(c)["f"] == 1


def test_keyed_walk_counts_a_hom_set_with_two_elements():
    c = _two_connecting_morphisms()
    assert find_slice_violation(c) is None and c._associative
    source, target = Factorization("u", "v", "f"), Factorization("u2", "w", "f")
    assert lawvere_interval(c, "f").homs[source, target] == ("h", "k")
    walks = []
    for associative in (True, False):  # the keyed walk, then the walk by composite
        c._associative = associative
        with pytest.raises(NotThin) as caught:
            moebius_via_lawvere(c, "f")
        assert str(caught.value) == f"hom-set {(source, target)!r} has 2 elements"
        table = c._after = _CountingRows(_rows(c))
        pairs, _, up, more = _walk(c, c.morphisms.index("f"))
        walks.append(((pairs, up, more), table.reads))
    (keyed, keyed_reads), (walked, reads) = walks
    assert keyed == walked and keyed_reads == 0 < reads
    assert list(keyed[2].values()) == [2]  # _more: one hom-set, with two elements


@pytest.mark.parametrize(
    "base",
    [cm_slice(2, -3), poset_as_category(divisor_poset(12)),
     division_category(*order_corpus("Brandt B_3", check=False))],
    ids=["cm_slice(2,-3)", "poset(divisors 12)", "division(Brandt B_3)"],
)
def test_planted_edits_get_the_verdict_only_when_associative_and_total(base):
    # redirect one entry to another morphism with the same endpoints, maybe
    # dropping one; the walk and the route's refusals stay the unchecked slice's
    rng = random.Random(35)
    entries = list(base.compose.items())
    refused = 0
    for _ in range(25):
        compose = dict(entries)
        for (pair, _) in rng.sample(entries, rng.randint(0, 1)):
            del compose[pair]
        (g, h), _ = rng.choice(entries)
        if (g, h) in compose:
            compose[g, h] = rng.choice(base.hom(base.dom[h], base.cod[g]))

        def make():
            return CategorySlice(base.objects, base.morphisms, base.dom, base.cod, compose,
                                 base.identities, base.complete)

        c = make()
        violation = find_slice_violation(c)
        assert c._associative is (violation is None and len(compose) == len(entries))
        refused += violation is not None
        assert _walks(c)[0] == _walks(make())[0]
        for f in c.morphisms:
            assert _values_or_error(_in_turn, c, f) == _values_or_error(_in_turn, make(), f)
    assert refused
    c = _one_object_slice()  # total, and (a∘a)∘b != a∘(a∘b)
    assert find_slice_violation(c) is not None and not c._associative


def test_partial_window_passes_the_law_check_but_keeps_the_walk_by_composite():
    c = dm_slice(3, 30)  # its cap drops composites: the table is partial
    assert find_slice_violation(c) is None and not c._associative
    walks, reads = _walks(c)
    assert reads > 0 and walks == _walks(dm_slice(3, 30))[0]


def _without(c, w):
    """c without the morphism w and every entry naming it, none marked
    complete: a table in which some u'∘h of a walk is missing."""
    return CategorySlice(c.objects, [f for f in c.morphisms if f != w], c.dom, c.cod,
                         {p: k for p, k in c.compose.items() if w not in (*p, k)}, c.identities)


@pytest.mark.parametrize(
    "make, holed",
    [
        (lambda: dm_slice(3, 30), False),
        (lambda: slice_product(cm_slice(2, -1), dm_slice(3, 5)), False),
        (lambda: _without(dm_slice(3, 30), DmMorphism(4, 1)), True),
        (lambda: slice_product(cm_slice(2, -1), _without(dm_slice(3, 5), DmMorphism(4, 1))), True),
    ],
    ids=["dm_slice(3,30)", "cm_slice(2,-1) x dm_slice(3,5)", "dm_slice(3,30) - (4,1)",
         "cm_slice(2,-1) x (dm_slice(3,5) - (4,1))"],
)
def test_walk_by_composite_on_a_partial_table_matches_the_definition(make, holed):
    # u'∘h is a left factor of the root, so a cap that keeps every factor of
    # the root drops none of them; a hole in the window does
    c = make()
    assert not c._associative
    at, after, facts, missing = c.morphisms, _rows(c), c._facts, 0
    for k, f in enumerate(at):
        found = {}
        pairs, distinct, up, more = _walk(c, k, found)
        pairs = list(zip(*pairs))
        objects = [(at[u], at[v], f) for u, v in pairs]
        homs = bf_lawvere_homs(c, f)
        assert distinct == len(objects) and set(objects) == {a for a, _ in homs}
        index = dict(zip(objects, range(len(objects))))
        assert {(objects[i], objects[j]): tuple([at[h] for h in hs])
                for (i, j), hs in found.items()} == homs
        assert up == [sum([1 << index[b] for a, b in homs if a == obj]) for obj in objects]
        assert more == {(index[a], index[b]): len(hs) for (a, b), hs in homs.items() if len(hs) > 1}
        missing += sum([after[u].get(h) is None for u, v2 in pairs for h in facts[v2][0]])
    assert (missing > 0) is holed


def test_division_category_takes_its_semigroups_verdict():
    s, transversal = order_corpus("boolean B_4", check=False)
    assert not division_category(s, transversal)._associative  # no check has run
    assert find_semigroup_violation(s) is None
    checked = division_category(s, transversal)
    assert checked._associative
    assert _walks(checked)[1] == 0
    # Light's test fails on (c, b, c), yet the table still has a division category
    failing = InverseSemigroup("abc", ["aaa", "aba", "acc"])
    assert find_semigroup_violation(failing) == "associativity fails on ('c', 'b', 'c')"
    c = division_category(failing)
    assert not c._associative and _walks(c)[1] > 0


def test_division_category_fills_its_rows_on_the_first_read_that_needs_them():
    c = division_category(*order_corpus("boolean B_4", check=True))
    mu = moebius_of_slice(c)
    assert all(moebius_via_lawvere(c, f) == mu[f] for f in c.morphisms)
    assert c._after == []  # walked by right factor: no composite was read
    assert find_slice_violation(c) is None
    at = c.morphisms
    assert {(at[g], at[h]): at[k] for g, row in enumerate(c._after) for h, k in row.items()} == dict(
        c.compose.items())


@pytest.mark.parametrize(
    "make",
    [lambda: cm_slice(5, -10),
     *[lambda name=name: division_category(*order_corpus(name, check=True))
       for name in ORDER_CORPUS]],
    ids=["marked cm_slice(5,-10)", *[f"marked division {name}" for name in ORDER_CORPUS]],
)
def test_marked_routes_read_no_composite_and_homs_read_them(make):
    # the routes and the interval's masks stay on the keyed walk; the hom-sets,
    # which no route reads, come from the walk by composite
    c = make()
    assert c._associative
    table = c._after = _CountingRows(_rows(c))
    for f in c.morphisms:
        moebius_via_lawvere(c, f)
        iv = lawvere_interval(c, f)
        assert table.reads == 0, f
        assert iv.homs == bf_lawvere_homs(c, f), f
        assert table.reads > 0, f
        table.reads = 0


# -- the transitivity proof ---------------------------------------------------------

def _law_spy(monkeypatch):
    """Record the ``transitive`` argument of every ``_linear`` call, from the
    Lawvere route and from poset builds alike; where it is set, the full law
    check must return the same (order, masks)."""
    flags, full = [], mucat.poset._linear

    def spy(up, name, transitive=False):
        flags.append(transitive)
        if transitive:
            assert full(up, name, True) == full(up, name), "the proof path differs"
        return full(up, name, transitive)

    monkeypatch.setattr(mucat.poset, "_linear", spy)
    monkeypatch.setattr(mucat.lawvere, "_linear", spy)
    return flags


def _fresh_division(name, check=True):
    """(s, division category) for a fresh semigroup s of ORDER_CORPUS[name],
    checked, so that the category is marked, unless check is False."""
    s, transversal = order_corpus(name, check)
    return s, division_category(s, transversal)


def _every_order(s, c, morphisms):
    """Build each morphism's interval order by both Lawvere routes and, for a
    division category of s, every Q(e) and E(S)."""
    for f in morphisms:
        moebius_via_lawvere(c, f)
        interval_as_poset(lawvere_interval(c, f))
    if s is not None:
        for e in c.objects:
            quotient_poset(c, e)
        s.idempotent_poset()


MARKED_CORPUS = {
    **{f"cm_slice({m},{floor})": (lambda m=m, floor=floor: (None, cm_slice(m, floor)))
       for m, floor in [(2, -12), (3, -9), (4, -8), (5, -10)]},
    "poset D60": lambda: (None, poset_as_category(divisor_poset(60))),
    "poset B4": lambda: (None, poset_as_category(boolean_lattice(4))),
    "poset B3 top-first": lambda: (None, poset_as_category(_top_first(boolean_lattice(3)))),
    **{f"division {name}": (lambda name=name: _fresh_division(name)) for name in ORDER_CORPUS},
}


@pytest.mark.parametrize("name", list(MARKED_CORPUS))
def test_proof_path_matches_the_full_law_check_on_marked_structures(name, monkeypatch):
    # every interval, every Q(e) and E(S): each skips the transitivity loop,
    # and the loop, run beside it, would have returned the same
    s, c = MARKED_CORPUS[name]()
    assert c._associative
    flags = _law_spy(monkeypatch)
    _every_order(s, c, c.morphisms)
    # one interval_as_poset per morphism, one order per object for the route
    assert len(flags) == len(c.morphisms) + len(c.objects) + (0 if s is None else len(c.objects) + 1)
    assert all(flags)


def _unmarked_window():
    c = cm_slice(3, -6)
    c._associative = False
    return c


@pytest.mark.parametrize("make, window", [
    (lambda: (None, cm_source(3)), cm_slice(3, -5)),
    (lambda: (None, dm_source(2)), dm_slice(2, 24)),
    (lambda: (None, dm_slice(3, 14)), None),  # a partial window: never marked
    (lambda: (None, _unmarked_window()), None),
    (lambda: _fresh_division("boolean B_4", check=False), None),
], ids=["cm_source", "dm_source", "dm_slice", "unmarked cm_slice", "unchecked division"])
def test_the_transitivity_loop_runs_on_sources_and_unmarked_slices(make, window, monkeypatch):
    s, c = make()
    assert not c._associative
    flags = _law_spy(monkeypatch)
    _every_order(s, c, (window or c).morphisms)
    FinitePoset("ab", leq=["aa", "ab", "bb"])
    FinitePoset("ab", covers=["ab"])
    chain("ab")
    assert flags and not any(flags)


def test_a_hole_in_the_table_passes_the_law_check_but_leaves_the_slice_unmarked():
    # the scan finds no triple whose two bracketings differ, but the table is
    # partial, so the intervals keep the transitivity loop, which refuses
    # (0, 4)'s (the not_transitive case of the position route's refusals)
    c = _chain_with_a_hole()
    assert find_slice_violation(c) is None and not c._associative


# -- one order per object -------------------------------------------------------------

def _marked(c):
    """c once its law check has passed, which marks a total table."""
    assert find_slice_violation(c) is None and c._associative
    return c


def _marked_with_incomplete_morphisms():
    """B_3's category, marked, with the morphisms into the top not marked
    complete: the routes refuse them, and read the others by their orders,
    which hold the incomplete morphisms too."""
    base = poset_as_category(boolean_lattice(3))
    top = base.objects[-1]
    complete = [f for f in base.morphisms if f[1] != top]
    return _marked(CategorySlice(base.objects, base.morphisms, base.dom, base.cod, base.compose,
                                 base.identities, complete))


BOWTIE = "poset bounded bowtie top-first"
OBJECT_ORDER_CASES = {  # name: (make, objects with no order, objects whose order plus a top is no lattice)
    "cm_slice(2,-6)": (lambda: cm_slice(2, -6), set(), set()),
    "cm_slice(5,-3)": (lambda: cm_slice(5, -3), set(), set()),
    "poset D12": (lambda: poset_as_category(divisor_poset(12)), set(), set()),
    "poset B3 top-first": (lambda: poset_as_category(_top_first(boolean_lattice(3))), set(), set()),
    BOWTIE: (lambda: PARITY_CASES[BOWTIE]()[0], set(), {"0"}),
    **{f"{'marked' if check else 'unmarked'} division {name}":
       (lambda name=name, check=check: division_category(*order_corpus(name, check)), set(), set())
       for check in (True, False) for name in ORDER_CORPUS},
    "marked, incomplete into the top": (_marked_with_incomplete_morphisms, set(), set()),
    # A's lists name v twice; B's and C's orders stand
    "marked u∘v = u2∘v": (lambda: _marked(_two_left_factors()), {"A"}, set()),
    "marked h∘v = k∘v": (lambda: _marked(_two_connecting_morphisms()), {"A"}, set()),
}


def _walk_spy(monkeypatch):
    """The morphisms whose walks run, decoded, in call order."""
    walked, walk = [], mucat.lawvere._walk

    def spy(c, root, found=None, eta=None):
        walked.append(c._at[root])
        return walk(c, root, found, eta)

    monkeypatch.setattr(mucat.lawvere, "_walk", spy)
    return walked


def _swept(c):
    """``_lawvere_sweep``'s (μ, lattice) pairs, then the error that stopped it, if any."""
    out = []
    try:
        out.extend(_lawvere_sweep(c))
    except MucatError as exc:
        out.append((type(exc), str(exc)))
    return out


def _walked(c):
    """(μ, lattice) of each morphism from its own walk and its own lattice
    test, in slice order, up to the first error, which ends the list."""
    out = []
    for f in c.morphisms:
        try:
            linear, law = _position_route(c, f, c._closed_handle(f))
        except MucatError as exc:
            return out + [(type(exc), str(exc))]
        out.append((law, _is_lattice(linear)))
    return out


@pytest.mark.parametrize("name", list(OBJECT_ORDER_CASES))
def test_object_orders_give_the_walks_values_and_lattice_verdicts(name):
    make = OBJECT_ORDER_CASES[name][0]
    c = make()
    for f in c.morphisms:
        assert (_values_or_error(moebius_via_lawvere, c, f)
                == _values_or_error(lambda c, f: _position_route(c, f, c._closed_handle(f))[-1],
                                    make(), f)), f
    assert _swept(c) == _walked(make())


@pytest.mark.parametrize("name", list(OBJECT_ORDER_CASES))
def test_object_orders_run_where_their_checks_pass_and_the_walk_elsewhere(name, monkeypatch):
    make, no_order, no_lattice = OBJECT_ORDER_CASES[name]
    monkeypatch.setattr(mucat.lawvere, "_invert_from", None)  # μ is a column, not the recursion
    walked, c = _walk_spy(monkeypatch), make()
    for f in c.morphisms:
        _values_or_error(moebius_via_lawvere, c, f)
    complete = [f for f in c.morphisms if f in c.complete]
    if not c._associative:
        assert c._orders == {} and walked == complete
        return
    orders = {c.objects[x]: order for x, order in c._orders.items()}
    assert {x for x, order in orders.items() if order is None} == no_order
    assert set(orders) == {c.dom[f] for f in complete}  # each built once, on a complete f
    assert walked == [f for f in complete if c.dom[f] in no_order]
    walked.clear()
    _swept(c)
    assert walked == [f for f in complete if c.dom[f] in no_order | no_lattice]


def test_sweep_reads_no_column_of_an_object_whose_lattice_test_fails(monkeypatch):
    # the bowtie's P_0 with a top added is no lattice: each morphism out of 0
    # takes one walk, whose column gives μ, and P_0's own column is not read
    make = OBJECT_ORDER_CASES[BOWTIE][0]
    c, expected = make(), _walked(make())
    walked, columns, column = _walk_spy(monkeypatch), [], mucat.lawvere._moebius_to
    monkeypatch.setattr(mucat.lawvere, "_moebius_to",
                        lambda up, q: columns.append(q) or column(up, q))
    swept = []
    for f, pair in zip(c.morphisms, _lawvere_sweep(c)):
        assert walked == ([f] if c.dom[f] == "0" else []) and len(columns) == 1, f
        swept.append(pair)
        walked.clear()
        columns.clear()
    assert swept == expected and len(swept) == len(c.morphisms)


IDENTITY_LEAST_CASES = {
    **{name: case[0] for name, case in OBJECT_ORDER_CASES.items()
       if not name.startswith("unmarked")},
    # the iso pair's and the idempotent endo's orders are all refused
    **{f"checked {name}": (lambda name=name: _marked(KEYED_CORPUS[name]())) for name in KEYED_CORPUS
       if name not in ("iso pair", "idempotent endo")},
}


@pytest.mark.parametrize("name", list(IDENTITY_LEAST_CASES))
def test_every_object_order_has_its_identity_least(name):
    # _object_order checks no least element: the right identity law, which
    # the mark rests on, puts (w, 1_x) in the list of every w out of x
    c = IDENTITY_LEAST_CASES[name]()
    assert c._associative
    orders = [mucat.lawvere._object_order(c, x) for x in range(len(c.objects))]
    assert any(order is not None for order in orders)
    for x, order in enumerate(orders):
        if order is not None:
            up, position, one = order
            assert one == position[c._ident[x]] and up[one] == (1 << len(up)) - 1, c.objects[x]


@pytest.mark.parametrize("name", ["marked, incomplete into the top", "marked u∘v = u2∘v",
                                  "marked h∘v = k∘v", BOWTIE],
                         ids=["incomplete into the top", "listed twice u", "listed twice h", "bowtie"])
def test_each_route_call_checks_its_morphism_once(name, monkeypatch):
    # the walk a marked slice falls back on takes the handle _placed read,
    # in the route and in the sweep alike
    make = OBJECT_ORDER_CASES[name][0]
    c, expected = make(), make()
    checked, real = [], CategorySlice._closed_handle

    def spy(c, f, factors=True):
        checked.append(f)
        return real(c, f, factors)

    monkeypatch.setattr(CategorySlice, "_closed_handle", spy)
    for f in c.morphisms:
        checked.clear()
        got = _values_or_error(moebius_via_lawvere, c, f)
        assert checked == [f]
        monkeypatch.setattr(CategorySlice, "_closed_handle", real)
        assert got == _values_or_error(
            lambda c, f: _position_route(c, f, c._closed_handle(f))[-1], expected, f), f
        monkeypatch.setattr(CategorySlice, "_closed_handle", spy)
    checked.clear()
    swept = _swept(c)
    assert checked == list(c.morphisms[:len(checked)]) and len(checked) == len(swept)
    monkeypatch.setattr(CategorySlice, "_closed_handle", real)
    assert swept == _walked(make())
