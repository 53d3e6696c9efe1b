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
    NotOneWay,
    NotThin,
    Unbounded,
    chain,
    cm_slice,
    cm_source,
    division_category,
    dm_slice,
    dm_source,
    find_slice_violation,
    interval_as_poset,
    is_one_way,
    is_one_way_category,
    lawvere_interval,
    moebius_at,
    moebius_of_slice,
    moebius_via_lawvere,
    poset_as_category,
)
import mucat.poset
from mucat.cm_dm import _dm_factorizations
from mucat.errors import MucatError
from mucat.lawvere import _both_routes, _position_route
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
    product,
)

from test_category import (
    BAD_PAIR_IDS,
    BAD_PAIRS,
    _dm3_source,
    _one_bad_pair_source,
    _wrong_identity_source,
    idempotent_endo_category,
    iso_pair_category,
)
from test_semigroups import ORDER_CORPUS


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
                   lambda s: _both_routes(s, f, {})):
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
    monkeypatch.setattr(mucat.lawvere, "_invert_from", lambda *a: fallbacks.append(a[-1]) or real(*a))
    window = dm_slice(3, 14)
    reversed_lists = _dm3_source(lambda k: _dm_factorizations(3, k)[::-1])
    for f in window.morphisms:
        assert _both_routes(reversed_lists, f, {}) == _in_turn(reversed_lists, f)
    assert fallbacks == [f for f in window.morphisms if f.alpha != f.x]
    fallbacks.clear()
    for f in window.morphisms:  # lists in the enumerator's order need no fallback
        assert _both_routes(_dm3_source(), f, {}) == _in_turn(_dm3_source(), f)
    assert fallbacks == []


def _iso_pair_source_with_wrong_identity():
    """The iso pair read through its rules, with f: X -> Y given as Y's identity."""
    c = iso_pair_category()
    return FactorizationSource(c.factorizations, c.dom.__getitem__, c.cod.__getitem__,
                               lambda x: "f" if x == "Y" else c.identities[x],
                               c.compose.__getitem__, c.factorizations)


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
        assert _values_or_error(lambda c, f: _both_routes(c, f, {}), make(), f) == expected
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
    (lambda: division_category(*ORDER_CORPUS["Brandt B_3"]), True),
], ids=["iso_pair", "idempotent_endo", "B3_top_first", "D12_top_first", "division_brandt_3"])
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

def _staged(c, f):
    """The Lawvere route through its public stages: interval, poset, poset μ."""
    bottom = Factorization(f, c.identities[c.dom[f]], f)
    top = Factorization(c.identities[c.cod[f]], f, f)
    return interval_as_poset(lawvere_interval(c, f)).moebius(bottom, top)


PARITY_CASES = {
    "cm_slice(3, -6)": lambda: (cm_slice(3, -6), None),
    "dm_slice(3, 14)": lambda: (dm_slice(3, 14), None),
    "cm_source(3)": lambda: (cm_source(3), cm_slice(3, -5).morphisms),
    "dm_source(2)": lambda: (dm_source(2), dm_slice(2, 24).morphisms),
    **{f"division {name}": (lambda s=s, t=t: (division_category(s, t), None))
       for name, (s, t) in ORDER_CORPUS.items()},
    "poset D12": lambda: (poset_as_category(divisor_poset(12)), None),
    "poset B3 top-first": lambda: (poset_as_category(_top_first(boolean_lattice(3))), None),
    # a and b have two minimal upper bounds, c and d: not a lattice
    "poset bounded bowtie top-first": lambda: (poset_as_category(_top_first(FinitePoset(
        "0abcd1", covers=["0a", "0b", "ac", "ad", "bc", "bd", "c1", "d1"]))), None),
}


@pytest.mark.parametrize("name", list(PARITY_CASES))
def test_position_route_matches_the_staged_route(name, monkeypatch):
    c, morphisms = PARITY_CASES[name]()
    relabelled = []
    relabel = mucat.poset._relabel
    monkeypatch.setattr(mucat.poset, "_relabel",
                        lambda masks, order: relabelled.append(order) or relabel(masks, order))
    for f in morphisms or c.morphisms:
        assert moebius_via_lawvere(c, f) == _staged(c, f), f
        # verify's lattice test reads the position route's masks, relabelled if need be
        poset = interval_as_poset(lawvere_interval(c, f))
        assert _is_lattice(_position_route(c, f)[1]) == poset.is_lattice() == bf_is_lattice(poset), f
    # a top-first poset lists every nontrivial interval top first
    assert bool(relabelled) == name.endswith("top-first")


def _relisted(edit):
    """D_3 as a source that hands the factorizations of (7, 1) through ``edit``."""
    def factorizations(k):
        pairs = _dm_factorizations(3, k)
        return edit(pairs) if k == DmMorphism(7, 1) else pairs

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
    ],
    ids=["not_thin", "listed_twice", "listed_twice_without_top", "missing_bottom",
         "not_bounded_below", "not_bounded_above", "not_antisymmetric", "not_reflexive"],
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
