import pytest

from mucat import (
    CategorySlice,
    CmMorphism,
    DmMorphism,
    Factorization,
    IncompleteSlice,
    NotOneWay,
    NotThin,
    Unbounded,
    chain,
    cm_slice,
    division_category,
    dm_slice,
    find_slice_violation,
    interval_as_poset,
    is_one_way,
    lawvere_interval,
    meet_semilattice,
    moebius_of_slice,
    moebius_test,
    moebius_via_lawvere,
    poset_as_category,
)

from helpers import (
    B2,
    are_isomorphic,
    bf_lawvere_homs,
    boolean_lattice,
    divisor_poset,
    is_total_order,
)

from test_category import idempotent_endo_category, iso_pair_category


# -- interval construction ----------------------------------------------------

def test_interval_of_identity_is_a_point():
    c = poset_as_category(chain([0, 1]))
    iv = lawvere_interval(c, (0, 0))
    assert len(iv.objects) == 1
    (obj,) = iv.objects
    assert iv.hom(obj, obj) == ((0, 0),)


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
    assert iv.hom(bottom, top) == (f,)
    assert iv.hom(top, bottom) == ()


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


# -- one-way test ----------------------------------------------------------------

def test_poset_intervals_are_one_way():
    c = poset_as_category(B2)
    for f in c.morphisms:
        assert is_one_way(lawvere_interval(c, f))


def test_iso_pair_interval_is_not_one_way():
    c = iso_pair_category()
    assert not is_one_way(lawvere_interval(c, "1X"))


def test_moebius_test_on_level_category_window():
    assert moebius_test(cm_slice(3, -4))


def test_moebius_test_on_poset_category():
    assert moebius_test(poset_as_category(B2))


def test_moebius_test_rejects_iso_pair():
    assert not moebius_test(iso_pair_category())


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
    product = chain(range(f.a + 1)).product(chain(range(f.i - f.j - f.a + 1)))
    assert are_isomorphic(poset, product)
    assert poset.is_lattice()


def test_thin_violation_is_reported():
    with pytest.raises(NotThin):
        interval_as_poset(lawvere_interval(idempotent_endo_category(), "s"))


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
            hom = iv.hom(one, two)
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


def test_missing_trivial_factorization_is_unbounded():
    objects = ["X", "Y"]
    morphisms = ["1X", "1Y", "f"]
    dom = {"1X": "X", "1Y": "Y", "f": "X"}
    cod = {"1X": "X", "1Y": "Y", "f": "Y"}
    compose = {
        ("1X", "1X"): "1X",
        ("1Y", "1Y"): "1Y",
        ("1Y", "f"): "f",
        # ("f", "1X") omitted: the bottom factorization is invisible
    }
    broken = CategorySlice(objects, morphisms, dom, cod, compose, {"X": "1X", "Y": "1Y"}, morphisms)
    with pytest.raises(Unbounded):
        moebius_via_lawvere(broken, "f")


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
    with pytest.raises(IncompleteSlice, match=r"factor .* of \(0, 3\) is not marked"):
        moebius_via_lawvere(c, (0, 3))


def test_lawvere_route_needs_only_f_and_its_factors_complete():
    # (0, 3) is a factor of no other morphism
    p = chain([0, 1, 2, 3])
    base = poset_as_category(p)
    complete = [f for f in base.morphisms if f != (0, 3)]
    c = CategorySlice(base.objects, base.morphisms, base.dom, base.cod, base.compose,
                      base.identities, complete)
    for f in complete:
        assert moebius_via_lawvere(c, f) == p.moebius(*f)
