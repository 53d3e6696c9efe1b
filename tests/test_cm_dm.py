import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucat import (
    CmMorphism,
    CmObject,
    DmMorphism,
    Factorization,
    NotComposable,
    cm_compose,
    cm_factorization_objects,
    cm_hom,
    cm_identity,
    cm_moebius_closed_form,
    cm_slice,
    cm_source,
    dm_compose,
    dm_hom_bounded,
    dm_identity,
    dm_moebius_closed_form,
    dm_slice,
    dm_source,
    find_slice_violation,
    functor_F,
    functor_F_object,
    lawvere_interval,
    moebius_at,
    moebius_of_slice,
    moebius_via_lawvere,
    validate_cm_morphism,
    validate_dm_morphism,
)

from mucat.cm_dm import validate_cm_object

from helpers import bf_compose


def cm_member(m, f, source, target):
    """Membership predicate straight from the hom-set definition."""
    return (
        f.x == source.residue
        and f.i == source.level
        and f.j == target.level
        and 0 <= f.a <= f.i - f.j
        and (f.a + f.x) % m == target.residue
    )


# -- representation -------------------------------------------------------------

REPRESENTATIVES = [
    CmObject(2, -3),
    CmMorphism(1, 0, 0, -2),
    DmMorphism(7, 2),
    Factorization(CmMorphism(1, 0, 0, -2), CmMorphism(0, 0, 0, 0), CmMorphism(1, 0, 0, -2)),
]


@pytest.mark.parametrize("obj", REPRESENTATIVES, ids=lambda o: type(o).__name__)
def test_values_hash_and_compare_as_their_field_tuples(obj):
    fields = tuple(getattr(obj, name) for name in obj._fields)
    assert hash(obj) == hash(fields)
    assert obj == fields


@pytest.mark.parametrize("obj", REPRESENTATIVES, ids=lambda o: type(o).__name__)
def test_values_are_immutable(obj):
    with pytest.raises(AttributeError):
        setattr(obj, obj._fields[0], 0)


def test_morphism_text_forms():
    f = CmMorphism(1, 0, 0, -2)
    assert str(f) == "1,0,0,-2"
    assert repr(f) == "CmMorphism(a=1, x=0, i=0, j=-2)"
    assert str(CmObject(2, -3)) == "2,-3"
    assert str(DmMorphism(7, 2)) == "7,2"
    assert sorted([CmMorphism(0, 3, 0, -1), CmMorphism(0, 1, 0, -1)])[0] == CmMorphism(0, 1, 0, -1)


# -- hom-set enumeration --------------------------------------------------------

def test_hom_identity_only():
    assert cm_hom(2, CmObject(0, 0), CmObject(0, 0)) == [CmMorphism(0, 0, 0, 0)]


def test_hom_single_shift():
    assert cm_hom(2, CmObject(0, 0), CmObject(1, -1)) == [CmMorphism(1, 0, 0, -1)]


def test_hom_empty_when_level_rises():
    assert cm_hom(2, CmObject(0, -1), CmObject(1, 0)) == []


def test_hom_every_residue_step():
    fs = cm_hom(3, CmObject(0, 0), CmObject(0, -7))
    assert [f.a for f in fs] == [0, 3, 6]


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=-5, max_value=0),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=-5, max_value=0),
)
@settings(max_examples=120, deadline=None)
def test_hom_matches_membership_predicate(m, xr, i, yr, j):
    source = CmObject(xr % m, i)
    target = CmObject(yr % m, j)
    members = set(cm_hom(m, source, target))
    for a in range(0, 8):
        f = CmMorphism(a, source.residue, i, j)
        assert (f in members) == cm_member(m, f, source, target)


# -- composition ------------------------------------------------------------------

def test_compose_with_identities():
    f = CmMorphism(1, 0, 0, -1)
    left = cm_identity(CmObject(1, -1))
    right = cm_identity(CmObject(0, 0))
    assert cm_compose(2, left, f) == f
    assert cm_compose(2, f, right) == f


def test_compose_formula():
    assert cm_compose(2, CmMorphism(1, 1, -1, -2), CmMorphism(1, 0, 0, -1)) == CmMorphism(2, 0, 0, -2)


def test_compose_rejects_level_mismatch():
    with pytest.raises(NotComposable):
        cm_compose(2, CmMorphism(0, 1, -2, -2), CmMorphism(1, 0, 0, -1))


def test_compose_rejects_residue_mismatch():
    with pytest.raises(NotComposable):
        cm_compose(2, CmMorphism(0, 0, -1, -1), CmMorphism(1, 0, 0, -1))


def test_morphism_validation():
    with pytest.raises(ValueError):
        validate_cm_morphism(2, CmMorphism(2, 0, 0, -1))  # a > i - j
    with pytest.raises(ValueError):
        validate_cm_morphism(2, CmMorphism(0, 2, 0, 0))  # residue too big
    with pytest.raises(ValueError):
        validate_cm_morphism(2, CmMorphism(0, 0, 1, 0))  # positive level
    with pytest.raises(ValueError):
        validate_cm_morphism(1, CmMorphism(0, 0, 0, 0))  # modulus too small


def test_object_validation():
    validate_cm_object(2, CmObject(1, -3))
    with pytest.raises(ValueError, match=r"^residue 2 not in \[0, 2\)$"):
        validate_cm_object(2, CmObject(2, 0))
    with pytest.raises(ValueError, match="^level 1 is positive$"):
        validate_cm_object(2, CmObject(0, 1))
    with pytest.raises(ValueError, match="^modulus must be"):
        validate_cm_object(1, CmObject(0, 0))


# -- slices ----------------------------------------------------------------------

def test_window_floor_must_not_be_positive():
    with pytest.raises(ValueError, match="^level_min must be <= 0, got 1$"):
        cm_slice(2, 1)


def test_zero_window_has_identities_only():
    c = cm_slice(2, 0)
    assert len(c.objects) == 2
    assert sorted(map(str, c.morphisms)) == ["0,0,0,0", "0,1,0,0"]


def test_one_level_window_counts():
    # independent recount straight from the membership predicate
    c = cm_slice(2, -1)
    assert len(c.objects) == 4
    expected = sum(
        1
        for a in range(0, 2)
        for x in range(2)
        for i in (0, -1)
        for j in (0, -1)
        if 0 <= a <= i - j
    )
    assert len(c.morphisms) == expected == 8


def test_slice_is_valid_category():
    assert find_slice_violation(cm_slice(2, -1)) is None
    assert find_slice_violation(cm_slice(3, -3)) is None


def test_every_slice_morphism_is_complete():
    c = cm_slice(3, -2)
    assert set(c.complete) == set(c.morphisms)


# -- closed-form Möbius values -----------------------------------------------------

def test_closed_form_cases():
    assert cm_moebius_closed_form(CmMorphism(0, 1, -3, -3)) == 1
    assert cm_moebius_closed_form(CmMorphism(1, 1, 0, -2)) == 1
    assert cm_moebius_closed_form(CmMorphism(0, 2, 0, -1)) == -1
    assert cm_moebius_closed_form(CmMorphism(1, 0, 0, -1)) == -1
    assert cm_moebius_closed_form(CmMorphism(2, 0, 0, -2)) == 0
    assert cm_moebius_closed_form(CmMorphism(0, 0, 0, -2)) == 0


@pytest.mark.parametrize(
    "f",
    [CmMorphism(-5, 0, 3, 7), CmMorphism(-1, 0, 0, -2), CmMorphism(3, 0, 0, -2),
     CmMorphism(0, 0, 1, 0), CmMorphism(0, 0, 0, 1)],
    ids=str,
)
def test_closed_form_rejects_invalid_morphisms(f):
    with pytest.raises(ValueError):
        cm_moebius_closed_form(f)


# -- factorization enumeration -------------------------------------------------------

def test_factorization_objects_of_identity():
    assert cm_factorization_objects(3, CmMorphism(0, 2, -1, -1)) == [(0, 2, -1)]


def test_factorization_objects_frozen_example():
    triples = cm_factorization_objects(2, CmMorphism(1, 0, 0, -2))
    assert set(triples) == {(0, 0, 0), (0, 0, -1), (1, 1, -1), (1, 1, -2)}
    assert len(triples) == 4


def test_factorization_count_formula():
    f = CmMorphism(2, 0, 0, -3)
    assert len(cm_factorization_objects(3, f)) == 6  # (a+1)(i-j-a+1)


def test_factorization_objects_match_pair_scan():
    m = 3
    c = cm_slice(m, -4)
    for f in c.morphisms:
        pairs = c.factorizations(f)
        # right factor h = (b, x, i, k) determines the middle object (z, k)
        from_scan = {(h.a, (h.a + h.x) % m, h.j) for _, h in pairs}
        closed = cm_factorization_objects(m, f)
        assert from_scan == set(closed)
        assert len(pairs) == len(closed) == (f.a + 1) * (f.i - f.j - f.a + 1)


def test_factorization_objects_in_ascending_triple_order():
    m = 3
    for f in cm_slice(m, -5).morphisms:
        a, x, i, j = f
        expected = [
            (b, (b + x) % m, k) for b in range(a + 1) for k in range(a - b + j, i - b + 1)
        ]
        assert cm_factorization_objects(m, f) == expected


# -- sources ---------------------------------------------------------------------------

SOURCE_WINDOWS = [
    *((m, cm_slice(m, -6), cm_source, cm_compose) for m in (2, 3, 4)),
    *((m, dm_slice(m, 20), dm_source, dm_compose) for m in (2, 3, 4, 5)),
]


@pytest.mark.parametrize(
    "m, window, source, compose", SOURCE_WINDOWS,
    ids=[f"{s.__name__}-m{m}" for m, _, s, _ in SOURCE_WINDOWS],
)
def test_source_reads_as_the_window(m, window, source, compose):
    c = source(m)
    mu = moebius_of_slice(window)
    for f in window.morphisms:
        assert tuple(c.factorizations(f)) == window.factorizations(f)
        iv, expected = lawvere_interval(c, f), lawvere_interval(window, f)
        assert iv.objects == expected.objects
        assert iv.homs == expected.homs
        assert moebius_at(c, f) == mu[f]
    composites = bf_compose(window, lambda g, h: compose(m, g, h))
    assert {pair: c.compose.get(pair) for pair in composites} == composites
    for x in window.objects:
        assert c.identities[x] == window.identities[x]


def test_sources_validate_the_morphism():
    with pytest.raises(ValueError, match=r"^residue 3 not in \[0, 3\)$"):
        moebius_via_lawvere(cm_source(3), CmMorphism(0, 3, 0, 0))
    with pytest.raises(ValueError, match=r"^alpha=1 is below the canonical representative 2$"):
        moebius_at(dm_source(3), DmMorphism(1, 2))
    with pytest.raises(ValueError, match=r"^modulus must be an integer >= 2, got 1$"):
        dm_source(1)


# -- residue category ------------------------------------------------------------------

def test_dm_hom_identity_case():
    assert dm_hom_bounded(3, 2, 2, 2) == [DmMorphism(2, 2)]


def test_dm_hom_bounded_scan():
    assert dm_hom_bounded(3, 2, 1, 8) == [DmMorphism(4, 2), DmMorphism(7, 2)]


def test_dm_hom_empty_when_bound_is_low():
    assert dm_hom_bounded(3, 0, 1, 0) == []


def test_dm_hom_bounded_checks_residues_and_bound():
    with pytest.raises(ValueError, match=r"^residues \(3, 0\) not in \[0, 3\)$"):
        dm_hom_bounded(3, 3, 0, 5)
    with pytest.raises(ValueError, match="^alpha_max must be >= 0, got -1$"):
        dm_hom_bounded(3, 0, 0, -1)


def test_dm_compose_with_identity():
    f = DmMorphism(4, 2)
    assert dm_compose(3, dm_identity(1), f) == f
    assert dm_compose(3, f, dm_identity(2)) == f


def test_dm_compose_formula():
    assert dm_compose(3, DmMorphism(5, 1), DmMorphism(4, 2)) == DmMorphism(8, 2)


def test_dm_compose_rejects_residue_mismatch():
    with pytest.raises(NotComposable):
        dm_compose(3, DmMorphism(3, 0), DmMorphism(4, 2))


def test_dm_validation():
    with pytest.raises(ValueError):
        validate_dm_morphism(3, DmMorphism(1, 2))  # alpha below x
    with pytest.raises(ValueError):
        validate_dm_morphism(3, DmMorphism(4, 3))  # residue out of range


def test_dm_closed_form():
    assert dm_moebius_closed_form(DmMorphism(2, 2)) == 1
    assert dm_moebius_closed_form(DmMorphism(3, 2)) == -1
    assert dm_moebius_closed_form(DmMorphism(5, 2)) == 0


def test_dm_slice_is_valid_and_complete():
    d = dm_slice(3, 9)
    assert find_slice_violation(d) is None
    assert set(d.complete) == set(d.morphisms)


def test_dm_slice_needs_room_for_identities():
    with pytest.raises(ValueError):
        dm_slice(5, 2)


def test_dm_factorization_count_law():
    d = dm_slice(3, 9)
    for f in d.morphisms:
        assert len(d.factorizations(f)) == f.alpha - f.x + 1


# -- the level-collapsing functor --------------------------------------------------------

def test_functor_on_objects_and_identities():
    obj = CmObject(2, -3)
    assert functor_F_object(obj) == 2
    assert functor_F(cm_identity(obj)) == dm_identity(2)


def test_functor_on_morphisms():
    assert functor_F(CmMorphism(1, 0, 0, -1)) == DmMorphism(1, 0)
    assert functor_F(CmMorphism(2, 1, 0, -2)) == DmMorphism(3, 1)


def test_functor_preserves_composition():
    m = 2
    c = cm_slice(m, -3)
    for (g, f), gf in c.compose.items():
        assert functor_F(gf) == dm_compose(m, functor_F(g), functor_F(f))


def test_functor_is_surjective_on_windows():
    m, level_min = 3, -6
    window = {f for f in cm_slice(m, level_min).morphisms}
    for x in range(m):
        for alpha in range(x, x + 7):  # alpha - x <= -level_min
            preimage = CmMorphism(alpha - x, x, 0, -(alpha - x))
            assert preimage in window
            assert functor_F(preimage) == DmMorphism(alpha, x)


def test_functor_image_of_interval_is_a_chain_value():
    m = 3
    c = cm_slice(m, -3)
    d = dm_slice(m, 8)
    for f in (CmMorphism(2, 1, 0, -3), CmMorphism(1, 0, -1, -3), CmMorphism(0, 2, 0, -2)):
        assert moebius_via_lawvere(d, functor_F(f)) == dm_moebius_closed_form(functor_F(f))
