from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucat import (
    CmMorphism,
    CmObject,
    DmMorphism,
    Factorization,
    cm_moebius_closed_form,
    cm_slice,
    cm_source,
    dm_moebius_closed_form,
    dm_slice,
    dm_source,
    find_slice_violation,
    lawvere_interval,
    moebius_at,
    moebius_of_slice,
    moebius_via_lawvere,
    validate_cm_morphism,
    validate_dm_morphism,
)

import mucat.cm_dm as cm_dm
from mucat.lawvere import _both_routes

from helpers import bf_compose, cm_composite, dm_composite, functor_F


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

@cache
def cm_window(m):
    """The C_m window whose hom-sets the tests below read."""
    return cm_slice(m, -5)


def test_hom_identity_only():
    assert cm_window(2).hom(CmObject(0, 0), CmObject(0, 0)) == (CmMorphism(0, 0, 0, 0),)


def test_hom_single_shift():
    assert cm_window(2).hom(CmObject(0, 0), CmObject(1, -1)) == (CmMorphism(1, 0, 0, -1),)


def test_hom_empty_when_level_rises():
    assert cm_window(2).hom(CmObject(0, -1), CmObject(1, 0)) == ()


def test_hom_every_residue_step():
    fs = cm_window(3).hom(CmObject(0, 0), CmObject(0, -5))
    assert [f.a for f in fs] == [0, 3]


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
    members = set(cm_window(m).hom(source, target))
    for a in range(0, 8):
        f = CmMorphism(a, source.residue, i, j)
        assert (f in members) == cm_member(m, f, source, target)


# -- composition ------------------------------------------------------------------

def test_compose_with_identities():
    f = CmMorphism(1, 0, 0, -1)
    left = CmMorphism(0, 1, -1, -1)
    right = CmMorphism(0, 0, 0, 0)
    after = cm_source(2)._after
    assert after[left][f] == f
    assert after[f][right] == f


def test_compose_formula():
    g, f = CmMorphism(1, 1, -1, -2), CmMorphism(1, 0, 0, -1)
    assert cm_source(2)._after[g][f] == CmMorphism(2, 0, 0, -2)


def test_morphism_validation():
    with pytest.raises(ValueError):
        validate_cm_morphism(2, CmMorphism(2, 0, 0, -1))  # a > i - j
    with pytest.raises(ValueError):
        validate_cm_morphism(2, CmMorphism(0, 2, 0, 0))  # residue too big
    with pytest.raises(ValueError):
        validate_cm_morphism(2, CmMorphism(0, 0, 1, 0))  # positive level
    with pytest.raises(ValueError):
        validate_cm_morphism(1, CmMorphism(0, 0, 0, 0))  # modulus too small


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


def _refusal(call, *args) -> str:
    with pytest.raises(ValueError) as info:
        call(*args)
    return str(info.value)


@pytest.mark.parametrize(
    "f",
    [CmMorphism(-5, 0, 3, 7), CmMorphism(-1, 0, 0, -2), CmMorphism(3, 0, 0, -2),
     CmMorphism(0, 0, 1, 0), CmMorphism(0, 0, 0, 1), (1.5, 0, 0, -2), (2, 0, 0), (0, 0, 0, 0, 0)],
    ids=str,
)
def test_closed_form_rejects_invalid_morphisms(f):
    # the residue 0 is valid for any modulus, so the validator refuses f for the same reason
    assert _refusal(cm_moebius_closed_form, f) == _refusal(validate_cm_morphism, 2, f)


# -- factorization enumeration -------------------------------------------------------

def cm_factorization_objects(m, f):
    """The factorizations g∘h of f that the windowless source lists, each as
    its triple (b, z, k): the right factor (b, x, i, k) and the left factor's
    residue z, sorted."""
    return sorted((h.a, g.x, h.j) for g, h in cm_source(m).factorizations(f))


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


def _cm_grid(m, floor):
    return [CmMorphism(a, x, i, j) for i in range(0, floor - 1, -1) for j in range(i, floor - 1, -1)
            for a in range(i - j + 1) for x in range(m)]


ENUMERATOR_GRIDS = [  # (source, m, grid, endpoints by the definition, composite)
    *((cm_source, m, _cm_grid(m, -5), lambda f, m=m: ((f.x, f.i), ((f.a + f.x) % m, f.j)),
       cm_composite) for m in (2, 3, 4, 5)),
    *((dm_source, m, [DmMorphism(alpha, x) for x in range(m) for alpha in range(x, 25)],
       lambda f, m=m: (f.x, f.alpha % m), dm_composite) for m in (2, 3, 4, 5)),
]


@pytest.mark.parametrize(
    "source, m, grid, ends, compose", ENUMERATOR_GRIDS,
    ids=[f"{s.__name__}-m{m}" for s, m, *_ in ENUMERATOR_GRIDS],
)
def test_enumerators_list_every_factorization_in_order(source, m, grid, ends, compose):
    # every composable pair of the grid by brute force, right factor h in grid
    # order: C_m's right factors of (a, x, i, j) come by level from i down,
    # then by shift, and D_m's by alpha, the orders the enumerators promise
    inside, pairs = set(grid), {f: [] for f in grid}
    for h in grid:
        for g in grid:
            if ends(h)[1] == ends(g)[0] and (k := compose(m, g, h)) in inside:
                pairs[k].append((g, h))
    c = source(m)
    for f in grid:
        assert c.factorizations(f) == pairs[f], f


# -- sources ---------------------------------------------------------------------------

SOURCE_WINDOWS = [
    *((m, cm_slice(m, -6), cm_source, cm_composite) for m in (2, 3, 4)),
    *((m, dm_slice(m, 20), dm_source, dm_composite) for m in (2, 3, 4, 5)),
]


@pytest.mark.parametrize(
    "m, window, source, compose", SOURCE_WINDOWS,
    ids=[f"{s.__name__}-m{m}" for m, _, s, _ in SOURCE_WINDOWS],
)
def test_source_reads_as_the_window(m, window, source, compose):
    c = source(m)
    mu = moebius_of_slice(window)
    composites = bf_compose(window, lambda g, h: compose(m, g, h))
    composing = {f: [] for f in window.morphisms}  # the pairs composing to f, in window order
    for pair, k in composites.items():
        composing[k].append(pair)
    for f in window.morphisms:
        listed = c.factorizations(f)  # decoded from the source's handles
        assert listed == composing[f]
        assert {type(g) for pair in listed for g in pair} == {type(f)}
        assert tuple(listed) == window.factorizations(f)
        k = c._closed_handle(f)
        assert c._at[k] == f and type(c._at[k]) is type(f)
        iv, expected = lawvere_interval(c, f), lawvere_interval(window, f)
        assert iv.objects == expected.objects
        assert iv.homs == expected.homs
        assert moebius_at(c, f) == mu[f]
    code = c._number.get
    assert {(g, h): c._at[c._after[code(g)][code(h)]] for g, h in composites} == composites
    for x in window.objects:
        assert c._at[c._ident[x]] == window.identities[x]


def test_sources_validate_the_morphism():
    with pytest.raises(ValueError, match=r"^residue 3 not in \[0, 3\)$"):
        moebius_via_lawvere(cm_source(3), CmMorphism(0, 3, 0, 0))
    with pytest.raises(ValueError, match=r"^alpha=1 is below the canonical representative 2$"):
        moebius_at(dm_source(3), DmMorphism(1, 2))
    with pytest.raises(ValueError, match=r"^modulus must be an integer >= 2, got 1$"):
        dm_source(1)


@pytest.mark.parametrize(
    "source, f",
    [(cm_source(2), CmMorphism(1, 0, 0, -2)), (cm_source(3), CmMorphism(3, 2, -1, -5)),
     (dm_source(2), DmMorphism(3, 1)), (dm_source(5), DmMorphism(14, 3))],
    ids=["C_2", "C_3", "D_2", "D_5"],
)
def test_sources_read_a_morphism_as_its_plain_field_tuple(source, f):
    plain = tuple(f)
    assert type(plain) is tuple and plain == f
    assert source.factorizations(plain) == source.factorizations(f)
    assert moebius_at(source, plain) == moebius_at(source, f)
    assert moebius_via_lawvere(source, plain) == moebius_via_lawvere(source, f)
    assert lawvere_interval(source, plain).objects == lawvere_interval(source, f).objects
    closed_form = cm_moebius_closed_form if type(f) is CmMorphism else dm_moebius_closed_form
    assert closed_form(plain) == closed_form(f)


CM_WRONG_SHAPES = [(1, 0, 0), (1, 0, 0, -2, 0), (1, 0, 0, -2.0), (True, 0, 0, -2), [1, 0, 0, -2], 7]
DM_WRONG_SHAPES = [(3,), (3, 1, 0), ("3", 1), (3, None), CmMorphism(3, 1, 0, 0), "31"]


@pytest.mark.parametrize(
    "source, validate, f, message",
    [(cm_source(2), lambda f: validate_cm_morphism(2, f), f, "a morphism is 4 integers (a, x, i, j)")
     for f in CM_WRONG_SHAPES]
    + [(dm_source(2), lambda f: validate_dm_morphism(2, f), f, "a morphism is 2 integers (alpha, x)")
       for f in DM_WRONG_SHAPES],
    ids=[f"C_2-{f!r}" for f in CM_WRONG_SHAPES] + [f"D_2-{f!r}" for f in DM_WRONG_SHAPES],
)
def test_sources_refuse_a_value_of_the_wrong_shape(source, validate, f, message):
    message += f", got {f!r}"
    for read in (validate, source.factorizations, lambda f: moebius_at(source, f),
                 lambda f: moebius_via_lawvere(source, f)):
        with pytest.raises(ValueError) as caught:
            read(f)
        assert str(caught.value) == message


def _objects_made(monkeypatch) -> list:
    """The CmObjects cm_dm builds from here on, each recorded as it is made."""
    made, new = [], cm_dm._new

    def recorded(cls, fields):
        value = new(cls, fields)
        if cls is CmObject:
            made.append(value)
        return value

    monkeypatch.setattr(cm_dm, "_new", recorded)
    return made


@pytest.mark.parametrize("m, f", [(5, CmMorphism(6, 0, 0, -12)), (2, CmMorphism(3, 1, -2, -10)),
                                  (3, CmMorphism(2, 2, -1, -5))])
def test_cm_source_walks_decode_no_object(m, f, monkeypatch):
    # the source checks and composes on plain (residue, level) tuples
    made = _objects_made(monkeypatch)
    source = cm_source(m)
    assert _both_routes(source, f) == (cm_moebius_closed_form(f),) * 2
    assert source.factorizations(f)
    assert made == []


@pytest.mark.parametrize("m, floor", [(2, -6), (3, -5), (5, -4)])
def test_cm_slice_decodes_each_object_once(m, floor, monkeypatch):
    made = _objects_made(monkeypatch)
    c = cm_slice(m, floor)
    assert sorted(made) == sorted(c.objects)  # one decode per distinct object
    assert len(c.objects) == m * (1 - floor)
    assert {type(x) for x in c.objects} == {CmObject}
    assert {type(x) for f in c.morphisms for x in (c.dom[f], c.cod[f])} == {CmObject}
    assert {type(x) for x in c.identities} == {CmObject}
    assert all(c.objects[c._dom[k]] is c.dom[f] for k, f in enumerate(c.morphisms))


# -- residue category ------------------------------------------------------------------

def test_dm_hom_identity_case():
    assert dm_slice(3, 2).hom(2, 2) == (DmMorphism(2, 2),)


def test_dm_hom_bounded_scan():
    m, alpha_max = 3, 8
    d = dm_slice(m, alpha_max)
    assert d.hom(2, 1) == (DmMorphism(4, 2), DmMorphism(7, 2))
    for x in range(m):  # the definition: alpha = y (mod m) and x <= alpha <= alpha_max
        for y in range(m):
            assert d.hom(x, y) == tuple(
                DmMorphism(alpha, x) for alpha in range(x, alpha_max + 1) if alpha % m == y
            )


def test_dm_hom_empty_when_bound_is_low():
    assert dm_slice(3, 2).hom(2, 1) == ()


def test_dm_compose_with_identity():
    d = dm_source(3)
    f, one_1, one_2 = map(d._number.get, (DmMorphism(4, 2), DmMorphism(1, 1), DmMorphism(2, 2)))
    assert d._at[d._after[one_1][f]] == DmMorphism(4, 2)
    assert d._at[d._after[f][one_2]] == DmMorphism(4, 2)


def test_dm_compose_formula():
    d = dm_source(3)
    g, f = d._number[DmMorphism(5, 1)], d._number[DmMorphism(4, 2)]
    assert d._at[d._after[g][f]] == DmMorphism(8, 2)


def test_dm_validation():
    with pytest.raises(ValueError):
        validate_dm_morphism(3, DmMorphism(1, 2))  # alpha below x
    with pytest.raises(ValueError):
        validate_dm_morphism(3, DmMorphism(4, 3))  # residue out of range


def test_dm_closed_form():
    assert dm_moebius_closed_form(DmMorphism(2, 2)) == 1
    assert dm_moebius_closed_form(DmMorphism(3, 2)) == -1
    assert dm_moebius_closed_form(DmMorphism(5, 2)) == 0


@pytest.mark.parametrize(
    "f", [DmMorphism(1, 2), (0, 1), (2.0, 1), (True, 0), (3,), (3, 1, 0)], ids=str)
def test_dm_closed_form_rejects_invalid_morphisms(f):
    assert _refusal(dm_moebius_closed_form, f) == _refusal(validate_dm_morphism, 3, f)


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
    assert functor_F(CmMorphism(0, 2, -3, -3)) == DmMorphism(2, 2)


def test_functor_on_morphisms():
    assert functor_F(CmMorphism(1, 0, 0, -1)) == DmMorphism(1, 0)
    assert functor_F(CmMorphism(2, 1, 0, -2)) == DmMorphism(3, 1)


def test_functor_preserves_composition():
    m = 2
    c = cm_slice(m, -3)
    for (g, f), gf in c.compose.items():
        assert functor_F(gf) == dm_composite(m, functor_F(g), functor_F(f))


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
