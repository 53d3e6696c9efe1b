"""The object index and the composition rows by slot: ``_out[x]`` and
``_into[x]`` list the morphisms out of and into object x, row g of a slice's
table is a list aligned with the morphisms into dom g, and slot ``_slot[h]``
holds g∘h or None.

Every window here is built inside its test, so a fault in the index or the
row layout, which breaks every window build, fails these tests one by one
instead of this module's collection."""

import gc
import tracemalloc

import pytest

from mucat import (
    CategorySlice,
    DmMorphism,
    cm_slice,
    cm_source,
    division_category,
    dm_slice,
    factor_slice,
    poset_as_category,
)
from mucat.category import _rows

from helpers import (
    bf_compose,
    boolean_lattice,
    brandt,
    cm_composite,
    divisor_poset,
    dm_composite,
    meet_semilattice,
    objects_reversed,
    slice_json,
)


def _dm_read(text) -> DmMorphism:
    """The D_m morphism a slice file names "alpha,x"."""
    return DmMorphism(*map(int, text.split(",")))


@pytest.mark.parametrize(
    "make",
    [lambda: objects_reversed(dm_slice(2, 12)),
     lambda: CategorySlice.from_json(slice_json(dm_slice(3, 9))),
     lambda: factor_slice(cm_slice(2, -3).morphisms[::-1], cm_source(2)),
     lambda: division_category(brandt(3), ["e11", "z"]),
     lambda: division_category(meet_semilattice(boolean_lattice(3))),
     lambda: poset_as_category(divisor_poset(12))],
    ids=["constructor, objects reversed", "from_json(dm_slice(3,9))",
         "factor_slice(cm_slice(2,-3) reversed)", "division(brandt3)", "division(B3)",
         "poset(divisors 12)"],
)
def test_each_builder_fills_the_object_index_as_it_builds(make):
    # read right after construction: no later pass fills a list of the index
    c = make()
    at, dom, cod = c.morphisms, c.dom, c.cod
    assert c._place == {x: i for i, x in enumerate(c.objects)}
    assert c._out == [[k for k, f in enumerate(at) if dom[f] == x] for x in c.objects]
    assert c._into == [[k for k, f in enumerate(at) if cod[f] == x] for x in c.objects]
    assert c._slot == [sum([cod[h] == cod[f] for h in at[:k]]) for k, f in enumerate(at)]


@pytest.mark.parametrize(
    "make, rule",
    [(lambda: cm_slice(2, -3), lambda g, f: cm_composite(2, g, f)),
     (lambda: dm_slice(3, 30), lambda g, f: dm_composite(3, g, f)),
     (lambda: poset_as_category(divisor_poset(12)), lambda g, f: (f[0], g[1])),
     (lambda: CategorySlice.from_json(slice_json(dm_slice(3, 9))),
      lambda g, f: str(dm_composite(3, _dm_read(g), _dm_read(f))))],
    ids=["cm_slice(2,-3)", "dm_slice(3,30)", "poset(divisors 12)", "from_json(dm_slice(3,9))"],
)
def test_each_row_holds_one_slot_per_morphism_into_its_left_factors_domain(make, rule):
    # slot _slot[h] of row g holds g∘h, or None where the composite leaves the window
    c = make()
    after, into, slot = _rows(c), c._into, c._slot
    at, number, table = c.morphisms, c._number, bf_compose(c, rule)
    assert [into[c._cod[h]][slot[h]] for h in range(len(at))] == list(range(len(at)))
    for g, row in enumerate(after):
        assert len(row) == len(into[c._dom[g]])
        assert [None if k is None else at[k] for k in row] == [
            table.get((at[g], at[h])) for h in into[c._dom[g]]]
    for (g, h), k in table.items():
        assert at[after[number[g]][slot[number[h]]]] == k
    assert sum([len(row) - row.count(None) for row in after]) == len(table) == len(c.compose)


def test_compose_refuses_every_pair_that_does_not_compose():
    # a slot is a position among the morphisms into dom g, so an h into
    # another object may name a slot of row g that holds another composite
    c = cm_slice(2, -3)
    after, slot, number = _rows(c), c._slot, c._number
    in_range = 0
    for g in c.morphisms:
        for h in c.morphisms:
            if c.cod[h] != c.dom[g]:
                with pytest.raises(KeyError):
                    c.compose[g, h]
                assert (g, h) not in c.compose and c.compose.get((g, h)) is None
                in_range += slot[number[h]] < len(after[number[g]])
    assert in_range > 0


def test_composition_rows_take_at_most_24_bytes_an_entry():
    # a row of slots takes about 18 bytes an entry, traced; a dict row, as the
    # rows held before, about 51
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        c = cm_slice(3, -8)  # factor_slice fills the rows
        gc.collect()
        held, entries = tracemalloc.get_traced_memory()[0], len(c.compose)
        c._after = []  # the slice alone holds its rows
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        if started:
            tracemalloc.stop()
    assert entries == 3861 and 8 * entries <= freed <= 24 * entries
