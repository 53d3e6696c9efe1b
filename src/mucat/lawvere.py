"""Factorization intervals of morphisms and the Möbius function computed on them.

The interval of a morphism f has the factorizations f = u∘v as objects; an
ambient morphism h connects (u, v) to (u', v') when h∘v = v' and u'∘h = u.
With that convention f itself connects the bottom (f, 1_dom) to the top
(1_cod, f).  When the interval is one-way and thin it is a finite poset and
mu(f) is the poset Möbius value from bottom to top.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from .category import CategorySlice, FactorizationSource, one_way
from .errors import InvalidPoset, NotOneWay, NotThin, Unbounded
from .poset import FinitePoset

_new = tuple.__new__  # a Factorization from its field tuple, skipping the class's slower __new__


class Factorization(NamedTuple):
    """An ordered factorization subject = left ∘ right; equal to its field tuple."""

    left: Any
    right: Any
    subject: Any


class LawvereInterval:
    """The factorization category of a single morphism.

    Stored as up-set masks over the object order: bit j of ``_up[i]`` is set
    iff some morphism connects ``objects[i]`` to ``objects[j]``, and
    ``_more`` counts the elements of each hom-set with two or more, keyed
    (i, j).  The ``homs`` dict, keyed (source, target) source-major then
    target in object order, is re-read from the category's handles ``_pairs``.
    """

    __slots__ = ("subject", "objects", "_up", "_more", "_c", "_pairs", "_homs")

    def __init__(self, subject, objects, up, more, c, pairs):
        self.subject = subject
        self.objects = tuple(objects)
        self._up = up
        self._more = more
        self._c = c
        self._pairs = pairs
        self._homs = None

    def __repr__(self):
        return f"LawvereInterval({self.subject!r}, {len(self.objects)} factorizations)"

    @property
    def homs(self) -> dict:
        """{(source, target): hom-set tuple}, every hom-set in slice order."""
        if self._homs is None:
            objects, at, found = self.objects, self._c._at, {}
            _walk(self._c, self._pairs, found)
            self._homs = {(objects[i], objects[j]): tuple([at[h] for h in found[i, j]])
                          for i, j in sorted(found)}
        return self._homs

    def hom(self, a: Factorization, b: Factorization) -> tuple:
        return self.homs.get((a, b), ())


def _walk(c, pairs, found=None):
    """``_up`` and ``_more`` of the interval on ``pairs``, given as c's handles
    (a slice's numbers, a source's morphisms), appending each connecting h to
    found[i, j] if found is a dict.  h connects (u, v) to (u', v') exactly when
    (h, v) factors v' and u'∘h = u, so one walk over the factorizations of each
    v' finds every morphism into (u', v'), each hom-set in slice order, and no
    hom-set is scanned.  The loop is inline: a generator step per connection
    would cost more than the lookups it feeds."""
    position = dict(zip(pairs, range(len(pairs))))
    get, composite, facts = position.get, c._table.get, c._facts
    up, more = [0] * len(pairs), {}
    for j, (u2, v2) in enumerate(pairs):
        bit = 1 << j
        for h, v in facts[v2]:
            i = get((composite((u2, h)), v))
            if i is not None:
                if up[i] & bit:
                    more[i, j] = more.get((i, j), 1) + 1
                else:
                    up[i] |= bit
                if found is not None:
                    found.setdefault((i, j), []).append(h)
    return up, more


def lawvere_interval(c: CategorySlice | FactorizationSource, f) -> LawvereInterval:
    """Build the full interval of f inside a ``FactorizationSource`` or a
    slice, where f and every factor of f must be complete: the factorization
    index is exact only there.  Both are walked by handle."""
    pairs = c._facts[c._closed_handle(f)]
    at = c._at
    objects = [_new(Factorization, (at[g], at[h], f)) for g, h in pairs]
    return LawvereInterval(f, objects, *_walk(c, pairs), c, pairs)


def is_one_way(iv: LawvereInterval) -> bool:
    """Distinct factorizations never connected both ways; endo hom-sets are singletons."""
    return one_way(iv._up, iv._more)


def moebius_test(c: CategorySlice) -> bool:
    """True iff every morphism's interval is finite and one-way.

    Finiteness is automatic in a finite slice (enumeration closes); the
    substance is the one-way check on every interval.
    """
    return all(is_one_way(lawvere_interval(c, f)) for f in c.morphisms)


def interval_as_poset(iv: LawvereInterval) -> FinitePoset:
    """The interval as a poset: F1 <= F2 iff some morphism connects F1 to F2.

    Only defined for thin one-way intervals; raises NotThin when a hom-set has
    two or more elements, else NotOneWay when the poset laws, checked on the
    up-set masks, fail (for a thin interval, one-way is reflexive and antisymmetric).
    """
    if iv._more:
        (i, j), count = min(iv._more.items())
        pair = (iv.objects[i], iv.objects[j])
        raise NotThin(f"hom-set {pair!r} has {count} elements")
    try:
        return FinitePoset._from_masks(iv.objects, iv._up)
    except InvalidPoset as exc:  # connectivity relation fails poset laws
        raise NotOneWay(f"interval of {iv.subject!r}: {exc}") from exc


def interval_moebius(c: CategorySlice | FactorizationSource, f, poset: FinitePoset) -> int:
    """mu(f) as the Möbius value of f's interval poset from bottom to top,
    once the trivial factorizations are checked to bound it."""
    bottom = Factorization(f, c.identities[c.dom[f]], f)
    top = Factorization(c.identities[c.cod[f]], f, f)
    if bottom not in poset or top not in poset:
        raise Unbounded(f"interval of {f!r} lacks its trivial factorizations")
    if poset.bottom() != bottom or poset.top() != top:
        raise Unbounded(f"interval of {f!r} is not bounded by its trivial factorizations")
    return poset.moebius(bottom, top)


def moebius_via_lawvere(c: CategorySlice | FactorizationSource, f) -> int:
    """mu(f) computed as the interval-poset Möbius value from bottom to top;
    c is a slice or a ``FactorizationSource``."""
    return interval_moebius(c, f, interval_as_poset(lawvere_interval(c, f)))
