"""Factorization intervals of morphisms and the Möbius function computed on them.

The interval of a morphism f has the factorizations f = u∘v as objects; an
ambient morphism h connects (u, v) to (u', v') when h∘v = v' and u'∘h = u.
With that convention f itself connects the bottom (f, 1_dom) to the top
(1_cod, f).  When the interval is one-way and thin it is a finite poset and
mu(f) is the poset Möbius value from bottom to top.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from .category import CategorySlice, one_way
from .errors import IncompleteSlice, InvalidPoset, NotOneWay, NotThin, Unbounded
from .poset import FinitePoset


class Factorization(NamedTuple):
    """An ordered factorization subject = left ∘ right; equal to its field tuple."""

    left: Any
    right: Any
    subject: Any


class LawvereInterval:
    """The factorization category of a single morphism.

    Stored as index adjacency: ``_into[j]`` maps the position i of every
    object with a morphism into ``objects[j]`` to the first such morphism,
    and ``_more`` holds the rest of each hom-set with two or more elements,
    keyed (i, j).  The ``homs`` dict, keyed (source, target) source-major
    then target in object order, is built on first read.
    """

    __slots__ = ("subject", "objects", "_into", "_more", "_homs")

    def __init__(self, subject, objects, into, more):
        self.subject = subject
        self.objects = tuple(objects)
        self._into = into
        self._more = more
        self._homs = None

    def __repr__(self):
        return f"LawvereInterval({self.subject!r}, {len(self.objects)} factorizations)"

    @property
    def homs(self) -> dict:
        """{(source, target): hom-set tuple}, every hom-set in slice order."""
        if self._homs is None:
            objects, into, more = self.objects, self._into, self._more
            keys = sorted((i, j) for j, row in enumerate(into) for i in row)
            self._homs = {
                (objects[i], objects[j]): (into[j][i], *more.get((i, j), ())) for i, j in keys
            }
        return self._homs

    def hom(self, a: Factorization, b: Factorization) -> tuple:
        return self.homs.get((a, b), ())


def lawvere_interval(c: CategorySlice, f) -> LawvereInterval:
    """Build the full interval of f inside the slice; f and every factor of f
    must be complete.

    Each hom is read off the factorization index: h connects (u, v) to
    (u', v') exactly when (h, v) factors v' and u'∘h = u, so one walk over
    the factorizations of each v' finds every morphism into (u', v'), each
    hom-set in slice order.  Those reads are exact only on complete factors,
    which a fully complete slice need not check one by one.
    """
    pairs = c.factorizations(f)
    if c.complete is not c._morphism_set:
        k = next((k for pair in pairs for k in pair if k not in c.complete), None)
        if k is not None:
            raise IncompleteSlice(f"factor {k!r} of {f!r} is not marked factorization-complete")
    objects = [Factorization(g, h, f) for g, h in pairs]
    position = {pair: k for k, pair in enumerate(pairs)}
    facts, compose = c._facts, c.compose
    into = []
    more: dict = {}
    for j, (u2, v2) in enumerate(pairs):
        row: dict = {}
        for h, v in facts[v2]:
            i = position.get((compose.get((u2, h)), v))
            if i is not None:
                if i in row:
                    more.setdefault((i, j), []).append(h)
                else:
                    row[i] = h
        into.append(row)
    return LawvereInterval(f, objects, into, more)


def is_one_way(iv: LawvereInterval) -> bool:
    """Distinct factorizations never connected both ways; endo hom-sets are singletons."""
    return one_way(iv._into, iv._more)


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
        (i, j), extra = min(iv._more.items())
        pair = (iv.objects[i], iv.objects[j])
        raise NotThin(f"hom-set {pair!r} has {1 + len(extra)} elements")
    up = [0] * len(iv.objects)
    for j, row in enumerate(iv._into):
        bit = 1 << j
        for i in row:
            up[i] |= bit
    try:
        return FinitePoset._from_masks(iv.objects, up)
    except InvalidPoset as exc:  # connectivity relation fails poset laws
        raise NotOneWay(f"interval of {iv.subject!r}: {exc}") from exc


def interval_moebius(c: CategorySlice, f, poset: FinitePoset) -> int:
    """mu(f) as the Möbius value of f's interval poset from bottom to top,
    once the trivial factorizations are checked to bound it."""
    bottom = Factorization(f, c.identities[c.dom[f]], f)
    top = Factorization(c.identities[c.cod[f]], f, f)
    if bottom not in poset or top not in poset:
        raise Unbounded(f"interval of {f!r} lacks its trivial factorizations")
    if poset.bottom() != bottom or poset.top() != top:
        raise Unbounded(f"interval of {f!r} is not bounded by its trivial factorizations")
    return poset.moebius(bottom, top)


def moebius_via_lawvere(c: CategorySlice, f) -> int:
    """mu(f) computed as the interval-poset Möbius value from bottom to top."""
    return interval_moebius(c, f, interval_as_poset(lawvere_interval(c, f)))
