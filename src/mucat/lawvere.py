"""Factorization intervals of morphisms and the Möbius function computed on them.

The interval of a morphism f has the factorizations f = u∘v as objects; an
ambient morphism h connects (u, v) to (u', v') when h∘v = v' and u'∘h = u.
With that convention f itself connects the bottom (f, 1_dom) to the top
(1_cod, f).  When the interval is one-way and thin it is a finite poset and
mu(f) is the poset Möbius value from bottom to top.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from .category import CategorySlice, one_way_homs
from .errors import InvalidPoset, NotOneWay, NotThin, Unbounded
from .poset import FinitePoset


class Factorization(NamedTuple):
    """An ordered factorization subject = left ∘ right; equal to its field tuple."""

    left: Any
    right: Any
    subject: Any


class LawvereInterval:
    """The factorization category of a single morphism."""

    __slots__ = ("subject", "objects", "homs")

    def __init__(self, subject, objects, homs):
        self.subject = subject
        self.objects = tuple(objects)
        self.homs = dict(homs)

    def __repr__(self):
        return f"LawvereInterval({self.subject!r}, {len(self.objects)} factorizations)"

    def hom(self, a: Factorization, b: Factorization) -> tuple:
        return self.homs.get((a, b), ())


def lawvere_interval(c: CategorySlice, f) -> LawvereInterval:
    """Build the full interval of f inside the slice; f must be complete.

    Each hom is read off the factorization index: h connects (u, v) to
    (u', v') exactly when (h, v) factors v' and u'∘h = u, so one walk over
    the factorizations of each v' finds every morphism into (u', v').  The
    homs come out keyed source-major, then target, in object order, with
    each hom-set in slice order.
    """
    objects = [Factorization(g, h, f) for g, h in c.factorizations(f)]
    position = {ob: k for k, ob in enumerate(objects)}
    facts = c._fact_index()
    cod, compose = c.cod, c.compose
    found: dict = {}
    for j, (u2, v2, _) in enumerate(objects):
        mid_b = cod[v2]
        # the index only pairs h with v when dom h = cod v
        for h, v in facts[v2]:
            if cod[h] == mid_b:
                i = position.get((compose.get((u2, h)), v, f))
                if i is not None:
                    found.setdefault((i, j), []).append(h)
    homs = {(objects[i], objects[j]): tuple(hs) for (i, j), hs in sorted(found.items())}
    return LawvereInterval(f, objects, homs)


def is_one_way(iv: LawvereInterval) -> bool:
    """Distinct factorizations never connected both ways; endo hom-sets are singletons."""
    return one_way_homs(iv.objects, iv.homs)


def moebius_test(c: CategorySlice) -> bool:
    """True iff every morphism's interval is finite and one-way.

    Finiteness is automatic in a finite slice (enumeration closes); the
    substance is the one-way check on every interval.
    """
    return all(is_one_way(lawvere_interval(c, f)) for f in c.morphisms)


def interval_as_poset(iv: LawvereInterval) -> FinitePoset:
    """The interval as a poset: F1 <= F2 iff some morphism connects F1 to F2.

    Only defined for thin one-way intervals; raises NotThin when a hom-set has
    two or more elements and NotOneWay when antisymmetry fails.
    """
    for pair, hs in iv.homs.items():
        if len(hs) > 1:
            raise NotThin(f"hom-set {pair!r} has {len(hs)} elements")
    if not is_one_way(iv):
        raise NotOneWay(f"interval of {iv.subject!r} is not one-way")
    pairs = [(a, b) for (a, b) in iv.homs]
    try:
        return FinitePoset(iv.objects, leq=pairs)
    except InvalidPoset as exc:  # connectivity relation fails poset laws
        raise NotOneWay(str(exc)) from exc


def moebius_via_lawvere(c: CategorySlice, f) -> int:
    """mu(f) computed as the interval-poset Möbius value from bottom to top."""
    iv = lawvere_interval(c, f)
    poset = interval_as_poset(iv)
    bottom = Factorization(f, c.identities[c.dom[f]], f)
    top = Factorization(c.identities[c.cod[f]], f, f)
    if bottom not in poset or top not in poset:
        raise Unbounded(f"interval of {f!r} lacks its trivial factorizations")
    if poset.bottom() != bottom or poset.top() != top:
        raise Unbounded(f"interval of {f!r} is not bounded by its trivial factorizations")
    return poset.moebius(bottom, top)
