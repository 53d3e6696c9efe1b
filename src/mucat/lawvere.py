"""Factorization intervals of morphisms and the Möbius function computed on them.

The interval of a morphism f has the factorizations f = u∘v as objects; an
ambient morphism h connects (u, v) to (u', v') when h∘v = v' and u'∘h = u.
With that convention f itself connects the bottom (f, 1_dom) to the top
(1_cod, f).  When the interval is one-way and thin it is a finite poset and
mu(f) is the poset Möbius value from bottom to top.  ``moebius_via_lawvere``,
``mucat verify`` and ``mu-cm``/``mu-dm --verify`` read it by position off
the walk's masks, after the thin and poset-law checks of ``interval_as_poset``
have refused any interval that is not one-way; the ``--verify`` walk also
sums ``moebius_at``'s recursion on the same lists.  The staged objects
(``LawvereInterval``, ``interval_as_poset``, ``is_one_way``) serve
``interval-dot``, and stay because the benchmark's ``bench/workloads.py``
imports and reads them (``LawvereInterval.homs`` too).  On a slice marked
associative (each total window ``factor_slice`` builds, and any slice a law
check passed; see ``category``), the walk finds positions by right factor,
and the poset-law check skips transitivity, which the mark proves (see
``poset._linear``).
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import Any, NamedTuple

from .category import CategorySlice, FactorizationSource, _invert_from, _rows, one_way
from .errors import InvalidPoset, InvalidSlice, NotOneWay, NotThin, Unbounded
from .poset import FinitePoset, _linear, _moebius_to

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
    target in object order, is read off composites by a walk from ``_root``.
    """

    __slots__ = ("subject", "objects", "_up", "_more", "_c", "_root", "_homs")

    def __init__(self, subject, objects, up, more, c, root):
        self.subject = subject
        self.objects = tuple(objects)
        self._up = up
        self._more = more
        self._c = c
        self._root = root
        self._homs = None

    def __repr__(self):
        return f"LawvereInterval({self.subject!r}, {len(self.objects)} factorizations)"

    @property
    def homs(self) -> dict:
        """{(source, target): hom-set tuple}, every hom-set in slice order."""
        if self._homs is None:
            objects, at, found = self.objects, self._c._at, {}
            _walk(self._c, self._root, found)
            self._homs = {(objects[i], objects[j]): tuple([at[h] for h in found[i, j]])
                          for i, j in sorted(found)}
        return self._homs


def _walk(c, root, found=None, eta=None):
    """The factorizations ``pairs`` of c's handle ``root``, how many distinct
    pairs they hold, and ``_up`` and ``_more`` on them; a walk given a dict
    found appends each connecting h to found[i, j].  h connects (u, v) to
    (u', v') exactly when (h, v) factors v' and u'∘h = u, so one walk over
    the factorizations of each v' (``pairs`` for the root) finds every
    morphism into (u', v'), each hom-set in slice order: u'∘h is read from
    the row of u' (a slice's ``_after[u']``, a source's ``row(u')``: a
    closure, or D_m's integer shift), and (u'∘h, v) is found by v, then
    checked by its left factor (pairs that share a right factor are
    chained), so no pair is built per entry.  If eta is a dict, v' gains
    μ(v') by ``_invert_from``'s recursion if eta already holds v for each
    (h, v) in its list with h not 1.  The loop is inline: a generator step
    costs more than its lookups.

    A slice with Light's verdict (``_associative``: ``factor_slice`` decides
    it as it builds, a law check sets it) has a total, associative table, so
    for (u', v') in the root's list and (h, v) in v''s,
    (u'∘h)∘v = u'∘(h∘v) = root.  If the root lists each right factor once,
    (u'∘h, v) is its one pair ending in v, and the walk keys positions by v
    alone: no composite is read.  A walk given found, and a source's walk
    (a source carries no verdict), read every composite."""
    pairs = c._facts[root]
    position = dict(zip([v for _, v in pairs], range(len(pairs))))  # the last pair ending in v
    once = len(position) == len(pairs)  # each right factor listed once
    keyed = once and c._associative and found is None
    if not keyed:
        after, lefts, earlier = _rows(c), [u for u, _ in pairs], [None] * len(pairs)
        if not once:  # chain each pair to the one before it with the same right factor
            position = {}
            for i, (_, v) in enumerate(pairs):
                earlier[i], position[v] = position.get(v), i
    distinct = len(pairs) if once else len(set(pairs))
    get, facts, ident, cod = position.get, c._facts, c._ident, c._cod
    up, more = [0] * len(pairs), {}
    for j, (u2, v2) in enumerate(pairs):
        bit = 1 << j
        below = pairs if v2 == root else facts[v2]
        if keyed:
            for h, v in below:
                i = position[v]
                if up[i] & bit:
                    more[i, j] = more.get((i, j), 1) + 1
                else:
                    up[i] |= bit
        else:
            row = after[u2].get
            for h, v in below:
                i, u = get(v), row(h)  # u is None if u2∘h is missing
                while i is not None and lefts[i] != u:
                    i = earlier[i]
                if i is not None:
                    if up[i] & bit:
                        more[i, j] = more.get((i, j), 1) + 1
                    else:
                        up[i] |= bit
                    if found is not None:
                        found.setdefault((i, j), []).append(h)
        if eta is not None and v2 not in eta:
            try:
                one = ident[cod[v2]]
            except InvalidSlice:  # the recursion raises it, after the interval's checks
                continue
            rest = [eta.get(v) for h, v in below if h != one]
            if None not in rest:
                eta[v2] = int(v2 == one) - sum(rest)
    return pairs, distinct, up, more


def lawvere_interval(c: CategorySlice | FactorizationSource, f) -> LawvereInterval:
    """Build the full interval of f inside a ``FactorizationSource`` or a
    slice, where f and every factor of f must be complete: the factorization
    index is exact only there.  Both are walked by handle."""
    k = c._closed_handle(f)
    pairs, _, up, more = _walk(c, k)
    at = c._at
    objects = [_new(Factorization, (at[g], at[h], f)) for g, h in pairs]
    return LawvereInterval(f, objects, up, more, c, k)


def is_one_way(iv: LawvereInterval) -> bool:
    """Distinct factorizations never connected both ways; endo hom-sets are singletons."""
    return one_way(iv._up, iv._more)


def _interval_order(f, up, more, distinct, name, transitive):
    """``_linear``'s (order, masks) for f's interval: NotThin unless it is
    thin, NotOneWay if fewer than ``len(up)`` pairs are ``distinct`` (one is
    listed twice) or a poset law fails.  name(i) names index i in messages;
    ``transitive`` is the slice's mark, which proves that law."""
    if more:
        (i, j), count = min(more.items())
        raise NotThin(f"hom-set {(name(i), name(j))!r} has {count} elements")
    try:
        if distinct != len(up):
            raise InvalidPoset("duplicate elements")
        return _linear(up, name, transitive)
    except InvalidPoset as exc:  # connectivity relation fails poset laws
        raise NotOneWay(f"interval of {f!r}: {exc}") from exc


def interval_as_poset(iv: LawvereInterval) -> FinitePoset:
    """The interval as a poset: F1 <= F2 iff some morphism connects F1 to F2.

    Only defined for thin one-way intervals; raises NotThin when a hom-set has
    two or more elements, else NotOneWay when the poset laws, checked on the
    up-set masks, fail (for a thin interval, one-way is reflexive and antisymmetric;
    transitivity is not checked on a marked slice, where it holds).
    """
    objects = iv.objects
    pos = dict(zip(objects, range(len(objects))))
    order, up = _interval_order(iv.subject, iv._up, iv._more, len(pos), objects.__getitem__,
                                iv._c._associative)
    return FinitePoset.__new__(FinitePoset)._adopt(objects, pos, order, up)


def moebius_via_lawvere(c: CategorySlice | FactorizationSource, f) -> int:
    """mu(f) as the Möbius value of f's interval poset from bottom to top, by
    position on the walk's masks; no factorization, interval or poset is
    built.  c is a slice or a ``FactorizationSource``; on a marked slice the
    law check takes transitivity from the mark, as ``interval_as_poset``."""
    return _position_route(c, f)[-1]


def _position_route(c: CategorySlice | FactorizationSource, f, eta: dict | None = None) -> tuple:
    """(f's handle, ``_linear``'s masks, mu(f)).  It raises as
    ``interval_as_poset``, then Unbounded unless the trivial
    factorizations are least and greatest; they then sit first and last in
    the linear extension.  The walk fills eta as ``_walk`` says."""
    k = c._closed_handle(f)
    pairs, distinct, up, more = _walk(c, k, eta=eta)
    at, ident = c._at, c._ident
    linear = _interval_order(f, up, more, distinct,
                             lambda i: _new(Factorization, (at[pairs[i][0]], at[pairs[i][1]], f)),
                             c._associative)[1]
    try:  # the factorizations are distinct here, so each is listed once
        bottom, top = pairs.index((k, ident[c._dom[k]])), pairs.index((ident[c._cod[k]], k))
    except ValueError:
        raise Unbounded(f"interval of {f!r} lacks its trivial factorizations") from None
    if up[bottom] != (1 << len(up)) - 1 or not reduce(and_, up) >> top & 1:
        raise Unbounded(f"interval of {f!r} is not bounded by its trivial factorizations")
    return k, linear, _moebius_to(linear, len(linear) - 1)[0]


def _both_routes(c: CategorySlice | FactorizationSource, f, eta: dict) -> tuple:
    """(``moebius_via_lawvere``, ``moebius_at``) of f, raising as the two in
    turn; the walk fills eta, and ``_invert_from`` fills its gaps."""
    k, _, law = _position_route(c, f, eta)
    if k not in eta:
        _invert_from(c, eta, k)
    return law, eta[k]
