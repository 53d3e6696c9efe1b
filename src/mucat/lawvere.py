"""Factorization intervals of morphisms and the Möbius function computed on them.

The interval of a morphism f has the factorizations f = u∘v as objects; an
ambient morphism h connects (u, v) to (u', v') when h∘v = v' and u'∘h = u.
With that convention f itself connects the bottom (f, 1_dom) to the top
(1_cod, f).  When the interval is one-way and thin it is a finite poset and
mu(f) is the poset Möbius value from bottom to top.  On a slice marked
associative (each total window ``factor_slice`` builds, and any slice a law
check passed; see ``category``) each interval of a morphism out of x is a
down-set of one order per object, P_x, the morphisms out of x under "is a
right factor of" (``_object_order``): ``moebius_via_lawvere`` and ``mucat
verify`` read μ(f) off f's column of P_x, and ``verify`` tests the lattice
property once per object.  Sources, unmarked slices and objects whose order
fails a check or that test take the walk (``_position_route``), read by
position off its masks after the thin and poset-law checks of
``interval_as_poset`` have refused any interval that is not one-way; on a
marked slice the walk finds positions by right factor, and its law check
skips transitivity, which the mark proves (see ``poset._linear``).  The
``--verify`` walk also sums ``moebius_at``'s recursion on the same lists.
The staged objects (``LawvereInterval``, ``interval_as_poset``,
``is_one_way``) serve ``interval-dot``, and stay because the benchmark's
``bench/workloads.py`` imports and reads them (``LawvereInterval.homs`` too).
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import Any, NamedTuple

from .category import CategorySlice, FactorizationSource, _invert_from, _rows, one_way
from .errors import InvalidPoset, InvalidSlice, NotOneWay, NotThin, Unbounded
from .poset import FinitePoset, _is_lattice, _linear, _moebius_to

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
    """mu(f) as the Möbius value of f's interval poset from bottom to top; no
    factorization, interval or poset is built.  On a marked slice it is read
    off f's column of the order of f's domain (``_object_order``); a source,
    an unmarked slice or an object that order refuses takes the walk, by
    position on its masks (``_position_route``), and raises as it does."""
    order, k = _placed(c, f)
    if order is None:
        return _position_route(c, f, k=k)[-1]
    up, position, one = order
    return _moebius_to(up, position[k])[one]


def _placed(c: CategorySlice | FactorizationSource, f) -> tuple:
    """(the order of f's domain or None, f's handle), once f and its factors
    are checked complete: on a marked slice the order is read off
    ``c._orders``, which ``_object_order`` fills on an object's first
    morphism; elsewhere it is None.  A walk that reads f then takes the
    handle, so each route call checks f once."""
    k = c._closed_handle(f)
    if c._associative:
        x, orders = c._dom[k], c._orders
        return (orders[x] if x in orders else _object_order(c, x)), k
    return None, k


def _object_order(c: CategorySlice, x: int):
    """(up, position, one) for P_x, the morphisms out of c's object number x
    ordered by "is a right factor of" on a marked slice c, or None; built
    once and kept in ``c._orders``, where ``_placed`` reads it.  up holds
    ``_linear``'s masks, position maps each morphism's number to its
    position there, and one is the position of 1_x.  The numbers out of x
    are ``out[x]`` of the slice's object index (``CategorySlice._grouped``),
    and one pass over their lists sets bit w of up[v] for each (h, v) in
    w's list, with no lookup by name; the order is None if some list names
    a right factor twice or ``_linear`` refuses the masks (transitivity
    skipped: if h∘v = w and h'∘w = z, then h'∘h is an entry of the total
    table and (h'∘h)∘v = h'∘(h∘v) = z).

    A marked slice has its identity laws, a table that composes every
    composable pair and Light's verdict, associativity.  So 1_x is least:
    w∘1_x = w puts (w, 1_x) in the list of every w out of x.  Let the order
    pass, and let f: x → y, read through ``_closed_handle``.

    - f's interval is the down-set ↓f of P_x.  v ≤ f exactly when f's list
      holds a pair (u, v), once by the first check, so the pairs of f stand
      one to one for ↓f.  The walk keys positions by right factor
      (``_walk``): (u, v) ≤ (u', v') in the interval iff v''s list holds
      some (h, v), that is iff v ≤ v' in P_x.  So the walk's masks are
      P_x's, restricted to ↓f.
    - Every check the walk makes on f passes.  No list of P_x names a right
      factor twice, so no hom-set has two elements and f's pairs are
      distinct (NotThin and the duplicate check).  A restriction of a
      reflexive, antisymmetric relation is one, and the mark proves both
      transitive (NotOneWay).  The identity laws put (f, 1_x) and
      (1_y, f) in f's list; the first is below every pair since 1_x is
      least, the second above every pair since ↓f lies below f (Unbounded).
    - μ(f) is μ_{P_x}(1_x, f): the interval [1_x, f] is ↓f in both, and
      the walk's μ is the same top-down column from f (``_moebius_to``),
      read at the bottom.  The bottom-up row from 1_x would be
      ``_invert_from``'s recursion, which ``verify`` compares μ against.
    - If P_x with a top t added is a lattice L, so is every [1_x, f]: it
      has the bottom 1_x, and for a, b ≤ f the join z of a and b in L is
      ≤ f, so z is not t, lies in [1_x, f] and is below every upper bound
      of a and b there.  A finite poset with a bottom and a join of every
      pair is a lattice (``_is_lattice``)."""
    out = c._grouped()[1][x]  # the numbers out of x, in slice order
    position = dict(zip(out, range(len(out))))
    up, facts, order = [0] * len(out), c._facts, None
    try:
        for j, w in enumerate(out):  # each right factor v of w has dom x
            bit = 1 << j
            for _, v in facts[w]:
                i = position[v]
                if up[i] & bit:
                    raise InvalidPoset("a right factor listed twice")
                up[i] |= bit
        linear, up = _linear(up, out.__getitem__, True)
        if linear is not None:
            position = dict(zip([out[k] for k in linear], range(len(out))))
        order = up, position, position[c._ident[x]]
    except InvalidPoset:
        pass
    c._orders[x] = order
    return order


def _lawvere_sweep(c: CategorySlice):
    """Yield (mu(f), whether f's interval is a lattice) for each morphism f
    of the slice c in slice order, raising as ``moebius_via_lawvere`` at the
    first f it refuses.  Where f's object has an order that passes one lattice
    test per object, on the order with a top added, μ is f's column and every
    interval out of the object is a lattice (``_object_order``).  Every other
    f takes one walk, which gives μ and the masks for its own lattice test."""
    lattice = {}  # object number -> its order with a top added is a lattice
    for f in c.morphisms:
        order, k = _placed(c, f)
        if order is not None:
            up, position, one = order
            x = c._dom[k]
            if x not in lattice:
                top = 1 << len(up)
                lattice[x] = _is_lattice([u | top for u in up] + [top])
            if lattice[x]:
                yield _moebius_to(up, position[k])[one], True
                continue
        _, linear, law = _position_route(c, f, k=k)
        yield law, _is_lattice(linear)


def _position_route(c: CategorySlice | FactorizationSource, f, eta: dict | None = None,
                    k=None) -> tuple:
    """(f's handle, ``_linear``'s masks, mu(f)).  It raises as
    ``interval_as_poset``, then Unbounded unless the trivial
    factorizations are least and greatest; they then sit first and last in
    the linear extension.  The walk fills eta as ``_walk`` says.  k is f's
    handle when the caller has read it through ``_closed_handle``, which
    then is not run again."""
    if k is None:
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


def _both_routes(c: CategorySlice | FactorizationSource, f) -> tuple:
    """(``moebius_via_lawvere``, ``moebius_at``) of f, raising as the two in
    turn, from one walk that fills a fresh μ table; ``_invert_from`` fills its gaps."""
    eta: dict = {}
    k, _, law = _position_route(c, f, eta)
    if k not in eta:
        _invert_from(c, eta, k)
    return law, eta[k]
