"""Finite slices of small categories and their incidence algebra.

A CategorySlice is a finite window of a (possibly infinite) category: objects,
morphisms, a partial composition table, and an identity per object.  Morphisms
marked *complete* promise that every ambient factorization g∘h of the morphism
has g, h (and the pair entry) inside the slice, so factorization sums are
exact.  A slice numbers its morphisms and keeps its tables by number, the
composition table as one row per left factor; the walks read a slice by
number and a ``FactorizationSource`` by the handles its rules read.
A law check that passes on a table composing every composable pair (or
Light's test on the semigroup of a division category) marks the slice, and
the Lawvere route then reads one order per object (``lawvere._object_order``)
and ``lawvere._walk`` keys positions by right factor; ``factor_slice``
runs that check's Light's test as it builds, so each total window it
builds (every ``cm_slice`` and ``poset_as_category`` one) arrives marked.
Incidence functions take exact rational values (Fraction / int); the
Möbius function μ, the convolution inverse of zeta, takes ``int`` values.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from operator import itemgetter
from typing import Any

from ._json import load_object, rows, strings
from .errors import IncompleteSlice, InvalidSlice, NotComparable, NotMoebius
from .poset import FinitePoset, _transpose


class CategorySlice:
    """Finite presentation of a window of a small category.

    Morphisms and objects are numbered in list order, and the tables are
    kept by number: the row ``_after[g]`` maps h with cod(h) = dom(g) to g∘h
    when the composite lies in the slice, ``_facts[k]`` is the two tuples
    (lefts, rights) of equal length whose i-th entries g, h are the i-th pair
    composing to k, and ``_dom``/``_cod``/``_ident`` give endpoints and
    identities; ``compose`` is a read-only view of the rows by morphism.
    The constructor fills the index in one pass over its table and checks
    each entry's and each identity's endpoints once; the rows are filled
    from the index on the first read that needs them, and the object index
    (``_grouped``) on its first read.  Other derived tables are cached.
    """

    __slots__ = (
        "objects", "morphisms", "dom", "cod", "compose", "identities", "complete",
        "_number", "_at", "_after", "_facts", "_dom", "_cod", "_ident",
        "_groups", "_one_way", "_quotients", "_orders", "_associative",
    )

    def __init__(self, objects, morphisms, dom, cod, compose, identities, complete=()):
        morphisms = tuple(morphisms)
        number = dict(zip(morphisms, range(len(morphisms)))).get
        facts, order = [([], []) for _ in morphisms], []
        for (g, h), k in compose.items():
            pair, composite = (number(g), number(h)), number(k)
            if composite is None or None in pair:
                raise InvalidSlice(f"compose entry ({g!r}, {h!r}) -> {k!r} mentions unknown morphisms")
            lefts, rights = facts[composite]
            lefts.append(pair[0])
            rights.append(pair[1])
            order.append(pair)
        self._adopt(objects, morphisms, {f: dom[f] for f in morphisms if f in dom},
                    {f: cod[f] for f in morphisms if f in cod}, facts, order,
                    dict(identities), complete)

    def _adopt(self, objects, morphisms, dom, cod, facts, order, identities,
               complete) -> "CategorySlice":
        """Check the tables, then store them as given and return self.  The
        caller's dicts and lists are kept, not copied: ``facts[k]`` is the
        left and the right factors, by number, of the pairs composing to k,
        two sequences of equal length that are stored as tuples, and
        ``order`` lists every pair in ``compose`` order, or is None to list
        them by composite, in ``facts`` order.  The slice starts with no law
        verdict."""
        self.objects = tuple(objects)
        self.morphisms = self._at = tuple(morphisms)
        place = dict(zip(self.objects, range(len(self.objects))))
        if len(place) != len(self.objects):
            raise InvalidSlice("duplicate objects")
        number = self._number = dict(zip(self.morphisms, range(len(self.morphisms))))
        if len(number) != len(self.morphisms):
            raise InvalidSlice("duplicate morphisms")
        self.dom, self.cod = dom, cod
        dom_of, cod_of = self._dom, self._cod = [], []
        for f in self.morphisms:
            if f not in dom or f not in cod:
                raise InvalidSlice(f"morphism {f!r} lacks a domain or codomain")
            x, y = place.get(dom[f]), place.get(cod[f])
            if x is None or y is None:
                raise InvalidSlice(f"morphism {f!r} has endpoints outside the slice")
            dom_of.append(x)
            cod_of.append(y)
        at = self.morphisms
        for k, (lefts, rights) in enumerate(facts):  # each list is freed as its tuple is made
            x, y = dom_of[k], cod_of[k]
            for g, h in zip(lefts, rights):
                if cod_of[h] != dom_of[g] or dom_of[h] != x or cod_of[g] != y:
                    raise _bad_entry(at[g], at[h], at[k], cod_of[h] == dom_of[g])
            facts[k] = tuple(lefts), tuple(rights)
        self._after, self._facts = [], facts  # ``_rows`` fills the rows on the first read
        self.compose = _Compose(self._after, facts, order, number, at)
        self.identities, self._ident = identities, []
        for x, i in place.items():
            e = number.get(identities[x]) if x in identities else None
            if e is None:
                raise InvalidSlice(f"object {x!r} lacks an identity morphism")
            if dom_of[e] != i or cod_of[e] != i:
                raise _bad_identity(x, dom[self.morphisms[e]], cod[self.morphisms[e]])
            self._ident.append(e)
        if len(identities) != len(place):
            raise InvalidSlice("identities mention unknown objects")
        self.complete = frozenset(complete)
        if not number.keys() >= self.complete:
            raise InvalidSlice("complete set mentions unknown morphisms")
        self._groups = place, None, None  # ``_grouped`` fills the two lists
        self._one_way = None
        self._quotients: dict = {}
        self._orders: dict = {}  # object number -> lawvere._object_order's order or None
        self._associative = False
        return self

    def __repr__(self):
        return f"CategorySlice({len(self.objects)} objects, {len(self.morphisms)} morphisms)"

    def is_identity(self, f) -> bool:
        k = self._number.get(f)
        if k is None:
            raise InvalidSlice(f"{f!r} is not a morphism of the slice")
        return self._ident[self._dom[k]] == k

    def _grouped(self):
        """(place, out, into), the slice's object index: ``place`` maps each
        object to its number (``_adopt``'s, from the endpoint check), and
        ``out[x]`` and ``into[x]`` list the numbers of the morphisms out of
        and into object number x, in slice order, from one pass over the
        numbered endpoints on the first read.  Every read by object (``hom``,
        the law check, ``_object_order``, ``quotient_poset``) goes through it."""
        place, out, into = self._groups
        if out is None:
            out, into = [[] for _ in place], [[] for _ in place]
            for k, (x, y) in enumerate(zip(self._dom, self._cod)):
                out[x].append(k)
                into[y].append(k)
            self._groups = place, out, into
        return self._groups

    def _row(self, g):
        """h ↦ g∘h by number, None where the table has no entry: the
        ``get`` of g's row, filled on the first read."""
        return _rows(self)[g].get

    def hom(self, x, y) -> tuple:
        """All morphisms x -> y, in slice order: those in ``out[x]`` with codomain y."""
        place, out, _ = self._grouped()
        at, cod, y = self.morphisms, self._cod, place.get(y)
        return tuple([at[k] for k in (out[place[x]] if x in place else ()) if cod[k] == y])

    def morphisms_from(self, x) -> tuple:
        place, out, _ = self._grouped()
        at = self.morphisms
        return tuple([at[k] for k in (out[place[x]] if x in place else ())])

    def factorizations(self, f) -> tuple[tuple[Any, Any], ...]:
        """All ordered pairs (g, h) with g∘h = f, trivial ones included.

        Listed in composition-table order: the enumerator's order in every
        slice ``factor_slice`` builds, right factor major in a division
        category.  Translated from the numbered table on each call.
        """
        at = self.morphisms
        return tuple([(at[g], at[h]) for g, h in zip(*self._facts[self._handle(f)])])

    def _handle(self, f) -> int:
        """The number f is read by, once f is checked to be complete: a fully
        complete slice reads ``_number`` alone (``_closed_handle`` says why)."""
        return self._closed_handle(f, False)

    def _closed_handle(self, f, factors: bool = True) -> int:
        """f's number, once f and every factor of f (only f if ``factors`` is
        False) are checked to be complete, as exact intervals and sums need.
        ``_adopt`` refuses a complete set that is not a subset of the
        morphisms, so one as large as ``_number`` is the whole set: on such a
        fully complete slice (every window ``factor_slice`` builds, every
        division category) a morphism with a number is complete and so is
        each of its factors, and only a partial slice reads ``complete``."""
        k = self._number.get(f)  # numbers are ints, so None means no morphism
        if k is None:
            raise InvalidSlice(f"{f!r} is not a morphism of the slice")
        if len(self.complete) != len(self._number):
            if f not in self.complete:
                raise IncompleteSlice(f"morphism {f!r} is not marked factorization-complete")
            if factors:
                for h in (self._at[g] for pair in zip(*self._facts[k]) for g in pair):
                    if h not in self.complete:
                        raise IncompleteSlice(
                            f"factor {h!r} of {f!r} is not marked factorization-complete")
        return k

    # -- JSON input ------------------------------------------------------

    @classmethod
    def from_json(cls, data) -> "CategorySlice":
        """Load a slice whose objects and morphisms are string ids."""
        data = load_object(data, InvalidSlice, "slice", {
            "objects": (strings, "an array of strings"),
            "morphisms": (
                lambda v: isinstance(v, list) and all(
                    isinstance(rec, dict) and strings([rec.get(k) for k in ("id", "dom", "cod")])
                    for rec in v
                ),
                "an array of objects with string 'id', 'dom', 'cod'",
            ),
            "compose": (lambda v: rows(v, 3), "an array of string triples"),
            "identities": (
                lambda v: isinstance(v, dict) and strings(list(v.values())),
                "an object mapping object ids to morphism ids",
            ),
            "complete": (strings, "an array of strings"),
        })
        records = data["morphisms"]
        morphisms = [rec["id"] for rec in records]
        dom = {rec["id"]: rec["dom"] for rec in records}
        cod = {rec["id"]: rec["cod"] for rec in records}
        compose = {}
        for g, h, k in data["compose"]:
            if (g, h) in compose:
                raise InvalidSlice(f"compose lists the pair ({g!r}, {h!r}) twice")
            compose[g, h] = k
        identities, complete = data["identities"], data["complete"]
        return cls(data["objects"], morphisms, dom, cod, compose, identities, complete)


def _bad_entry(g, h, k, composable: bool) -> InvalidSlice:
    """The refusal of a composition entry (g, h) -> k with wrong endpoints."""
    if not composable:
        return InvalidSlice(f"compose defined on non-composable pair ({g!r}, {h!r})")
    return InvalidSlice(f"composite {k!r} of ({g!r}, {h!r}) has wrong endpoints")


def _bad_identity(x, d, c) -> InvalidSlice:
    """The refusal of an identity of x that runs from d to c."""
    return InvalidSlice(f"identity of {x!r} has endpoints ({d!r}, {c!r})")


def _rows(c):
    """The rows by left factor of a slice or its ``compose`` view; a slice
    fills them from its factorization index on the first read, so a
    slice that no read needs them on (a checked division category, walked by
    right factor) never holds them."""
    after = c._after
    if not after and c._facts:
        after += [{} for _ in c._facts]
        for k, (lefts, rights) in enumerate(c._facts):
            for g, h in zip(lefts, rights):
                after[g][h] = k
    return after


class _Compose(Mapping):
    """A slice's composition table read by morphism, (g, h) -> g∘h, in table
    order; read-only, each read (``Mapping``'s ``items`` too) translates the
    numbered rows."""

    __slots__ = ("_after", "_facts", "_order", "_number", "_at")

    def __init__(self, after, facts, order, number, at):
        self._after, self._facts, self._order = after, facts, order
        self._number, self._at = number, at

    def __getitem__(self, pair):
        if isinstance(pair, tuple) and len(pair) == 2:
            g = self._number.get(pair[0])
            k = None if g is None else _rows(self)[g].get(self._number.get(pair[1]))
            if k is not None:
                return self._at[k]
        raise KeyError(pair)

    def __iter__(self):
        at = self._at
        return ((at[g], at[h]) for g, h, _ in self._numbered())

    def __len__(self):
        return sum([len(rights) for _, rights in self._facts])

    def _numbered(self):
        """Each entry (g, h, g∘h) by number, in table order: as ``_order``
        lists the pairs, or by composite."""
        if self._order is None:
            return ((g, h, k) for k, listed in enumerate(self._facts) for g, h in zip(*listed))
        after = _rows(self)
        return ((g, h, after[g][h]) for g, h in self._order)


def _same(f):
    """The identity rule: a morphism read as its own handle."""
    return f


class _Rule:
    """A read-only mapping that stores nothing: ``r.get(k)`` is ``rule(k)``
    and so is ``r[k]``."""

    __slots__ = ("get",)

    def __init__(self, rule):
        self.get = rule

    def __getitem__(self, key):
        return self.get(key)


class FactorizationSource:
    """A category read through its rules instead of a table.

    ``factorizations(k)`` gives two sequences of equal length, the left
    factors (g₀, g₁, …) and the right factors (h₀, h₁, …) of the pairs
    (gᵢ, hᵢ) with gᵢ∘hᵢ = k, ``dom``/``cod`` give endpoints, ``identity(x)``
    the identity of x, ``row(g)`` the function h ↦ g∘h on the h composable
    with g, unchecked, and ``validate(f)`` raises unless f is a morphism.
    The rules read and give handles and plain endpoint values: ``handle(f)``
    is the handle of a morphism f, ``at(k)`` the morphism of a handle k,
    ``obj(x)`` the object of an endpoint value x, and all three default to
    the identity, so a source may read a morphism as its own handle and an
    object as its own value.  ``factorizations`` is the one public read: it
    runs ``validate`` on f and lists the pairs (g, h) as morphisms.  Each
    rule is read on request through a private name of a slice's numbered
    tables (``_number`` is ``handle``, ``_at`` is ``at``, and ``_row`` is
    ``row``, as a slice's ``_row(g)`` reads g's row), so the interval walk
    and the convolution recursion read a source as they read a slice, and
    memory grows only with what a route reads.  Every factorization list and
    identity is checked each time it is handed out, as the ``CategorySlice``
    constructor checks a table entry, on plain values, with its messages,
    which decode handles through ``at`` and endpoint values through
    ``obj``; the source stores nothing.  The list check is one rule,
    ``bad(k, lefts, rights)``, kept as ``_bad``: the index i of the first
    pair (lefts[i], rights[i]) = (g, h) with cod h ≠ dom g, dom h ≠ dom k or
    cod g ≠ cod k, or None.  By default it loops over the pairs calling
    ``dom`` and ``cod``; a source may state it with the same endpoints read
    inline on handles.  Every endpoint of every pair is checked either way,
    and the refusal is built from the pair the rule names.  Equal length is
    the enumerator's contract, like the endpoint rules', and is not checked:
    every reader pairs the two sequences by ``zip``.
    ``_enumerate`` is the enumerator unchecked and ``_obj`` the object rule,
    for ``factor_slice``, whose constructor pass checks each entry.
    """

    __slots__ = ("_enumerate", "_facts", "_row", "_dom", "_cod", "_ident", "_validate",
                 "_number", "_at", "_obj", "_bad")
    _associative = False  # no law check has read the rules

    def __init__(self, factorizations, dom, cod, identity, row, validate,
                 handle=_same, at=_same, obj=_same, bad=None):
        def each_pair(k, lefts, rights):
            x, y = dom(k), cod(k)
            for i, (g, h) in enumerate(zip(lefts, rights)):
                if cod(h) != dom(g) or dom(h) != x or cod(g) != y:
                    return i
            return None

        bad = bad or each_pair

        def checked_lists(k):
            lefts, rights = listed = factorizations(k)
            i = bad(k, lefts, rights)
            if i is not None:
                g, h = lefts[i], rights[i]
                raise _bad_entry(at(g), at(h), at(k), cod(h) == dom(g))
            return listed

        def checked_identity(x):
            e = identity(x)
            if dom(e) != x or cod(e) != x:
                raise _bad_identity(obj(x), obj(dom(e)), obj(cod(e)))
            return e

        self._dom, self._cod = _Rule(dom), _Rule(cod)
        self._ident = _Rule(checked_identity)
        self._row = row
        self._enumerate, self._facts = factorizations, _Rule(checked_lists)
        self._validate, self._number, self._at = validate, _Rule(handle), _Rule(at)
        self._obj, self._bad = obj, bad

    def factorizations(self, f) -> list:
        """All ordered pairs (g, h) with g∘h = f, in the enumerator's order."""
        at = self._at.get
        return [(at(g), at(h)) for g, h in zip(*self._facts[self._handle(f)])]

    def _handle(self, f):
        self._validate(f)
        return self._number.get(f)

    _closed_handle = _handle  # every morphism of a source is complete


# -- validation ------------------------------------------------------------

def find_slice_violation(c: CategorySlice) -> str | None:
    """First identity/associativity violation in the slice, or None.

    Associativity is checked on every composable triple for which both
    bracketings are expressible inside the slice; endpoints are checked
    when the slice is built.  A table that composes every composable pair,
    one entry per g and k into dom(g), is total (``_total``): Light's test
    on its generators (``_light``) decides it first.  A partial table, or
    one that test does not pass, takes the full scan (``_scan``), so the
    triple named is always the scan's.  All three read the object index.  A
    total table that passes is marked, and ``lawvere._walk`` reads the mark.
    ``factor_slice`` runs the same identity pass, count and test as it
    builds, but never the scan.
    """
    after = _rows(c)
    if violation := _identity_violation(c, after):
        return violation
    total = _total(c)
    if not (total and _light(c, after)) and (violation := _scan(c, after)):
        return violation
    c._associative = total
    return None


def _identity_violation(c: CategorySlice, after) -> str | None:
    """The first identity law that fails, morphisms in slice order, or None."""
    at, ident, dom, cod = c.morphisms, c._ident, c._dom, c._cod
    for f in range(len(at)):
        if after[f].get(ident[dom[f]]) != f:
            return f"right identity law fails at {at[f]!r}"
        if after[ident[cod[f]]].get(f) != f:
            return f"left identity law fails at {at[f]!r}"
    return None


def _total(c: CategorySlice) -> bool:
    """Whether the table is total: one entry per g and each k into dom(g)."""
    into = c._grouped()[2]
    return sum([len(into[x]) for x in c._dom]) == len(c.compose)


def _light(c: CategorySlice, after) -> bool:
    """Light's test on a total table whose identity laws hold (Clifford &
    Preston, *The Algebraic Theory of Semigroups* I, 1961): True iff the
    identities and atoms generate every morphism and (x∘g)∘y = x∘(g∘y) for
    each atom g and all composable x, y, which makes the table associative.
    The m with (x∘m)∘y = x∘(m∘y) for all x, y hold the identities and are
    closed under composition: (x∘(m∘m'))∘y = ((x∘m)∘m')∘y = (x∘m)∘(m'∘y) =
    x∘(m∘(m'∘y)) = x∘((m∘m')∘y), each step across m or m', every composite
    defined.  An atom's only factorizations are f∘1 and 1∘f, so it lists two.
    Each x is checked at once, row x∘g against row x read through row g;
    the x composable with g are read off the object index."""
    dom, cod, ident, out = c._dom, c._cod, c._ident, c._grouped()[1]
    atoms = {}  # the atoms, by domain
    for f, (_, rights) in enumerate(c._facts):
        if len(rights) == 2 and ident[dom[f]] != f:
            atoms.setdefault(dom[f], []).append(f)
    reached, stack = set(ident), list(ident)
    while stack:  # each reached w composed with every atom out of cod(w)
        w = stack.pop()
        for g in atoms.get(cod[w], ()):
            if (gw := after[g][w]) not in reached:
                reached.add(gw)
                stack.append(gw)
    if len(reached) != len(after):
        return False
    for g in (g for gs in atoms.values() for g in gs):
        row = after[g]
        ys, through = itemgetter(*row), itemgetter(*row.values())
        for x in out[cod[g]]:
            row_x = after[x]
            if ys(after[row_x[g]]) != through(row_x):
                return False
    return True


def _scan(c: CategorySlice, after) -> str | None:
    """The first failing triple: entries in ``compose`` order, k in ``into[dom h]``."""
    at, dom, into = c.morphisms, c._dom, c._grouped()[2]
    for g, h, gh in c.compose._numbered():
        after_h, after_g, after_gh = after[h].get, after[g].get, after[gh].get
        for k in into[dom[h]]:
            hk = after_h(k)
            if hk is None:
                continue
            left, right = after_gh(k), after_g(hk)
            if (left is None) != (right is None):
                return f"associativity definedness mismatch on ({at[g]!r}, {at[h]!r}, {at[k]!r})"
            if left is not None and left != right:
                return (f"associativity fails on ({at[g]!r}, {at[h]!r}, {at[k]!r}): "
                        f"{at[left]!r} != {at[right]!r}")
    return None


def is_one_way_category(c: CategorySlice) -> bool:
    """No two distinct objects connected both ways, and every Hom(X, X) = {1_X}.

    Cached on the slice.
    """
    if c._one_way is None:
        up, endos = [0] * len(c.objects), [0] * len(c.objects)
        for x, y in zip(c._dom, c._cod):
            up[x] |= 1 << y
            if x == y:
                endos[x] += 1
        c._one_way = one_way(up, [(x, x) for x, n in enumerate(endos) if n > 1])
    return c._one_way


def one_way(up, multiple) -> bool:
    """The one-way test on objects numbered 0..n-1: bit j of ``up[i]`` is
    set iff some morphism goes i -> j, and ``multiple`` holds the pairs
    (i, j) with two or more (only those with i == j matter).  Every object
    has exactly one endomorphism and no two distinct objects are connected
    both ways.  When each object is the lowest bit of its own up-set, as in
    a linear extension, both ways cannot occur; otherwise the masks are met
    with their transpose.
    """
    if any(i == j for i, j in multiple):
        return False
    if all(u & -u == 1 << j for j, u in enumerate(up)):
        return True
    return all(u & d == 1 << j for j, (u, d) in enumerate(zip(up, _transpose(up))))


def factor_slice(window, source: FactorizationSource) -> CategorySlice:
    """The full subcategory of ``source`` on a window closed under factors, in window order.

    Each morphism's factorizations are enumerated once, on the source's
    handles, in the order the slice is to list them, and each side is
    numbered by one lookup per factor, keyed by each window morphism's
    handle, so every table
    entry and identity is one of the window's own morphisms and each morphism
    is complete; each distinct endpoint value is decoded once through the
    source's ``obj``, so the slice keeps the source's objects.  A factor or an
    identity outside the window raises InvalidSlice, and so does a morphism
    whose handle does not read back as itself, which could share its number
    with another.
    The rows are filled here, and the slice is marked associative when its
    identity laws hold, its table is total and Light's test passes, as
    ``find_slice_violation`` decides; any other window (each partial
    ``dm_slice`` one) is left unmarked and unscanned.
    """
    window = tuple(window)
    handles = list(map(source._number.get, window))
    number = dict(zip(handles, range(len(window))))
    facts, factorizations, at, numbered = [], source._enumerate, source._at.get, number.__getitem__
    for f, k in zip(window, handles):
        if at(k) != f:  # a handle that reads back as f numbers f alone
            raise InvalidSlice(f"{f!r} is not a morphism of the source: "
                               f"its handle reads back as {at(k)!r}")
        lefts, rights = factorizations(k)
        try:
            facts.append((tuple(map(numbered, lefts)), tuple(map(numbered, rights))))
        except KeyError:  # name the first factor outside in (g₀, h₀, g₁, h₁, …) order
            outside = next(g for pair in zip(lefts, rights) for g in pair if g not in number)
            raise InvalidSlice(f"factor {at(outside)!r} of {f!r} "
                               "lies outside the window") from None
    doms, cods = list(map(source._dom.get, handles)), list(map(source._cod.get, handles))
    decoded = {x: source._obj(x) for x in dict.fromkeys(doms + cods)}  # each value once
    firsts, ident = dict.fromkeys(doms), source._ident.get
    objects = [decoded[x] for x in firsts]
    identities = {decoded[x]: window[k] for x in firsts if (k := number.get(ident(x))) is not None}
    dom_of = dict(zip(window, map(decoded.__getitem__, doms)))
    cod_of = dict(zip(window, map(decoded.__getitem__, cods)))
    c = CategorySlice.__new__(CategorySlice)._adopt(objects, window, dom_of, cod_of, facts, None,
                                                    identities, window)
    # a pair the enumerator lists twice shows as one entry fewer than listed
    after = _rows(c)
    if sum(map(len, after)) != len(c.compose):
        raise InvalidSlice("a factorization is listed twice")
    c._associative = _identity_violation(c, after) is None and _total(c) and _light(c, after)
    return c


def poset_as_category(p: FinitePoset) -> CategorySlice:
    """The poset as a category: one morphism (x, y) per related pair x <= y,
    factored through each z with x <= z <= y; the window holds every morphism.
    """
    elements, leq = p.elements, p.leq
    return factor_slice([(x, y) for x in elements for y in elements if leq(x, y)],
                        _poset_source(p))


def _poset_source(p: FinitePoset) -> FactorizationSource:
    """The rules of ``poset_as_category``, each morphism and object its own handle."""
    elements, leq = p.elements, p.leq

    def validate(f):
        if not leq(*f):  # leq refuses a non-member with NotComparable
            raise NotComparable(f"{f[0]!r} <= {f[1]!r} does not hold")

    def row(g):  # (z, y) ∘ (x, z) = (x, y)
        y = g[1]
        return lambda h: (h[0], y)

    def factorizations(f):  # (z, y) ∘ (x, z) for each z with x <= z <= y
        between = [z for z in elements if leq(f[0], z) and leq(z, f[1])]
        return [(z, f[1]) for z in between], [(f[0], z) for z in between]

    return FactorizationSource(factorizations, lambda f: f[0], lambda f: f[1], lambda x: (x, x),
                               row, validate)


# -- incidence functions -----------------------------------------------------

def _exact(value):
    """Normalize an exact scalar: Fractions with denominator 1 become ints."""
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, int):
        return value
    raise TypeError(f"incidence values must be exact rationals, got {type(value).__name__}")


class IncidenceFunction(Mapping):
    """A total map from the morphisms of a slice to exact rational scalars,
    kept as one row of values by the slice's morphism number and read in
    slice order.  The constructor checks once that ``values`` gives every
    morphism of ``c`` an exact value; keys outside ``c`` are dropped."""

    # _number: the slice's numbering, which ``_row`` compares by identity
    __slots__ = ("_number", "_row")

    def __init__(self, c: CategorySlice, values: Mapping):
        if not values.keys() >= c._number.keys():
            missing = next(f for f in c.morphisms if f not in values)
            raise InvalidSlice(f"incidence function is missing morphism {missing!r}")
        self._number, self._row = c._number, [_exact(values[f]) for f in c.morphisms]

    def __getitem__(self, f):
        return self._row[self._number[f]]

    def __iter__(self):
        return iter(self._number)

    def __len__(self):
        return len(self._row)

    def __repr__(self):
        return f"IncidenceFunction({len(self._row)} values)"

    @classmethod
    def zeta(cls, c: CategorySlice) -> "IncidenceFunction":
        """The constant-1 function."""
        return cls(c, dict.fromkeys(c.morphisms, 1))

    @classmethod
    def delta(cls, c: CategorySlice) -> "IncidenceFunction":
        """The convolution identity: 1 on identities, 0 elsewhere."""
        return cls(c, {f: 1 if c.is_identity(f) else 0 for f in c.morphisms})


def _row(c: CategorySlice, xi) -> list:
    """xi's values by c's morphism number: a function on c's numbering is read
    as it is, anything else (a plain mapping, a function on another slice) is
    checked total and exact by the IncidenceFunction constructor."""
    if not (isinstance(xi, IncidenceFunction) and xi._number is c._number):
        xi = IncidenceFunction(c, xi)
    return xi._row


def convolve(c: CategorySlice, xi, eta, f):
    """(xi * eta)(f) = sum over factorizations f = g∘h of xi(g) * eta(h)."""
    xi, eta = _row(c, xi), _row(c, eta)
    return sum([xi[g] * eta[h] for g, h in zip(*c._facts[c._handle(f)])])


def _invert_from(c: CategorySlice | FactorizationSource, eta: dict, root) -> None:
    """Add to eta μ = ζ⁻¹ at root and at each right factor of root it lacks;
    c is a slice or a source, and root and eta use its handles.  Solving
    (ζ * μ)(f) = δ(f) right factors first gives the recursion

        μ(f) = δ(f) - sum_{f = g∘h, g != 1_cod(f)} μ(h)

    summed in ``int``.  The walk is depth first on an explicit stack, so long
    factorization chains need no Python recursion; each morphism's
    factorizations are read once and kept on the stack until its value is
    summed.  Raises NotMoebius if the walk revisits a morphism still waiting
    for its right factors: the category is not one-way, so no finite
    recursion computes μ.
    """
    facts, ident, cod = c._facts, c._ident, c._cod
    waiting = {root}
    listed = facts[root]
    stack = [(root, ident[cod[root]], listed, zip(*listed))]
    while stack:
        f, one, listed, rest = stack[-1]
        for g, h in rest:
            if g != one and h not in eta:
                if h in waiting:
                    raise NotMoebius(f"factorization recursion revisits {c._at[h]!r}; "
                                     "slice is not one-way")
                waiting.add(h)
                below = facts[h]
                stack.append((h, ident[cod[h]], below, zip(*below)))
                break
        else:
            stack.pop()
            waiting.discard(f)
            eta[f] = int(f == one) - sum([eta[h] for g, h in zip(*listed) if g != one])


def moebius_at(c: CategorySlice | FactorizationSource, f) -> int:
    """μ(f) alone, by ``_invert_from``'s recursion run from f: it reads only
    f's right factors and their factorizations, so f and every factor of f
    must be complete."""
    root = c._closed_handle(f)
    eta: dict = {}
    _invert_from(c, eta, root)
    return eta[root]


def moebius_of_slice(c: CategorySlice) -> IncidenceFunction:
    """The Möbius function μ = ζ⁻¹ of a fully complete slice, by
    ``_invert_from``'s recursion run from each morphism in slice order.

    Raises IncompleteSlice unless every morphism is complete, and NotMoebius
    as ``_invert_from`` does.
    """
    if len(c.complete) != len(c.morphisms):
        raise IncompleteSlice("convolution inverse needs every morphism complete")
    eta: dict = {}
    for root in range(len(c.morphisms)):
        if root not in eta:
            _invert_from(c, eta, root)
    return IncidenceFunction(c, {c.morphisms[f]: value for f, value in eta.items()})
