"""Finite slices of small categories and their incidence algebra.

A CategorySlice is a finite window of a (possibly infinite) category: objects,
morphisms, a partial composition table, and an identity per object.  Morphisms
marked *complete* promise that every ambient factorization g∘h of the morphism
has g, h (and the pair entry) inside the slice, so factorization sums are
exact.  A slice numbers its morphisms and keeps its tables by number; the
walks read a slice by number and a ``FactorizationSource`` by morphism.
Incidence functions take exact rational values (Fraction / int); the zeta
function's convolution inverse is the Möbius function of the slice.
"""

from __future__ import annotations

import json
from collections.abc import ItemsView, Mapping
from fractions import Fraction
from typing import Any

from ._json import load_object, names, rows, strings
from .errors import (
    IncompleteSlice,
    InvalidSlice,
    NotInvertible,
    NotMoebius,
)
from .poset import FinitePoset, _transpose


class CategorySlice:
    """Finite presentation of a window of a small category.

    Morphisms and objects are numbered in list order, and the tables are
    kept by number: ``_table`` maps (g, h) with cod(h) = dom(g) to g∘h when
    the composite lies in the slice, ``_facts[k]`` lists the pairs composing
    to k, and ``_dom``/``_cod``/``_ident`` give endpoints and identities;
    ``compose`` is a read-only view of ``_table`` by morphism.  The
    constructor checks each entry's and each identity's endpoints once and
    indexes factorizations in that pass.  Other derived tables are cached.
    """

    __slots__ = (
        "objects", "morphisms", "dom", "cod", "compose", "identities", "complete",
        "_number", "_at", "_table", "_facts", "_dom", "_cod", "_ident",
        "_groups", "_moebius", "_one_way", "_quotients",
    )

    def __init__(self, objects, morphisms, dom, cod, compose, identities, complete=()):
        morphisms = tuple(morphisms)
        number, table = dict(zip(morphisms, range(len(morphisms)))).get, {}
        for (g, h), k in compose.items():
            key, composite = (number(g), number(h)), number(k)
            if composite is None or None in key:
                raise InvalidSlice(f"compose entry ({g!r}, {h!r}) -> {k!r} mentions unknown morphisms")
            table[key] = composite
        self._adopt(objects, morphisms, {f: dom[f] for f in morphisms if f in dom},
                    {f: cod[f] for f in morphisms if f in cod}, table, dict(identities), complete)

    def _adopt(self, objects, morphisms, dom, cod, table, identities, complete) -> "CategorySlice":
        """Check the tables and index factorizations in one pass, then store
        them as given and return self.  The caller's dicts are kept, not
        copied, and the composition table is keyed by morphism numbers."""
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
        facts = [[] for _ in self.morphisms]
        for pair, k in table.items():
            g, h = pair
            if cod_of[h] != dom_of[g] or dom_of[k] != dom_of[h] or cod_of[k] != cod_of[g]:
                at = self.morphisms
                raise _bad_entry(at[g], at[h], at[k], cod_of[h] == dom_of[g])
            facts[k].append(pair)
        self._table = table
        self.compose = _Compose(table, number, self.morphisms)
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
        for k, pairs in enumerate(facts):  # each list is freed as its tuple is made
            facts[k] = tuple(pairs)
        self._facts = facts
        self._groups = None
        self._moebius = None
        self._one_way = None
        self._quotients: dict = {}
        return self

    def __repr__(self):
        return f"CategorySlice({len(self.objects)} objects, {len(self.morphisms)} morphisms)"

    def is_identity(self, f) -> bool:
        k = self._number.get(f)
        if k is None:
            raise InvalidSlice(f"{f!r} is not a morphism of the slice")
        return self._ident[self._dom[k]] == k

    def _grouped(self):
        """Morphisms by (dom, cod) and by dom, in slice order; one pass."""
        if self._groups is None:
            hom, out = {}, {}
            for f in self.morphisms:
                x = self.dom[f]
                hom.setdefault((x, self.cod[f]), []).append(f)
                out.setdefault(x, []).append(f)
            self._groups = tuple({k: tuple(v) for k, v in t.items()} for t in (hom, out))
        return self._groups

    def hom(self, x, y) -> tuple:
        """All morphisms x -> y, in slice order."""
        return self._grouped()[0].get((x, y), ())

    def morphisms_from(self, x) -> tuple:
        return self._grouped()[1].get(x, ())

    def factorizations(self, f) -> tuple[tuple[Any, Any], ...]:
        """All ordered pairs (g, h) with g∘h = f, trivial ones included.

        Listed in composition-table order: the enumerator's order in every
        slice ``factor_slice`` builds, right factor major in a division
        category.  Translated from the numbered table on each call.
        """
        at = self.morphisms
        return tuple([(at[g], at[h]) for g, h in self._facts[self._handle(f)]])

    def _handle(self, f) -> int:  # the number f is read by, once f is checked to be complete
        if f not in self.complete:
            if f not in self._number:
                raise InvalidSlice(f"{f!r} is not a morphism of the slice")
            raise IncompleteSlice(f"morphism {f!r} is not marked factorization-complete")
        return self._number[f]

    def _closed_handle(self, f) -> int:
        """f's number, once f and every factor of f are checked to be complete, as
        exact intervals and sums need; a fully complete slice skips the factors."""
        k = self._handle(f)
        if len(self.complete) != len(self.morphisms):
            for h in (self._at[g] for pair in self._facts[k] for g in pair):
                if h not in self.complete:
                    raise IncompleteSlice(
                        f"factor {h!r} of {f!r} is not marked factorization-complete")
        return k

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        """Serialize in the documented slice schema (morphisms become string ids)."""
        mid = names(self.morphisms, InvalidSlice, "morphism/object keys")
        oid = names(self.objects, InvalidSlice, "morphism/object keys")
        key = [mid[f] for f in self.morphisms]  # by number
        data = {
            "objects": [oid[x] for x in self.objects],
            "morphisms": [
                {"id": mid[f], "dom": oid[self.dom[f]], "cod": oid[self.cod[f]]}
                for f in self.morphisms
            ],
            "compose": [[key[g], key[h], key[k]] for (g, h), k in self._table.items()],
            "identities": {oid[x]: mid[self.identities[x]] for x in self.objects},
            "complete": [mid[f] for f in self.morphisms if f in self.complete],
        }
        return json.dumps(data)

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


class _Compose(Mapping):
    """A slice's composition table read by morphism, (g, h) -> g∘h, in table
    order; read-only, it translates the numbered table on each read."""

    __slots__ = ("_table", "_number", "_at")

    def __init__(self, table, number, at):
        self._table, self._number, self._at = table, number, at

    def __getitem__(self, pair):
        if isinstance(pair, tuple) and len(pair) == 2:
            k = self._table.get((self._number.get(pair[0]), self._number.get(pair[1])))
            if k is not None:
                return self._at[k]
        raise KeyError(pair)

    def __iter__(self):
        at = self._at
        return ((at[g], at[h]) for g, h in self._table)

    def __len__(self):
        return len(self._table)

    def items(self):  # each entry translated once, not looked up again by key
        return _ComposeItems(self)


class _ComposeItems(ItemsView):
    def __iter__(self):
        at = self._mapping._at
        return (((at[g], at[h]), at[k]) for (g, h), k in self._mapping._table.items())


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

    ``factorizations(k)`` lists every (g, h) with g∘h = k, ``dom``/``cod``
    give endpoints, ``identity(x)`` the identity of x, ``composite((g, h))``
    the composite of a composable pair, unchecked, and ``validate(f)`` raises
    unless f is a morphism.  Each rule is read on request through a mapping
    named as a slice's numbered table, with the morphism itself as handle, so
    the interval walk and the convolution recursion read a source as they
    read a slice, and memory grows only with what a route reads.  Every
    factorization list and identity is checked each time it is handed out,
    as the ``CategorySlice`` constructor checks a table entry, with its
    messages; the source stores nothing.
    """

    __slots__ = ("dom", "cod", "identities", "compose", "_facts", "_table", "_dom", "_cod",
                 "_ident", "_validate")
    _at = _Rule(lambda f: f)  # the morphism a handle stands for

    def __init__(self, factorizations, dom, cod, identity, composite, validate):
        def checked_pairs(k):
            pairs = factorizations(k)
            x, y = dom(k), cod(k)
            for g, h in pairs:
                if cod(h) != dom(g) or dom(h) != x or cod(g) != y:
                    raise _bad_entry(g, h, k, cod(h) == dom(g))
            return pairs

        def checked_identity(x):
            e = identity(x)
            if dom(e) != x or cod(e) != x:
                raise _bad_identity(x, dom(e), cod(e))
            return e

        self.dom, self.cod = self._dom, self._cod = _Rule(dom), _Rule(cod)
        self.identities = self._ident = _Rule(checked_identity)
        self.compose = self._table = _Rule(composite)
        self._facts, self._validate = _Rule(checked_pairs), validate

    def factorizations(self, f) -> list:
        """All ordered pairs (g, h) with g∘h = f, in the enumerator's order."""
        return self._facts[self._handle(f)]

    def _handle(self, f):
        self._validate(f)  # a source reads f by f itself
        return f

    _closed_handle = _handle  # every morphism of a source is complete


# -- validation ------------------------------------------------------------

def find_slice_violation(c: CategorySlice) -> str | None:
    """First identity/associativity violation in the slice, or None.

    Associativity is checked on every composable triple for which both
    bracketings are expressible inside the slice; endpoints are checked
    when the slice is built.
    """
    at, get, ident, dom, cod = c.morphisms, c._table.get, c._ident, c._dom, c._cod
    for f in range(len(at)):
        if get((f, ident[dom[f]])) != f:
            return f"right identity law fails at {at[f]!r}"
        if get((ident[cod[f]], f)) != f:
            return f"left identity law fails at {at[f]!r}"
    into: dict = {}  # morphisms into each object, in slice order
    for f, y in enumerate(cod):
        into.setdefault(y, []).append(f)
    for (g, h), gh in c._table.items():
        for k in into.get(dom[h], ()):
            hk = get((h, k))
            if hk is None:
                continue
            left, right = get((gh, k)), get((g, hk))
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


def factor_slice(window, factorizations, dom, cod, identity) -> CategorySlice:
    """The full subcategory on a window closed under factors, in the window's order.

    ``factorizations(k)`` lists every (g, h) with g∘h = k, trivial ones too,
    in the order the slice is to list them; each list is read once, and both
    factors are looked up by number, so every table entry and identity is one
    of the window's own morphisms and each morphism is complete.  A factor
    outside the window raises InvalidSlice.
    """
    window = tuple(window)
    number = dict(zip(window, range(len(window))))
    table = {}
    for k, f in enumerate(window):
        for g, h in factorizations(f):
            try:
                table[number[g], number[h]] = k
            except KeyError as exc:
                raise InvalidSlice(f"factor {exc.args[0]!r} of {f!r} lies outside the window") from None
    dom_of = {f: dom(f) for f in window}
    objects = list(dict.fromkeys(dom_of.values()))
    identities = {x: window[number[identity(x)]] for x in objects}  # a factor of f = f∘1_x
    cod_of = {f: cod(f) for f in window}
    return CategorySlice.__new__(CategorySlice)._adopt(objects, window, dom_of, cod_of, table,
                                                       identities, window)


def poset_as_category(p: FinitePoset) -> CategorySlice:
    """The poset as a category: one morphism (x, y) per related pair x <= y.

    Every morphism is factorization-complete (the slice is the whole category).
    """
    elements, leq = p.elements, p.leq
    return factor_slice(
        [(x, y) for x in elements for y in elements if leq(x, y)],
        lambda f: [((z, f[1]), (f[0], z)) for z in elements if leq(f[0], z) and leq(z, f[1])],
        lambda f: f[0], lambda f: f[1], lambda x: (x, x),
    )


# -- incidence functions -----------------------------------------------------

def _exact(value):
    """Normalize an exact scalar: Fractions with denominator 1 become ints."""
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, int):
        return value
    raise TypeError(f"incidence values must be exact rationals, got {type(value).__name__}")


class IncidenceFunction(Mapping):
    """A total map from the morphisms of a slice to exact rational scalars."""

    # _total_on: the morphism numbering of the slice this function was last found
    # total on, and _row its values by number, so convolutions check totality once.
    __slots__ = ("_values", "_total_on", "_row")

    def __init__(self, values: Mapping):
        self._values = {f: _exact(v) for f, v in values.items()}
        self._total_on = self._row = None

    def __getitem__(self, f):
        return self._values[f]

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)

    def __eq__(self, other):
        if isinstance(other, IncidenceFunction):
            return self._values == other._values
        return NotImplemented

    def __repr__(self):
        return f"IncidenceFunction({len(self._values)} values)"

    @classmethod
    def zeta(cls, c: CategorySlice) -> "IncidenceFunction":
        """The constant-1 function."""
        return cls(dict.fromkeys(c.morphisms, 1))

    @classmethod
    def delta(cls, c: CategorySlice) -> "IncidenceFunction":
        """The convolution identity: 1 on identities, 0 elsewhere."""
        return cls({f: 1 if c.is_identity(f) else 0 for f in c.morphisms})


def _row(c: CategorySlice, xi) -> list:
    """xi's values by morphism number, once xi is checked to be total on c (kept on xi)."""
    known = isinstance(xi, IncidenceFunction)
    if known and xi._total_on is c._number:
        return xi._row
    values = xi._values if known else xi
    if not values.keys() >= c._number.keys():
        missing = next(f for f in c.morphisms if f not in values)
        raise InvalidSlice(f"incidence function is missing morphism {missing!r}")
    row = [values[f] for f in c.morphisms]
    if known:
        xi._total_on, xi._row = c._number, row
    return row


def convolve(c: CategorySlice, xi, eta, f):
    """(xi * eta)(f) = sum over factorizations f = g∘h of xi(g) * eta(h)."""
    xi, eta = _row(c, xi), _row(c, eta)
    return sum([xi[g] * eta[h] for g, h in c._facts[c._handle(f)]])


def convolution_inverse(c: CategorySlice, xi) -> IncidenceFunction:
    """The two-sided convolution inverse of xi on a fully complete slice.

    Solves (xi * eta)(f) = delta(f) right factors first:

        eta(f) = (delta(f) - sum_{f = g∘h, g != 1} xi(g) eta(h)) / xi(1_cod(f))

    The walk is depth first on an explicit stack, so long factorization
    chains need no Python recursion.  Raises NotInvertible if xi vanishes on
    an identity, and NotMoebius if the walk revisits a morphism that is still
    waiting for its right factors (the slice is not one-way, so no finite
    recursion computes the inverse).
    """
    xi = _row(c, xi)
    if len(c.complete) != len(c.morphisms):
        raise IncompleteSlice("convolution inverse needs every morphism complete")
    for x, e in zip(c.objects, c._ident):
        if xi[e] == 0:
            raise NotInvertible(f"function vanishes on the identity of {x!r}")
    eta: dict = {}
    for root in range(len(c.morphisms)):
        if root not in eta:
            _invert_from(c, xi, eta, root)
    return IncidenceFunction({c.morphisms[f]: value for f, value in eta.items()})


def _invert_from(c: CategorySlice | FactorizationSource, xi, eta: dict, root) -> None:
    """Add to eta the inverse's value at root and at each right factor of
    root it lacks, right factors first; c is a slice or a source, and root,
    xi and eta use its handles.

    Each morphism's factorizations are read once and kept on the stack until
    its value is summed.
    """
    facts, ident, cod = c._facts, c._ident, c._cod
    waiting = {root}
    pairs = facts[root]
    stack = [(root, ident[cod[root]], pairs, iter(pairs))]
    while stack:
        f, one, pairs, rest = stack[-1]
        for g, h in rest:
            if g != one and h not in eta:
                if h in waiting:
                    raise NotMoebius(f"factorization recursion revisits {c._at[h]!r}; "
                                     "slice is not one-way")
                waiting.add(h)
                below = facts[h]
                stack.append((h, ident[cod[h]], below, iter(below)))
                break
        else:
            stack.pop()
            waiting.discard(f)
            total = 1 if f == one else 0
            for g, h in pairs:
                if g != one:
                    total -= xi[g] * eta[h]
            unit = xi[one]
            if type(total) is int and type(unit) is int and total % unit == 0:
                eta[f] = total // unit
            else:
                eta[f] = Fraction(total, unit)


_ZETA = _Rule(lambda f: 1)  # the constant-1 function on every morphism of any category


def moebius_at(c: CategorySlice | FactorizationSource, f) -> int:
    """μ(f) alone, by the recursion of ``convolution_inverse`` on zeta run
    from f: it reads only f's right factors and their factorizations, so f
    and every factor of f must be complete."""
    root = c._closed_handle(f)
    eta: dict = {}
    _invert_from(c, _ZETA, eta, root)
    return eta[root]


def moebius_of_slice(c: CategorySlice) -> IncidenceFunction:
    """The Möbius function: convolution inverse of zeta.

    Values are integers, as the inverse divides by zeta(1) = 1 in ``int``
    arithmetic.  Cached on the slice (deterministic, idempotent).
    """
    if c._moebius is None:
        c._moebius = convolution_inverse(c, IncidenceFunction.zeta(c))
    return c._moebius

