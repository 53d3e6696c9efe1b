"""Finite slices of small categories and their incidence algebra.

A CategorySlice is a finite window of a (possibly infinite) category: objects,
morphisms, a partial composition table, and an identity per object.  Morphisms
marked *complete* promise that every ambient factorization g∘h of the morphism
has g, h (and the pair entry) inside the slice, so factorization sums are
exact.  Incidence functions take exact rational values (Fraction / int); the
zeta function's convolution inverse is the Möbius function of the slice.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from fractions import Fraction
from itertools import islice
from typing import Any

from ._json import load_object, rows, strings
from .errors import (
    IncompleteSlice,
    InvalidSlice,
    NotInvertible,
    NotMoebius,
)
from .poset import FinitePoset

_EXACT_JSON = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


class CategorySlice:
    """Finite presentation of a window of a small category.

    ``compose`` maps pairs (g, h) with cod(h) = dom(g) to g∘h whenever the
    composite lies in the slice; the constructor checks each entry's and each
    identity's endpoints once and indexes factorizations in that pass.  Other
    derived tables (hom-sets, Möbius function) are cached lazily.
    """

    __slots__ = (
        "objects", "morphisms", "dom", "cod", "compose", "identities",
        "complete", "_morphism_set", "_groups", "_facts", "_moebius", "_one_way",
        "_quotients",
    )

    def __init__(self, objects, morphisms, dom, cod, compose, identities, complete=()):
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        objs = set(self.objects)
        if len(objs) != len(self.objects):
            raise InvalidSlice("duplicate objects")
        mors = self._morphism_set = frozenset(self.morphisms)
        if len(mors) != len(self.morphisms):
            raise InvalidSlice("duplicate morphisms")
        self.dom = dict(dom)
        self.cod = dict(cod)
        ends = {}  # morphism -> (dom, cod, factorizations so far)
        for f in self.morphisms:
            if f not in self.dom or f not in self.cod:
                raise InvalidSlice(f"morphism {f!r} lacks a domain or codomain")
            x, y = self.dom[f], self.cod[f]
            if x not in objs or y not in objs:
                raise InvalidSlice(f"morphism {f!r} has endpoints outside the slice")
            ends[f] = (x, y, [])
        self.compose = dict(compose)
        for pair, k in self.compose.items():
            g, h = pair
            ek, eg, eh = ends.get(k), ends.get(g), ends.get(h)
            if ek is None or eg is None or eh is None:
                raise InvalidSlice(f"compose entry ({g!r}, {h!r}) -> {k!r} mentions unknown morphisms")
            if eh[1] != eg[0]:
                raise InvalidSlice(f"compose defined on non-composable pair ({g!r}, {h!r})")
            if ek[0] != eh[0] or ek[1] != eg[1]:
                raise InvalidSlice(f"composite {k!r} of ({g!r}, {h!r}) has wrong endpoints")
            ek[2].append(pair)
        self.identities = dict(identities)
        for x in self.objects:
            if x not in self.identities or self.identities[x] not in mors:
                raise InvalidSlice(f"object {x!r} lacks an identity morphism")
            ex = ends[self.identities[x]]
            if ex[0] != x or ex[1] != x:
                raise InvalidSlice(f"identity of {x!r} has endpoints ({ex[0]!r}, {ex[1]!r})")
        complete = frozenset(complete)
        if not complete <= mors:
            raise InvalidSlice("complete set mentions unknown morphisms")
        # a fully complete slice shares the morphism set, so readers test that by identity
        self.complete = mors if complete == mors else complete
        # popping frees each list as its tuple is made, which lowers peak memory
        self._facts = {f: tuple(ends.pop(f)[2]) for f in self.morphisms}
        self._groups = None
        self._moebius = None
        self._one_way = None
        self._quotients: dict = {}

    def __repr__(self):
        return f"CategorySlice({len(self.objects)} objects, {len(self.morphisms)} morphisms)"

    def identity_of(self, x):
        return self.identities[x]

    def is_identity(self, f) -> bool:
        return self.identities[self.dom[f]] == f

    def _grouped(self):
        """Morphisms by (dom, cod), by dom and by cod, in slice order; one pass."""
        if self._groups is None:
            hom, out, into = {}, {}, {}
            for f in self.morphisms:
                x, y = self.dom[f], self.cod[f]
                hom.setdefault((x, y), []).append(f)
                out.setdefault(x, []).append(f)
                into.setdefault(y, []).append(f)
            self._groups = tuple({k: tuple(v) for k, v in t.items()} for t in (hom, out, into))
        return self._groups

    def hom(self, x, y) -> tuple:
        """All morphisms x -> y, in slice order."""
        return self._grouped()[0].get((x, y), ())

    def morphisms_from(self, x) -> tuple:
        return self._grouped()[1].get(x, ())

    def morphisms_into(self, x) -> tuple:
        return self._grouped()[2].get(x, ())

    def factorizations(self, f) -> tuple[tuple[Any, Any], ...]:
        """All ordered pairs (g, h) with g∘h = f, trivial ones included.

        Listed in composition-table order, which in every slice the library
        builds is right factor major (see ``compose_table``, ``factor_slice``).
        """
        if f not in self.complete:
            raise IncompleteSlice(f"morphism {f!r} is not marked factorization-complete")
        return self._facts[f]

    # -- serialization ---------------------------------------------------

    def morphism_key(self, f) -> str:
        return f if isinstance(f, str) else str(f)

    def object_key(self, x) -> str:
        return x if isinstance(x, str) else str(x)

    def to_json(self) -> str:
        """Serialize in the documented slice schema (morphisms become string ids)."""
        mid = {f: self.morphism_key(f) for f in self.morphisms}
        oid = {x: self.object_key(x) for x in self.objects}
        if len(set(mid.values())) != len(mid) or len(set(oid.values())) != len(oid):
            raise InvalidSlice("morphism/object keys are not unique; cannot serialize")
        data = {
            "objects": [oid[x] for x in self.objects],
            "morphisms": [
                {"id": mid[f], "dom": oid[self.dom[f]], "cod": oid[self.cod[f]]}
                for f in self.morphisms
            ],
            "compose": [[mid[g], mid[h], mid[k]] for (g, h), k in self.compose.items()],
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
        compose = {(g, h): k for g, h, k in data["compose"]}
        identities, complete = data["identities"], data["complete"]
        return cls(data["objects"], morphisms, dom, cod, compose, identities, complete)


# -- validation ------------------------------------------------------------

def find_slice_violation(c: CategorySlice) -> str | None:
    """First identity/associativity violation in the slice, or None.

    Associativity is checked on every composable triple for which both
    bracketings are expressible inside the slice; endpoints are checked
    when the slice is built.
    """
    for f in c.morphisms:
        if c.compose.get((f, c.identities[c.dom[f]])) != f:
            return f"right identity law fails at {f!r}"
        if c.compose.get((c.identities[c.cod[f]], f)) != f:
            return f"left identity law fails at {f!r}"
    for (g, h), gh in c.compose.items():
        for k in c.morphisms_into(c.dom[h]):
            hk = c.compose.get((h, k))
            left = c.compose.get((gh, k))
            if hk is None:
                continue
            right = c.compose.get((g, hk))
            if (left is None) != (right is None):
                return f"associativity definedness mismatch on ({g!r}, {h!r}, {k!r})"
            if left is not None and left != right:
                return f"associativity fails on ({g!r}, {h!r}, {k!r}): {left!r} != {right!r}"
    return None


def validate_slice(c: CategorySlice) -> bool:
    """True iff the identity and associativity laws hold throughout the slice."""
    return find_slice_violation(c) is None


def is_one_way_category(c: CategorySlice) -> bool:
    """No two distinct objects connected both ways, and every Hom(X, X) = {1_X}.

    Cached on the slice.
    """
    if c._one_way is None:
        index = {x: k for k, x in enumerate(c.objects)}
        into: list[set] = [set() for _ in c.objects]
        multiple = set()
        for (x, y), hs in c._grouped()[0].items():
            into[index[y]].add(index[x])
            if len(hs) > 1:
                multiple.add((index[x], index[y]))
        c._one_way = one_way(into, multiple)
    return c._one_way


def one_way(into, multiple) -> bool:
    """The one-way test on objects numbered 0..n-1: ``into[j]`` holds every
    i with a morphism i -> j, and ``multiple`` every pair (i, j) with two or
    more.  Every object has exactly one endomorphism and no two distinct
    objects are connected both ways; O(objects + homs).
    """
    for j, sources in enumerate(into):
        if j not in sources or (j, j) in multiple:
            return False
        for i in sources:
            if i != j and j in into[i]:
                return False
    return True


def compose_table(morphisms, dom, cod, rule) -> dict:
    """The composition table {(g, f): g∘f} of a window, in one by-domain walk.

    ``rule(g, f)`` gives the composite of a pair with cod f = dom g, or None
    when it falls outside the window.  None ends the walk over f's left
    factors, so a rule may return it only when every later left factor falls
    outside too.  Entries come right factor major, in the order of
    ``morphisms``, and so do the left factors of each f; a slice lists
    factorizations in this order.
    """
    by_dom: dict = {}
    for f in morphisms:
        by_dom.setdefault(dom[f], []).append(f)
    table = {}
    for f in morphisms:
        for g in by_dom.get(cod[f], ()):
            k = rule(g, f)
            if k is None:
                break
            table[g, f] = k
    return table


def factor_slice(f, factorizations, dom, cod, identity) -> CategorySlice:
    """The full subcategory on the middle factors of f, every k with f = w∘k∘v.

    ``factorizations(k)`` lists every (g, h) with g∘h = k, trivial ones too,
    in the order the slice is to list them.  A factor of a factor is a middle
    factor, so each morphism is complete.  Equal morphisms are interned, so
    lookups match by identity.
    """
    seen = {f: f}
    walk = [f]
    compose = {}
    for k in walk:
        for g, h in factorizations(k):
            compose[seen.setdefault(g, g), seen.setdefault(h, h)] = k
        walk.extend(islice(reversed(seen), len(seen) - len(walk)))  # first met at k
    dom_of = {k: dom(k) for k in walk}
    objects = list(dict.fromkeys(dom_of.values()))
    identities = {x: seen[identity(x)] for x in objects}  # met in k = k∘1_x
    cod_of = {k: cod(k) for k in walk}
    return CategorySlice(objects, walk, dom_of, cod_of, compose, identities, walk)


def poset_as_category(p: FinitePoset) -> CategorySlice:
    """The poset as a category: one morphism (x, y) per related pair x <= y.

    Every morphism is factorization-complete (the slice is the whole category).
    """
    morphisms = [(x, y) for x in p.elements for y in p.elements if p.leq(x, y)]
    dom = {f: f[0] for f in morphisms}
    cod = {f: f[1] for f in morphisms}
    compose = compose_table(morphisms, dom, cod, lambda g, f: (f[0], g[1]))
    identities = {x: (x, x) for x in p.elements}
    return CategorySlice(p.elements, morphisms, dom, cod, compose, identities, morphisms)


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

    # _total_on: the morphism set of the slice this function was last found
    # total on, so repeated convolutions over one slice check totality once.
    __slots__ = ("_values", "_total_on")

    def __init__(self, values: Mapping):
        self._values = {f: _exact(v) for f, v in values.items()}
        self._total_on = None

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
    def constant(cls, c: CategorySlice, value) -> "IncidenceFunction":
        return cls({f: value for f in c.morphisms})

    @classmethod
    def zeta(cls, c: CategorySlice) -> "IncidenceFunction":
        """The constant-1 function."""
        return cls.constant(c, 1)

    @classmethod
    def delta(cls, c: CategorySlice) -> "IncidenceFunction":
        """The convolution identity: 1 on identities, 0 elsewhere."""
        return cls({f: 1 if c.is_identity(f) else 0 for f in c.morphisms})

    def to_json(self, c: CategorySlice) -> str:
        """Serialize as {morphism id: "p/q"} in slice order."""
        return json.dumps(
            {c.morphism_key(f): str(Fraction(self._values[f])) for f in c.morphisms}
        )

    @classmethod
    def from_json(cls, c: CategorySlice, data) -> "IncidenceFunction":
        """Load {morphism id: value}; each value is a JSON integer or a "p/q" string."""
        data = load_object(data, InvalidSlice, "incidence function")
        by_key = {c.morphism_key(f): f for f in c.morphisms}
        values = {}
        for key, raw in data.items():
            if key not in by_key:
                raise InvalidSlice(f"incidence value for unknown morphism id {key!r}")
            values[by_key[key]] = _exact_from_json(raw)
        return cls(values)


def _exact_from_json(raw):
    """An int, or a "p/q" string with q != 0; floats and bools are not exact input."""
    if type(raw) is int:
        return raw
    if isinstance(raw, str) and _EXACT_JSON.fullmatch(raw):
        try:
            return Fraction(raw)
        except ZeroDivisionError:
            raise InvalidSlice(f"incidence value {raw!r} has a zero denominator") from None
        except ValueError as exc:  # more digits than int() may read
            raise InvalidSlice(f"incidence value is too long to read: {exc}") from None
    raise InvalidSlice(f"incidence value {raw!r} is not an integer or a 'p/q' string")


def _require_total(c: CategorySlice, xi) -> None:
    known = isinstance(xi, IncidenceFunction)
    if known and xi._total_on is c._morphism_set:
        return
    keys = xi._values.keys() if known else xi.keys()
    if not keys >= c._morphism_set:
        missing = next(f for f in c.morphisms if f not in xi)
        raise InvalidSlice(f"incidence function is missing morphism {missing!r}")
    if known:
        xi._total_on = c._morphism_set


def convolve(c: CategorySlice, xi, eta, f):
    """(xi * eta)(f) = sum over factorizations f = g∘h of xi(g) * eta(h)."""
    _require_total(c, xi)
    _require_total(c, eta)
    return _convolve_at(c, xi, eta, f)


def _convolve_at(c, xi, eta, f):
    return sum(xi[g] * eta[h] for g, h in c.factorizations(f))


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
    _require_total(c, xi)
    if c.complete is not c._morphism_set:
        raise IncompleteSlice("convolution inverse needs every morphism complete")
    for x in c.objects:
        if xi[c.identities[x]] == 0:
            raise NotInvertible(f"function vanishes on the identity of {x!r}")
    facts = c._facts
    eta: dict = {}
    for root in c.morphisms:
        if root in eta:
            continue
        waiting = {root}
        stack = [(root, c.identities[c.cod[root]], iter(facts[root]))]
        while stack:
            f, one, pairs = stack[-1]
            for g, h in pairs:
                if g != one and h not in eta:
                    if h in waiting:
                        raise NotMoebius(
                            f"factorization recursion revisits {h!r}; slice is not one-way"
                        )
                    waiting.add(h)
                    stack.append((h, c.identities[c.cod[h]], iter(facts[h])))
                    break
            else:
                stack.pop()
                waiting.discard(f)
                total = 1 if f == one else 0
                for g, h in facts[f]:
                    if g != one:
                        total -= xi[g] * eta[h]
                unit = xi[one]
                if type(total) is int and type(unit) is int and total % unit == 0:
                    eta[f] = total // unit
                else:
                    eta[f] = Fraction(total, unit)
    return IncidenceFunction(eta)


def moebius_of_slice(c: CategorySlice) -> IncidenceFunction:
    """The Möbius function: convolution inverse of zeta.

    Values are integers, as the inverse divides by zeta(1) = 1 in ``int``
    arithmetic.  Cached on the slice (deterministic, idempotent).
    """
    if c._moebius is None:
        c._moebius = convolution_inverse(c, IncidenceFunction.zeta(c))
    return c._moebius


def moebius_inversion_check(c: CategorySlice, eta) -> bool:
    """Verify eta = (eta * zeta) * mu pointwise and exactly."""
    _require_total(c, eta)
    zeta = IncidenceFunction.zeta(c)
    mu = moebius_of_slice(c)
    xi = IncidenceFunction({f: _convolve_at(c, eta, zeta, f) for f in c.morphisms})
    return all(_convolve_at(c, xi, mu, f) == eta[f] for f in c.morphisms)
