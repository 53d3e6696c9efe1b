"""Finite inverse semigroups from multiplication tables and their division categories.

An inverse semigroup has a unique inverse s⁻¹ per element (s s⁻¹ s = s and
s⁻¹ s s⁻¹ = s⁻¹) and carries the natural partial order s <= t iff s = s s⁻¹ t.
Given an idempotent transversal F of the D-classes, the division category has
objects F and morphisms (s, e): e -> s s⁻¹ with s⁻¹ s <= e, composed by
(t, f) · (s, e) = (t s, e).

Two poset-valued ways of reading off the Möbius value of a morphism (s, e) are
implemented next to the generic category machinery: the quotient poset of e
(morphisms out of e under factor-through order) and the lattice of idempotents
below e.  On combinatorial semigroups all routes agree exactly.
"""

from __future__ import annotations

import json
from typing import Iterable

from ._json import load_object, rows, strings
from .category import CategorySlice, compose_table, is_one_way_category
from .errors import (
    InvalidSemigroup,
    NotOneWay,
    NotTransversal,
    NotCombinatorial,
)
from .poset import FinitePoset


class InverseSemigroup:
    """A finite semigroup given by its full multiplication table.

    The inverse map is derived by exhaustive search, not supplied.  Use
    ``find_semigroup_violation`` / ``validate_inverse_semigroup`` to check that
    the table really is an inverse semigroup; accessors that need inverses
    raise InvalidSemigroup otherwise.
    """

    __slots__ = ("elements", "_index", "_table", "one", "_inv", "_idem_poset")

    def __init__(self, elements: Iterable[str], table, one=None):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise InvalidSemigroup("duplicate elements")
        n = len(self.elements)
        self._index = {s: k for k, s in enumerate(self.elements)}
        rows = [list(row) for row in table]
        if len(rows) != n or any(len(row) != n for row in rows):
            raise InvalidSemigroup(f"table must be {n}x{n}")
        for row in rows:
            for entry in row:
                if entry not in self._index:
                    raise InvalidSemigroup(f"table entry {entry!r} is not an element")
        self._table = rows
        if one is not None:
            if one not in self._index:
                raise InvalidSemigroup(f"'one' {one!r} is not an element")
            if any(self.mul(one, s) != s or self.mul(s, one) != s for s in self.elements):
                raise InvalidSemigroup(f"'one' {one!r} is not an identity")
        self.one = one
        self._inv = None
        self._idem_poset = None

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"InverseSemigroup({len(self.elements)} elements)"

    def mul(self, s, t):
        """Row = left factor."""
        return self._table[self._index[s]][self._index[t]]

    def _inverses(self):
        if self._inv is None:
            inv = {}
            for s in self.elements:
                found = [
                    t for t in self.elements
                    if self.mul(self.mul(s, t), s) == s and self.mul(self.mul(t, s), t) == t
                ]
                if len(found) != 1:
                    raise InvalidSemigroup(
                        f"element {s!r} has {len(found)} inverse candidates, expected 1"
                    )
                inv[s] = found[0]
            self._inv = inv
        return self._inv

    def inverse(self, s):
        return self._inverses()[s]

    def idempotents(self) -> list:
        return [e for e in self.elements if self.mul(e, e) == e]

    def natural_leq(self, s, t) -> bool:
        """s <= t iff s = s s⁻¹ t."""
        return s == self.mul(self.mul(s, self.inverse(s)), t)

    def identity(self):
        """The identity element if one exists (detected, not assumed)."""
        if self.one is not None:
            return self.one
        for e in self.elements:
            if all(self.mul(e, s) == s and self.mul(s, e) == s for s in self.elements):
                return e
        return None

    def d_classes(self) -> list[list]:
        """Partition by: s ~ t iff some x has x⁻¹x = s⁻¹s and xx⁻¹ = tt⁻¹."""
        inv = self._inverses()

        def related(s, t):
            ss = self.mul(inv[s], s)
            tt = self.mul(t, inv[t])
            return any(
                self.mul(inv[x], x) == ss and self.mul(x, inv[x]) == tt
                for x in self.elements
            )

        classes: list[list] = []
        for s in self.elements:
            for cls in classes:
                if related(s, cls[0]):
                    cls.append(s)
                    break
            else:
                classes.append([s])
        return classes

    def is_combinatorial(self) -> bool:
        """True iff every maximal subgroup {s : s s⁻¹ = s⁻¹ s = e} is trivial."""
        inv = self._inverses()
        for e in self.idempotents():
            group = [
                s for s in self.elements
                if self.mul(s, inv[s]) == e and self.mul(inv[s], s) == e
            ]
            if group != [e]:
                return False
        return True

    def idempotent_poset(self) -> FinitePoset:
        """(E(S), natural order) as a finite poset, built once per instance."""
        if self._idem_poset is None:
            es = self.idempotents()
            pairs = [(x, y) for x in es for y in es if self.natural_leq(x, y)]
            self._idem_poset = FinitePoset(es, leq=pairs)
        return self._idem_poset

    # -- serialization ---------------------------------------------------

    @classmethod
    def from_json(cls, data) -> "InverseSemigroup":
        """Schema: {"elements": [str, ...], "table": [[str, ...], ...], "one": optional str}."""
        data = load_object(data, InvalidSemigroup, "semigroup", {
            "elements": (strings, "an array of strings"),
            "table": (rows, "an array of arrays of strings"),
            "one": (lambda v: v is None or isinstance(v, str), "a string"),
        })
        return cls(data["elements"], data["table"], data.get("one"))

    def to_json(self) -> str:
        """Serialize; non-string elements are rendered through str()."""
        key = {s: s if isinstance(s, str) else str(s) for s in self.elements}
        if len(set(key.values())) != len(key):
            raise InvalidSemigroup("element names are not unique; cannot serialize")
        data = {
            "elements": [key[s] for s in self.elements],
            "table": [[key[self.mul(s, t)] for t in self.elements] for s in self.elements],
        }
        identity = self.identity()
        if identity is not None:
            data["one"] = key[identity]
        return json.dumps(data)


def meet_semilattice(p: FinitePoset) -> InverseSemigroup:
    """The meet operation of a poset as an inverse semigroup.

    Every pair must have a meet (the poset need not have a top).
    """
    table = []
    for x in p.elements:
        row = []
        for y in p.elements:
            m = p.meet(x, y)
            if m is None:
                raise InvalidSemigroup(f"{x!r} and {y!r} have no meet")
            row.append(m)
        table.append(row)
    return InverseSemigroup(p.elements, table, one=p.top())


def find_semigroup_violation(s: InverseSemigroup) -> str | None:
    """First associativity / unique-inverse / commuting-idempotent violation."""
    for a in s.elements:
        for b in s.elements:
            ab = s.mul(a, b)
            for c in s.elements:
                if s.mul(ab, c) != s.mul(a, s.mul(b, c)):
                    return f"associativity fails on ({a!r}, {b!r}, {c!r})"
    try:
        s._inverses()
    except InvalidSemigroup as exc:
        return str(exc)
    for e in s.idempotents():
        for f in s.idempotents():
            if s.mul(e, f) != s.mul(f, e):
                return f"idempotents {e!r}, {f!r} do not commute"
    return None


def validate_inverse_semigroup(s: InverseSemigroup) -> bool:
    return find_semigroup_violation(s) is None


# -- division category -------------------------------------------------------

def default_transversal(s: InverseSemigroup) -> tuple:
    """One idempotent per D-class, when each class holds exactly one idempotent."""
    idem = set(s.idempotents())
    reps = []
    for cls in s.d_classes():
        es = [x for x in cls if x in idem]
        if len(es) != 1:
            raise NotTransversal(
                f"D-class {cls!r} holds {len(es)} idempotents; supply a transversal explicitly"
            )
        reps.append(es[0])
    return tuple(reps)


def check_transversal(s: InverseSemigroup, reps) -> tuple:
    """Validate: idempotent, one per D-class, identity included when present."""
    reps = tuple(reps)
    idem = set(s.idempotents())
    for e in reps:
        if e not in idem:
            raise NotTransversal(f"{e!r} is not an idempotent")
    classes = s.d_classes()
    for cls in classes:
        hits = [e for e in reps if e in cls]
        if len(hits) != 1:
            raise NotTransversal(f"D-class {cls!r} meets the transversal in {hits!r}")
    one = s.identity()
    if one is not None and one not in reps:
        raise NotTransversal(f"the identity {one!r} must belong to the transversal")
    return reps


def division_category(
    s: InverseSemigroup, transversal=None, *, require_combinatorial=False
) -> CategorySlice:
    """The division category of s relative to an idempotent transversal.

    Objects are the transversal; Hom(e, f) = {(s', e) : s'⁻¹ s' <= e,
    s' s'⁻¹ = f}.  This is the whole (finite) category, so every morphism is
    factorization-complete.  For non-combinatorial s the category is still
    returned (it just fails the Möbius test) unless ``require_combinatorial``.
    """
    reps = default_transversal(s) if transversal is None else check_transversal(s, transversal)
    if require_combinatorial and not s.is_combinatorial():
        raise NotCombinatorial("the semigroup has a nontrivial subgroup")
    inv = s._inverses()
    morphisms = [
        (x, e)
        for e in reps
        for x in s.elements
        if s.mul(x, inv[x]) in reps and s.natural_leq(s.mul(inv[x], x), e)
    ]
    dom = {f: f[1] for f in morphisms}
    cod = {f: s.mul(f[0], inv[f[0]]) for f in morphisms}
    # (t, f) · (x, e) = (t x, e); cod(x, e) ∈ reps always, so composites stay inside
    compose = compose_table(morphisms, dom, cod, lambda g, f: (s.mul(g[0], f[0]), f[1]))
    identities = {e: (e, e) for e in reps}
    return CategorySlice(reps, morphisms, dom, cod, compose, identities, morphisms)


def quotient_poset(c: CategorySlice, e) -> FinitePoset:
    """The quotient objects of e: morphisms out of e under factor-through order.

    (s, e) <= (t, e) iff some u in the category has u ∘ (t, e) = (s, e); the
    identity (e, e) is the top.  Requires the category to be one-way so that
    the order is antisymmetric.  Built once per (slice, e) and cached on the
    slice.
    """
    poset = c._quotients.get(e)
    if poset is None:
        if not is_one_way_category(c):
            raise NotOneWay("quotient posets need a one-way category")
        carrier = c.morphisms_from(e)
        index = {g: k for k, g in enumerate(carrier)}
        up = [0] * len(carrier)
        for t, tf in enumerate(carrier):
            for u in c.morphisms_from(c.cod[tf]):
                s = index.get(c.compose.get((u, tf)))
                if s is not None:
                    up[s] |= 1 << t
        poset = c._quotients[e] = FinitePoset._from_masks(carrier, up)
    return poset


def moebius_via_quotients(c: CategorySlice, morphism) -> int:
    """Rule one: mu(s, e) = mu_{Q(e)}((s, e), (e, e))."""
    e = c.dom[morphism]
    q = quotient_poset(c, e)
    return q.moebius(morphism, c.identities[e])


def moebius_via_idempotent_lattice(s: InverseSemigroup, morphism) -> int:
    """Rule two: mu(s', e) = mu_{E(eSe)}(s'⁻¹ s', e) in the idempotents below e.

    The interval [s'⁻¹ s', e] is the same in E(S) as in the idempotents below
    e, so mu is read off the cached idempotent poset.
    """
    x, e = morphism
    poset = s.idempotent_poset()
    below = poset.down_set(e) if e in poset else frozenset()
    if below != {s.mul(s.mul(e, y), e) for y in poset.elements}:
        raise InvalidSemigroup("E(eSe) differs from the idempotents below e")
    return poset.moebius(s.mul(s.inverse(x), x), e)
