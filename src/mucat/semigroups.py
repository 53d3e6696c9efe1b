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

    ``_table[i][j]`` is the position of elements[i] · elements[j]; names are
    read and written only at the public surface.  The inverse map is derived
    by exhaustive search, not supplied.  Use ``find_semigroup_violation`` /
    ``validate_inverse_semigroup`` to check that the table really is an
    inverse semigroup; accessors that need inverses raise InvalidSemigroup
    otherwise.
    """

    __slots__ = ("elements", "_index", "_table", "one", "_inv", "_idem_poset")

    def __init__(self, elements: Iterable[str], table, one=None):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise InvalidSemigroup("duplicate elements")
        n = len(self.elements)
        index = self._index = {s: k for k, s in enumerate(self.elements)}
        rows = [list(row) for row in table]
        if len(rows) != n or any(len(row) != n for row in rows):
            raise InvalidSemigroup(f"table must be {n}x{n}")
        self._table = [[index.get(entry) for entry in row] for row in rows]
        for names, row in zip(rows, self._table):
            if None in row:
                raise InvalidSemigroup(f"table entry {names[row.index(None)]!r} is not an element")
        self.one = self._inv = self._idem_poset = None
        if one is not None:
            if one not in index:
                raise InvalidSemigroup(f"'one' {one!r} is not an element")
            if self.identity() != one:
                raise InvalidSemigroup(f"'one' {one!r} is not an identity")
        self.one = one

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"InverseSemigroup({len(self.elements)} elements)"

    def mul(self, s, t):
        """Row = left factor."""
        return self.elements[self._table[self._index[s]][self._index[t]]]

    def _idempotents(self) -> list[int]:
        return [k for k, row in enumerate(self._table) if row[k] == k]

    def _inverses(self) -> list[int]:
        """Position of each element's unique inverse."""
        if self._inv is None:
            table = self._table
            inv = []
            for s, row in enumerate(table):
                found = [t for t, st in enumerate(row)
                         if table[st][s] == s and table[table[t][s]][t] == t]
                if len(found) != 1:
                    raise InvalidSemigroup(f"element {self.elements[s]!r} has "
                                           f"{len(found)} inverse candidates, expected 1")
                inv.append(found[0])
            self._inv = inv
        return self._inv

    def inverse(self, s):
        return self.elements[self._inverses()[self._index[s]]]

    def idempotents(self) -> list:
        return [self.elements[e] for e in self._idempotents()]

    def natural_leq(self, s, t) -> bool:
        """s <= t iff s = s s⁻¹ t."""
        return _below(self._table, self._inverses(), self._index[s], self._index[t])

    def identity(self):
        """The identity element if one exists (detected, not assumed)."""
        if self.one is not None:
            return self.one
        table, ident = self._table, list(range(len(self.elements)))
        for k, row in enumerate(table):
            if row == ident and [r[k] for r in table] == ident:
                return self.elements[k]
        return None

    def d_classes(self) -> list[list]:
        """Partition by: s ~ t iff some x has x⁻¹x = s⁻¹s and xx⁻¹ = tt⁻¹.

        As s D s⁻¹s, and the idempotents D-related to e are the xx⁻¹ with
        x⁻¹x = e, s is keyed by the earliest such xx⁻¹ for e = s⁻¹s.
        """
        table, inv = self._table, self._inverses()
        key = [len(table)] * len(table)
        for x, i in enumerate(inv):
            key[table[i][x]] = min(key[table[i][x]], table[x][i])
        classes: dict[int, list] = {}
        for s, name in enumerate(self.elements):
            classes.setdefault(key[table[inv[s]][s]], []).append(name)
        return list(classes.values())

    def is_combinatorial(self) -> bool:
        """True iff every maximal subgroup {s : s s⁻¹ = s⁻¹ s = e} is trivial,
        i.e. every s with s s⁻¹ = s⁻¹ s is idempotent."""
        table, inv = self._table, self._inverses()
        return all(row[s] == s for s, row in enumerate(table)
                   if row[inv[s]] == table[inv[s]][s])

    def idempotent_poset(self) -> FinitePoset:
        """(E(S), natural order) as a finite poset, built once per instance.

        Once the poset laws hold, each E(eSe) = {e y e : y in E(S)} is checked
        to be the set of idempotents below e, as it is in an inverse
        semigroup; rule two relies on this and checks nothing itself.
        """
        if self._idem_poset is None:
            table, inv, es = self._table, self._inverses(), self._idempotents()
            up = [sum(1 << j for j, y in enumerate(es) if _below(table, inv, x, y)) for x in es]
            poset = FinitePoset._from_masks([self.elements[e] for e in es], up)
            for j, e in enumerate(es):
                row = table[e]
                if {table[row[y]][e] for y in es} != {x for x, u in zip(es, up) if u >> j & 1}:
                    raise InvalidSemigroup(
                        f"E(eSe) differs from the idempotents below e = {self.elements[e]!r}")
            self._idem_poset = poset
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
        names = [s if isinstance(s, str) else str(s) for s in self.elements]
        if len(set(names)) != len(names):
            raise InvalidSemigroup("element names are not unique; cannot serialize")
        data = {"elements": names, "table": [[names[k] for k in row] for row in self._table]}
        identity = self.identity()
        if identity is not None:
            data["one"] = names[self._index[identity]]
        return json.dumps(data)


def _below(table, inv, x, y) -> bool:
    """The natural order on positions: x <= y iff x = (x x⁻¹) y."""
    return table[table[x][inv[x]]][y] == x


def meet_semilattice(p: FinitePoset) -> InverseSemigroup:
    """The meet operation of a poset as an inverse semigroup.

    Every pair must have a meet (the poset need not have a top).
    """
    table = [[p.meet(x, y) for y in p.elements] for x in p.elements]
    for x, row in zip(p.elements, table):
        if None in row:
            raise InvalidSemigroup(f"{x!r} and {p.elements[row.index(None)]!r} have no meet")
    return InverseSemigroup(p.elements, table, one=p.top())


def find_semigroup_violation(s: InverseSemigroup) -> str | None:
    """First associativity / unique-inverse / commuting-idempotent violation.

    (ab)c = a(bc) is checked for every c at once: row ab against row a read
    through row b."""
    table, name = s._table, s.elements
    for a, row_a in enumerate(table):
        for b, row_b in enumerate(table):
            row_ab, through = table[row_a[b]], [row_a[bc] for bc in row_b]
            if row_ab != through:
                c = next(c for c, x in enumerate(through) if row_ab[c] != x)
                return f"associativity fails on ({name[a]!r}, {name[b]!r}, {name[c]!r})"
    try:
        s._inverses()
    except InvalidSemigroup as exc:
        return str(exc)
    es = s._idempotents()
    for e in es:
        for f in es:
            if table[e][f] != table[f][e]:
                return f"idempotents {name[e]!r}, {name[f]!r} do not commute"
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
    for cls in s.d_classes():
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
    table, inv, name = s._table, s._inverses(), s.elements
    objects = {s._index[e]: e for e in reps}
    left = {}  # morphism -> position of its first component
    for k, e in objects.items():
        for x, i in enumerate(inv):
            # x x⁻¹ in the transversal and x⁻¹x <= e
            if table[x][i] in objects and _below(table, inv, table[i][x], k):
                left[name[x], e] = x
    morphisms = list(left)
    dom = {f: f[1] for f in morphisms}
    cod = {f: name[table[x][inv[x]]] for f, x in left.items()}
    # (t, f) · (x, e) = (t x, e); cod(x, e) ∈ reps always, so composites stay inside
    compose = compose_table(morphisms, dom, cod,
                            lambda g, f: (name[table[left[g]][left[f]]], f[1]))
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

    ``idempotent_poset`` has checked that E(eSe) is the down-set of e, and the
    interval [s'⁻¹ s', e] is the same there as in E(S), so mu is read off the
    cached idempotent poset.
    """
    x, e = morphism
    poset = s.idempotent_poset()
    if e not in poset:
        raise InvalidSemigroup(f"{e!r} is not an idempotent")
    return poset.moebius(s.mul(s.inverse(x), x), e)
