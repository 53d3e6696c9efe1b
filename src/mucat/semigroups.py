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

from operator import itemgetter
from typing import Iterable

from ._json import load_object, rows, strings
from .category import CategorySlice, is_one_way_category
from .errors import (
    InvalidSemigroup,
    InvalidSlice,
    NotOneWay,
    NotTransversal,
    NotCombinatorial,
)
from .poset import FinitePoset


class InverseSemigroup:
    """A finite semigroup given by its full multiplication table.

    ``_table[i][j]`` is the position of elements[i] · elements[j], in tuple
    rows every check reads as stored; names are read and written only at the
    public surface.  The inverse map is derived by search, not supplied.
    ``find_semigroup_violation`` checks that the table really is an inverse
    semigroup; accessors that need inverses raise InvalidSemigroup otherwise.
    """

    __slots__ = ("elements", "_index", "_table", "_inv", "_idem_poset", "_in_groups", "_associative")

    def __init__(self, elements: Iterable[str], table):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise InvalidSemigroup("duplicate elements")
        n = len(self.elements)
        index = self._index = {s: k for k, s in enumerate(self.elements)}
        rows = [list(row) for row in table]
        if len(rows) != n or any(len(row) != n for row in rows):
            raise InvalidSemigroup(f"table must be {n}x{n}")
        self._table = [tuple([index.get(entry) for entry in row]) for row in rows]
        for names, row in zip(rows, self._table):
            if None in row:
                raise InvalidSemigroup(f"table entry {names[row.index(None)]!r} is not an element")
        self._inv = self._idem_poset = self._in_groups = None
        self._associative = False  # set once find_semigroup_violation passes

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"InverseSemigroup({len(self.elements)} elements)"

    def mul(self, s, t):
        """Row = left factor."""
        try:
            return self.elements[self._table[self._index[s]][self._index[t]]]
        except KeyError as exc:
            raise InvalidSemigroup(f"{exc.args[0]!r} is not an element of the semigroup") from None

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
        try:
            return self.elements[self._inverses()[self._index[s]]]
        except KeyError as exc:
            raise InvalidSemigroup(f"{exc.args[0]!r} is not an element of the semigroup") from None

    def idempotents(self) -> list:
        return [self.elements[e] for e in self._idempotents()]

    def identity(self):
        """The identity element if one exists, else None; detected on each call."""
        table, ident = self._table, tuple(range(len(self.elements)))
        return next((self.elements[k] for k, row in enumerate(table)
                     if row == ident and tuple([r[k] for r in table]) == ident), None)

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

    def _subgroup_members(self) -> list:
        """The non-idempotent s with s s⁻¹ = s⁻¹ s, the members of nontrivial
        maximal subgroups; found once per instance."""
        if self._in_groups is None:
            table, inv = self._table, self._inverses()
            self._in_groups = [self.elements[s] for s, row in enumerate(table)
                               if row[inv[s]] == table[inv[s]][s] and row[s] != s]
        return self._in_groups

    def idempotent_poset(self) -> FinitePoset:
        """(E(S), natural order) as a finite poset, built once per instance.

        Once the poset laws hold, each E(eSe) = {e y e : y in E(S)} is checked
        to be the set of idempotents below e, as it is in an inverse
        semigroup; rule two relies on this and checks nothing itself.  After
        Light's test has passed, transitivity is proved, not checked.
        """
        if self._idem_poset is None:
            self._inverses()  # raises unless every element has exactly one inverse
            table, es = self._table, self._idempotents()
            up = [sum(1 << j for j, y in enumerate(es) if row[y] == x)  # x <= y iff xy = x
                  for x in es for row in [table[x]]]
            poset = FinitePoset._from_masks([self.elements[e] for e in es], up, self._associative)
            for j, e in enumerate(es):
                row = table[e]
                if {table[row[y]][e] for y in es} != {x for x, u in zip(es, up) if u >> j & 1}:
                    raise InvalidSemigroup(
                        f"E(eSe) differs from the idempotents below e = {self.elements[e]!r}")
            self._idem_poset = poset
        return self._idem_poset

    # -- JSON input ------------------------------------------------------

    @classmethod
    def from_json(cls, data) -> "InverseSemigroup":
        """Schema: {"elements": [str, ...], "table": [[str, ...], ...], "one": optional str};
        "one", when given, must be the identity."""
        data = load_object(data, InvalidSemigroup, "semigroup", {
            "elements": (strings, "an array of strings"),
            "table": (rows, "an array of arrays of strings"),
            "one": (lambda v: v is None or isinstance(v, str), "a string"),
        })
        s, one = cls(data["elements"], data["table"]), data.get("one")
        if one is not None and s.identity() != one:
            what = "an identity" if one in s._index else "an element"
            raise InvalidSemigroup(f"'one' {one!r} is not {what}")
        return s


def _generators(table) -> list[int]:
    """A generating set of the table's products, picked greedily.

    Elements are taken in decreasing |xS| (distinct entries of row x), ties
    in position order; one that the products of those picked so far miss
    joins the set, and a search over products w·g of reached elements w with
    generators g adds what it reaches.  So the search ends having reached
    every element, and reaches only products of generators: for the meet
    semilattice of B_k the set is the top and the k coatoms."""
    n = len(table)
    reached = bytearray(n)
    words: list[int] = []  # every element reached so far
    gens: list[int] = []
    for g in sorted(range(n), key=lambda x: -len(set(table[x]))):
        if reached[g]:
            continue
        gens.append(g)
        frontier = [g, *(table[w][g] for w in words)]
        while frontier:
            w = frontier.pop()
            if reached[w]:
                continue
            reached[w] = 1
            words.append(w)
            row = table[w]
            frontier.extend(row[h] for h in gens if not reached[row[h]])
    return gens


def find_semigroup_violation(s: InverseSemigroup) -> str | None:
    """First associativity or unique-inverse violation, or None.

    Associativity is decided by Light's test (Clifford & Preston, *The
    Algebraic Theory of Semigroups*, Vol. I, 1961): (ag)c = a(gc) is
    checked for all a, c only for g in a generating set, each a at once as
    row ag against row a read through row g.  That is sound for any table,
    as the g that pass are closed under the product.  A failure names the
    triple the test meets: the first failing g in ``_generators`` order,
    then the first a, then the first c.  Idempotents are not compared
    pairwise: in a semigroup where every element has exactly one inverse
    they commute (Howie, *Fundamentals of Semigroup Theory*, 1995,
    Thm 5.1.1)."""
    rows, name = s._table, s.elements
    # a one-element table is associative, and itemgetter of one index returns no tuple
    for g in _generators(rows) if len(rows) > 1 else ():
        through = itemgetter(*rows[g])
        for a, row_a in enumerate(rows):
            row_ag, via = rows[row_a[g]], through(row_a)
            if row_ag != via:
                c = next(c for c, x in enumerate(via) if row_ag[c] != x)
                return f"associativity fails on ({name[a]!r}, {name[g]!r}, {name[c]!r})"
    try:
        s._inverses()
    except InvalidSemigroup as exc:
        return str(exc)
    s._associative = True
    return None


def check_combinatorial(s: InverseSemigroup) -> None:
    """Raise NotCombinatorial naming the first member of a nontrivial maximal
    subgroup, if any; the members are found once per semigroup."""
    if members := s._subgroup_members():
        raise NotCombinatorial(f"{members[0]!r} lies in a nontrivial subgroup")


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
    """Validate: idempotent, one per D-class.

    In a finite inverse monoid the identity is the only idempotent of its
    D-class (x⁻¹x = 1 makes x a unit), so a transversal that passes holds it."""
    reps = tuple(reps)
    idem = set(s.idempotents())
    for e in reps:
        if e not in idem:
            raise NotTransversal(f"{e!r} is not an idempotent")
    classes = s.d_classes()
    where = {x: k for k, cls in enumerate(classes) for x in cls}
    hits: list[list] = [[] for _ in classes]
    for e in reps:
        hits[where[e]].append(e)
    for cls, met in zip(classes, hits):
        if len(met) != 1:
            raise NotTransversal(f"D-class {cls!r} meets the transversal in {met!r}")
    return reps


def division_category(s: InverseSemigroup, transversal=None) -> CategorySlice:
    """The division category of s relative to an idempotent transversal.

    Objects are the transversal; Hom(e, f) = {(s', e) : s'⁻¹ s' <= e,
    s' s'⁻¹ = f}.  This is the whole (finite) category, so every morphism is
    factorization-complete.  For non-combinatorial s the category is still
    returned; it just fails the Möbius test.  Its table is total, so it takes
    s's verdict from ``find_semigroup_violation``; with it, its walks key
    positions by right factor and never read the rows by left factor.

    Objects are listed by decreasing |eS|, ties in transversal order, and
    morphisms object by object, each object's by decreasing size of the
    principal right ideal x⁻¹x·S, ties in element order.  f < f' gives
    |fS| < |f'S| for idempotents, and D-related ones have ideals of one
    size.  A morphism (x, e): e -> f with f != e has x⁻¹x < e, so
    |fS| < |eS|: the objects come in a linear extension, and
    ``is_one_way_category`` needs no transpose.  As (t, f)·(x, e) = (tx, e)
    has (tx)⁻¹tx <= x⁻¹x, a right factor comes before every right factor it
    factors; in a combinatorial s two related ones never tie.  So each
    morphism's factorizations, listed right factor first, already come in a
    linear extension of its interval poset, which is then built without
    relabelling.
    """
    reps = default_transversal(s) if transversal is None else check_transversal(s, transversal)
    table, inv, name = s._table, s._inverses(), s.elements
    ideal = {f: len(set(table[f])) for f in s._idempotents()}  # |fS|
    objects = dict(sorted([(s._index[e], e) for e in reps], key=lambda p: -ideal[p[0]]))
    reps = tuple(objects.values())
    left, out = {}, {}  # morphism -> position of its first component; e -> {x: number of (x, e)}
    sources = [(x, table[i][x]) for x, i in enumerate(inv) if table[x][i] in objects]  # (x, x⁻¹x)
    for k, e in objects.items():
        # x x⁻¹ in the transversal and x⁻¹x <= e (e x⁻¹x = x⁻¹x), by decreasing |x⁻¹x·S|
        xs = [x for x, d in sources if table[k][d] == d]
        xs.sort(key=lambda x: -ideal[table[inv[x]][x]])
        out[e] = {x: len(left) + n for n, x in enumerate(xs)}
        left.update(((name[x], e), x) for x in out[e])
    morphisms, firsts = list(left), list(left.values())  # numbered in this order
    dom = {f: f[1] for f in morphisms}
    cod = {f: name[table[x][inv[x]]] for f, x in left.items()}
    # (t, f) · (x, e) = (t x, e), right factor major; cod(x, e) ∈ reps always,
    # so composites stay inside
    facts = [[] for _ in morphisms]
    for k, f in enumerate(morphisms):
        into, x = out[f[1]], firsts[k]
        for g in out[cod[f]].values():
            facts[into[table[firsts[g]][x]]].append((g, k))
    identities = {e: (e, e) for e in reps}
    c = CategorySlice.__new__(CategorySlice)._adopt(reps, morphisms, dom, cod, facts, None,
                                                    identities, morphisms)
    c._associative = s._associative
    return c


def quotient_poset(c: CategorySlice, e) -> FinitePoset:
    """The quotient objects of e: morphisms out of e under factor-through order.

    (s, e) <= (t, e) iff some u in the category has u ∘ (t, e) = (s, e), that
    is iff some (u, (t, e)) is among the factorizations of (s, e); the
    identity (e, e) is the top.  Requires the category to be one-way so that
    the order is antisymmetric.  Listed in reverse slice order, top last, so
    mostly in a linear extension.  On a marked slice the order is transitive
    by associativity, which is not checked again.  Built once per (slice, e)
    and cached on the slice.
    """
    poset = c._quotients.get(e)
    if poset is None:
        if not is_one_way_category(c):
            raise NotOneWay("quotient posets need a one-way category")
        carrier = c.morphisms_from(e)[::-1]
        handles = [c._handle(s) for s in carrier]
        bit = {g: 1 << k for k, g in enumerate(handles)}
        up = [sum({bit[t] for _, t in c._facts[s]}) for s in handles]
        poset = c._quotients[e] = FinitePoset._from_masks(carrier, up, c._associative)
    return poset


def moebius_via_quotients(c: CategorySlice, morphism) -> int:
    """Rule one: mu(s, e) = mu_{Q(e)}((s, e), (e, e))."""
    if morphism not in c.dom:
        raise InvalidSlice(f"{morphism!r} is not a morphism of the division category")
    e = c.dom[morphism]
    q = quotient_poset(c, e)
    return q.moebius(morphism, c.identities[e])


def moebius_via_idempotent_lattice(s: InverseSemigroup, morphism) -> int:
    """Rule two: mu(s', e) = mu_{E(eSe)}(s'⁻¹ s', e) in the idempotents below e.

    ``idempotent_poset`` has checked that E(eSe) is the down-set of e, and the
    interval [s'⁻¹ s', e] is the same there as in E(S), so mu is read off the
    cached idempotent poset.  The rule holds for combinatorial s only, so it
    raises NotCombinatorial otherwise (a check made once per semigroup).
    """
    x, e = morphism
    poset = s.idempotent_poset()
    if e not in poset:
        raise InvalidSemigroup(f"{e!r} is not an idempotent")
    check_combinatorial(s)
    if x not in s._index or not poset.leq(source := s.mul(s.inverse(x), x), e):
        raise InvalidSemigroup(f"({x!r}, {e!r}) is not a morphism of the division category")
    return poset.moebius(source, e)
