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

    __slots__ = ("elements", "_index", "_table", "_inv", "_idem_poset", "_in_groups", "_d_keys",
                 "_associative")

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
        self._inv = self._idem_poset = self._in_groups = self._d_keys = None
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
        """Partition by: s ~ t iff some x has x⁻¹x = s⁻¹s and xx⁻¹ = tt⁻¹,
        in fresh lists on each call, from class keys found once per instance
        (``_d_class_keys``)."""
        if self._d_keys is None:
            self._d_keys = _d_class_keys(self._table, self._inverses())
        classes: dict[int, list] = {}
        for key, name in zip(self._d_keys, self.elements):
            classes.setdefault(key, []).append(name)
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


def _d_class_keys(table, inv) -> list[int]:
    """Each element's D-class key, by position.  As s D s⁻¹s, and the
    idempotents D-related to e are the xx⁻¹ with x⁻¹x = e, s is keyed by the
    earliest such xx⁻¹ for e = s⁻¹s."""
    key = [len(table)] * len(table)
    for x, i in enumerate(inv):
        key[table[i][x]] = min(key[table[i][x]], table[x][i])
    return [key[table[i][s]] for s, i in enumerate(inv)]


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
    returned; it just fails the Möbius test.  On an unchecked table that is
    not associative a composite outside the category raises InvalidSemigroup
    naming its factors.  Its table is total, so it takes s's verdict from
    ``find_semigroup_violation``; with it, its walks key positions by right
    factor and never read the rows by left factor.

    Objects are listed by decreasing |eS|, ties in transversal order, and
    morphisms object by object, each object's by decreasing size of the
    principal right ideal x⁻¹x·S, ties in element order, cut from one stable
    sort of the pairs (x, x⁻¹x) (x⁻¹x last if not idempotent).  f < f' gives
    |fS| < |f'S| for idempotents, and D-related ones have ideals of one size.
    A morphism (x, e): e -> f with f != e has x⁻¹x < e, so |fS| < |eS|: the
    objects come in a linear extension, and ``is_one_way_category`` needs no
    transpose.  As (t, f)·(x, e) = (tx, e) has (tx)⁻¹tx <= x⁻¹x, a right factor
    comes before every right factor it factors; in a combinatorial s two
    related ones never tie.  So each morphism's factorizations, listed right
    factor first, already come in a linear extension of its interval poset,
    which is then built without relabelling.
    """
    reps = default_transversal(s) if transversal is None else check_transversal(s, transversal)
    table, inv, name = s._table, s._inverses(), s.elements
    ideal = {f: len(set(table[f])) for f in s._idempotents()}  # |fS|
    objects = dict(sorted([(s._index[e], e) for e in reps], key=lambda p: -ideal[p[0]]))
    left, out = {}, {}  # morphism -> position of its first component; e -> {x: number of (x, e)}
    sources = sorted([(x, table[i][x]) for x, i in enumerate(inv) if table[x][i] in objects],
                     key=lambda p: -ideal.get(p[1], 0))  # (x, x⁻¹x), by decreasing |x⁻¹x·S|
    for k, e in objects.items():
        xs = [x for x, d in sources if table[k][d] == d]  # x⁻¹x <= e: e x⁻¹x = x⁻¹x
        out[e] = {x: len(left) + n for n, x in enumerate(xs)}
        left.update(((name[x], e), x) for x in out[e])
    morphisms, firsts = list(left), list(left.values())  # numbered in this order
    dom = {f: f[1] for f in morphisms}
    cod = {f: name[table[x][inv[x]]] for f, x in left.items()}
    # (t, f) · (x, e) = (t x, e), right factor major; cod(x, e) ∈ reps always
    facts = [([], []) for _ in morphisms]
    try:
        for k, f in enumerate(morphisms):
            into, x = out[f[1]], firsts[k]
            for g in out[cod[f]].values():
                lefts, rights = facts[into[table[firsts[g]][x]]]
                lefts.append(g)
                rights.append(k)
    except KeyError:  # only on a table that is not associative
        raise InvalidSemigroup(f"{morphisms[g]!r} · {f!r} is not a morphism: not associative") from None
    identities = {e: (e, e) for e in objects.values()}
    del left, out, firsts, sources  # freed before the slice's index is built
    c = CategorySlice.__new__(CategorySlice)._adopt(objects.values(), morphisms, dom, cod, facts,
                                                    None, identities, morphisms)
    c._associative = s._associative
    return c


def quotient_poset(c: CategorySlice, e) -> FinitePoset:
    """The quotient objects of e: morphisms out of e under factor-through order.

    (s, e) <= (t, e) iff some u in the category has u ∘ (t, e) = (s, e), that
    is iff some (u, (t, e)) is among the factorizations of (s, e); the
    identity (e, e) is the top.  Requires the category to be one-way so that
    the order is antisymmetric.  Listed in reverse slice order, top last, so
    mostly in a linear extension.  The carrier is e's ``_out`` list of the
    slice's object index, filled as the slice is built, so each mask is built
    from the numbered right factors (the second tuple of each ``_facts``
    entry) with no lookup by name; a slice that is not fully
    complete first refuses the carrier's first incomplete morphism.  On a
    marked slice the order is transitive by associativity, which is not
    checked again.  Built once per (slice, e) and cached on the slice.
    """
    poset = c._quotients.get(e)
    if poset is None:
        if not is_one_way_category(c):
            raise NotOneWay("quotient posets need a one-way category")
        place = c._place
        numbers = c._out[place[e]][::-1] if e in place else []
        carrier = [c.morphisms[s] for s in numbers]
        if len(c.complete) != len(c.morphisms):
            for s in carrier:
                c._handle(s)
        bit = {g: 1 << k for k, g in enumerate(numbers)}
        up = [sum({bit[t] for t in c._facts[s][1]}) for s in numbers]
        poset = c._quotients[e] = FinitePoset._from_masks(carrier, up, c._associative)
    return poset


def moebius_via_quotients(c: CategorySlice, morphism) -> int:
    """Rule one: mu(s, e) = mu_{Q(e)}((s, e), (e, e)).  The domain is read
    once, and only a KeyError refuses: any hashable, None too, can name an
    object.  Q(e) is read off the slice's cache."""
    try:
        e = c.dom[morphism]
    except KeyError:
        raise InvalidSlice(f"{morphism!r} is not a morphism of the division category") from None
    q = c._quotients.get(e)
    if q is None:  # not ``or``: a poset with no elements is falsy
        q = quotient_poset(c, e)
    return q.moebius(morphism, c.identities[e])


def moebius_via_idempotent_lattice(s: InverseSemigroup, morphism) -> int:
    """Rule two: mu(s', e) = mu_{E(eSe)}(s'⁻¹ s', e) in the idempotents below e.

    ``idempotent_poset`` has checked that E(eSe) is the down-set of e, and the
    interval [s'⁻¹ s', e] is the same there as in E(S), so mu is read off the
    cached idempotent poset.  The rule holds for combinatorial s only, so it
    raises NotCombinatorial otherwise (a check made once per semigroup).
    Everything is read by position: s'⁻¹ s' off the table and the inverses
    (which building the poset found), one position in the poset for it and
    one for e, the order off the poset's masks and μ off e's memoized column.
    On a table that is not associative s'⁻¹ s' need not be idempotent, and
    then (s', e) is refused as no morphism, as when s'⁻¹ s' is not below e.
    """
    x, e = morphism
    poset = s._idem_poset or s.idempotent_poset()  # an empty (falsy) poset takes the call
    pos = poset._pos
    q = pos.get(e)  # positions are ints: None means no idempotent
    if q is None:
        raise InvalidSemigroup(f"{e!r} is not an idempotent")
    check_combinatorial(s)
    i = s._index.get(x)
    if i is not None:
        p = pos.get(s.elements[s._table[s._inv[i]][i]])
        if p is not None and poset._up[p] >> q & 1:
            return (poset._mu.get(q) or poset._column(q))[p]
    raise InvalidSemigroup(f"({x!r}, {e!r}) is not a morphism of the division category")
