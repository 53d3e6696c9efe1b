"""Finite partially ordered sets with interval, cover, lattice and Möbius machinery.

Elements are opaque hashable identifiers.  A poset can be built either from the
full relation or from its cover relation (the covers are closed reflexively and
transitively).  Element order is the order in which the elements were supplied
and every derived output (cover lists, DOT, JSON) iterates in that order, so
identical inputs produce byte-identical outputs.

The Möbius function is computed by the classical recursion

    mu(x, x) = 1,    mu(x, y) = -sum(mu(x, z) for x <= z < y)

evaluated bottom-up over the interval in a linear extension and memoized per
instance; values are always integers.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable

from ._json import load_object, rows, strings
from .errors import InvalidPoset, NotComparable


def _transitive_reflexive_closure(elements, arcs):
    """Closure of arcs as a dict element -> set of successors (self included)."""
    succ = {x: {x} for x in elements}
    adj = {x: set() for x in elements}
    for a, b in arcs:
        adj[a].add(b)
    for x in elements:
        # iterative DFS from x
        stack = list(adj[x])
        seen = succ[x]
        while stack:
            y = stack.pop()
            if y not in seen:
                seen.add(y)
                stack.extend(adj[y])
    return succ


class FinitePoset:
    """A finite poset over opaque hashable elements.

    Exactly one of ``leq`` / ``covers`` must be given.  ``leq`` is the full
    relation as (smaller, larger) pairs and is validated to be reflexive,
    antisymmetric and transitive; ``covers`` is closed under reflexivity and
    transitivity, and cyclic input is rejected.
    """

    __slots__ = ("elements", "_index", "_up", "_down", "_mu")

    def __init__(self, elements: Iterable[Any], *, leq=None, covers=None):
        elems = tuple(elements)
        if len(set(elems)) != len(elems):
            raise InvalidPoset("duplicate elements")
        if (leq is None) == (covers is None):
            raise InvalidPoset("give exactly one of 'leq' or 'covers'")
        index = {x: k for k, x in enumerate(elems)}

        def check_pair(pair):
            a, b = pair
            if a not in index or b not in index:
                raise InvalidPoset(f"relation mentions unknown element in {(a, b)!r}")
            return a, b

        if covers is not None:
            arcs = [check_pair(p) for p in covers]
            up = _transitive_reflexive_closure(elems, arcs)
            for x in elems:
                for y in up[x]:
                    if x != y and x in up[y]:
                        raise InvalidPoset(f"cyclic cover input: {x!r} and {y!r}")
        else:
            pairs = {check_pair(p) for p in leq}
            up = {x: set() for x in elems}
            for a, b in pairs:
                up[a].add(b)
            for x in elems:
                if x not in up[x]:
                    raise InvalidPoset(f"relation is not reflexive at {x!r}")
            for a in elems:
                for b in up[a]:
                    if a != b and a in up[b]:
                        raise InvalidPoset(f"relation is not antisymmetric on {a!r}, {b!r}")
                    if not up[b] <= up[a]:
                        c = next(iter(up[b] - up[a]))
                        raise InvalidPoset(
                            f"relation is not transitive: {a!r} <= {b!r} <= {c!r}"
                        )

        self.elements = elems
        self._index = index
        self._up = {x: frozenset(s) for x, s in up.items()}
        self._down = None
        self._mu: dict = {}

    # -- basic queries ---------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self._index

    def __repr__(self):
        return f"FinitePoset({len(self.elements)} elements)"

    def leq(self, x, y) -> bool:
        return y in self._up[x]

    def lt(self, x, y) -> bool:
        return x != y and y in self._up[x]

    def up_set(self, x) -> frozenset:
        """All y with x <= y."""
        return self._up[x]

    def _down_table(self):
        if self._down is None:
            down = {x: set() for x in self.elements}
            for x in self.elements:
                for y in self._up[x]:
                    down[y].add(x)
            self._down = {y: frozenset(s) for y, s in down.items()}
        return self._down

    def down_set(self, y) -> frozenset:
        """All x with x <= y."""
        return self._down_table()[y]

    def _sorted(self, xs):
        return sorted(xs, key=self._index.__getitem__)

    def covers(self) -> list[tuple[Any, Any]]:
        """All pairs x < y with nothing strictly between, in element order."""
        out = []
        for x in self.elements:
            above = [y for y in self._up[x] if y != x]
            for y in self._sorted(above):
                if not any(self.lt(x, z) and self.lt(z, y) for z in above):
                    out.append((x, y))
        return out

    def _require_comparable(self, x, y):
        if x not in self._index or y not in self._index:
            raise NotComparable(f"{x!r} or {y!r} is not an element of this poset")
        if not self.leq(x, y):
            raise NotComparable(f"{x!r} <= {y!r} does not hold")

    def interval(self, x, y) -> "FinitePoset":
        """The induced sub-poset on {z : x <= z <= y}."""
        self._require_comparable(x, y)
        carrier = [z for z in self.elements if self.leq(x, z) and self.leq(z, y)]
        pairs = [(a, b) for a in carrier for b in carrier if self.leq(a, b)]
        return FinitePoset(carrier, leq=pairs)

    # -- lattice / Möbius ------------------------------------------------

    def join(self, x, y):
        """Least upper bound, or None.

        The common upper bounds form an up-set, so their least element is the
        unique member whose up-set is the whole bound set; since each such
        up-set lies inside the bound set, comparing sizes suffices.
        Comparable pairs, common in is_lattice's sweep, need no intersection.
        """
        up = self._up
        if y in up[x]:
            return y
        if x in up[y]:
            return x
        uppers = up[x] & up[y]
        n = len(uppers)
        for u in uppers:
            if len(up[u]) == n:
                return u
        return None

    def meet(self, x, y):
        """Greatest lower bound, or None."""
        down = self._down_table()
        lowers = down[x] & down[y]
        n = len(lowers)
        for u in lowers:
            if len(down[u]) == n:
                return u
        return None

    def is_lattice(self) -> bool:
        """True iff every pair has a unique least upper and greatest lower bound.

        A finite poset is a lattice iff it is empty, or it has a bottom and
        every pair has a join (Stanley, EC1, Ch. 3), so meets are not checked.
        """
        if not self.elements:
            return True
        if self.bottom() is None:
            return False
        for i, x in enumerate(self.elements):
            for y in self.elements[i + 1:]:
                if self.join(x, y) is None:
                    return False
        return True

    def bottom(self):
        """The unique minimum, or None."""
        n = len(self.elements)
        for x in self.elements:
            if len(self._up[x]) == n:
                return x
        return None

    def top(self):
        """The unique maximum, or None."""
        down = self._down_table()
        n = len(self.elements)
        for x in self.elements:
            if len(down[x]) == n:
                return x
        return None

    def moebius(self, x, y) -> int:
        """mu(x, y) of this poset."""
        self._require_comparable(x, y)
        return self._moebius(x, y)

    def _moebius(self, x, y) -> int:
        # mu(x, .) on all of [x, y], in a linear extension and without
        # recursion: a strict predecessor has a strictly larger up-set, so it
        # comes first (Stanley, EC1, Ch. 3)
        mu = self._mu
        value = mu.get((x, y))
        if value is None:
            up = self._up
            row = []
            for w in sorted((z for z in up[x] if y in up[z]), key=lambda z: -len(up[z])):
                row.append((w, -sum(m for z, m in row if w in up[z]) if row else 1))
            mu.update(((x, w), m) for w, m in row)
            value = mu[x, y]
        return value

    def product(self, other: "FinitePoset") -> "FinitePoset":
        """Cartesian product with componentwise order; elements are pairs."""
        elems = [(a, b) for a in self.elements for b in other.elements]
        pairs = [
            ((a, b), (c, d))
            for (a, b) in elems
            for (c, d) in elems
            if self.leq(a, c) and other.leq(b, d)
        ]
        return FinitePoset(elems, leq=pairs)

    # -- serialization ---------------------------------------------------

    @classmethod
    def from_json(cls, data) -> "FinitePoset":
        """Build from the documented JSON object (or its serialized form).

        Schema: {"elements": [str, ...]} plus exactly one of "leq" / "covers",
        each an array of 2-string arrays.  Unknown keys are rejected.
        """
        relation = (lambda v: v is None or rows(v, 2), "an array of 2-string arrays")
        data = load_object(data, InvalidPoset, "poset", {
            "elements": (strings, "an array of strings"), "leq": relation, "covers": relation,
        })
        return cls(data["elements"], leq=data.get("leq"), covers=data.get("covers"))

    def to_json(self) -> str:
        """Serialize as {"elements": ..., "covers": ...}; names go through str()."""
        key = {x: x if isinstance(x, str) else str(x) for x in self.elements}
        if len(set(key.values())) != len(key):
            raise InvalidPoset("element names are not unique; cannot serialize")
        return json.dumps(
            {
                "elements": [key[x] for x in self.elements],
                "covers": [[key[a], key[b]] for a, b in self.covers()],
            }
        )

    def to_dot(self, label: Callable[[Any], str] = str) -> str:
        """DOT Hasse diagram: one node per element, one edge per cover pair,
        directed from smaller to larger, nodes in element order."""
        def quote(s):
            return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

        lines = ["digraph hasse {", "  rankdir=BT;"]
        for x in self.elements:
            lines.append(f"  {quote(label(x))};")
        for x, y in self.covers():
            lines.append(f"  {quote(label(x))} -> {quote(label(y))};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def chain(labels: Iterable[Any]) -> FinitePoset:
    """The chain with the given labels, ordered as listed."""
    elems = list(labels)
    return FinitePoset(elems, covers=list(zip(elems, elems[1:])))
