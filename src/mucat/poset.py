"""Finite partially ordered sets with cover, lattice and Möbius machinery.

Elements are opaque hashable identifiers.  A poset can be built either from the
full relation or from its cover relation (the covers are closed reflexively and
transitively in a topological order from the standard library's ``graphlib``,
which also finds any cycle to refuse).  Element order is the order in which the
elements were supplied and every derived output (cover lists, DOT, JSON)
iterates in that order, so identical inputs produce byte-identical outputs.

Internally each element has a bit position in a linear extension: the
supplied order when it is one, else decreasing up-set size with ties in
supplied order.  The order is a list of Python ``int`` bitmasks: bit q of
``_up[p]`` is set iff the element at position p is <= the one at position q.
A strict predecessor sits at a strictly lower position, so the least element
of a set of upper bounds, if there is one, is its lowest bit (the
word-parallel treatment of relation matrices: Warshall, JACM 1962; Stanley,
EC1, Ch. 3).

The Möbius function is computed by the classical recursion

    mu(x, x) = 1,    mu(x, y) = -sum(mu(z, y) for x < z <= y)

evaluated top-down over the down-set of y in the linear extension, one
column mu(., y) memoized per instance; values are always integers, each
up-set summed bit by bit up to ``_PER_BIT`` elements, else via ``compress``.
The law check (``_linear``), the recursion (``_moebius_to``) and the lattice
test (``_is_lattice``) work on bare masks, so the Lawvere route runs them
with no poset object.
"""

from __future__ import annotations

import json
from graphlib import CycleError, TopologicalSorter
from itertools import compress
from typing import Any, Callable, Iterable

from ._json import load_object, names, rows, strings
from .errors import InvalidPoset, NotComparable

_BYTE_BITS = bytes.maketrans(b"01", b"\x00\x01")
_PER_BIT = 8  # _moebius_to sums an up-set of at most this many bits bit by bit (measured)


def _selectors(mask: int) -> bytes:
    """Bit k of mask as byte k (0 or 1), lowest bit first; feeds compress()."""
    return bin(mask)[:1:-1].encode().translate(_BYTE_BITS)


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _minimal(up: list[int], rest: int):
    """The minimal elements of the position set ``rest``, ascending, where
    up[q] is the up-set of q and positions follow a linear extension: the
    lowest position left is one, and its up-set is skipped once the caller
    has seen it."""
    while rest:
        q = _lowest(rest)
        yield q
        rest &= ~up[q]


def _transpose(masks: list[int]) -> list[int]:
    """The transpose of a square 0/1 matrix given by its row masks.

    The rows go into one string, highest bit first and last row first, so
    each column is a strided slice that reads as a binary numeral.  No
    per-column tuples are made, so none pile up on the interpreter's tuple
    free lists.
    """
    n = len(masks)
    width = 1 << n
    flat = "".join([bin(m | width)[3:] for m in reversed(masks)])
    return [int(flat[n - 1 - k::n], 2) for k in range(n)]


def _relabel(masks: list[int], order: list[int]) -> list[int]:
    """A square 0/1 matrix with rows and columns put in ``order`` (new k is
    old order[k]): reorder the rows, transpose, reorder, transpose back."""
    columns = _transpose([masks[k] for k in order])
    return _transpose([columns[k] for k in order])


def _index(elems: tuple) -> dict:
    """Element -> index in supplied order; elements must be distinct."""
    index = dict(zip(elems, range(len(elems))))
    if len(index) != len(elems):
        raise InvalidPoset("duplicate elements")
    return index


def _close_covers(elems: tuple, arcs) -> list[int]:
    """Reflexive-transitive closure of cover arcs (index pairs) as up-set masks.

    ``graphlib`` orders the indices so that every arc points forward, and
    up[x] is x's bit or'ed with its successors' masks, filled last to first;
    on a cycle the arc that closes it is named.  Loops (x, x) add nothing.
    """
    graph, succ = TopologicalSorter(), [[] for _ in elems]
    for x in range(len(elems)):
        graph.add(x)
    for a, b in arcs:
        if a != b:
            graph.add(b, a)
            succ[a].append(b)
    try:
        order = list(graph.static_order())
    except CycleError as exc:
        x, y = exc.args[1][-2:]
        raise InvalidPoset(f"cyclic cover input: {elems[x]!r} and {elems[y]!r}") from None
    up = [1 << x for x in range(len(elems))]
    for x in reversed(order):
        for y in succ[x]:
            up[x] |= up[y]
    return up


def _linear(up: list[int], name: Callable[[int], Any]) -> tuple[list[int] | None, list[int]]:
    """Check the poset laws on up-set masks and return (order, masks) in a
    linear extension: order is None if the indices are one, else position k
    holds index order[k].  InvalidPoset names elements by name(index).  The
    loops are inline: a generator step costs more than its mask operations."""
    order, at = None, name
    # In a linear extension each element is the lowest bit of its own
    # up-set: that is reflexivity, and every strict successor higher up.
    for k, u in enumerate(up):
        if u & -u != 1 << k:  # not one: relabel, then check the first two laws
            order = sorted(range(len(up)), key=lambda i: -up[i].bit_count())
            up = _relabel(up, order)
            at = lambda p: name(order[p])
            for p, above in enumerate(up):
                if not above >> p & 1:
                    raise InvalidPoset(f"relation is not reflexive at {at(p)!r}")
                q = _lowest(above)
                if q != p and up[q] >> p & 1:
                    raise InvalidPoset(f"relation is not antisymmetric on {at(q)!r}, {at(p)!r}")
            break
    # Transitivity, upper positions first.  A q in up[p] other than p
    # either sits higher and is already checked, so once up[q] <= up[p]
    # holds q's whole up-set can be skipped and only the covers of p are
    # visited, lowest first (``_minimal``'s walk); or it sits lower, where
    # only a relabelled order puts it, with an up-set no smaller than p's
    # that lacks p, and fails at once.
    for p in range(len(up) - 1, -1, -1):
        above = up[p]
        rest = above ^ 1 << p
        while rest:
            q = (rest & -rest).bit_length() - 1
            if up[q] | above != above:
                raise InvalidPoset(f"relation is not transitive: {at(p)!r} <= {at(q)!r} "
                                   f"<= {at(_lowest(up[q] & ~above))!r}")
            rest &= ~up[q]
    return order, up


def _moebius_to(up: list[int], q: int) -> list:
    """values[w] = mu(w, q) for w <= q, else 0, on masks in a linear
    extension, by mu(w, q) = -sum(mu(z, q) for w < z <= q) from q down: a
    strict successor sits higher (Stanley, EC1, Ch. 3), and when w's up-set
    is summed, values[w] and every z not <= q still read 0."""
    values = [0] * len(up)
    values[q] = 1
    for w in range(q - 1, -1, -1):
        u = up[w]
        if u >> q & 1:
            if u.bit_count() > _PER_BIT:
                values[w] = -sum(compress(values, _selectors(u)))
                continue
            total = 0
            while u:
                low = u & -u
                total -= values[low.bit_length() - 1]
                u ^= low
            values[w] = total
    return values


def _is_lattice(up: list[int]) -> bool:
    """True iff the masks up, in a linear extension, make a lattice: empty, or
    a bottom (then first) and a join of every pair (Stanley, EC1, Ch. 3), so
    meets are not checked, nor comparable pairs, whose join is the larger."""
    full = (1 << len(up)) - 1
    if up and up[0] != full:
        return False
    for p, above in enumerate(up):
        # incomparable partners at higher positions; lower ones had their turn
        rest = (above ^ full) >> (p + 1) << (p + 1)
        while rest:
            low = rest & -rest
            common = above & up[low.bit_length() - 1]
            if not common or up[(common & -common).bit_length() - 1] != common:
                return False
            rest ^= low
    return True


class FinitePoset:
    """A finite poset over opaque hashable elements.

    Exactly one of ``leq`` / ``covers`` must be given.  ``leq`` is the full
    relation as (smaller, larger) pairs and is validated to be reflexive,
    antisymmetric and transitive; ``covers`` is closed under reflexivity and
    transitivity, and cyclic input is rejected.
    """

    __slots__ = ("elements", "_pos", "_at", "_up", "_mu")

    def __init__(self, elements: Iterable[Any], *, leq=None, covers=None):
        elems = tuple(elements)
        index = _index(elems)
        if (leq is None) == (covers is None):
            raise InvalidPoset("give exactly one of 'leq' or 'covers'")

        def check_pair(pair):
            a, b = pair
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                raise InvalidPoset(f"relation mentions unknown element in {(a, b)!r}")
            return i, j

        if covers is not None:
            up = _close_covers(elems, [check_pair(p) for p in covers])
        else:
            up = [0] * len(elems)
            for p in leq:
                i, j = check_pair(p)
                up[i] |= 1 << j
        self._adopt(elems, index, *_linear(up, elems.__getitem__))

    @classmethod
    def _from_masks(cls, elements: Iterable[Any], up: list[int]) -> "FinitePoset":
        """A poset from up-set masks over the supplied order: bit j of up[i]
        is set iff elements[i] <= elements[j].  Every law is checked."""
        elems = tuple(elements)
        return cls.__new__(cls)._adopt(elems, _index(elems), *_linear(up, elems.__getitem__))

    def _adopt(self, elems: tuple, pos: dict, order, up: list[int]) -> "FinitePoset":
        """Store what ``_linear`` returned for masks over elems; returns self."""
        at = elems
        if order is not None:
            at = tuple(elems[k] for k in order)
            pos = dict(zip(at, range(len(at))))
        self.elements = elems
        self._pos = pos
        self._at = at
        self._up = up
        self._mu: dict = {}
        return self

    # -- basic queries ---------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self._pos

    def __repr__(self):
        return f"FinitePoset({len(self.elements)} elements)"

    def leq(self, x, y) -> bool:
        pos = self._pos
        q = pos.get(y)
        return q is not None and self._up[pos[x]] >> q & 1 == 1

    def covers(self) -> list[tuple[Any, Any]]:
        """All pairs x < y with nothing strictly between, in element order:
        the covers of x are the minimal elements of its strict up-set."""
        up, pos, at = self._up, self._pos, self._at
        rank = [0] * len(at)
        for k, x in enumerate(self.elements):
            rank[pos[x]] = k
        out = []
        for x in self.elements:
            p = pos[x]
            above = sorted(_minimal(up, up[p] & ~(1 << p)), key=rank.__getitem__)
            out.extend((x, at[q]) for q in above)
        return out

    # -- lattice / Möbius ------------------------------------------------

    def is_lattice(self) -> bool:
        """True iff every pair has a unique least upper and greatest lower bound."""
        return _is_lattice(self._up)

    def moebius(self, x, y) -> int:
        """mu(x, y) of this poset; mu(., y) is memoized per instance."""
        pos = self._pos
        if x not in pos or y not in pos:
            raise NotComparable(f"{x!r} or {y!r} is not an element of this poset")
        p, q = pos[x], pos[y]
        if not self._up[p] >> q & 1:
            raise NotComparable(f"{x!r} <= {y!r} does not hold")
        column = self._mu.get(q)
        if column is None:
            column = self._mu[q] = _moebius_to(self._up, q)
        return column[p]

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
        """Serialize as {"elements": ..., "covers": ...} under ``_json.names``."""
        key = names(self.elements, InvalidPoset, "element names")
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
    """The chain with the given labels, ordered as listed: position k is
    below every later position, so its masks are built with no closure."""
    elems = tuple(labels)
    full = (1 << len(elems)) - 1
    return FinitePoset._from_masks(elems, [full >> k << k for k in range(len(elems))])
