"""Finite partially ordered sets with cover, lattice and Möbius machinery.

Elements are opaque hashable identifiers.  A poset can be built either from the
full relation or from its cover relation (the covers are closed reflexively and
transitively in a topological order from the standard library's ``graphlib``,
which also finds any cycle to refuse).  Element order is the order in which the
elements were supplied and every derived output (cover lists, DOT) iterates
in that order, so identical inputs produce byte-identical outputs.

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
column mu(., y) memoized per instance; values are always integers.  The
values found so far are also kept bit-sliced, one mask per sign and bit of
|mu|, so each up-set is summed with a few popcounts, not element by element;
a column has as many planes as its widest value has bits.
The law check (``_linear``, which skips transitivity where a caller has
proved it), the recursion (``_moebius_to``) and the lattice test
(``_is_lattice``) work on bare masks, so the Lawvere route runs them with no
poset object.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from typing import Any, Callable, Iterable

from ._json import load_object, rows, strings
from .errors import InvalidPoset, NotComparable

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


def _linear(up: list[int], name: Callable[[int], Any],
            transitive: bool = False) -> tuple[list[int] | None, list[int]]:
    """Check the poset laws on up-set masks and return (order, masks) in a
    linear extension: order is None if the indices are one, else position k
    holds index order[k].  InvalidPoset names elements by name(index).  The
    loops are inline: a generator step costs more than its mask operations.

    ``transitive`` is the caller's proof that the relation is transitive:
    the transitivity loop, which would find nothing, is skipped.  Four
    callers pass it, each for an associative table.  A Lawvere interval of
    a marked slice (identity laws, a total table, Light's verdict): if
    h∘vᵢ = vⱼ and h'∘vⱼ = vₖ, then h'∘h is an entry and (h'∘h)∘vᵢ = vₖ,
    so (h'∘h, vᵢ) is in vₖ's list; the left factors compose the same way
    (uₖ∘(h'∘h) = uⱼ∘h = uᵢ), so this holds for the unkeyed walk too.  The
    order of the morphisms out of an object under "is a right factor of"
    (``lawvere._object_order``), by the same first step, and Q(e), its
    reverse.  E(S): e = ef and f = fg give eg = efg = ef = e.  The relabel
    pass still refuses every pair related both ways: in a transitive
    reflexive relation the two have equal up-sets, so the later one's
    lowest bit is an earlier one, whose up-set holds it."""
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
    if transitive:
        return order, up
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
    strict successor sits higher (Stanley, EC1, Ch. 3).

    The values summed so far are also kept bit-sliced: bit z of pos[k]
    (of neg[k]) is set iff mu(z, q) > 0 (< 0) and bit k of |mu(z, q)| is.
    When w is summed, the planes hold mu(z, q) for exactly the positions z
    above w with z <= q: each was summed and recorded before w, w itself is
    not recorded yet, and a z not <= q never is (its value is 0).  The
    strict successors of w are the bits of u = up[w] other than w, so
    -mu(w, q) = sum(2**k * (popcount(u & pos[k]) - popcount(u & neg[k]))),
    a few popcounts instead of one step per element of u.  While every
    value is -1, 0 or 1 there is one plane, pos[0] and neg[0]; the first
    value outside them is summed again by the plane loop, which records it.
    A value wider than the planes first adds planes, to pos and neg alike,
    up to its bit length, so every value is recorded and the sum stays
    exact however wide |mu| grows.
    """
    values = [0] * len(up)
    values[q] = 1
    pos0, neg0 = 1 << q, 0
    w = q
    while w:
        w -= 1
        u = up[w]
        if u >> q & 1:
            total = (u & neg0).bit_count() - (u & pos0).bit_count()
            if total == 1:
                values[w] = 1
                pos0 |= 1 << w
            elif total == -1:
                values[w] = -1
                neg0 |= 1 << w
            elif total:  # wider: sum w again over more planes
                w += 1
                break
    else:
        return values
    pos, neg = [pos0], [neg0]
    while w:
        w -= 1
        u = up[w]
        if u >> q & 1:
            total = 0
            for k in range(len(pos)):
                total += ((u & neg[k]).bit_count() - (u & pos[k]).bit_count()) << k
            if total:
                values[w] = total
                size = abs(total)
                width = size.bit_length()
                if width > len(pos):
                    pos += [0] * (width - len(pos))
                    neg += [0] * (width - len(neg))
                planes = pos if total > 0 else neg
                bit = 1 << w
                for k in range(width):
                    if size >> k & 1:
                        planes[k] |= bit
    return values


def _is_lattice(up: list[int]) -> bool:
    """True iff the masks up, in a linear extension, make a lattice: empty, or
    a bottom (then first) and a join of every pair (Stanley, EC1, Ch. 3), so
    meets are not checked, nor comparable pairs, whose join is the larger.

    p is joined only with the minimal elements q of its incomparable
    partners at higher positions (lower ones had their turn).  That is
    enough, by induction from the top position down: if q <= q', both
    incomparable to p, and r = p∨q, then {p, q'} has the upper bounds of
    {r, q'} (one above q' is above q, so above r), and r, q' sit above p's
    position, where every pair has its join."""
    full = (1 << len(up)) - 1
    if up and up[0] != full:
        return False
    for p, above in enumerate(up):
        rest = (above ^ full) >> (p + 1) << (p + 1)
        while rest:
            q = (rest & -rest).bit_length() - 1
            common = above & up[q]
            if not common or up[(common & -common).bit_length() - 1] != common:
                return False
            rest &= ~up[q]
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
    def _from_masks(cls, elements: Iterable[Any], up: list[int],
                    transitive: bool = False) -> "FinitePoset":
        """A poset from up-set masks over the supplied order: bit j of up[i]
        is set iff elements[i] <= elements[j].  Every law is checked, but
        transitivity not when the caller has proved it (see ``_linear``)."""
        elems = tuple(elements)
        return cls.__new__(cls)._adopt(elems, _index(elems),
                                       *_linear(up, elems.__getitem__, transitive))

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
        try:
            return self._up[pos[x]] >> pos[y] & 1 == 1
        except KeyError:
            raise NotComparable(f"{x!r} or {y!r} is not an element of this poset") from None

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

    # -- JSON input and DOT output ----------------------------------------

    @classmethod
    def from_json(cls, data) -> "FinitePoset":
        """Build from the documented JSON object (or its text).

        Schema: {"elements": [str, ...]} plus exactly one of "leq" / "covers",
        each an array of 2-string arrays.  Unknown keys are rejected.
        """
        relation = (lambda v: v is None or rows(v, 2), "an array of 2-string arrays")
        data = load_object(data, InvalidPoset, "poset", {
            "elements": (strings, "an array of strings"), "leq": relation, "covers": relation,
        })
        return cls(data["elements"], leq=data.get("leq"), covers=data.get("covers"))

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
