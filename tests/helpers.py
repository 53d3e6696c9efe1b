"""Shared fixtures and independent brute-force oracles for the test suite.

Everything here is deliberately naive: oracles recompute from definitions so
the library's faster paths are checked against something that cannot share
their bugs.
"""

from __future__ import annotations

import json
from itertools import combinations, permutations
from math import factorial

from mucat import (
    CategorySlice,
    CmMorphism,
    DmMorphism,
    FinitePoset,
    IncidenceFunction,
    InverseSemigroup,
    chain,
    convolve,
    moebius_of_slice,
)


# -- fixed posets ------------------------------------------------------------

def boolean_lattice(k: int) -> FinitePoset:
    """Subsets of {1..k} ordered by inclusion; elements are frozensets."""
    elems = [
        frozenset(c) for size in range(k + 1) for c in combinations(range(1, k + 1), size)
    ]
    pairs = [(a, b) for a in elems for b in elems if a <= b]
    return FinitePoset(elems, leq=pairs)


def divisor_poset(n: int) -> FinitePoset:
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    pairs = [(a, b) for a in divisors for b in divisors if b % a == 0]
    return FinitePoset(divisors, leq=pairs)


def fork_poset() -> FinitePoset:
    """Tuning fork: b < c < m with two incomparable prongs u, v above m."""
    return FinitePoset(
        ["b", "c", "m", "u", "v"],
        covers=[("b", "c"), ("c", "m"), ("m", "u"), ("m", "v")],
    )


def antichain(labels) -> FinitePoset:
    return FinitePoset(list(labels), covers=[])


def product(p: FinitePoset, q: FinitePoset) -> FinitePoset:
    """The cartesian product with componentwise order; elements are pairs."""
    elems = [(a, b) for a in p.elements for b in q.elements]
    pairs = [((a, b), (c, d)) for a, b in elems for c, d in elems if p.leq(a, c) and q.leq(b, d)]
    return FinitePoset(elems, leq=pairs)


def brandt_five() -> InverseSemigroup:
    """Matrix units e11, e22, a = E12, b = E21 plus a zero."""
    products = {
        ("e11", "e11"): "e11", ("e11", "a"): "a",
        ("a", "b"): "e11", ("a", "e22"): "a",
        ("b", "e11"): "b", ("b", "a"): "e22",
        ("e22", "e22"): "e22", ("e22", "b"): "b",
    }
    elems = ["e11", "e22", "a", "b", "z"]
    table = [[products.get((s, t), "z") for t in elems] for s in elems]
    return InverseSemigroup(elems, table)


def meet_semilattice(p: FinitePoset) -> InverseSemigroup:
    """The meet operation of p as an inverse semigroup, each meet found by
    ``bf_meet`` on the relation read through ``p.leq``; every pair of
    elements must have a meet (p need not have a top)."""
    relation = bf_relation(p)
    table = [[bf_meet(p.elements, relation, x, y) for y in p.elements] for x in p.elements]
    assert all(None not in row for row in table), "some pair of elements has no meet"
    return InverseSemigroup(p.elements, table)


def brandt(n: int) -> InverseSemigroup:
    """The Brandt semigroup B_n: matrix units eij (i, j in 1..n) and a zero z,
    with eij·ekl = eil when j = k and z otherwise (n**2 + 1 elements, n <= 9)."""
    units = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    elems = [f"e{i}{j}" for i, j in units] + ["z"]
    table = [
        [f"e{i}{q}" if j == p else "z" for p, q in units] + ["z"] for i, j in units
    ] + [["z"] * len(elems)]
    return InverseSemigroup(elems, table)


def _partial_injections(n: int, images) -> InverseSemigroup:
    """Injective partial maps of {0..n-1}, each domain sent onto every tuple
    ``images(k)`` lists, named like "{0>1 1>0}"; s·t applies s first."""
    maps = [
        tuple(zip(dom, image))
        for k in range(n + 1) for dom in combinations(range(n), k) for image in images(k)
    ]
    name = {m: "{" + " ".join(f"{a}>{b}" for a, b in m) + "}" for m in maps}

    def mul(s, t):
        after = dict(t)
        return tuple((a, after[b]) for a, b in s if b in after)

    return InverseSemigroup(
        [name[s] for s in maps], [[name[mul(s, t)] for t in maps] for s in maps]
    )


def symmetric_inverse_monoid(n: int) -> InverseSemigroup:
    """I_n, every partial injection of {0..n-1}; not combinatorial for n >= 2."""
    return _partial_injections(n, lambda k: permutations(range(n), k))


def poi(n: int) -> InverseSemigroup:
    """POI_n, the order-preserving partial injections of the chain 0 < ... < n-1:
    C(2n, n) elements, combinatorial, one D-class per rank."""
    return _partial_injections(n, lambda k: combinations(range(n), k))


def partial_identities(n: int) -> list[str]:
    """The partial identity on {0..k-1} for k = 0..n, one idempotent per rank:
    a transversal of the D-classes of I_n and of POI_n."""
    return ["{" + " ".join(f"{a}>{a}" for a in range(k)) + "}" for k in range(n + 1)]


# -- JSON documents ------------------------------------------------------------
#
# mucat reads these formats and writes none of them; these helpers write each
# from public reads, every item named through str(), for the readers' tests.

def poset_json(p: FinitePoset) -> str:
    """p in the poset format, as its elements and its cover pairs."""
    return json.dumps({"elements": [str(x) for x in p.elements],
                       "covers": [[str(a), str(b)] for a, b in p.covers()]})


def semigroup_json(s: InverseSemigroup) -> str:
    """s in the semigroup format, its table read through ``mul``, with "one"
    when s has an identity."""
    data = {"elements": [str(x) for x in s.elements],
            "table": [[str(s.mul(x, y)) for y in s.elements] for x in s.elements]}
    one = s.identity()
    if one is not None:
        data["one"] = str(one)
    return json.dumps(data)


def slice_json(c: CategorySlice) -> str:
    """c in the slice format, its compose entries in ``c.compose`` order."""
    return json.dumps({
        "objects": [str(x) for x in c.objects],
        "morphisms": [{"id": str(f), "dom": str(c.dom[f]), "cod": str(c.cod[f])}
                      for f in c.morphisms],
        "compose": [[str(g), str(h), str(k)] for (g, h), k in c.compose.items()],
        "identities": {str(x): str(c.identities[x]) for x in c.objects},
        "complete": [str(f) for f in c.morphisms if f in c.complete],
    })


def _partitions(n: int) -> list[tuple]:
    """The set partitions of {0..n-1} as restricted growth strings: r[k] is
    the block of k, blocks numbered by their least elements."""
    strings = [()]
    for _ in range(n):
        strings = [r + (b,) for r in strings for b in range(max(r, default=-1) + 2)]
    return strings


def partition_lattice_json(n: int) -> str:
    """The partition lattice Π_n (n <= 10) in the semigroup format: the
    partitions of {0..n-1}, named like "01|2" (blocks by least element),
    with the common refinement as the product, its meet under refinement."""
    parts = _partitions(n)
    name = {r: "|".join("".join(str(k) for k, b in enumerate(r) if b == i)
                        for i in range(max(r, default=-1) + 1))
            for r in parts}

    def refine(r, q):  # k's block is its pair of blocks, renumbered by first appearance
        blocks: dict = {}
        return tuple(blocks.setdefault(pair, len(blocks)) for pair in zip(r, q))

    return json.dumps({"elements": [name[r] for r in parts],
                       "table": [[name[refine(r, q)] for q in parts] for r in parts]})


def partition_moebius(x: str, e: str) -> int:
    """Rota's closed form for μ(x, e) on Π_n, x finer than e, both named as
    by ``partition_lattice_json``: the product over the blocks of e of
    (-1)^(k - 1) (k - 1)!, k the number of blocks of x inside that block."""
    mu = 1
    for block in e.split("|"):
        k = sum(set(small) <= set(block) for small in x.split("|"))
        mu *= (-1) ** (k - 1) * factorial(k - 1)
    return mu


def ordinal_sum_json(widths) -> str:
    """The ordinal sum 0̂ ⊕ A_w1 ⊕ ... ⊕ A_wk ⊕ 1̂ of antichains as a poset
    JSON object with ``covers``: "bottom", then level j's elements "j.0",
    "j.1", ... (j from 1), then "top"; each element is covered by every
    element of the next level."""
    levels = [["bottom"]] + [[f"{j}.{i}" for i in range(w)] for j, w in enumerate(widths, 1)]
    levels.append(["top"])
    covers = [[x, y] for low, high in zip(levels, levels[1:]) for x in low for y in high]
    return json.dumps({"elements": [x for level in levels for x in level], "covers": covers})


def ordinal_sum_moebius(widths, level: int) -> int:
    """Philip Hall's count on the ordinal sum: mu(x, 1̂) for x on ``level``
    (0 for the bottom, j for A_wj) is (-1)^(r-1) times the product of
    (w - 1) over the r = k - level antichains above x; mu(1̂, 1̂) is 1."""
    mu = -1
    for w in widths[level:]:
        mu *= 1 - w
    return mu


# -- brute-force oracles -----------------------------------------------------

def bf_covers(p: FinitePoset) -> set:
    def lt(a, b):
        return a != b and p.leq(a, b)

    out = set()
    for x in p.elements:
        for y in p.elements:
            if lt(x, y) and not any(lt(x, z) and lt(z, y) for z in p.elements):
                out.add((x, y))
    return out


def bf_interval_elements(p: FinitePoset, x, y) -> set:
    return {z for z in p.elements if p.leq(x, z) and p.leq(z, y)}


def bf_relation(p: FinitePoset) -> set:
    """Every (x, y) with x <= y, read through ``p.leq``."""
    return {(x, y) for x in p.elements for y in p.elements if p.leq(x, y)}


def bf_top(p: FinitePoset):
    """The element every element is <= to, or None."""
    return next((y for y in p.elements if all(p.leq(x, y) for x in p.elements)), None)


def bf_is_lattice(p: FinitePoset) -> bool:
    for x in p.elements:
        for y in p.elements:
            uppers = [z for z in p.elements if p.leq(x, z) and p.leq(y, z)]
            least = [u for u in uppers if all(p.leq(u, v) for v in uppers)]
            lowers = [z for z in p.elements if p.leq(z, x) and p.leq(z, y)]
            greatest = [u for u in lowers if all(p.leq(v, u) for v in lowers)]
            if len(least) != 1 or len(greatest) != 1:
                return False
    return True


# -- oracles on a bare relation (a set of (a, b) pairs meaning a <= b) --------
#
# These read the relation directly, never a FinitePoset, so they share no
# code with mucat.poset.

def bf_is_partial_order(elements, relation: set) -> bool:
    """Reflexive, antisymmetric and transitive, checked pair by pair and triple by triple."""
    for a in elements:
        if (a, a) not in relation:
            return False
    for a in elements:
        for b in elements:
            if a != b and (a, b) in relation and (b, a) in relation:
                return False
            for c in elements:
                if (a, b) in relation and (b, c) in relation and (a, c) not in relation:
                    return False
    return True


def bf_closure(elements, arcs) -> set:
    """Reflexive-transitive closure of arcs by repeated relaxation to a fixed point."""
    relation = {(a, a) for a in elements} | set(arcs)
    grew = True
    while grew:
        grew = False
        for a, b in list(relation):
            for c, d in list(relation):
                if b == c and (a, d) not in relation:
                    relation.add((a, d))
                    grew = True
    return relation


def bf_first_back_arc(elements, arcs):
    """The first arc (x, y) with y on the current path of a recursive
    depth-first search that starts from each unvisited element in order and
    follows each element's arcs as listed, loops skipped; None if acyclic."""
    out = {a: [b for x, b in arcs if x == a and b != a] for a in elements}
    path, done = [], set()

    def visit(x):
        path.append(x)
        for y in out[x]:
            if y in path:
                return x, y
            if y not in done and (found := visit(y)):
                return found
        path.pop()
        done.add(x)
        return None

    for x in elements:
        if x not in done and (found := visit(x)):
            return found
    return None


def bf_join(elements, relation: set, x, y):
    """The common upper bound below all the others, or None."""
    uppers = [z for z in elements if (x, z) in relation and (y, z) in relation]
    least = [u for u in uppers if all((u, v) in relation for v in uppers)]
    return least[0] if len(least) == 1 else None


def bf_meet(elements, relation: set, x, y):
    """The common lower bound above all the others, or None."""
    lowers = [z for z in elements if (z, x) in relation and (z, y) in relation]
    greatest = [u for u in lowers if all((v, u) in relation for v in lowers)]
    return greatest[0] if len(greatest) == 1 else None


def bf_relation_covers(elements, relation: set) -> set:
    strict = {(a, b) for a, b in relation if a != b}
    return {
        (a, b) for a, b in strict
        if not any((a, z) in strict and (z, b) in strict for z in elements)
    }


def bf_chain_moebius(elements, relation: set, x, y) -> int:
    """Philip Hall's theorem: mu(x, y) = sum over chains x = z0 < ... < zk = y
    of (-1)^k, counted by depth-first enumeration of strict chains."""
    def signed_chains(z):
        if z == y:
            return 1
        return -sum(
            signed_chains(w) for w in elements
            if w != z and (z, w) in relation and (w, y) in relation
        )

    return signed_chains(x) if (x, y) in relation else None


def cm_composite(m: int, g, f) -> CmMorphism:
    """g∘f in C_m by the definition (b, y, j, k)∘(a, x, i, j) = (a + b, x, i, k),
    once f's codomain ((a + x) mod m, j) is checked to be g's domain (y, j)."""
    assert ((f.a + f.x) % m, f.j) == (g.x, g.i), f"{g!r}∘{f!r} is not composable"
    return CmMorphism(f.a + g.a, f.x, f.i, g.j)


def dm_composite(m: int, g, f) -> DmMorphism:
    """g·f in D_m by the definition (beta, y)·(alpha, x) = (beta - y + alpha, x),
    once f's codomain alpha mod m is checked to be g's domain y."""
    assert f.alpha % m == g.x, f"{g!r}·{f!r} is not composable"
    return DmMorphism(g.alpha - g.x + f.alpha, f.x)


def functor_F(f) -> DmMorphism:
    """The level-collapsing functor F: C_m -> D_m on morphisms, (a, x, i, j) -> (a + x, x)."""
    return DmMorphism(f.a + f.x, f.x)


def inversion_round_trip(c, eta) -> bool:
    """Möbius inversion on c by the definition: xi = eta * zeta, then
    xi * mu = eta at every morphism, each value through the public ``convolve``.
    xi is an IncidenceFunction on c, so convolve reads its row as it is."""
    zeta, mu = IncidenceFunction.zeta(c), moebius_of_slice(c)
    xi = IncidenceFunction(c, {f: convolve(c, eta, zeta, f) for f in c.morphisms})
    return all(convolve(c, xi, mu, f) == eta[f] for f in c.morphisms)


def bf_compose(c, composite) -> dict:
    """The composition table by definition: every pair (g, f) of morphisms of
    c with cod f = dom g, kept when composite(g, f) is a morphism of c.  An
    all-pairs scan, right factor f major, each in slice order; composite is
    the category's own checked rule, returning None or an outside morphism
    when the composite leaves the slice."""
    inside = set(c.morphisms)
    table = {}
    for f in c.morphisms:
        for g in c.morphisms:
            if c.cod[f] == c.dom[g]:
                k = composite(g, f)
                if k in inside:
                    table[(g, f)] = k
    return table


def sides(pairs) -> tuple[list, list]:
    """The pairs (g, h) as a source's factorization rule gives them: the
    list of left factors and the list of right factors, in pair order."""
    return [g for g, _ in pairs], [h for _, h in pairs]


def paired(lists) -> list:
    """The pairs (g, h) of a source's two factor lists (lefts, rights)."""
    lefts, rights = lists
    return list(zip(lefts, rights))


def opposite(c, rng=None) -> CategorySlice:
    """The opposite of the slice c, through the public constructor: each
    compose entry (g, h) -> k becomes (h, g) -> k and each morphism's domain
    and codomain swap, while names, identities and completeness stay.  With
    a seeded random.Random rng, morphisms and entries are listed shuffled."""
    morphisms, entries = list(c.morphisms), list(c.compose.items())
    if rng is not None:
        rng.shuffle(morphisms)
        rng.shuffle(entries)
    return CategorySlice(c.objects, morphisms, c.cod, c.dom, {(h, g): k for (g, h), k in entries},
                         c.identities, c.complete)


def slice_product(a, b) -> CategorySlice:
    """The product of the slices a and b, through the public constructor:
    objects, morphisms and identities are pairs, endpoints are taken
    componentwise, entries (g, h) -> k of a and (g', h') -> k' of b give
    ((g, g'), (h, h')) -> (k, k'), and a pair is complete when both of its
    components are.  (``product`` is the product of posets.)"""
    morphisms = [(f, g) for f in a.morphisms for g in b.morphisms]
    pairs = [(x, y) for x in a.objects for y in b.objects]
    return CategorySlice(
        pairs, morphisms,
        {(f, g): (a.dom[f], b.dom[g]) for f, g in morphisms},
        {(f, g): (a.cod[f], b.cod[g]) for f, g in morphisms},
        {((g, g2), (h, h2)): (k, k2)
         for (g, h), k in a.compose.items() for (g2, h2), k2 in b.compose.items()},
        {(x, y): (a.identities[x], b.identities[y]) for x, y in pairs},
        [(f, g) for f, g in morphisms if f in a.complete and g in b.complete],
    )


def bf_slice_violation(c) -> str | None:
    """The first identity or associativity failure by definition, read from
    the public tables: each morphism's right then left identity law in slice
    order, then every composable triple (g, h, k) with h∘k defined, in
    compose order and k in slice order, whose two bracketings differ in
    being defined or in value."""
    compose = dict(c.compose.items())
    for f in c.morphisms:
        if compose.get((f, c.identities[c.dom[f]])) != f:
            return f"right identity law fails at {f!r}"
        if compose.get((c.identities[c.cod[f]], f)) != f:
            return f"left identity law fails at {f!r}"
    for (g, h), gh in compose.items():
        for k in c.morphisms:
            if c.cod[k] != c.dom[h] or (h, k) not in compose:
                continue
            left, right = compose.get((gh, k)), compose.get((g, compose[h, k]))
            if (left is None) != (right is None):
                return f"associativity definedness mismatch on ({g!r}, {h!r}, {k!r})"
            if left != right:
                return f"associativity fails on ({g!r}, {h!r}, {k!r}): {left!r} != {right!r}"
    return None


def bf_chain_moebius_of_slice(c, composite) -> dict:
    """Leroux's formula for every morphism f of c: mu(f) is the sum over k of
    (-1)^k times the number of chains f = f_k∘...∘f_1 of k non-identity
    morphisms (the empty chain composes to each identity).  The chains are
    counted one length at a time from the all-pairs table of bf_compose, so
    c must hold every factor of each of its morphisms.  In a Möbius category
    the partial composites f_j∘...∘f_1 of a chain are distinct, so a chain
    longer than c has morphisms means c is not Möbius."""
    identities = set(c.identities.values())
    steps = [(g, h, k) for (g, h), k in bf_compose(c, composite).items() if g not in identities]
    mu = {f: 1 if f in identities else 0 for f in c.morphisms}
    chains = {f: 1 for f in c.morphisms if f not in identities}  # length 1, by composite
    length = 1
    while chains:
        assert length <= len(c.morphisms), "a chain repeats a partial composite"
        for f, count in chains.items():
            mu[f] += (-1) ** length * count
        longer: dict = {}
        for g, h, k in steps:
            if h in chains:
                longer[k] = longer.get(k, 0) + chains[h]
        chains, length = longer, length + 1
    return mu


def bf_lawvere_homs(c, f) -> dict:
    """The interval's homs by definition: every pair of factorizations of f,
    every ambient morphism h between their middle objects, kept when
    h∘v = v' and u'∘h = u.  Keys are (u, v, f) triples, source-major then
    target, factorizations ordered by right factor, then by left factor, each
    in slice morphism order (the order ``factorizations`` lists them only when
    the table was filled right factor major).  Each hom-set is in slice order.
    Only pairs h: dom f -> x, g: x -> cod f are tried: a slice refuses an
    entry with other endpoints."""
    objects = [
        (g, h, f)
        for h in c.morphisms_from(c.dom[f])
        for g in c.hom(c.cod[h], c.cod[f])
        if c.compose.get((g, h)) == f
    ]
    homs = {}
    for a in objects:
        for b in objects:
            connecting = tuple(
                h for h in c.hom(c.cod[a[1]], c.cod[b[1]])
                if c.compose.get((h, a[1])) == b[1] and c.compose.get((b[0], h)) == a[0]
            )
            if connecting:
                homs[(a, b)] = connecting
    return homs


def bf_one_way(c, f) -> bool:
    """The one-way test on f's interval by definition, read off
    ``bf_lawvere_homs``: no two distinct factorizations connected both ways,
    and every endo hom-set a singleton."""
    homs = bf_lawvere_homs(c, f)
    objects = {a for pair in homs for a in pair}
    return (all(len(homs.get((a, a), ())) == 1 for a in objects)
            and not any(a != b and (b, a) in homs for a, b in homs))


# -- semigroup oracles ----------------------------------------------------------
#
# These read the table once, product by product through the public
# InverseSemigroup.mul, and recompute everything else from the definitions,
# so they share no algorithm with mucat.semigroups.

def _read_table(s) -> tuple[list, dict]:
    names = list(s.elements)
    return names, {(a, b): s.mul(a, b) for a in names for b in names}


def _bf_inverse_candidates(names, mul, a) -> list:
    return [t for t in names if mul[mul[a, t], a] == a and mul[mul[t, a], t] == t]


def bf_semigroup_violation(s) -> str | None:
    """The first failing triple (a, b, c) in table order, then the first element
    without exactly one inverse, then the first non-commuting idempotent pair."""
    names, mul = _read_table(s)
    for a in names:
        for b in names:
            for c in names:
                if mul[mul[a, b], c] != mul[a, mul[b, c]]:
                    return f"associativity fails on ({a!r}, {b!r}, {c!r})"
    for a in names:
        found = _bf_inverse_candidates(names, mul, a)
        if len(found) != 1:
            return f"element {a!r} has {len(found)} inverse candidates, expected 1"
    idempotents = [e for e in names if mul[e, e] == e]
    for e in idempotents:
        for f in idempotents:
            if mul[e, f] != mul[f, e]:
                return f"idempotents {e!r}, {f!r} do not commute"
    return None


def bf_triple_fails(s, a, b, c) -> bool:
    """(ab)c != a(bc), by the definition."""
    _, mul = _read_table(s)
    return mul[mul[a, b], c] != mul[a, mul[b, c]]


def bf_d_classes(s) -> list[list]:
    """Greedy partition by the definition: s joins the first class whose first
    member t has some x with x⁻¹x = s⁻¹s and xx⁻¹ = tt⁻¹."""
    names, mul = _read_table(s)
    inv = {a: _bf_inverse_candidates(names, mul, a)[0] for a in names}

    def related(a, b):
        return any(
            mul[inv[x], x] == mul[inv[a], a] and mul[x, inv[x]] == mul[b, inv[b]]
            for x in names
        )

    classes: list[list] = []
    for a in names:
        for cls in classes:
            if related(a, cls[0]):
                cls.append(a)
                break
        else:
            classes.append([a])
    return classes


def bf_is_combinatorial(s) -> bool:
    """Every maximal subgroup H_e = {x : xx⁻¹ = x⁻¹x = e} is {e}."""
    names, mul = _read_table(s)
    inv = {a: _bf_inverse_candidates(names, mul, a)[0] for a in names}
    for e in names:
        if mul[e, e] == e:
            group = [x for x in names if mul[x, inv[x]] == e and mul[inv[x], x] == e]
            if group != [e]:
                return False
    return True


def bf_natural_order(s) -> set:
    """The natural partial order by definition, x <= y iff x = x x⁻¹ y, as
    (x, y) pairs of s's elements."""
    names, mul = _read_table(s)
    inv = {a: _bf_inverse_candidates(names, mul, a)[0] for a in names}
    return {(x, y) for x in names for y in names if mul[mul[x, inv[x]], y] == x}


def classical_moebius(n: int) -> int:
    """Number-theoretic Möbius of n via trial-division factorization."""
    if n < 1:
        raise ValueError(n)
    primes = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            primes += 1
        else:
            d += 1
    if n > 1:
        primes += 1
    return -1 if primes % 2 else 1


def are_isomorphic(p: FinitePoset, q: FinitePoset) -> bool:
    """Order-isomorphism by backtracking search (small posets only)."""
    if len(p) != len(q):
        return False

    def profile(poset, x):
        return (sum(poset.leq(x, y) for y in poset.elements),
                sum(poset.leq(y, x) for y in poset.elements))

    if sorted(profile(p, x) for x in p.elements) != sorted(profile(q, y) for y in q.elements):
        return False
    px = list(p.elements)

    def extend(k, image):
        if k == len(px):
            return True
        x = px[k]
        for y in q.elements:
            if y in image.values() or profile(p, x) != profile(q, y):
                continue
            if all(
                p.leq(x, px[i]) == q.leq(y, image[px[i]])
                and p.leq(px[i], x) == q.leq(image[px[i]], y)
                for i in range(k)
            ):
                image[x] = y
                if extend(k + 1, image):
                    return True
                del image[x]
        return False

    return extend(0, {})


def is_total_order(p: FinitePoset) -> bool:
    return all(p.leq(x, y) or p.leq(y, x) for x in p.elements for y in p.elements)


CHAIN3 = chain([0, 1, 2])
B2 = boolean_lattice(2)
