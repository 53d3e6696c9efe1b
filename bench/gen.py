"""Seeded inputs for the benchmark workloads, with independently derived expected values.

Nothing here imports ``mucat``: the expected Möbius values come from formulas
written from their definitions, so an agreement between them and the library
is a check that cannot share the library's bugs.

The seed chooses residues, level shifts, element names, transversal
representatives and the order of operations.  It never changes the size
histogram: every seed asks for the same number of morphisms of each shape,
so two seeds do the same amount of work on different morphisms.

Every operation carries a ``shape``.  Operations of one shape do the same
work by construction: C_m morphisms with equal shift a and level drop i - j
have isomorphic intervals in the same window; CLI calls from one histogram
row build the same window and an isomorphic interval; morphisms (x, e) of a
boolean lattice with equal ranks are swapped by an automorphism; a divisor
or Brandt morphism is its own shape.
"""

from __future__ import annotations

import itertools
import json
import random
from math import gcd

# cm_sweep: one C_m window, every morphism checked once per pass.
CM_SWEEP_M = 5
CM_SWEEP_LEVEL_MIN = -10

# cli_verify: (count, kind, m, window, d, a).  For mu-cm the window is the
# --level-min floor, d = i - j and a the shift; for mu-dm the window is
# --alpha-max and d = alpha - x.  A pass is these 40 calls.  Costs are
# tiered so that the median and p90 of any whole number of passes each fall
# inside a block of calls of one shape, away from a jump in cost.
CLI_HISTOGRAM = (
    # tiny, about 10 ms each: deck ranks 0-13
    (2, "cm", 2, -4, 0, 0), (2, "cm", 2, -4, 1, 1), (2, "cm", 2, -4, 2, 1),
    (2, "cm", 2, -4, 3, 1), (2, "dm", 2, 20, 0, 0), (2, "dm", 2, 20, 1, 0),
    (2, "dm", 3, 20, 5, 0),
    # about 18 ms: ranks 14-15
    (2, "cm", 2, -6, 2, 1),
    # one C_3 window, about 33 ms: ranks 16-23, where the median falls
    (3, "cm", 3, -6, 1, 0), (3, "cm", 3, -6, 3, 1), (2, "cm", 3, -6, 4, 2),
    # 60-125 ms: ranks 24-33
    (2, "dm", 5, 40, 20, 0), (2, "dm", 2, 60, 30, 0), (2, "cm", 3, -9, 4, 1),
    (2, "cm", 3, -9, 6, 3), (2, "cm", 5, -8, 2, 1),
    # one shape, about 210 ms: ranks 34-37, where p90 falls
    (4, "cm", 2, -12, 8, 3),
    # the two largest, 0.6-0.8 s: ranks 38-39
    (1, "cm", 5, -12, 12, 6), (1, "dm", 2, 100, 100, 0),
)

# semigroup_rules corpus: boolean lattices B_k, divisor lattices of n with a
# fixed exponent signature and seeded primes, Brandt semigroups B_n.
BOOLEAN_RANKS = (3, 4, 5, 6)
DIVISOR_SIGNATURES = ((2, 1, 1), (3, 2, 1))
BRANDT_SIZES = (3, 4, 5)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

WORKLOADS = ("cm_sweep", "cli_verify", "semigroup_rules")


def cm_mu(a: int, d: int) -> int:
    """Möbius value of a C_m morphism with shift a and level drop d = i - j."""
    if (a, d) in ((0, 0), (1, 2)):
        return 1
    if (a, d) in ((0, 1), (1, 1)):
        return -1
    return 0


def dm_mu(d: int) -> int:
    """Möbius value of a D_m morphism with alpha - x = d."""
    return {0: 1, 1: -1}.get(d, 0)


def classical_mu(n: int) -> int:
    """Number-theoretic Möbius function by trial division."""
    primes = 0
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            primes += 1
        p += 1
    if n > 1:
        primes += 1
    return -1 if primes % 2 else 1


def _cm_sweep(rng: random.Random) -> dict:
    m, floor = CM_SWEEP_M, CM_SWEEP_LEVEL_MIN
    ops = [
        {"spec": [a, x, i, j], "mu": cm_mu(a, i - j), "shape": f"{a},{i - j}"}
        for i in range(0, floor - 1, -1)
        for j in range(i, floor - 1, -1)
        for a in range(i - j + 1)
        for x in range(m)
    ]
    rng.shuffle(ops)
    return {"m": m, "level_min": floor, "ops": ops}


def _cli_verify(rng: random.Random) -> dict:
    ops = []
    for row in CLI_HISTOGRAM:
        count, kind, m, window, d, a = row
        for _ in range(count):
            x = rng.randrange(m)
            if kind == "cm":
                i = rng.randint(window + d, 0)
                spec = f"{a},{x},{i},{i - d}"
                argv = ["mu-cm", "--m", str(m), spec, "--verify", "--level-min", str(window)]
                mu = cm_mu(a, d)
            else:
                spec = f"{x + d},{x}"
                argv = ["mu-dm", "--m", str(m), spec, "--verify", "--alpha-max", str(window)]
                mu = dm_mu(d)
            ops.append({"argv": argv, "mu": mu, "shape": ",".join(map(str, row[1:]))})
    rng.shuffle(ops)
    return {"ops": ops}


def _semilattice(names: list, meet, top) -> tuple[str, list]:
    """JSON text of the meet semilattice plus its morphisms (x, e) with x <= e."""
    table = [[names[meet(x, y)] for y in range(len(names))] for x in range(len(names))]
    text = json.dumps({"elements": names, "table": table, "one": names[top]})
    morphisms = [(x, e) for e in range(len(names)) for x in range(len(names)) if meet(x, e) == x]
    return text, morphisms


def _boolean(rng: random.Random, k: int) -> dict:
    labels = rng.sample("abcdefghijklmnopqrstuvwxyz", k)
    subsets = [frozenset(c) for r in range(k + 1) for c in itertools.combinations(range(k), r)]
    rng.shuffle(subsets)
    names = ["".join(sorted(labels[i] for i in s)) or "0" for s in subsets]
    index = {s: n for n, s in enumerate(subsets)}
    text, morphisms = _semilattice(
        names, lambda x, y: index[subsets[x] & subsets[y]], index[frozenset(range(k))]
    )
    ops = [
        {
            "spec": [names[x], names[e]],
            "mu": (-1) ** (len(subsets[e]) - len(subsets[x])),
            "shape": f"B{k}:{len(subsets[x])},{len(subsets[e])}",
        }
        for x, e in morphisms
    ]
    return {"name": f"boolean_{k}", "json": text, "transversal": None, "ops": ops}


def _exponents(q: int, primes: list) -> str:
    """Exponents of q over primes, in signature order."""
    out = []
    for p in primes:
        e = 0
        while q % p == 0:
            q //= p
            e += 1
        out.append(str(e))
    return ".".join(out)


def _divisors(rng: random.Random, signature: tuple) -> dict:
    primes = rng.sample(SMALL_PRIMES, len(signature))
    n = 1
    for p, e in zip(primes, signature):
        n *= p ** e
    divisors = [q for q in range(1, n + 1) if n % q == 0]
    rng.shuffle(divisors)
    names = [str(q) for q in divisors]
    index = {q: k for k, q in enumerate(divisors)}
    text, morphisms = _semilattice(
        names, lambda x, y: index[gcd(divisors[x], divisors[y])], index[n]
    )
    sig = "".join(map(str, signature))
    ops = [
        {
            "spec": [names[x], names[e]],
            "mu": classical_mu(divisors[e] // divisors[x]),
            "shape": f"D{sig}:{_exponents(divisors[x], primes)},{_exponents(divisors[e], primes)}",
        }
        for x, e in morphisms
    ]
    return {"name": f"divisors_{sig}", "json": text, "transversal": None, "ops": ops}


def _brandt(rng: random.Random, n: int) -> dict:
    """B_n: pairs (i, j) with (i, j)(k, l) = (i, l) if j == k, else 0."""
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    elements = cells + ["0"]
    rng.shuffle(elements)

    def name(s):
        return s if s == "0" else f"{s[0]}_{s[1]}"

    def mul(s, t):
        if s == "0" or t == "0" or s[1] != t[0]:
            return "0"
        return (s[0], t[1])

    names = [name(s) for s in elements]
    table = [[name(mul(s, t)) for t in elements] for s in elements]
    r = rng.randint(1, n)
    rep = name((r, r))
    ops = [
        {"spec": [rep, rep], "mu": 1, "shape": f"brandt{n}:rep,rep"},
        {"spec": ["0", "0"], "mu": 1, "shape": f"brandt{n}:0,0"},
        {"spec": ["0", rep], "mu": -1, "shape": f"brandt{n}:0,rep"},
    ]
    rng.shuffle(ops)
    text = json.dumps({"elements": names, "table": table})
    return {"name": f"brandt_{n}", "json": text, "transversal": [rep, "0"], "ops": ops}


def _semigroup_rules(rng: random.Random) -> dict:
    corpus = (
        [_boolean(rng, k) for k in BOOLEAN_RANKS]
        + [_divisors(rng, sig) for sig in DIVISOR_SIGNATURES]
        + [_brandt(rng, n) for n in BRANDT_SIZES]
    )
    for entry in corpus:
        rng.shuffle(entry["ops"])
    rng.shuffle(corpus)
    return {"semigroups": corpus}


def make_inputs(workload: str, seed: int) -> dict:
    """The inputs of one workload; equal seeds give equal inputs."""
    builders = {
        "cm_sweep": _cm_sweep,
        "cli_verify": _cli_verify,
        "semigroup_rules": _semigroup_rules,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return builders[workload](random.Random(f"{workload}:{seed}"))


def dumps(inputs: dict) -> str:
    """Canonical serialization, used to compare inputs byte for byte."""
    return json.dumps(inputs, sort_keys=True, separators=(",", ":"))
