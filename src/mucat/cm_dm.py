"""The level category C_m and its one-object-per-residue quotient D_m.

C_m has objects (residue mod m, non-positive level); a morphism (a, x, i, j)
runs from (x, i) to ((a + x) mod m, j) with 0 <= a <= i - j, and composes by
(b, y, j, k) ∘ (a, x, i, j) = (a + b, x, i, k).

D_m has the residues mod m as objects; a morphism (alpha, x) runs from x to
alpha mod m with alpha >= x, and composes by (beta, y) · (alpha, x) =
(beta - y + alpha, x).

Residue classes are stored by their canonical representative in [0, m); all
comparisons such as alpha >= x are against canonical representatives.  Both
categories are infinite; finite windows (a level floor for C_m, a cap on
alpha for D_m) yield slices whose morphisms are all factorization-complete,
because intermediate levels stay inside [j, i] and intermediate alphas inside
[x, alpha].  ``cm_source``/``dm_source`` state each category's rules once, with
closed-form factorization enumerators; ``factor_slice`` builds both windows
from them, and routes that need one morphism's factorizations and its right
factors' only read them with no window.

Objects and morphisms are NamedTuples: they hash, compare and order exactly
as their field tuples, and the validators read a morphism by index, so a
plain field tuple reads as the morphism it equals.  A source reads each
morphism by a cheaper handle: a C_m morphism by its plain field tuple
(a, x, i, j), a D_m morphism (alpha, x) by the integer alpha·m + x, which is
exact for every alpha >= x >= 0.  Its endpoints are plain values too: a C_m
object by its tuple (residue, level), which the source's ``obj`` decodes to
a ``CmObject``, a D_m object by its residue.  Composing with a fixed left
factor is one step on the handle: C_m's row rebuilds the tuple, and D_m's is
a shift, since (beta, y) · (alpha, x) = (beta - y + alpha, x) has the handle
h + (beta - y)·m for h the handle of (alpha, x).  Each source checks a whole
list by a rule that reads every pair's endpoints inline on the handles,
with no ``dom``/``cod`` call per pair.  Public reads and messages
decode handles and endpoint values, so a window keeps its ``CmObject``
objects.
"""

from __future__ import annotations

from typing import NamedTuple

from .category import CategorySlice, FactorizationSource, factor_slice

_new = tuple.__new__  # a NamedTuple from its field tuple, skipping the class's slower __new__


def _require_modulus(m: int) -> None:
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {m!r}")


class CmObject(NamedTuple):
    """An object (residue, level) with 0 <= residue < m and level <= 0."""

    residue: int
    level: int

    def __str__(self):
        return f"{self.residue},{self.level}"


class CmMorphism(NamedTuple):
    """A morphism (a, x, i, j): (x, i) -> ((a + x) mod m, j), 0 <= a <= i - j."""

    a: int
    x: int
    i: int
    j: int

    def __str__(self):
        return f"{self.a},{self.x},{self.i},{self.j}"


def _by_index(f, kind) -> tuple:
    """f, a ``kind`` morphism or its plain field tuple, once checked to hold
    one int per field, to be read by index."""
    names = kind._fields
    if not (isinstance(f, tuple) and len(f) == len(names) and all(type(v) is int for v in f)):
        raise ValueError(f"a morphism is {len(names)} integers ({', '.join(names)}), got {f!r}")
    return f


def validate_cm_morphism(m: int, f: CmMorphism) -> None:
    """Raise ValueError unless f, a CmMorphism or its field tuple, is a morphism of C_m."""
    _require_modulus(m)
    a, x, i, j = _by_index(f, CmMorphism)
    if not 0 <= x < m:
        raise ValueError(f"residue {x} not in [0, {m})")
    _require_cm_shape(a, i, j)


def _require_cm_shape(a: int, i: int, j: int) -> None:
    """The modulus-free part of validate_cm_morphism: levels and shift."""
    if i > 0 or j > 0:
        raise ValueError(f"levels ({i}, {j}) must be <= 0")
    if a < 0 or a > i - j:
        raise ValueError(f"shift a={a} not in [0, i-j] = [0, {i - j}]")


def cm_slice(m: int, level_min: int) -> CategorySlice:
    """The full window on objects with level in [level_min, 0].

    Every morphism is factorization-complete: intermediate objects of any
    factorization of (a, x, i, j) have level in [j, i], inside the window.
    """
    source = cm_source(m)
    if level_min > 0:
        raise ValueError(f"level_min must be <= 0, got {level_min}")
    morphisms = [
        CmMorphism(a, x, i, j)
        for i in range(0, level_min - 1, -1)
        for j in range(i, level_min - 1, -1)
        for a in range(i - j + 1)
        for x in range(m)
    ]
    return factor_slice(morphisms, source)


def cm_moebius_closed_form(f: CmMorphism) -> int:
    """The closed-form Möbius value of (a, x, i, j), a CmMorphism or its field tuple.

    Raises ValueError unless f holds four ints with i, j <= 0 and
    0 <= a <= i - j, in the validator's words; the residue x does not enter
    the value and is not checked (that needs the modulus).
    """
    a, _, i, j = _by_index(f, CmMorphism)
    _require_cm_shape(a, i, j)
    if (a == 0 and j == i) or (a == 1 and j == i - 2):
        return 1
    if (a == 0 and j == i - 1) or (a == 1 and j == i - 1):
        return -1
    return 0


def cm_source(m: int) -> FactorizationSource:
    """C_m's rules, read with no window or through ``cm_slice``, on the plain
    tuple (a, x, i, j) of each morphism as its handle and the plain tuple
    (residue, level) of each object, which ``obj`` decodes: factorizations
    from the closed-form enumerator, composites and endpoints by index."""
    _require_modulus(m)

    def factorizations(k):
        """Every pair (g, h) with g∘h = k: right factor (b, x, i, l) with l from i
        down to j, then b ascending, the order cm_slice lists them in; at
        level l, b runs from max(0, a - (l - j)) to min(a, i - l), each bound
        a conditional expression, not a builtin call."""
        a, x, i, j = k
        return [((a - b, (b + x) % m, l, j), (b, x, i, l))
                for l in range(i, j - 1, -1)
                for b in range(a + j - l if a + j > l else 0, (a if a < i - l else i - l) + 1)]

    def row(g):
        """h ↦ g∘h: (b, y, j, k) ∘ (a, x, i, j) = (a + b, x, i, k)."""
        b, k = g[0], g[3]
        return lambda h: (h[0] + b, h[1], h[2], k)

    def bad(k, pairs):
        """The first pair with dom h ≠ (x, i), cod g ≠ (y, j) or cod h ≠ dom g."""
        a, x, i, j = k
        y = (a + x) % m
        for n, ((ga, gx, gi, gj), (ha, hx, hi, hj)) in enumerate(pairs):
            if hx != x or hi != i or gj != j or hj != gi or (ha + hx) % m != gx or (ga + gx) % m != y:
                return n
        return None

    return FactorizationSource(factorizations, lambda k: (k[1], k[2]),
                               lambda k: ((k[0] + k[1]) % m, k[3]),
                               lambda x: (0, x[0], x[1], x[1]), row,
                               lambda f: validate_cm_morphism(m, f),
                               at=lambda k: _new(CmMorphism, k),
                               obj=lambda x: _new(CmObject, x), bad=bad)


class DmMorphism(NamedTuple):
    """A morphism (alpha, x): x -> alpha mod m, with alpha >= x."""

    alpha: int
    x: int

    def __str__(self):
        return f"{self.alpha},{self.x}"


def validate_dm_morphism(m: int, f: DmMorphism) -> None:
    """Raise ValueError unless f, a DmMorphism or its field tuple, is a morphism of D_m."""
    _require_modulus(m)
    alpha, x = _by_index(f, DmMorphism)
    if not 0 <= x < m:
        raise ValueError(f"residue {x} not in [0, {m})")
    _require_dm_shape(alpha, x)


def _require_dm_shape(alpha: int, x: int) -> None:
    """The modulus-free part of validate_dm_morphism: alpha >= x."""
    if alpha < x:
        raise ValueError(f"alpha={alpha} is below the canonical representative {x}")


def dm_slice(m: int, alpha_max: int) -> CategorySlice:
    """The window of all morphisms with alpha <= alpha_max.

    Factorizations of (alpha, x) run over intermediates (gamma, x) with
    x <= gamma <= alpha, so every morphism is complete; composition is partial
    (composites with alpha beyond the cap fall outside the slice).
    """
    source = dm_source(m)
    if alpha_max < m - 1:
        raise ValueError(f"alpha_max must be >= m-1 = {m - 1} so identities exist")
    morphisms = [
        DmMorphism(alpha, x) for x in range(m) for alpha in range(x, alpha_max + 1)
    ]
    return factor_slice(morphisms, source)


def dm_source(m: int) -> FactorizationSource:
    """D_m's rules, read with no window or through ``dm_slice``, on the integer
    alpha·m + x of each morphism (alpha, x) as its handle and the residue of
    each object: factorizations from the closed-form enumerator, endpoints
    by integer arithmetic, and g's row the shift h ↦ h + (beta - y)·m for
    g = (beta, y)."""
    _require_modulus(m)

    def factorizations(k):
        """Every pair (g, h) with g · h = k: right factor (c, x) with c ascending,
        the order dm_slice lists them in."""
        alpha, x = divmod(k, m)
        return [((alpha - c + r) * m + r, c * m + x) for c in range(x, alpha + 1) for r in (c % m,)]

    def bad(k, pairs):
        """The first pair with dom h ≠ x, cod g ≠ y or cod h ≠ dom g."""
        x, y = k % m, k // m % m
        for n, (g, h) in enumerate(pairs):
            if h % m != x or g // m % m != y or h // m % m != g % m:
                return n
        return None

    return FactorizationSource(factorizations, lambda k: k % m, lambda k: k // m % m,
                               lambda x: x * m + x,
                               lambda g: ((g // m - g % m) * m).__add__,
                               lambda f: validate_dm_morphism(m, f),
                               lambda f: f[0] * m + f[1], lambda k: _new(DmMorphism, divmod(k, m)),
                               bad=bad)


def dm_moebius_closed_form(f: DmMorphism) -> int:
    """The closed-form Möbius value of (alpha, x), a DmMorphism or its field tuple.

    Raises ValueError unless f holds two ints with alpha >= x, in the
    validator's words; the residue x is not checked (that needs the modulus).
    """
    alpha, x = _by_index(f, DmMorphism)
    _require_dm_shape(alpha, x)
    if alpha == x:
        return 1
    if alpha == x + 1:
        return -1
    return 0

