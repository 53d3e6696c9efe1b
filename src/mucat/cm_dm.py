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
as their field tuples.  A source reads each morphism by a cheaper handle: a
C_m morphism by its plain field tuple (a, x, i, j), a D_m morphism (alpha, x)
by the integer alpha·m + x, which is exact for every alpha >= x >= 0.  Its
public reads and its messages decode handles to morphisms, and its endpoints
stay objects, so a window keeps its ``CmObject`` objects.
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


def validate_cm_morphism(m: int, f: CmMorphism) -> None:
    _require_modulus(m)
    if not 0 <= f.x < m:
        raise ValueError(f"residue {f.x} not in [0, {m})")
    _require_cm_shape(f)


def _require_cm_shape(f: CmMorphism) -> None:
    """The modulus-free part of validate_cm_morphism: levels and shift."""
    if f.i > 0 or f.j > 0:
        raise ValueError(f"levels ({f.i}, {f.j}) must be <= 0")
    if f.a < 0 or f.a > f.i - f.j:
        raise ValueError(f"shift a={f.a} not in [0, i-j] = [0, {f.i - f.j}]")


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
    """The closed-form Möbius value of (a, x, i, j).

    Raises ValueError unless i, j <= 0 and 0 <= a <= i - j; the residue x
    does not enter the value and is not checked (that needs the modulus).
    """
    _require_cm_shape(f)
    if (f.a == 0 and f.j == f.i) or (f.a == 1 and f.j == f.i - 2):
        return 1
    if (f.a == 0 and f.j == f.i - 1) or (f.a == 1 and f.j == f.i - 1):
        return -1
    return 0


def cm_source(m: int) -> FactorizationSource:
    """C_m's rules, read with no window or through ``cm_slice``, on the plain
    tuple (a, x, i, j) of each morphism as its handle: factorizations from the
    closed-form enumerator, composites and endpoints by index."""
    _require_modulus(m)

    def factorizations(k):
        """Every pair (g, h) with g∘h = k: right factor (b, x, i, l) with l from i
        down to j, then b ascending, the order cm_slice lists them in."""
        a, x, i, j = k
        return [((a - b, (b + x) % m, l, j), (b, x, i, l))
                for l in range(i, j - 1, -1) for b in range(max(0, a - l + j), min(a, i - l) + 1)]

    return FactorizationSource(factorizations, lambda k: _new(CmObject, (k[1], k[2])),
                               lambda k: _new(CmObject, ((k[0] + k[1]) % m, k[3])),
                               lambda x: (0, x[0], x[1], x[1]),
                               lambda g, h: (h[0] + g[0], h[1], h[2], g[3]),
                               lambda f: validate_cm_morphism(m, f),
                               at=lambda k: _new(CmMorphism, k))


class DmMorphism(NamedTuple):
    """A morphism (alpha, x): x -> alpha mod m, with alpha >= x."""

    alpha: int
    x: int

    def __str__(self):
        return f"{self.alpha},{self.x}"


def validate_dm_morphism(m: int, f: DmMorphism) -> None:
    _require_modulus(m)
    if not 0 <= f.x < m:
        raise ValueError(f"residue {f.x} not in [0, {m})")
    if f.alpha < f.x:
        raise ValueError(f"alpha={f.alpha} is below the canonical representative {f.x}")


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
    alpha·m + x of each morphism (alpha, x) as its handle: factorizations from the
    closed-form enumerator, composites and endpoints by integer arithmetic."""
    _require_modulus(m)

    def factorizations(k):
        """Every pair (g, h) with g · h = k: right factor (c, x) with c ascending,
        the order dm_slice lists them in."""
        alpha, x = divmod(k, m)
        return [((alpha - c + c % m) * m + c % m, c * m + x) for c in range(x, alpha + 1)]

    return FactorizationSource(factorizations, lambda k: k % m, lambda k: k // m % m,
                               lambda x: x * m + x,
                               lambda g, h: (g // m - g % m + h // m) * m + h % m,
                               lambda f: validate_dm_morphism(m, f),
                               lambda f: f[0] * m + f[1], lambda k: _new(DmMorphism, divmod(k, m)))


def dm_moebius_closed_form(f: DmMorphism) -> int:
    """The closed-form Möbius value of (alpha, x)."""
    if f.alpha == f.x:
        return 1
    if f.alpha == f.x + 1:
        return -1
    return 0

