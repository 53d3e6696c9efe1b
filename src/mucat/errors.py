"""Exception types shared across the library."""


class MucatError(Exception):
    """Base class for every error this library raises on purpose."""


class InvalidPoset(MucatError):
    """Input does not describe a partial order (cycle, missing reflexivity, ...)."""


class NotComparable(MucatError):
    """A pair (x, y) with x <= y was required but the relation does not hold."""


class InvalidSlice(MucatError):
    """Structurally broken category slice (bad maps, dangling ids, ...)."""


class IncompleteSlice(MucatError):
    """A morphism was used as factorization-complete without being marked so."""


class NotMoebius(MucatError):
    """The Möbius recursion detected a cycle: the slice is not one-way."""


class NotThin(MucatError):
    """A hom-set inside a Lawvere interval has two or more elements."""


class NotOneWay(MucatError):
    """Two distinct objects are connected in both directions (or an object has
    extra endomorphisms)."""


class Unbounded(MucatError):
    """An interval poset is missing its least or greatest element."""


class InvalidSemigroup(MucatError):
    """Multiplication table is not an inverse semigroup (associativity or
    unique-inverse failure)."""


class NotTransversal(MucatError):
    """The supplied element set is not an idempotent transversal of the D-classes."""


class NotCombinatorial(MucatError):
    """The semigroup has a nontrivial subgroup, so its division category is not
    guaranteed to be Möbius."""
