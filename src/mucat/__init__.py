"""Exact Möbius functions of finite posets, category slices, and inverse semigroups."""

from .errors import (
    IncompleteSlice,
    InvalidPoset,
    InvalidSemigroup,
    InvalidSlice,
    MucatError,
    NotCombinatorial,
    NotComparable,
    NotMoebius,
    NotOneWay,
    NotThin,
    NotTransversal,
    Unbounded,
)
from .poset import FinitePoset, chain
from .category import (
    CategorySlice,
    FactorizationSource,
    IncidenceFunction,
    convolve,
    factor_slice,
    find_slice_violation,
    is_one_way_category,
    moebius_at,
    moebius_of_slice,
    poset_as_category,
)
from .lawvere import (
    Factorization,
    LawvereInterval,
    interval_as_poset,
    is_one_way,
    lawvere_interval,
    moebius_via_lawvere,
)
from .cm_dm import (
    CmMorphism,
    CmObject,
    DmMorphism,
    cm_moebius_closed_form,
    cm_slice,
    cm_source,
    dm_moebius_closed_form,
    dm_slice,
    dm_source,
    validate_cm_morphism,
    validate_dm_morphism,
)
from .semigroups import (
    InverseSemigroup,
    check_transversal,
    default_transversal,
    division_category,
    find_semigroup_violation,
    moebius_via_idempotent_lattice,
    moebius_via_quotients,
    quotient_poset,
)

__version__ = "0.1.0"
