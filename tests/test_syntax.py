"""Every Python file of the project parses under the oldest supported grammar
(``requires-python = ">=3.10"``), whatever interpreter runs the tests, and the
names ``mucat`` exports are exactly the listed ones, so any change to the public
surface shows in this file."""

import ast
from pathlib import Path
from types import ModuleType

import mucat

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "CategorySlice", "CmMorphism", "CmObject", "DmMorphism", "Factorization",
    "FactorizationSource", "FinitePoset", "IncidenceFunction", "IncompleteSlice",
    "InvalidPoset", "InvalidSemigroup", "InvalidSlice", "InverseSemigroup",
    "LawvereInterval", "MucatError", "NotCombinatorial", "NotComparable", "NotInvertible",
    "NotMoebius", "NotOneWay", "NotThin", "NotTransversal", "Unbounded", "chain",
    "check_transversal", "cm_identity", "cm_moebius_closed_form", "cm_slice", "cm_source",
    "convolution_inverse", "convolve", "default_transversal", "division_category",
    "dm_identity", "dm_moebius_closed_form", "dm_slice", "dm_source", "factor_slice",
    "find_semigroup_violation", "find_slice_violation", "interval_as_poset", "is_one_way",
    "is_one_way_category", "lawvere_interval", "moebius_at", "moebius_of_slice",
    "moebius_via_idempotent_lattice", "moebius_via_lawvere", "moebius_via_quotients",
    "poset_as_category", "quotient_poset", "validate_cm_morphism", "validate_dm_morphism",
]


def test_sources_parse_as_python_3_10():
    paths = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))
    assert {"cli.py", "test_syntax.py", "run.py"} <= {path.name for path in paths}
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_public_names_are_the_listed_ones():
    exported = sorted(
        name for name, value in vars(mucat).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    )
    assert exported == PUBLIC_NAMES
