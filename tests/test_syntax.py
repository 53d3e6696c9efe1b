"""Every Python file of the project parses under the oldest supported grammar
(``requires-python = ">=3.10"``), whatever interpreter runs the tests, every
module of ``mucat`` reads each name it imports, some module of ``mucat`` reads
each private module-level name one defines, and the names ``mucat`` exports,
and the public attributes of its main classes, are exactly the listed ones, so
any change to the public surface shows in this file."""

import ast
from pathlib import Path
from types import ModuleType

import mucat

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "CategorySlice", "CmMorphism", "CmObject", "DmMorphism", "Factorization",
    "FactorizationSource", "FinitePoset", "IncidenceFunction", "IncompleteSlice",
    "InvalidPoset", "InvalidSemigroup", "InvalidSlice", "InverseSemigroup",
    "LawvereInterval", "MucatError", "NotCombinatorial", "NotComparable", "NotMoebius",
    "NotOneWay", "NotThin", "NotTransversal", "Unbounded", "chain", "check_transversal",
    "cm_moebius_closed_form", "cm_slice", "cm_source", "convolve", "default_transversal",
    "division_category", "dm_moebius_closed_form", "dm_slice", "dm_source", "factor_slice",
    "find_semigroup_violation", "find_slice_violation", "interval_as_poset", "is_one_way",
    "is_one_way_category", "lawvere_interval", "moebius_at", "moebius_of_slice",
    "moebius_via_idempotent_lattice", "moebius_via_lawvere", "moebius_via_quotients",
    "poset_as_category", "quotient_poset", "validate_cm_morphism", "validate_dm_morphism",
]

PUBLIC_ATTRIBUTES = {
    "CategorySlice": [
        "cod", "complete", "compose", "dom", "factorizations", "from_json", "hom", "identities",
        "is_identity", "morphisms", "morphisms_from", "objects",
    ],
    "FactorizationSource": ["factorizations"],
    "FinitePoset": [
        "covers", "elements", "from_json", "is_lattice", "leq", "moebius", "to_dot",
    ],
    "IncidenceFunction": ["delta", "get", "items", "keys", "values", "zeta"],
    "InverseSemigroup": [
        "d_classes", "elements", "from_json", "idempotent_poset", "idempotents", "identity",
        "inverse", "mul",
    ],
    "LawvereInterval": ["homs", "objects", "subject"],
}


def test_sources_parse_as_python_3_10():
    paths = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))
    assert {"cli.py", "test_syntax.py", "run.py"} <= {path.name for path in paths}
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_modules_read_every_name_they_import():
    # the package's __init__ imports to re-export; the test below pins those names
    paths = sorted((ROOT / "src" / "mucat").glob("*.py"))
    unread = []
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        for node in imports:
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    unread.append(f"{path.name}:{node.lineno}: {name}")
    assert "cli.py" in {path.name for path in paths}
    assert unread == []


def test_every_private_module_level_name_is_read_in_the_package():
    # a private function, class or constant that only tests read is a leftover
    defined, read = {}, set()
    for path in sorted((ROOT / "src" / "mucat").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{path.name}:{node.lineno}"
        read |= {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert {"_row", "_exact", "_Rule"} <= defined.keys()
    assert sorted(f"{where}: {name}" for name, where in defined.items() if name not in read) == []


def test_public_names_are_the_listed_ones():
    exported = sorted(
        name for name, value in vars(mucat).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    )
    assert exported == PUBLIC_NAMES


def test_public_attributes_of_the_main_classes_are_the_listed_ones():
    exported = {
        name: sorted(attr for attr in dir(getattr(mucat, name)) if not attr.startswith("_"))
        for name in PUBLIC_ATTRIBUTES
    }
    assert exported == PUBLIC_ATTRIBUTES
