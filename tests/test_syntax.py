"""Every Python file of the project parses under the oldest supported grammar
(``requires-python = ">=3.10"``), whatever interpreter runs the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    paths = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))
    assert {"cli.py", "test_syntax.py", "run.py"} <= {path.name for path in paths}
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
