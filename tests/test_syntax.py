"""Every Python file of the project parses under the oldest supported
grammar, Python 3.10 (pyproject.toml: requires-python = ">=3.10").

This checks grammar only, and on a newer interpreter:
ast.parse(feature_version=(3, 10)) rejects newer syntax such as `except*`
groups, on a best-effort basis, but not a call to a library function or
method that 3.10 lacks.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "perfbench")
                 for path in (ROOT / folder).rglob("*.py"))


def test_the_walk_sees_the_project():
    assert {"cli.py", "test_syntax.py", "run.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
