"""The package declares requires-python >= 3.10; its sources must parse there.

ast.parse with feature_version=(3, 10) rejects grammar added after 3.10
(``except*`` groups, PEP 695 type parameters, ...) even when the tests run
on a newer interpreter.  It checks grammar only: a call into a stdlib API
added after 3.10 still parses, and this test does not see it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


def test_the_declared_floor_is_3_10():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_source_parses_with_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
