"""Rules on the package source itself.

``python -O`` strips ``assert`` statements, so an invariant checked that way
silently stops being checked; the package raises ``InvariantViolation``
instead, and nothing in it raises or catches ``AssertionError``.
"""

import ast
from pathlib import Path

import pytest

import weyltype

SOURCES = sorted(Path(weyltype.__file__).parent.glob("*.py"))


def _assert_sites(tree: ast.AST) -> list[tuple[int, str]]:
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            sites.append((node.lineno, "assert statement"))
        elif isinstance(node, ast.Name) and node.id == "AssertionError":
            sites.append((node.lineno, "AssertionError"))
    return sites


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"automorphisms.py", "classification.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_or_assertion_error(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _assert_sites(tree) == []


def test_checker_sees_every_form():
    src = ("assert x\n"
           "raise AssertionError('a')\n"
           "try:\n    pass\nexcept (KeyError, AssertionError):\n    pass\n")
    assert [line for line, _ in _assert_sites(ast.parse(src))] == [1, 2, 5]
