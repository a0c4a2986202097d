"""Rules on the package source itself.

``python -O`` strips ``assert`` statements, so an invariant checked that way
silently stops being checked; the package raises ``InvariantViolation``
instead, and nothing in it raises or catches ``AssertionError``.

A handler for ``Exception``, ``BaseException`` or everything (a bare
``except:``) would also swallow programming errors and keyboard interrupts;
the package catches only the errors it means to translate.
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


_BROAD = {"Exception", "BaseException"}


def _broad_except_sites(tree: ast.AST) -> list[tuple[int, str]]:
    sites = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            sites.append((node.lineno, "bare except"))
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        for exc in caught:
            if isinstance(exc, ast.Name) and exc.id in _BROAD:
                sites.append((node.lineno, f"except {exc.id}"))
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_broad_except(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _broad_except_sites(tree) == []


def test_broad_except_checker_sees_every_form():
    src = ("try:\n    pass\nexcept:\n    pass\n"
           "try:\n    pass\nexcept Exception:\n    pass\n"
           "try:\n    pass\nexcept (KeyError, BaseException) as exc:\n    pass\n"
           "try:\n    pass\nexcept (KeyError, ValueError):\n    pass\n")
    assert [line for line, _ in _broad_except_sites(ast.parse(src))] == [3, 7, 11]
