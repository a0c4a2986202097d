"""Rules on the package source itself.

``python -O`` strips ``assert`` statements, so an invariant checked that way
silently stops being checked; the package raises ``InvariantViolation``
instead, and nothing in it raises or catches ``AssertionError``.

A handler for ``Exception``, ``BaseException`` or everything (a bare
``except:``) would also swallow programming errors and keyboard interrupts;
the package catches only the errors it means to translate.

Every module-level function or class, and every method that is not a
dunder, must be reachable by name: referenced somewhere in the package
outside its own body, named by the benchmark harness in ``perfbench/``, or
exported in ``weyltype.__all__``.  A helper nothing calls is deleted, not
kept.  The interpreter calls a module-level ``__getattr__`` (PEP 562) as it
calls a dunder method, so that one hook is exempt too.
"""

import argparse
import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import weyltype

SOURCES = sorted(Path(weyltype.__file__).parent.glob("*.py"))
PERFBENCH = Path(weyltype.__file__).parents[2] / "perfbench"


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


def _definitions(tree: ast.Module):
    """(qualified name, node) of each module-level function or class but the
    PEP 562 hook ``__getattr__``, and each non-dunder method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or node.name == "__getattr__":
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def _used_names(tree: ast.AST) -> Counter:
    used: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
    return used


def _unreferenced(sources: dict, outside_text: str, exported) -> list[str]:
    """``module:qualified.name`` of each definition in ``sources`` (module
    name -> source text) with no reference outside its own body, no word in
    ``outside_text`` and no entry in ``exported``."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    used = sum((_used_names(tree) for tree in trees.values()), Counter())
    outside = set(re.findall(r"\w+", outside_text)) | set(exported)
    dead = []
    for mod, tree in trees.items():
        for qual, node in _definitions(tree):
            name = qual.rpartition(".")[2]
            if used[name] - _used_names(node)[name] <= 0 and name not in outside:
                dead.append(f"{mod}:{qual}")
    return dead


# overrides that only the standard library calls, each with the class that
# calls it: argparse prints its help through _print_message
STDLIB_HOOKS = {"cli:_ArgumentParser._print_message": argparse.ArgumentParser}


def test_no_unreferenced_definitions():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    harness = sorted(PERFBENCH.glob("*.py")) + [PERFBENCH / "layers.json"]
    outside = "\n".join(p.read_text(encoding="utf-8") for p in harness if p.exists())
    for hook, caller in STDLIB_HOOKS.items():
        assert hasattr(caller, hook.rpartition(".")[2]), hook
    dead = _unreferenced(sources, outside, weyltype.__all__)
    assert [qual for qual in dead if qual not in STDLIB_HOOKS] == []


def test_unreferenced_checker_sees_every_form():
    sources = {
        "a": ("def used():\n    pass\n"
              "def unused():\n    return unused()\n"
              "def exported():\n    pass\n"
              "def harness_only():\n    pass\n"
              "class Box:\n"
              "    def __init__(self):\n        self.fill()\n"
              "    def fill(self):\n        pass\n"
              "    def spare(self):\n        return self.spare()\n"),
        "b": "from .a import used\nused()\nBox()\n",
        "c": ("def __getattr__(name):\n    return _load(name)\n"
              "def _load(name):\n    pass\n"
              "def _spare_helper():\n    pass\n"),
    }
    assert _unreferenced(sources, "target a:harness_only", ["exported"]) == [
        "a:unused", "a:Box.spare", "c:_spare_helper"]


# the integer exact core: these functions run on integer numerators only, so
# they neither build a Fraction nor read the Fraction view ``.terms``
INTEGER_CORE = {
    "algebra": ("_accumulate", "_convolve", "_d_lam", "_mul_elements", "_packed_accumulate",
                "_right_factor", "_shared_sum", "_unpack", "act_each_on_A", "act_on_A",
                "derivation_apply"),
    "automorphisms": ("_hom_extend",),
    "lattice": ("adapted_basis",),
    "linalg": ("integer_det_adjugate", "integer_product", "hermite_normal_form"),
}


def _fraction_sites(tree: ast.Module, names) -> list[tuple[str, int, str]]:
    """(function, line, what) for each use of the name Fraction, as a name or
    an attribute, and each ``.terms`` read in the bodies of the module-level
    functions ``names``."""
    sites = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or node.name not in names:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id == "Fraction":
                sites.append((node.name, sub.lineno, "Fraction"))
            elif isinstance(sub, ast.Attribute) and sub.attr in ("Fraction", "terms"):
                sites.append((node.name, sub.lineno, sub.attr))
    return sites


@pytest.mark.parametrize("module", sorted(INTEGER_CORE))
def test_integer_core_builds_no_fraction(module):
    path = Path(weyltype.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(INTEGER_CORE[module]) <= defined
    assert _fraction_sites(tree, INTEGER_CORE[module]) == []


def test_integer_core_checker_sees_every_form():
    src = ("def core(e):\n    x = Fraction(1)\n    return x, e.terms\n"
           "def edge(e):\n    return Fraction(1), e.terms\n"
           "def nested(e):\n    def inner():\n        return fractions.Fraction(1, 2)\n"
           "    return inner\n")
    assert _fraction_sites(ast.parse(src), ("core", "nested")) == [
        ("core", 2, "Fraction"), ("core", 3, "terms"), ("nested", 8, "Fraction")]


def test_lattice_data_have_no_fraction_inverse():
    """Lattice data stay integer matrices over one denominator: the name
    ``mat_inverse`` appears nowhere in the package, and the Fraction
    determinant ``mat_det`` is defined, for the probe in
    ``perfbench/layers.json``, but referenced nowhere."""
    texts = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert not any("mat_inverse" in text for text in texts.values())
    trees = {mod: ast.parse(text) for mod, text in texts.items()}
    assert sum((_used_names(tree) for tree in trees.values()), Counter())["mat_det"] == 0
    assert "mat_det" in {name for name, _ in _definitions(trees["linalg"])}


def test_one_apply_for_every_table_map():
    """Every automorphism applies the same way: in ``automorphisms`` only the
    shared base ``_TableMap`` defines ``apply``, ``image_function`` and
    ``generator_images``, and ``_hom_extend`` is called only from
    ``_TableMap.image_function``."""
    path = Path(weyltype.__file__).parent / "automorphisms.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defs = list(_definitions(tree))
    for method in ("apply", "image_function", "generator_images"):
        assert [qual for qual, _ in defs if qual.split(".")[-1] == method] == [
            f"_TableMap.{method}"]
    callers = {qual for qual, node in defs if not isinstance(node, ast.ClassDef)
               for sub in ast.walk(node)
               if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
               and sub.func.id == "_hom_extend"}
    assert callers == {"_TableMap.image_function"}
