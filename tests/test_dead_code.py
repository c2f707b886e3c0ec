"""Every function and class the package defines is referenced by name
somewhere in the package, its tests or its benchmark.  A reference is a
name, an attribute, an import alias or a string constant (the benchmark
wraps functions by their names).  Dunder methods are called by Python,
and functions with a call decorator, such as `@app.command("x")`, by the
framework that decorator registers them with."""

import ast
from pathlib import Path

import pytest

import gwadams

PACKAGE = Path(gwadams.__file__).parent
ROOT = PACKAGE.parent.parent
SOURCES = sorted(PACKAGE.glob("*.py"))
REFERENCING = SOURCES + sorted((ROOT / "tests").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))


def definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of every function and class that must be referenced."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            dunder = node.name.startswith("__") and node.name.endswith("__")
            called = any(isinstance(d, ast.Call) for d in node.decorator_list)
            if not (dunder or called):
                out.append((node.lineno, node.name))
    return sorted(out)


def references(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update((node.name, node.asname))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unreferenced(source: str, used: set[str]) -> list[str]:
    return ["line %d: %s" % (line, name)
            for line, name in definitions(source) if name not in used]


@pytest.fixture(scope="module")
def used():
    return set().union(*(references(p.read_text(encoding="utf-8"))
                         for p in REFERENCING))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dead_code(path, used):
    assert unreferenced(path.read_text(encoding="utf-8"), used) == []


def test_detects_dead_code():
    src = ("class A:\n"
           "    def __init__(self): pass\n"
           "    def used(self): pass\n"
           "    def dead(self): pass\n"
           "@main.command('x')\n"
           "def cmd(): pass\n"
           "def unused(): pass\n"
           "A().used()\n")
    assert unreferenced(src, references(src)) == ["line 4: dead",
                                                  "line 7: unused"]
