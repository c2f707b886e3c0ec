"""MultiPoly._trusted skips validation, so only polyring, whose operations
are valid by construction, may call it."""

import ast
from pathlib import Path

import pytest

import gwadams

SOURCES = sorted(p for p in Path(gwadams.__file__).parent.glob("*.py")
                 if p.name != "polyring.py")


def trusted_references(source: str) -> list[int]:
    """Line numbers of every mention of the name _trusted."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.alias):
            names = {node.name, node.asname}
        elif isinstance(node, ast.Constant):
            names = {node.value}
        else:
            continue
        if "_trusted" in names:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_trusted_constructor_private(path):
    assert trusted_references(path.read_text(encoding="utf-8")) == []


def test_detects_trusted_reference():
    src = ("from .polyring import MultiPoly, _trusted as t\n"
           "p = MultiPoly._trusted(ring, {})\n"
           "q = getattr(MultiPoly, '_trusted')\n"
           "trusted = 1\n")
    assert trusted_references(src) == [1, 2, 3]
