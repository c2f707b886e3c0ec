"""Per-theory behaviour lives in the fields of gwring.Theory, so no module
branches on a name: no `.name` is compared with a string literal."""

import ast
from pathlib import Path

import pytest

import gwadams

SOURCES = sorted(Path(gwadams.__file__).parent.glob("*.py"))


def _is_str_literal(node) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(map(_is_str_literal, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def name_comparisons(source: str) -> list[int]:
    """Line numbers of every comparison of a `.name` attribute with a string
    literal or a collection of them."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if (any(isinstance(o, ast.Attribute) and o.attr == "name"
                    for o in operands)
                    and any(map(_is_str_literal, operands))):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_name_branches(path):
    assert name_comparisons(path.read_text(encoding="utf-8")) == []


def test_detects_name_comparison():
    src = ('if x.theory.name == "gw":\n'
           '    pass\n'
           'ok = theory.name in ("k", "witt")\n'
           'same = a.name != b.name\n'
           'flag = name == "gw"\n'
           'z = "w" != t.name\n')
    assert name_comparisons(src) == [1, 3, 6]
