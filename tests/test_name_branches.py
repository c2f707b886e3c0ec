"""Per-theory behaviour lives in the fields of gwring.Theory, so no module
branches on a name: no `.name` is compared with a string literal, and
nothing is compared with a theory's name, a key of gwring.THEORIES."""

import ast
from pathlib import Path

import pytest

import gwadams
from gwadams.gwring import THEORIES

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


def _names_theory(node) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(_names_theory, node.elts))
    return isinstance(node, ast.Constant) and node.value in THEORIES


def theory_comparisons(source: str) -> list[int]:
    """Line numbers of every comparison with a literal theory name, alone or
    in a collection, whatever the other operand."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Compare)
                  and any(map(_names_theory, [node.left, *node.comparators])))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_theory_name_comparisons(path):
    assert theory_comparisons(path.read_text(encoding="utf-8")) == []


def test_detects_theory_name_comparison():
    src = ('if theory == "witt":\n'
           '    pass\n'
           'ok = t in ("x", "k")\n'
           'fine = method == "direct"\n'
           'laws = {"gw": 1}["gw"]\n'
           'z = "gw" != t.theory\n'
           'n = x < 2\n')
    assert theory_comparisons(src) == [1, 3, 6]
