"""Ring keeps one instance per variable list, so rings compare by
identity: Ring defines no __eq__ or __hash__, and no module compares a
`.ring` attribute with == or !=, which would pass only by falling back to
identity."""

import ast
from pathlib import Path

import pytest

import gwadams
from gwadams.polyring import Ring

SOURCES = sorted(Path(gwadams.__file__).parent.glob("*.py"))


def _is_ring(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "ring"


def ring_comparisons(source: str) -> list[int]:
    """Line numbers of every == or != comparison with an operand that is
    an attribute named ring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(op, (ast.Eq, ast.NotEq))
                   and (_is_ring(a) or _is_ring(b))
                   for op, a, b in zip(node.ops, operands, operands[1:])):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_ring_equality(path):
    assert ring_comparisons(path.read_text(encoding="utf-8")) == []


def test_detects_ring_equality():
    src = ('if a.ring != b.ring:\n'
           '    pass\n'
           'same = x.ring is y.ring\n'
           'ok = ring == other\n'
           'bad = p.ring == ring\n'
           'z = q.ring is r != s.ring\n'
           'w = s.rings == t\n'
           'v = u.ring is not w or u.ring.names != n\n')
    assert ring_comparisons(src) == [1, 5, 6]


def test_ring_has_identity_equality():
    assert "__eq__" not in vars(Ring) and "__hash__" not in vars(Ring)
