"""The class-document format lives behind gwring: its keys occur as string
constants in no other module of the package."""

import ast
from pathlib import Path

import pytest

import gwadams

SOURCES = sorted(p for p in Path(gwadams.__file__).parent.glob("*.py")
                 if p.name != "gwring.py")
KEYS = {"u_exps", "gmin", "components"}


def format_keys(source: str) -> list[int]:
    """Line numbers of every string constant that is a class-document key."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and node.value in KEYS)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_format_behind_gwring(path):
    assert format_keys(path.read_text(encoding="utf-8")) == []


def test_detects_format_key():
    src = ('doc = {"components": []}\n'
           'ue = comp.get("u_exps")\n'
           '"""gmin"""\n'
           'components = comp["gmin min"]\n'
           'x = gmin\n')
    assert format_keys(src) == [1, 2, 3]


def test_gwring_holds_the_keys():
    source = (Path(gwadams.__file__).parent / "gwring.py").read_text(
        encoding="utf-8")
    assert {n.value for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Constant)} >= KEYS
