"""Each document format lives behind its one module: the class-document
keys occur as string constants only in gwring, and the polynomial-document
keys only in polyring, so no other module can read or write either format
by hand."""

import ast
from pathlib import Path

import pytest

import gwadams

PACKAGE = Path(gwadams.__file__).parent
KEYS = {"u_exps", "gmin", "components"}
POLY_KEYS = {"vars", "terms", "exps", "coeff"}


def sources(owner: str) -> list[Path]:
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != owner)


def format_keys(source: str, keys: set = KEYS) -> list[int]:
    """Line numbers of every string constant that is one of keys."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and node.value in keys)


def constants(owner: str) -> set:
    source = (PACKAGE / owner).read_text(encoding="utf-8")
    return {n.value for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Constant)}


@pytest.mark.parametrize("path", sources("gwring.py"), ids=lambda p: p.name)
def test_format_behind_gwring(path):
    assert format_keys(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sources("polyring.py"), ids=lambda p: p.name)
def test_poly_format_behind_polyring(path):
    assert format_keys(path.read_text(encoding="utf-8"), POLY_KEYS) == []


def test_detects_format_key():
    src = ('doc = {"components": []}\n'
           'ue = comp.get("u_exps")\n'
           '"""gmin"""\n'
           'components = comp["gmin min"]\n'
           'x = gmin\n'
           'e = t["exps"]\n')
    assert format_keys(src) == [1, 2, 3]
    assert format_keys(src, POLY_KEYS) == [6]


def test_gwring_holds_the_keys():
    assert constants("gwring.py") >= KEYS


def test_polyring_holds_the_poly_keys():
    assert constants("polyring.py") >= POLY_KEYS
