"""One term representation: a monomial is a packed int everywhere in the
package, so no module adds exponent tuples, and only the named functions
below key a dict by a tuple expression: the parsing and codec boundaries,
and dicts of something other than terms."""

import ast
from pathlib import Path

import pytest

import gwadams

SOURCES = sorted(Path(gwadams.__file__).parent.glob("*.py"))

# function -> what its tuple-keyed dict holds
ALLOWED = {
    "monomial": "the boundary: one exponent tuple, packed by from_exps",
    "_write_dense": "the codec's (slot, gamma exponent) -> coefficient",
    "check_lambda_axioms": "(n, sample name) -> psi^n of the sample",
    "plane_image": "forms: a subset of one plane's basis -> its image",
}

_ARITH = {"add", "sub"}


def _is_tuple_expr(node) -> bool:
    """A tuple display, a tuple(...) call or a concatenation with one."""
    if isinstance(node, ast.Tuple):
        return True
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "tuple"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _is_tuple_expr(node.left) or _is_tuple_expr(node.right)
    return False


def _name(node) -> str:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def exponent_tuples(source: str) -> list[str]:
    """'line: function' for each exponent-tuple sum (map(add, ...) or
    map(sub, ...)) and each dict keyed by a tuple expression: a subscript
    store, a dict display or a dict comprehension."""
    hits = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        keys = []
        if isinstance(node, ast.Call) and _name(node.func) == "map" and \
                node.args and _name(node.args[0]) in _ARITH:
            hits.append("%d: %s map(%s)" % (node.lineno, func,
                                            _name(node.args[0])))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            keys = [t.slice for t in targets if isinstance(t, ast.Subscript)]
        elif isinstance(node, ast.DictComp):
            keys = [node.key]
        elif isinstance(node, ast.Dict):
            keys = [k for k in node.keys if k is not None]
        if any(map(_is_tuple_expr, keys)) and func not in ALLOWED:
            hits.append("%d: %s" % (node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return hits


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_exponent_tuples(path):
    assert exponent_tuples(path.read_text(encoding="utf-8")) == []


def test_allowed_functions_exist():
    names = {node.name for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.FunctionDef)}
    assert set(ALLOWED) <= names


def test_detects_exponent_tuples():
    src = ("def mul(out, a, b):\n"
           "    for e1 in a:\n"
           "        e = tuple(map(add, e1, b))\n"
           "        out[tuple(e)] = 1\n"
           "        out[e1 + (0,)] += 1\n"
           "def f(x):\n"
           "    d = {(0, 0): 1}\n"
           "    return {tuple(e): c for e, c in x}, map(operator.sub, x, x)\n"
           "def _write_dense(t):\n"
           "    t[1, 2] = 3\n"
           "ok = {k: 1 for k in range(3)}\n"
           "ok[0] = tuple(map(len, ok))\n")
    assert exponent_tuples(src) == [
        "3: mul map(add)", "4: mul", "5: mul", "7: f", "8: f", "8: f map(sub)"]
