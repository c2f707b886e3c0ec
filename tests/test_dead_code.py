"""Every function and class the package defines is referenced by name
somewhere in the package, its tests or its benchmark.  A reference is a
name, an attribute, an import alias or a string constant (the benchmark
wraps functions by their names).  Dunder methods are called by Python,
and functions with a call decorator, such as `@app.command("x")`, by the
framework that decorator registers them with.

Every parameter with a default is passed, by position or by keyword, by
some call of that name in the package, its tests or its benchmark: a
default that no call overrides is a constant.  Calls are matched by name,
as references are; a class's `__init__` is called by the class's name.
A test is no caller for an option either: each default is also passed by
some call in the package or its benchmark alone.  And each default is
used: some call in the package or its benchmark omits it.  A call of a
package class that defines no `__init__` is a call of its base class, a
call of a name bound by a plain assignment (`F = forms.GramForm`) is a
call of what it names too, and a method that overrides a library's
(argparse calls `parse_known_args`) is called by the library, so the
program's calls do not decide it."""

import ast
import importlib
import math
from collections import defaultdict
from pathlib import Path

import pytest

import gwadams

PACKAGE = Path(gwadams.__file__).parent
ROOT = PACKAGE.parent.parent
SOURCES = sorted(PACKAGE.glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
REFERENCING = SOURCES + sorted((ROOT / "tests").glob("*.py")) + BENCHMARK


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


def defaulted(source: str) -> list[tuple[int, str, str, int | None]]:
    """(line, function, parameter, position) of every parameter with a
    default of a function the package defines; position counts the
    positional parameters a caller passes (a method's self or cls left
    out), None for a keyword-only parameter.  Dunder methods other than
    __init__ are called by Python and left out."""
    out = []
    tree = ast.parse(source)
    methods = {id(f): c.name for c in ast.walk(tree)
               if isinstance(c, ast.ClassDef) for f in c.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name, a = node.name, node.args
        if name.startswith("__") and name.endswith("__"):
            if name != "__init__":
                continue
            name = methods[id(node)]
        positional = a.posonlyargs + a.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        skip = 1 if id(node) in methods and not static else 0
        first = len(positional) - len(a.defaults)
        for i, arg in enumerate(positional[first:], first):
            out.append((node.lineno, name, arg.arg, i - skip))
        for arg, d in zip(a.kwonlyargs, a.kw_defaults):
            if d is not None:
                out.append((node.lineno, name, arg.arg, None))
    return sorted(out)


def passed(sources) -> dict[str, list]:
    """Callee name -> [the most positional arguments a call of that name
    passes, the keywords they pass], over the calls in sources; a *args
    call passes every position and a **kwargs call every keyword, the
    latter marked by None."""
    calls: dict = defaultdict(lambda: [0, set()])
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node.func)
            if name is None:
                continue
            entry = calls[name]
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            entry[0] = max(entry[0], math.inf if starred else len(node.args))
            entry[1].update(k.arg for k in node.keywords)
    return calls


def call_shapes(sources) -> dict[str, list]:
    """Callee name -> (positional arguments, keywords) of each call of that
    name in sources, as passed() counts them.  A call of a class that
    defines no __init__ and has one base class defined in sources is filed
    under that base; a call of a name that an assignment `name = x` or
    `name = m.x` binds is filed under x as well."""
    trees = [ast.parse(source) for source in sources]
    classes = {c.name: c for t in trees for c in ast.walk(t)
               if isinstance(c, ast.ClassDef)}
    alias = {a.targets[0].id: _callee(a.value) for t in trees
             for a in ast.walk(t) if isinstance(a, ast.Assign)
             and len(a.targets) == 1 and isinstance(a.targets[0], ast.Name)}
    base = {name: c.bases[0].id for name, c in classes.items()
            if len(c.bases) == 1 and isinstance(c.bases[0], ast.Name)
            and c.bases[0].id in classes
            and not any(isinstance(f, ast.FunctionDef)
                        and f.name == "__init__" for f in c.body)}
    shapes = defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node.func)
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            shape = (math.inf if starred else len(node.args),
                     {k.arg for k in node.keywords})
            for callee in {name, alias.get(name)} - {None}:
                while callee in base:
                    callee = base[callee]
                shapes[callee].append(shape)
    return shapes


def _callee(f) -> str | None:
    return (f.id if isinstance(f, ast.Name) else
            f.attr if isinstance(f, ast.Attribute) else None)


def library_overrides(path: Path) -> set[int]:
    """The lines of the methods of path's module that override a method of
    a base class from outside the package."""
    module = importlib.import_module("gwadams." + path.stem)
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ClassDef):
            continue
        mro = getattr(getattr(module, node.name, None), "__mro__", ())
        library = [b for b in mro[1:] if b is not object
                   and not b.__module__.startswith("gwadams")]
        out.update(f.lineno for f in node.body
                   if isinstance(f, ast.FunctionDef)
                   and not f.name.startswith("__")
                   and any(hasattr(b, f.name) for b in library))
    return out


def never_omitted(source: str, shapes: dict, exempt=()) -> list[str]:
    out = []
    for line, name, param, pos in defaulted(source):
        if line in exempt:
            continue
        if not any(param not in kws and None not in kws
                   and (pos is None or pos >= n)
                   for n, kws in shapes.get(name, ())):
            out.append("line %d: %s(%s)" % (line, name, param))
    return out


def never_passed(source: str, calls: dict) -> list[str]:
    out = []
    for line, name, param, pos in defaulted(source):
        n, kws = calls.get(name, (0, ()))
        if not (param in kws or None in kws
                or pos is not None and pos < n):
            out.append("line %d: %s(%s)" % (line, name, param))
    return out


@pytest.fixture(scope="module")
def used():
    return set().union(*(references(p.read_text(encoding="utf-8"))
                         for p in REFERENCING))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dead_code(path, used):
    assert unreferenced(path.read_text(encoding="utf-8"), used) == []


@pytest.fixture(scope="module")
def calls():
    return passed(p.read_text(encoding="utf-8") for p in REFERENCING)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_default_is_passed(path, calls):
    assert never_passed(path.read_text(encoding="utf-8"), calls) == []


@pytest.fixture(scope="module")
def non_test_calls():
    return passed(p.read_text(encoding="utf-8") for p in SOURCES + BENCHMARK)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_default_is_passed_outside_tests(path, non_test_calls):
    assert never_passed(path.read_text(encoding="utf-8"), non_test_calls) == []


@pytest.fixture(scope="module")
def non_test_shapes():
    return call_shapes(p.read_text(encoding="utf-8")
                       for p in SOURCES + BENCHMARK)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_default_is_omitted_outside_tests(path, non_test_shapes):
    assert never_omitted(path.read_text(encoding="utf-8"), non_test_shapes,
                         library_overrides(path)) == []


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


def test_detects_unpassed_default():
    src = ("class A:\n"
           "    def __init__(self, a, b=1, c=2): pass\n"
           "    def m(self, x=0, *, y=1): pass\n"
           "    @staticmethod\n"
           "    def s(x=0): pass\n"
           "    def __eq__(self, other=None): pass\n"
           "def f(a, b=1, c=2, d=3): pass\n"
           "A(0, 1).m(y=2)\n"
           "A.s(5)\n"
           "f(1, *xs)\n")
    assert never_passed(src, passed([src])) == ["line 2: A(c)",
                                                "line 3: m(x)"]


def test_detects_unomitted_default():
    src = ("class A:\n"
           "    def __init__(self, a, b=1, c=2): pass\n"
           "    def m(self, x=0, *, y=1): pass\n"
           "class B(A):\n"
           "    pass\n"
           "def f(a, b=1, c=2): pass\n"
           "B(0).m(0)\n"
           "g = f\n"
           "g(1, 2)\n"
           "A(0, 1, c=3).m(1, y=2)\n"
           "f(1, 2, c=3)\n"
           "f(*xs)\n")
    assert never_omitted(src, call_shapes([src]), exempt={3}) == [
        "line 6: f(b)"]


def test_library_override_exempt():
    lines = library_overrides(PACKAGE / "cliparse.py")
    assert [name for line, name, _, _ in defaulted(
        (PACKAGE / "cliparse.py").read_text(encoding="utf-8"))
        if line in lines] == ["parse_known_args", "parse_known_args"]
