"""Every name a module of the package imports is used in that module, a
cold CLI call imports the rational-number modules only for rational input
or output, and argparse only for help and errors."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gwadams

SOURCES = sorted(Path(gwadams.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return ["line %d: %s" % (line, name) for name, line in sorted(bound.items())
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_import():
    src = "import os\nfrom json import dumps, loads\nprint(loads)\n"
    assert unused_imports(src) == ["line 2: dumps", "line 1: os"]


# -- what a cold CLI call loads ----------------------------------------------

RATIONALS = ("fractions", "decimal", "numbers")
SRC = str(Path(gwadams.__file__).parent.parent)


def loaded_after(code: str, modules=RATIONALS) -> list[str]:
    """The modules of modules loaded after running code in a fresh
    interpreter, its output and the CLI's exit caught."""
    probe = ("import io, sys\nfrom contextlib import redirect_stdout\n"
             "try:\n    with redirect_stdout(io.StringIO()):\n%s\n"
             "except SystemExit:\n    pass\n"
             "print(' '.join(m for m in %r if m in sys.modules))"
             % ("\n".join(" " * 8 + line for line in code.splitlines()),
                modules))
    proc = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("code", [
    "import gwadams.cli",
    "from gwadams.cli import main\nmain(['adams', '3'])",
    "from gwadams.cli import main\nmain(['verify', 'omega'])",
    "from gwadams.cli import main\nmain(['verify', 'all'])",
])
def test_no_rationals_without_rational_input(code):
    # fractions, and decimal and numbers with it, load only where a
    # Fraction is made
    assert loaded_after(code) == []


def test_rational_form_entries(tmp_path):
    path = tmp_path / "f.json"
    path.write_text('{"sym":"symmetric","matrix":[["3/4"]]}')
    code = "from gwadams.cli import main\nmain(['form', 'invariants', %r])" \
        % str(path)
    assert loaded_after(code) == list(RATIONALS)
    proc = subprocess.run(
        [sys.executable, "-m", "gwadams.cli", "form", "invariants",
         str(path)], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (
        0, '{"disc":3,"hasse":{"2":1,"3":1,"inf":1},"rank":1,'
           '"signature":1}\n')


PARSERS = ("argparse", "gettext", "locale")


def test_argparse_only_for_help_and_errors():
    # a well-formed call is read straight from the command table
    fast = ("import gwadams.cli\nfrom gwadams.cli import main\n"
            "main(['adams', '3', '--target', 'tau', '--format', 'json'])")
    assert loaded_after(fast, PARSERS) == []
    assert "argparse" in loaded_after(
        "from gwadams.cli import main\nmain(['adams', '-h'])", PARSERS)
    assert "argparse" in loaded_after(
        "from gwadams.cli import main\nmain(['adams', 'x'])", PARSERS)
