"""pyproject.toml declares requires-python >= 3.10, so every Python file of
the package, its tests and its benchmark must parse under the Python 3.10
grammar.  This checks the grammar only (no `except*`, no PEP 695 type
parameters, ...), not calls into a library that only a later Python has,
such as `tomllib` or `datetime.UTC` in 3.11: those parse under 3.10 and
fail only when run there."""

import ast
from pathlib import Path

import pytest

import gwadams

ROOT = Path(gwadams.__file__).parent.parent.parent
FILES = sorted(p for pattern in ("src/gwadams/*.py", "tests/*.py",
                                 "perfbench/*.py", "perfbench/site/*.py")
               for p in ROOT.glob(pattern))


def test_files_parse_as_python_3_10():
    assert len(FILES) > 20
    failed = []
    for path in FILES:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path),
                      feature_version=(3, 10))
        except SyntaxError as exc:
            failed.append("%s: %s" % (path.relative_to(ROOT), exc))
    assert failed == []


def test_detects_newer_grammar():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
