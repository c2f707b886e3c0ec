"""Fixtures shared by several test modules."""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

import pytest

from gwadams import cli
from gwadams.gwring import COEFF_RING, GWElem


def _to_gw(x) -> GWElem:
    if x.theory.name != "gw":
        raise ValueError("not a gw-theory class")
    if any(any(e[x.poly.ring.index(g)] for e in x.poly.tuple_terms())
           for g in x.gens):
        raise ValueError("element involves generators: %s" % x)
    return GWElem(x.poly.rename(COEFF_RING))


@pytest.fixture
def to_gw():
    """The GWElem of a gw-theory SymClass that involves no generator."""
    return _to_gw


class CliResult(NamedTuple):
    exit_code: int
    output: str     # stdout and stderr, in the order written


def _invoke(*args: str, input: str = "") -> CliResult:
    out = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(input)
    try:
        with redirect_stdout(out), redirect_stderr(out):
            cli.main(list(args))
    except SystemExit as exc:
        code = exc.code
    else:
        raise AssertionError("cli.main returned without SystemExit")
    finally:
        sys.stdin = stdin
    return CliResult(0 if code is None else code, out.getvalue())


@pytest.fixture
def runner():
    """`gwadams ARGS` run in process: runner(*args, input=stdin text)."""
    return _invoke
