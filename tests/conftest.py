"""Fixtures shared by several test modules."""

import pytest

from gwadams.gwring import COEFF_RING, GWElem


def _to_gw(x) -> GWElem:
    if x.theory.name != "gw":
        raise ValueError("not a gw-theory class")
    if any(any(e[x.poly.ring.index(g)] for e in x.poly.terms) for g in x.gens):
        raise ValueError("element involves generators: %s" % x)
    return GWElem(x.poly.rename(COEFF_RING))


@pytest.fixture
def to_gw():
    """The GWElem of a gw-theory SymClass that involves no generator."""
    return _to_gw
