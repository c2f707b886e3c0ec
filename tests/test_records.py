"""The package's record classes: frozen records compare and hash by value
and a Theory equals only itself."""

import pytest

from gwadams import __version__
from gwadams.borel import (
    OmegaClass, TernaryLaw, omega, omega_recursive, ternary_laws,
)
from gwadams.forms import GWQInvariants
from gwadams.gwring import GW, GWElem, Theory
from gwadams.polyring import Ring
from gwadams.report import (
    MISMATCH, ReportEntry, Template, VerificationReport, check,
)

LAW = ternary_laws("gw")[1]

# (record, an equal record built anew, a record differing in one field,
# that field)
FROZEN = [
    (ReportEntry("l", (1, 2), "pass", "", "", ""), check("l", (1, 2), True),
     ReportEntry("l", (1, 2), "pass", "", "", "n"), "note"),
    (GWQInvariants(2, 0, -1, ((2, 1), ("inf", 1))),
     GWQInvariants(2, 0, -1, ((2, 1), ("inf", 1))),
     GWQInvariants(2, 0, -1, ((2, -1), ("inf", 1))), "hasse"),
    (TernaryLaw(2, "gw", LAW.value), TernaryLaw(2, "gw", LAW.value),
     TernaryLaw(2, "k", LAW.value), "theory"),
    (OmegaClass(2, 2 * GWElem.tau()), OmegaClass(2, GWElem.tau() * 2),
     OmegaClass(2, 4 * GWElem.tau()), "value"),
]


@pytest.mark.parametrize("rec, same, other, field", FROZEN,
                         ids=[type(r[0]).__name__ for r in FROZEN])
def test_frozen_by_value(rec, same, other, field):
    assert rec == same and hash(rec) == hash(same)
    assert rec != other
    with pytest.raises(AttributeError):
        setattr(rec, field, getattr(other, field))
    assert {rec: 1}[same] == 1


def test_defaults():
    e = check("l", (), False)
    assert (e.lhs, e.rhs, e.note) == ("", "", "")
    a, b = VerificationReport("s"), VerificationReport("s")
    a.add(e)
    assert b.entries == [] and a.entries == [e]
    assert (a.version, a.timestamp, a.elapsed_s, a.lemma_elapsed_s) == (
        __version__, None, None, None)


def test_omega_degree_check():
    """omega(n) is defined for n >= 0 only; its degree law, 2n - 2, is
    checked in test_borel."""
    with pytest.raises(ValueError):
        omega_recursive(-1)
    with pytest.raises(ValueError):
        omega(-1)


def test_theory_identity():
    twin = Theory(GW.name, GW.base, GW.weights, GW.twist, GW.det_power,
                  GW.codec, GW.maps, GW.line, GW.rank2)
    assert twin != GW and GW == GW and {GW: 1}.get(twin) is None
    t = Theory("t", (), {}, "x", 1, GW.codec, {})
    assert (t.line, t.rank2) == (None, ())
    with pytest.raises(AttributeError):
        GW.name = "k"
    with pytest.raises(AttributeError):
        del GW.maps
    assert GW.name == "gw"


def test_fail_line_text():
    # a FAIL line renders lhs and rhs through text(), then the note; a
    # mismatch shows only its note and a pass line neither
    ring = Ring([("x", False), ("y", False)])
    x, y = ring.var("x"), ring.var("y")
    rep = VerificationReport("s")
    rep.add(check("sq", (2, "a"), False, (x + y) ** 2,
                  Template("%s + %s", (x * x + y * y, 2 * x * y)),
                  note="seed 7"))
    rep.add(ReportEntry("doc", (), MISMATCH, x, y, "known"))
    rep.add(check("ok", (1,), True, x, x, note="hidden"))
    assert rep.render_text() == (
        "suite: s\n"
        "MISMATCH-DOCUMENTED doc()  [known]\n"
        "PASS                ok(1)\n"
        "FAIL                sq(2,a)  lhs=x^2 + 2*x*y + y^2 "
        "rhs=x^2 + y^2 + 2*x*y  [seed 7]\n"
        "1 pass, 1 fail, 1 mismatch-documented\n")
