"""Acceptance gate: one test per shipped guarantee.

Each test asserts the full contract for its guarantee, so `pytest -v` on
this file reads as a one-line pass/fail checklist.
"""

import hashlib
import os
import subprocess
import sys
import time

import gwadams
from gwadams.borel import (
    check_borel_prop, check_omega_laws, check_ternary, omega_closed,
)
from gwadams.forms import check_section2_and_hyp
from gwadams.gwring import GWElem, check_coefficient_identities
from gwadams.lambdaring import (
    SymClass, adams, check_adams_hyperbolic, check_lambda_axioms,
    psi_tau_closed,
)
from gwadams.symfunc import check_appendix_b


def test_criterion_1_universal_polynomial_suite():
    t0 = time.monotonic()
    rep = check_appendix_b()
    elapsed = time.monotonic() - t0
    assert rep.ok
    lemmas = {e.lemma for e in rep.entries}
    assert {"RXY", "RB", "RZ", "R_P", "R_abc", "lambda_dim1",
            "product_dim1"} <= lemmas
    # arity stability is checked inside the suite; confirm coverage
    assert {e.params for e in rep.entries if e.lemma == "P_stability"} \
        >= {(n,) for n in range(1, 5)}
    assert {e.lemma for e in rep.entries} >= {"Q_stability", "R_stability"}
    assert elapsed < 60


def test_criterion_2_coefficient_ring_identities():
    rep = check_coefficient_identities()
    assert rep.ok
    lemmas = {e.lemma for e in rep.entries}
    assert {"tau_sq", "2_sigma", "product_h", "proj_h", "n_star_mult"} <= lemmas
    assert {e.params for e in rep.entries if e.lemma == "n_star_mult"} \
        >= {(m, n) for m in range(1, 7) for n in range(1, 7)}


def test_criterion_3_omega_laws():
    rep = check_omega_laws()
    assert rep.ok
    by = {}
    for e in rep.entries:
        by.setdefault(e.lemma, set()).add(e.params)
    assert by["omega_closed"] >= {(n,) for n in range(0, 11)}
    assert by["omega_psi"] >= {(m, n) for m in range(2, 6)
                               for n in range(2, 6)}
    assert by["omega_quotient"] >= {(n,) for n in range(1, 9)}
    assert "omega_loc_odd" in by and "omega_sq" in by


def test_criterion_4_adams_on_tau(to_gw):
    tau = SymClass.from_gw(GWElem.tau())
    for n in range(0, 11):
        assert to_gw(adams(n, tau)) == psi_tau_closed(n)


def test_criterion_5_lambda_axioms():
    rep = check_lambda_axioms()
    assert rep.ok
    lemmas = {e.lemma for e in rep.entries}
    assert {"L1", "L2", "psi_mult", "psi_add", "psi_comp"} <= lemmas


def test_criterion_6_ternary_laws():
    rep = check_ternary()
    assert rep.ok
    lemmas = {e.lemma for e in rep.entries}
    assert {"gw_F", "gw_F_coeff", "k_F", "k_F_coeff", "witt_F"} <= lemmas
    assert check_borel_prop().ok


def test_criterion_7_forms():
    rep = check_section2_and_hyp()
    assert rep.ok
    by = {}
    for e in rep.entries:
        by.setdefault(e.lemma, set()).add(e.params)
    assert by["lambda_n_rank_n"] >= {(m, i) for m in range(1, 4)
                                     for i in range(0, 2 * m + 1)}
    assert len(by["tens2_decomp"]) == 2 and len(by["pm_symlambda"]) == 4
    assert by["lambda_hyp_rank"] >= {(r, n, d) for r in (1, 2)
                                     for n in (1, 3, 5) for d in ("+", "-")}
    assert len(by["lambda_22"]) >= 10
    assert len(by["hilbert_product"]) >= 100


def test_criterion_8_documented_hyperbolic_mismatches():
    rep = check_adams_hyperbolic()
    assert rep.ok
    md = {e.params for e in rep.entries
          if e.status == "mismatch-documented"}
    assert md == {(2, 0), (2, 2), (4, 0), (4, 2)}
    for e in rep.entries:
        if e.lemma == "psi_h_1" and (e.params[0] % 2 or e.params[1] == 1):
            assert e.status == "pass"


def test_criterion_9_end_to_end_verify_all(runner, tmp_path):
    t0 = time.monotonic()
    first = runner("verify", "all")
    elapsed = time.monotonic() - t0
    assert first.exit_code == 0
    assert elapsed < 120
    # the JSON report is the one output that renders the lhs and rhs of
    # every passing cell
    report = tmp_path / "report.json"
    second = runner("verify", "all", "--json", str(report), "--no-timestamp")
    assert second.exit_code == 0
    assert second.output == first.output
    assert hashlib.sha256(first.output.encode()).hexdigest() == (
        "3d034ef28e340c336f47eb0f9defc3481657589e613f613abfb94c3b617c6e8b")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "a8c933cb77cfb83a7fc90e956f6fffc02c5a126cf26b56562276e20f6c6f55f4")


def _fresh_cli(*args):
    """Run the CLI in a new interpreter; return (stdout, wall seconds)."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(gwadams.__file__)))
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "gwadams.cli", *args],
                          env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, elapsed


def test_criterion_10_high_degree_cli():
    n = 64
    out, elapsed = _fresh_cli("adams", str(n), "--target", "u")
    gens = ("u",)
    u = SymClass.gen("u", gens=gens, quotient=True)
    tau = SymClass.from_gw(GWElem.tau(), gens=gens, quotient=True)
    want = (SymClass.from_gw(psi_tau_closed(n), gens=gens, quotient=True)
            + SymClass.from_gw(omega_closed(n), gens=gens, quotient=True)
            * (u - tau))
    assert out == want.text() + "\n"
    assert elapsed < 10
    out, elapsed = _fresh_cli("omega", "--table", str(n))
    assert out.splitlines() == ["%d: %s" % (k, omega_closed(k).text())
                                for k in range(n + 1)]
    assert elapsed < 10
