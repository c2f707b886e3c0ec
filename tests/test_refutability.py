"""Each `verify` lemma in the table must fail under a planted fault in the
route it checks.  A row names the lemma, the suite that reports it and a
fault, planted into the program through pytest's monkeypatch for one run
of that suite.  The fault must turn at least one of the lemma's cells into
`fail`, while the unplanted run has none."""

import hashlib
import sys
from itertools import chain, count
from math import isqrt

import pytest

from gwadams import borel, forms, lambdaring, polyring, symfunc
from gwadams.gwring import (
    GW, SymClass, check_coefficient_identities, context_ring,
)
from gwadams.lambdaring import check_lambda_axioms


def clear_caches():
    """Empty every functools.cache of the package's modules."""
    for name, module in list(sys.modules.items()):
        if name == "gwadams" or name.startswith("gwadams."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts and ends with empty caches: a warm cache could hide
    a plant, and values cached under a plant (the psi images, omega(n),
    the universal polynomials) must not outlive it."""
    clear_caches()
    yield
    clear_caches()


def flip_hasse_at(place):
    """The per-place Hasse evaluation with the symbol at place negated.

    hilbert_product checks exactly the product of every place's symbol,
    so it refutes this fault only as long as no place's symbol is derived
    from reciprocity or from the other places."""
    hasse = forms._hasse

    def fault(v, diag):
        s = hasse(v, diag)
        return -s if v == place else s
    return lambda mp: mp.setattr(forms, "_hasse", fault)


def rank_eps_plus_one(mp):
    """The rank map with eps read as +1 instead of -1."""
    mp.setitem(GW.maps["rank"], "eps", (1, {}))


def forget_tau_halved(mp):
    """The map GW -> K with tau sent to beta^2 instead of 2*beta^2."""
    mp.setitem(GW.maps["k"], "tau", (1, {"beta": 2}))


def short_odd_power(mp):
    """Every power of odd n >= 3 one product short: base ** (n - 1)."""
    power = polyring._power

    def fault(base, n, one):
        return power(base, n - 1 if n >= 3 and n % 2 else n, one)
    mp.setattr(polyring, "_power", fault)


def wheel_without_6k_plus_1(mp):
    """Trial division on 2, 3 and the 6k - 1 candidates only: a number whose
    smallest prime factors are 7, 13, 19, ... can read as a prime.

    hilbert_product cannot catch it: its entries lie in -20..20, so trial
    division never reaches a 6k + 1 candidate there."""
    odd_primes = forms._odd_primes

    def fault(n):
        out = []
        for d in chain((2, 3), count(5, 6)):
            if d > min(isqrt(n), forms.TRIAL_DIVISION_MAX):
                break
            e = 0
            while not n % d:
                n //= d
                e += 1
            if e % 2:
                out.append(d)
        if d * d > n:
            return out + [n] if n > 1 else out
        return out + odd_primes(n)
    mp.setattr(forms, "_odd_primes", fault)


def psi_gen_power(mp):
    """psi^k(u) := u^k on each generator u, in place of the power sum p_k
    of its roots; the images of the base variables stay right."""
    image = lambdaring._adams_image

    def fault(k, theory, gens, quotient, name):
        if name not in gens:
            return image(k, theory, gens, quotient, name)
        ring = context_ring(theory, gens)
        return SymClass(ring.var(name, k), theory, gens, quotient).poly
    mp.setattr(lambdaring, "_adams_image", fault)


def waring_p3_off(mp):
    """p_3 = y^3 - 2*y*det instead of y^3 - 3*y*det.  The psi^3 image of
    every rank-2 variable and the lambda-series folds read it; the psi
    images are cached, so the row also checks that they are built from
    _waring."""
    waring = lambdaring._waring

    def fault(ring, name, theory, k):
        p = waring(ring, name, theory, k)
        if k == 3:
            p = p + ring.var(name) * ring.var(theory.twist, theory.det_power)
        return p
    mp.setattr(lambdaring, "_waring", fault)


def q22_coefficient_off(mp):
    """Newton's Q_{2,2} = X1*X3 - X4 with the coefficient of X4 raised by
    one, to 0.  RZ and lambda_dim1 cannot catch it: they read Q at X4 = 0."""
    newton_Q = symfunc._newton_Q

    def fault(i, j):
        q = newton_Q(i, j)
        return q + q.ring.var("X4") if (i, j) == (2, 2) else q
    mp.setattr(symfunc, "_newton_Q", fault)


FAULTS = [
    # (lemma, suite, fault, plant: monkeypatch -> None)
    ("hilbert_product", forms.check_section2_and_hyp,
     "Hasse symbol at 2 negated", flip_hasse_at(2)),
    ("hilbert_product", forms.check_section2_and_hyp,
     "Hasse symbol at 3 negated", flip_hasse_at(3)),
    ("hilbert_product", forms.check_section2_and_hyp,
     "Hasse symbol at inf negated", flip_hasse_at("inf")),
    ("psi_rank", check_lambda_axioms, "rank reads eps as +1 (psi_rank)",
     rank_eps_plus_one),
    ("proj_h", check_coefficient_identities,
     "rank reads eps as +1 (proj_h)", rank_eps_plus_one),
    ("rank_compat", borel.check_ternary,
     "rank reads eps as +1 (rank_compat)", rank_eps_plus_one),
    ("k_F", borel.check_ternary, "GW -> K sends tau to beta^2 (k_F)",
     forget_tau_halved),
    ("omega_loc_odd", check_coefficient_identities,
     "odd powers one product short (omega_loc_odd)", short_odd_power),
    ("lambda_22", forms.check_section2_and_hyp,
     "trial division skips 6k + 1 (lambda_22)", wheel_without_6k_plus_1),
    ("lambda_22_n4", forms.check_section2_and_hyp,
     "trial division skips 6k + 1 (lambda_22_n4)", wheel_without_6k_plus_1),
    ("RB", symfunc.check_appendix_b, "odd powers one product short (RB)",
     short_odd_power),
    ("psi_comp", check_lambda_axioms, "p_3 = y^3 - 2y*det (psi_comp)",
     waring_p3_off),
    ("psi_rank", check_lambda_axioms, "psi^k(u) = u^k (psi_rank)",
     psi_gen_power),
    ("omega_quotient", borel.check_omega_laws,
     "psi^k(u) = u^k (omega_quotient)", psi_gen_power),
    ("Q_stability", symfunc.check_appendix_b,
     "Q_{2,2} coefficient of X4 off by one (Q_stability)",
     q22_coefficient_off),
]


def failed_cells(suite, lemma) -> int:
    return sum(e.lemma == lemma and e.status == "fail"
               for e in suite().entries)


@pytest.mark.parametrize("lemma, suite", list(dict.fromkeys(
    (lemma, suite) for lemma, suite, _, _ in FAULTS)))
def test_lemma_passes_unplanted(lemma, suite):
    cells = [e for e in suite().entries if e.lemma == lemma]
    assert cells and all(e.status == "pass" for e in cells)


@pytest.mark.parametrize("lemma, suite, fault, plant", FAULTS,
                         ids=[fault for _, _, fault, _ in FAULTS])
def test_fault_fails_lemma(lemma, suite, fault, plant, monkeypatch):
    plant(monkeypatch)
    assert failed_cells(suite, lemma) > 0


def test_plant_then_verify_all(runner):
    """A planted run fills the caches under its fault.  Once the plant is
    undone and the caches are cleared, as between any two tests here,
    `verify all` in the same process prints its pinned output."""
    with pytest.MonkeyPatch.context() as mp:
        short_odd_power(mp)
        assert failed_cells(check_coefficient_identities, "omega_loc_odd") > 0
    clear_caches()
    out = runner("verify", "all")
    assert out.exit_code == 0
    assert hashlib.sha256(out.output.encode()).hexdigest() == (
        "3d034ef28e340c336f47eb0f9defc3481657589e613f613abfb94c3b617c6e8b")
