import pytest

from gwadams.borel import (
    OmegaClass, TernaryLaw, borel_sum_classes, borel_triple_classes,
    _TRIPLE_GENS, _triple_ring, _triple_via_R, check_borel_prop,
    check_omega_laws, check_ternary, expected_laws, omega, omega_closed,
    omega_recursive, ternary_laws, triple_product_closed,
)
from gwadams.gwring import GW, GWElem, SymClass, context_ring
from gwadams.lambdaring import lambda_op
from gwadams.polyring import GradingError


def lambda_triple_product(i: int, cross_check: bool = True) -> SymClass:
    """lambda^i(u1*u2*u3) from the engine; for i <= 4 the universal
    triple-product polynomial route must agree."""
    if i < 0:
        raise ValueError("i must be >= 0")
    ring = _triple_ring()
    x = SymClass(ring.var("u1") * ring.var("u2") * ring.var("u3"),
                 GW, _TRIPLE_GENS)
    out = lambda_op(i, x)
    if cross_check and 1 <= i <= 4 and out != _triple_via_R(i):
        raise ValueError("triple-product routes disagree at i=%d" % i)
    return out


class TestOmega:
    def test_seed_values(self):
        assert omega(0).value.is_zero()
        assert omega(1).value == 1
        assert omega(2).value == 2 * GWElem.tau()
        assert omega(3).value.text() == "-6*eps*gamma + 3*gamma"
        assert omega(4).value.text() == "8*tau*gamma"

    def test_methods_agree(self):
        for n in range(0, 11):
            assert omega_recursive(n) == omega_closed(n)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            omega(-1)

    def test_degree_invariant(self):
        assert omega(5).value.degree() == 8
        with pytest.raises(GradingError):
            OmegaClass(3, GWElem.tau())

    def test_closed_odd_shape(self):
        # n=5: 5*(2h + <-1>^2)*gamma^2 = (15 - 10 eps) gamma^2
        want = (15 - 10 * GWElem.eps()) * GWElem.gamma(2)
        assert omega_closed(5) == want == omega_recursive(5)

    def test_battery(self):
        rep = check_omega_laws()
        assert rep.ok
        lemmas = {e.lemma for e in rep.entries}
        assert {"omega_closed", "omega_psi", "omega_quotient",
                "omega_loc_odd", "omega_sq"} <= lemmas
        assert len(rep.entries) >= 14


class TestBorelSum:
    def test_k4_i1(self):
        got = borel_sum_classes(4, 1)
        ring = got.poly.ring
        want = sum((ring.var("e%d" % j) for j in range(1, 5)),
                   -4 * ring.var("tau"))
        assert got == SymClass(want, GW, got.gens)

    def test_k1_i1(self):
        got = borel_sum_classes(1, 1)
        ring = got.poly.ring
        assert got == SymClass(ring.var("e1") - ring.var("tau"), GW, ("e1",))

    def test_tau_square_reduced(self):
        # no tau^2 may survive normalization
        got = borel_sum_classes(4, 2)
        it = got.poly.ring.index("tau")
        assert all(e[it] <= 1 for e in got.poly.tuple_terms())

    def test_bounds(self):
        with pytest.raises(ValueError):
            borel_sum_classes(3, 4)
        with pytest.raises(ValueError):
            borel_sum_classes(3, 0)

    def test_battery(self):
        rep = check_borel_prop()
        assert rep.ok
        lemmas = {e.lemma for e in rep.entries}
        assert {"preliminary", "symmetric", "borel", "borel_engine",
                "explicit3fold", "triple_R", "triple_graded"} <= lemmas


class TestTripleProduct:
    def test_i1(self):
        got = lambda_triple_product(1)
        ring = got.poly.ring
        want = ring.var("u1") * ring.var("u2") * ring.var("u3")
        assert got == SymClass(want, GW, got.gens)

    def test_matches_graded_closed(self):
        for i in (2, 5, 6):
            assert lambda_triple_product(i) == triple_product_closed(i)

    def test_vanishes_above_dimension(self):
        assert lambda_triple_product(9, cross_check=False).is_zero()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lambda_triple_product(-1)


class TestTernary:
    def test_k_f1_text(self):
        law = ternary_laws("k")[0]
        assert law.text() == ("4*sigma(v1) + 2*beta^-2*sigma(v1*v2) "
                              "+ beta^-4*v1*v2*v3")

    def test_gw_matches_expected(self):
        want = expected_laws("gw")
        for law in ternary_laws("gw"):
            assert law.value == want[law.index].value

    def test_witt_f1(self):
        assert ternary_laws("witt")[0].text() == "gamma^-1*v1*v2*v3"

    def test_unknown_theory(self):
        with pytest.raises(ValueError):
            ternary_laws("ko")

    def test_b1_before_substitution(self):
        b = borel_triple_classes()[1]
        ring = b.poly.ring
        want = (ring.var("gamma", -1) * ring.var("u1") * ring.var("u2")
                * ring.var("u3") - 4 * ring.var("tau"))
        assert b == SymClass(want, GW, ("u1", "u2", "u3"))

    def test_orbit_decomposition_rejects_asymmetric(self):
        ring = context_ring(GW, ("v1", "v2", "v3"))
        bad = TernaryLaw(1, "gw",
                         SymClass(ring.var("v1"), GW, ("v1", "v2", "v3")))
        with pytest.raises(ValueError):
            bad.orbit_decomposition()

    def test_latex(self):
        law = ternary_laws("gw")[0]
        s = law.latex()
        assert r"\sigma(v_{1}v_{2})" in s and r"\gamma^{-1}" in s

    def test_battery(self):
        rep = check_ternary()
        assert rep.ok
        lemmas = {e.lemma for e in rep.entries}
        assert {"b_intermediate", "gw_F", "gw_F_coeff", "k_F", "k_F_coeff",
                "witt_F", "F_symmetric", "F_degree", "rank_compat"} <= lemmas
