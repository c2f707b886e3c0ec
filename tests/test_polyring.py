import json

import pytest
from hypothesis import given, settings, strategies as st

from gwadams.polyring import (
    ContextError, ExponentError, InvertibilityError, MultiPoly, Ring,
    SubstitutionError, TruncSeries,
)

R2 = Ring([("x", False), ("y", False)])
R6 = Ring([("x", False), ("y", False), ("z", False),
           ("a", True), ("b", True), ("c", False)])


def poly_strategy(ring, maxexp=3, maxterms=5, laurent=True):
    def build(term_list):
        terms = {}
        for exps, c in term_list:
            key = tuple(e if laur or laurent is False else abs(e)
                        for e, laur in zip(exps, ring.laurent))
            key = tuple(e if ring.laurent[i] else abs(e)
                        for i, e in enumerate(exps))
            terms[key] = terms.get(key, 0) + c
        return MultiPoly(ring, terms)

    exp = st.integers(-maxexp, maxexp)
    one_term = st.tuples(
        st.tuples(*[exp for _ in range(ring.nvars)]),
        st.integers(-9, 9))
    return st.lists(one_term, max_size=maxterms).map(build)


class TestBasics:
    def test_additive_inverse(self):
        x = R2.var("x")
        assert (x + (-x)).is_zero()

    def test_add_collect(self):
        x, y = R2.var("x"), R2.var("y")
        assert (x + y) + y == x + 2 * y

    def test_add_cancel_constant(self):
        x = R2.var("x")
        assert (x ** 2 - 1) + 1 == x ** 2

    def test_mul_difference_of_squares(self):
        x, y = R2.var("x"), R2.var("y")
        assert (x + y) * (x - y) == x ** 2 - y ** 2

    def test_laurent_unit(self):
        R = Ring([("gamma", True)])
        g = R.var("gamma")
        ginv = R.var("gamma", -1)
        assert g * ginv == R.one()

    def test_negative_exponent_rejected(self):
        with pytest.raises(ExponentError):
            R2.var("x", -1)

    def test_context_error(self):
        with pytest.raises(ContextError):
            R2.var("x") + R6.var("x")


class TestSubstitute:
    def test_laurent_substitution(self):
        R = Ring([("x", False)])
        T = Ring([("a", True)])
        x = R.var("x")
        img = (x ** 2).substitute({"x": T.var("a") + T.var("a", -1)})
        assert img == T.var("a", 2) + 2 + T.var("a", -2)

    def test_zero_binding(self):
        R = Ring([("x", False)])
        assert (1 + R.var("x")).substitute({"x": R.zero()}, R) == R.one()

    def test_nonunit_into_laurent_exponent(self):
        R = Ring([("g", True)])
        with pytest.raises(SubstitutionError):
            R.var("g", -1).substitute({"g": R.one() + R.var("g")})

    def test_unit_monomial_into_laurent_exponent(self):
        R = Ring([("g", True), ("d", True)])
        img = R.var("g", -2).substitute({"g": R.var("d", 3)})
        assert img == R.var("d", -6)


class TestSeries:
    def test_geometric_inverse(self):
        R = Ring([("x", False)])
        f = TruncSeries(R, 2, [R.one(), R.var("x")])
        x = R.var("x")
        assert f.inverse().coeffs == (R.one(), -x, x * x)

    def test_mul_by_inverse_is_one(self):
        R = Ring([("x", False)])
        f = TruncSeries(R, 5, [R.one(), R.var("x")])
        assert f * f.inverse() == TruncSeries.one(R, 5)

    def test_rank_two_square_t2_coefficient(self):
        R = Ring([("tau", False), ("gamma", True)])
        tau, gamma = R.var("tau"), R.var("gamma")
        f = TruncSeries(R, 2, [R.one(), tau, gamma])
        assert (f * f)[2] == tau * tau + 2 * gamma

    def test_binomial_product(self):
        f = TruncSeries(R2, 2, [R2.one(), R2.var("x")])
        g = TruncSeries(R2, 2, [R2.one(), R2.var("y")])
        h = f * g
        assert h[1] == R2.var("x") + R2.var("y")
        assert h[2] == R2.var("x") * R2.var("y")

    def test_inverse_requires_unit_constant(self):
        with pytest.raises(InvertibilityError):
            TruncSeries(R2, 3, [R2.const(2)]).inverse()


class TestGradedDegree:
    W = {"tau": 2, "gamma": 4}

    def test_degree_zero(self):
        R = Ring([("tau", False), ("gamma", True)])
        p = R.var("tau") ** 2 * R.var("gamma", -1)
        assert p.graded_degree(self.W) == 0

    def test_borel_style_degree(self):
        R = Ring([("u1", False), ("u2", False), ("u3", False), ("gamma", True)])
        p = R.var("u1") * R.var("u2") * R.var("u3") * R.var("gamma", -1)
        assert p.graded_degree({"u1": 2, "u2": 2, "u3": 2, "gamma": 4}) == 2

    def test_inhomogeneous(self):
        R = Ring([("tau", False), ("gamma", True)])
        assert (1 + R.var("tau")).graded_degree(self.W) is None


class TestJson:
    def test_round_trip(self):
        p = R6.var("x") * 3 - R6.var("a", -2) * R6.var("y")
        q = MultiPoly.from_json(p.to_json())
        assert q == p

    def test_schema_shape(self):
        p = R2.var("x") * 2
        obj = json.loads(p.to_json())
        assert obj["vars"] == [{"name": "x", "laurent": False},
                               {"name": "y", "laurent": False}]
        assert obj["terms"] == [{"coeff": "2", "exps": [1, 0]}]

    def test_deterministic_bytes(self):
        p = R6.var("x") + R6.var("y") ** 2 - 5
        assert p.to_json() == MultiPoly.from_json(p.to_json()).to_json()

    def test_integers_only(self):
        def doc(coeff, exps=(1,)):
            return {"vars": [{"name": "x", "laurent": True}],
                    "terms": [{"coeff": coeff, "exps": list(exps)}]}
        x = Ring([("x", True)]).var("x")
        assert MultiPoly.from_obj(doc(-3)) == -3 * x
        assert MultiPoly.from_obj(doc("-3")) == -3 * x
        for bad in (doc(2.7), doc(True), doc("2.7"), doc(" 3"), doc("3_0"),
                    doc(None), doc(2, [1.0]), doc(2, [True]), doc(2, ["1"])):
            with pytest.raises(ValueError):
                MultiPoly.from_obj(bad)

    def test_laurent_flag_boolean_only(self):
        def doc(laurent):
            return {"vars": [{"name": "x", "laurent": laurent}],
                    "terms": [{"coeff": "1", "exps": [-1]}]}
        assert MultiPoly.from_obj(doc(True)).ring.laurent == (True,)
        for bad in ("false", "true", 0, 1, None):
            with pytest.raises(ValueError):
                MultiPoly.from_obj(doc(bad))


class TestRendering:
    def test_text(self):
        p = 2 * R2.var("x") ** 2 * R2.var("y") - R2.var("y") + 1
        assert p.text() == "2*x^2*y - y + 1"

    def test_latex_symbols(self):
        R = Ring([("eps", False), ("gamma", True), ("u1", False)])
        p = -2 * R.var("eps") * R.var("gamma") + R.var("u1") ** 2
        assert p.latex() == "-2\\epsilon\\gamma + u_{1}^{2}"


@settings(max_examples=350, deadline=None)
@given(poly_strategy(R6), poly_strategy(R6), poly_strategy(R6))
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=200, deadline=None)
@given(poly_strategy(R2, maxexp=2, maxterms=4), poly_strategy(R2, maxexp=2, maxterms=4))
def test_substitute_is_ring_hom(p, q):
    T = Ring([("s", False)])
    bind = {"x": T.var("s") + 1, "y": T.var("s") ** 2 - 2}
    assert (p * q).substitute(bind) == p.substitute(bind) * q.substitute(bind)
    assert (p + q).substitute(bind) == p.substitute(bind) + q.substitute(bind)


@settings(max_examples=60, deadline=None)
@given(poly_strategy(R2, maxexp=2, maxterms=3), poly_strategy(R2, maxexp=2, maxterms=3))
def test_series_group_structure(p, q):
    N = 12
    f = TruncSeries(R2, N, [R2.one(), p, q])
    g = TruncSeries(R2, N, [R2.one(), q * q, p])
    one = TruncSeries.one(R2, N)
    assert f * g == g * f
    assert f * one == f
    assert f * f.inverse() == one
    assert (f * g).inverse() == g.inverse() * f.inverse()


@settings(max_examples=200, deadline=None)
@given(poly_strategy(R6))
def test_canonical_idempotence(p):
    assert MultiPoly(p.ring, dict(p.terms)) == p
    assert all(c != 0 for c in p.terms.values())
