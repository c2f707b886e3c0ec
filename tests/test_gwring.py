import random

import pytest
from hypothesis import given, settings, strategies as st

from gwadams import gwring
from gwadams.borel import omega_closed, omega_recursive
from gwadams.gwring import (
    COEFF_RING, GW, KTH, WITT, GWElem, SymClass,
    check_coefficient_identities, context_ring, normalize,
)
from gwadams.lambdaring import adams, psi_tau_closed
from gwadams.polyring import GradingError, MultiPoly


def raw(terms):
    return MultiPoly.from_exps(COEFF_RING, terms)


def stack_normalize(poly: MultiPoly, square_zero: tuple = ()) -> MultiPoly:
    """Reference oracle for gwring.normalize, one rewrite step at a time.

    The rewrite system {u^2 -> 2*tau*u - tau^2 for u in square_zero,
    eps^2 -> 1, tau^2 -> 2*gamma - 2*eps*gamma, eps*tau -> -tau} terminates
    because each step lowers (total square_zero exponent, tau-exponent,
    eps-exponent) lexicographically.  Equal terms merge only at the end, so
    the stack grows exponentially in the exponents: keep them small.
    """
    ring = poly.ring
    ie, it, ig = ring.index("eps"), ring.index("tau"), ring.index("gamma")
    iu = [ring.index(u) for u in square_zero]
    out: dict = {}
    stack = list(poly.tuple_terms().items())
    while stack:
        exps, c = stack.pop()
        for i in iu:
            if exps[i] >= 2:
                e = list(exps)
                e[i] -= 1
                e[it] += 1
                stack.append((tuple(e), 2 * c))
                e[i] -= 1
                e[it] += 1
                stack.append((tuple(e), -c))
                break
        else:
            a, b = exps[ie], exps[it]
            if a >= 2:
                e = list(exps)
                e[ie] = a % 2
                stack.append((tuple(e), c))
            elif b >= 2:
                e = list(exps)
                e[it] = b - 2
                e[ig] += 1
                stack.append((tuple(e), 2 * c))
                e2 = list(e)
                e2[ie] += 1
                stack.append((tuple(e2), -2 * c))
            elif a == 1 and b == 1:
                e = list(exps)
                e[ie] = 0
                stack.append((tuple(e), -c))
            else:
                s = out.get(exps, 0) + c
                if s:
                    out[exps] = s
                elif exps in out:
                    del out[exps]
    return MultiPoly.from_exps(ring, out)


class TestNormalForm:
    def test_eps_square(self):
        assert GWElem.eps() * GWElem.eps() == 1

    def test_eps_tau(self):
        assert GWElem.eps() * GWElem.tau() == -GWElem.tau()

    def test_tau_square(self):
        want = 2 * GWElem.gamma() * GWElem.h()
        assert GWElem.tau() * GWElem.tau() == want
        assert want.text() == "-2*eps*gamma + 2*gamma"

    def test_normal_form_support(self):
        # after normalization: eps exponent <= 1, tau exponent <= 1,
        # never both positive
        x = (GWElem.eps() + GWElem.tau() + GWElem.gamma(-1)) ** 4
        for exps in x.poly.tuple_terms():
            a, b, _ = exps
            assert a <= 1 and b <= 1 and not (a and b)

    def test_confluence_random(self):
        # the rewrite result must not depend on how a word was assembled
        rng = random.Random(20240817)
        for _ in range(500):
            t1 = {tuple([rng.randrange(4), rng.randrange(4),
                         rng.randrange(-3, 4)]): rng.randrange(-9, 10)
                  for _ in range(rng.randrange(1, 5))}
            t2 = {tuple([rng.randrange(4), rng.randrange(4),
                         rng.randrange(-3, 4)]): rng.randrange(-9, 10)
                  for _ in range(rng.randrange(1, 5))}
            p, q = raw(t1), raw(t2)
            a = normalize(p * q, ())
            b = normalize(normalize(p, ()) * normalize(q, ()), ())
            c = normalize(normalize(q, ()) * normalize(p, ()), ())
            assert a == b == c
            assert normalize(p + q, ()) == normalize(
                normalize(p, ()) + normalize(q, ()), ())

    @pytest.mark.parametrize("gens", [("u",), ("u1", "u2")])
    def test_quotient_confluence_random(self, gens):
        # the same for the ring relations together with (u - tau)^2 = 0
        ring = context_ring(GW, gens)
        ie, it = ring.index("eps"), ring.index("tau")
        iu = [ring.index(g) for g in gens]
        rng = random.Random(20261018)

        def rand_poly():
            return MultiPoly.from_exps(ring, {
                tuple([rng.randrange(3), rng.randrange(3),
                       rng.randrange(-2, 3)]
                      + [rng.randrange(4) for _ in gens]): rng.randrange(-9, 10)
                for _ in range(rng.randrange(1, 4))})

        for _ in range(200):
            p, q = rand_poly(), rand_poly()
            a = normalize(p * q, gens)
            b = normalize(normalize(p, gens) * normalize(q, gens), gens)
            assert a == b
            for exps in a.tuple_terms():
                assert all(exps[i] <= 1 for i in iu + [ie, it])
                assert not (exps[ie] and exps[it])


    @pytest.mark.parametrize("gens", [(), ("u",), ("u1", "u2")])
    def test_matches_stack_oracle(self, gens):
        # normalize returns its input object exactly when that input is
        # already its own normal form
        ring = context_ring(GW, gens)
        rng = random.Random(20261019)
        kept = 0
        for _ in range(1000):
            p = MultiPoly.from_exps(ring, {
                tuple([rng.randrange(5), rng.randrange(8),
                       rng.randrange(-3, 4)]
                      + [rng.randrange(6) for _ in gens]): rng.randrange(-9, 10)
                for _ in range(rng.randrange(1, 5))})
            for square_zero in {(), gens}:
                want = stack_normalize(p, square_zero)
                for q in (p, want, MultiPoly(ring, dict(want.terms))):
                    got = normalize(q, square_zero)
                    assert got == want, (q, square_zero)
                    assert (got is q) == (q == want), (q, square_zero)
                    kept += got is q
        assert kept > 2000

    @pytest.mark.parametrize("gens, square_zero, exps", [
        ((), (), (0, 200, 0)),
        ((), (), (3, 201, -2)),
        (("u1", "u2"), ("u1", "u2"), (0, 0, 0, 50, 40)),
    ])
    def test_large_exponent_bound(self, gens, square_zero, exps):
        # one term gives at most 2^(len(square_zero) + 1) terms
        ring = context_ring(GW, gens)
        out = normalize(MultiPoly.from_exps(ring, {exps: 1}), square_zero)
        assert 0 < len(out.terms) <= 2 ** (len(square_zero) + 1)
        assert SymClass(out, GW, gens, bool(square_zero)).degree() == (
            2 * exps[1] + 4 * exps[2] + 2 * sum(exps[3:]))

    def test_large_tau_power(self):
        # tau^(2m) = 2^(2m-1) gamma^m (1 - eps), tau^(2m+1) = 4^m gamma^m tau
        tau, gamma = GWElem.tau(), GWElem.gamma()
        assert GWElem(raw({(0, 200, 0): 1})) == (
            2 ** 199 * gamma ** 100 * GWElem.h())
        assert GWElem(raw({(3, 201, -2): 1})) == (
            -(4 ** 100) * gamma ** 98 * tau)


class TestHighDegree:
    """Degrees that the one-step rewrite oracle cannot reach."""

    @pytest.mark.parametrize("n", [16, 40, 64])
    def test_adams_u_closed(self, n):
        # psi^n(u) = psi^n(tau) + omega(n)*(u - tau) in the quotient
        gens = ("u",)
        u = SymClass.gen("u", gens=gens, quotient=True)
        tau = SymClass.from_gw(GWElem.tau(), gens=gens, quotient=True)
        want = (SymClass.from_gw(psi_tau_closed(n), gens=gens, quotient=True)
                + SymClass.from_gw(omega_closed(n), gens=gens, quotient=True)
                * (u - tau))
        assert adams(n, u) == want

    def test_omega_recursive_64(self):
        assert omega_recursive(64) == omega_closed(64)


class TestConstructors:
    def test_h(self):
        assert GWElem.h().text() == "-eps + 1"

    def test_minus_one_class_square(self):
        mo = GWElem.minus_one_class()
        assert mo * mo == 1

    def test_hyperbolic_unit(self):
        assert GWElem.hyperbolic_unit(1) == GWElem.tau()
        assert GWElem.hyperbolic_unit(2) == GWElem.h() * GWElem.gamma()
        assert GWElem.hyperbolic_unit(0) == GWElem.h()
        assert GWElem.hyperbolic_unit(-1) == GWElem.tau() * GWElem.gamma(-1)

    def test_n_star(self):
        assert GWElem.n_star(3) == 3
        assert GWElem.n_star(4) == 2 * GWElem.h()
        with pytest.raises(ValueError):
            GWElem.n_star(-1)


class TestSubclass:
    def test_arithmetic_keeps_type(self):
        t = GWElem.tau()
        for x in (t + 1, 1 - t, -t, 2 * t, t * t, t ** 3, adams(0, t),
                  adams(2, t), adams(-1, t)):
            assert type(x) is GWElem
        assert type(SymClass.from_gw(t)) is SymClass


@st.composite
def class_pairs(draw):
    """(the full constructor of a context, two classes built by it): GW,
    K and Witt classes, GW also in quotient mode, in up to two
    generators, from polynomials with small exponents."""
    theory, quotient = draw(st.sampled_from(
        [(GW, False), (GW, True), (KTH, False), (WITT, False)]))
    gens = draw(st.sampled_from([(), ("u1",), ("u1", "u2")]))
    ring = context_ring(theory, gens)
    exps = st.tuples(*(st.integers(-2, 3) if laurent else st.integers(0, 3)
                       for laurent in ring.laurent))

    def full(poly):
        return SymClass(poly, theory, gens, quotient)

    x, y = (full(MultiPoly.from_exps(ring, draw(st.dictionaries(
        exps, st.integers(-4, 4), max_size=5)))) for _ in range(2))
    return full, x, y


class TestWrappedArithmetic:
    """Sums, differences and negatives wrap their polynomial without
    re-normalizing it: they equal the full constructor's class."""

    @settings(max_examples=300, deadline=None)
    @given(class_pairs(), st.integers(-3, 3))
    def test_equals_full_constructor(self, ctx, c):
        full, x, y = ctx
        for got, poly in ((x + y, x.poly + y.poly), (x - y, x.poly - y.poly),
                          (-x, -x.poly), (x + c, x.poly + c),
                          (c - x, c - x.poly), (x * y, x.poly * y.poly)):
            want = full(poly)
            assert got == want and got.poly.terms == want.poly.terms
            assert got.poly.ring == want.poly.ring and type(got) is SymClass

    def test_no_normal_form_work(self, monkeypatch):
        gens = ("u1",)
        x = SymClass.gen("u1", gens=gens, quotient=True)
        y = SymClass.from_gw(GWElem.tau(), gens=gens, quotient=True)

        def refuse(*args):
            raise AssertionError("called on a sum")

        monkeypatch.setattr(gwring, "normalize", refuse)
        monkeypatch.setattr(gwring, "context_ring", refuse)
        assert (x + y) - y == x and -(-x) == x and 2 - (x + 2) == -x


class TestGrading:
    def test_degrees(self):
        assert GWElem.eps().degree() == 0
        assert GWElem.tau().degree() == 2
        assert GWElem.gamma().degree() == 4
        assert GWElem.gamma(-2).degree() == -8
        assert (GWElem.tau() + GWElem.gamma()).degree() is None

    def test_rank(self):
        assert GWElem.h().rank() == 2
        assert GWElem.tau().rank() == 2
        assert GWElem.hyperbolic_unit(5).rank() == 2
        assert GWElem.minus_one_class().rank() == 1

    def test_rank_inhomogeneous(self):
        with pytest.raises(GradingError):
            (GWElem.tau() + 1).rank()
        # the message quotes a long class cut short, its length marked
        x = sum(GWElem.gamma(k) for k in range(1, 300))
        text = x.text()
        with pytest.raises(GradingError) as exc:
            x.rank()
        assert str(exc.value) == ("rank requires homogeneous input: %s... "
                                  "(%d characters)" % (text[:200], len(text)))

    def test_components(self):
        # the dense JSON format has one component per degree
        x = GWElem.tau() + 3 * GWElem.eps() + GWElem.gamma()
        comps = {c["deg"]: c for c in x.to_obj()["components"]}
        assert sorted(comps) == [0, 2, 4]
        assert GWElem.from_obj({"components": [comps[0]]}) == 3 * GWElem.eps()
        assert GWElem.from_obj({"components": [comps[2]]}) == GWElem.tau()


class TestJson:
    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(40):
            terms = {tuple([rng.randrange(2), rng.randrange(2),
                            rng.randrange(-3, 4)]): rng.randrange(-9, 10)
                     for _ in range(rng.randrange(1, 6))}
            x = GWElem(raw(terms))
            assert GWElem.from_json(x.to_json()) == x

    def test_shape(self):
        obj = (GWElem.tau() * GWElem.gamma(-1)).to_obj()
        assert obj == {"components": [
            {"deg": -2, "gmin": -1, "a": [0], "b": [0], "c": [1]}]}

    def test_integers_only(self):
        for comp in ({"a": [1.5]}, {"a": [True]}, {"a": [2.0]}, {"b": ["1"]},
                     {"a": [1], "gmin": 0.5}, {"c": [1], "gmin": "1"}):
            with pytest.raises(ValueError):
                GWElem.from_obj({"components": [comp]})


class TestBattery:
    def test_report_ok(self):
        rep = check_coefficient_identities()
        assert rep.ok
        lemmas = {e.lemma for e in rep.entries}
        assert {"tau_sq", "2_sigma", "product_h", "proj_h", "n_star_mult",
                "omega_loc_odd", "omega_sq"} <= lemmas
