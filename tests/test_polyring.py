import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from gwadams import gwring
from gwadams.polyring import (
    ContextError, ExponentError, InvertibilityError, MultiPoly, Ring, RingMap,
    SubstitutionError, TruncSeries,
)
from test_refutability import clear_caches

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
        return MultiPoly.from_exps(ring, terms)

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

    def test_one_ring_per_list(self):
        """Ring(variables) is the one ring of its normalized list, however
        it is reached: by the constructor, a document or a context, also
        after every functools.cache of the package is cleared."""
        assert Ring([("x", 1)]) is Ring([("x", True)])
        doc = gwring.COEFF_RING.var("gamma", -1).to_json()
        assert MultiPoly.from_json(doc).ring is gwring.COEFF_RING
        clear_caches()
        assert gwring.context_ring(gwring.GW, ()) is gwring.COEFF_RING
        for _ in range(2):      # a bad list is refused, never stored
            with pytest.raises(ContextError, match="duplicate"):
                Ring([("x", False), ("x", True)])


class TestSubstitute:
    def test_laurent_substitution(self):
        R = Ring([("x", False)])
        T = Ring([("a", True)])
        x = R.var("x")
        img = (x ** 2).substitute({"x": T.var("a") + T.var("a", -1)}, T)
        assert img == T.var("a", 2) + 2 + T.var("a", -2)

    def test_zero_binding(self):
        R = Ring([("x", False)])
        assert (1 + R.var("x")).substitute({"x": R.zero()}, R) == R.one()

    def test_nonunit_into_laurent_exponent(self):
        R = Ring([("g", True)])
        with pytest.raises(SubstitutionError):
            R.var("g", -1).substitute({"g": R.one() + R.var("g")}, R)

    def test_unit_monomial_into_laurent_exponent(self):
        R = Ring([("g", True), ("d", True)])
        img = R.var("g", -2).substitute({"g": R.var("d", 3)}, R)
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
    W = (2, 4)      # tau, gamma

    def test_degree_zero(self):
        R = Ring([("tau", False), ("gamma", True)])
        p = R.var("tau") ** 2 * R.var("gamma", -1)
        assert p.graded_degree(self.W) == 0

    def test_borel_style_degree(self):
        R = Ring([("u1", False), ("u2", False), ("u3", False), ("gamma", True)])
        p = R.var("u1") * R.var("u2") * R.var("u3") * R.var("gamma", -1)
        assert p.graded_degree((2, 2, 2, 4)) == 2

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

    @pytest.mark.parametrize("doc", ["[]", "1", '"x"', "null"])
    def test_non_object_document(self, doc):
        with pytest.raises(ValueError,
                           match="a polynomial document must be a JSON object"):
            MultiPoly.from_json(doc)

    def test_one_ring_per_variable_list(self):
        doc = (R6.var("x") * 3 - R6.var("a", -2) * R6.var("y")).to_json()
        assert MultiPoly.from_json(doc).ring is MultiPoly.from_json(doc).ring

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
    assert (p * q).substitute(bind, T) == (p.substitute(bind, T)
                                          * q.substitute(bind, T))
    assert (p + q).substitute(bind, T) == (p.substitute(bind, T)
                                          + q.substitute(bind, T))


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


# ---------------------------------------------------------------------------
# the multiply-accumulate kernel against a schoolbook oracle

RL = Ring([("x", False), ("g", True), ("y", False), ("h", True)])
R1 = Ring([("x", False), ("g", True)])


def schoolbook_mul(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Reference product: list every pair of terms, merge once at the end,
    and let the validating constructor drop the zero sums."""
    pairs = [(tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
             for e1, c1 in p.tuple_terms().items()
             for e2, c2 in q.tuple_terms().items()]
    out: dict = {}
    for e, c in pairs:
        out[e] = out.get(e, 0) + c
    return MultiPoly.from_exps(p.ring, out)


def schoolbook_sum(ring: Ring, polys) -> MultiPoly:
    out: dict = {}
    for p in polys:
        for e, c in p.tuple_terms().items():
            out[e] = out.get(e, 0) + c
    return MultiPoly.from_exps(ring, out)


def random_poly(rng, ring=RL, maxterms=5, maxexp=2, coeff=3):
    terms: dict = {}
    for _ in range(rng.randint(0, maxterms)):
        e = tuple(rng.randint(-maxexp if laur else 0, maxexp)
                  for laur in ring.laurent)
        terms[e] = terms.get(e, 0) + rng.randint(-coeff, coeff)
    return MultiPoly.from_exps(ring, terms)


def assert_clean(p: MultiPoly):
    assert all(p.terms.values())
    for e in p.tuple_terms():
        assert all(k >= 0 for k, laur in zip(e, p.ring.laurent) if not laur)


class TestKernel:
    def test_mul(self):
        rng = random.Random(7)
        cancelled = 0
        for i in range(3000):
            # a small ring, where terms collide and cancel often
            ring, coeff = (RL, 3) if i % 2 else (R1, 1)
            p, q = (random_poly(rng, ring, coeff=coeff),
                    random_poly(rng, ring, coeff=coeff))
            got = p * q
            assert_clean(got)
            assert got == schoolbook_mul(p, q)
            sums = {tuple(x + y for x, y in zip(e1, e2))
                    for e1 in p.tuple_terms() for e2 in q.tuple_terms()}
            cancelled += len(got.terms) < len(sums)
        assert cancelled > 20       # some products lose terms to cancellation

    def test_accumulation_cancels_to_zero(self):
        rng = random.Random(8)
        T = Ring([("s", False), ("d", True)])
        x, y = RL.var("x"), RL.var("y")
        for _ in range(300):
            q = random_poly(rng)
            b = random_poly(rng, T)
            bind = {"x": b, "y": b, "g": T.var("d"), "h": T.var("d", -1)}
            got = (x * q - y * q).substitute(bind, T)
            assert got.terms == {}
            f = TruncSeries(RL, 2, [q, x * q])
            g = TruncSeries(RL, 2, [q, -x * q])
            assert (f * g)[1].terms == {}

    def test_series_mul_and_inverse(self):
        rng = random.Random(9)
        for _ in range(600):
            n = rng.randint(0, 4)
            a = [random_poly(rng, maxterms=3) for _ in range(n + 1)]
            b = [random_poly(rng, maxterms=3) for _ in range(n + 1)]
            got = TruncSeries(RL, n, a) * TruncSeries(RL, n, b)
            for k in range(n + 1):
                want = schoolbook_sum(RL, (schoolbook_mul(a[i], b[k - i])
                                           for i in range(k + 1)))
                assert_clean(got[k])
                assert got[k] == want
            f = TruncSeries(RL, n, [RL.one()] + a[1:])
            inv = f.inverse()
            want = [RL.one()]
            for k in range(1, n + 1):
                want.append(-schoolbook_sum(RL, (
                    schoolbook_mul(f[i], want[k - i]) for i in range(1, k + 1))))
            for k in range(n + 1):
                assert_clean(inv[k])
            assert list(inv.coeffs) == want

    def test_series_coefficient_cancels(self):
        a = RL.var("x") * RL.var("g", -1) + RL.var("h")
        f = TruncSeries(RL, 3, [RL.one(), a])
        g = TruncSeries(RL, 3, [RL.one(), -a])
        prod = f * g
        assert prod[1].terms == {} and prod[3].terms == {}
        assert prod[2] == -(a * a)

    def test_substitute(self):
        rng = random.Random(10)
        T = Ring([("s", False), ("d", True)])
        for _ in range(600):
            p = random_poly(rng, maxterms=4)
            bind = {"x": random_poly(rng, T, maxterms=3),
                    "y": random_poly(rng, T, maxterms=3),
                    # Laurent bindings: unit monomials
                    "g": rng.choice((1, -1)) * T.var("d", rng.randint(-2, 2)),
                    "h": rng.choice((1, -1)) * T.var("d", rng.randint(-2, 2))}
            got = p.substitute(bind, T)
            pieces = []
            for exps, c in p.tuple_terms().items():
                piece = T.const(c)
                for name, k in zip(RL.names, exps):
                    v = bind[name]
                    if k < 0:
                        (e, u), = v.tuple_terms().items()
                        v = MultiPoly.from_exps(T, {tuple(-x for x in e): u})
                    for _ in range(abs(k)):
                        piece = schoolbook_mul(piece, v)
                pieces.append(piece)
            assert_clean(got)
            assert got == schoolbook_sum(T, pieces)


class TestValidationRoutes:
    """The public constructors keep validating their terms."""

    def test_constructor(self):
        assert MultiPoly.from_exps(R2, {(1, 0): 0}).terms == {}
        with pytest.raises(ExponentError):
            MultiPoly.from_exps(R2, {(-1, 0): 1})

    def test_from_obj(self):
        doc = {"vars": [{"name": "x", "laurent": False}],
               "terms": [{"coeff": "1", "exps": [-1]}]}
        with pytest.raises(ExponentError):
            MultiPoly.from_obj(doc)
        doc["terms"] = [{"coeff": "2", "exps": [1]}, {"coeff": "-2", "exps": [1]}]
        assert MultiPoly.from_obj(doc).terms == {}

    def test_ring_constructors(self):
        with pytest.raises(ExponentError):
            R2.var("y", -2)
        with pytest.raises(ExponentError):
            R2.monomial(3, {"x": 1, "y": -1})
        assert R2.monomial(0, {"x": 1}).terms == {}
        assert R2.const(0).terms == {}

    def test_negative_exponents_of_both_kinds(self):
        # a term with a negative exponent has its Laurent flags checked, and
        # the first negative exponent on a non-Laurent variable is named
        R = Ring([("g", True), ("x", False), ("y", False)])
        for exps in ((-2, 1, -3), (-5, 0, -3)):
            with pytest.raises(ExponentError) as ei:
                MultiPoly.from_exps(R, {exps: 1})
            assert str(ei.value) == ("negative exponent -3 on non-Laurent "
                                     "variable in Ring(g^±, x, y)")
        assert (MultiPoly.from_exps(R, {(-2, 1, 0): 4}).tuple_terms()
                == {(-2, 1, 0): 4})

    def test_rename_to_non_laurent_target(self):
        src = Ring([("x", True)])
        with pytest.raises(ExponentError):
            src.var("x", -1).rename(Ring([("x", False)]))

    def test_rename_onto_one_name_adds(self):
        # two variables renamed onto one: their terms meet and add
        src = Ring([("x", False), ("y", False)])
        T = Ring([("x", False)])
        p = src.var("x") + src.var("y") - src.var("x") * src.var("y")
        assert p.rename(T, {"y": "x"}) == 2 * T.var("x") - T.var("x", 2)

    def test_substitute_passthrough(self):
        src = Ring([("x", True), ("y", False)])
        T = Ring([("x", False), ("s", False)])
        with pytest.raises(ExponentError):
            (src.var("x", -1) * src.var("y")).substitute({"y": T.var("s")}, T)

    def test_substitute_unit_inverse(self):
        src = Ring([("g", True)])
        T = Ring([("s", False)])
        with pytest.raises(SubstitutionError):
            src.var("g", -1).substitute({"g": 2 * T.var("s")}, T)
        with pytest.raises(ExponentError):
            src.var("g", -1).substitute({"g": T.var("s")}, T)


# ---------------------------------------------------------------------------
# the evaluation-homomorphism kernel against the term-by-term substitution


def _unit_monomial_inverse(v: MultiPoly) -> MultiPoly:
    if len(v.terms) != 1:
        raise SubstitutionError("need a unit monomial, got %s" % v)
    (exps, c), = v.tuple_terms().items()
    if c not in (1, -1):
        raise SubstitutionError("unit monomial must have coefficient ±1")
    inv = tuple(-e for e in exps)
    return MultiPoly.from_exps(v.ring, {inv: c})


def termwise_substitute(p: MultiPoly, bindings, target) -> MultiPoly:
    """Reference substitution: each term is the product of its coefficient,
    its passthrough monomial and the powers of its bindings, multiplied out
    one MultiPoly product at a time."""
    bound: dict[int, MultiPoly] = {}
    passthrough: dict[int, int] = {}
    for i, name in enumerate(p.ring.names):
        if name in bindings:
            v = bindings[name]
            if v.ring != target:
                raise ContextError("binding for %r not in target ring" % name)
            bound[i] = v
        else:
            passthrough[i] = target.index(name)

    powcache: dict[tuple[int, int], MultiPoly] = {}

    def power(i: int, k: int) -> MultiPoly:
        key = (i, k)
        got = powcache.get(key)
        if got is not None:
            return got
        v = bound[i]
        if k >= 0:
            r = v ** k
        else:
            r = _unit_monomial_inverse(v) ** (-k)
        powcache[key] = r
        return r

    one = target.one()
    out = target.zero()
    for exps, c in p.tuple_terms().items():
        te = [0] * target.nvars
        for i, j in passthrough.items():
            te[j] += exps[i]
        piece, last = MultiPoly.from_exps(target, {tuple(te): c}), one
        for i in bound:
            k = exps[i]
            if k:
                piece, last = piece * last, power(i, k)
        out = out + piece * last
    return out


def outcome(f, *args):
    """f(*args), or the type of the substitution error it raised."""
    try:
        return f(*args)
    except (ContextError, ExponentError, SubstitutionError) as exc:
        return type(exc)


# g, h, k are Laurent in the source; unbound, g lands on a non-Laurent
# variable of SUB_T, and y, z are absent from SUB_T
SUB_S = Ring([("x", False), ("g", True), ("y", False), ("h", True),
              ("z", False), ("k", True)])
SUB_T = Ring([("x", False), ("g", False), ("h", True), ("s", False),
              ("d", True), ("k", True)])


def random_binding(rng, ring, name):
    """A binding of one of the shapes the kernel tells apart, or None to
    leave the variable unbound (passed through by name)."""
    kind = rng.choices(("pass", "zero", "const", "unit", "mono", "rename",
                        "multi", "foreign"), (3, 1, 2, 3, 1, 2, 4, 0.2))[0]
    if kind == "pass":
        return None
    if kind == "zero":
        return ring.zero()
    if kind == "const":
        return ring.const(rng.choice((1, -1, 2, -3)))
    if kind in ("unit", "mono"):
        c = rng.choice((1, -1)) if kind == "unit" else rng.choice((2, -1, 3))
        exps = {n: rng.randint(-2 if laur else 0, 2)
                for n, laur in zip(ring.names, ring.laurent)
                if rng.random() < 0.5}
        return ring.monomial(c, exps)
    if kind == "rename":
        return ring.var(rng.choice(ring.names))
    if kind == "foreign":
        return R2.var("x") if name == "x" else R2.one()
    return random_poly(rng, ring, maxterms=3, coeff=2)


class TestSubstituteOracle:
    def test_mixed_bindings(self):
        rng = random.Random(12)
        seen: dict = {}
        for it in range(3600):
            # into another ring, or a permutation/rename within the source
            target = SUB_T if it % 3 else SUB_S
            p = random_poly(rng, SUB_S, maxterms=6, maxexp=3)
            bind = {}
            for name in SUB_S.names:
                v = random_binding(rng, target, name)
                if v is not None:
                    bind[name] = v
            if it % 3 == 2:
                # a permutation of the source variables of equal Laurentness
                names = list(SUB_S.names)
                for laur in (False, True):
                    grp = [n for n, l in zip(names, SUB_S.laurent) if l == laur]
                    perm = rng.sample(grp, len(grp))
                    bind.update({a: SUB_S.var(b) for a, b in zip(grp, perm)})
            want = outcome(termwise_substitute, p, bind, target)
            got = outcome(p.substitute, bind, target)
            key = want if isinstance(want, type) else "poly"
            seen[key] = seen.get(key, 0) + 1
            if isinstance(want, type):
                assert got is want, (p, bind)
            else:
                assert isinstance(got, MultiPoly), (p, bind, got)
                assert_clean(got)
                assert got == want and got.ring == want.ring
        assert seen["poly"] > 500, seen
        for exc in (ContextError, ExponentError, SubstitutionError):
            assert seen.get(exc, 0) > 200, seen

    def test_negative_exponent_errors(self):
        """Each binding that cannot take a negative exponent, alone."""
        p = SUB_S.var("g", -2) * SUB_S.var("x") + SUB_S.var("h")
        T = SUB_T
        cases = [({"g": T.zero()}, SubstitutionError),
                 ({"g": T.var("s") + 1}, SubstitutionError),
                 ({"g": 2 * T.var("d")}, SubstitutionError),
                 ({"g": T.const(2)}, SubstitutionError),
                 ({"g": T.var("s")}, ExponentError),
                 ({}, ExponentError),      # g passes through, not Laurent
                 ({"g": -T.var("d", -3)}, None),
                 ({"g": T.const(-1)}, None)]
        for bind, exc in cases:
            bind = bind | {"y": T.one(), "z": T.one()}
            want = outcome(termwise_substitute, p, bind, T)
            got = outcome(p.substitute, bind, T)
            if exc is None:
                assert isinstance(got, MultiPoly) and got == want
            else:
                assert got is exc and want is exc, bind

    def test_unbound_name_absent_from_target(self):
        p = SUB_S.var("x")
        bind = {"g": SUB_T.one(), "h": SUB_T.one(), "k": SUB_T.one(),
                "y": SUB_T.one()}
        for f in (termwise_substitute, MultiPoly.substitute):
            assert outcome(f, p, bind, SUB_T) is ContextError  # z unbound
        bind["z"] = SUB_T.zero()
        assert p.substitute(bind, SUB_T) == SUB_T.var("x")

    def test_shared_prefix_products(self):
        """Many exponent vectors on several multi-term bindings, and groups
        that cancel to zero (y -> -1)."""
        rng = random.Random(13)
        src = Ring([("a", False), ("b", False), ("c", False), ("x", True),
                    ("y", True)])
        T = Ring([("s", False), ("x", True)])
        bind = {"a": T.var("s") + 1, "b": T.var("s") - T.var("x", -1),
                "c": 2 * T.var("x") - 3, "y": T.const(-1)}
        for _ in range(200):
            p = random_poly(rng, src, maxterms=12, maxexp=3)
            q = p * (src.var("a") - src.var("b"))
            assert q.substitute(bind, T) == termwise_substitute(q, bind, T)
            assert (p * (src.var("y") + 1)).substitute(bind, T).terms == {}


class TestRingMap:
    def test_one_map_many_polys(self):
        """One map, applied to a shuffled sequence of polynomials (repeats
        and growing and shrinking exponents among them), gives for each
        what the oracle and a fresh substitution give, errors included,
        and never hands out one of its power tables as a result."""
        rng = random.Random(14)
        seen: dict = {}
        for it in range(240):
            target = SUB_T if it % 3 else SUB_S
            bind = {}
            for name in SUB_S.names:
                v = random_binding(rng, target, name)
                if v is not None:
                    bind[name] = v
            try:
                psi = RingMap(SUB_S, target, bind)
            except ContextError:
                assert outcome(termwise_substitute, SUB_S.one(), bind,
                               target) is ContextError
                continue
            polys = [random_poly(rng, SUB_S, maxterms=6,
                                 maxexp=rng.randint(1, 4)) for _ in range(8)]
            polys += polys[:3]
            rng.shuffle(polys)
            for p in polys:
                want = outcome(termwise_substitute, p, bind, target)
                got = outcome(psi, p)
                assert outcome(p.substitute, bind, target) == want
                key = want if isinstance(want, type) else "poly"
                seen[key] = seen.get(key, 0) + 1
                if isinstance(want, type):
                    assert got is want, (p, bind)
                    continue
                assert_clean(got)
                assert got == want and got.ring == want.ring
                tables = [t for table in psi._powers for t in table]
                assert all(got.terms is not t for t in tables)
        assert seen["poly"] > 300, seen
        for exc in (ExponentError, SubstitutionError):
            assert seen.get(exc, 0) > 100, seen

    def test_source_ring_checked(self):
        psi = RingMap(R2, R2, {"x": R2.var("y")})
        with pytest.raises(ContextError):
            psi(R6.var("x"))
