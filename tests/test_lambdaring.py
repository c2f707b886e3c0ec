from math import prod

import pytest

from gwadams import lambdaring, symfunc
from gwadams.borel import ternary_laws
from gwadams.gwring import GW, WITT, GWElem, context_ring
from gwadams.lambdaring import (
    KTH, SymClass, adams, check_adams_hyperbolic, check_lambda_axioms,
    l1_samples, l2_samples, lambda_series,
)
from gwadams.polyring import EXP_MASK, GradingError, Ring, TruncSeries
from test_symfunc import symmetric_reduce


GENS = ("u1", "u2")


def u(i):
    return SymClass.gen("u%d" % i, gens=GENS)


def scalar(x):
    return SymClass.from_gw(x, gens=GENS)


class TestLambdaSeries:
    def test_rank2_generator(self):
        s = lambda_series(u(1), 3)
        assert s[0] == 1
        assert s[1] == u(1)
        assert s[2] == scalar(GWElem.gamma())
        assert s[3].is_zero()
        # truncation below the rank: only the first N + 1 coefficients
        assert lambda_series(u(1), 0) == [1]
        assert lambda_series(u(1), 1) == [1, u(1)]
        assert lambda_series(u(1) * u(2), 0) == [1]
        assert lambda_series(u(1) * u(2), 1) == [1, u(1) * u(2)]

    def test_sum(self):
        got = lambda_series(u(1) + u(2), 2)[2]
        assert got == u(1) * u(2) + 2 * scalar(GWElem.gamma())

    def test_product(self):
        # lambda^2(u1*u2) = gamma*u1^2 + gamma*u2^2 - 2*gamma^2
        g = scalar(GWElem.gamma())
        got = lambda_series(u(1) * u(2), 2)[2]
        assert got == g * u(1) ** 2 + g * u(2) ** 2 - 2 * g ** 2

    def test_line_class(self):
        mo = scalar(GWElem.minus_one_class())
        s = lambda_series(mo, 3)
        assert s[1] == mo and s[2].is_zero() and s[3].is_zero()

    def test_decomposition_independence(self):
        # the series of x must be recoverable from any splitting x = y + z
        uq = SymClass.gen("u", gens=("u",), quotient=True)
        tq = SymClass.from_gw(GWElem.tau(), gens=("u",), quotient=True)
        g1 = scalar(GWElem.gamma(-1))
        for x, y in [(u(1) + u(2), u(2)),
                     (u(1) * u(2) + scalar(GWElem.tau()), u(1) * u(2)),
                     (3 * u(1), u(1)),
                     ((u(1) + scalar(GWElem.tau())).specialize(KTH),
                      u(1).specialize(KTH)),
                     (uq - tq, uq),
                     (g1 * u(1) * u(2), u(1))]:
            z = x - y
            sx = lambda_series(x, 4)
            sy = lambda_series(y, 4)
            sz = lambda_series(z, 4)
            for n in range(5):
                acc = 0 * x
                for i in range(n + 1):
                    acc = acc + sy[i] * sz[n - i]
                assert acc == sx[n]

    def test_negative_order(self):
        with pytest.raises(ValueError):
            lambda_series(u(1), -1)


class TestAdams:
    def test_psi_tau(self, to_gw):
        tau = SymClass.from_gw(GWElem.tau())
        assert to_gw(adams(2, tau)) == -2 * GWElem.eps() * GWElem.gamma()
        assert to_gw(adams(3, tau)) == GWElem.tau() * GWElem.gamma()

    def test_psi_h(self, to_gw):
        h = SymClass.from_gw(GWElem.h())
        assert to_gw(adams(2, h)) == GWElem.from_int(2)
        assert to_gw(adams(3, h)) == GWElem.h()

    def test_psi0_is_rank(self):
        x = u(1) * u(2)
        assert adams(0, x) == x.rank() == 4

    def test_negative(self, to_gw):
        tau = SymClass.from_gw(GWElem.tau())
        assert to_gw(adams(-1, tau)) == -GWElem.tau()
        assert to_gw(adams(-2, tau)) == 2 * GWElem.eps() * GWElem.gamma()
        g = SymClass.from_gw(GWElem.gamma())
        assert adams(-1, g) == adams(1, g)

    def test_inhomogeneous_rejected(self):
        with pytest.raises(GradingError):
            adams(2, u(1) + 1)


def oracle_samples() -> dict:
    """Classes over every engine path: lines, rank-2 primitives and their
    products, Laurent twists, quotient mode and the K/Witt images."""
    g3 = ("u1", "u2", "u3")
    v = [SymClass.gen(g, gens=g3) for g in g3]
    tau = SymClass.from_gw(GWElem.tau(), gens=g3)
    uq = SymClass.gen("u", gens=("u",), quotient=True)
    tq = SymClass.from_gw(GWElem.tau(), gens=("u",), quotient=True)
    return {
        "u1": v[0], "tau": tau,
        "<-1>": SymClass.from_gw(GWElem.minus_one_class(), gens=g3),
        "eps*u1": SymClass.from_gw(GWElem.eps(), gens=g3) * v[0],
        "gamma^-1*u1*u2": SymClass.from_gw(GWElem.gamma(-1), gens=g3)
        * v[0] * v[1],
        "u1*u2*u3": v[0] * v[1] * v[2], "tau*u1": tau * v[0],
        "u (quotient)": uq, "u-tau (quotient)": uq - tq,
        "u^2 (quotient)": uq * uq,
        "forget(u1*u2)": (u(1) * u(2)).specialize(KTH),
        "witt(u1*u2)": (u(1) * u(2)).specialize(WITT),
    }


class TestAdamsOracle:
    """psi^n against the n-th power sum of the lambda-series (Newton's
    identities), a route that shares no code with the substitution."""

    @pytest.mark.parametrize("name", sorted(oracle_samples()))
    def test_power_sums_of_lambda_series(self, name):
        x = oracle_samples()[name]
        p = symfunc.power_sums(lambda_series(x, 8))
        for n in range(1, 9):
            assert adams(n, x) == p[n], (name, n)
        sign = -1 if x.degree() % 4 == 2 else 1
        for n in range(1, 5):
            assert adams(-n, x) == sign * p[n], (name, -n)


def kernel_samples() -> dict:
    """oracle_samples and coefficient-ring classes: zero and negative
    coefficients, gamma^-2, h, <-1>, and their K and Witt images."""
    tau, gamma, eps = GWElem.tau(), GWElem.gamma(), GWElem.eps()
    g3 = ("u1", "u2", "u3")
    v = [SymClass.gen(g, gens=g3) for g in g3]
    gw = {"0": GWElem.from_int(0), "-3": GWElem.from_int(-3),
          "gamma^-2": GWElem.gamma(-2), "h": GWElem.h(),
          "<-1> (coefficient)": GWElem.minus_one_class(),
          "-2*tau*gamma^-1": -2 * tau * GWElem.gamma(-1),
          "3*gamma - 5*eps*gamma": 3 * gamma - 5 * eps * gamma}
    out = dict(oracle_samples(), **gw)
    for name in ("-2*tau*gamma^-1", "3*gamma - 5*eps*gamma", "h"):
        out["forget(%s)" % name] = gw[name].specialize(KTH)
        out["witt(%s)" % name] = gw[name].specialize(WITT)
    out["-u1*u2 + 2*tau*u3"] = (-v[0] * v[1] + 2 * SymClass.from_gw(
        tau, gens=g3) * v[2])
    return out


# theory name -> the base variables whose rank is not 1 -> rank, written
# out apart from the theories' rank maps
RANKS = {"gw": {"eps": -1, "tau": 2}, "k": {}, "witt": {}}


def packed_rank(x) -> int:
    """rank read from the packed fields, as SymClass.rank computed it
    before it became a substitution: each term's coefficient times
    its rank ** e over the base variables (RANKS) and 2 ** e over the
    generators."""
    ring = x.poly.ring
    subs = [(ring.shifts[i], ring.offsets[i], v) for i, v in (
        [(ring.index(n), v) for n, v in RANKS[x.theory.name].items()]
        + [(ring.index(g), 2) for g in x.gens])]
    return sum(c * prod(v ** ((key >> s & EXP_MASK) - off)
                        for s, off, v in subs)
               for key, c in x.poly.terms.items())


def linear_power(x, n: int):
    """x ** n as n normalized products."""
    out = x._wrap(x.poly.ring.one())
    for _ in range(n):
        out = out * x
    return out


def rescaled_lambda_series(x, N: int) -> list:
    """lambda_series as it was computed before each term's series started
    at its line factor L: from 1 + t, fold in the rank-2 factors, then
    scale the n-th coefficient by L ** n."""
    theory, ring = x.theory, x.poly.ring
    one = ring.one()
    result = TruncSeries.one(ring, N)
    for exps, c in reversed(x.poly.sorted_terms()):
        s = TruncSeries(ring, N, [one, one])
        for g in theory.rank2 + x.gens:
            for _ in range(exps[ring.index(g)]):
                s = lambdaring._fold_rank2(s, g, x)
        unit = ring.var(theory.twist, exps[ring.index(theory.twist)])
        if theory.line and exps[ring.index(theory.line)]:
            unit, c = -ring.var(theory.line) * unit, -c
        s = TruncSeries(ring, N, [a * unit ** n
                                  for n, a in enumerate(s.coeffs)])
        result = lambdaring._normal(
            result * lambdaring._normal(s ** c, x), x)
    return [x._wrap(a) for a in result.coeffs]


class TestKernelOracles:
    """Class powers, ranks and lambda-series against the kernels they
    replaced: n normalized products, the packed-field rank and the series
    rescaled by its line factor after the fold."""

    @pytest.mark.parametrize("name", sorted(kernel_samples()))
    def test_power_and_rank(self, name):
        x = kernel_samples()[name]
        for n in range(7):
            got = x ** n
            assert type(got) is type(x) and got == linear_power(x, n), n
            assert got.rank() == packed_rank(got) == x.rank() ** n, n

    @pytest.mark.parametrize("name", sorted(kernel_samples()))
    def test_series_from_line_factor(self, name):
        x = kernel_samples()[name]
        assert lambda_series(x, 6) == rescaled_lambda_series(x, 6)
        y = x * x - 2 * x
        assert lambda_series(y, 4) == rescaled_lambda_series(y, 4)


class TestDegreeLaw:
    """psi^n multiplies the degree by |n| and lambda^i by i, on every
    nonzero value: the grading is kept by construction, and this is its
    one check."""

    @pytest.mark.parametrize("name", sorted(kernel_samples()))
    def test_adams_and_lambda(self, name):
        x = kernel_samples()[name]
        d = x.degree()
        for n in range(-6, 7):
            out = adams(n, x)
            assert out.is_zero() or out.degree() == abs(n) * d, n
        for i, out in enumerate(lambda_series(x, 8)):
            assert out.is_zero() or out.degree() == i * d, i

    @pytest.mark.parametrize("name", sorted(l2_samples()))
    def test_lambda_of_lambda(self, name):
        z = l2_samples()[name]
        d = z.degree()
        lz = lambda_series(z, 8)
        for j in range(1, 9):
            for i, out in enumerate(lambda_series(lz[j], 8 // j)):
                assert out.is_zero() or out.degree() == i * j * d, (i, j)


def gauss_fold_rank2(series, prim_name, ctx, rank_bound):
    """The fold as symfunc's Gauss reduction of the dominant part of
    prod_i F(t U_i), F(s) = 1 + y*s + det*s^2, then sigma_j(U) replaced by
    lambda^j(x), as lambdaring computed it before the splitting-principle
    closed form.  Exact when lambda^j(x) = 0 for j > rank_bound."""
    theory, base, N = ctx.theory, series.ring, series.order
    M = max(1, min(N, rank_bound))
    targets = ["XF%d" % i for i in range(1, M + 1)]
    ext = Ring(list(zip(base.names, base.laurent))
               + [(x, False) for x in targets])
    F = [ext.one(), ext.var(prim_name), ext.var(theory.twist, theory.det_power)]
    lam = TruncSeries(base, M, series.coeffs)   # zero-padded when N < M
    bind = {t: lam[j] for j, t in enumerate(targets, 1)}
    out = [symfunc._reduce_dominant(symfunc._dominant_product(F, M, k),
                                    ext, targets, M).substitute(bind, base)
           for k in range(N + 1)]
    return lambdaring._normal(TruncSeries(base, N, out), ctx)


def series_fold_rank2(series, prim_name, ctx):
    """The fold as a series product: expand prod_i(1 + U_i*y*t +
    U_i^2*det*t^2) over M = N roots U_i and reduce each coefficient by
    test_symfunc's symmetric_reduce.  N roots carry every lambda^j(x),
    j <= N, so no rank assumption is made."""
    theory, base, N = ctx.theory, series.ring, series.order
    M = max(1, N)
    unames = ["UF%d" % i for i in range(1, M + 1)]
    targets = ["XF%d" % i for i in range(1, M + 1)]
    ext = Ring(list(zip(base.names, base.laurent))
               + [(u, False) for u in unames])
    y = ext.var(prim_name)
    det = ext.var(theory.twist, theory.det_power)
    prod = TruncSeries.one(ext, N)
    for name in unames:
        uv = ext.var(name)
        prod = prod * TruncSeries(ext, N, [ext.one(), uv * y, uv * uv * det])
    lam = TruncSeries(base, M, series.coeffs)
    bind = {t: lam[j] for j, t in enumerate(targets, 1)}
    out = [symmetric_reduce(prod[k], unames, targets)
           .substitute(bind, base) for k in range(N + 1)]
    return lambdaring._normal(TruncSeries(base, N, out), ctx)


def fold_samples() -> dict:
    """Products that reach the fold, beyond the L1 sample products: line
    factors, quotient mode and the K/Witt images."""
    g3 = ("u1", "u2", "u3")
    v = [SymClass.gen(g, gens=g3) for g in g3]
    line = {"<-1>": SymClass.from_gw(GWElem.minus_one_class(), gens=g3),
            "gamma": SymClass.from_gw(GWElem.gamma(), gens=g3),
            "gamma^-1": SymClass.from_gw(GWElem.gamma(-1), gens=g3)}
    uq = SymClass.gen("u", gens=("u",), quotient=True)
    tq = SymClass.from_gw(GWElem.tau(), gens=("u",), quotient=True)
    out = {"%s*u1*u2" % n: c * v[0] * v[1] for n, c in line.items()}
    out.update({"<-1>*tau*u3": line["<-1>"] * SymClass.from_gw(
        GWElem.tau(), gens=g3) * v[2],
        "gamma^-1*u1*u2*u3": line["gamma^-1"] * v[0] * v[1] * v[2],
        "u^2 (quotient)": uq * uq, "u*tau (quotient)": uq * tq,
        "(u-tau)*u (quotient)": (uq - tq) * uq})
    samples = l1_samples()
    names = sorted(samples)
    for i, a in enumerate(names):
        for b in names[i:]:
            xy = samples[a] * samples[b]
            out["forget(%s*%s)" % (a, b)] = xy.specialize(KTH)
            out["witt(%s*%s)" % (a, b)] = xy.specialize(WITT)
    return out


class TestFoldOracle:
    """lambda_series with the splitting-principle fold against the same
    series with the fold as the Gauss reduction (rank bound: the degree of
    the series, which every series meets) and as an expanded product."""

    ORACLES = {
        "gauss": lambda s, p, ctx: gauss_fold_rank2(
            s, p, ctx, max(j for j, c in enumerate(s.coeffs) if c)),
        "series": series_fold_rank2,
    }

    def check_folds(self, monkeypatch, x, N):
        got = lambda_series(x, N)
        for name, fold in self.ORACLES.items():
            monkeypatch.setattr(lambdaring, "_fold_rank2", fold)
            assert lambda_series(x, N) == got, (name, x, N)
            monkeypatch.undo()

    def test_l1_products(self, monkeypatch):
        samples = l1_samples()
        names = sorted(samples)
        for i, a in enumerate(names):
            for b in names[i:]:
                self.check_folds(monkeypatch, samples[a] * samples[b], 6)

    def test_generic_sums(self, monkeypatch):
        # (u1+u2)(v1+v2) to N = 8 and (u1+u2+u3)(v1+v2) to N = 10
        for a, b, N in ((2, 2, 8), (3, 2, 10)):
            us = ["u%d" % k for k in range(1, a + 1)]
            vs = ["v%d" % k for k in range(1, b + 1)]
            g = {n: SymClass.gen(n, gens=tuple(us + vs)) for n in us + vs}
            x = sum((g[n] for n in us), 0 * g["u1"]) * sum(
                (g[n] for n in vs), 0 * g["u1"])
            self.check_folds(monkeypatch, x, N)

    def test_lines_quotient_k_witt(self, monkeypatch):
        for name, x in sorted(fold_samples().items()):
            self.check_folds(monkeypatch, x, 6)


def recurrence_adams_images(k: int, x) -> dict:
    """Reference generator images for psi^k: p_k of the roots of
    1 + y*t + det*t^2 by k - 1 steps of p_k = y*p_{k-1} - det*p_{k-2}."""
    theory, ring = x.theory, x.poly.ring
    used = {n for i, n in enumerate(ring.names)
            if any(e[i] for e in x.poly.tuple_terms())}
    det = ring.var(theory.twist, theory.det_power)
    images = {theory.twist: ring.var(theory.twist, k)}
    if theory.line in used:
        images[theory.line] = -((-ring.var(theory.line)) ** k)
    for name in used.intersection(theory.rank2 + x.gens):
        y = ring.var(name)
        prev, cur = ring.const(2), y
        for _ in range(k - 1):
            prev, cur = cur, y * cur - det * prev
        images[name] = cur
    return {n: x._lift(v).poly for n, v in images.items()}


def images_samples() -> dict:
    """A class using every generator and base variable, per theory."""
    gens = ("u1", "u2")
    v = [SymClass.gen(g, gens=gens) for g in gens]
    gw = (v[0] * v[1] + SymClass.from_gw(GWElem.tau(), gens=gens)
          + SymClass.from_gw(GWElem.eps(), gens=gens) * v[0])
    vq = [SymClass.gen(g, gens=gens, quotient=True) for g in gens]
    tq = SymClass.from_gw(GWElem.tau(), gens=gens, quotient=True)
    return {"gw": gw, "gw quotient": vq[0] * vq[1] + tq * vq[0] + tq,
            "k": gw.specialize(KTH),
            "witt": gw.specialize(WITT) + v[1].specialize(WITT)}


class TestAdamsImagesOracle:
    """Waring's formula for the generator images against the recurrence."""

    @pytest.mark.parametrize("name", sorted(images_samples()))
    def test_waring_matches_recurrence(self, name):
        x = images_samples()[name]
        for k in range(1, 41):
            want = recurrence_adams_images(k, x)
            got = {n: lambdaring._adams_image(k, x.theory, x.gens, x.quotient,
                                              n) for n in want}
            assert got == want, (name, k)
        assert set(x.gens) <= set(want)


class TestAdamsMaps:
    """psi^k binds only the variables a class uses."""

    def test_unused_generators_unbound(self):
        """psi^256 of a class that uses one of its n declared generators, or
        of tau, builds the image of that variable alone, for any n: the
        substitution binds only the variables the class uses, and a base
        variable's image is built in its own context."""
        def images_built(n, name):
            gens = tuple("w%d" % i for i in range(n))
            x = (SymClass.gen(name, gens=gens, quotient=True) if name in gens
                 else SymClass.from_gw(GWElem.tau(), gens=gens, quotient=True))
            before = lambdaring._adams_image.cache_info().misses
            assert adams(256, x).rank() == 2
            return lambdaring._adams_image.cache_info().misses - before

        lambdaring._adams_image.cache_clear()
        for name in ("w0", "tau"):
            assert [images_built(n, name) for n in (1, 21, 41)] == [1, 1, 1]


class TestAdamsWellDefined:
    """psi^k substitutes into normal forms, so it must respect the
    relations of the coefficient ring and of the quotient."""

    @pytest.mark.parametrize("k", range(1, 9))
    def test_relations(self, k):
        e = adams(k, SymClass.from_gw(GWElem.eps()))
        t = adams(k, SymClass.from_gw(GWElem.tau()))
        g = adams(k, SymClass.from_gw(GWElem.gamma()))
        assert e * e == 1
        assert e * t == -t
        assert t * t == 2 * g * (1 - e)
        uq = SymClass.gen("u", gens=("u",), quotient=True)
        tq = SymClass.from_gw(GWElem.tau(), gens=("u",), quotient=True)
        assert ((adams(k, uq) - adams(k, tq)) ** 2).is_zero()

    def test_no_lambda_series(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("adams went through the lambda-series")
        monkeypatch.setattr(lambdaring, "lambda_series", refuse)
        monkeypatch.setattr(symfunc, "power_sums", refuse)
        x = oracle_samples()["u1*u2*u3"]
        got = adams(16, x)
        assert got.degree() == 16 * x.degree() and got.rank() == 8


def parent_forget(x):
    """GW -> K as the hand-written substitution table that lambdaring.forget
    applied before the theory maps became data: eps -> -1,
    tau -> 2*beta^2, gamma -> beta^4."""
    target = context_ring(KTH, x.gens)
    beta = target.var("beta")
    img = x.poly.substitute(
        {"eps": target.const(-1), "tau": 2 * beta * beta,
         "gamma": beta ** 4}, target)
    return SymClass(img, KTH, x.gens, False)


def parent_witt(x):
    """GW -> Witt as the hand-written table of lambdaring.witt: eps -> 1,
    tau -> 0, gamma -> gamma."""
    target = context_ring(WITT, x.gens)
    img = x.poly.substitute(
        {"eps": target.one(), "tau": target.zero(),
         "gamma": target.var("gamma")}, target)
    return SymClass(img, WITT, x.gens, False)


class TestTheoryMaps:
    @pytest.mark.parametrize("target, table", [(KTH, parent_forget),
                                               (WITT, parent_witt)],
                             ids=["k", "witt"])
    def test_specialize_matches_tables(self, target, table):
        samples = l1_samples()
        names = sorted(samples)
        xs = [samples[a] * samples[b]
              for i, a in enumerate(names) for b in names[i:]]
        assert len(xs) == 21
        xs += [law.value for law in ternary_laws("gw")]
        for x in xs:
            got = x.specialize(target)
            assert got.theory is target and got == table(x), x

    def test_specialize_refuses_quotient(self):
        # neither K nor W has (u - tau)^2 = 0: on the quotient the tables
        # are not ring maps
        uq = SymClass.gen("u", gens=("u",), quotient=True)
        assert parent_forget(uq * uq) != parent_forget(uq) ** 2
        assert parent_witt(uq * uq) != parent_witt(uq) ** 2
        for target in (KTH, WITT):
            with pytest.raises(ValueError):
                uq.specialize(target)
        assert uq.specialize(GW) is uq

    def test_rank_factors_through_k(self):
        # the rank row of GW is its K row followed by K's rank row
        k_rank = KTH.maps["rank"]
        for v, (c, exps) in GW.maps["k"].items():
            want = c * prod(k_rank[w][0] ** e for w, e in exps.items())
            assert all(not k_rank[w][1] for w in exps)
            assert GW.maps["rank"][v] == (want, {}), v
        assert GW.maps["rank"].keys() == GW.maps["k"].keys()

    def test_forget(self):
        tau = SymClass.from_gw(GWElem.tau())
        img = tau.specialize(KTH)
        assert img.theory.name == "k"
        assert img.text() == "2*beta^2"
        gamma = SymClass.from_gw(GWElem.gamma())
        assert gamma.specialize(KTH).text() == "beta^4"
        assert SymClass.from_gw(GWElem.eps()).specialize(KTH).text() == "-1"

    def test_witt(self):
        assert SymClass.from_gw(GWElem.h()).specialize(WITT).is_zero()
        assert SymClass.from_gw(GWElem.tau()).specialize(WITT).is_zero()
        gamma = SymClass.from_gw(GWElem.gamma())
        assert gamma.specialize(WITT).text() == "gamma"

    def test_forget_requires_gw(self):
        beta = SymClass(KTH.base_ring().var("beta"), KTH)
        for target in (GW, WITT):   # only GW maps to the other theories
            with pytest.raises(ValueError):
                beta.specialize(target)


class TestArithmetic:
    def test_negative_power(self):
        for x in (u(1), SymClass.gen("u", gens=("u",), quotient=True),
                  GWElem.gamma()):
            with pytest.raises(ValueError):
                x ** -2


class TestQuotient:
    def test_square_rewrite(self):
        uq = SymClass.gen("u", gens=("u",), quotient=True)
        tau = SymClass.from_gw(GWElem.tau(), gens=("u",), quotient=True)
        assert ((uq - tau) ** 2).is_zero()

    def test_psi2(self):
        uq = SymClass.gen("u", gens=("u",), quotient=True)
        tau = SymClass.from_gw(GWElem.tau(), gens=("u",), quotient=True)
        got = adams(2, uq - tau)
        assert got == 2 * tau * (uq - tau)


class TestJson:
    def test_round_trip_gw(self):
        x = u(1) * u(2) + 2 * u(1) + scalar(GWElem.tau() * GWElem.gamma(-1))
        assert SymClass.from_json(x.to_json()) == x

    def test_round_trip_k(self):
        x = (u(1) + scalar(GWElem.tau())).specialize(KTH)
        assert SymClass.from_json(x.to_json()) == x

    def test_round_trip_quotient(self):
        uq = SymClass.gen("u", gens=("u",), quotient=True)
        x = uq ** 3
        back = SymClass.from_json(x.to_json())
        assert back == x and back.quotient

    def test_round_trip_many_components(self):
        # one component per u-monomial (GW: per u-monomial and degree)
        x = adams(7, u(1) * u(2) + scalar(GWElem.tau()) * u(2)
                  - 3 * scalar(GWElem.gamma()))
        uq = SymClass.gen("u1", gens=GENS, quotient=True)
        vq = SymClass.gen("u2", gens=GENS, quotient=True)
        for y in (x, x.specialize(KTH), adams(6, uq * vq + uq * uq)):
            doc = y.to_obj()
            assert len(doc["components"]) >= 4
            back = SymClass.from_obj(doc)
            assert back == y and back.quotient == y.quotient
        # components with the same u_exps add up, and may cancel
        doc = {"gens": list(GENS), "components": [
            {"a": [1], "u_exps": [1, 0]}, {"a": [2], "u_exps": [1, 0]},
            {"c": [1], "u_exps": [0, 1]}, {"c": [-1], "u_exps": [0, 1]}]}
        assert SymClass.from_obj(doc) == 3 * u(1)


class TestHyperbolicBattery:
    def test_counts_and_cells(self):
        rep = check_adams_hyperbolic()
        assert rep.ok
        md = {e.params for e in rep.entries
              if e.status == "mismatch-documented"}
        assert md == {(2, 0), (2, 2), (4, 0), (4, 2)}
        assert all(e.lemma == "psi_h_1" for e in rep.entries
                   if e.status == "mismatch-documented")

    def test_odd_rows_match(self):
        rep = check_adams_hyperbolic()
        for e in rep.entries:
            if e.lemma == "psi_h_1" and e.params[0] % 2:
                assert e.status == "pass"


class TestAxiomBattery:
    def test_all_lemmas_pass(self):
        rep = check_lambda_axioms()
        assert rep.ok
        lemmas = {e.lemma for e in rep.entries}
        assert {"L1", "L2", "psi_mult", "psi_add", "psi_comp", "psi_rank",
                "forgetful_psi"} <= lemmas
