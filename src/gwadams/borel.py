"""Characteristic classes of symplectic sums and triple products.

Covers three layers: the omega(n) multiplier classes defined by
psi^n(u - tau) = omega(n)*(u - tau) in the quotient by (u - tau)^2, the
Borel classes of a sum of rank-2 classes (elementary symmetric polynomials
in e_j - tau), and the ternary laws F_1..F_4 expressing the Borel classes
of a triple product of rank-2 classes in terms of their first Borel
classes v_j = u_j - tau.  Every hard-coded expected value here is
cross-checked against the lambda-engine by the report batteries.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import permutations
from typing import NamedTuple

from . import gwring, symfunc
from .gwring import GW, KTH, THEORIES, GWElem, SymClass, context_ring
from .lambdaring import adams, lambda_series
from .polyring import GradingError, MultiPoly, Ring, signed_join
from .report import Template, VerificationReport, check


# ---------------------------------------------------------------------------
# omega(n)

class OmegaClass(NamedTuple):
    """omega(n), the multiplier of (u - tau) under psi^n, with its n."""
    n: int
    value: GWElem


@cache
def omega_recursive(n: int) -> GWElem:
    """omega(n) = tau*omega(n-1) - gamma*omega(n-2) + psi^{n-1}(tau), of
    degree 2n - 2 for n >= 1; ValueError for n < 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n < 2:
        return GWElem.from_int(n)
    tau, gamma = GWElem.tau(), GWElem.gamma()
    return (tau * omega_recursive(n - 1) - gamma * omega_recursive(n - 2)
            + adams(n - 1, tau))


def omega_closed(n: int) -> GWElem:
    """(n^2/2) tau gamma^{(n-2)/2} for even n, and
    n((n-1)/2 h + <-1>^{(n-1)/2}) gamma^{(n-1)/2} for odd n."""
    if n == 0:
        return GWElem.from_int(0)
    if n % 2:
        m = (n - 1) // 2
        return (n * (m * GWElem.h() + GWElem.minus_one_class() ** m)
                * GWElem.gamma(m))
    return (n * n // 2) * GWElem.tau() * GWElem.gamma((n - 2) // 2)


def omega(n: int) -> OmegaClass:
    """omega(n) for the CLI: the benchmark's tracer times the omega layer
    by this name, as it wraps no cached function such as omega_recursive."""
    return OmegaClass(n, omega_recursive(n))


def check_omega_laws() -> VerificationReport:
    """The recursion/closed-form agreement, the composition law
    omega(mn) = omega(n)*psi^n(omega(m)), the defining relation in the
    quotient by (u - tau)^2, and the localization witness identities."""
    rep = VerificationReport("omega")

    for n in range(0, 11):
        lhs, rhs = omega_recursive(n), omega_closed(n)
        rep.add(check("omega_closed", (n,), lhs == rhs, lhs, rhs))

    for m in range(2, 6):
        for n in range(2, 6):
            lhs = omega_recursive(m * n)
            psi_wm = adams(n, omega_recursive(m))
            rhs = omega_recursive(n) * psi_wm
            rep.add(check("omega_psi", (m, n), lhs == rhs, lhs, rhs))

    gens = ("u",)
    u = SymClass.gen("u", gens=gens, quotient=True)
    tau = SymClass.from_gw(GWElem.tau(), gens=gens, quotient=True)
    x = u - tau
    for n in range(1, 9):
        ps = adams(n, x)
        # express in the basis {1, u - tau}: the u-coefficient is the
        # multiplier, the remainder must vanish
        c1 = GWElem(ps.poly.coefficient("u", 1).rename(gwring.COEFF_RING))
        rest = ps - SymClass.from_gw(c1, gens=gens, quotient=True) * x
        w = omega_recursive(n)
        rep.add(check("omega_quotient", (n,), c1 == w and rest.is_zero(),
                      ps, Template("(%s)*(u - tau)", (w,))))

    rep.extend(gwring.localization_witnesses())
    return rep


# ---------------------------------------------------------------------------
# Borel classes of a sum of rank-2 classes

def borel_sum_classes(k: int, i: int) -> SymClass:
    """sigma_i(e_1 - tau, ..., e_k - tau) in normal form."""
    if not 1 <= i <= k:
        raise ValueError("need 1 <= i <= k")
    gens = tuple("e%d" % j for j in range(1, k + 1))
    ring = context_ring(GW, gens)
    tau = ring.var("tau")
    return SymClass(symfunc.elementary([ring.var(g) - tau for g in gens], i),
                    GW, gens)


# ---------------------------------------------------------------------------
# lambda^i of a product of three rank-2 classes

_TRIPLE_GENS = ("u1", "u2", "u3")


def _triple_ring() -> Ring:
    return context_ring(GW, _TRIPLE_GENS)


def orbit_sum(ring: Ring, names, *exps) -> MultiPoly:
    """Sum of the distinct monomials in the permutation orbit of the
    exponent pattern, padded with zeros to one exponent per name."""
    exps = exps + (0,) * (len(names) - len(exps))
    out = ring.zero()
    for perm in sorted(set(permutations(exps))):
        out = out + ring.monomial(1, dict(zip(names, perm)))
    return out


def _triple_via_R(n: int) -> SymClass:
    ring = _triple_ring()
    gamma = ring.var("gamma")
    x, y, z = ([ring.var(g), gamma] for g in _TRIPLE_GENS)
    val = symfunc.evaluate(symfunc.universal_R(n), ring, X=x, Y=y, Z=z)
    return SymClass(val, GW, _TRIPLE_GENS)


def triple_product_closed(i: int) -> SymClass:
    """Expected lambda^i(u1*u2*u3) for 0 <= i <= 8.

    Built from the ungraded universal values by restoring the twist
    powers: a term of total u-degree D in lambda^i sits in degree 6i, so
    it carries gamma^{(6i-2D)/4}."""
    ring = _triple_ring()
    x, y, z = (ring.var(g) for g in _TRIPLE_GENS)
    flat = SymClass(symfunc.r_abc_closed(i, x, y, z), GW, _TRIPLE_GENS)
    gamma, out = ring.step("gamma"), {}
    for key, c in flat.poly.terms.items():
        d = 6 * i - 2 * sum(ring.unpack(key)[len(GW.base):])
        if d % 4:
            raise GradingError("twist restoration failed at i=%d" % i)
        out[key + d // 4 * gamma] = c
    return SymClass(MultiPoly(ring, out), GW, _TRIPLE_GENS)


def _explicit_triple_displays() -> dict:
    """The closed forms of lambda^i(u1*u2*u3), i = 1..4."""
    ring = _triple_ring()
    g = ring.var("gamma")
    S = partial(orbit_sum, ring, _TRIPLE_GENS)
    disp = {
        1: S(1, 1, 1),
        2: S(2, 2) * g - 2 * S(2) * g ** 2 + 4 * g ** 3,
        3: S(3, 1, 1) * g ** 2 - 5 * S(1, 1, 1) * g ** 3,
        4: S(4) * g ** 4 + S(2, 2, 2) * g ** 3 - 4 * S(2) * g ** 5 + 6 * g ** 6,
    }
    return {i: SymClass(p, GW, _TRIPLE_GENS) for i, p in disp.items()}


def _borel_from_lambda(lam, gens: tuple) -> dict:
    """b_1..b_4 of a rank-8 class from lam[1..4] = its lambda^1..lambda^4:
    the displayed combinations equal to sigma_i(e_j - tau) for a sum of four
    rank-2 classes e_j."""
    tau, gamma, eps = (SymClass.gen(v, GW, gens)
                       for v in ("tau", "gamma", "eps"))
    e = lam[1]
    return {
        1: e - 4 * tau,
        2: lam[2] - 3 * tau * e + 4 * (2 - 3 * eps) * gamma,
        3: (lam[3] - 2 * tau * lam[2] + 3 * (1 - 2 * eps) * gamma * e
            - 8 * tau * gamma),
        4: (lam[4] - tau * lam[3] - 2 * eps * gamma * lam[2]
            - tau * gamma * e + 2 * gamma ** 2),
    }


def check_borel_prop() -> VerificationReport:
    """Sum-of-four closed forms, the generic shifted-sigma identity, the
    Borel classes of a rank-8 sum, and the triple-product values."""
    rep = VerificationReport("borel")

    # lambda^i of a sum of four rank-2 classes
    gens4 = tuple("e%d" % j for j in range(1, 5))
    ring4 = context_ring(GW, gens4)
    g = ring4.var("gamma")
    sig = {i: symfunc.elementary([ring4.var(e) for e in gens4], i)
           for i in range(1, 5)}
    esum = SymClass(sig[1], GW, gens4)
    lam_closed = {
        1: sig[1],
        2: sig[2] + 4 * g,
        3: sig[3] + 3 * sig[1] * g,
        4: sig[4] + 2 * sig[2] * g + 6 * g ** 2,
    }
    lam_engine = lambda_series(esum, 4)
    for i in range(1, 5):
        want = SymClass(lam_closed[i], GW, gens4)
        rep.add(check("preliminary", (i,), lam_engine[i] == want,
                      lam_engine[i], want))

    # sigma_i(x_1 - y, ..., x_4 - y) in Z[x1..x4, y]
    R = Ring([("x%d" % j, False) for j in range(1, 5)] + [("y", False)])
    y = R.var("y")
    s = {i: symfunc.elementary([R.var("x%d" % j) for j in range(1, 5)], i)
         for i in range(1, 5)}
    shifted = [R.var("x%d" % j) - y for j in range(1, 5)]
    shifted_sigma = {i: symfunc.elementary(shifted, i) for i in range(1, 5)}
    sym_expected = {
        1: s[1] - 4 * y,
        2: s[2] - 3 * y * s[1] + 6 * y ** 2,
        3: s[3] - 2 * s[2] * y + 3 * s[1] * y ** 2 - 4 * y ** 3,
        4: s[4] - s[3] * y + s[2] * y ** 2 - s[1] * y ** 3 + y ** 4,
    }
    for i in range(1, 5):
        rep.add(check("symmetric", (i,), shifted_sigma[i] == sym_expected[i],
                      shifted_sigma[i], sym_expected[i]))

    # Borel classes of the sum: sigma_i(e_j - tau) against the displayed
    # combinations of lambda^k, once with the closed lambda values and
    # once with the engine's
    closed_sc = {i: SymClass(lam_closed[i], GW, gens4) for i in range(1, 5)}
    from_closed = _borel_from_lambda(closed_sc, gens4)
    from_engine = _borel_from_lambda(lam_engine, gens4)
    for i in range(1, 5):
        got = borel_sum_classes(4, i)
        rep.add(check("borel", (i,), got == from_closed[i],
                      got, from_closed[i]))
        rep.add(check("borel_engine", (i,), got == from_engine[i],
                      got, from_engine[i]))

    # triple products
    displays = _explicit_triple_displays()
    ring3 = _triple_ring()
    x3 = SymClass(ring3.var("u1") * ring3.var("u2") * ring3.var("u3"),
                  GW, _TRIPLE_GENS)
    engine = lambda_series(x3, 8)
    for i in range(1, 5):
        want = displays[i]
        rep.add(check("explicit3fold", (i,), engine[i] == want,
                      engine[i], want))
        rroute = _triple_via_R(i)
        rep.add(check("triple_R", (i,), engine[i] == rroute,
                      engine[i], rroute))
    for i in range(1, 9):
        want = triple_product_closed(i)
        rep.add(check("triple_graded", (i,), engine[i] == want,
                      engine[i], want))
    return rep


# ---------------------------------------------------------------------------
# ternary laws

_LAW_GENS = ("v1", "v2", "v3")


class TernaryLaw(NamedTuple):
    """F_index(v1, v2, v3): a symmetric, homogeneous class of degree
    2*index expressing a Borel class of a triple product."""

    index: int
    theory: str
    value: SymClass

    def orbit_decomposition(self):
        """[(base coefficient, descending exponent pattern), ...], the
        expansion over permutation-orbit sums of generator monomials."""
        groups = self.value.split_terms()
        keys = {tuple(sorted(ue, reverse=True)) for ue in groups}
        out = []
        for key in sorted(keys, key=lambda k: (sum(k), tuple(-e for e in k))):
            first = groups.get(key)
            if any(groups.get(p) != first for p in permutations(key)):
                raise ValueError("law is not symmetric in the generators")
            out.append((MultiPoly(self.value.theory.base_ring(), first), key))
        return out

    def _render(self, latex: bool) -> str:
        return signed_join([_orbit_term(coeff, key, self.value, latex)
                            for coeff, key in self.orbit_decomposition()])

    def text(self) -> str:
        return self._render(False)

    def latex(self) -> str:
        return self._render(True)

    def to_obj(self) -> dict:
        return {"index": self.index, "theory": self.theory,
                "value": self.value.to_obj(), "text": self.text()}


def _orbit_term(coeff: MultiPoly, key: tuple, law: SymClass,
                latex: bool) -> str:
    render = MultiPoly.latex if latex else MultiPoly.text
    ms = render(law.poly.ring.monomial(1, dict(zip(law.gens, key))))
    cs = render(coeff)
    if ms == "1":
        return cs
    if len(set(key)) > 1:
        ms = (r"\sigma(%s)" if latex else "sigma(%s)") % ms
    if cs in ("1", "-1"):
        return cs[:-1] + ms     # the sign alone
    if len(coeff.terms) > 1:
        cs = "(%s)" % cs
    return cs + ms if latex else cs + "*" + ms


def borel_triple_classes() -> dict:
    """b_i of the rank-8 class gamma^{-1} u1 u2 u3, i = 1..4, before the
    substitution u_j = v_j + tau."""
    ring = _triple_ring()
    e = SymClass(ring.var("gamma", -1) * ring.var("u1") * ring.var("u2")
                 * ring.var("u3"), GW, _TRIPLE_GENS)
    return _borel_from_lambda(lambda_series(e, 4), _TRIPLE_GENS)


@cache
def _gw_values() -> tuple:
    """F_1..F_4 of GW: b_i with u_j = v_j + tau."""
    b = borel_triple_classes()
    vring = context_ring(GW, _LAW_GENS)
    tau = vring.var("tau")
    to_v = {"u%d" % j: vring.var("v%d" % j) + tau for j in (1, 2, 3)}
    return tuple(SymClass(b[i].poly.substitute(to_v, vring), GW, _LAW_GENS)
                 for i in range(1, 5))


def ternary_laws(theory: str) -> list:
    """The four ternary laws of the requested theory: the images of the GW
    laws under the ring map GW -> theory."""
    if theory not in THEORIES:
        raise ValueError("unknown theory %r" % theory)
    target = THEORIES[theory]
    return [TernaryLaw(i, theory, v.specialize(target))
            for i, v in enumerate(_gw_values(), 1)]


def _expected_b_u() -> dict:
    ring = _triple_ring()
    g1 = ring.var("gamma", -1)
    gamma = ring.var("gamma")
    tau = ring.var("tau")
    eps = ring.var("eps")
    one = ring.one()
    S = partial(orbit_sum, ring, _TRIPLE_GENS)
    disp = {
        1: g1 * S(1, 1, 1) - 4 * tau,
        2: (g1 * S(2, 2) - 2 * S(2) - 3 * tau * g1 * S(1, 1, 1)
            + 12 * (one - eps) * gamma),
        3: (g1 * S(3, 1, 1) - 2 * (one + 3 * eps) * S(1, 1, 1)
            - 2 * tau * g1 * S(2, 2) + 4 * tau * S(2) - 16 * tau * gamma),
        4: (S(4) + g1 * S(2, 2, 2) - 4 * (one - eps) * gamma * S(2)
            - 2 * eps * S(2, 2) - tau * g1 * S(3, 1, 1)
            + 4 * tau * S(1, 1, 1) + 8 * (one - eps) * gamma ** 2),
    }
    return {i: SymClass(p, GW, _TRIPLE_GENS) for i, p in disp.items()}


@cache
def _displayed_laws() -> dict:
    """The displayed F_1..F_4 of GW and of K: theory name -> index -> class."""
    ring = context_ring(GW, _LAW_GENS)
    g1, tau, eps = ring.var("gamma", -1), ring.var("tau"), ring.var("eps")
    one = ring.one()
    S = partial(orbit_sum, ring, _LAW_GENS)
    gw = {
        1: 2 * (one - eps) * S(1) + tau * g1 * S(1, 1) + g1 * S(1, 1, 1),
        2: (2 * (one - 2 * eps) * S(2) + 2 * (one - eps) * S(1, 1)
            + 2 * tau * g1 * S(2, 1) - 3 * tau * g1 * S(1, 1, 1)
            + g1 * S(2, 2)),
        3: (2 * (one - eps) * S(3) - 2 * (one - eps) * S(2, 1)
            + 8 * (2 * one - 3 * eps) * S(1, 1, 1) + tau * g1 * S(3, 1)
            - 2 * tau * g1 * S(2, 2) + 3 * tau * g1 * S(2, 1, 1)
            + g1 * S(3, 1, 1)),
        4: (S(4) - 2 * (one - eps) * S(3, 1) + 2 * (one - 2 * eps) * S(2, 2)
            + 2 * (one - eps) * S(2, 1, 1) - tau * g1 * S(3, 1, 1)
            + 2 * tau * g1 * S(2, 2, 1) + g1 * S(2, 2, 2)),
    }
    ring = context_ring(KTH, _LAW_GENS)
    b2, b4 = ring.var("beta", -2), ring.var("beta", -4)
    S = partial(orbit_sum, ring, _LAW_GENS)
    k = {
        1: 4 * S(1) + 2 * b2 * S(1, 1) + b4 * S(1, 1, 1),
        2: (6 * S(2) + 4 * S(1, 1) + 4 * b2 * S(2, 1)
            - 6 * b2 * S(1, 1, 1) + b4 * S(2, 2)),
        3: (4 * S(3) - 4 * S(2, 1) + 40 * S(1, 1, 1) + 2 * b2 * S(3, 1)
            - 4 * b2 * S(2, 2) + 6 * b2 * S(2, 1, 1) + b4 * S(3, 1, 1)),
        4: (S(4) - 4 * S(3, 1) + 6 * S(2, 2) + 4 * S(2, 1, 1)
            - 2 * b2 * S(3, 1, 1) + 4 * b2 * S(2, 2, 1)
            + b4 * S(2, 2, 2)),
    }
    return {t.name: {i: SymClass(p, t, _LAW_GENS) for i, p in disp.items()}
            for t, disp in ((GW, gw), (KTH, k))}


def expected_laws(theory: str) -> dict:
    """The displayed F_i, index -> TernaryLaw; a theory with no displayed
    table gets the image of the GW table."""
    if theory not in THEORIES:
        raise ValueError("unknown theory %r" % theory)
    shown = _displayed_laws()
    values = shown.get(theory) or {
        i: v.specialize(THEORIES[theory]) for i, v in shown[GW.name].items()}
    return {i: TernaryLaw(i, theory, v) for i, v in values.items()}


def check_ternary() -> VerificationReport:
    rep = VerificationReport("ternary")

    b = borel_triple_classes()
    b_want = _expected_b_u()
    for i in range(1, 5):
        rep.add(check("b_intermediate", (i,), b[i] == b_want[i],
                      b[i], b_want[i]))

    for theory, lemma in (("gw", "gw_F"), ("k", "k_F")):
        laws = ternary_laws(theory)
        want = expected_laws(theory)
        for law in laws:
            w = want[law.index]
            rep.add(check(lemma, (law.index,), law.value == w.value, law, w))
            got_orb = {key: c for c, key in law.orbit_decomposition()}
            want_orb = {key: c for c, key in w.orbit_decomposition()}
            for key in sorted(set(got_orb) | set(want_orb)):
                zero = law.value.theory.base_ring().zero()
                gc = got_orb.get(key, zero)
                wc = want_orb.get(key, zero)
                rep.add(check(lemma + "_coeff", (law.index, key), gc == wc,
                              gc, wc))

    want_w = expected_laws("witt")
    for law in ternary_laws("witt"):
        w = want_w[law.index]
        rep.add(check("witt_F", (law.index,), law.value == w.value, law, w))

    # S3 invariance and grading of each law
    perms = sorted(permutations(_LAW_GENS))
    for theory in (GW, KTH):
        ring = context_ring(theory, _LAW_GENS)
        swaps = [{g: ring.var(p) for g, p in zip(_LAW_GENS, perm)}
                 for perm in perms]
        for law in ternary_laws(theory.name):
            poly = law.value.poly
            for perm, swap in zip(perms, swaps):
                rep.add(check("F_symmetric", (law.theory, law.index,
                                              "".join(p[-1] for p in perm)),
                              poly.substitute(swap, ring) == poly))
            deg = law.value.degree()
            rep.add(check("F_degree", (law.theory, law.index),
                          deg == 2 * law.index, str(deg), str(2 * law.index)))

    # the rank map of the gw laws equals that of the k laws
    target = Ring([(g, False) for g in _LAW_GENS])
    klaws = {l.index: l for l in ternary_laws("k")}
    for law in ternary_laws("gw"):
        gw_img = law.value._image("rank", target)
        k_img = klaws[law.index].value._image("rank", target)
        rep.add(check("rank_compat", (law.index,), gw_img == k_img,
                      gw_img, k_img))
    return rep
