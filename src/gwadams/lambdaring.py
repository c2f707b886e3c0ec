"""Lambda-operation engine on gwring.SymClass: classes over the coefficient
ring (or the K-theory and Witt base rings) extended by rank-2 symplectic
generators u_1..u_k.  The class types and the maps between the theories
live in gwring; this module computes lambda-series and Adams operations.

The lambda-series of a class is a polyring.TruncSeries over its context
ring, with every coefficient put in normal form once per series product.
The series of a sum is the product of the series; a rank-2 generator u
(and likewise tau) has series 1 + u*t + det*t^2; products of rank-2
primitives are folded in by the symplectic splitting principle: y splits
as a sum of line classes a + b with a*b = det, so lambda^k(x*y) is a closed
form in the lambda^i(x), det and the power sums a^m + b^m (see
_fold_rank2), for any series of x.  So a term c*L*y_1*...*y_r, L its line
factor (a power of the periodicity unit, times the class <-1> where the
term has eps), starts from the series 1 + L*t of L and folds in its
rank-2 factors y_i one at a time.

Adams operations do not go through the lambda-series.  In a special
lambda-ring each psi^k is a ring endomorphism, so psi^k(x) is x with every
generator replaced by its image: psi^k(twist) = twist^k, psi^k(eps) =
-(-eps)^k, and for tau and each u_i the k-th power sum of the two roots of
1 + y*t + det*t^2.  Each image is built once per k and context and
cached; psi^k(x) substitutes the images of the variables x uses, in one
MultiPoly.substitute.
"""

from __future__ import annotations

from functools import cache
from math import comb

from . import symfunc
from .gwring import KTH, GWElem, SymClass, context_ring
from .polyring import (
    GradingError, MultiPoly, Ring, TruncSeries, sum_of_products,
)
from .report import (
    MISMATCH, PASS, ReportEntry, Template, VerificationReport, check,
)


# ---------------------------------------------------------------------------
# lambda-series

def _normal(s: TruncSeries, ctx: SymClass) -> TruncSeries:
    """s with every coefficient in the normal form of ctx's context."""
    return TruncSeries(s.ring, s.order, [ctx._lift(c).poly for c in s.coeffs])


def _fold_rank2(series: TruncSeries, prim_name: str,
                ctx: SymClass) -> TruncSeries:
    """Lambda-series of x*y from the series of x, y a rank-2 primitive (a
    generator or tau) with det = twist**det_power.  By the splitting
    principle y = a + b, a*b = det, for line classes a, b, and
    lambda^j(x*a) = a^j lambda^j(x); so, with p_m = a^m + b^m, lambda^k(xy) =
    sum_{i<j, i+j=k} det^i p_{j-i} lambda^i(x) lambda^j(x)
    + [k even] det^(k/2) lambda^(k/2)(x)^2, for any series of x."""
    ring, theory, lam = series.ring, ctx.theory, series.coeffs
    N = series.order
    # p[0] = 1, not p_0 = 2: it weights the middle term i = k/2 once
    p = [ring.one()] + [_waring(ring, prim_name, theory, m)
                        for m in range(1, N + 1)]
    det_lam = [ring.var(theory.twist, theory.det_power * i) * lam[i]
               for i in range(N // 2 + 1)]
    out = [sum_of_products(ring, ((1, det_lam[i] * p[k - 2 * i], lam[k - i])
                                  for i in range(k // 2 + 1)))
           for k in range(N + 1)]
    return _normal(TruncSeries(ring, N, out), ctx)


def lambda_series(x: SymClass, N: int) -> list:
    """[lambda^0(x), ..., lambda^N(x)], exact."""
    if N < 0:
        raise ValueError("N must be >= 0")
    theory, ring = x.theory, x.poly.ring
    one = ring.one()
    result = TruncSeries.one(ring, N)
    for exps, c in reversed(x.poly.sorted_terms()):
        # the line factor: a twist power, times <-1> = -eps where eps
        # occurs (eps * rho = -(<-1> * rho))
        line = ring.var(theory.twist, exps[ring.index(theory.twist)])
        if theory.line and exps[ring.index(theory.line)]:
            line, c = -ring.var(theory.line) * line, -c
        s = TruncSeries(ring, N, [one, line])
        for g in theory.rank2 + x.gens:
            for _ in range(exps[ring.index(g)]):
                s = _fold_rank2(s, g, x)
        result = _normal(result * _normal(s ** c, x), x)
    return [x._wrap(a) for a in result.coeffs]     # normal forms already


def lambda_op(n: int, x: SymClass) -> SymClass:
    return lambda_series(x, n)[n]


@cache
def _waring(ring: Ring, name: str, theory, k: int):
    """p_k (k >= 1), the k-th power sum of the roots of
    1 + y*t + det*t^2, y the variable `name` and det = twist**det_power, by
    Waring's formula: p_k = sum_j (-1)^j k/(k-j) C(k-j, j) y^(k-2j) det^j."""
    iy, iw = ring.index(name), ring.index(theory.twist)
    ring.check_exponent(iy, k)
    ring.check_exponent(iw, theory.det_power * (k // 2))
    y, det = ring.step(name), theory.det_power * ring.step(theory.twist)
    return MultiPoly(ring, {
        ring.bias + (k - 2 * j) * y + j * det:
        (-1) ** j * k * comb(k - j, j) // (k - j) for j in range(k // 2 + 1)})


@cache
def _adams_image(k: int, theory, gens: tuple, quotient: bool,
                 name: str) -> MultiPoly:
    """psi^k of the variable name of context_ring(theory, gens), in the
    normal form of that context: twist^k for the twist, -(-eps)^k for the
    line variable eps, and p_k (_waring) for a rank-2 variable.  Built once
    per context, base variables included."""
    ring = context_ring(theory, gens)
    if name == theory.twist:
        image = ring.var(name, k)
    elif name == theory.line:
        image = -((-ring.var(name)) ** k)
    else:
        image = _waring(ring, name, theory, k)
    return SymClass(image, theory, gens, quotient).poly


def adams(n: int, x: SymClass) -> SymClass:
    """psi^n, a ring endomorphism: x with each variable in its support
    replaced by its image under psi^n (_adams_image, see the module
    docstring), in one MultiPoly.substitute.  Negative n is the duality
    extension: psi^n = psi^{-n} in degrees 0 mod 4, -psi^{-n} in degrees
    2 mod 4."""
    d = x.degree()
    if d is None:
        raise GradingError("adams requires homogeneous input: %s" % x)
    k = abs(n)
    if k == 0:
        return type(x).const(x.rank(), x.theory, x.gens, x.quotient)
    ring, support = x.poly.ring, x.poly.support()
    images = {name: _adams_image(k, x.theory, x.gens, x.quotient, name)
              for i, name in enumerate(ring.names) if i in support}
    out = x._lift(x.poly.substitute(images, ring))
    return -out if n < 0 and d % 4 == 2 else out


# ---------------------------------------------------------------------------
# hyperbolic classes and the documented comparison

def psi_h_closed(n: int, i: int) -> GWElem:
    """The literature's closed form for psi^n(h_{2i}(1))."""
    if n % 2:
        return GWElem.hyperbolic_unit(i * n)
    base = GWElem.hyperbolic_unit(i * n)
    extra = ((-1) ** (n // 2)) * GWElem.gamma(i * n // 2) * (1 + GWElem.eps())
    return base + extra


def psi_tau_closed(n: int) -> GWElem:
    """tau*gamma^{(n-1)/2} for odd n, 2*<-1>^{n/2}*gamma^{n/2} for even n."""
    if n % 2:
        return GWElem.tau() * GWElem.gamma((n - 1) // 2)
    return (2 * GWElem.minus_one_class() ** (n // 2)
            * GWElem.gamma(n // 2))


def check_adams_hyperbolic() -> VerificationReport:
    """Engine psi^n against the closed forms.  For even n >= 2 with even i the
    closed form's torsion bookkeeping is documented as untrusted: those cells
    are reported as mismatch-documented with both values in the payload,
    regardless of incidental agreement."""
    rep = VerificationReport("adams-hyperbolic")
    for n in range(0, 11):
        got = adams(n, GWElem.tau())
        want = psi_tau_closed(n)
        rep.add(check("psi_tau", (n,), got == want, got, want))
    for n in range(0, 6):
        for i in (0, 1, 2):
            engine = adams(n, GWElem.hyperbolic_unit(i))
            closed = psi_h_closed(n, i) if n else GWElem.from_int(2)
            match = engine == closed
            if n >= 2 and n % 2 == 0 and i % 2 == 0:
                status = MISMATCH
                note = ("closed form untrusted here; engine %s closed"
                        % ("==" if match else "!="))
            else:
                status, note = PASS if match else "fail", ""
            rep.add(ReportEntry("psi_h_1", (n, i), status, engine, closed,
                                note))
            if n % 2:
                # engine in Z*h_{2in}(1)
                target = GWElem.hyperbolic_unit(i * n)
                rank = engine.rank()
                in_span = rank % 2 == 0 and engine == rank // 2 * target
                rep.add(check("psi_h_odd_span", (n, i), in_span, engine,
                              Template("Z*%s", (target,))))
    return rep


# ---------------------------------------------------------------------------
# axiom battery

def l1_samples() -> dict:
    gens = ("u1", "u2")
    u1 = SymClass.gen("u1", gens=gens)
    u2 = SymClass.gen("u2", gens=gens)
    tau = SymClass.from_gw(GWElem.tau(), gens=gens)
    mo = SymClass.from_gw(GWElem.minus_one_class(), gens=gens)
    return {"u1": u1, "u2": u2, "tau": tau, "<-1>": mo,
            "u1*u2": u1 * u2, "u1+tau": u1 + tau}


def l2_samples() -> dict:
    gens = ("u1", "u2")
    u1 = SymClass.gen("u1", gens=gens)
    u2 = SymClass.gen("u2", gens=gens)
    tau = SymClass.from_gw(GWElem.tau(), gens=gens)
    return {"u1": u1, "u1+u2": u1 + u2, "tau+u1": tau + u1}


# check_lambda_axioms's bounds: n of lambda^n in L1, i*j in L2, n of psi^n
L1_MAX, L2_MAX, PSI_MAX = 6, 8, 4


def check_lambda_axioms() -> VerificationReport:
    rep = VerificationReport("lambda-axioms")
    samples = l1_samples()
    names = sorted(samples)
    series = {xn: lambda_series(x, L1_MAX) for xn, x in samples.items()}
    psi = {(n, xn): adams(n, x) for n in range(PSI_MAX + 1)
           for xn, x in samples.items()}

    # L1: lambda^n(xy) = P_n(lambda(x), lambda(y))
    for xi, xn in enumerate(names):
        for yn in names[xi:]:
            x, y = samples[xn], samples[yn]
            lx, ly = series[xn], series[yn]
            lxy = lambda_series(x * y, L1_MAX)
            xs, ys = [c.poly for c in lx[1:]], [c.poly for c in ly[1:]]
            for n in range(1, L1_MAX + 1):
                rhs = x._lift(symfunc.evaluate(symfunc.universal_P(n),
                                               x.poly.ring, X=xs, Y=ys))
                rep.add(check("L1", (n, xn, yn), lxy[n] == rhs, lxy[n], rhs))

    # L2: lambda^i(lambda^j(z)) = Q_{i,j}(lambda(z))
    for zn, z in sorted(l2_samples().items()):
        lz = lambda_series(z, L2_MAX)
        zs = [c.poly for c in lz[1:]]
        for j in range(1, L2_MAX + 1):
            llz = lambda_series(lz[j], L2_MAX // j)
            for i in range(1, L2_MAX // j + 1):
                lhs = llz[i]
                rhs = z._lift(symfunc.evaluate(symfunc.universal_Q(i, j),
                                               z.poly.ring, X=zs))
                rep.add(check("L2", (i, j, zn), lhs == rhs, lhs, rhs))

    # Adams: additivity, multiplicativity, composition, rank compatibility
    for n in range(0, PSI_MAX + 1):
        for xi, xn in enumerate(names):
            for yn in names[xi:]:
                x, y = samples[xn], samples[yn]
                px, py = psi[n, xn], psi[n, yn]
                pxy = adams(n, x * y)
                rep.add(check("psi_mult", (n, xn, yn), pxy == px * py))
                if x.degree() == y.degree():
                    ps = adams(n, x + y)
                    rep.add(check("psi_add", (n, xn, yn), ps == px + py))
    for m in range(1, PSI_MAX + 1):
        for n in range(1, PSI_MAX + 1):
            for xn in ("u1", "tau", "u1*u2", "<-1>"):
                x = samples[xn]
                lhs = adams(m, psi[n, xn])
                rhs = adams(m * n, x)
                rep.add(check("psi_comp", (m, n, xn), lhs == rhs, lhs, rhs))
    for xn in names:
        x = samples[xn]
        for n in range(0, PSI_MAX + 1):
            rep.add(check("psi_rank", (n, xn), psi[n, xn].rank() == x.rank()))

    # forgetful specialization intertwines the two engines
    for xn in ("u1", "tau", "u1+tau", "u1*u2"):
        x = samples[xn]
        fx = x.specialize(KTH)
        for n in range(0, PSI_MAX + 1):
            lhs = psi[n, xn].specialize(KTH)
            rhs = adams(n, fx)
            rep.add(check("forgetful_psi", (n, xn), lhs == rhs, lhs, rhs))
    return rep
