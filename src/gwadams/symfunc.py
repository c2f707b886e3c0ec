"""Symmetric-function machinery.

The universal polynomial families P_n, Q_{i,j}, R_n of products of the
shape prod(1 + t * monomial), together with a verification battery for
their closed-form specializations.

P_n and Q_{i,j} come from power sums through Newton's identities.  The
Gauss reduction of the defining product stays as an independent route:
it computes universal_R(n, "direct") and P_n at an explicit arity from the
dominant part of the product, built directly (_dominant_product) in the
output ring and never expanded, and multiplies no polynomials: it reads
each product of elementary polynomials from a table of counts of 0-1
matrices.  Q_{i,j} is checked against its product expanded (Q_stability).
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, groupby, product
from math import comb, prod

from .polyring import MultiPoly, Ring, TruncSeries, sum_of_products
from .report import VerificationReport, check


def _family_ring(prefix: str, m: int) -> Ring:
    return Ring([("%s%d" % (prefix, i), False) for i in range(1, m + 1)])


def _join_rings(*rings: Ring) -> Ring:
    pairs = []
    for r in rings:
        pairs.extend(zip(r.names, r.laurent))
    return Ring(pairs)


def elementary(polys: list, n: int) -> MultiPoly:
    """sigma_n(polys): the sum of the products of the n-element subsets of
    a nonempty list of polynomials of one ring."""
    ring = polys[0].ring
    return sum((prod(combo, start=ring.one())
                for combo in combinations(polys, n)), ring.zero())


def _reduce_dominant(work: dict, ring: Ring, targets: list[str],
                     m: int) -> MultiPoly:
    """Gauss's algorithm on the dominant part `work` of a polynomial
    symmetric in m variables U_i: work[a] = {monomial: coeff} is the
    coefficient of U^a, a partition with at most m parts written without
    its zero parts.  Returns the polynomial of `ring` in which
    targets[k - 1] stands for sigma_k(U); the monomials in work are those
    of `ring`, with exponent 0 at the targets.  Consumes `work`.

    The partitions of each size are walked in decreasing lexicographic
    order, which refines dominance.  The leading a is written as X^d,
    d_k = a_k - a_(k+1), and prod_k sigma_k^(d_k) = e_a' (a' the conjugate
    of a) is subtracted from each later b at its coefficient there."""
    xs = [ring.step(t) for t in targets]
    out: dict = {}
    for size in {sum(a) for a in work}:
        walk = list(_partitions(size, size, m))
        for i, a in enumerate(walk):
            coeffs = work.pop(a, None)
            if not coeffs:
                continue
            shift = sum(x * (p - q) for x, p, q in zip(xs, a, a[1:] + (0,)))
            for rest, c in coeffs.items():
                out[rest + shift] = c
            conj = tuple(sum(x > k for x in a)
                         for k in range(max(a, default=0)))
            for b in walk[i + 1:]:
                if count := _zero_one(conj, b):
                    group = work.setdefault(b, {})
                    for rest, c in coeffs.items():
                        group[rest] = group.get(rest, 0) - c * count
    return MultiPoly(ring, out)     # which drops the cancelled terms


def _partitions(n: int, largest: int, parts: int):
    """The partitions of n into at most `parts` parts, each at most
    `largest`, in decreasing lexicographic order."""
    if not n:
        yield ()
    elif parts:
        for k in range(min(n, largest), 0, -1):
            for rest in _partitions(n - k, k, parts - 1):
                yield (k,) + rest


@cache
def _zero_one(rows: tuple, cols: tuple) -> int:
    """The number of 0-1 matrices with row sums `rows` and column sums
    `cols`, both partitions: the coefficient of U^cols in
    prod_i sigma_(rows_i)(U) (Macdonald, Symmetric Functions and Hall
    Polynomials, I.6).  The first row puts its rows[0] ones in t of the n
    columns of each value v, in C(n, t) ways; the other rows fill what is
    left."""
    if not rows:
        return int(not cols)
    groups = [(v, len(list(g))) for v, g in groupby(cols)]
    total = 0
    for takes in product(*(range(n + 1) for _, n in groups)):
        if sum(takes) == rows[0]:
            rest = tuple(x for (v, n), t in zip(groups, takes)
                         for x in [v] * (n - t) + [v - 1] * t if x)
            total += (prod(comb(n, t) for (_, n), t in zip(groups, takes))
                      * _zero_one(rows[1:], rest))
    return total


def _dominant_product(coeffs: list, m: int, n: int) -> dict:
    """The dominant part of the t^n coefficient of prod_(i<=m) F(t U_i),
    F(s) = sum_k coeffs[k] s^k with coeffs[0] = 1 and no coeffs[k]
    involving the U_i: {lambda: terms of prod_i coeffs[lambda_i]} over the
    partitions lambda of n with at most m parts, each at most
    len(coeffs) - 1, in the layout _reduce_dominant reads.  Symmetric by
    construction."""
    if coeffs[0] != 1:
        raise ValueError("F(0) must be 1")
    return {lam: prod((coeffs[k] for k in lam), start=coeffs[0]).terms
            for lam in _partitions(n, len(coeffs) - 1, m)
            if all(coeffs[k] for k in lam)}


# ---------------------------------------------------------------------------
# universal polynomials

def ring_P(n: int) -> Ring:
    return _join_rings(_family_ring("X", n), _family_ring("Y", n))


def ring_Q(k: int) -> Ring:
    return _family_ring("X", k)


def ring_R(n: int) -> Ring:
    return _join_rings(_family_ring("X", n), _family_ring("Y", n),
                       _family_ring("Z", n))


def _exact_div(p: MultiPoly, k: int) -> MultiPoly:
    """p / k over Z; a coefficient not divisible by k raises ArithmeticError."""
    out = {}
    for key, c in p.terms.items():
        q, r = divmod(c, k)
        if r:
            raise ArithmeticError("coefficient %d of %s not divisible by %d"
                                  % (c, p, k))
        out[key] = q
    return MultiPoly(p.ring, out)


def power_sums(es: list) -> list:
    """[p_0, .., p_n] from es = [1, e_1, .., e_n], elements of any commutative
    ring, by Newton: p_k = sum_{i<k} (-1)^{i-1} e_i p_{k-i} + (-1)^{k-1} k e_k.
    p_0 is never read and is returned as 0."""
    ps = [0 * es[0]]
    for k in range(1, len(es)):
        acc = (-1) ** (k - 1) * k * es[k]
        for i in range(1, k):
            term = es[i] * ps[k - i]
            acc = acc + term if i % 2 else acc - term
        ps.append(acc)
    return ps


def _alphabet(ring: Ring, prefix: str, n: int) -> list[MultiPoly]:
    """[1, prefix1, .., prefix<n>]: the e_k of a generic alphabet."""
    return [ring.one()] + [ring.var("%s%d" % (prefix, k))
                           for k in range(1, n + 1)]


def _elementary_from_power_sums(ps: list[MultiPoly]) -> MultiPoly:
    """e_n from ps = [p_0, .., p_n] by n e_n = sum_i (-1)^{i-1} e_{n-i} p_i."""
    ring = ps[0].ring
    es = [ring.one()]
    for k in range(1, len(ps)):
        acc = sum_of_products(ring, (((-1) ** (i - 1), es[k - i], ps[i])
                                     for i in range(1, k + 1)))
        es.append(_exact_div(acc, k))
    return es[-1]


def universal_P(n: int, m: int | None = None) -> MultiPoly:
    """P_n with prod_{i,j<=m}(1+t U_i V_j) = sum t^n P_n(sigma(U), sigma(V)).

    By default P_n = e_n(XY) comes from power sums, p_k(XY) = p_k(X) p_k(Y),
    through Newton's identities.  Given an arity m >= n, it is instead
    Gauss's reduction in U of the product's dominant part: the factor
    F(s) = prod_j (1+s V_j) has coefficients sigma_k(V), which reduce to
    Y_k, so U^lambda carries prod_i Y_{lambda_i}.  Result lives in
    ring_P(n).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ring_P(0).one()
    if m is None:
        return _newton_P(n)
    if m < n:
        raise ValueError("arity m=%d below n=%d does not determine P_n" % (m, n))
    ring = ring_P(n)
    work = _dominant_product(_alphabet(ring, "Y", n), m, n)
    return _reduce_dominant(work, ring, _family_ring("X", n).names, m)


def universal_Q(i: int, j: int) -> MultiPoly:
    """Q_{i,j} with prod_{a1<..<aj<=m}(1+U_{a1}..U_{aj} t) = sum t^i Q_{i,j}.

    Q_{i,j} = e_i(lambda^j X) comes from power sums,
    p_k(lambda^j X) = e_j(X^k), with e_j(X^k) built by Newton's identities
    from p_k, p_2k, .., p_jk of X.  Result lives in ring_Q(ij).
    """
    if i < 0 or j < 1:
        raise ValueError("need i >= 0 and j >= 1")
    if i == 0:
        return ring_Q(i * j).one()
    return _newton_Q(i, j)


@cache
def _newton_P(n: int) -> MultiPoly:
    ring = ring_P(n)
    px = power_sums(_alphabet(ring, "X", n))
    py = power_sums(_alphabet(ring, "Y", n))
    return _elementary_from_power_sums([a * b for a, b in zip(px, py)])


@cache
def _newton_Q(i: int, j: int) -> MultiPoly:
    ring = ring_Q(i * j)
    px = power_sums(_alphabet(ring, "X", i * j))
    pl = [ring.zero()] + [_elementary_from_power_sums(px[0:j * k + 1:k])
                          for k in range(1, i + 1)]
    return _elementary_from_power_sums(pl)


def universal_R(n: int, method: str = "composed", m: int | None = None) -> MultiPoly:
    """R_n for triple products, in ring_R(n).

    method "direct": prod_{i,j,k<=m}(1+t U_i V_j W_k) = prod_i F(t U_i) with
    F(s) = prod_{j,k}(1+s V_j W_k), whose coefficient F_k reduces in V and
    W to universal_P(k, m) in (Y, Z); Gauss's reduction in U of the dominant
    part, U^lambda carrying prod_i F_{lambda_i}.  method "composed":
    R_n = P_n(X, P_1(Y,Z), ..., P_n(Y,Z)), which takes no arity m.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if method not in ("direct", "composed"):
        raise ValueError("method must be 'direct' or 'composed'")
    if method == "composed" and m is not None:
        raise ValueError("arity m=%d with method 'composed': only method "
                         "'direct' takes an arity" % m)
    if n == 0:
        return ring_R(0).one()
    mm = n if m is None else m
    if mm < n:
        raise ValueError("arity m=%d below n=%d" % (mm, n))
    return _direct_R(n, mm) if method == "direct" else _composed_R(n)


def _yz(n: int) -> dict:
    """The renaming that reads P_k(X, Y) as a polynomial in (Y, Z)."""
    return {"X%d" % s: "Y%d" % s for s in range(1, n + 1)} | {
        "Y%d" % s: "Z%d" % s for s in range(1, n + 1)}


@cache
def _direct_R(n: int, m: int) -> MultiPoly:
    ring = ring_R(n)
    F = [ring.one()] + [universal_P(k, m).rename(ring, _yz(n))
                        for k in range(1, n + 1)]
    return _reduce_dominant(_dominant_product(F, m, n), ring,
                            _family_ring("X", n).names, m)


@cache
def _composed_R(n: int) -> MultiPoly:
    target = ring_R(n)
    return evaluate(universal_P(n), target,
                    X=[target.var("X%d" % k) for k in range(1, n + 1)],
                    Y=[universal_P(k).rename(target, _yz(n))
                       for k in range(1, n + 1)])


# ---------------------------------------------------------------------------
# closed-form specializations and the verification battery

def ell_args(x: MultiPoly, count: int) -> list[MultiPoly]:
    """The specialization ell_i(x): x, 1, 0, 0, ... (i = 1..count)."""
    ring = x.ring
    out = [x, ring.one()] + [ring.zero()] * max(0, count - 2)
    return out[:count]


def evaluate(p: MultiPoly, target: Ring, **families) -> MultiPoly:
    """A universal polynomial at classes of `target`: each variable F<k> of
    p (X1, Y2, Z3, ...) goes to families[F][k - 1], or to 0 where that
    list is shorter or F is not given."""
    bind = dict.fromkeys(p.ring.names, target.zero())
    for family, vals in families.items():
        bind.update(("%s%d" % (family, k), v) for k, v in enumerate(vals, 1))
    return p.substitute(bind, target)


def rxy_closed(n: int, x: MultiPoly, y: MultiPoly) -> MultiPoly:
    ring = x.ring
    if n in (0, 4):
        return ring.one()
    if n in (1, 3):
        return x * y
    if n == 2:
        return x * x + y * y - 2
    return ring.zero()


def r_abc_closed(n: int, x: MultiPoly, y: MultiPoly, z: MultiPoly) -> MultiPoly:
    ring = x.ring
    if n in (0, 8):
        return ring.one()
    if n in (1, 7):
        return x * y * z
    if n in (2, 6):
        return (x * x * y * y + x * x * z * z + y * y * z * z
                - 2 * (x * x + y * y + z * z) + 4)
    if n in (3, 5):
        return (x ** 3 * y * z + x * y ** 3 * z + x * y * z ** 3
                - 5 * x * y * z)
    if n == 4:
        return (x ** 4 + y ** 4 + z ** 4 + x ** 2 * y ** 2 * z ** 2
                - 4 * (x ** 2 + y ** 2 + z ** 2) + 6)
    return ring.zero()


def rz_closed(i: int, j: int, x: MultiPoly) -> MultiPoly:
    ring = x.ring
    if i == 0:
        return ring.one()
    if j == 1:
        if i == 1:
            return x
        if i == 2:
            return ring.one()
        return ring.zero()
    if i == 1 and j == 2:
        return ring.one()
    return ring.zero()


def _line_product(ring: Ring, monos, order: int) -> TruncSeries:
    """prod_x (1 + x t) mod t^(order+1) over the polynomials monos of ring."""
    out = TruncSeries.one(ring, order)
    for x in monos:
        out = out * TruncSeries(ring, order, [ring.one(), x])
    return out


def _pi_poly(ring: Ring, unit_names: list[str]) -> MultiPoly:
    """pi_{a_1..a_r}(t): the product of (1 + t * a_1^{e_1}...a_r^{e_r}) over
    all sign vectors e in {1,-1}^r, a polynomial in the ring's variable t."""
    out = ring.one()
    for signs in product((1, -1), repeat=len(unit_names)):
        mono = ring.monomial(1, dict(zip(unit_names, signs)) | {"t": 1})
        out = out * (ring.one() + mono)
    return out


def check_appendix_b() -> VerificationReport:
    """Verify the universal-polynomial lemmas: closed forms, degree bounds,
    composition, stability, and the Laurent-substitution cross-routes."""
    rep = VerificationReport("appendix-b")

    # stability in the arity; Q_{i,j} against its product at arity ij, which
    # fixes it at every arity, as setting variables to 0 is injective on
    # symmetric polynomials of degree d in d or more variables (Macdonald I.2)
    for n in range(1, 5):
        hi = universal_P(n, m=n + 1)
        rep.add(check("P_stability", (n,), hi == universal_P(n),
                      universal_P(n), hi))
    for i, j in sorted((i, j) for i in range(1, 7) for j in range(1, 7)
                       if 1 <= i * j <= 6):
        src = _family_ring("U", i * j)
        us = [src.var(u) for u in src.names]
        direct = _line_product(src, [prod(c) for c in combinations(us, j)], i)
        es = _line_product(src, us, i * j)
        back = evaluate(universal_Q(i, j), src, X=es.coeffs[1:])
        rep.add(check("Q_stability", (i, j), direct[i] == back))
    for n in range(1, 4):
        rep.add(check("R_stability", (n,), universal_R(n, "direct", m=n + 1)
                      == universal_R(n, "direct")))

    # round-trip: re-expanding the reduced form reproduces the product
    for n in range(1, 4):
        src = _join_rings(_family_ring("U", n), _family_ring("V", n))
        us, vs = ([src.var("%s%d" % (f, k)) for k in range(1, n + 1)]
                  for f in "UV")
        direct = _line_product(src, [u * v for u in us for v in vs], n)
        back = universal_P(n).substitute(
            {"X%d" % k: elementary(us, k) for k in range(1, n + 1)}
            | {"Y%d" % k: elementary(vs, k) for k in range(1, n + 1)}, src)
        rep.add(check("P_round_trip", (n,), direct[n] == back))

    # R_P: direct vs composed
    for n in range(1, 4):
        d = universal_R(n, "direct")
        c = universal_R(n, "composed")
        rep.add(check("R_P", (n,), d == c, d, c))

    # pi recursion: pi_{a,b,c}(t) = pi_{a,b}(tc) * pi_{a,b}(tc^{-1})
    labc = Ring([("a", True), ("b", True), ("c", True), ("t", False)])
    pab_t = _pi_poly(labc, ["a", "b"])
    lhs = _pi_poly(labc, ["a", "b", "c"])
    rhs = (pab_t.substitute({"t": labc.var("t") * labc.var("c")}, labc)
           * pab_t.substitute({"t": labc.var("t") * labc.var("c", -1)}, labc))
    rep.add(check("pi_recursion", (), lhs == rhs))

    # eq. pi_ab: expansion of pi_{a,b} matches the displayed quartic
    lab = Ring([("a", True), ("b", True), ("t", False)])
    x = lab.var("a") + lab.var("a", -1)
    y = lab.var("b") + lab.var("b", -1)
    t = lab.var("t")
    display = (lab.one() + t * x * y + t ** 2 * (x * x + y * y - 2)
               + t ** 3 * x * y + t ** 4)
    rep.add(check("pi_ab", (), _pi_poly(lab, ["a", "b"]) == display))

    # RXY: P_n at ell-values, symbolic route and Laurent route
    rxy = Ring([("x", False), ("y", False)])
    xs, ys = (ell_args(rxy.var(v), 4) for v in "xy")
    for n in range(0, 5):
        got = evaluate(universal_P(n), rxy, X=xs, Y=ys)
        want = rxy_closed(n, rxy.var("x"), rxy.var("y"))
        rep.add(check("RXY", (n,), got == want, got, want))
    pab = _pi_poly(lab, ["a", "b"])
    lr = Ring([("a", True), ("b", True)])
    for n in range(0, 5):
        got = pab.coefficient("t", n).rename(lr)
        want = rxy_closed(n, lr.var("a") + lr.var("a", -1),
                          lr.var("b") + lr.var("b", -1))
        rep.add(check("RXY_laurent", (n,), got == want))

    # RB: P_n(r, ell(B)) - B^n r_n has B-degree <= n-1
    for n in range(1, 5):
        rb = Ring([("r%d" % k, False) for k in range(1, n + 1)] + [("B", False)])
        rs = [rb.var("r%d" % k) for k in range(1, n + 1)]
        got = evaluate(universal_P(n), rb, X=rs, Y=ell_args(rb.var("B"), n))
        rem = got - rb.var("B") ** n * rs[n - 1]
        rep.add(check("RB", (n,), rem.is_zero() or rem.degree_in("B") <= n - 1,
                      got, note="degree bound"))

    # RZ: Q_{i,j} at ell-values
    rx = Ring([("x", False)])
    for i, j in sorted((i, j) for i in range(0, 7) for j in range(1, 7)
                       if i * j <= 6):
        got = evaluate(universal_Q(i, j), rx,
                       X=ell_args(rx.var("x"), max(i * j, 2)))
        want = rz_closed(i, j, rx.var("x"))
        rep.add(check("RZ", (i, j), got == want, got, want))

    # R_abc: symbolic route for n <= 4, pi-route for all n <= 8
    rxyz = Ring([("x", False), ("y", False), ("z", False)])
    exs, eys, ezs = (ell_args(rxyz.var(v), 4) for v in "xyz")
    for n in range(0, 5):
        got = evaluate(universal_R(n), rxyz, X=exs, Y=eys, Z=ezs)
        want = r_abc_closed(n, rxyz.var("x"), rxyz.var("y"), rxyz.var("z"))
        rep.add(check("R_abc", (n,), got == want, got, want))
    pabc = _pi_poly(labc, ["a", "b", "c"])
    lr3 = Ring([("a", True), ("b", True), ("c", True)])
    for n in range(0, 9):
        got = pabc.coefficient("t", n).rename(lr3)
        want = r_abc_closed(n, lr3.var("a") + lr3.var("a", -1),
                            lr3.var("b") + lr3.var("b", -1),
                            lr3.var("c") + lr3.var("c", -1))
        rep.add(check("R_abc_laurent", (n,), got == want))

    # one-dimensional classes: Q_{i,j}(x, 0, ...) and P_n(f, x, 0, ...)
    for i, j in sorted((i, j) for i in range(1, 7) for j in range(1, 7)
                       if i * j <= 6):
        got = evaluate(universal_Q(i, j), rx, X=[rx.var("x")])
        want = rx.var("x") if (i == 1 and j == 1) else rx.zero()
        rep.add(check("lambda_dim1", (i, j), got == want, got, want))
    for n in range(1, 5):
        rf = Ring([("f%d" % k, False) for k in range(1, n + 1)] + [("x", False)])
        fs = [rf.var("f%d" % k) for k in range(1, n + 1)]
        got = evaluate(universal_P(n), rf, X=fs, Y=[rf.var("x")])
        want = fs[n - 1] * rf.var("x") ** n
        rep.add(check("product_dim1", (n,), got == want, got, want))

    return rep


def check_appendix_a() -> VerificationReport:
    """The group of one-units in t, line classes, and power scaling.

    Entries: series_inverse/series_assoc/series_comm on six seeded random
    triples of truncated series with constant term 1; line_product
    comparing coefficients of prod(1 + x_j t), 1 <= j <= k <= 4, with the
    elementary symmetric polynomials; and
    power_scaling comparing the t^n coefficient of prod(1 + y_j x^i t)
    with e_n(y) x^{ni}.
    """
    import random

    rep = VerificationReport("appendix-a")
    rng = random.Random(20240820)
    ring = _family_ring("s", 3)
    order = 6

    def random_one_unit():
        coeffs = [ring.one()]
        for _ in range(order):
            terms = {}
            for _ in range(rng.randrange(0, 3)):
                exps = tuple(rng.randrange(0, 3) for _ in range(3))
                terms[ring.pack(exps)] = rng.randrange(-4, 5)
            coeffs.append(MultiPoly(ring, terms))
        return TruncSeries(ring, order, coeffs)

    one = TruncSeries.one(ring, order)
    for k in range(6):
        f, g, h = (random_one_unit() for _ in range(3))
        rep.add(check("series_inverse", (k,), f * f.inverse() == one))
        rep.add(check("series_assoc", (k,), (f * g) * h == f * (g * h)))
        rep.add(check("series_comm", (k,), f * g == g * f))

    for k in range(1, 5):
        lines = _family_ring("x", k)
        xs = [lines.var(x) for x in lines.names]
        got = _line_product(lines, xs, k + 1)
        for n in range(0, k + 2):
            want = elementary(xs, n)
            rep.add(check("line_product", (k, n), got[n] == want,
                          got[n], want))

    for i in (1, 2, -1):
        amb = _join_rings(_family_ring("y", 3), Ring([("x", True)]))
        x = amb.var("x", i)
        ys = [amb.var("y%d" % j) for j in range(1, 4)]
        got = _line_product(amb, [y * x for y in ys], 3)
        for n in range(1, 4):
            want = elementary(ys, n) * amb.var("x", n * i)
            rep.add(check("power_scaling", (n, i), got[n] == want,
                          got[n], want))
    return rep
