"""Reference mathematics for checking gwadams outputs.

Everything here is written from the definitions and shares no code with
`src/gwadams`: integer evaluation of the defining products of the universal
polynomials, a small model of the coefficient ring Z[eps, tau, gamma^{+-1}],
the paper's closed forms for psi^n(tau) and omega(n), and the rational forms
calculus (minors, permanents, Kronecker products, Hilbert symbols).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import prod

# ---------------------------------------------------------------------------
# universal polynomials: evaluate the program's JSON at integer roots


def elementary(values, k: int) -> int:
    """e_k(values); e_0 = 1 and e_k = 0 for k > len(values)."""
    e = [1] + [0] * k
    for v in values:
        for i in range(k, 0, -1):
            e[i] += e[i - 1] * v
    return e[k]


def eval_poly_obj(obj: dict, point: dict) -> int:
    """Evaluate a polynomial given as {"vars": [...], "terms": [...]}."""
    names = [v["name"] for v in obj["vars"]]
    values = [point.get(n, 0) for n in names]
    total = 0
    for term in obj["terms"]:
        m = int(term["coeff"])
        for v, e in zip(values, term["exps"]):
            if e:
                m *= v ** e
        total += m
    return total


def universal_point(kind: str, idx: tuple, rng):
    """A random integer point and the value the defining product gives there.

    P_n:    [t^n] prod_{i,j<=n} (1 + t u_i v_j) at X_k = e_k(u), Y_k = e_k(v).
    Q_{i,j}: [t^i] prod_{a_1<..<a_j<=ij} (1 + t u_{a_1}..u_{a_j}) at X_k = e_k(u).
    R_n:    [t^n] prod_{i,j,k<=n} (1 + t u_i v_j w_k) at X, Y, Z = e(u), e(v), e(w).
    """
    def roots(m):
        return [rng.randint(-3, 3) for _ in range(m)]

    if kind == "Q":
        i, j = idx
        m = i * j
        u = roots(m)
        point = {"X%d" % k: elementary(u, k) for k in range(1, m + 1)}
        return point, elementary([prod(c) for c in combinations(u, j)], i)
    n = idx[0]
    fams = [roots(n) for _ in range(2 if kind == "P" else 3)]
    point = {}
    for name, fam in zip("XYZ", fams):
        point.update({"%s%d" % (name, k): elementary(fam, k)
                      for k in range(1, n + 1)})
    if kind == "P":
        weights = [a * b for a in fams[0] for b in fams[1]]
    else:
        weights = [a * b * c for a in fams[0] for b in fams[1] for c in fams[2]]
    return point, elementary(weights, n)


def universal_ok(kind: str, idx: tuple, obj: dict, rng, points: int = 3) -> bool:
    for _ in range(points):
        point, want = universal_point(kind, idx, rng)
        if eval_poly_obj(obj, point) != want:
            return False
    return True


# ---------------------------------------------------------------------------
# the coefficient ring: a + b*eps + c*tau with a, b, c Laurent in gamma,
# extended by polynomial generators.  Keys are (gen exponents, part, gamma
# exponent) with part 0 = 1, 1 = eps, 2 = tau.

ONE, EPS, TAU = 0, 1, 2


def _part_product(p: int, q: int):
    """[(part, gamma shift, coefficient)] of basis element p times q."""
    if p == TAU and q == TAU:        # tau^2 = 2 gamma - 2 gamma eps
        return [(ONE, 1, 2), (EPS, 1, -2)]
    if TAU in (p, q):                # eps tau = -tau
        return [(TAU, 0, -1 if EPS in (p, q) else 1)]
    return [(p ^ q, 0, 1)]           # eps^2 = 1


class GW:
    """Element of Z[eps, tau, gamma^{+-1}][gens] in normal form."""

    __slots__ = ("ngens", "terms")

    def __init__(self, ngens: int, terms=None):
        self.ngens = ngens
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    @classmethod
    def const(cls, ngens: int, c: int = 1, part: int = ONE, g: int = 0):
        return cls(ngens, {((0,) * ngens, part, g): c})

    @classmethod
    def gen(cls, ngens: int, i: int):
        u = [0] * ngens
        u[i] = 1
        return cls(ngens, {(tuple(u), ONE, 0): 1})

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return GW(self.ngens, out)

    def __neg__(self):
        return GW(self.ngens, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return GW(self.ngens, {k: c * other for k, c in self.terms.items()})
        out: dict = {}
        for (u1, p1, g1), c1 in self.terms.items():
            for (u2, p2, g2), c2 in other.terms.items():
                u = tuple(a + b for a, b in zip(u1, u2))
                for p, dg, s in _part_product(p1, p2):
                    k = (u, p, g1 + g2 + dg)
                    out[k] = out.get(k, 0) + s * c1 * c2
        return GW(self.ngens, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, GW) and self.terms == other.terms

    def reduce_quotient(self):
        """Impose (u - tau)^2 = 0 on a single generator u."""
        u = GW.gen(1, 0)
        tau = GW.const(1, part=TAU)
        rel = 2 * tau * u - tau * tau          # u^2
        done = GW(1)
        work = self
        while work.terms:
            low, high = {}, GW(1)
            for (ue, p, g), c in work.terms.items():
                if ue[0] >= 2:
                    high = high + GW(1, {((ue[0] - 2,), p, g): c}) * rel
                else:
                    low[(ue, p, g)] = c
            done = done + GW(1, low)
            work = high
        return done


def power_sum(y: GW, n: int) -> GW:
    """psi^n of a rank-2 class y with lambda^2(y) = gamma: the n-th power
    sum of the roots of 1 + y t + gamma t^2 (p_0 = 2, p_1 = y)."""
    gamma = GW.const(y.ngens, g=1)
    prev, cur = GW.const(y.ngens, 2), y
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, y * cur - gamma * prev
    return cur


def psi_tau_closed(n: int) -> GW:
    """tau gamma^{(n-1)/2} for odd n, 2 <-1>^{n/2} gamma^{n/2} for even n."""
    if n % 2:
        return GW.const(0, part=TAU, g=(n - 1) // 2)
    sign_eps = GW.const(0, 1 if (n // 2) % 2 == 0 else -1,
                        ONE if (n // 2) % 2 == 0 else EPS)   # (-eps)^{n/2}
    return sign_eps * GW.const(0, 2, g=n // 2)


def omega_closed(n: int) -> GW:
    """(n^2/2) tau gamma^{(n-2)/2} for even n > 0, and
    n ((n-1)/2 h + <-1>^{(n-1)/2}) gamma^{(n-1)/2} for odd n, h = 1 - eps."""
    if n == 0:
        return GW(0)
    if n % 2 == 0:
        return GW.const(0, n * n // 2, TAU, (n - 2) // 2)
    m = (n - 1) // 2
    h = GW.const(0) - GW.const(0, part=EPS)
    minus_one_pow = GW.const(0, 1 if m % 2 == 0 else -1, ONE if m % 2 == 0 else EPS)
    return (h * m + minus_one_pow) * n * GW.const(0, g=m)


def adams_expected(target: str, n: int) -> GW:
    """psi^n of a named CLI target, from the ring-homomorphism property."""
    if target == "tau":
        return psi_tau_closed(n)
    if target == "gamma":
        return GW.const(0, g=n)
    neg_eps_n = GW.const(0, 1 if n % 2 == 0 else -1, ONE if n % 2 == 0 else EPS)
    if target == "eps":                       # psi^n(-<-1>) = -<-1>^n
        return -neg_eps_n
    if target == "h":                         # h = 1 + <-1>
        return GW.const(0) + neg_eps_n
    tau1 = GW.const(1, part=TAU)
    psi_u = power_sum(GW.gen(1, 0), n)
    if target == "u":
        return psi_u.reduce_quotient()
    if target == "u-tau":
        return (psi_u - power_sum(tau1, n)).reduce_quotient()
    if target == "u1u2u3":
        out = GW.const(3)
        for i in range(3):
            out = out * power_sum(GW.gen(3, i), n)
        return out
    raise ValueError("unknown target %r" % target)


def gw_from_obj(obj: dict, ngens: int) -> GW:
    """Parse the program's class JSON: components with gmin and a/b/c lists."""
    terms: dict = {}
    for comp in obj["components"]:
        ue = tuple(comp.get("u_exps", [0] * ngens))
        g0 = int(comp.get("gmin", 0))
        for part, key in ((ONE, "a"), (EPS, "b"), (TAU, "c")):
            for k, c in enumerate(comp.get(key, [])):
                if c:
                    kk = (ue, part, g0 + k)
                    terms[kk] = terms.get(kk, 0) + int(c)
    return GW(ngens, terms)


U1U2U3 = {"theory": "gw", "gens": ["u1", "u2", "u3"], "quotient": False,
          "components": [{"deg": 0, "gmin": 0, "a": [1], "b": [0], "c": [0],
                          "u_exps": [1, 1, 1]}]}

# ---------------------------------------------------------------------------
# rational forms


def det(m) -> Fraction:
    """Determinant by fraction Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return out


def permanent(m) -> Fraction:
    n = len(m)
    return sum((prod((m[i][p[i]] for i in range(n)), start=Fraction(1))
                for p in permutations(range(n))), Fraction(0))


def ext_power(mat, n: int):
    basis = list(combinations(range(len(mat)), n))
    return [[det([[mat[i][j] for j in t] for i in s]) for t in basis]
            for s in basis]


def sym_power(mat, n: int):
    basis = list(combinations_with_replacement(range(len(mat)), n))
    return [[permanent([[mat[i][j] for j in t] for i in s]) for t in basis]
            for s in basis]


def kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def direct_sum(a, b):
    n, m = len(a), len(b)
    return ([list(r) + [Fraction(0)] * m for r in a]
            + [[Fraction(0)] * n + list(r) for r in b])


def matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def transpose(a):
    return [list(r) for r in zip(*a)]


def hyperbolic(r: int, s: int):
    n = 2 * r
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(r):
        m[i][r + i] = Fraction(1)
        m[r + i][i] = Fraction(s)
    return m


def matrix_key(mat, sym: int) -> str:
    """Canonical text of a Gram matrix, used to compare outputs exactly."""
    return "%d|%s" % (sym, ";".join(",".join(str(Fraction(x)) for x in row)
                                   for row in mat))


class Scalar:
    """A nonzero rational with its known factorisation sign * prod p^e."""

    __slots__ = ("sign", "exps")

    def __init__(self, sign: int, exps: dict):
        self.sign = sign
        self.exps = {p: e for p, e in exps.items() if e}

    def value(self) -> Fraction:
        v = Fraction(self.sign)
        for p, e in self.exps.items():
            v *= Fraction(p) ** e
        return v

    def __mul__(self, other):
        exps = dict(self.exps)
        for p, e in other.exps.items():
            exps[p] = exps.get(p, 0) + e
        return Scalar(self.sign * other.sign, exps)

    def squarefree(self) -> int:
        return self.sign * prod(p for p, e in self.exps.items() if e % 2)


def _legendre(u: int, p: int) -> int:
    return 1 if pow(u % p, (p - 1) // 2, p) == 1 else -1


def hilbert(a: int, b: int, v) -> int:
    """(a, b)_v for squarefree integers a, b (Serre, III.1.2)."""
    if v == "inf":
        return -1 if a < 0 and b < 0 else 1
    alpha, u = (1, a // v) if a % v == 0 else (0, a)
    beta, w = (1, b // v) if b % v == 0 else (0, b)
    if v == 2:
        def eps(x):
            return ((x - 1) // 2) % 2

        def omega(x):
            return ((x * x - 1) // 8) % 2
        e = eps(u) * eps(w) + alpha * omega(w) + beta * omega(u)
        return -1 if e % 2 else 1
    s = -1 if alpha * beta and v % 4 == 3 else 1
    if beta:
        s *= _legendre(u, v)
    if alpha:
        s *= _legendre(w, v)
    return s


def invariants(diag) -> dict:
    """Rank, signature, discriminant and the places with Hasse symbol -1 of
    the diagonal form <d_1, ..., d_r> (d_i given as Scalars)."""
    sq = [d.squarefree() for d in diag]
    places = {2, "inf"} | {p for d in diag for p, e in d.exps.items() if e % 2}
    neg = []
    for v in places:
        s = 1
        for i in range(len(sq)):
            for j in range(i + 1, len(sq)):
                s *= hilbert(sq[i], sq[j], v)
        if s == -1:
            neg.append(str(v))
    total = Scalar(1, {})
    for d in diag:
        total = total * d
    return {"rank": len(diag), "signature": sum(1 if d.sign > 0 else -1 for d in diag),
            "disc": total.squarefree() if diag else 1, "neg_places": sorted(neg)}


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
