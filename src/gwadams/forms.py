"""Exact bilinear-form calculus over Q.

Gram-matrix constructions (exterior, symmetric and tensor powers,
hyperbolic forms), congruence witnesses for the exterior-power isometries,
and comparison of classes in GW(Q) through the classical complete
invariant set (rank, signature, discriminant square class, Hasse symbols).
A form is integer rows over one denominator; Fractions appear only at
input and output.
"""

from __future__ import annotations

import json
import random
import re
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, gcd, isqrt, lcm, prod
from operator import getitem, mul
from typing import NamedTuple

from .report import VerificationReport, check


_DECIMAL = re.compile(r"-?[0-9]+")


class DegeneracyError(ValueError):
    pass


class WitnessError(ValueError):
    pass


def _frac(x):
    """An exact rational, an int or a Fraction, from an int, a Fraction or a
    string such as "3/4"; floats, booleans and zero denominators are
    refused.  Ints and integer strings never load the fractions module."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str) and _DECIMAL.fullmatch(x):
        return int(x)
    from fractions import Fraction
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError("zero denominator: %r" % (x,))
    raise ValueError("not an exact rational: %r" % (x,))


class GramForm:
    """Square rational Gram matrix with symmetry type +1 or -1, held as
    integer rows over one positive denominator in lowest terms: the Gram
    matrix is rows / den."""

    __slots__ = ("rows", "den", "sym")

    def __init__(self, matrix, sym: int = 1):
        if sym not in (1, -1):
            raise ValueError("sym must be +1 or -1")
        if not isinstance(matrix, (list, tuple)) or not all(
                isinstance(row, (list, tuple)) for row in matrix):
            raise ValueError("matrix must be a list of rows")
        m = [[_frac(x) for x in row] for row in matrix]
        if any(len(r) != len(m) for r in m):
            raise ValueError("matrix must be square")
        f = _gram(*_integral(m), sym)
        if tuple(zip(*f.rows)) != (f.rows if sym == 1 else tuple(
                tuple(-x for x in row) for row in f.rows)):
            raise ValueError("matrix is not %s-symmetric" % sym)
        self.rows, self.den, self.sym = f.rows, f.den, f.sym

    # -- constructors -------------------------------------------------------

    @staticmethod
    def diagonal(entries) -> "GramForm":
        es = list(entries)
        return GramForm([[e if i == j else 0 for j in range(len(es))]
                         for i, e in enumerate(es)], 1)

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def matrix(self) -> tuple:
        """The Gram matrix as Fractions, for input and output."""
        from fractions import Fraction
        return tuple(tuple(Fraction(x, self.den) for x in row)
                     for row in self.rows)

    def det(self) -> Fraction:
        from fractions import Fraction
        return Fraction(_int_det(list(self.rows)), self.den ** self.rank)

    def is_nondegenerate(self) -> bool:
        return _int_det(list(self.rows)) != 0

    def __eq__(self, other):
        return (isinstance(other, GramForm) and self.sym == other.sym
                and self.den == other.den and self.rows == other.rows)

    def __hash__(self):
        return hash((self.sym, self.den, self.rows))

    def __repr__(self):
        kind = "symmetric" if self.sym == 1 else "skew"
        return "GramForm(%s, %s)" % (kind, [list(map(str, r))
                                            for r in self.matrix])

    # -- JSON ---------------------------------------------------------------

    def to_obj(self) -> dict:
        return {"sym": "symmetric" if self.sym == 1 else "skew",
                "matrix": [[str(x) for x in row] for row in self.matrix]}

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_obj(obj: dict) -> "GramForm":
        if not isinstance(obj, dict):
            raise ValueError("a Gram form document must be a JSON object")
        kind = obj.get("sym")
        if kind not in ("symmetric", "skew"):
            raise ValueError('sym must be "symmetric" or "skew"%s' % (
                ", got %s" % json.dumps(kind) if "sym" in obj else ""))
        return GramForm(obj.get("matrix"), 1 if kind == "symmetric" else -1)

    @staticmethod
    def from_json(s: str) -> "GramForm":
        return GramForm.from_obj(json.loads(s))


def _gram(rows, den: int, sym: int) -> GramForm:
    """The form rows / den for square sym-symmetric integer rows and a
    positive den, reduced to lowest terms.  Only GramForm checks the
    symmetry: every construction below keeps it."""
    g = gcd(den, *(x for row in rows for x in row))
    rows = tuple(tuple(x // g for x in row) if g > 1 else tuple(row)
                 for row in rows)
    f = GramForm.__new__(GramForm)
    f.rows, f.den, f.sym = rows, den // g, sym
    return f


# ---------------------------------------------------------------------------
# matrix helpers
#
# A form is integer rows over one denominator, so determinants, minors,
# permanents, products and the symmetric elimination behind the invariants
# run on integers; Fractions appear only at input and output.  A rational
# matrix from outside (a constructor's input, a congruence witness or base
# change B) is scaled once by the least common denominator of its entries.
# Determinants and the symmetric elimination share Bareiss's step
# (p*x - a*y) // prev, whose division is exact.

def _integral(m):
    """(integer rows, d) with d the least common denominator of the entries
    of m, so that m = rows / d; the rows and d have no common factor."""
    d = lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in m], d


def _int_det(m) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination: every division by the previous pivot is exact."""
    sign, prev = 1, 1
    while len(m) > 1:
        for r, row in enumerate(m):
            if row[0]:
                break
        else:
            return 0
        if r:
            m = m[:]
            m[0], m[r] = m[r], m[0]
            sign = -sign
        top = m[0]
        p, t = top[0], top[1:]
        rest = []
        for row in m[1:]:
            a = row[0]
            rest.append([(p * x - a * y) // prev for x, y in zip(row[1:], t)])
        m, prev = rest, p
    return sign * m[0][0] if m else 1


def _int_permanent(m) -> int:
    return sum(prod(map(getitem, m, perm))
               for perm in permutations(range(len(m))))


def _minors(M, subsets, fn, sign: int = 0):
    """[[fn(M[S][T]) for T in subsets] for S in subsets] for an integer
    matrix M and an integer function fn of square matrices.  A nonzero sign
    says that fn(M[T][S]) = sign * fn(M[S][T]), as for the minors and
    permanents of a sym-symmetric M with sign = sym^n: then only the entries
    with T at or after S are computed and the rest are mirrored."""
    out = []
    for i, S in enumerate(subsets):
        rows = [M[k] for k in S]
        head = [sign * row[i] for row in out] if sign else []
        out.append(head + [fn([[r[j] for j in T] for r in rows])
                           for T in subsets[len(head):]])
    return out


def _int_mul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def _base_change(Bi, d: int, f: GramForm) -> GramForm:
    """The form B^T * Gram(f) * B for the possibly rectangular B = Bi / d,
    Bi an integer matrix."""
    return _gram(_int_mul(_transpose(Bi), _int_mul(f.rows, Bi)),
                 d * d * f.den, f.sym)


# ---------------------------------------------------------------------------
# constructions

def _compound(M, n: int):
    """The n-th compound matrix of a square integer matrix: its n x n
    minors on the sorted-tuple basis."""
    return _minors(M, list(combinations(range(len(M)), n)), _int_det)


def ext_power(f: GramForm, n: int) -> GramForm:
    """n-th exterior power on the sorted-tuple basis; entries are minors."""
    if not 0 <= n <= f.rank:
        raise IndexError("n out of range")
    basis = list(combinations(range(f.rank), n))
    return _gram(_minors(f.rows, basis, _int_det, f.sym ** n), f.den ** n,
                 f.sym ** n)


def sym_power(f: GramForm, n: int) -> GramForm:
    """n-th symmetric power on the monomial basis, unnormalized pairing
    (entries are permanents)."""
    if not 0 <= n <= f.rank:
        raise IndexError("n out of range")
    basis = list(combinations_with_replacement(range(f.rank), n))
    return _gram(_minors(f.rows, basis, _int_permanent, f.sym ** n),
                 f.den ** n, f.sym ** n)


def tensor(f: GramForm, g: GramForm) -> GramForm:
    return _gram([[x * y for x in fr for y in gr]
                  for fr in f.rows for gr in g.rows],
                 f.den * g.den, f.sym * g.sym)


def direct_sum(f: GramForm, g: GramForm) -> GramForm:
    if f.sym != g.sym:
        raise TypeError("direct sum requires equal symmetry types")
    d = lcm(f.den, g.den)
    a, b = d // f.den, d // g.den
    rows = [[a * x for x in row] + [0] * g.rank for row in f.rows]
    rows += [[0] * f.rank + [b * x for x in row] for row in g.rows]
    return _gram(rows, d, f.sym)


def scale(a, f: GramForm) -> GramForm:
    a = _frac(a)
    if a == 0:
        raise ValueError("scale factor must be nonzero")
    return _gram([[a.numerator * x for x in row] for row in f.rows],
                 a.denominator * f.den, f.sym)


def dual(f: GramForm) -> GramForm:
    """The form (F^-1)^T: for F = rows / den it is den * cof(rows) / det(rows),
    cof the matrix of cofactors."""
    D = _int_det(list(f.rows))
    if not D:
        raise DegeneracyError("dual of a degenerate form")
    s = f.den if D > 0 else -f.den
    cof = [[(-1) ** (i + j) * s * _int_det(
        [r[:j] + r[j + 1:] for k, r in enumerate(f.rows) if k != i])
        for j in range(f.rank)] for i in range(f.rank)]
    return _gram(cof, abs(D), f.sym)


def hyperbolic(r: int, delta: str) -> GramForm:
    """H_delta of a trivial rank-r bundle: [[0, I], [±I, 0]]."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    if delta not in ("+", "-"):
        raise ValueError("delta must be '+' or '-'")
    s = 1 if delta == "+" else -1
    return _gram([[(j == i + r) + s * (i == j + r) for j in range(2 * r)]
                  for i in range(2 * r)], 1, s)


def check_congruence(B, f: GramForm, g: GramForm) -> bool:
    """Exact test of B^T * Gram(f) * B = Gram(g)."""
    B = [[_frac(x) for x in row] for row in B]
    if len(B) != f.rank or any(len(r) != g.rank for r in B):
        raise ValueError("witness dimensions do not match")
    if f.rank != g.rank:
        return False
    Bi, d = _integral(B)
    if not _int_det(Bi):
        raise WitnessError("singular congruence witness")
    h = _base_change(Bi, d, f)
    return (h.den, h.rows) == (g.den, g.rows)


# ---------------------------------------------------------------------------
# invariants over Q

# Trial division to TRIAL_DIVISION_MAX (0.06 s on 2, 3 and the 6k +- 1
# wheel) factors every number below 4*10^12; a larger cofactor of at most
# COFACTOR_DIGITS_MAX digits is tested by Miller-Rabin, exact below
# MR_CERTAIN, then taken as a perfect power or split by Pollard's rho within
# RHO_STEPS steps for all its splits together (spent in 0.4 s at 38 digits,
# 1.2 s at 150).
TRIAL_DIVISION_MAX = 2 * 10 ** 6
COFACTOR_DIGITS_MAX = 150
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_CERTAIN = 3317044064679887385961981
RHO_STEPS = 1 << 17


def _odd_primes(n: int) -> list:
    """The primes dividing the positive integer n to an odd power, ascending;
    ValueError if n cannot be factored within the bounds above."""
    out = []
    for d in 2, 3:
        e = 0
        while not n % d:
            n //= d
            e += 1
        if e % 2:
            out.append(d)
    if n < 25:      # no prime factor below 5: 1 or a prime
        return out + [n] if n > 1 else out
    # then the 6k +- 1 wheel: 5, 7, 11, 13, ... (steps 2, 4, 2, 4, ...)
    d, step, limit = 5, 2, min(isqrt(n), TRIAL_DIVISION_MAX)
    while d <= limit:
        if not n % d:
            e = 0
            while not n % d:
                n //= d
                e += 1
            if e % 2:
                out.append(d)
            limit = min(isqrt(n), TRIAL_DIVISION_MAX)
        d += step
        step = 6 - step
    if d * d > n:   # n is 1 or a prime
        return out + [n] if n > 1 else out
    if n >= 10 ** COFACTOR_DIGITS_MAX:
        from decimal import Decimal     # str() refuses over 4300 digits
        raise ValueError("cannot factor a cofactor of %d digits: the limit "
                         "is %d digits" % (Decimal(n).adjusted() + 1,
                                           COFACTOR_DIGITS_MAX))
    odd, rest, steps = set(), [n], RHO_STEPS
    while rest:     # numbers with no prime factor up to TRIAL_DIVISION_MAX
        m = rest.pop()
        if _is_prime(m):
            odd ^= {m}
            continue
        # rho splits no power of a prime: m = r^k has r > 2^20, so k < bits/20
        for k in range(2, m.bit_length() // 20 + 1):
            r = 1 << -(-m.bit_length() // k)    # Newton from above m^(1/k)
            while (s := ((k - 1) * r + m // r ** (k - 1)) // k) < r:
                r = s
            if r ** k == m:     # r to an odd power, or a square
                rest += [r] * (k % 2)
                break
        else:
            p, steps = _rho(m, steps)
            rest += [p, m // p]
    return out + sorted(odd)


def _is_prime(m: int) -> bool:
    """Miller-Rabin to the bases MR_BASES for an odd m > 41; ValueError for
    a probable prime from MR_CERTAIN on, where the bases do not decide."""
    s = ((m - 1) & (1 - m)).bit_length() - 1
    for a in MR_BASES:
        x = pow(a, (m - 1) >> s, m)
        if x == 1:
            continue
        for _ in range(s):
            if x == m - 1:
                break
            x = x * x % m
        else:
            return False
    if m >= MR_CERTAIN:
        raise ValueError("cannot factor %d: a probable prime above %d"
                         % (m, MR_CERTAIN))
    return True


def _rho(m: int, steps: int) -> tuple:
    """A proper factor of the composite m by Pollard's rho with Floyd's
    cycle finding, the constant c raised whenever a cycle yields m, and the
    steps left of the given budget; ValueError once the budget is spent."""
    c = 0
    while steps:
        x = y = 2
        c, g = c + 1, 1
        while g == 1 and steps:
            x = (x * x + c) % m
            y = (y * y + c) % m
            y = (y * y + c) % m
            g = gcd(x - y, m)
            steps -= 1
        if 1 < g < m:
            return g, steps
    raise ValueError("cannot factor %d: no factor in %d steps of Pollard's "
                     "rho" % (m, RHO_STEPS))


def squarefree(a) -> int:
    """Signed squarefree representative of the square class of a."""
    a = _frac(a)
    if a == 0:
        raise ValueError("zero has no square class")
    s = prod(_odd_primes(abs(a.numerator)) + _odd_primes(a.denominator))
    return s if a > 0 else -s


def hilbert_symbol(a: int, b: int, place) -> int:
    """(a, b)_v for v a prime or the real-place marker "inf"."""
    if a == 0 or b == 0:
        raise ValueError("arguments must be nonzero")
    if place == "inf":
        return -1 if a < 0 and b < 0 else 1
    p = place
    alpha, u = 0, a
    while u % p == 0:
        u //= p
        alpha += 1
    beta, w = 0, b
    while w % p == 0:
        w //= p
        beta += 1
    if p == 2:
        e = ((u - 1) // 2) * ((w - 1) // 2)
        e += alpha * ((w * w - 1) // 8) + beta * ((u * u - 1) // 8)
        return -1 if e % 2 else 1
    s = 1
    if alpha % 2 and beta % 2 and p % 4 == 3:
        s = -s
    if beta % 2 and pow(u, (p - 1) // 2, p) != 1:
        s = -s
    if alpha % 2 and pow(w, (p - 1) // 2, p) != 1:
        s = -s
    return s


def _diagonalize(f: GramForm) -> list:
    """Diagonal entries of a congruent diagonal form (symmetric Gauss), each
    a pair (numerator, denominator > 0) in lowest terms.

    The trailing block T runs on integers: with f = rows / d, T is prev
    times the rational Schur complement of rows, so every zero test and
    every pivot T[0][0] / (prev*d) is that of the rational elimination."""
    T, d = f.rows, f.den
    prev, diag = 1, []
    while T:
        if not T[0][0]:     # the only path that writes into T
            T = [list(r) for r in T]
            j = next((j for j in range(1, len(T)) if T[j][j]), None)
            if j is not None:
                T[0], T[j] = T[j], T[0]
                for row in T:
                    row[0], row[j] = row[j], row[0]
            else:
                j = next((j for j, x in enumerate(T[0]) if x), None)
                if j is None:
                    raise DegeneracyError("degenerate form")
                # char != 2: add the j-th basis vector to the first
                T[0] = [a + b for a, b in zip(T[0], T[j])]
                for row in T:
                    row[0] += row[j]
        p, q = T[0][0], prev * d
        g = gcd(p, q) if q > 0 else -gcd(p, q)
        diag.append((p // g, q // g))
        if len(T) == 1:
            break
        t = T[0][1:]
        T = [[(p * x - row[0] * y) // prev for x, y in zip(row[1:], t)]
             for row in T[1:]]
        prev = p
    return diag


class GWQInvariants(NamedTuple):
    """Complete isometry invariants of a symmetric form over Q."""

    rank: int
    signature: int
    disc: int
    hasse: tuple  # sorted ((place, ±1), ...), places with symbol 1 included

    def same_class(self, other: "GWQInvariants") -> bool:
        """Equal rank, signature and discriminant, and symbol -1 at the same
        places: a place one side does not list has symbol 1 there."""
        return (self.rank, self.signature, self.disc) == (
            other.rank, other.signature, other.disc) and {
            p for p, v in self.hasse if v < 0} == {
            p for p, v in other.hasse if v < 0}

    def to_obj(self) -> dict:
        return {"rank": self.rank, "signature": self.signature,
                "disc": self.disc,
                "hasse": {str(p): v for p, v in self.hasse}}


def invariants(f: GramForm) -> GWQInvariants:
    if f.sym != 1:
        raise TypeError("invariants require a symmetric form")
    return _invariants(_diagonalize(f))


def _invariants(pivots) -> GWQInvariants:
    """The invariants of the diagonal form <pivots>, nonzero rationals as
    (numerator, denominator) pairs."""
    # n and d are coprime and factored apart, each within its own budget;
    # the diagonalization is a congruence of determinant +-1, so det(f) is
    # the product of the pivots and its square class comes from theirs
    diag, neg, odd, places = [], 0, set(), set()
    for n, d in pivots:
        ps = _odd_primes(abs(n)) + (_odd_primes(d) if d > 1 else [])
        diag.append(prod(ps) if n > 0 else -prod(ps))
        neg += n < 0
        odd.symmetric_difference_update(ps)
        places.update(ps)
    places.discard(2)
    # each place's symbol is evaluated on its own: none may be derived from
    # Hilbert reciprocity or from the other places, because the
    # hilbert_product lemma checks exactly their product
    hasse = tuple((v, _hasse(v, diag)) for v in (2, *sorted(places), "inf"))
    return GWQInvariants(len(diag), len(diag) - 2 * neg,
                         -prod(odd) if neg % 2 else prod(odd), hasse)


def _hasse(v, diag) -> int:
    """The Hasse symbol prod_{i<j} (d_i, d_j)_v of the diagonal form <diag>,
    nonzero squarefree integers, at the place v.

    At inf only the k negative entries count: (-1)^(k(k-1)/2).  At an odd
    prime p, with d_A the product of the entries p does not divide and p*d_B
    that of the n1 others, bimultiplicativity and (u, w)_p = 1,
    (u, p)_p = (u/p), (p, p)_p = (-1/p) for units u, w give
    (d_A/p)^n1 * (d_B/p)^(n1-1) * (-1/p)^(n1(n1-1)/2).  At 2 it is the
    product prod_j (a, d_j)_2 with a = d_1 ... d_{j-1}, walked on the square
    classes of Q_2: a = 2^alpha * u is kept as alpha mod 2 and the unit u
    mod 8, and for d_j = 2^beta * w,
    (a, d_j)_2 = (-1)^(eps(u)eps(w) + alpha*omega(w) + beta*omega(u)),
    eps(u) = (u - 1)/2 and omega(u) = (u^2 - 1)/8 mod 2 (Serre, A Course
    in Arithmetic, III.1)."""
    if v == "inf":     # k(k-1)/2 is odd for k = 2, 3 mod 4
        return -1 if sum(d < 0 for d in diag) % 4 > 1 else 1
    if v == 2:
        # for odd u, eps(u) is bit 1 of u and omega(u) is bit 1 of u ^ u >> 1
        e, alpha, u = 0, 0, 1
        for d in diag:
            beta = 1 - d % 2    # d is squarefree
            w = (d >> beta) % 8
            e ^= ((u & w) ^ alpha * (w ^ w >> 1) ^ beta * (u ^ u >> 1)) & 2
            alpha ^= beta
            u = u * w % 8
        return -1 if e else 1
    d_A, n1, d_B = 1, 0, 1
    for d in diag:
        if d % v:
            d_A = d_A * d % v
        else:
            n1, d_B = n1 + 1, d_B * (d // v) % v
    # one of (d_A/p)^n1 and (d_B/p)^(n1-1) has an even exponent
    s = 1 if pow(d_A if n1 % 2 else d_B, (v - 1) // 2, v) == 1 else -1
    return -s if n1 % 4 > 1 and v % 4 == 3 else s


def gw_identity_check(lhs, rhs) -> bool:
    """Decide an equation between formal sums of symmetric form classes.

    Each side is a sequence of (integer coefficient, GramForm); negative
    coefficients are moved across before comparing the orthogonal sums
    through their complete invariants.
    """
    left, right = [], []
    for coeff, f in lhs:
        (left if coeff >= 0 else right).append((abs(coeff), f))
    for coeff, f in rhs:
        (right if coeff >= 0 else left).append((abs(coeff), f))

    def pivots(terms):
        diag = []
        for c, f in terms:
            if not c:
                continue
            if f.sym != 1:
                raise TypeError("class comparison requires symmetric forms")
            diag.extend(_diagonalize(f) * c)
        return diag

    a, b = pivots(left), pivots(right)
    if len(a) != len(b):
        return False
    return _invariants(a).same_class(_invariants(b))


# ---------------------------------------------------------------------------
# witnesses from the exterior-power isometries

def symplectic_plane() -> GramForm:
    return GramForm([[0, 1], [-1, 0]], -1)


def _split_subset(S, r):
    e = tuple(i for i in S if i < r)
    t = tuple(i - r for i in S if i >= r)
    return e, t


def lambda_hyp_witness(r: int, n: int):
    """Basis matrix realizing ext^n H_+(O^r) = H_+(F) for odd n.

    The degree-j summands of ext^n(E + E*) with 2j < n include into F; the
    complementary summands land in F* through the evaluation pairing."""
    if n % 2 == 0:
        raise ValueError("n must be odd")
    domain = list(combinations(range(2 * r), n))
    f_basis = [(S, T) for j in range((n - 1) // 2 + 1)
               for S in combinations(range(r), j)
               for T in combinations(range(r), n - j)]
    N = len(f_basis)
    pos = {st: k for k, st in enumerate(f_basis)}
    B = [[0] * len(domain) for _ in range(2 * N)]
    for col, U in enumerate(domain):
        S, T = _split_subset(U, r)
        if 2 * len(S) <= n - 1:
            B[pos[(S, T)]][col] = 1
        else:
            B[N + pos[(T, S)]][col] = 1
    return B, N


def s_v_matrix(m: int):
    """The rank-reversing isometry of the full exterior algebra of an
    orthogonal sum of m standard symplectic planes, as a subset map."""
    def plane_image(part):
        # per-plane images: {} <-> {both}, singletons fixed
        lo, hi = part
        return {(): (lo, hi), (lo,): (lo,), (hi,): (hi,), (lo, hi): ()}

    planes = [(2 * k, 2 * k + 1) for k in range(m)]
    maps = [plane_image(p) for p in planes]

    def image(S):
        out = []
        for p, pm in zip(planes, maps):
            part = tuple(i for i in S if i in p)
            out.extend(pm[part])
        return tuple(sorted(out))

    return image


def check_section2_and_hyp() -> VerificationReport:
    rep = VerificationReport("forms")
    rng = random.Random(20240823)

    # rank-reversal on exterior powers of sums of symplectic planes
    for m in range(1, 4):
        V = symplectic_plane()
        for _ in range(m - 1):
            V = direct_sum(V, symplectic_plane())
        image = s_v_matrix(m)
        n = 2 * m
        powers = [ext_power(V, k) for k in range(n + 1)]
        for i in range(0, n + 1):
            src = list(combinations(range(n), i))
            dst = list(combinations(range(n), n - i))
            B = [[0] * len(src) for _ in range(len(dst))]
            for col, S in enumerate(src):
                B[dst.index(image(S))][col] = 1
            ok = check_congruence(B, powers[n - i], powers[i])
            rep.add(check("lambda_n_rank_n", (m, i), ok))

    # tensor-square splitting into scaled Sym^2 and ext^2
    samples = [("diag(1,-1)", GramForm.diagonal([1, -1])),
               ("symplectic", symplectic_plane())]
    for name, V in samples:
        r = V.rank
        t2 = tensor(V, V)
        ext_basis = list(combinations(range(r), 2))
        J_ext = [[0] * len(ext_basis) for _ in range(r * r)]
        for col, (i, j) in enumerate(ext_basis):
            J_ext[i * r + j][col] = 1
            J_ext[j * r + i][col] = -1
        ok = _base_change(J_ext, 1, t2) == scale(2, ext_power(V, 2))
        rep.add(check("pm_symlambda", (name, "ext"), ok))
        sym_basis = list(combinations_with_replacement(range(r), 2))
        J_sym = [[0] * len(sym_basis) for _ in range(r * r)]
        for col, (i, j) in enumerate(sym_basis):
            J_sym[i * r + j][col] += 1
            J_sym[j * r + i][col] += 1
        ok = _base_change(J_sym, 1, t2) == scale(2, sym_power(V, 2))
        rep.add(check("pm_symlambda", (name, "sym"), ok))
        B = [row_s + row_e for row_s, row_e in
             zip(J_sym, J_ext)]
        target = direct_sum(scale(2, sym_power(V, 2)),
                            scale(2, ext_power(V, 2)))
        rep.add(check("tens2_decomp", (name,), check_congruence(B, t2, target)))

    # ext^2 of a tensor product against the scaled Sym/ext mix, by class
    ef_samples = [
        ("diag-diag", GramForm.diagonal([1, -1]), GramForm.diagonal([1, 1])),
        ("diag-diag2", GramForm.diagonal([1, 2]), GramForm.diagonal([3, -1])),
        ("sympl-sympl", symplectic_plane(), symplectic_plane()),
    ]
    for name, E, F in ef_samples:
        lhs = [(1, ext_power(tensor(E, F), 2))]
        rhs = [(1, scale(2, tensor(sym_power(E, 2), ext_power(F, 2)))),
               (1, scale(2, tensor(ext_power(E, 2), sym_power(F, 2))))]
        rep.add(check("lambda_EF", (name,), gw_identity_check(lhs, rhs)))

    # exterior powers of hyperbolic forms
    for r in (1, 2):
        for n in (1, 3, 5):
            want = 2 * sum(comb(r, j) * comb(r, n - j)
                           for j in range((n - 1) // 2 + 1))
            for delta in ("+", "-"):
                if n > 2 * r:
                    rep.add(check("lambda_hyp_rank", (r, n, delta),
                                  want == 0, "0", str(want)))
                    continue
                e = ext_power(hyperbolic(r, delta), n)
                rep.add(check("lambda_hyp_rank", (r, n, delta),
                              e.rank == want, str(e.rank), str(want)))
                if delta == "+":
                    B, N = lambda_hyp_witness(r, n)
                    ok = check_congruence(B, e, hyperbolic(N, "+"))
                    rep.add(check("lambda_hyp_witness", (r, n), ok))
                else:
                    ok = e.sym == -1 and e.is_nondegenerate()
                    rep.add(check("lambda_hyp_skew", (r, n), ok))

    # class equation for ext^n of a product of two symplectic planes
    one_one = GramForm.diagonal([1, 1])
    for k in range(10):
        E = _random_symplectic(rng)
        F = _random_symplectic(rng)
        EF = tensor(E, F)
        ok2 = gw_identity_check(
            [(1, ext_power(EF, 2)), (1, one_one)],
            [(1, tensor(E, E)), (1, tensor(F, F))])
        rep.add(check("lambda_22", (k,), ok2))
        ok3 = gw_identity_check([(1, ext_power(EF, 3))], [(1, EF)])
        rep.add(check("lambda_22_n3", (k,), ok3))
        ok4 = gw_identity_check([(1, ext_power(EF, 4))],
                                [(1, GramForm.diagonal([1]))])
        rep.add(check("lambda_22_n4", (k,), ok4))

    # the discriminant separating ext^2 of the split plane from <1>
    disc2 = invariants(ext_power(hyperbolic(1, "+"), 2)).disc
    rep.add(check("lambda2_resolution", (), disc2 == -1
                  and invariants(GramForm.diagonal([1])).disc == 1,
                  str(disc2), "-1"))

    # Hilbert reciprocity on random diagonal forms
    for k in range(120):
        n = rng.randrange(1, 6)
        entries = [rng.choice([x for x in range(-20, 21) if x])
                   for _ in range(n)]
        inv = invariants(GramForm.diagonal(entries))
        prod = 1
        for _, v in inv.hasse:
            prod *= v
        rep.add(check("hilbert_product", (k,), prod == 1,
                      str(prod), "1", note=str(entries)))

    # functoriality of ext_power under base change
    for k in range(20):
        f = _random_form(rng)
        B = _random_invertible(rng, f.rank)
        g = _base_change(B, 1, f)
        n = rng.randrange(1, min(3, f.rank) + 1)
        ef = ext_power(f, n)
        ok = (check_congruence(_compound(B, n), ef, ext_power(g, n))
              and ef.rank == comb(f.rank, n) and ef.sym == f.sym ** n)
        rep.add(check("ext_functorial", (k,), ok))
    return rep


def ext_matrix(B, n: int):
    """n-th exterior power (compound matrix) of a square matrix."""
    Bi, d = _integral([[_frac(x) for x in row] for row in B])
    from fractions import Fraction
    return [[Fraction(x, d ** n) for x in row] for row in _compound(Bi, n)]


def _random_symplectic(rng) -> GramForm:
    return _base_change(_random_invertible(rng, 2), 1, symplectic_plane())


def _random_invertible(rng, n: int):
    """An invertible integer n x n matrix with entries in -4..4."""
    while True:
        B = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        if _int_det(B):
            return B


def _random_form(rng) -> GramForm:
    if rng.random() < 0.5:
        n = rng.randrange(1, 5)
        entries = [rng.choice([x for x in range(-9, 10) if x])
                   for _ in range(n)]
        return GramForm.diagonal(entries)
    r = rng.randrange(1, 3)
    f = symplectic_plane()
    for _ in range(r - 1):
        f = direct_sum(f, symplectic_plane())
    return _base_change(_random_invertible(rng, 2 * r), 1, f)

