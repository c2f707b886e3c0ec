import json
import random
import re
import time
from fractions import Fraction
from functools import cache
from itertools import (
    combinations, combinations_with_replacement, permutations, product,
)
from math import gcd, isqrt, lcm, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

import gwadams.forms
from gwadams.forms import (
    TRIAL_DIVISION_MAX, DegeneracyError, GramForm, GWQInvariants,
    WitnessError, _base_change, _compound, _diagonalize, _frac, _int_det,
    _int_mul, _integral, _invariants, _odd_primes, _transpose,
    check_congruence, check_section2_and_hyp, direct_sum, ext_power,
    gw_identity_check, hyperbolic, invariants, scale, sym_power,
    symplectic_plane, tensor,
)


# -- reference oracles: the Fraction matrix kernel that forms.py used
# before its integer kernel

def fraction_diagonalize(f: GramForm, branches=None) -> list:
    """Symmetric Gauss elimination on Fractions; the zero-pivot branches
    taken ("swap", "add") are appended to branches when it is given."""
    M = [list(row) for row in f.matrix]
    n = len(M)
    diag = []
    for i in range(n):
        if M[i][i] == 0:
            for j in range(i + 1, n):
                if M[j][j] != 0:
                    M[i], M[j] = M[j], M[i]
                    for row in M:
                        row[i], row[j] = row[j], row[i]
                    if branches is not None:
                        branches.append("swap")
                    break
            else:
                for j in range(i + 1, n):
                    if M[i][j] != 0:
                        # char != 2: add the j-th basis vector to the i-th
                        M[i] = [a + b for a, b in zip(M[i], M[j])]
                        for row in M:
                            row[i] += row[j]
                        if branches is not None:
                            branches.append("add")
                        break
                else:
                    raise DegeneracyError("degenerate form")
        pivot = M[i][i]
        for j in range(i + 1, n):
            c = M[i][j] / pivot
            if c:
                M[j] = [a - c * b for a, b in zip(M[j], M[i])]
                for row in M:
                    row[j] -= c * row[i]
        diag.append(pivot)
    return diag


def fraction_identity_check(lhs, rhs) -> bool:
    """gw_identity_check as it was before it handed the pivots to the
    invariants directly: the pivots of each side are wrapped in a diagonal
    form and eliminated again."""
    left, right = [], []
    for coeff, f in lhs:
        (left if coeff >= 0 else right).extend([f] * abs(coeff))
    for coeff, f in rhs:
        (right if coeff >= 0 else left).extend([f] * abs(coeff))

    def assemble(forms):
        diag = []
        for f in forms:
            if f.sym != 1:
                raise TypeError("class comparison requires symmetric forms")
            diag.extend(fraction_diagonalize(f))
        return GramForm.diagonal(diag)

    a, b = assemble(left), assemble(right)
    if a.rank != b.rank:
        return False
    return invariants(a).same_class(invariants(b))


def fraction_det(m) -> Fraction:
    n = len(m)
    m = [row[:] for row in m]
    out = Fraction(1)
    for i in range(n):
        pivot = None
        for r in range(i, n):
            if m[r][i] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            out = -out
        out *= m[i][i]
        inv = 1 / m[i][i]
        for r in range(i + 1, n):
            c = m[r][i] * inv
            if c:
                m[r] = [a - c * b for a, b in zip(m[r], m[i])]
    return out


def fraction_mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def fraction_permanent(rows) -> Fraction:
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        p = Fraction(1)
        for i, j in enumerate(perm):
            p *= rows[i][j]
        total += p
    return total


def _place_key(p):
    return (1, 0) if p == "inf" else (0, p)


def hilbert_symbol(a: int, b: int, place) -> int:
    """(a, b)_v for v a prime or the real-place marker "inf", read off the
    valuations and units of a and b (Serre, A Course in Arithmetic,
    III.1.2): the oracle of pairwise_invariants and prefix_invariants."""
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


def _hasse(v, diag) -> int:
    """The Hasse symbol prod_{i<j} (d_i, d_j)_v of the diagonal form <diag>,
    nonzero squarefree integers, at the place v alone: the per-place oracle
    for the symbols that forms._invariants evaluates in one pass.

    At inf only the k negative entries count: (-1)^(k(k-1)/2).  At an odd
    prime p, with d_A the product of the entries p does not divide and p*d_B
    that of the n1 others, it is
    (d_A/p)^n1 * (d_B/p)^(n1-1) * (-1/p)^(n1(n1-1)/2).  At 2 it is the
    product prod_j (a, d_j)_2 with a = d_1 ... d_{j-1}, walked on the square
    classes of Q_2 (Serre, A Course in Arithmetic, III.1)."""
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


def pairwise_invariants(pivots, odd_primes=_odd_primes) -> GWQInvariants:
    """The invariants of the diagonal form <pivots>, (numerator,
    denominator) pairs, with each Hasse symbol a product of Hilbert symbols
    over all pairs of diagonal entries, as forms.invariants took it before
    the prefix-product form."""
    signs = [1 if n > 0 else -1 for n, _ in pivots]
    primes = [odd_primes(abs(n * d)) for n, d in pivots]
    diag = [s * prod(ps) for s, ps in zip(signs, primes)]
    odd = set()
    for ps in primes:
        odd.symmetric_difference_update(ps)
    hasse = []
    for v in sorted({2, "inf"}.union(*primes), key=_place_key):
        s = 1
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                s *= hilbert_symbol(diag[i], diag[j], v)
        hasse.append((v, s))
    return GWQInvariants(len(pivots), sum(signs), prod(signs) * prod(odd),
                         tuple(hasse))


def prefix_invariants(pivots, odd_primes=_odd_primes) -> GWQInvariants:
    """The invariants with each Hasse symbol the linear product
    prod_j (d_1 ... d_{j-1}, d_j)_v of Hilbert symbols at every place, as
    forms._invariants took it before the per-place closed forms."""
    signs = [1 if n > 0 else -1 for n, _ in pivots]
    primes = [odd_primes(abs(n * d)) for n, d in pivots]
    diag = [s * prod(ps) for s, ps in zip(signs, primes)]
    sign, odd, prefixes = 1, set(), []
    for s, ps in zip(signs, primes):
        prefixes.append(sign * prod(odd))
        sign *= s
        odd.symmetric_difference_update(ps)
    hasse = []
    for v in sorted({2, "inf"}.union(*primes), key=_place_key):
        s = 1
        for a, b in zip(prefixes[1:], diag[1:]):
            s *= hilbert_symbol(a, b, v)
        hasse.append((v, s))
    return GWQInvariants(len(pivots), sum(signs), sign * prod(odd),
                         tuple(hasse))


def union_same_class(a: GWQInvariants, b: GWQInvariants) -> bool:
    """GWQInvariants.same_class as it was before it compared the places of
    symbol -1: equal symbols over the union of both sides' places."""
    if (a.rank, a.signature, a.disc) != (b.rank, b.signature, b.disc):
        return False
    sa, sb = dict(a.hasse), dict(b.hasse)
    return all(sa.get(p, 1) == sb.get(p, 1) for p in set(sa) | set(sb))


def oracle_minors(M, basis, fn):
    return [[fn([[M[i][j] for j in T] for i in S]) for T in basis]
            for S in basis]


# -- the Fraction constructions forms.py used before a form held integer
# rows over one denominator

def fraction_tensor(F, G):
    return [[F[i][j] * G[k][l] for j in range(len(F)) for l in range(len(G))]
            for i in range(len(F)) for k in range(len(G))]


def fraction_direct_sum(F, G):
    n, m = len(F), len(G)
    return ([list(row) + [Fraction(0)] * m for row in F]
            + [[Fraction(0)] * n + list(row) for row in G])


def fraction_hyperbolic(r: int, s: int):
    rows = [[Fraction(0)] * (2 * r) for _ in range(2 * r)]
    for i in range(r):
        rows[i][r + i] = Fraction(1)
        rows[r + i][i] = Fraction(s)
    return rows


def fraction_json(M, sym: int) -> str:
    return json.dumps({"sym": "symmetric" if sym == 1 else "skew",
                       "matrix": [[str(x) for x in row] for row in M]},
                      sort_keys=True, separators=(",", ":"))


# -- seeded rational matrices: denominators 1..12, many zero entries (so
# elimination swaps rows), zero, singular and repeated rows

def rand_entry(rng) -> Fraction:
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


def rand_matrix(rng, n: int, m: int = None):
    m = n if m is None else m
    rows = [[rand_entry(rng) for _ in range(m)] for _ in range(n)]
    kind = rng.random()
    if n >= 2 and kind < 0.15:
        rows[rng.randrange(n)] = list(rows[rng.randrange(n)])
    elif n >= 1 and kind < 0.25:
        rows[rng.randrange(n)] = [Fraction(0)] * m
    elif n >= 2 and kind < 0.35:
        i, j = rng.sample(range(n), 2)
        c = rand_entry(rng)
        rows[i] = [c * x for x in rows[j]]
    return rows


def rand_gram(rng, n: int, sym: int) -> GramForm:
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = rand_entry(rng) if i != j or sym == 1 else Fraction(0)
            m[i][j], m[j][i] = x, sym * x
    return GramForm(m, sym)


def rand_unimodular(rng, n: int):
    """A row permutation of a unit upper triangular integer matrix."""
    U = [[Fraction(int(i == j) if j <= i else rng.randint(-2, 2))
          for j in range(n)] for i in range(n)]
    perm = rng.sample(range(n), n)
    return [U[k] for k in perm]


# 12-digit primes, one 3 mod 4 and one 1 mod 4
PLANTED = (100000000003, 700000000009)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 43)


def rand_pivots(rng, planted: bool = True) -> list:
    """A seeded diagonal of rank 1-7 as (numerator, denominator) pairs in
    lowest terms: signed products of small primes to any power (2 and
    primes 3 mod 4 among them) over denominators, in a fifth of the lists
    a prime that divides every entry to an odd power, and in 2% a planted
    12-digit prime times 1 or 3."""
    common = rng.choice(SMALL_PRIMES) if rng.random() < 0.2 else 1
    big = rng.choice(PLANTED) if planted and rng.random() < 0.02 else 0
    dens = [p for p in SMALL_PRIMES[:6] if p != common]
    out = []
    for i in range(rng.randint(1, 7)):
        if big and (i == 0 or rng.random() < 0.3):
            n, d = big * rng.choice((1, 3)), 1
        else:
            n = prod(p ** rng.randint(1, 3) for p in rng.sample(
                SMALL_PRIMES, rng.randint(0, 3)))
            d = prod(p ** rng.randint(1, 2) for p in rng.sample(
                dens, rng.choice((0, 0, 1, 2))))
        g = gcd(n, d)
        out.append((rng.choice((-1, 1)) * common * n // g, d // g))
    return out


def parent_frac(x):
    """forms._frac as it was before it read decimal integers with int."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError("zero denominator: %r" % (x,))
    raise ValueError("not an exact rational: %r" % (x,))


def outcome(fn, x):
    """("value", fn(x)) or (error class, message)."""
    try:
        return "value", fn(x)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("x", ["3", "-0", "+7", " 3 ", "3/4", "1.5", "1e3",
                               "1_0", "", "abc", "1/0", "-12", "007", "3\n",
                               "\u0663", 1.5, True, 4, Fraction(1, 3),
                               1.0, Fraction(3, 4), 7],
                         ids=repr)
def test_frac_oracle(x):
    assert outcome(_frac, x) == outcome(parent_frac, x)


class TestGramForm:
    def test_validation(self):
        with pytest.raises(ValueError):
            GramForm([[0, 1], [1, 0]], -1)
        with pytest.raises(ValueError):
            GramForm([[0, 1]])
        GramForm([[0, 1], [-1, 0]], -1)

    def test_fraction_entries(self):
        f = GramForm([["1/2", 0], [0, "-3"]])
        assert f.matrix[0][0] == Fraction(1, 2)
        assert f.det() == Fraction(-3, 2)
        # Fractions at output, also of an integer form
        g = GramForm.diagonal([2, 3])
        assert {type(x) for row in g.matrix for x in row} == {Fraction}
        assert type(g.det()) is Fraction and g.det() == 6

    def test_json_round_trip(self):
        for f in (GramForm.diagonal([1, "2/3", -5]), symplectic_plane()):
            assert GramForm.from_json(f.to_json()) == f

    def test_json_shape(self):
        obj = symplectic_plane().to_obj()
        assert obj == {"sym": "skew", "matrix": [["0", "1"], ["-1", "0"]]}


class TestConstructions:
    def test_ext_power_hyperbolic_plane(self):
        # second exterior power of the split plane is <-1>
        e2 = ext_power(hyperbolic(1, "+"), 2)
        assert e2.matrix == ((Fraction(-1),),) and e2.sym == 1

    def test_ext_power_symplectic(self):
        e2 = ext_power(symplectic_plane(), 2)
        assert e2.matrix == ((Fraction(1),),) and e2.sym == 1

    def test_ext_power_bounds(self):
        with pytest.raises(IndexError):
            ext_power(symplectic_plane(), 3)
        with pytest.raises(IndexError):
            ext_power(symplectic_plane(), -1)

    def test_sym_power_rank_one(self):
        # unnormalized pairing: Sym^2<a> = <2 a^2>
        s = sym_power(GramForm.diagonal([3]), 1)
        assert s == GramForm.diagonal([3])
        # rank-one forms only admit n <= 1 under the range contract
        with pytest.raises(IndexError):
            sym_power(GramForm.diagonal([3]), 2)
        s2 = sym_power(GramForm.diagonal([3, 0]), 2)
        assert s2.matrix[0][0] == 18

    def test_tensor_and_sum(self):
        a = GramForm.diagonal([1, -1])
        b = GramForm.diagonal([2])
        assert tensor(a, b) == GramForm.diagonal([2, -2])
        assert direct_sum(a, b) == GramForm.diagonal([1, -1, 2])
        assert tensor(symplectic_plane(), symplectic_plane()).sym == 1
        with pytest.raises(TypeError):
            direct_sum(a, symplectic_plane())

    def test_scale(self):
        a = GramForm.diagonal([2, -3])
        assert scale("1/2", a) == GramForm.diagonal([1, "-3/2"])
        with pytest.raises(ValueError):
            scale(0, a)

    def test_hyperbolic(self):
        assert hyperbolic(1, "+").matrix == ((0, 1), (1, 0))
        assert hyperbolic(1, "-").matrix == ((0, 1), (-1, 0))
        assert hyperbolic(2, "+").rank == 4
        with pytest.raises(ValueError):
            hyperbolic(0, "+")
        with pytest.raises(ValueError):
            hyperbolic(1, "x")


class TestCongruence:
    def test_basic(self):
        f = GramForm.diagonal([1, -1])
        g = hyperbolic(1, "+")
        B = [["1/2", "1/2"], ["-1/2", "1/2"]]
        assert check_congruence(B, f, scale("1/2", g))

    def test_singular_witness(self):
        f = GramForm.diagonal([1, 1])
        with pytest.raises(WitnessError):
            check_congruence([[1, 1], [1, 1]], f, f)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_congruence([[1]], GramForm.diagonal([1, 1]),
                             GramForm.diagonal([1]))


class TestInvariants:
    def test_squarefree(self):
        # the discriminant of <a> is the signed squarefree representative
        # of the square class of a
        def disc(a):
            return invariants(GramForm.diagonal([a])).disc
        assert disc(12) == 3
        assert disc(-18) == -2
        assert disc(Fraction(4, 9)) == 1
        assert disc(Fraction(-2, 3)) == -6
        # numerator and denominator factored apart: their product is
        # beyond the rho budget
        assert disc(Fraction(-2244671116682553091, 295377785478078120)) == (
            -2 * 3 * 5 * 13 * 167 * 199 * 5195649173279 * 273497949516739)
        with pytest.raises(DegeneracyError):
            disc(0)

    def test_hilbert_symbol(self):
        assert hilbert_symbol(-1, -1, "inf") == -1
        assert hilbert_symbol(-1, -1, 2) == -1
        assert hilbert_symbol(-1, -1, 3) == 1
        assert hilbert_symbol(2, 3, 3) == -1
        assert hilbert_symbol(3, 3, 3) == -1
        assert hilbert_symbol(5, 5, 5) == 1

    def test_hasse_at_2_on_square_classes(self):
        # every class of Q_2* / Q_2*^2 (valuation mod 2, unit mod 8) with
        # both signs, in every sequence of one to three entries
        classes = (1, 2, 3, 5, 6, 7, 10, 14)
        values = classes + tuple(-d for d in classes)
        count = 0
        for n in (1, 2, 3):
            for diag in product(values, repeat=n):
                want = prod(hilbert_symbol(a, b, 2)
                            for a, b in combinations(diag, 2))
                got = _invariants([(d, 1) for d in diag]).hasse[0]
                assert got == (2, want), diag
                count += 1
        assert count == 4368

    def test_split_plane(self):
        inv = invariants(hyperbolic(1, "+"))
        assert (inv.rank, inv.signature, inv.disc) == (2, 0, -1)
        assert all(v == 1 for _, v in inv.hasse)

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneracyError):
            invariants(GramForm.diagonal([1, 0]))
        with pytest.raises(TypeError):
            invariants(symplectic_plane())

    def test_same_class_scaled_basis(self):
        f = GramForm.diagonal([2, -3])
        B = [[2, 1], [1, 1]]
        g = GramForm(fraction_mat_mul(
            _transpose(B), fraction_mat_mul([list(r) for r in f.matrix], B)))
        assert invariants(f).same_class(invariants(g))

    def test_matches_pairwise_product(self):
        rng = random.Random(20261018)
        forms = [GramForm.diagonal(range(1, 41)),
                 GramForm.diagonal(range(-20, 0))]
        # dense forms keep small entries: trial division factors each pivot
        while len(forms) < 1500:
            n = 1 + len(forms) % 6
            kind = rng.randrange(3)
            if kind == 0 and n <= 3:
                f = rand_gram(rng, n, 1)
            elif kind == 1:
                upper = {(i, j): rng.randint(-4, 4)
                         for i in range(n) for j in range(i, n)}
                f = GramForm([[upper[min(i, j), max(i, j)] for j in range(n)]
                              for i in range(n)])
            else:
                f = GramForm.diagonal(
                    [rng.choice((-1, 1)) * rng.randint(1, 60)
                     * rng.choice((1, 1, 4, 9, Fraction(1, 4)))
                     for _ in range(n)])
            if f.det() != 0:
                forms.append(f)
        for f in forms:
            assert invariants(f) == pairwise_invariants(_diagonalize(f)), f

    def test_closed_forms_match_oracles(self, monkeypatch):
        # factoring is tested in TestFactoring; a memo of it keeps the
        # planted primes to a few trial divisions
        odd_primes = cache(_odd_primes)
        monkeypatch.setattr(gwadams.forms, "_odd_primes", odd_primes)
        assert _invariants([]) == prefix_invariants([]) == pairwise_invariants(
            []) == GWQInvariants(0, 0, 1, ((2, 1), ("inf", 1)))
        rng = random.Random(20261019)
        seen = set()
        for _ in range(20000):
            pivots = rand_pivots(rng)
            got = _invariants(pivots)
            assert got == prefix_invariants(pivots, odd_primes), pivots
            assert got == pairwise_invariants(pivots, odd_primes), pivots
            # the one-pass symbols against the per-place oracle
            diag = [prod(odd_primes(abs(n * d))) * (1 if n > 0 else -1)
                    for n, d in pivots]
            assert all(s == _hasse(v, diag) for v, s in got.hasse), pivots
            primes = [set(odd_primes(abs(n * d))) for n, d in pivots]
            seen.add(len(pivots))
            seen.update(("negative entry" for n, _ in pivots if n < 0))
            seen.update(("denominator" for _, d in pivots if d > 1))
            if len(pivots) > 1 and set.intersection(*primes):
                seen.add("prime dividing every entry")
            seen.update("-1 at " + (
                str(v) if v in ("inf", 2) else "planted" if v in PLANTED
                else "p = %d mod 4" % (v % 4)) for v, c in got.hasse if c < 0)
        assert seen >= {1, 2, 3, 4, 5, 6, 7, "negative entry", "denominator",
                        "prime dividing every entry", "-1 at inf", "-1 at 2",
                        "-1 at p = 1 mod 4", "-1 at p = 3 mod 4",
                        "-1 at planted"}, seen

    def test_same_class_matches_union_rule(self):
        rng = random.Random(20261020)
        pairs = [([(1, 1)] * 2, [(5, 1)] * 2), ([(1, 1)] * 2, [(3, 1)] * 2),
                 ([(1, 1)] * 2, [(2, 1)] * 2), ([(1, 1), (-1, 1)],
                                                [(2, 1), (-2, 1)])]
        while len(pairs) < 6000:
            a = rand_pivots(rng, planted=False)
            b = [Fraction(n, d) * rng.choice((1, 4, Fraction(1, 9)))
                 for n, d in a]
            rng.shuffle(b)
            if len(b) > 1 and rng.random() < 0.7:
                x, y = b.pop(), b.pop()
                if rng.random() < 0.5 and x + y:
                    b += [x + y, x * y * (x + y)]   # <x, y> = <x+y, xy(x+y)>
                else:
                    c = rng.choice((-1, 2, 3, 7))  # rank, disc kept
                    b += [c * x, c * y]
            pairs.append((a, as_pairs(b)))
        outcomes = set()
        for a, b in pairs:
            ia, ib = _invariants(a), _invariants(b)
            want = union_same_class(ia, ib)
            assert ia.same_class(ib) == ib.same_class(ia) == want, (a, b)
            differ = {p for p, _ in ia.hasse} != {p for p, _ in ib.hasse}
            outcomes.add((want, differ))
        assert outcomes == {(True, True), (True, False), (False, True),
                            (False, False)}
        # <1,1> = <5,5>, though 5 is a place of one side only; <1,1> and
        # <3,3> differ at 2 and 3
        ones, fives = map(_invariants, pairs[0])
        assert ones.same_class(fives) and 5 in dict(fives.hasse)
        assert not ones.same_class(_invariants(pairs[1][1]))

    def test_distinguishes(self):
        a = invariants(GramForm.diagonal([1, 1]))
        b = invariants(GramForm.diagonal([1, -1]))
        c = invariants(GramForm.diagonal([2, 2]))
        assert not a.same_class(b)
        assert not a.same_class(c) or a.same_class(c)  # decided below
        # <1,1> and <2,2> are isometric over Q (2 = 1^2 + 1^2)
        assert a.same_class(c)
        d = invariants(GramForm.diagonal([3, 3]))
        assert not a.same_class(d)


class TestIdentityCheck:
    def test_move_negatives(self):
        one = GramForm.diagonal([1])
        two = GramForm.diagonal([1, 1])
        assert gw_identity_check([(2, one)], [(1, two)])
        assert gw_identity_check([(1, two), (-1, one)], [(1, one)])

    def test_rank_mismatch(self):
        one, two = GramForm.diagonal([1]), GramForm.diagonal([1, 1])
        for lhs, rhs in (([(1, one)], [(2, one)]),
                         ([(1, two), (1, one)], [(-1, one), (1, two)]),
                         ([(3, one), (-1, two)], [])):
            assert not fraction_identity_check(lhs, rhs)
            assert not gw_identity_check(lhs, rhs)

    def test_skew_rejected(self):
        with pytest.raises(TypeError):
            gw_identity_check([(1, symplectic_plane())],
                              [(1, symplectic_plane())])

    def test_each_term_diagonalized_once(self, monkeypatch):
        calls = []

        def counted(f):
            calls.append(f)
            return _diagonalize(f)
        monkeypatch.setattr(gwadams.forms, "_diagonalize", counted)
        f, g, h = (GramForm.diagonal(d) for d in ([1, 1], [2, 2], [5, 5]))
        # a term with coefficient 0 is skipped, even a skew one
        lhs, rhs = [(3, f), (0, symplectic_plane())], [(1, g), (2, h)]
        assert gw_identity_check(lhs, rhs)
        assert calls == [f, g, h]
        assert fraction_identity_check(lhs, rhs)


class TestBattery:
    def test_full(self):
        rep = check_section2_and_hyp()
        assert rep.ok
        lemmas = {e.lemma for e in rep.entries}
        assert {"lambda_n_rank_n", "pm_symlambda", "tens2_decomp",
                "lambda_EF", "lambda_hyp_rank", "lambda_hyp_witness",
                "lambda_hyp_skew", "lambda_22", "lambda2_resolution",
                "hilbert_product", "ext_functorial"} <= lemmas

    def test_deterministic(self):
        a = check_section2_and_hyp()
        b = check_section2_and_hyp()
        assert a.to_json() == b.to_json()

    def test_ext_matrix(self):
        # the compound matrix behind the ext_functorial witnesses
        assert _compound([[1, 2], [3, 4]], 2) == [[-2]]


class TestConstructionOracle:
    """Each construction on integer rows against the Fraction construction
    it replaced: the same form and the same to_json bytes."""

    @staticmethod
    def check(got, M, sym):
        assert got == GramForm(M, sym), (got, M)
        assert got.to_json() == fraction_json(M, sym)

    def test_random_forms(self):
        rng = random.Random(912)
        for _ in range(200):
            sym = rng.choice((1, -1))
            f = rand_gram(rng, rng.randint(0, 6), sym)
            g = rand_gram(rng, rng.randint(0, 3), sym)
            F, G = f.matrix, g.matrix
            n = rng.randint(0, f.rank)
            basis = list(combinations(range(f.rank), n))
            self.check(ext_power(f, n), oracle_minors(F, basis, fraction_det),
                       sym ** n)
            n = rng.randint(0, min(f.rank, 3))
            basis = list(combinations_with_replacement(range(f.rank), n))
            self.check(sym_power(f, n),
                       oracle_minors(F, basis, fraction_permanent), sym ** n)
            self.check(tensor(f, g), fraction_tensor(F, G), 1)
            self.check(direct_sum(f, g), fraction_direct_sum(F, G), sym)
            a = rand_entry(rng) or Fraction(rng.choice((-1, 1)))
            self.check(scale(a, f), [[a * x for x in row] for row in F], sym)
        for r in range(1, 6):
            for delta, s in (("+", 1), ("-", -1)):
                self.check(hyperbolic(r, delta), fraction_hyperbolic(r, s), s)

    def test_canonical(self):
        # one representation per form: rows and den in lowest terms, den
        # the least common denominator of the entries
        rng = random.Random(913)
        for _ in range(300):
            f = rand_gram(rng, rng.randint(0, 5), rng.choice((1, -1)))
            h = scale(Fraction(1, 2), scale(2, f))
            assert h == f and hash(h) == hash(f)
            for x in (f, h, tensor(f, f), ext_power(f, min(2, f.rank)),
                      scale(Fraction(rng.randint(1, 9), rng.randint(1, 9)), f)):
                assert x.den == lcm(*(y.denominator for row in x.matrix
                                      for y in row))
                assert gcd(x.den, *(y for row in x.rows for y in row)) == 1

    def test_symmetry_kept(self):
        # only GramForm checks that a matrix is sym-symmetric; every
        # construction must return a form equal to its sym-transpose
        rng = random.Random(914)
        powers = set()
        for _ in range(200):
            sym = rng.choice((1, -1))
            f = rand_gram(rng, rng.randint(0, 6), sym)
            g = rand_gram(rng, rng.randint(0, 3), rng.choice((1, -1)))
            outs = []
            for n in range(min(f.rank, 3) + 1):
                outs += [ext_power(f, n), sym_power(f, n)]
                powers.add((sym, n % 2))
            outs += [tensor(f, g), scale(rand_entry(rng) or 3, f)]
            if g.sym == sym:
                outs.append(direct_sum(f, g))
            Bi, d = _integral(rand_matrix(rng, f.rank, rng.randint(0, 4)))
            outs.append(_base_change(Bi, d, f))
            for r in range(1, 4):
                outs += [hyperbolic(r, "+"), hyperbolic(r, "-")]
            for x in outs:
                assert tuple(zip(*x.rows)) == tuple(
                    tuple(x.sym * y for y in row) for row in x.rows), x
        assert powers == {(1, 0), (1, 1), (-1, 0), (-1, 1)}


class TestIntegerKernel:
    def test_det(self):
        rng = random.Random(901)
        for _ in range(3000):
            m = rand_matrix(rng, rng.randint(0, 6))
            mi, d = _integral(m)
            assert Fraction(_int_det(mi), d ** len(m)) == fraction_det(m), m

    def test_mat_mul(self):
        rng = random.Random(902)
        for _ in range(1500):
            n, k, m = (rng.randint(0, 4) for _ in range(3))
            a, b = rand_matrix(rng, n, k), rand_matrix(rng, k, m)
            (ai, da), (bi, db) = _integral(a), _integral(b)
            got = [[Fraction(x, da * db) for x in row]
                   for row in _int_mul(ai, bi)]
            assert got == fraction_mat_mul(a, b), (a, b)
        assert _int_mul([], []) == []
        assert _int_mul([[], []], []) == [[], []]
        assert _int_mul([[1, 2]], [[3], [4]]) == [[11]]

    # the powers compute one triangle and mirror it with sign sym^n; the
    # forms-calc sizes (rank 5-6, n = 2-3) are drawn for both symmetry
    # types, so odd n on skew forms gives skew powers
    TRIANGLE_CASES = [(rank, n, sym) for rank in (5, 6) for n in (2, 3)
                      for sym in (1, -1) for _ in range(2)]

    def test_ext_power(self):
        rng = random.Random(903)
        cases = [(rng.randint(0, 5), None, rng.choice((1, -1)))
                 for _ in range(400)] + self.TRIANGLE_CASES
        for rank, n, sym in cases:
            f = rand_gram(rng, rank, sym)
            n = rng.randint(0, f.rank) if n is None else n
            basis = list(combinations(range(f.rank), n))
            want = oracle_minors(f.matrix, basis, fraction_det)
            assert ext_power(f, n) == GramForm(want, f.sym ** n)

    def test_sym_power(self):
        rng = random.Random(904)
        cases = [(rng.randint(0, 4), None, rng.choice((1, -1)))
                 for _ in range(300)] + self.TRIANGLE_CASES
        for rank, n, sym in cases:
            f = rand_gram(rng, rank, sym)
            n = rng.randint(0, min(f.rank, 3)) if n is None else n
            basis = list(combinations_with_replacement(range(f.rank), n))
            want = oracle_minors(f.matrix, basis, fraction_permanent)
            assert sym_power(f, n) == GramForm(want, f.sym ** n)

    def test_ext_matrix(self):
        # the compound matrix of B = Bi / d is that of Bi over d^n
        rng = random.Random(905)
        for _ in range(600):
            B = rand_matrix(rng, rng.randint(0, 5))
            n = rng.randint(0, len(B) + 1)
            basis = list(combinations(range(len(B)), n))
            Bi, d = _integral(B)
            assert [[Fraction(x, d ** n) for x in row]
                    for row in _compound(Bi, n)] == oracle_minors(
                B, basis, fraction_det)

    def test_compound_of_nonsymmetric(self):
        # a matrix that is neither symmetric nor skew keeps every minor
        rng = random.Random(916)
        for rank, n, _ in self.TRIANGLE_CASES:
            B = [[rng.randint(-9, 9) for _ in range(rank)]
                 for _ in range(rank)]
            B[0][1], B[1][0] = 1, 2
            basis = list(combinations(range(rank), n))
            want = oracle_minors([list(map(Fraction, row)) for row in B],
                                 basis, fraction_det)
            assert want != _transpose(want)
            assert want != [[-x for x in row] for row in _transpose(want)]
            assert _compound(B, n) == want

    def test_congruence(self):
        rng = random.Random(906)
        checked = 0
        while checked < 300:
            sym = rng.choice((1, -1))
            f = rand_gram(rng, rng.randint(1, 5), sym)
            B = rand_matrix(rng, f.rank)
            if fraction_det(B) == 0:
                continue
            checked += 1
            g = fraction_mat_mul(_transpose(B),
                                 fraction_mat_mul([list(r) for r in f.matrix],
                                                  B))
            assert check_congruence(B, f, GramForm(g, sym))
            i = rng.randrange(f.rank)
            j = i if sym == 1 else rng.choice(
                [k for k in range(f.rank) if k != i] or [i])
            if i == j and sym == -1:
                continue  # a skew form of rank 1 has no entry to perturb
            delta = Fraction(rng.choice((-1, 1)), rng.randint(1, 12))
            g[i][j] += delta
            if i != j:
                g[j][i] += sym * delta
            assert not check_congruence(B, f, GramForm(g, sym))

    def test_congruence_rank_mismatch(self):
        f = GramForm.diagonal([1, 2])
        g = GramForm.diagonal([1, 2, 3])
        assert not check_congruence([[1, 0, 0], [0, 1, 0]], f, g)

    def test_rect_congruence(self):
        rng = random.Random(907)
        for _ in range(300):
            sym = rng.choice((1, -1))
            big = rand_gram(rng, rng.randint(1, 5), sym)
            k = rng.randint(1, big.rank)
            J = rand_matrix(rng, big.rank, k)
            small = fraction_mat_mul(
                _transpose(J),
                fraction_mat_mul([list(r) for r in big.matrix], J))
            Ji, d = _integral(J)
            assert _base_change(Ji, d, big) == GramForm(small, sym)
            i = rng.randrange(k)
            if sym == 1:
                small[i][i] += Fraction(1, rng.randint(1, 12))
                assert _base_change(Ji, d, big) != GramForm(small, sym)
            other = GramForm.diagonal([1] * (k + 1))
            assert _base_change(Ji, d, big) != other


def as_pairs(xs) -> list:
    return [(x.numerator, x.denominator) for x in xs]


def lowest_terms(pivots) -> bool:
    return all(d > 0 and gcd(n, d) == 1 for n, d in pivots)


class TestDiagonalizeOracle:
    """The integer elimination returns the Fraction elimination's pivots
    themselves, as (numerator, denominator) pairs in lowest terms, so the
    numbers factored for the invariants are unchanged."""

    def test_random_forms(self):
        rng = random.Random(908)
        seen = []
        for _ in range(1500):
            f = rand_gram(rng, rng.randint(0, 7), 1)
            if f.rank and rng.random() < 0.4:
                # a zero diagonal forces the zero-pivot branches
                f = GramForm([[0 if i == j else x for j, x in enumerate(row)]
                              for i, row in enumerate(f.matrix)])
            try:
                want = fraction_diagonalize(f, seen)
            except DegeneracyError:
                with pytest.raises(DegeneracyError):
                    _diagonalize(f)
                continue
            got = _diagonalize(f)
            assert got == as_pairs(want), f
            assert lowest_terms(got)
        assert {"swap", "add"} <= set(seen)

    def test_degenerate(self):
        rng = random.Random(909)
        checked = 0
        while checked < 300:
            f = rand_gram(rng, rng.randint(1, 6), 1)
            B = rand_matrix(rng, f.rank)
            if f.rank > 1:
                k = rng.randrange(1, f.rank)
                B = [row[:k] + [row[0]] + row[k + 1:] for row in B]
            else:
                B = [[Fraction(0)]]
            g = GramForm(fraction_mat_mul(
                _transpose(B),
                fraction_mat_mul([list(r) for r in f.matrix], B)))
            assert fraction_det(g.matrix) == 0
            checked += 1
            with pytest.raises(DegeneracyError):
                fraction_diagonalize(g)
            with pytest.raises(DegeneracyError):
                _diagonalize(g)

    def test_planted_prime(self):
        rng = random.Random(910)
        for p in (100000000003, 100000000019, 700000000009):
            for _ in range(20):
                entries = [rng.choice((-1, 1)) * rng.randint(1, 30)
                           * rng.choice((1, 4, Fraction(1, 9)))
                           for _ in range(rng.randint(1, 6))]
                entries[rng.randrange(len(entries))] *= rng.choice(
                    (p, Fraction(1, p), Fraction(p, 3)))
                f = GramForm.diagonal(entries)
                want = fraction_diagonalize(f)
                assert want == [Fraction(x) for x in entries]
                assert _diagonalize(f) == as_pairs(want)


# -- the trial division over 2 and every odd d that forms._odd_primes used
# before its 6k +- 1 wheel

def odd_step_primes(n: int) -> list:
    """_odd_primes with trial division by 2 and every odd d up to the bound.
    A cofactor with no prime factor up to the bound goes on to
    forms._odd_primes, whose trial division finds nothing in it and whose
    Miller-Rabin, perfect-power and rho path is unchanged."""
    out = []
    d, limit = 2, min(isqrt(n), TRIAL_DIVISION_MAX)
    while d <= limit:
        if not n % d:
            e = 0
            while not n % d:
                n //= d
                e += 1
            if e % 2:
                out.append(d)
            limit = min(isqrt(n), TRIAL_DIVISION_MAX)
        d += 1 if d == 2 else 2
    if d * d > n:   # n is 1 or a prime
        return out + [n] if n > 1 else out
    return out + _odd_primes(n)


class TestFactoring:
    """_odd_primes past trial division: numbers built from known primes
    below and above TRIAL_DIVISION_MAX, split by Pollard's rho or
    certified by Miller-Rabin."""

    SMALL = (2, 3, 5, 7, 11, 1999993)
    MID = (2000003, 14932627, 27142327)     # found by rho
    LARGE = (100000000003, 1000000000039, 1000000000000000003)  # by MR

    def test_known_primes(self):
        assert max(self.SMALL) < TRIAL_DIVISION_MAX < min(self.MID)
        rng = random.Random(914)
        # each number with a factor above the bound costs a full trial
        # division (0.1 s)
        for _ in range(25):
            exps = {p: rng.randint(1, 3)
                    for p in rng.sample(self.SMALL, rng.randint(0, 3))
                    + rng.sample(self.MID, rng.randint(0, 2))}
            # powers of a large prime are drawn in test_prime_powers
            exps.update((p, 1) for p in rng.sample(self.LARGE,
                                                   rng.randint(0, 1)))
            n = prod(p ** e for p, e in exps.items())
            assert _odd_primes(n) == sorted(p for p, e in exps.items()
                                            if e % 2), exps

    def test_prime_powers(self):
        # rho splits no power of a large prime; an integer k-th root does
        p = self.LARGE[1]
        for n, want in ((p ** 2, []), (p ** 3, [p]), (3 * p ** 2, [3]),
                        (p ** 6, []), (p ** 9 * self.MID[0] ** 3,
                                       [self.MID[0], p])):
            assert _odd_primes(n) == want, n

    def test_refused(self):
        # a probable prime above the bound where Miller-Rabin is exact, and
        # a product of two primes too large for the rho step budget
        for n, why in ((10 ** 25 + 13, "a probable prime above"),
                       (1000000000000000003 * 10000000000000000051,
                        "no factor in")):
            with pytest.raises(ValueError, match="cannot factor %d: %s"
                               % (n, why)):
                _odd_primes(n)

    def test_wheel_oracle(self):
        # the 6k +- 1 wheel against the odd-step loop it replaced
        corpus = list(range(1, 50001))
        corpus += [b ** k for b in (2, 3) for k in range(41)]
        corpus += [5 ** a * 7 ** b for a in range(21) for b in range(21)]
        # primes on both sides of 6k: 5, 11, 1999979 = -1 and 7, 13,
        # 1999993 = +1 mod 6, the last two the largest below the bound;
        # 2000003 is the first prime above it
        corpus += [p ** k for p in (5, 7, 11, 13, 1999979, 1999993)
                   for k in (2, 3)] + [2000003]
        for n in corpus:
            assert _odd_primes(n) == odd_step_primes(n), n
        rng = random.Random(929)
        for i in range(300):
            # 1999993 to the first power is found by the d * d > n test;
            # only the first few numbers carry a factor above the bound, as
            # each costs a full trial division on both sides
            exps = {p: rng.randint(1, 4)
                    for p in rng.sample(self.SMALL[:-1], rng.randint(0, 5))}
            if rng.random() < 0.5:
                exps[self.SMALL[-1]] = 1
            if i < 6:
                exps[rng.choice(self.MID + self.LARGE)] = rng.randint(1, 2)
            n = prod(p ** e for p, e in exps.items())
            want = sorted(p for p, e in exps.items() if e % 2)
            assert _odd_primes(n) == odd_step_primes(n) == want, exps

    def test_walk_scaled_to_length(self):
        # past COFACTOR_DIGITS_MAX digits trial division stops sooner, at
        # TRIAL_DIVISION_MAX * COFACTOR_DIGITS_MAX / digits: 1999993^680
        # (4,285 digits) took 2.4 s walking to 2*10^6 and is refused after a
        # walk to about 70,000
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cannot factor a cofactor of "
                           "4285 digits: the limit is 150 digits"):
            _odd_primes(1999993 ** 680)
        assert time.perf_counter() - start < 1
        # 145 digits walk to 2*10^6 as before, 152 digits stop just short
        assert _odd_primes(1999993 ** 23) == [1999993]
        with pytest.raises(ValueError, match="cofactor of 152 digits"):
            _odd_primes(1999993 ** 24)

    def test_rho_budget(self):
        # one budget of RHO_STEPS for all the splits of a number: sixteen
        # primes in 10^9..3*10^9 took 534,760 steps over 15 splits (2.0 s)
        # with a budget per split, and are now refused within about 1 s
        rng = random.Random(1)
        ps = []
        while len(ps) < 16:
            p = rng.randrange(10 ** 9, 3 * 10 ** 9) | 1
            if all(p % d for d in range(3, isqrt(p) + 1, 2)):
                ps.append(p)
        n = prod(ps)
        start = time.perf_counter()
        with pytest.raises(ValueError) as err:
            _odd_primes(n)
        assert time.perf_counter() - start < 2
        # the message names the composite being split when the budget ran out
        m = int(re.fullmatch(r"cannot factor (\d+): no factor in 131072 steps "
                             r"of Pollard's rho", str(err.value))[1])
        assert n % m == 0 and sum(m % p == 0 for p in ps) >= 2
        # a product that needs two small splits stays within the budget
        assert _odd_primes(prod(self.MID)) == sorted(self.MID)

    def test_hilbert_reciprocity_large_primes(self):
        rng = random.Random(915)
        for _ in range(12):
            factors = [(rng.choice((-1, 1)), rng.choice(self.SMALL + self.MID),
                        rng.choice(self.MID + self.LARGE))
                       for _ in range(rng.randint(1, 3))]
            inv = invariants(GramForm.diagonal([prod(x) for x in factors]))
            assert prod(v for _, v in inv.hasse) == 1
            odd = set()
            for _, a, b in factors:
                odd ^= {a}
                odd ^= {b}
            assert inv.disc == prod(s for s, _, _ in factors) * prod(odd)


class TestIdentityCheckOracle:
    def test_random_sums(self):
        rng = random.Random(911)

        def form():
            while True:
                f = rand_gram(rng, rng.randint(1, 3), 1)
                if f.det() != 0:
                    return f

        outcomes = set()
        for _ in range(400):
            lhs = [(rng.randint(-2, 2), form())
                   for _ in range(rng.randint(1, 3))]
            kind = rng.random()
            if kind < 0.4:
                # the same class: terms moved across with negated
                # coefficients and each form replaced by a congruent one
                rhs = []
                for c, f in lhs:
                    B = rand_unimodular(rng, f.rank)
                    g = GramForm(fraction_mat_mul(
                        _transpose(B),
                        fraction_mat_mul([list(r) for r in f.matrix], B)))
                    rhs.append((c, g))
                extra = form()
                lhs.append((1, extra))
                rhs.append((1, extra))
                if rng.random() < 0.5:
                    c, g = rhs.pop(0)
                    lhs.append((-c, g))
                    lhs.append((c, lhs[0][1]))
            elif kind < 0.6:
                rhs = [(c, scale(rng.choice((2, 3, -1)), f)) for c, f in lhs]
            else:
                rhs = [(rng.randint(-2, 2), form())
                       for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.1:
                skew = rand_gram(rng, rng.randint(1, 3), -1)
                (lhs if rng.random() < 0.5 else rhs).append(
                    (rng.choice((-1, 1)), skew))
                with pytest.raises(TypeError):
                    fraction_identity_check(lhs, rhs)
                with pytest.raises(TypeError):
                    gw_identity_check(lhs, rhs)
                outcomes.add("skew")
                continue
            want = fraction_identity_check(lhs, rhs)
            assert gw_identity_check(lhs, rhs) == want, (lhs, rhs)
            outcomes.add(want)
        assert outcomes == {True, False, "skew"}


@st.composite
def congruent_pair(draw):
    n = draw(st.integers(1, 4))
    ints = st.integers(-6, 6)
    dens = st.integers(1, 6)
    upper = {(i, j): Fraction(draw(ints), draw(dens))
             for i in range(n) for j in range(i, n)}
    f = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    B = [[Fraction(draw(ints), draw(dens)) for _ in range(n)]
         for _ in range(n)]
    return f, B


@settings(max_examples=150, deadline=None, derandomize=True)
@given(congruent_pair())
def test_congruent_forms_have_equal_invariants(pair):
    f, B = pair
    assume(fraction_det(f) != 0 and fraction_det(B) != 0)
    g = fraction_mat_mul(_transpose(B), fraction_mat_mul(f, B))
    a, b = invariants(GramForm(f)), invariants(GramForm(g))
    assert a.same_class(b) and b.same_class(a)
    assert (a.rank, a.signature, a.disc) == (b.rank, b.signature, b.disc)
