import json
import os
import random
import subprocess
import sys
from itertools import combinations, permutations, product

import pytest

import gwadams
from gwadams.polyring import MultiPoly, Ring, TruncSeries
from gwadams import symfunc
from gwadams.symfunc import (
    check_appendix_b, elementary, ell_args, evaluate, ring_P, ring_Q, ring_R,
    rxy_closed, universal_P, universal_Q, universal_R,
)

U2 = Ring([("U1", False), ("U2", False)])


def grlex_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


# -- the reduction of a symmetric polynomial to the elementary basis, a
# test helper over symfunc._reduce_dominant: the symmetry check, the
# dominant part (dominant_part below) and the target ring

class SymmetryError(ValueError):
    """Input not symmetric; `witness` holds the offending transposition."""

    def __init__(self, msg, witness):
        super().__init__(msg)
        self.witness = witness


def symmetry_witness(p, family):
    """Return an adjacent transposition (name_k, name_{k+1}) under which p is
    not invariant, or None if p passes all adjacent-transposition checks."""
    idx = [p.ring.index(n) for n in family]
    terms = p.tuple_terms()
    get = terms.get
    for k in range(len(idx) - 1):
        i, j = idx[k], idx[k + 1]
        # the swap is a bijection, so p is invariant iff every term's image
        # carries the same coefficient
        for exps, c in terms.items():
            if exps[i] != exps[j]:
                e = list(exps)
                e[i], e[j] = e[j], e[i]
                if get(tuple(e)) != c:
                    return (family[k], family[k + 1])
    return None


def symmetric_reduce(p, family=None, targets=None):
    """Rewrite a polynomial symmetric in the `family` variables as a
    polynomial in new variables `targets`, where target k stands for
    sigma_k(family), by symfunc's counting reduction of the dominant part
    (the terms whose family exponent is a partition).  Non-family
    variables ride along unchanged."""
    ring = p.ring
    if family is None:
        family = list(ring.names)
    m = len(family)
    if targets is None:
        targets = ["X%d" % k for k in range(1, m + 1)]
    if len(targets) != m:
        raise ValueError("need one target symbol per family variable")
    w = symmetry_witness(p, family)
    if w is not None:
        raise SymmetryError("not symmetric under transposition %s<->%s" % w, w)
    fam_idx = [ring.index(n) for n in family]
    target = Ring([(targets[fam_idx.index(i)], False) if i in fam_idx
                   else (nm, ring.laurent[i])
                   for i, nm in enumerate(ring.names)])
    work = dominant_part(p, family, target)
    for a in work:
        if a and a[-1] < 0:
            raise ValueError("negative exponent %d of a family variable"
                             % a[-1])
    return symfunc._reduce_dominant(work, target, targets, m)


# -- reference oracles: Gauss's reduction over the whole worklist and the
# expansion of each defining product one factor (1 + t*monomial) at a time,
# as symfunc computed them before the reduction kept to dominant monomials


def worklist_reduce(p, family=None, targets=None):
    """Gauss's algorithm on every term: find the graded-lex leading family
    exponent, write its term, subtract coeff * prod sigma_k^{d_k} from the
    whole polynomial."""
    ring = p.ring
    if family is None:
        family = list(ring.names)
    m = len(family)
    if targets is None:
        targets = ["X%d" % k for k in range(1, m + 1)]
    w = symmetry_witness(p, family)
    if w is not None:
        raise SymmetryError("not symmetric", w)
    fam_idx = [ring.index(n) for n in family]
    fam_set = set(fam_idx)
    target = Ring([(targets[fam_idx.index(i)], False) if i in fam_set
                   else (nm, ring.laurent[i])
                   for i, nm in enumerate(ring.names)])
    us = [ring.var(u) for u in family]
    sigma = [None] + [elementary(us, k) for k in range(1, m + 1)]
    work = dict(p.tuple_terms())
    out = {}
    while work:
        a = max((tuple(e[i] for i in fam_idx) for e in work), key=grlex_key)
        assert all(a[k] >= a[k + 1] for k in range(m - 1)), a
        d = [a[k] - a[k + 1] for k in range(m - 1)] + [a[m - 1]]
        coeff_terms = {}
        for exps, c in work.items():
            if tuple(exps[i] for i in fam_idx) == a:
                key = tuple(0 if i in fam_set else e
                            for i, e in enumerate(exps))
                coeff_terms[key] = coeff_terms.get(key, 0) + c
        for key, c in coeff_terms.items():
            te = list(key)
            for k in range(m):
                te[fam_idx[k]] = d[k]
            out[tuple(te)] = out.get(tuple(te), 0) + c
        eprod = MultiPoly.from_exps(ring, coeff_terms)
        for k in range(1, m + 1):
            eprod = eprod * sigma[k] ** d[k - 1]
        for exps, c in eprod.tuple_terms().items():
            work[exps] = work.get(exps, 0) - c
            if not work[exps]:
                del work[exps]
    return MultiPoly.from_exps(target, out)


def expand_elementary(p, family, values, target):
    """Inverse of symmetric_reduce for round-trip checks: substitute
    family variable k by sigma_k of the `values` variables of `target`."""
    vals = [target.var(v) for v in values]
    bind = {family[k - 1]: elementary(vals, k)
            for k in range(1, len(family) + 1)}
    return p.substitute(bind, target)


def expanded_product(monomials, ring, order):
    """prod (1 + t*mono) over the monomials, one factor at a time."""
    prod = TruncSeries.one(ring, order)
    for mono in monomials:
        prod = prod * TruncSeries(ring, order, [ring.one(), mono])
    return prod


def family(prefix, m):
    return ["%s%d" % (prefix, k) for k in range(1, m + 1)]


def oracle_P(n, m):
    src = Ring([(x, False) for x in family("U", m) + family("V", m)])
    top = expanded_product([src.var(u) * src.var(v) for u in family("U", m)
                            for v in family("V", m)], src, n)[n]
    xu = worklist_reduce(top, family("U", m), family("X", m))
    return worklist_reduce(xu, family("V", m), family("Y", m)).rename(ring_P(n))


def q_product(i, j, m):
    """The t^i coefficient of prod_S(1 + U^S t) over the j-subsets S of
    U_1..U_m, expanded."""
    src = Ring([(x, False) for x in family("U", m)])
    monos = []
    for combo in combinations(family("U", m), j):
        mono = src.one()
        for u in combo:
            mono = mono * src.var(u)
        monos.append(mono)
    return expanded_product(monos, src, i)[i]


def oracle_Q(i, j, m):
    return worklist_reduce(q_product(i, j, m), family("U", m),
                           family("X", m)).rename(ring_Q(i * j))


def dominant_part(p, fam, ring=None):
    """{partition a: {monomial with the fam exponents zeroed: coeff}} of
    the terms of p whose fam exponent is a partition, a without its zero
    parts; the monomials are packed in ring, by default p's ring."""
    pack = (ring or p.ring).pack
    fam_idx = [p.ring.index(u) for u in fam]
    out = {}
    for exps, c in p.tuple_terms().items():
        a = tuple(exps[i] for i in fam_idx)
        if a == tuple(sorted(a, reverse=True)):
            rest = tuple(0 if i in fam_idx else e for i, e in enumerate(exps))
            out.setdefault(tuple(filter(None, a)), {})[pack(rest)] = c
    return out


def sigma_reduce(p, fam, targets):
    """Gauss's algorithm on the dominant terms only, as symfunc computed it
    before it counted 0-1 matrices: pop the graded-lex leading partition a,
    multiply out prod sigma_k^{d_k} in all the fam variables and subtract
    it on its dominant monomials."""
    ring = p.ring
    m = len(fam)
    fam_idx = [ring.index(u) for u in fam]
    fam_set = set(fam_idx)
    target = Ring([(targets[fam_idx.index(i)], False) if i in fam_set
                   else (nm, ring.laurent[i])
                   for i, nm in enumerate(ring.names)])
    work = {}
    for exps, c in p.tuple_terms().items():
        a = tuple(exps[i] for i in fam_idx)
        if a == tuple(sorted(a, reverse=True)):
            rest = tuple(0 if i in fam_set else e for i, e in enumerate(exps))
            work.setdefault(a, {})[rest] = c
    us = [ring.var(u) for u in fam]
    sigma = {}
    out = {}
    while work:
        a = max(work, key=grlex_key)
        coeffs = work.pop(a)
        d = [x - y for x, y in zip(a, a[1:] + (0,))]
        for rest, c in coeffs.items():
            te = list(rest)
            for i, dk in zip(fam_idx, d):
                te[i] = dk
            out[tuple(te)] = c
        s = ring.one()
        for k, dk in enumerate(d, 1):
            if dk:
                if k not in sigma:
                    sigma[k] = elementary(us, k)
                s = s * sigma[k] ** dk
        for exps, sb in s.tuple_terms().items():
            b = tuple(exps[i] for i in fam_idx)
            if b == a or b != tuple(sorted(b, reverse=True)):
                continue
            group = work.setdefault(b, {})
            for rest, c in coeffs.items():
                v = group.get(rest, 0) - c * sb
                if v:
                    group[rest] = v
                else:
                    del group[rest]
            if not group:
                del work[b]
    return MultiPoly.from_exps(target, out)


def zero_one_matrices(rows, cols):
    """The 0-1 matrices with the given row and column sums, counted by
    enumerating each row's set of columns."""
    count = 0
    for choice in product(*(combinations(range(len(cols)), r) for r in rows)):
        sums = [0] * len(cols)
        for hit in choice:
            for k in hit:
                sums[k] += 1
        count += tuple(sums) == tuple(cols)
    return count


def oracle_R(n, m):
    """The direct route with the m^2 factors f(t U_i V_j), f(s) =
    sum_k sigma_k(W) s^k, multiplied in (i, j) order."""
    src = Ring([(x, False) for p in "UVW" for x in family(p, m)])
    ws = [src.var(w) for w in family("W", m)]
    sig_w = [elementary(ws, k) for k in range(0, min(m, n) + 1)]
    prod = TruncSeries.one(src, n)
    for u in family("U", m):
        for v in family("V", m):
            uv = src.var(u) * src.var(v)
            prod = prod * TruncSeries(src, n, [c * uv ** k
                                               for k, c in enumerate(sig_w)])
    p = prod[n]
    for fam, tgt in ("UX", "VY", "WZ"):
        p = worklist_reduce(p, family(fam, m), family(tgt, m))
    return p.rename(ring_R(n))


def random_symmetric(rng, m, max_carries=2):
    """A random polynomial symmetric in U1..Um, in a ring that also holds
    up to max_carries carry variables (c Laurent, d not) at random
    positions."""
    carries = [("c", True), ("d", False)][:rng.randrange(max_carries + 1)]
    names = [(u, False) for u in family("U", m)] + carries
    rng.shuffle(names)
    ring = Ring(names)
    fam = family("U", m)
    terms = {}
    for _ in range(rng.randrange(1, 5)):
        a = [rng.randrange(4) for _ in fam]
        rest = {"c": rng.randrange(-2, 3), "d": rng.randrange(3)}
        c = rng.randrange(-5, 6)
        for perm in set(permutations(a)):
            e = dict(zip(fam, perm))
            exps = tuple(e[x] if x in e else rest[x] for x in ring.names)
            terms[exps] = terms.get(exps, 0) + c
    return MultiPoly.from_exps(ring, terms), fam


class TestElementary:
    US = [U2.var("U1"), U2.var("U2")]

    def test_sigma1(self):
        assert elementary(self.US, 1) == U2.var("U1") + U2.var("U2")

    def test_sigma2(self):
        assert elementary(self.US, 2) == U2.var("U1") * U2.var("U2")

    def test_sigma_above_arity(self):
        assert elementary(self.US, 3).is_zero()

    def test_sigma0(self):
        assert elementary(self.US, 0) == U2.one()

    def test_polynomials(self):
        a, b = U2.var("U1") - 1, U2.var("U2") + 2
        c = U2.var("U1") * U2.var("U2")
        assert elementary([a, b, c], 2) == a * b + a * c + b * c


class TestReduce:
    def test_power_sum(self):
        p = U2.var("U1") ** 2 + U2.var("U2") ** 2
        r = symmetric_reduce(p)
        X = r.ring
        assert r == X.var("X1") ** 2 - 2 * X.var("X2")

    def test_product(self):
        assert symmetric_reduce(U2.var("U1") * U2.var("U2")).text() == "X2"

    def test_mixed(self):
        p = U2.var("U1") ** 2 * U2.var("U2") + U2.var("U1") * U2.var("U2") ** 2
        assert symmetric_reduce(p).text() == "X1*X2"

    def test_round_trip_random(self):
        import random
        rng = random.Random(7)
        R = Ring([("U1", False), ("U2", False), ("U3", False)])
        names = ["U1", "U2", "U3"]
        for _ in range(25):
            # random symmetric polynomial: symmetrize a random polynomial
            from itertools import permutations
            p = R.zero()
            for _ in range(4):
                exps = [rng.randrange(4) for _ in range(3)]
                c = rng.randrange(-5, 6)
                for perm in permutations(exps):
                    p = p + R.monomial(c, dict(zip(names, perm)))
            red = symmetric_reduce(p, names)
            back = expand_elementary(red, ["X1", "X2", "X3"], names, R)
            assert back == p

    def test_not_symmetric_witness(self):
        p = U2.var("U1")
        with pytest.raises(SymmetryError) as ei:
            symmetric_reduce(p)
        assert ei.value.witness == ("U1", "U2")
        assert symmetry_witness(p, ["U1", "U2"]) == ("U1", "U2")

    def test_negative_family_exponent(self):
        R = Ring([("U1", True), ("U2", True)])
        with pytest.raises(ValueError, match="negative exponent -1"):
            symmetric_reduce(R.var("U1", -1) + R.var("U2", -1))

    def test_carry_variables(self):
        R = Ring([("U1", False), ("U2", False), ("c", True)])
        p = (U2.var("U1") + U2.var("U2")).rename(R) * R.var("c", -1)
        r = symmetric_reduce(p, ["U1", "U2"])
        assert r.text() == "X1*c^-1"


class TestReduceOracle:
    """symmetric_reduce and the arity-m routes against the oracles above."""

    def test_random_symmetric(self):
        rng = random.Random(20261018)
        for trial in range(400):
            m = 1 + trial % 4
            p, fam = random_symmetric(rng, m)
            tgt = family("E", m)
            assert symmetric_reduce(p, fam, tgt) == worklist_reduce(
                p, fam, tgt), p

    def test_whole_ring_default_names(self):
        rng = random.Random(7)
        for m in (1, 2, 3, 4):
            for _ in range(10):
                p, _ = random_symmetric(rng, m, max_carries=0)
                assert symmetric_reduce(p) == worklist_reduce(p)

    def test_non_symmetric_witness(self):
        rng = random.Random(11)
        for m in (2, 3, 4):
            for _ in range(20):
                p, fam = random_symmetric(rng, m)
                exps = tuple(rng.randrange(1, 4) if x == "U1" else 0
                             for x in p.ring.names)
                q = p + MultiPoly.from_exps(p.ring, {exps: 1})
                with pytest.raises(SymmetryError) as got:
                    symmetric_reduce(q, fam)
                with pytest.raises(SymmetryError) as want:
                    worklist_reduce(q, fam)
                assert got.value.witness == want.value.witness
                assert got.value.witness == symmetry_witness(q, fam)

    def test_dominant_product(self):
        """The built dominant part of prod_i F(t U_i) against the dominant
        part of the expanded series, and both reductions."""
        rng = random.Random(20261019)
        for trial in range(240):
            m = 1 + trial % 4
            carries = [("c", True), ("d", False)][:rng.randrange(3)]
            names = [(u, False) for u in family("U", m)] + carries
            rng.shuffle(names)
            ring = Ring(names)
            fam = family("U", m)
            coeffs = [ring.one()]
            for _ in range(rng.randrange(1, 5)):
                terms = {}
                # a zero coefficient one time in six
                for _ in range(rng.choice([0, 1, 1, 2, 2, 3])):
                    e = {"c": rng.randrange(-2, 3), "d": rng.randrange(3)}
                    exps = tuple(e.get(x, 0) for x in ring.names)
                    terms[exps] = terms.get(exps, 0) + rng.choice([-2, -1, 1, 3])
                coeffs.append(MultiPoly.from_exps(ring, terms))
            # now and then above the largest degree m * (len(coeffs) - 1)
            n = rng.randrange(min(6, m * (len(coeffs) - 1) + 1) + 1)
            series = TruncSeries.one(ring, n)
            for u in fam:
                series = series * TruncSeries(
                    ring, n, [c * ring.var(u) ** k for k, c in enumerate(coeffs)])
            want = dominant_part(series[n], fam)
            got = symfunc._dominant_product(coeffs, m, n)
            assert got == want, (coeffs, n)
            tgt = family("E", m)
            red = worklist_reduce(series[n], fam, tgt)
            assert symfunc._reduce_dominant(got, red.ring, tgt, m) == red, \
                (coeffs, n)

    def test_universal_P(self):
        for n in range(1, 5):
            for m in range(n, n + 3):
                assert universal_P(n, m) == oracle_P(n, m), (n, m)

    def test_universal_Q(self):
        for i, j in ((i, j) for i in range(1, 7) for j in range(1, 7)
                     if i * j <= 6):
            for m in (i * j, i * j + 1, i * j + 2):
                assert universal_Q(i, j) == oracle_Q(i, j, m), (i, j, m)

    def test_universal_R_direct(self):
        for n in range(1, 4):
            for m in range(n, n + 2):
                assert universal_R(n, "direct", m) == oracle_R(n, m), (n, m)

    def test_sigma_products(self):
        """The counting reduction against the sigma products it replaced,
        on the corpus of test_random_symmetric."""
        rng = random.Random(20261018)
        for trial in range(400):
            m = 1 + trial % 4
            p, fam = random_symmetric(rng, m)
            tgt = family("E", m)
            assert symmetric_reduce(p, fam, tgt) == sigma_reduce(p, fam,
                                                                 tgt), p

    def test_zero_one(self):
        for n, count in enumerate((1, 1, 2, 3, 5, 7, 11)):
            parts = list(symfunc._partitions(n, n, n))
            assert len(parts) == count and parts == sorted(parts, reverse=True)
            for rows in parts:
                for cols in parts:
                    assert symfunc._zero_one(rows, cols) == \
                        zero_one_matrices(rows, cols), (rows, cols)

    def test_P_stability(self):
        for n in range(1, 11):
            assert universal_P(n, n + 1) == universal_P(n), n

    def test_R_direct_is_composed(self):
        for n in range(1, 10):
            assert universal_R(n, "direct") == universal_R(n, "composed"), n


class TestUniversalP:
    def test_p0(self):
        assert universal_P(0) == ring_P(0).one()

    def test_p1(self):
        assert universal_P(1).text() == "X1*Y1"

    def test_p2(self):
        R = ring_P(2)
        want = (R.var("X1") ** 2 * R.var("Y2") + R.var("X2") * R.var("Y1") ** 2
                - 2 * R.var("X2") * R.var("Y2"))
        assert universal_P(2) == want

    def test_p1_specialized_to_single_roots(self):
        # expand the defining product at m=1 and specialize both roots
        R = Ring([("v", False)])
        v = [R.var("v")]
        assert evaluate(universal_P(1), R, X=v, Y=v) == R.var("v") ** 2

    def test_symmetric_in_xy_swap(self):
        # P_n(X,Y) = P_n(Y,X) since the defining product is
        p = universal_P(3)
        R = p.ring
        swap = {f"X{k}": R.var(f"Y{k}") for k in range(1, 4)}
        swap |= {f"Y{k}": R.var(f"X{k}") for k in range(1, 4)}
        assert p.substitute(swap, R) == p


class TestUniversalQ:
    def test_i1(self):
        for j in (1, 2, 3):
            assert universal_Q(1, j).text() == "X%d" % j

    def test_j1(self):
        for i in (1, 2, 3):
            assert universal_Q(i, 1).text() == "X%d" % i

    def test_q22(self):
        R = universal_Q(2, 2).ring
        want = R.var("X1") * R.var("X3") - R.var("X4")
        assert universal_Q(2, 2) == want


class TestUniversalR:
    def test_r1(self):
        assert universal_R(1).text() == "X1*Y1*Z1"

    def test_methods_agree(self):
        for n in range(1, 7):
            assert universal_R(n, "direct") == universal_R(n, "composed")

    def test_bad_method(self):
        with pytest.raises(ValueError):
            universal_R(2, "sideways")

    def test_composed_takes_no_arity(self):
        for n, m in ((2, 9), (3, 2)):
            with pytest.raises(ValueError, match="method 'direct'"):
                universal_R(n, "composed", m=m)


class TestAppendixB:
    def test_battery_all_pass(self):
        rep = check_appendix_b()
        assert rep.ok
        lemmas = {e.lemma for e in rep.entries}
        assert {"RXY", "RB", "RZ", "R_P", "R_abc", "lambda_dim1",
                "product_dim1", "P_stability", "Q_stability",
                "pi_recursion"} <= lemmas

    def test_rxy_value_at_2(self):
        rep = check_appendix_b()
        entry = next(e for e in rep.entries if e.lemma == "RXY" and e.params == (2,))
        assert entry.status == "pass"
        assert entry.to_obj()["rhs"] == "x^2 + y^2 - 2"


def _fresh_process(code, cache_path):
    """Run python code in a new process whose GWADAMS_CACHE names cache_path,
    so no in-process state from other tests can hide a file being read."""
    env = dict(os.environ, GWADAMS_CACHE=str(cache_path),
               PYTHONPATH=os.path.dirname(os.path.dirname(gwadams.__file__)))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


CLI = "from gwadams.cli import main; main(%r)"
P3 = "X1^3*Y3 + X1*X2*Y1*Y2 + X3*Y1^3 - 3*X1*X2*Y3 - 3*X3*Y1*Y2 + 3*X3*Y3"


class TestNoDiskCache:
    """A file named by the former GWADAMS_CACHE variable affects nothing."""

    def test_stale_cache_file_is_ignored(self, tmp_path):
        wrong = 7 * ring_P(3).var("X3") * ring_P(3).var("Y3")
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"version": gwadams.__version__,
                                    "entries": {"P:3": wrong.to_obj()}}))
        assert universal_P(3).text() == P3
        lib = _fresh_process("from gwadams.symfunc import universal_P; "
                             "print(universal_P(3).text())", path)
        assert (lib.returncode, lib.stdout) == (0, P3 + "\n")
        cli = _fresh_process(CLI % ["universal", "P", "3"], path)
        assert (cli.returncode, cli.stdout) == (0, P3 + "\n")

    def test_non_json_file_left_untouched(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_bytes(b"not json \x00\xff")
        cli = _fresh_process(CLI % ["universal", "P", "2"], path)
        assert cli.returncode == 0
        assert path.read_bytes() == b"not json \x00\xff"


class TestNewtonRoute:
    """The power-sum route against the Gauss reduction, the expanded
    products and closed forms."""

    def test_p5_matches_expansion(self):
        assert universal_P(5) == universal_P(5, m=5)

    def test_q_matches_expansion(self):
        for i, j in ((i, j) for i in range(1, 9) for j in range(1, 9)
                     if i * j <= 8):
            assert universal_Q(i, j) == oracle_Q(i, j, i * j), (i, j)

    def test_rxy_beyond_four(self):
        R = Ring([("x", False), ("y", False)])
        x, y = R.var("x"), R.var("y")
        for n in range(5, 9):
            got = evaluate(universal_P(n), R, X=ell_args(x, n),
                           Y=ell_args(y, n))
            assert got == rxy_closed(n, x, y) == R.zero(), n

    def test_exact_div_raises_on_remainder(self):
        p = 6 * U2.var("U1") + 3 * U2.var("U2")
        assert symfunc._exact_div(p, 3) == 2 * U2.var("U1") + U2.var("U2")
        with pytest.raises(ArithmeticError):
            symfunc._exact_div(p, 2)


class TestSeriesGroupBattery:
    def test_full(self):
        rep = symfunc.check_appendix_a()
        assert rep.ok
        lemmas = {e.lemma for e in rep.entries}
        assert {"series_inverse", "series_assoc", "series_comm",
                "line_product", "power_scaling"} <= lemmas

    def test_deterministic(self):
        a = symfunc.check_appendix_a()
        b = symfunc.check_appendix_a()
        assert a.to_json() == b.to_json()
