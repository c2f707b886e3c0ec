"""Packed monomials against the exponent-tuple kernels they replaced, and
the guard that keeps a product from carrying between fields.

The oracles below are polyring's _mul_into and substitute and gwring's
normalize as they were on exponent tuples, run on the tuple view of the
same polynomials, and MultiPoly.rename as it was before it became a
substitution: each kept field moved by shift and mask."""

import operator
from collections import defaultdict
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from gwadams.gwring import GW, context_ring, normalize
from gwadams.polyring import (
    EXP_MASK, ContextError, ExponentError, MultiPoly, Ring,
    SubstitutionError, TruncSeries,
)

from test_cli import _python

LO, HI = -(1 << 31), (1 << 31) - 1     # the range of a Laurent exponent


# ---------------------------------------------------------------------------
# the tuple oracles

def tuple_mul_into(out: dict, a: dict, b: dict) -> None:
    """out += a*b on exponent-tuple term dicts."""
    if len(a) > len(b):
        a, b = b, a
    add, get = operator.add, out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                del out[e]


def tuple_substitute(p: MultiPoly, bindings: dict, target: Ring) -> dict:
    """The image of p under the bindings as an exponent-tuple term dict:
    zero bindings drop terms, single-term bindings act on the exponent
    vector, multi-term bindings are multiplied out with their powers
    shared over common prefixes of the sorted exponent vectors."""
    src = p.ring
    passthrough, zero, mono, multi, bad = [], [], [], [], {}
    for i, name in enumerate(src.names):
        err = None
        if name not in bindings:
            j = target.index(name)
            passthrough.append((i, j))
            if not target.laurent[j]:
                err = ExponentError
        else:
            v = bindings[name].tuple_terms()
            if len(v) == 1:
                (e, c), = v.items()
                mono.append((i, [(j, x) for j, x in enumerate(e) if x], c))
                if c not in (1, -1):
                    err = SubstitutionError
                elif any(x > 0 and not target.laurent[j]
                         for j, x in enumerate(e)):
                    err = ExponentError
            else:
                if v:
                    multi.append((i, v))
                else:
                    zero.append(i)
                err = SubstitutionError
        if err and src.laurent[i]:
            bad[i] = err
    terms = p.tuple_terms()
    order = sorted(bad, key=lambda i: (src.names[i] in bindings, i))
    for e in terms:
        for i in order:
            if e[i] < 0:
                raise bad[i]
    nt = target.nvars
    groups: dict = {}
    for exps, c in terms.items():
        if zero and any(exps[i] for i in zero):
            continue
        te = [0] * nt
        for i, j in passthrough:
            te[j] = exps[i]
        for i, ev, cv in mono:
            k = exps[i]
            if k:
                for j, x in ev:
                    te[j] += k * x
                if cv != 1:
                    c *= cv ** abs(k)
        group = groups.setdefault(tuple([exps[i] for i, _ in multi]), {})
        te = tuple(te)
        s = group.get(te, 0) + c
        if s:
            group[te] = s
        else:
            del group[te]
    if not multi:
        return groups.get((), {})
    one = {(0,) * nt: 1}
    powers = [[one, v] for _, v in multi]

    def power(q: int, k: int) -> dict:
        table = powers[q]
        while len(table) <= k:
            nxt: dict = {}
            tuple_mul_into(nxt, table[-1], table[1])
            table.append(nxt)
        return table[k]

    out: dict = {}
    prev: tuple = ()
    stack = [one]
    for key in sorted(groups):
        group = groups[key]
        if not group:
            continue
        d = 0
        while d < len(prev) and key[d] == prev[d]:
            d += 1
        del stack[d + 1:]
        for q in range(d, len(key)):
            k, base = key[q], stack[-1]
            if k:
                f = power(q, k)
                if base is not one:
                    acc: dict = {}
                    tuple_mul_into(acc, base, f)
                    f = acc
                base = f
            stack.append(base)
        prev = key
        tuple_mul_into(out, group, stack[-1])
    return out


def tuple_normalize(p: MultiPoly, square_zero: tuple = ()) -> dict:
    """gwring.normalize on exponent tuples, by its closed formulas."""
    ring = p.ring
    ie, it, ig = ring.index("eps"), ring.index("tau"), ring.index("gamma")
    iu = [ring.index(u) for u in square_zero]
    out: dict = defaultdict(int)
    for exps, c in p.tuple_terms().items():
        choices = [((i, 1, k - 1, k), (i, 0, k, 1 - k))
                   for i in iu if (k := exps[i]) >= 2]
        if not choices and exps[ie] + exps[it] <= 1:
            out[exps] += c
            continue
        for pick in product(*choices):
            e, cc = list(exps), c
            for i, ue, dt, f in pick:
                e[i], e[it], cc = ue, e[it] + dt, cc * f
            a, b = e[ie], e[it]
            if not b:
                e[ie] = a % 2
                out[tuple(e)] += cc
                continue
            m, odd = divmod(b, 2)
            cc *= (-1) ** a * (4 ** m if odd else 2 ** (2 * m - 1))
            e[ie], e[it], e[ig] = 0, odd, e[ig] + m
            out[tuple(e)] += cc
            if not odd:
                e[ie] = 1
                out[tuple(e)] -= cc
    return {e: c for e, c in out.items() if c}


def relocation(src: Ring, target: Ring, pairs) -> tuple:
    """(base, moves) such that base + sum of (key & m) shifted left by d
    (right by -d) over (d, m) in moves is the monomial of target with the
    exponent of source variable i at target variable j for (i, j) in
    pairs and 0 elsewhere, for each monomial key of src.  Fields that move
    by the same distance move together."""
    base, masks = target.bias, {}
    for i, j in pairs:
        s, t = src.shifts[i], target.shifts[j]
        masks[t - s] = masks.get(t - s, 0) | EXP_MASK << s
        base -= src.offsets[i] << t
    return base, sorted(masks.items())


def relocation_rename(p: MultiPoly, target: Ring, mapping=None) -> MultiPoly:
    """MultiPoly.rename by moving each kept field to its target field."""
    used = p.support()
    pairs = []
    for i, name in enumerate(p.ring.names):
        new = mapping.get(name, name) if mapping else name
        if new in target.names:
            pairs.append((i, target.index(new)))
        elif i in used:
            raise ContextError("variable %r absent from target" % new)
    base, moves = relocation(p.ring, target, pairs)
    out = {}
    for key, c in p.terms.items():
        te = base
        for d, m in moves:
            te += (key & m) << d if d >= 0 else (key & m) >> -d
        out[te] = c
    return MultiPoly(target, out)


def tuple_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# random polynomials with Laurent variables and cancellation

RL = Ring([("x", False), ("g", True), ("y", False), ("h", True)])
T = Ring([("s", False), ("d", True), ("y", False), ("h", True)])


def polys(ring, maxterms=5):
    """Few exponents and coefficients in -2..2, so that terms meet and
    cancel, Laurent exponents down to -2."""
    exps = st.tuples(*(st.integers(-2, 2) if laurent else st.integers(0, 2)
                       for laurent in ring.laurent))
    return st.dictionaries(exps, st.integers(-2, 2), max_size=maxterms).map(
        lambda terms: MultiPoly.from_exps(ring, terms))


def bindings(target):
    """A binding of each kind substitute tells apart, or None to pass the
    variable through: zero, a unit monomial, another single term, or a
    sum of terms."""
    unit = st.builds(lambda c, e: target.monomial(c, dict(zip(
        target.names, e))), st.sampled_from((1, -1)),
        st.tuples(st.integers(0, 2), st.integers(-2, 2), st.integers(0, 1),
                  st.integers(-1, 1)))
    mono = st.builds(lambda c, e: target.monomial(c, dict(zip(
        target.names, e))), st.sampled_from((2, -3)),
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1),
                  st.integers(0, 1)))
    return st.one_of(st.none(), st.just(target.zero()), unit, mono,
                     polys(target, 3))


@settings(max_examples=400, deadline=None)
@given(polys(RL), polys(RL), polys(RL, 3))
def test_arithmetic_matches_tuple_oracle(p, q, r):
    a, b = p.tuple_terms(), q.tuple_terms()
    assert (p + q).tuple_terms() == tuple_add(a, b)
    assert (p - q).tuple_terms() == tuple_add(a, b, -1)
    want: dict = {}
    tuple_mul_into(want, a, b)
    assert (p * q).tuple_terms() == want
    # series product and inverse, coefficient by coefficient
    f = TruncSeries(RL, 3, [RL.one(), p, q, r])
    g = TruncSeries(RL, 3, [RL.one(), r, p])
    fg = f * g
    for k in range(4):
        acc: dict = {}
        for i in range(k + 1):
            tuple_mul_into(acc, f[i].tuple_terms(), g[k - i].tuple_terms())
        assert fg[k].tuple_terms() == acc
    inv = [RL.one().tuple_terms()]
    for k in range(1, 4):
        acc = {}
        for i in range(1, k + 1):
            tuple_mul_into(acc, f[i].tuple_terms(), inv[k - i])
        inv.append({e: -c for e, c in acc.items()})
    assert [c.tuple_terms() for c in f.inverse().coeffs] == inv


def outcome(f, *args):
    try:
        return f(*args)
    except (ContextError, ExponentError, SubstitutionError) as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(polys(RL, 6), st.tuples(*(bindings(T) for _ in RL.names)))
def test_substitute_matches_tuple_oracle(p, binds):
    bind = {n: v for n, v in zip(RL.names, binds) if v is not None}
    want = outcome(tuple_substitute, p, bind, T)
    got = outcome(p.substitute, bind, T)
    if isinstance(want, type):
        assert got is want
    else:
        assert got.tuple_terms() == want


# rename: targets drawn from POOL, "z" in none of them
POOL = ("x", "g", "y", "h", "s")


def edge_polys(ring):
    """Exponents 0, small or at the edge of their field: a plain exponent
    from 2^31 on leaves a Laurent field, a negative one a plain field."""
    def exps(laurent):
        if laurent:
            return st.sampled_from((0, 0, 0, 0, 1, -1, -2, LO, LO + 1, HI))
        return st.sampled_from((0, 0, 0, 0, 1, 2, HI, HI + 1, EXP_MASK))
    return st.dictionaries(st.tuples(*map(exps, ring.laurent)),
                           st.sampled_from((-3, -1, 1, 2)), min_size=1,
                           max_size=4).map(
        lambda terms: MultiPoly.from_exps(ring, terms))


@st.composite
def rename_targets(draw):
    names = draw(st.permutations(POOL))[:draw(st.integers(3, len(POOL)))]
    return Ring([(n, draw(st.booleans())) for n in names])


@st.composite
def rename_maps(draw):
    """None, or a one-to-one map of RL's names, a name mapped to itself
    or left out at random."""
    if draw(st.booleans()):
        return None
    images = draw(st.permutations(draw(st.sampled_from((POOL,
                                                        POOL + ("z",))))))
    return {n: m for n, m in zip(RL.names, images)
            if n != m or draw(st.booleans())}


def rename_outcome(rename, p, target, mapping):
    """The ring and terms of the image, or the exception type and message."""
    try:
        q = rename(p, target, mapping)
    except (ContextError, ExponentError) as exc:
        return type(exc), str(exc)
    return q.ring, q.terms


SWAP = Ring([("y", False), ("x", False), ("h", False), ("g", True)])


@settings(max_examples=600, deadline=None)
@given(edge_polys(RL), rename_targets(), rename_maps())
@example(MultiPoly.from_exps(RL, {(2, -1, 1, 0): 3, (0, 0, 0, 1): 1}), RL,
         {"x": "y", "y": "x"})                  # a swap
@example(MultiPoly.from_exps(RL, {(HI, 0, EXP_MASK, 2): 1}), SWAP,
         {"x": "y", "y": "x"})                  # at the edge, swapped
@example(RL.var("h", -1), SWAP, None)           # Laurent into plain
@example(RL.var("x", HI + 1), Ring([("x", True)]), None)   # plain into Laurent
@example(RL.var("y") + RL.var("g", LO), Ring([("y", True), ("g", True)]),
         None)                                  # x, h unused and absent
@example(RL.var("h", 2), Ring([("x", False)]), {"h": "z"})  # used, absent
def test_rename_matches_relocation_oracle(p, target, mapping):
    assert rename_outcome(MultiPoly.rename, p, target, mapping) == \
        rename_outcome(relocation_rename, p, target, mapping)


GW2 = context_ring(GW, ("u1", "u2"))


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(st.tuples(
    st.integers(0, 5), st.integers(0, 7), st.integers(-3, 3),
    st.integers(0, 5), st.integers(0, 5)), st.integers(-3, 3), max_size=5),
    st.sampled_from([(), ("u1",), ("u1", "u2")]))
def test_normalize_matches_tuple_oracle(terms, square_zero):
    p = MultiPoly.from_exps(GW2, terms)
    assert normalize(p, square_zero).tuple_terms() == tuple_normalize(
        p, square_zero)


# ---------------------------------------------------------------------------
# the field edge

E = Ring([("a", True), ("n", False), ("b", True)])


def test_layout_orders_lexicographically():
    vectors = [(LO, 0, HI), (-1, EXP_MASK, 0), (-1, EXP_MASK, 1), (0, 0, LO),
               (0, 1, -1), (HI, 0, 0)]
    keys = [E.pack(v) for v in vectors]
    assert keys == sorted(keys)
    assert [E.unpack(k) for k in keys] == vectors
    assert E.pack((0, 0, 0)) == E.bias == E.one().terms.popitem()[0]


@pytest.mark.parametrize("exps", [(LO - 1, 0, 0), (HI + 1, 0, 0),
                                  (0, EXP_MASK + 1, 0), (0, 0, LO - 1),
                                  (0, 0, 10 ** 23)])
def test_pack_names_the_bound(exps):
    with pytest.raises(ExponentError, match="outside"):
        E.pack(exps)


@pytest.mark.parametrize("a, b", [
    ((HI, 0, 0), (1, 0, 0)),                # a Laurent field past its top
    ((LO, 0, 0), (-1, 0, 0)),               # and past its bottom
    ((0, EXP_MASK, 0), (0, 1, 0)),          # a field of 32 ones
    ((0, 0, HI), (0, 0, 1)),                # the last field, into the next
    ((0, 0, LO), (0, 0, -1)),               # a borrow from the next field
    ((-5, 1 << 31, LO + 3), (7, 1 << 31, -4)),
])
def test_product_across_the_edge_raises(a, b):
    p, q = (MultiPoly.from_exps(E, {e: 1}) for e in (a, b))
    with pytest.raises(ExponentError, match="outside its packed field"):
        p * q
    with pytest.raises(ExponentError):
        TruncSeries(E, 2, [E.one(), p]) * TruncSeries(E, 2, [E.one(), q])


@pytest.mark.parametrize("a, b", [
    ((HI - 1, 0, 0), (1, 0, 0)), ((LO + 1, 0, 0), (-1, 0, 0)),
    ((0, EXP_MASK - 7, 0), (0, 7, 0)), ((0, 0, HI), (0, 0, 0)),
    ((0, 0, LO), (0, 0, 0)), ((HI, 0, LO), (LO, EXP_MASK, HI)),
    ((-3, 5, -1), (2, 9, -7)),
])
def test_product_at_the_edge(a, b):
    p = MultiPoly.from_exps(E, {a: 2, (0, 0, 0): 1})
    q = MultiPoly.from_exps(E, {b: -3, (0, 1, 0): 1})
    want: dict = {}
    tuple_mul_into(want, p.tuple_terms(), q.tuple_terms())
    assert (p * q).tuple_terms() == want


def test_substitute_scaling_past_the_edge():
    g = Ring([("g", True)])
    top = g.var("g", 1 << 30)
    assert top.substitute({"g": g.var("g", -1)}, g).tuple_terms() == {
        (-(1 << 30),): 1}
    with pytest.raises(ExponentError):
        top.substitute({"g": g.var("g", 2)}, g)
    # a multiple far past the field: refused, never wrapped
    with pytest.raises(ExponentError):
        top.substitute({"g": g.var("g", 1 << 20)}, g)
    with pytest.raises(ExponentError):
        g.var("g", HI).substitute({"g": g.var("g", -1)}, g) * g.var("g", -2)


def test_normalize_past_the_edge():
    ring = context_ring(GW, ())
    p = MultiPoly.from_exps(ring, {(0, 4, HI - 1): 1})
    with pytest.raises(ExponentError):
        normalize(p, ())
    assert normalize(MultiPoly.from_exps(ring, {(0, 2, HI - 1): 1}), ()) == \
        MultiPoly.from_exps(ring, {(0, 0, HI): 2, (1, 0, HI): -2})


def test_rename_past_the_edge():
    src = Ring([("x", False)])
    with pytest.raises(ExponentError):
        src.var("x", 1 << 31).rename(Ring([("x", True)]))
    assert src.var("x", HI).rename(Ring([("x", True)])).tuple_terms() == {
        (HI,): 1}


@pytest.mark.parametrize("n", ["1", "3", "-2"])
@pytest.mark.parametrize("gmin", ["100000000000000000000000",
                                  "-100000000000000000000000"])
def test_huge_gamma_exponent_refused(n, gmin):
    doc = '{"components":[{"deg":0,"gmin":%s,"a":[1],"b":[],"c":[]}]}' % gmin
    proc = _python("-m", "gwadams.cli", "adams", "--", n, "--target", doc)
    assert proc.returncode == 2 and proc.stdout == ""
    assert ("cannot parse target: exponent %s of gamma outside "
            "-2147483648..2147483647, the range of a Laurent variable"
            % gmin) in proc.stderr


def test_adams_past_the_edge_refused():
    doc = '{"components":[{"deg":0,"gmin":1073741824,"a":[1]}]}'
    proc = _python("-m", "gwadams.cli", "adams", "2", "--target", doc)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "outside its packed field" in proc.stderr
    doc = doc.replace("1073741824", "1073741823")
    proc = _python("-m", "gwadams.cli", "adams", "2", "--target", doc)
    assert (proc.returncode, proc.stdout) == (0, "gamma^2147483646\n")
