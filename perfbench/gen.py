"""Seeded inputs for the workloads: the CLI call deck and the forms ops.

The same seed always gives the same sequence.  Forms are built as
L * diag(d) * L^T with L unit lower-triangular, so their Gauss pivots are
exactly the d_i, whose factorisations are known: no input makes the
program factor a large number, except the planted slice, whose diagonal
forms carry one 12-digit prime each.
"""

from __future__ import annotations

import random
from fractions import Fraction

import refmath as R

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
PLANTED_RANGE = (3 * 10 ** 11, 32 * 10 ** 10)   # narrow: trial division ~ sqrt(p)


def rand_scalar(rng) -> R.Scalar:
    exps = {}
    for p in rng.sample(SMALL_PRIMES, rng.randint(0, 2)):
        exps[p] = rng.choice((1, 1, 2))
    if rng.random() < 0.2:
        q = rng.choice(SMALL_PRIMES)
        exps[q] = exps.get(q, 0) - 1
    return R.Scalar(rng.choice((1, -1)), exps)


def congruent(diag, rng):
    """L * diag * L^T for a random unit lower-triangular integer L."""
    n = len(diag)
    L = [[Fraction(1 if i == j else (rng.randint(-2, 2) if j < i else 0))
          for j in range(n)] for i in range(n)]
    D = [[diag[i].value() if i == j else Fraction(0) for j in range(n)]
         for i in range(n)]
    return R.matmul(R.matmul(L, D), R.transpose(L))


def rand_form(rng, rank: int):
    diag = [rand_scalar(rng) for _ in range(rank)]
    return congruent(diag, rng), diag


def planted_prime(rng) -> int:
    while True:
        p = rng.randrange(*PLANTED_RANGE) | 1
        if R.is_probable_prime(p):
            return p


def planted_form(rng):
    diag = [rand_scalar(rng) for _ in range(rng.randint(2, 6))]
    k = rng.randrange(len(diag))
    diag[k] = diag[k] * R.Scalar(1, {planted_prime(rng): 1})
    n = len(diag)
    return ([[diag[i].value() if i == j else Fraction(0) for j in range(n)]
             for i in range(n)], diag)


def _ext2_diag(diag):
    """Diagonal of Lambda^2 of a diagonal form, in lexicographic order."""
    return [diag[i] * diag[j] for i in range(len(diag))
            for j in range(i + 1, len(diag))]


def _rescaled(diag, rng):
    """A diagonal in the same class: permuted and scaled by squares."""
    out = [d * R.Scalar(1, {q: 2}) if q > 1 else d
           for d, q in ((d, rng.choice((1, 2, 3))) for d in diag)]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# forms-calc: in-process calls on the public forms functions

# Sizes keep each kind's cost apart: tensor, congruence and gw_pair are
# cheap, rank-5 invariants are the median, the powers and the lambda^2
# identity cost more, and the planted slice is the p95.
FORMS_MIX = (("tensor", 10), ("congruence", 10), ("gw_pair", 10),
             ("invariants", 35), ("ext_power", 10), ("sym_power", 10),
             ("lambda2_identity", 5), ("planted_invariants", 10))


def forms_op(rng, kind):
    if kind == "ext_power":
        m, _ = rand_form(rng, rng.randint(5, 6))
        return {"kind": kind, "f": m, "n": rng.randint(2, 3)}
    if kind == "sym_power":
        n = rng.randint(2, 3)
        m, _ = rand_form(rng, rng.randint(4, 5) if n == 2 else rng.randint(3, 4))
        return {"kind": kind, "f": m, "n": n}
    if kind == "tensor":
        return {"kind": kind, "f": rand_form(rng, 2)[0],
                "g": rand_form(rng, rng.randint(2, 3))[0]}
    if kind in ("invariants", "planted_invariants"):
        m, diag = (rand_form(rng, 5) if kind == "invariants"
                   else planted_form(rng))
        return {"kind": kind, "f": m, "diag": diag}
    if kind == "lambda2_identity":
        (f, df), (g, dg) = (rand_form(rng, rng.randint(2, 3)) for _ in range(2))
        return {"kind": kind,
                "lhs": [(1, R.ext_power(R.direct_sum(f, g), 2))],
                "rhs": [(1, R.ext_power(f, 2)), (1, R.kron(f, g)),
                        (1, R.ext_power(g, 2))],
                "lhs_diag": _ext2_diag(df + dg),
                "rhs_diag": _ext2_diag(df) + [a * b for a in df for b in dg]
                + _ext2_diag(dg)}
    if kind == "gw_pair":
        f, df = rand_form(rng, 2)
        dg = (_rescaled(df, rng) if rng.random() < 0.5
              else [rand_scalar(rng) for _ in df])
        return {"kind": kind, "lhs": [(1, f)], "rhs": [(1, congruent(dg, rng))],
                "lhs_diag": df, "rhs_diag": dg}
    # congruence: g = B^T f B, sometimes perturbed so the answer is False
    f, _ = rand_form(rng, rng.randint(2, 3))
    n = len(f)
    while True:
        B = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if R.det(B):
            break
    g = R.matmul(R.transpose(B), R.matmul(f, B))
    if rng.random() < 0.3:
        i, j = rng.randrange(n), rng.randrange(n)
        g[i][j] += 1
        if i != j:
            g[j][i] += 1
    return {"kind": kind, "B": B, "f": f, "g": g}


def forms_ops(seed: int, count: int) -> list:
    """`count` ops in the exact proportions of FORMS_MIX, in seeded order."""
    rng = random.Random("forms:%d" % seed)
    total = sum(w for _, w in FORMS_MIX)
    kinds = [k for k, w in FORMS_MIX for _ in range(count * w // total)]
    kinds += [k for k, _ in FORMS_MIX][:count - len(kinds)]
    rng.shuffle(kinds)
    return [forms_op(rng, kind) for kind in kinds]


# ---------------------------------------------------------------------------
# cli-calls: one deck of 50 CLI invocations, shuffled by the seed.  Every
# deck has the same heavy members, so each deck costs about the same.

ADAMS_TARGETS = ("tau", "h", "eps", "gamma", "u", "u-tau")
Q_LIGHT = [(i, j) for i in range(1, 9) for j in range(1, 9)
           if i * j <= 8 and (i, j) not in ((4, 2), (2, 4))]


def cli_deck(rng) -> list:
    """One deck of CLI calls.  Each call is a dict with the argument list
    ("args", form files named by key) and what to check ("check")."""
    calls = []

    def add(args, check, files=()):
        calls.append({"args": list(args), "check": check, "files": dict(files)})

    def universal(kind, idx, extra=()):
        bound = {"P": 5, "Q": 8, "R": 4}[kind]
        add(["universal", kind, *map(str, idx), "--max", str(bound),
             "--format", "json", *extra],
            {"kind": "universal", "poly": kind, "idx": list(idx)})

    for _ in range(3):
        universal("P", (5,))
    for _ in range(4):
        universal("P", (rng.randint(1, 4),))
    for ij in ((4, 2), (4, 2), (2, 4), (2, 4)):
        universal("Q", ij)
    for _ in range(4):
        universal("Q", rng.choice(Q_LIGHT))
    for _ in range(3):
        universal("R", (rng.randint(1, 4),))
    for _ in range(2):
        universal("R", (rng.randint(1, 3),), ("--method", "direct"))
    for _ in range(12):
        t, n = rng.choice(ADAMS_TARGETS), rng.randint(1, 16)
        add(["adams", str(n), "--target", t, "--format", "json"],
            {"kind": "adams", "target": t, "n": n})
    for n in (16, 16, 16, rng.randint(1, 12)):
        add(["adams", str(n), "--target", "@u1u2u3", "--format", "json"],
            {"kind": "adams", "target": "u1u2u3", "n": n})
    for n in (24, rng.randint(1, 16), rng.randint(1, 16)):
        add(["omega", "--table", str(n), "--format", "json"],
            {"kind": "omega", "n": n})
    for theory in ("gw", "k", "witt"):
        fmt = rng.choice(("text", "latex", "json"))
        add(["ternary", "--theory", theory, "--format", fmt],
            {"kind": "golden", "key": "ternary %s %s" % (theory, fmt)})
    r, delta = rng.randint(1, 3), rng.choice("+-")
    add(["form", "hyperbolic", str(r), "--delta", delta],
        {"kind": "form_matrix",
         "want": (R.hyperbolic(r, 1 if delta == "+" else -1),
                  1 if delta == "+" else -1)})
    f, _ = rand_form(rng, rng.randint(3, 4))
    n = rng.randint(2, 3)
    add(["form", "ext-power", "@a", str(n)],
        {"kind": "form_matrix", "want": (R.ext_power(f, n), 1)}, {"a": f})
    f, _ = rand_form(rng, rng.randint(2, 3))
    add(["form", "sym-power", "@a", "2"],
        {"kind": "form_matrix", "want": (R.sym_power(f, 2), 1)}, {"a": f})
    f, g = rand_form(rng, 2)[0], rand_form(rng, rng.randint(2, 3))[0]
    add(["form", "tensor", "@a", "@b"],
        {"kind": "form_matrix", "want": (R.kron(f, g), 1)}, {"a": f, "b": g})
    for _ in range(2):
        f, d = rand_form(rng, rng.randint(2, 5))
        add(["form", "invariants", "@a"],
            {"kind": "form_invariants", "want": R.invariants(d)}, {"a": f})
    for same in (True, False):
        f, df = rand_form(rng, rng.randint(2, 4))
        dg = _rescaled(df, rng) if same else [rand_scalar(rng) for _ in df]
        want = R.invariants(df) == R.invariants(dg)
        add(["form", "gw-equal", "@a", "@b"],
            {"kind": "form_equal", "want": want},
            {"a": f, "b": congruent(dg, rng)})
    rng.shuffle(calls)
    return calls


def cli_decks(seed: int):
    """The endless sequence of decks for a seed."""
    rng = random.Random("cli:%d" % seed)
    while True:
        yield cli_deck(rng)


def cli_quick_deck(seed: int) -> list:
    """A handful of cheap calls, for the benchmark's own tests."""
    rng = random.Random("cli-quick:%d" % seed)
    deck = [c for c in cli_deck(rng)
            if c["args"][0] in ("form", "omega", "adams")
            and "@u1u2u3" not in c["args"] and "24" not in c["args"]]
    return deck[:8]
