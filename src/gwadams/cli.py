"""Command-line interface: render the computed objects and run the
verification suites.

Exit codes: 0 all checks pass (documented mismatches allowed), 1 at least
one failure, 2 usage, parse or output error.  Stdout is deterministic for a
fixed invocation; the timestamp, the per-suite elapsed_s and the per-lemma
lemma_elapsed_s times appear only in --json report files and are suppressed
by --no-timestamp.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from math import comb

from .borel import (
    check_borel_prop, check_omega_laws, check_ternary, omega, ternary_laws,
)
from .forms import GramForm, check_section2_and_hyp, ext_power, \
    gw_identity_check, hyperbolic, invariants, sym_power, tensor
from .gwring import THEORIES, GWElem, check_coefficient_identities
from .lambdaring import (
    SymClass, adams, check_adams_hyperbolic, check_lambda_axioms,
)
from .polyring import ExponentError, GradingError
from .report import merge
from .symfunc import (
    check_appendix_a, check_appendix_b, universal_P, universal_Q, universal_R,
)

FORMATS = ("text", "latex", "json")

# input bounds: each call at the bound finishes in about a second, but a form
# with many long entries takes longer (FORM_INPUT_RANK_MAX).  Cold
# process, 2 vCPU, Python 3.11, quartiles of 9 runs; `python -c pass` takes
# 0.038-0.044 s and `python -c "import gwadams.cli"` 0.043-0.044 s.
# |n| in `adams n`: `adams 256 --target u` and `--target u-tau` take
# 0.042-0.045 s, nearly all of it process start and import
ADAMS_MAX = 256
# `adams n` takes |n|*e <= ADAMS_MAX for each generator in the target, e its
# largest exponent (u^128 at n = 2 and u^16 at n = 16 take 0.043-0.048 s
# cold; u^3000 at n = 2 would take 9 s in process), and a product of these
# at most ADAMS_SIZE_MAX, as the output grows like it: u1*u2*u3 at n = 64
# takes 0.20-0.31 s (2 MB out, two thirds of it rendering), at n = 128
# 3.2-3.6 s in process (23 MB out)
ADAMS_SIZE_MAX = 64 ** 3
# n in `omega n` and `omega --table n`: `omega --table 96` takes
# 0.052-0.060 s
OMEGA_MAX = 96
# rank of the form printed by `form ext-power`, `sym-power`, `tensor` and
# `hyperbolic`: C(r, n), C(r+n-1, n), r_a*r_b or 2r.  At or near the bound:
# ext-power of a rank-10 form n = 4 (210) 0.27-0.30 s, rank-12 n = 3 (220)
# 0.20-0.21 s; sym-power rank-7 n = 4 (210) 0.33-0.44 s, rank-10 n = 3 (220)
# 0.20-0.21 s; the slowest sym-power shape inside it is rank-5 n = 5 (126)
# at 0.46-0.47 s, since a permanent costs n!*n.  ext-power rank-10 n = 5
# (252) takes 1.9 s.
FORM_RANK_MAX = 220
# n in `form ext-power n`: each output entry is an n x n minor, so the
# output rank alone does not bound the time (rank-20 n = 18 has output rank
# 190 and takes 19.7 s); rank-10 n = 6 (210) takes 0.53-0.61 s.  sym-power
# needs no such bound: n <= r and C(2n-1, n) > FORM_RANK_MAX for n > 5.
FORM_MINOR_MAX = 6
# rank of each form read by `form invariants` and `gw-equal`: the symmetric
# elimination costs rank^3 integer operations on minors of the scaled form.
# On seeded dense integer forms B^T*D*B (B unit upper triangular with entries
# in -2..2, D diagonal with entries in +-1..30) `invariants` takes 0.04 s in
# process at rank 64, 0.05 s at rank 70 and 0.09 s at rank 80; cold, `form
# invariants` of a rank-64 form takes 0.066-0.071 s and `gw-equal` of two
# 0.089-0.092 s.  Factoring the pivots adds up over the rank: trial division
# costs no number more than a 150-digit one (0.13 s), so <1999993^680> and
# diag(1999993^680*k), k = 1, 2, 3, 5, exit 2 in 0.16-0.18 s cold (2.4 and
# 9.2 s before), but diag(1999993^23) of rank 64 takes 7.5-8.3 s (ROADMAP 17).
FORM_INPUT_RANK_MAX = 64
# limits of `universal` whatever --max says:
# P_12 0.12 s, P_13 0.21-0.23 s
UNIVERSAL_P_MAX = 13
# R_n for every --method; cold, R_9 takes 0.20-0.21 s composed, 0.25-0.26 s
# direct and 0.42-0.57 s both, and composed R_10 0.55 s in process
UNIVERSAL_R_MAX = 9
# i*j in Q_{i,j}; the slowest shape at i*j = 28 is Q_{14,2} at 0.21-0.22 s,
# at i*j = 30 Q_{15,2} at 0.33 s in process
UNIVERSAL_Q_MAX = 28


class UsageError(Exception):
    """A call the parser accepts but the command refuses; reported like a
    parse error, with exit code 2."""


def _check_size(what: str, size: int, max_override, default: int,
                limit: int, kind: str):
    if size > limit:
        raise UsageError("%s = %d exceeds the limit %d of universal %s"
                         % (what, size, limit, kind))
    bound = max_override if max_override is not None else default
    if size > bound:
        raise UsageError("%s = %d exceeds bound %d; pass --max"
                         % (what, size, bound))


def _render_poly(poly, fmt: str) -> str:
    if fmt == "latex":
        return poly.latex()
    if fmt == "json":
        return poly.to_json()
    return poly.text()


def cmd_universal(kind, indices, fmt, max_override, method):
    """Print the universal polynomial P_n, Q_{i,j} or R_n."""
    if kind == "Q":
        if len(indices) != 2:
            raise UsageError("Q takes two indices: i j")
        i, j = indices
        if i < 1 or j < 1:
            raise UsageError("indices must be >= 1")
        _check_size("i*j", i * j, max_override, 6, UNIVERSAL_Q_MAX, kind)
        print(_render_poly(universal_Q(i, j), fmt))
        return
    if len(indices) != 1:
        raise UsageError("%s takes one index: n" % kind)
    n = indices[0]
    if n < 1:
        raise UsageError("n must be >= 1")
    limit = UNIVERSAL_P_MAX if kind == "P" else UNIVERSAL_R_MAX
    _check_size("n", n, max_override, 4, limit,
                kind if kind == "P" else "R --method " + method)
    if kind == "P":
        print(_render_poly(universal_P(n), fmt))
        return
    if method == "both":
        a = universal_R(n, "direct")
        b = universal_R(n, "composed")
        print(_render_poly(a, fmt))
        print(_render_poly(b, fmt))
        print("agree" if a == b else "disagree")
        return 0 if a == b else 1
    print(_render_poly(universal_R(n, method), fmt))


def cmd_omega(n, table_max, fmt):
    """Print the Adams multiplier omega(n)."""
    if (n is None) == (table_max is None):
        raise UsageError("give either N or --table N")
    if table_max is not None:
        if not 0 <= table_max <= OMEGA_MAX:
            raise UsageError("--table must be in 0..%d" % OMEGA_MAX)
        for k in range(table_max + 1):
            print("%d: %s" % (k, _render_poly(omega(k).value, fmt)))
        return
    if not 0 <= n <= OMEGA_MAX:
        raise UsageError("n must be in 0..%d" % OMEGA_MAX)
    print(_render_poly(omega(n).value, fmt))


_NAMED_TARGETS = {
    "tau": lambda: SymClass.from_gw(GWElem.tau()),
    "h": lambda: SymClass.from_gw(GWElem.h()),
    "eps": lambda: SymClass.from_gw(GWElem.eps()),
    "gamma": lambda: SymClass.from_gw(GWElem.gamma()),
    "u": lambda: SymClass.gen("u", gens=("u",), quotient=True),
    "u-tau": lambda: (SymClass.gen("u", gens=("u",), quotient=True)
                      - SymClass.from_gw(GWElem.tau(), gens=("u",),
                                         quotient=True)),
}


def cmd_adams(n, target, fmt):
    """Apply the n-th Adams operation to a class."""
    if abs(n) > ADAMS_MAX:
        raise UsageError("|n| must be at most %d" % ADAMS_MAX)
    if target in _NAMED_TARGETS:
        x = _NAMED_TARGETS[target]()
    else:
        try:
            x = SymClass.from_json(target)
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise UsageError("cannot parse target: %s" % exc)
    size = 1
    for gen in x.gens if x.poly else ():
        e = x.poly.degree_in(gen)
        if abs(n) * e > ADAMS_MAX:
            raise UsageError("|n|*e = %d*%d exceeds %d, e the largest "
                             "exponent of %s in the target"
                             % (abs(n), e, ADAMS_MAX, gen))
        size *= max(abs(n) * e, 1)
    if size > ADAMS_SIZE_MAX:
        raise UsageError(
            "the size %d exceeds %d: the product of |n|*e over the "
            "generators in the target, e the largest exponent of each"
            % (size, ADAMS_SIZE_MAX))
    try:
        got = adams(n, x)
    except (GradingError, ExponentError) as exc:
        raise UsageError(str(exc))
    print(_render_poly(got, fmt))


def cmd_ternary(theory, index, fmt):
    """Print the ternary product laws F_1..F_4."""
    laws = ternary_laws(theory)
    if index is not None:
        if not 1 <= index <= 4:
            raise UsageError("--class must be in 1..4")
        laws = [laws[index - 1]]
    for law in laws:
        if fmt == "json":
            print(json.dumps(law.to_obj(), sort_keys=True,
                             separators=(",", ":")))
        else:
            out = law.latex() if fmt == "latex" else law.text()
            if index is None:
                label = "F_{%d}" if fmt == "latex" else "F%d"
                out = "%s = %s" % (label % law.index, out)
            print(out)


def _read_form(path: str) -> GramForm:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        return GramForm.from_json(text)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise UsageError("cannot read Gram form %s: %s" % (path, exc))


def _read_input_form(path: str) -> GramForm:
    f = _read_form(path)
    if f.rank > FORM_INPUT_RANK_MAX:
        raise UsageError("input rank %d exceeds the limit %d"
                         % (f.rank, FORM_INPUT_RANK_MAX))
    return f


def _check_form_rank(rank: int):
    if rank > FORM_RANK_MAX:
        raise UsageError("output rank %d exceeds the limit %d"
                         % (rank, FORM_RANK_MAX))


def _read_power(path: str, n: int) -> GramForm:
    f = _read_form(path)
    if not 0 <= n <= f.rank:
        raise UsageError("n out of range 0..%d" % f.rank)
    return f


def form_ext_power(path, n):
    """n-th exterior power of the Gram form in PATH."""
    f = _read_power(path, n)
    _check_form_rank(comb(f.rank, n))
    if n > FORM_MINOR_MAX:
        raise UsageError("n = %d exceeds the limit %d of ext-power"
                         % (n, FORM_MINOR_MAX))
    print(ext_power(f, n).to_json())


def form_sym_power(path, n):
    """n-th symmetric power (unnormalized) of the Gram form in PATH."""
    f = _read_power(path, n)
    _check_form_rank(comb(f.rank + n - 1, n) if n else 1)
    print(sym_power(f, n).to_json())


def form_tensor(path_a, path_b):
    """Tensor product of two Gram forms."""
    a, b = _read_form(path_a), _read_form(path_b)
    _check_form_rank(a.rank * b.rank)
    print(tensor(a, b).to_json())


def form_hyperbolic(r, delta):
    """Split (skew-)symmetric form of rank 2r."""
    if r < 1:
        raise UsageError("rank must be >= 1")
    _check_form_rank(2 * r)
    print(hyperbolic(r, delta).to_json())


def form_invariants(path):
    """Rank, signature, discriminant and Hasse symbols over Q."""
    f = _read_input_form(path)
    try:
        inv = invariants(f)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc))
    print(json.dumps(inv.to_obj(), sort_keys=True, separators=(",", ":")))


def form_gw_equal(path_a, path_b):
    """Compare the classes of two symmetric forms via invariants."""
    a, b = _read_input_form(path_a), _read_input_form(path_b)
    try:
        same = gw_identity_check([(1, a)], [(1, b)])
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc))
    print("equal" if same else "not-equal")
    return 0 if same else 1


SUITES = {
    "appendix-a": check_appendix_a,
    "appendix-b": check_appendix_b,
    "coefficient-ring": check_coefficient_identities,
    "lambda-axioms": check_lambda_axioms,
    "adams-hyperbolic": check_adams_hyperbolic,
    "omega": check_omega_laws,
    "borel": check_borel_prop,
    "ternary": check_ternary,
    "forms": check_section2_and_hyp,
}

def cmd_verify(suite, json_path, no_timestamp):
    """Run a verification suite and report pass/fail per identity."""
    try:    # opened before any suite runs, so a bad path costs no run, and
            # emptied only once stdout is written, so a failed run keeps an
            # old report
        fh = None if json_path is None else open(
            json_path, "a", encoding="utf-8")
    except OSError as exc:
        raise UsageError("cannot write --json: %s" % exc)
    try:
        reports, elapsed = [], {}
        for name in SUITES if suite == "all" else [suite]:
            start = time.perf_counter()
            reports.append(SUITES[name]())
            elapsed[name] = round(time.perf_counter() - start, 6)
        rep = merge(suite, reports)
        sys.stdout.write(rep.render_text())
        sys.stdout.flush()
        if fh is not None:
            if not no_timestamp:
                rep.stamp(elapsed, {
                    name: {k: round(v, 6) for k, v in r.lemma_s.items()}
                    for name, r in zip(elapsed, reports)})
            try:
                if os.path.isfile(json_path):
                    fh.truncate(0)
                fh.write(rep.to_json())
                fh.close()
            except OSError as exc:
                raise UsageError("cannot write --json: %s" % exc)
    finally:
        if fh is not None:
            fh.close()
    return 0 if rep.ok else 1


_FORMAT = ("--format", dict(dest="fmt", choices=FORMATS, default="text",
                            help="Output rendering (default: %(default)s)."))
_PATH_HELP = "Gram form JSON file, or - for standard input."
_PATH = ("path", dict(metavar="PATH", help=_PATH_HELP))
_N = ("n", dict(type=int))
_PATHS = [("path_a", dict(metavar="PATH_A", help=_PATH_HELP)),
          ("path_b", dict(metavar="PATH_B", help=_PATH_HELP))]

# name -> (run, its arguments as (name or flag, add_argument keywords)), or
# for a group of commands, name -> (description, the group's table)
COMMANDS = {
    "universal": (cmd_universal, [
        ("kind", dict(choices=["P", "Q", "R"])),
        ("indices", dict(nargs="*", type=int)),
        _FORMAT,
        ("--max", dict(
            dest="max_override", type=int, default=None, metavar="N",
            help="Raise the default index bound (P/R: n <= 4, Q: ij <= 6) up "
                 "to the fixed limits (P: %d, R by any method: %d, Q: ij <= "
                 "%d)." % (UNIVERSAL_P_MAX, UNIVERSAL_R_MAX,
                           UNIVERSAL_Q_MAX))),
        ("--method", dict(choices=["direct", "composed", "both"],
                          default="composed", help="Construction route for "
                          "R (default: %(default)s).")),
    ]),
    "omega": (cmd_omega, [
        ("n", dict(type=int, nargs="?")),
        ("--table", dict(dest="table_max", type=int, default=None,
                         metavar="N",
                         help="Print omega(0..N), one per line.")),
        _FORMAT,
    ]),
    "adams": (cmd_adams, [
        ("n", dict(type=int)),
        ("--target", dict(default="tau", help="Named class (%s) or a class "
                          "JSON document (default: %%(default)s)."
                          % ", ".join(sorted(_NAMED_TARGETS)))),
        _FORMAT,
    ]),
    "ternary": (cmd_ternary, [
        ("--theory", dict(choices=list(THEORIES), default="gw",
                          help="(default: %(default)s)")),
        ("--class", dict(dest="index", type=int, default=None,
                         metavar="INDEX",
                         help="Single class index 1..4 (default: all four).")),
        _FORMAT,
    ]),
    "form": ("Gram-matrix constructions and invariants.", {
        "ext-power": (form_ext_power, [_PATH, _N]),
        "sym-power": (form_sym_power, [_PATH, _N]),
        "tensor": (form_tensor, _PATHS),
        "hyperbolic": (form_hyperbolic, [
            ("r", dict(type=int)),
            ("--delta", dict(choices=["+", "-"], default="+",
                             help="(default: %(default)s)")),
        ]),
        "invariants": (form_invariants, [_PATH]),
        "gw-equal": (form_gw_equal, _PATHS),
    }),
    "verify": (cmd_verify, [
        ("suite", dict(choices=list(SUITES) + ["all"])),
        ("--json", dict(dest="json_path", default=None, metavar="FILE",
                        help="Also write the report as JSON.")),
        ("--no-timestamp", dict(action="store_true", default=False, help=(
            "Omit the timestamp and elapsed times from the JSON report."))),
    ]),
}


def _value(kw: dict, token: str):
    """token as kw's value, or ValueError where argparse would refuse it."""
    value = kw.get("type", str)(token)     # "-" alone is a value, "-3" not
    if token[:1] == "-" != token or value not in kw.get("choices", [value]):
        raise ValueError(token)
    return value


def _read_call(args) -> dict | None:
    """argparse's namespace of `gwadams ARGS` less `parser`, read from
    COMMANDS; None for help, --version, an unknown command or option (--,
    --opt=x, a negative number), a missing or refused value, a wrong count."""
    table, ns, given, values = COMMANDS, {}, {}, []
    try:
        while isinstance(table, dict):
            (ns["run"], table), args = table[args[0]], args[1:]
        flags = {name: kw for name, kw in table if name[0] == "-"}
        tokens = iter(args)
        for token in tokens:    # options may sit between positionals
            if token not in flags:
                values.append(token)
            else:   # a store_true flag, or one whose value is the next token
                given[token] = ("action" in flags[token]
                                or _value(flags[token], next(tokens)))
        for name, kw in table:
            if name in flags:
                ns[kw.get("dest", name[2:].replace("-", "_"))] = given.get(
                    name, kw.get("default"))
            elif kw.get("nargs") == "*":
                ns[name], values = [_value(kw, v) for v in values], []
            elif values or "nargs" not in kw:
                ns[name] = _value(kw, values.pop(0))
            else:
                ns[name] = kw.get("default")
    except (KeyError, IndexError, ValueError, StopIteration):
        return None
    return None if values else ns


def _argparse(prog: str, args) -> dict:
    """argparse's namespace of `PROG ARGS`, or its help or error and exit."""
    from .cliparse import build
    return vars(build(prog, COMMANDS).parse_args(args))


def main(args=None, prog_name: str = "gwadams"):
    """Run `gwadams ARGS` (default: the process arguments) and exit with its
    code: 0 all checks pass, 1 a failure, `disagree` or `not-equal`, 2 a
    usage, parse or output error."""
    if args is None:    # the process's entry point: `-m` or the script
        try:
            main(sys.argv[1:], prog_name)
        finally:    # the shutdown collections skip the frozen objects
            gc.freeze()
    args = list(args)
    ns = _read_call(args) or _argparse(prog_name, args)
    run, _ = ns.pop("run"), ns.pop("parser", None)
    try:
        code = run(**ns)
        sys.stdout.flush()
    except UsageError as exc:
        _argparse(prog_name, args)["parser"].error(str(exc))
    except OSError as exc:
        # the reader left (`gwadams ... | head`: exit 1, silently) or a write
        # failed; point stdout at devnull so the last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            raise SystemExit(1)
        sys.stderr.write("%s: error: cannot write output: %s\n"
                         % (prog_name, exc))
        raise SystemExit(2)
    raise SystemExit(code or 0)


# perfbench/tracing.py runs one call as main.main(args=..., prog_name=...)
main.main = main


if __name__ == "__main__":
    main()
