"""Command-line interface: render the computed objects and run the
verification suites.

Exit codes: 0 all checks pass (documented mismatches allowed), 1 at least
one failure, 2 usage or parse error.  Stdout is deterministic for a fixed
invocation; the timestamp, the per-suite elapsed_s and the per-lemma
lemma_elapsed_s times appear only in --json report files and are suppressed
by --no-timestamp.
"""

from __future__ import annotations

import json
import time
from math import comb

import click

from . import __version__
from .borel import (
    check_borel_prop, check_omega_laws, check_ternary, omega, ternary_laws,
)
from .forms import GramForm, check_section2_and_hyp, ext_power, \
    gw_identity_check, hyperbolic, invariants, sym_power, tensor
from .gwring import THEORIES, GWElem, check_coefficient_identities
from .lambdaring import (
    SymClass, adams, check_adams_hyperbolic, check_lambda_axioms,
)
from .polyring import GradingError
from .report import merge
from .symfunc import (
    check_appendix_a, check_appendix_b, universal_P, universal_Q, universal_R,
)

FORMAT = click.Choice(["text", "latex", "json"])

# input bounds: each call at the bound finishes in about a second (cold
# process, 2 vCPU, Python 3.11)
# |n| in `adams n`: `adams 256 --target u` and `--target u-tau` take
# 0.17-0.18 s, most of it process start and import
ADAMS_MAX = 256
# |n|^k in `adams n`, k the number of generators occurring in the target;
# the output grows like |n|^k: u1*u2*u3 at n = 64 takes 0.6 s (2 MB out,
# two thirds of it rendering), at n = 128 3.2-3.6 s in process (23 MB out)
ADAMS_SIZE_MAX = 64 ** 3
# n in `omega n` and `omega --table n`: `omega --table 96` takes 0.2 s
# (0.4-0.5 s while psi^n of each generator ran the k - 1 step recurrence)
OMEGA_MAX = 96
# rank of the form printed by `form ext-power`, `sym-power`, `tensor` and
# `hyperbolic`: C(r, n), C(r+n-1, n), r_a*r_b or 2r.  At or near the bound:
# ext-power of a rank-10 form n = 4 (210) 0.71 s, rank-12 n = 3 (220)
# 0.48 s; sym-power rank-7 n = 4 (210) 0.99 s, rank-10 n = 3 (220) 0.50 s;
# the slowest shape inside it is sym-power rank-5 n = 5 (126) at 1.7 s,
# since a permanent costs n!*n.  ext-power rank-10 n = 5 (252) takes 1.9 s.
FORM_RANK_MAX = 220
# n in `form ext-power n`: each output entry is an n x n minor, so the
# output rank alone does not bound the time (rank-20 n = 18 has output rank
# 190 and takes 19.7 s); rank-10 n = 6 (210) takes 1.4 s.  sym-power needs
# no such bound: n <= r and C(2n-1, n) > FORM_RANK_MAX for n > 5.
FORM_MINOR_MAX = 6
# rank of each form read by `form invariants` and `gw-equal`: the symmetric
# elimination costs rank^3 integer operations on minors of the scaled form.
# On seeded dense integer forms B^T*D*B (B unit upper triangular with entries
# in -2..2, D diagonal with entries in +-1..30) `invariants` takes 0.04 s in
# process at rank 64, 0.05 s at rank 70 and 0.09 s at rank 80; cold, `form
# invariants` of a rank-64 form takes 0.21-0.23 s and `gw-equal` of two
# 0.28-0.29 s.  The limit stays at 64 because factoring the pivots is not
# bounded by the rank.
FORM_INPUT_RANK_MAX = 64
# limits of `universal` whatever --max says:
# P_12 0.4 s, P_13 0.9 s (0.6 s and 1.2 s while Newton's identities
# copied the accumulator per term)
UNIVERSAL_P_MAX = 13
# composed R_8 0.30 s, R_9 0.63 s, R_10 1.8 s
UNIVERSAL_R_MAX = 9
# direct (and both) R_6 0.23 s, R_7 0.55-0.58 s, R_8 2.8-3.2 s (R_4 took
# 0.7 s and R_5 61 s while the defining product was expanded as a series)
UNIVERSAL_R_DIRECT_MAX = 7
# i*j in Q_{i,j}; the slowest shape at i*j = 28 is Q_{14,2} at 0.8-1.0 s
# (1.0-1.1 s while Newton's identities copied the accumulator per term),
# at i*j = 30 Q_{15,2} at about 1.4 s
UNIVERSAL_Q_MAX = 28


def _check_size(what: str, size: int, max_override, default: int,
                limit: int, kind: str):
    if size > limit:
        raise click.UsageError("%s = %d exceeds the limit %d of universal %s"
                               % (what, size, limit, kind))
    bound = max_override if max_override is not None else default
    if size > bound:
        raise click.UsageError("%s = %d exceeds bound %d; pass --max"
                               % (what, size, bound))


def _render_poly(poly, fmt: str) -> str:
    if fmt == "latex":
        return poly.latex()
    if fmt == "json":
        return poly.to_json()
    return poly.text()


@click.group()
@click.version_option(__version__, prog_name="gwadams")
def main():
    """Exact verification toolkit for lambda-operation identities."""


@main.command("universal")
@click.argument("kind", type=click.Choice(["P", "Q", "R"]))
@click.argument("indices", nargs=-1, type=int)
@click.option("--format", "fmt", type=FORMAT, default="text",
              show_default=True, help="Output rendering.")
@click.option("--max", "max_override", type=int, default=None,
              help="Raise the default index bound (P/R: n <= 4, Q: ij <= 6) "
                   "up to the fixed limits (P: %d, R: %d, direct R: %d, "
                   "Q: ij <= %d)." % (UNIVERSAL_P_MAX, UNIVERSAL_R_MAX,
                                      UNIVERSAL_R_DIRECT_MAX, UNIVERSAL_Q_MAX))
@click.option("--method", type=click.Choice(["direct", "composed", "both"]),
              default="composed", show_default=True,
              help="Construction route for R.")
def cmd_universal(kind, indices, fmt, max_override, method):
    """Print the universal polynomial P_n, Q_{i,j} or R_n."""
    if kind == "Q":
        if len(indices) != 2:
            raise click.UsageError("Q takes two indices: i j")
        i, j = indices
        if i < 1 or j < 1:
            raise click.UsageError("indices must be >= 1")
        _check_size("i*j", i * j, max_override, 6, UNIVERSAL_Q_MAX, kind)
        click.echo(_render_poly(universal_Q(i, j), fmt))
        return
    if len(indices) != 1:
        raise click.UsageError("%s takes one index: n" % kind)
    n = indices[0]
    if n < 1:
        raise click.UsageError("n must be >= 1")
    if kind == "P":
        limit = UNIVERSAL_P_MAX
    elif method == "composed":
        limit = UNIVERSAL_R_MAX
    else:
        limit = UNIVERSAL_R_DIRECT_MAX
    _check_size("n", n, max_override, 4, limit,
                kind if kind == "P" else "R --method " + method)
    if kind == "P":
        click.echo(_render_poly(universal_P(n), fmt))
        return
    if method == "both":
        a = universal_R(n, "direct")
        b = universal_R(n, "composed")
        click.echo(_render_poly(a, fmt))
        click.echo(_render_poly(b, fmt))
        if a == b:
            click.echo("agree")
        else:
            click.echo("disagree")
            raise SystemExit(1)
        return
    click.echo(_render_poly(universal_R(n, method), fmt))


@main.command("omega")
@click.argument("n", type=int, required=False)
@click.option("--table", "table_max", type=int, default=None,
              help="Print omega(0..N), one per line.")
@click.option("--format", "fmt", type=FORMAT, default="text",
              show_default=True)
def cmd_omega(n, table_max, fmt):
    """Print the Adams multiplier omega(n)."""
    if (n is None) == (table_max is None):
        raise click.UsageError("give either N or --table N")
    if table_max is not None:
        if not 0 <= table_max <= OMEGA_MAX:
            raise click.UsageError("--table must be in 0..%d" % OMEGA_MAX)
        for k in range(table_max + 1):
            click.echo("%d: %s" % (k, _render_poly(omega(k).value, fmt)))
        return
    if not 0 <= n <= OMEGA_MAX:
        raise click.UsageError("n must be in 0..%d" % OMEGA_MAX)
    click.echo(_render_poly(omega(n).value, fmt))


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


@main.command("adams",
              context_settings={"ignore_unknown_options": True})
@click.argument("n", type=int)
@click.option("--target", default="tau", show_default=True,
              help="Named class (%s) or a class JSON document."
                   % ", ".join(sorted(_NAMED_TARGETS)))
@click.option("--format", "fmt", type=FORMAT, default="text",
              show_default=True)
def cmd_adams(n, target, fmt):
    """Apply the n-th Adams operation to a class."""
    if abs(n) > ADAMS_MAX:
        raise click.UsageError("|n| must be at most %d" % ADAMS_MAX)
    if target in _NAMED_TARGETS:
        x = _NAMED_TARGETS[target]()
    else:
        try:
            x = SymClass.from_json(target)
        except (ValueError, KeyError, TypeError) as exc:
            raise click.UsageError("cannot parse target: %s" % exc)
    ring = x.poly.ring
    k = sum(any(e[ring.index(g)] for e in x.poly.terms) for g in x.gens)
    if abs(n) ** k > ADAMS_SIZE_MAX:
        raise click.UsageError(
            "|n|^k = %d^%d exceeds %d, k the number of generators in the "
            "target" % (abs(n), k, ADAMS_SIZE_MAX))
    try:
        got = adams(n, x)
    except GradingError as exc:
        raise click.UsageError(str(exc))
    click.echo(_render_poly(got, fmt))


@main.command("ternary")
@click.option("--theory", type=click.Choice(list(THEORIES)),
              default="gw", show_default=True)
@click.option("--class", "index", type=int, default=None,
              help="Single class index 1..4 (default: all four).")
@click.option("--format", "fmt", type=FORMAT, default="text",
              show_default=True)
def cmd_ternary(theory, index, fmt):
    """Print the ternary product laws F_1..F_4."""
    laws = ternary_laws(theory)
    if index is not None:
        if not 1 <= index <= 4:
            raise click.UsageError("--class must be in 1..4")
        laws = [laws[index - 1]]
    for law in laws:
        if fmt == "json":
            click.echo(json.dumps(law.to_obj(), sort_keys=True,
                                  separators=(",", ":")))
        else:
            out = law.latex() if fmt == "latex" else law.text()
            if index is None:
                label = "F_{%d}" if fmt == "latex" else "F%d"
                out = "%s = %s" % (label % law.index, out)
            click.echo(out)


@main.group("form")
def cmd_form():
    """Gram-matrix constructions and invariants."""


def _read_form(path: str) -> GramForm:
    try:
        with click.open_file(path, "r", encoding="utf-8") as fh:
            return GramForm.from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise click.UsageError("cannot read Gram form %s: %s" % (path, exc))


def _read_input_form(path: str) -> GramForm:
    f = _read_form(path)
    if f.rank > FORM_INPUT_RANK_MAX:
        raise click.UsageError("input rank %d exceeds the limit %d"
                               % (f.rank, FORM_INPUT_RANK_MAX))
    return f


def _check_form_rank(rank: int):
    if rank > FORM_RANK_MAX:
        raise click.UsageError("output rank %d exceeds the limit %d"
                               % (rank, FORM_RANK_MAX))


def _read_power(path: str, n: int) -> GramForm:
    f = _read_form(path)
    if not 0 <= n <= f.rank:
        raise click.UsageError("n out of range 0..%d" % f.rank)
    return f


@cmd_form.command("ext-power")
@click.argument("path")
@click.argument("n", type=int)
def form_ext_power(path, n):
    """n-th exterior power of the Gram form in PATH."""
    f = _read_power(path, n)
    _check_form_rank(comb(f.rank, n))
    if n > FORM_MINOR_MAX:
        raise click.UsageError("n = %d exceeds the limit %d of ext-power"
                               % (n, FORM_MINOR_MAX))
    click.echo(ext_power(f, n).to_json())


@cmd_form.command("sym-power")
@click.argument("path")
@click.argument("n", type=int)
def form_sym_power(path, n):
    """n-th symmetric power (unnormalized) of the Gram form in PATH."""
    f = _read_power(path, n)
    _check_form_rank(comb(f.rank + n - 1, n) if n else 1)
    click.echo(sym_power(f, n).to_json())


@cmd_form.command("tensor")
@click.argument("path_a")
@click.argument("path_b")
def form_tensor(path_a, path_b):
    """Tensor product of two Gram forms."""
    a, b = _read_form(path_a), _read_form(path_b)
    _check_form_rank(a.rank * b.rank)
    click.echo(tensor(a, b).to_json())


@cmd_form.command("hyperbolic")
@click.argument("r", type=int)
@click.option("--delta", type=click.Choice(["+", "-"]), default="+",
              show_default=True)
def form_hyperbolic(r, delta):
    """Split (skew-)symmetric form of rank 2r."""
    if r < 1:
        raise click.UsageError("rank must be >= 1")
    _check_form_rank(2 * r)
    click.echo(hyperbolic(r, delta).to_json())


@cmd_form.command("invariants")
@click.argument("path")
def form_invariants(path):
    """Rank, signature, discriminant and Hasse symbols over Q."""
    f = _read_input_form(path)
    try:
        inv = invariants(f)
    except (TypeError, ValueError) as exc:
        raise click.UsageError(str(exc))
    click.echo(json.dumps(inv.to_obj(), sort_keys=True,
                          separators=(",", ":")))


@cmd_form.command("gw-equal")
@click.argument("path_a")
@click.argument("path_b")
def form_gw_equal(path_a, path_b):
    """Compare the classes of two symmetric forms via invariants."""
    a, b = _read_input_form(path_a), _read_input_form(path_b)
    try:
        same = gw_identity_check([(1, a)], [(1, b)])
    except (TypeError, ValueError) as exc:
        raise click.UsageError(str(exc))
    click.echo("equal" if same else "not-equal")
    if not same:
        raise SystemExit(1)


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

SUITE_ORDER = list(SUITES) + ["all"]


@main.command("verify")
@click.argument("suite", type=click.Choice(SUITE_ORDER))
@click.option("--json", "json_path", type=click.Path(dir_okay=False),
              default=None, help="Also write the report as JSON.")
@click.option("--no-timestamp", is_flag=True,
              help="Omit the timestamp and elapsed times from the JSON report.")
def cmd_verify(suite, json_path, no_timestamp):
    """Run a verification suite and report pass/fail per identity."""
    try:    # opened before any suite runs: a bad path costs no run
        fh = json_path if json_path is None else open(
            json_path, "w", encoding="utf-8")
    except OSError as exc:
        raise click.UsageError("cannot write --json: %s" % exc)
    names = list(SUITES) if suite == "all" else [suite]
    reports, elapsed = [], {}
    for name in names:
        start = time.perf_counter()
        reports.append(SUITES[name]())
        elapsed[name] = round(time.perf_counter() - start, 6)
    rep = merge("all", reports) if suite == "all" else reports[0]
    click.echo(rep.render_text(), nl=False)
    if fh is not None:
        if not no_timestamp:
            rep.stamp(elapsed, {
                name: {k: round(v, 6) for k, v in r.lemma_s.items()}
                for name, r in zip(names, reports)})
        with fh:
            fh.write(rep.to_json())
    if not rep.ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
