"""Traced execution of gwadams, for the per-layer metrics.

Run as a child process with PYTHONPATH pointing at the checkout's src:

    python3 perfbench/tracing.py OUT.json cli ARG...      # one gwadams CLI call
    python3 perfbench/tracing.py OUT.json forms WORKER_ARG...

It imports gwadams, wraps the public functions of each layer in every
gwadams namespace that binds them (so `from .lambdaring import adams` in
borel is wrapped too), runs the command, and writes the counters at exit.
Every wrapped call is accounted on a stack, so each layer gets its self
time: its own duration minus that of wrapped calls below it.  Hot calls
(MultiPoly construction and arithmetic, normalize, SymClass construction)
only update counters; the others also record a span (name, parent span,
start, duration), kept in memory until exit.
"""

from __future__ import annotations

import json
import os
import sys
import time


class Tracer:
    def __init__(self):
        self.stack = [[0.0, 0]]     # per open call: [child seconds, span id]
        self.totals: dict = {}      # key -> [calls, self seconds, total seconds]
        self.stats: dict = {}       # counter name -> value
        self.spans: list = []       # (id, parent id, key, start, duration)
        self.t0 = time.perf_counter()

    def add(self, name: str, value):
        self.stats[name] = self.stats.get(name, 0) + value

    def peak(self, name: str, value):
        self.stats[name] = max(self.stats.get(name, 0), value)

    def wrap(self, fn, key: str, span: bool, measure=None):
        stack, spans = self.stack, self.spans
        acc = self.totals.setdefault(key, [0, 0.0, 0.0])
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = len(spans) + 1 if span else parent[1]
            if span:
                spans.append(None)          # reserve the id; filled on exit
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                parent[0] += dt
                acc[0] += 1
                acc[1] += dt - frame[0]
                acc[2] += dt
                if span:
                    spans[sid - 1] = (sid, parent[1], key, t0 - tracer.t0, dt)
            if measure is not None:
                measure(tracer, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str, import_s: float):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "totals": self.totals,
                       "stats": self.stats,
                       "spans": [s for s in self.spans if s is not None]}, fh)


# ---------------------------------------------------------------------------
# what to wrap: (module, class or None, attribute, key, span, measure)

def _poly_size(tracer, poly, prefix):
    terms = getattr(poly, "terms", None)
    if terms is None:
        return
    tracer.peak(prefix + "_terms_max", len(terms))
    bits = max((abs(c).bit_length() for c in terms.values()), default=0)
    tracer.peak(prefix + "_coeff_bits_max", bits)


def _universal(tracer, args, out):
    _poly_size(tracer, out, "symfunc.universal")


def _mul_pairs(tracer, args, out):
    other = args[1] if len(args) > 1 else None
    n = len(getattr(args[0], "terms", ()))
    tracer.add("polyring.mul_term_pairs",
               n * len(other.terms) if hasattr(other, "terms") else n)


def _normalize(tracer, args, out):
    tracer.add("gwring.normalize_terms_in", len(args[0].terms))
    tracer.add("gwring.normalize_terms_out", len(out.terms))


def _report_entries(tracer, args, out):
    tracer.add("report.entries", len(args[0].entries))


def _squarefree(tracer, args, out):
    from fractions import Fraction
    a = Fraction(args[0])
    tracer.peak("forms.squarefree_max_digits",
                len(str(abs(a.numerator * a.denominator))))


SUITES = {"check_appendix_a": "appendix-a", "check_appendix_b": "appendix-b",
          "check_coefficient_identities": "coefficient-ring",
          "check_lambda_axioms": "lambda-axioms",
          "check_adams_hyperbolic": "adams-hyperbolic",
          "check_omega_laws": "omega", "check_borel_prop": "borel",
          "check_ternary": "ternary", "check_section2_and_hyp": "forms"}

TARGETS = [
    ("cli", None, "_render_poly", "cli.render", True, None),
    ("borel", "TernaryLaw", "text", "cli.render", True, None),
    ("borel", "TernaryLaw", "latex", "cli.render", True, None),
    ("borel", "TernaryLaw", "to_obj", "cli.render", True, None),
    ("forms", "GramForm", "to_json", "cli.render", True, None),
    ("forms", "GWQInvariants", "to_obj", "cli.render", True, None),
    ("report", "VerificationReport", "render_text", "report.render", True,
     _report_entries),
    ("report", "VerificationReport", "to_json", "report.render", True, None),
    ("symfunc", None, "universal_P", "symfunc.universal", True, _universal),
    ("symfunc", None, "universal_Q", "symfunc.universal", True, _universal),
    ("symfunc", None, "universal_R", "symfunc.universal", True, _universal),
    ("symfunc", None, "symmetric_reduce", "symfunc.reduce", True, None),
    ("gwring", None, "normalize", "gwring.normalize", False, _normalize),
    ("lambdaring", None, "lambda_series", "lambdaring.series", True, None),
    ("lambdaring", None, "adams", "lambdaring.adams", True, None),
    ("lambdaring", None, "adams_negative", "lambdaring.adams", True, None),
    ("lambdaring", "SymClass", "__init__", "lambdaring.symclass", False, None),
    ("polyring", "MultiPoly", "__init__", "polyring.construct", False, None),
    ("polyring", "MultiPoly", "__mul__", "polyring.mul", False, _mul_pairs),
    ("polyring", "MultiPoly", "__add__", "polyring.add", False, None),
    ("polyring", "MultiPoly", "substitute", "polyring.substitute", True, None),
    ("polyring", "TruncSeries", "__mul__", "polyring.series_mul", False, None),
    ("borel", None, "omega", "borel.omega", True, None),
    ("borel", None, "omega_recursive", "borel.omega", True, None),
    ("borel", None, "omega_closed", "borel.omega", True, None),
    ("borel", None, "ternary_laws", "borel.ternary", True, None),
    ("borel", None, "borel_triple_classes", "borel.ternary", True, None),
    ("forms", None, "ext_power", "forms.construct", True, None),
    ("forms", None, "sym_power", "forms.construct", True, None),
    ("forms", None, "tensor", "forms.construct", True, None),
    ("forms", None, "direct_sum", "forms.construct", True, None),
    ("forms", None, "hyperbolic", "forms.construct", True, None),
    ("forms", None, "check_congruence", "forms.construct", True, None),
    ("forms", None, "invariants", "forms.invariants", True, None),
    ("forms", None, "gw_identity_check", "forms.invariants", True, None),
    ("forms", None, "squarefree", "forms.squarefree", False, _squarefree),
] + [(mod, None, fn, "suite." + name, True, None)
     for mod in ("symfunc", "gwring", "lambdaring", "borel", "forms")
     for fn, name in SUITES.items()]


def install(tracer: Tracer):
    """Wrap every target that exists in the imported gwadams modules."""
    mods = [m for name, m in sorted(sys.modules.items())
            if name == "gwadams" or name.startswith("gwadams.")]
    for modname, clsname, attr, key, span, measure in TARGETS:
        mod = sys.modules.get("gwadams." + modname)
        if mod is None:
            continue
        if clsname is not None:
            cls = getattr(mod, clsname, None)
            orig = vars(cls).get(attr) if cls is not None else None
            if orig is None:
                continue
            wrapped = tracer.wrap(orig, key, span, measure)
            for name, val in list(vars(cls).items()):   # aliases: __rmul__
                if val is orig:
                    setattr(cls, name, wrapped)
            continue
        orig = getattr(mod, attr, None)
        if orig is None or hasattr(orig, "__wrapped__"):
            continue
        wrapped = tracer.wrap(orig, key, span, measure)
        for m in mods:
            for name, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, name, wrapped)
                elif type(val) is dict:     # e.g. cli.SUITES
                    for k, v in list(val.items()):
                        if v is orig:
                            val[k] = wrapped


def main(argv):
    out_path, mode, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    t0 = time.perf_counter()
    if mode == "cli":
        import gwadams.cli
    else:
        import gwadams.forms  # noqa: F401
    import_s = time.perf_counter() - t0
    install(tracer)
    try:
        if mode == "cli":
            gwadams.cli.main.main(args=rest, prog_name="gwadams")
        else:
            import forms_worker
            forms_worker.main(rest)
    finally:
        tracer.dump(out_path, import_s)


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    main(sys.argv[1:])
