"""In-process forms calls: the timed side of the forms-calc workload.

    python3 perfbench/forms_worker.py OPS.json OUT.json SECONDS MIN_OPS MAX_OPS

Runs the ops of OPS.json in whole passes, so the mix of kinds is exact,
until at least MIN_OPS ran and the run is closest to SECONDS long (or
exactly MAX_OPS ops, when MAX_OPS > 0).  Only the call of the public
gwadams.forms function is timed.  OUT.json gets each op's seconds, its
output in a canonical form that the parent checks, and the machine-speed
samples as (op index, seconds).  When the sampler (site/sitecustomize.py)
is active, it is moved from its timer to the gaps between ops, so no
sample lands inside a timed call.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

def _digest(form) -> str:
    text = "%d|%s" % (form.sym, ";".join(",".join(str(x) for x in row)
                                        for row in form.matrix))
    return hashlib.sha256(text.encode()).hexdigest()


def _call(forms, op):
    """(function, args) of one op, with its inputs already built."""
    F = forms.GramForm
    kind = op["kind"]
    if kind in ("ext_power", "sym_power"):
        return getattr(forms, kind), (F(op["f"]), op["n"])
    if kind == "tensor":
        return forms.tensor, (F(op["f"]), F(op["g"]))
    if kind in ("invariants", "planted_invariants"):
        return forms.invariants, (F(op["f"]),)
    if kind in ("lambda2_identity", "gw_pair"):
        return forms.gw_identity_check, ([(c, F(m)) for c, m in op["lhs"]],
                                         [(c, F(m)) for c, m in op["rhs"]])
    return forms.check_congruence, (op["B"], F(op["f"]), F(op["g"]))


def canonical(out):
    """The op output in a form the parent can compare with its reference."""
    if isinstance(out, bool):
        return out
    if hasattr(out, "matrix"):
        return _digest(out)
    return {"rank": out.rank, "signature": out.signature, "disc": out.disc,
            "neg_places": sorted(str(p) for p, s in out.hasse if s == -1)}


def main(argv):
    import gwadams.forms as forms
    ops_path, out_path = argv[0], argv[1]
    seconds, min_ops, max_ops = float(argv[2]), int(argv[3]), int(argv[4])
    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    sampler = sys.modules.get("sitecustomize")
    if hasattr(sampler, "stop_timer"):
        sampler.stop_timer()
    else:
        sampler = None
    times, outputs, probes = [], [], []
    start = last = time.perf_counter()
    i = 0
    while max_ops <= 0 or i < max_ops:
        if max_ops <= 0 and i >= min_ops and i % len(ops) == 0:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / i * len(ops) / 2 >= seconds:
                break
        if sampler is not None and time.perf_counter() - last >= sampler.INTERVAL_S:
            sampler.sample()
            probes.append((i, sampler.SAMPLES[-1]))
            last = time.perf_counter()
        fn, args = _call(forms, ops[i % len(ops)])
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:    # recorded as a failed op, run continues
            times.append(time.perf_counter() - t0)
            outputs.append({"error": repr(exc)})
        else:
            times.append(time.perf_counter() - t0)
            outputs.append(canonical(out))
        i += 1
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"times": times, "outputs": outputs, "probes": probes}, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
