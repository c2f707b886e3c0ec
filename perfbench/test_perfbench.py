"""Tests of the benchmark itself, on tiny sizes (`--quick`).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from itertools import islice

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import refmath as R  # noqa: E402
import run  # noqa: E402

WORKLOADS = ("verify-cold", "cli-calls", "forms-calc")



def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads():
    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in s["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in s["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_every_metric_printed_with_unit(workload, trace):
    res = result("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--quick")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    wanted = spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if trace == "0":
        assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_is_counted(workload):
    res = result("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--quick", "--corrupt", "0")
    assert res["failed"] == 1 and res["correct"] is False


def test_same_seed_same_ops():
    def decks(seed):
        return list(islice(gen.cli_decks(seed), 2))
    assert decks(7) == decks(7)
    assert decks(7) != decks(8)
    a, b = gen.forms_ops(7, 60), gen.forms_ops(7, 60)
    assert [run._op_json(op) for op in a] == [run._op_json(op) for op in b]
    assert [run._op_json(op) for op in a] != [
        run._op_json(op) for op in gen.forms_ops(8, 60)]


def test_deck_has_fixed_heavy_members():
    for deck in islice(gen.cli_decks(11), 3):
        args = [" ".join(c["args"]) for c in deck]
        assert sum(a.startswith("universal P 5 ") for a in args) == 3
        assert sum(a.startswith("universal Q 4 2 ") for a in args) == 2
        assert sum(a.startswith("omega --table 24 ") for a in args) == 1


def _spoil(obj):
    """Add 1 to the first coefficient of a class JSON output."""
    obj = json.loads(json.dumps(obj))
    obj["components"][0]["a"][0] += 1
    return obj


def test_universal_check_is_live():
    from gwadams.symfunc import universal_P, universal_Q, universal_R
    rng = random.Random(0)
    for kind, idx, poly in (("P", (3,), universal_P(3)), ("Q", (2, 3), universal_Q(2, 3)),
                            ("R", (2,), universal_R(2))):
        obj = poly.to_obj()
        assert R.universal_ok(kind, idx, obj, rng)
        obj["terms"][0]["coeff"] = str(int(obj["terms"][0]["coeff"]) + 1)
        assert not R.universal_ok(kind, idx, obj, rng)


def test_adams_and_omega_checks_are_live():
    from gwadams.borel import omega
    from gwadams.cli import _NAMED_TARGETS
    from gwadams.lambdaring import SymClass, adams
    cases = [(t, _NAMED_TARGETS[t]()) for t in ("tau", "u", "u-tau")]
    cases.append(("u1u2u3", SymClass.from_obj(R.U1U2U3)))
    for name, x in cases:
        obj = json.loads(adams(5, x).to_json())
        assert R.gw_from_obj(obj, len(x.gens)) == R.adams_expected(name, 5)
        assert R.gw_from_obj(_spoil(obj), len(x.gens)) != R.adams_expected(name, 5)
    obj = omega(7).value.to_obj()
    assert R.gw_from_obj(obj, 0) == R.omega_closed(7)
    assert R.gw_from_obj(_spoil(obj), 0) != R.omega_closed(7)


def test_forms_checks_are_live():
    import forms_worker
    from gwadams import forms
    for op in gen.forms_ops(5, 40):
        if op["kind"] == "planted_invariants":
            continue
        fn, args = forms_worker._call(forms, run._op_json(op))
        got = forms_worker.canonical(fn(*args))
        want = run.forms_expected(op)
        assert got == want, op["kind"]
        spoiled = (not got if isinstance(got, bool) else
                   "0" * 64 if isinstance(got, str) else dict(got, disc=got["disc"] * 2))
        assert spoiled != want


def test_lambda2_identity_holds_in_reference():
    rng = random.Random(2)
    for _ in range(5):
        op = gen.forms_op(rng, "lambda2_identity")
        assert run.forms_expected(op) is True


def test_refuses_to_run_without_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "cli-calls", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
