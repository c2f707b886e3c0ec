import json
import os
import subprocess
import sys

import pytest

import gwadams
from gwadams.polyring import Ring
from gwadams import symfunc
from gwadams.symfunc import (
    SymmetryError, check_appendix_b, elementary, ell_args, eval_P,
    expand_elementary, ring_P, rxy_closed, symmetric_reduce, symmetry_witness,
    universal_P, universal_Q, universal_R,
)

U2 = Ring([("U1", False), ("U2", False)])


class TestElementary:
    def test_sigma1(self):
        assert elementary(2, 1) == U2.var("U1") + U2.var("U2")

    def test_sigma2(self):
        assert elementary(2, 2) == U2.var("U1") * U2.var("U2")

    def test_sigma_above_arity(self):
        assert elementary(2, 3).is_zero()

    def test_sigma0(self):
        assert elementary(2, 0) == U2.one()


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

    def test_carry_variables(self):
        R = Ring([("U1", False), ("U2", False), ("c", True)])
        p = (U2.var("U1") + U2.var("U2")).rename(R) * R.var("c", -1)
        r = symmetric_reduce(p, ["U1", "U2"])
        assert r.text() == "X1*c^-1"


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
        assert eval_P(1, [R.var("v")], [R.var("v")], R) == R.var("v") ** 2

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
        for n in (1, 2):
            assert universal_R(n, "direct") == universal_R(n, "composed")

    def test_bad_method(self):
        with pytest.raises(ValueError):
            universal_R(2, "sideways")


class TestAppendixB:
    def test_battery_all_pass(self):
        rep = check_appendix_b(4)
        assert rep.ok
        lemmas = {e.lemma for e in rep.entries}
        assert {"RXY", "RB", "RZ", "R_P", "R_abc", "lambda_dim1",
                "product_dim1", "P_stability", "Q_stability",
                "pi_recursion"} <= lemmas

    def test_rxy_value_at_2(self):
        rep = check_appendix_b(2)
        entry = next(e for e in rep.entries if e.lemma == "RXY" and e.params == (2,))
        assert entry.status == "pass"
        assert entry.rhs == "x^2 + y^2 - 2"


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
    """The power-sum route against the Gauss expansion and closed forms."""

    def test_p5_matches_expansion(self):
        assert universal_P(5) == universal_P(5, m=5)

    def test_q_matches_expansion(self):
        for i, j in ((i, j) for i in range(1, 9) for j in range(1, 9)
                     if i * j <= 8):
            assert universal_Q(i, j) == universal_Q(i, j, m=i * j), (i, j)

    def test_rxy_beyond_four(self):
        R = Ring([("x", False), ("y", False)])
        x, y = R.var("x"), R.var("y")
        for n in range(5, 9):
            got = eval_P(n, ell_args(x, n), ell_args(y, n), R)
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
