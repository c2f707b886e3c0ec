import hashlib
import json
import time

import pytest
from click.testing import CliRunner

from gwadams import cli
from gwadams.cli import main
from gwadams.forms import GramForm


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, list(args))


class TestUniversal:
    def test_p1(self, runner):
        r = run(runner, "universal", "P", "1", "--format", "text")
        assert r.exit_code == 0 and r.output == "X1*Y1\n"

    def test_q13(self, runner):
        r = run(runner, "universal", "Q", "1", "3", "--format", "text")
        assert r.exit_code == 0 and r.output == "X3\n"

    def test_r2_both(self, runner):
        r = run(runner, "universal", "R", "2", "--method", "both")
        lines = r.output.splitlines()
        assert r.exit_code == 0
        assert lines[0] == lines[1] and lines[2] == "agree"

    def test_bound_exceeded(self, runner):
        r = run(runner, "universal", "P", "5")
        assert r.exit_code == 2
        r = run(runner, "universal", "Q", "3", "3")
        assert r.exit_code == 2

    def test_max_override(self, runner):
        r = run(runner, "universal", "P", "5", "--max", "5")
        assert r.exit_code == 0

    def test_latex(self, runner):
        r = run(runner, "universal", "P", "1", "--format", "latex")
        assert r.exit_code == 0 and "X_{1}" in r.output

    @pytest.mark.parametrize("name, args", [
        ("UNIVERSAL_P_MAX", ("P",)),
        ("UNIVERSAL_R_MAX", ("R", "--method", "composed")),
        ("UNIVERSAL_R_DIRECT_MAX", ("R", "--method", "direct")),
        ("UNIVERSAL_R_DIRECT_MAX", ("R", "--method", "both")),
    ])
    def test_size_limit(self, runner, name, args):
        import gwadams.cli
        limit = getattr(gwadams.cli, name)
        kind, opts = args[0], args[1:]
        r = run(runner, "universal", kind, str(limit + 1), "--max", "99",
                *opts)
        assert r.exit_code == 2 and "exceeds the limit %d" % limit in r.output
        r = run(runner, "universal", kind, str(limit), "--max", "99", *opts)
        assert r.exit_code == 0 and r.output

    def test_q_size_limit(self, runner):
        from gwadams.cli import UNIVERSAL_Q_MAX
        r = run(runner, "universal", "Q", str(UNIVERSAL_Q_MAX + 1), "1",
                "--max", "99")
        assert r.exit_code == 2
        assert "exceeds the limit %d" % UNIVERSAL_Q_MAX in r.output
        i, j = UNIVERSAL_Q_MAX // 2, 2        # the slowest shape measured
        assert i * j == UNIVERSAL_Q_MAX
        r = run(runner, "universal", "Q", str(i), str(j), "--max", "99")
        assert r.exit_code == 0 and r.output

    def test_arity_errors(self, runner):
        assert run(runner, "universal", "P", "1", "2").exit_code == 2
        assert run(runner, "universal", "Q", "1").exit_code == 2
        assert run(runner, "universal", "P", "0").exit_code == 2


class TestOmega:
    def test_value(self, runner):
        r = run(runner, "omega", "4")
        assert r.exit_code == 0 and r.output == "8*tau*gamma\n"

    def test_table(self, runner):
        r = run(runner, "omega", "--table", "3")
        lines = r.output.splitlines()
        assert lines[0] == "0: 0" and lines[1] == "1: 1"
        assert lines[2] == "2: 2*tau"

    def test_usage(self, runner):
        assert run(runner, "omega").exit_code == 2
        assert run(runner, "omega", "2", "--table", "3").exit_code == 2
        assert run(runner, "omega", "-1").exit_code == 2

    def test_size_bound(self, runner):
        from gwadams.borel import omega_closed
        from gwadams.cli import OMEGA_MAX
        r = run(runner, "omega", str(OMEGA_MAX))
        assert r.exit_code == 0
        assert r.output == omega_closed(OMEGA_MAX).text() + "\n"
        r = run(runner, "omega", "--table", str(OMEGA_MAX))
        assert r.exit_code == 0 and len(r.output.splitlines()) == OMEGA_MAX + 1
        for args in ((str(OMEGA_MAX + 1),), ("--table", str(OMEGA_MAX + 1))):
            r = run(runner, "omega", *args)
            assert r.exit_code == 2
            assert "0..%d" % OMEGA_MAX in r.output


class TestAdams:
    def test_tau(self, runner):
        r = run(runner, "adams", "2", "--target", "tau")
        assert r.exit_code == 0 and r.output == "-2*eps*gamma\n"

    def test_default_target(self, runner):
        assert run(runner, "adams", "3").output == "tau*gamma\n"

    def test_negative(self, runner):
        r = run(runner, "adams", "-1", "--target", "tau")
        assert r.exit_code == 0 and r.output == "-tau\n"

    def test_json_target(self, runner):
        from gwadams.gwring import GWElem
        from gwadams.lambdaring import SymClass
        doc = SymClass.from_gw(GWElem.h()).to_json()
        r = run(runner, "adams", "2", "--target", doc)
        assert r.exit_code == 0 and r.output == "2\n"

    def test_size_bound(self, runner):
        from gwadams.cli import ADAMS_MAX
        for n in (ADAMS_MAX, -ADAMS_MAX):
            assert run(runner, "adams", str(n), "--target", "u").exit_code == 0
        for n in (ADAMS_MAX + 1, -ADAMS_MAX - 1):
            r = run(runner, "adams", str(n), "--target", "u")
            assert r.exit_code == 2
            assert "at most %d" % ADAMS_MAX in r.output

    def test_generator_size_bound(self, runner):
        from gwadams.cli import ADAMS_SIZE_MAX
        u123 = ('{"theory":"gw","gens":["u1","u2","u3"],"quotient":false,'
                '"components":[{"deg":0,"gmin":0,"a":[1],"b":[0],"c":[0],'
                '"u_exps":[1,1,1]}]}')
        assert ADAMS_SIZE_MAX == 64 ** 3
        r = run(runner, "adams", "64", "--target", u123)
        assert r.exit_code == 0 and r.output.startswith("u1^64*u2^64*u3^64 ")
        for n in ("65", "-65", "128"):
            start = time.perf_counter()
            r = run(runner, "adams", n, "--target", u123)
            assert time.perf_counter() - start < 1
            assert r.exit_code == 2 and "exceeds %d" % ADAMS_SIZE_MAX in r.output

    def test_parse_error(self, runner):
        assert run(runner, "adams", "2", "--target", "{broken").exit_code == 2
        # valid JSON that is not a class document
        for doc in ('[]', '"abc"', '{"gens":["u"],"components":[5]}',
                    '{"components":{}}', '{"gens":"u","components":[]}',
                    '{"gens":["u"],"components":[{"a":[1],"u_exps":[1,2]}]}',
                    # numbers that are not integers
                    '{"components":[{"a":[1.5]}]}',
                    '{"components":[{"a":[true]}]}',
                    '{"components":[{"a":[1],"gmin":0.5}]}',
                    '{"theory":"k","components":[{"poly":{"vars":[{"name":'
                    '"beta","laurent":true}],"terms":[{"coeff":2.7,'
                    '"exps":[1]}]}}]}',
                    '{"theory":"k","components":[{"poly":{"vars":[{"name":'
                    '"beta","laurent":true}],"terms":[{"coeff":"2",'
                    '"exps":[1.0]}]}}]}',
                    # flags that are not JSON booleans
                    '{"gens":["u"],"quotient":"no",'
                    '"components":[{"c":[1],"u_exps":[1]}]}',
                    '{"theory":"k","components":[{"poly":{"vars":[{"name":'
                    '"beta","laurent":"false"}],"terms":[{"coeff":"1",'
                    '"exps":[-1]}]}}]}',
                    # quotient mode in a theory without tau
                    '{"theory":"k","gens":["u"],"quotient":true,"components":'
                    '[{"u_exps":[2],"poly":{"vars":[{"name":"beta","laurent":'
                    'true}],"terms":[{"coeff":"1","exps":[0]}]}}]}',
                    '{"theory":"witt","gens":["u"],"quotient":true,'
                    '"components":[{"u_exps":[2],"poly":{"vars":[{"name":'
                    '"gamma","laurent":true}],"terms":[{"coeff":"1",'
                    '"exps":[0]}]}}]}'):
            r = run(runner, "adams", "2", "--target", doc)
            assert r.exit_code == 2, doc
            assert "cannot parse target" in r.output
        # inhomogeneous classes parse but have no Adams image
        for n, doc in (("2", '{"components":[{"a":[1,1]}]}'),
                       ("-3", '{"components":[{"a":[1,1]}]}'),
                       ("2", '{"gens":["u"],"components":[{"a":[1],'
                             '"u_exps":[1]},{"a":[1],"u_exps":[0]}]}')):
            r = run(runner, "adams", n, "--target", doc)
            assert r.exit_code == 2, doc
            assert "homogeneous" in r.output


class TestJsonShape:
    @pytest.mark.parametrize("args, out", [
        (("adams", "2", "--target", "tau"),
         '{"components":[{"a":[0],"b":[-2],"c":[0],"deg":4,"gmin":1,'
         '"u_exps":[]}],"gens":[],"quotient":false,"theory":"gw"}'),
        (("omega", "4"),
         '{"components":[{"a":[0],"b":[0],"c":[8],"deg":6,"gmin":1}]}'),
        (("adams", "2", "--target", "u"),
         '{"components":[{"a":[-4],"b":[2],"c":[0],"deg":4,"gmin":1,'
         '"u_exps":[0]},{"a":[0],"b":[0],"c":[2],"deg":2,"gmin":0,'
         '"u_exps":[1]}],"gens":["u"],"quotient":true,"theory":"gw"}'),
    ])
    def test_json_shape(self, runner, args, out):
        # a named target is a full class document; omega is a bare
        # coefficient-ring element
        r = run(runner, *args, "--format", "json")
        assert r.exit_code == 0 and r.output == out + "\n"


class TestTernary:
    def test_k_class1(self, runner):
        r = run(runner, "ternary", "--theory", "k", "--class", "1")
        assert r.output == ("4*sigma(v1) + 2*beta^-2*sigma(v1*v2) "
                            "+ beta^-4*v1*v2*v3\n")

    def test_all_classes_labeled(self, runner):
        r = run(runner, "ternary", "--theory", "witt")
        lines = r.output.splitlines()
        assert len(lines) == 4
        assert lines[0] == "F1 = gamma^-1*v1*v2*v3"

    def test_json(self, runner):
        r = run(runner, "ternary", "--theory", "gw", "--class", "2",
                "--format", "json")
        obj = json.loads(r.output)
        assert obj["index"] == 2 and obj["theory"] == "gw"

    def test_bad_class(self, runner):
        assert run(runner, "ternary", "--class", "5").exit_code == 2


class TestForm:
    def test_round_trip(self, runner, tmp_path):
        p = tmp_path / "f.json"
        p.write_text(GramForm.diagonal([1, -1]).to_json())
        r = run(runner, "form", "ext-power", str(p), "2")
        assert GramForm.from_json(r.output) == GramForm.diagonal([-1])
        r = run(runner, "form", "sym-power", str(p), "2")
        assert r.exit_code == 0

    def test_hyperbolic_and_invariants(self, runner, tmp_path):
        r = run(runner, "form", "hyperbolic", "1")
        assert json.loads(r.output) == {
            "sym": "symmetric", "matrix": [["0", "1"], ["1", "0"]]}
        p = tmp_path / "h.json"
        p.write_text(r.output)
        inv = json.loads(run(runner, "form", "invariants", str(p)).output)
        assert inv["rank"] == 2 and inv["disc"] == -1

    def test_tensor(self, runner, tmp_path):
        a = tmp_path / "a.json"
        a.write_text(GramForm.diagonal([2]).to_json())
        r = run(runner, "form", "tensor", str(a), str(a))
        assert GramForm.from_json(r.output) == GramForm.diagonal([4])

    def test_gw_equal(self, runner, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(GramForm.diagonal([1, 1]).to_json())
        b.write_text(GramForm.diagonal([2, 2]).to_json())
        r = run(runner, "form", "gw-equal", str(a), str(b))
        assert r.exit_code == 0 and r.output == "equal\n"
        b.write_text(GramForm.diagonal([3, 3]).to_json())
        r = run(runner, "form", "gw-equal", str(a), str(b))
        assert r.exit_code == 1 and r.output == "not-equal\n"

    def test_parse_error(self, runner, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("nope")
        assert run(runner, "form", "invariants", str(p)).exit_code == 2
        assert run(runner, "form", "invariants",
                   str(tmp_path / "missing.json")).exit_code == 2
        # entries that are not exact rationals, a zero denominator, and a
        # matrix or rows that are strings rather than lists
        docs = ['{"sym":"symmetric","matrix":[[%s]]}' % entry
                for entry in ("0.1", "1.5", "true", '"1/0"')]
        docs += ['{"sym":"symmetric","matrix":["12","21"]}',
                 '{"sym":"symmetric","matrix":"1"}',
                 '{"sym":"symmetric","matrix":[["1","2"],"21"]}']
        for i, doc in enumerate(docs):
            p = tmp_path / ("bad%d.json" % i)
            p.write_text(doc)
            r = run(runner, "form", "invariants", str(p))
            assert r.exit_code == 2, doc
            assert "cannot read Gram form" in r.output, doc

    # sha256 of "<exit code>\n<stdout>" of `form ...` on the forms below,
    # recorded before the integer matrix kernel replaced the Fraction one
    GOLDEN_FORMS = {
        "a": {"sym": "symmetric", "matrix": [
            ["1/2", "1/3", "0", "2"], ["1/3", "-3/4", "5/6", "1"],
            ["0", "5/6", "7", "-1/5"], ["2", "1", "-1/5", "1/9"]]},
        "b": {"sym": "symmetric", "matrix": [
            ["2", "1/3", "0"], ["1/3", "-1/5", "1/7"], ["0", "1/7", "3/11"]]},
        "s": {"sym": "skew", "matrix": [
            ["0", "1/2", "-2/3", "1"], ["-1/2", "0", "3/7", "0"],
            ["2/3", "-3/7", "0", "-5/4"], ["-1", "0", "5/4", "0"]]},
        "d": {"sym": "symmetric", "matrix": [["1/2", "0"], ["0", "2"]]},
        "e": {"sym": "symmetric", "matrix": [["1", "0"], ["0", "1"]]},
        "g": {"sym": "symmetric", "matrix": [["3", "0"], ["0", "3"]]},
    }
    GOLDEN = {
        "ext-power a 0":
            "3d83217f7d1d0072f6c0674bfbb8d620e6a94469ff920fc59208e28fda365c5c",
        "ext-power a 1":
            "36c3dfad7b7e8d98204f5bd0d23f6385163b290333677ed1912d38d32b4b45f9",
        "ext-power a 2":
            "ecfbcca728c083c9eb2036ee268a04b007c53954a9c06865f843e6125f17858d",
        "ext-power a 3":
            "b045ba903e816b5de6b9c793afd5ac4aaa4331c5ee5a4c8e9a86f596f09869dc",
        "ext-power a 4":
            "61103323072017789c8715f9866087b2ca596792972be18133401f0f31ef1e91",
        "ext-power b 2":
            "28b33a08ec5bf294a07d2b16f14c0a7d1cb4da70f1ee23acaa7a5fe3a35f06fa",
        "ext-power b 3":
            "1d7e7f580d1e71a95a1704dccd2aa4411a8b70acb86cfa9811b6c50a7dea89f8",
        "ext-power s 0":
            "3d83217f7d1d0072f6c0674bfbb8d620e6a94469ff920fc59208e28fda365c5c",
        "ext-power s 1":
            "cfddd7aa9ad758400c1ba29c0ec91607d30e406dccf72a4aeda7165936250712",
        "ext-power s 2":
            "2e261bb35d804a9891c061a9882c80a8ea03c7cd5aa3afe270305a3ba9c8608e",
        "ext-power s 3":
            "b23eb34a290c7d7eab25e324a76b7672024d5cbe51cea2366c8f5410b16d33c8",
        "ext-power s 4":
            "e2774580df741a199f5f70642a1850c31ff3ed9fa16afc500823398eb806d6db",
        "sym-power a 2":
            "90ff9cf91204f2bfbad32073c8f9c752138a86d4e4a30de77e43503b0f8d7f81",
        "sym-power a 3":
            "230a016db91f4f0986a1f76d68731a7a565b22fe24f9a77b44245c59cdc903c3",
        "sym-power b 1":
            "e43a351b756228ff94315586b37ce96289d6d89f73dcb4b66bdb4cfd238f7f1c",
        "sym-power b 2":
            "5f4c02f1c892b576b9a86aa34d170de7e27352700e52dbe37eea450abca0b01c",
        "sym-power b 3":
            "16b238e06d6537fa5d74db7c8068d50099507ddbcb5bdfea3f60af082e2cc371",
        "sym-power s 2":
            "75d6063a44477c9d87edbc28920544df4b4c61d6e5b5e2ac1861826a811e6987",
        "sym-power s 3":
            "bdabff0c6eff3e23b644bfa8c43e1d558836dfb7ccf852675b7173a7b273dc29",
        "tensor a b":
            "f4021eb270406b767ee226db15ce170941fb432c78abd1cc5a33e493d2127a68",
        "tensor s s":
            "37cd72792687f272f627075b86c1e97a34ba4ef48c8d24119f8f00c93404ce65",
        "tensor a s":
            "a283b5806fdd302d30963094dd501bcfe70182f5bc8fdac2184bd7ebac288345",
        "tensor b d":
            "8beb7c234bfe080a22c48b230ccbcaa4e70a17b0953b675124a0499b0a4756a7",
        "invariants a":
            "ac8b564342b8ab57167f24b0d16f3a831b3e03d6b3ae1e11399c53b7a3582539",
        "invariants b":
            "663610e4705d9dd256cc9c6c45d7fdd1fbc953919b5298f1d425e8e3274b4f4b",
        "invariants d":
            "c5b9d9cf01fc212e24b98c9aadf94bc8278aa9e45bc3b207b0f6dde7ca7c97b8",
        "invariants g":
            "28641bfbce869ffd9b8821db6d9b0212127098ca8f8fef23aef315933527204b",
        "gw-equal d e":
            "e20a306f1249a6487e3bc8b83c1c24e39e2e6f2fda167f2b1fbc0afe82e0b327",
        "gw-equal e g":
            "8015455fc740222ccb76e927621f41d393798ecd68bce67fa44d7e02004b9c5b",
        "gw-equal a b":
            "8015455fc740222ccb76e927621f41d393798ecd68bce67fa44d7e02004b9c5b",
        "gw-equal b b":
            "e20a306f1249a6487e3bc8b83c1c24e39e2e6f2fda167f2b1fbc0afe82e0b327",
    }

    def test_golden(self, runner, tmp_path):
        for name, doc in self.GOLDEN_FORMS.items():
            (tmp_path / name).write_text(json.dumps(doc))
        for call, want in self.GOLDEN.items():
            cmd, *args = call.split()
            args = [str(tmp_path / a) if a in self.GOLDEN_FORMS else a
                    for a in args]
            r = run(runner, "form", cmd, *args)
            got = "%d\n%s" % (r.exit_code, r.output)
            assert hashlib.sha256(got.encode()).hexdigest() == want, call

    def test_size_bound(self, runner, tmp_path):
        def diag(rank):
            p = tmp_path / ("diag%d.json" % rank)
            p.write_text(GramForm.diagonal(range(1, rank + 1)).to_json())
            return str(p)

        def rank_of(*args):
            r = run(runner, "form", *args)
            assert r.exit_code == 0, r.output
            return GramForm.from_json(r.output).rank

        R, M = cli.FORM_RANK_MAX, cli.FORM_MINOR_MAX
        assert rank_of("ext-power", diag(R), "1") == R
        assert rank_of("sym-power", diag(R), "1") == R
        assert rank_of("ext-power", diag(M), str(M)) == 1
        a, b = 11, 20   # 11 * 20 = 220, 13 * 17 = 221
        assert a * b == R
        assert rank_of("tensor", diag(a), diag(b)) == R
        for args in (("ext-power", diag(R + 1), "1"),
                     ("sym-power", diag(R + 1), "1"),
                     ("tensor", diag(13), diag(17))):
            r = run(runner, "form", *args)
            assert r.exit_code == 2, args
            assert "exceeds the limit %d" % R in r.output
        r = run(runner, "form", "ext-power", diag(M + 1), str(M + 1))
        assert r.exit_code == 2
        assert "exceeds the limit %d" % M in r.output


class TestVerify:
    def test_omega_suite(self, runner):
        r = run(runner, "verify", "omega")
        assert r.exit_code == 0
        entries = [l for l in r.output.splitlines() if l.startswith("PASS")]
        assert len(entries) >= 14

    def test_unknown_suite(self, runner):
        assert run(runner, "verify", "nope").exit_code == 2

    def test_adams_hyperbolic_mismatches(self, runner):
        r = run(runner, "verify", "adams-hyperbolic")
        assert r.exit_code == 0
        md = [l for l in r.output.splitlines()
              if l.startswith("MISMATCH-DOCUMENTED")]
        assert len(md) == 4
        for cell in ("psi_h_1(2,0)", "psi_h_1(2,2)",
                     "psi_h_1(4,0)", "psi_h_1(4,2)"):
            assert any(cell in l for l in md)

    def test_json_report(self, runner, tmp_path):
        out = tmp_path / "rep.json"
        r = run(runner, "verify", "borel", "--json", str(out))
        assert r.exit_code == 0
        obj = json.loads(out.read_text())
        assert obj["suite"] == "borel" and "timestamp" in obj
        assert obj["summary"]["fail"] == 0

    def test_elapsed_only_with_timestamp(self, runner, tmp_path):
        out = tmp_path / "rep.json"
        r = run(runner, "verify", "omega", "--json", str(out))
        assert r.exit_code == 0 and "elapsed" not in r.output
        elapsed = json.loads(out.read_text())["elapsed_s"]
        assert list(elapsed) == ["omega"] and elapsed["omega"] >= 0
        r2 = run(runner, "verify", "omega", "--json", str(out),
                 "--no-timestamp")
        assert r2.output == r.output
        assert "elapsed_s" not in json.loads(out.read_text())

    def test_no_timestamp_golden(self, runner, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        ra = run(runner, "verify", "ternary", "--json", str(a),
                 "--no-timestamp")
        rb = run(runner, "verify", "ternary", "--json", str(b),
                 "--no-timestamp")
        assert ra.output == rb.output
        assert a.read_text() == b.read_text()
        assert "timestamp" not in json.loads(a.read_text())
