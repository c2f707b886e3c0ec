import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import gwadams
from gwadams import cli
from gwadams.forms import GramForm


def run(runner, *args):
    return runner(*args)


# json's message for a document nested past the recursion limit
DEEP = ("maximum recursion depth exceeded while decoding a JSON array from a "
        "unicode string")


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
        ("UNIVERSAL_R_MAX", ("R", "--method", "direct")),
        ("UNIVERSAL_R_MAX", ("R", "--method", "both")),
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

    # sha256 of "<exit code>\n<stdout>" of `universal ... --max 8`, recorded
    # before the Gauss reduction tracked dominant monomials only
    GOLDEN = {
        "P 1 --format text":
            "fcb9120de8f3e3964c1dc1aa143ee85d77cd6f92a07b32ff2aec659305d6ccf8",
        "P 1 --format latex":
            "f1c45d79a16caae52a738da40307b596b266e8dd514266b2bec44f258e926398",
        "P 1 --format json":
            "62495e3ce46c5c0628743936238009339465cc6f94c2a146285fece5649d461d",
        "P 2 --format text":
            "3dbf5ff1add36210acbacb6044b361464a449aaac3d1a978f61b740745f36bd8",
        "P 2 --format latex":
            "7890c11b35b83b0866aaaa4031ad3a5f4fa59aa28a8345fed93610c06c96d1ae",
        "P 2 --format json":
            "2fcbdcbb0cdee5d08fa0ff967e8b7bb839584c06656a877e66228fdeb1447302",
        "P 3 --format text":
            "fc85a3d18cc77de012330b0d6c573aa62f82f4a6fa02dcf701e3709745195367",
        "P 3 --format latex":
            "a13fcee4529946529f692e688c4f1fa769bb691523ccf5d598d9075c3f7add9d",
        "P 3 --format json":
            "1c48bdb25d645cfca3dbac0da78282f3be9d1b051e7c3199ce3e2fc65a027154",
        "P 4 --format text":
            "4ec89ef84fefc00e0a2e47bacc6d3c581aee308ec2c322bb53fa2eec16e0cb85",
        "P 4 --format latex":
            "75c4920ecb0abfcf3c0149f103bf29ee942ea07b4daef9a9321c544353a5981a",
        "P 4 --format json":
            "0ede42452327d26e5ff334dd7aa15f197d1b5d96bd2fa02845787c2442990d1e",
        "P 5 --format text":
            "7fc2248036f737fb2584a2adb4b7df2264316a4eec81d17d8609e074e8db7274",
        "P 5 --format latex":
            "948b9b10102a8d47b7d55bb9edaa61cd6e8032d78bada8cdc1ecb1af901cec7f",
        "P 5 --format json":
            "ee1cda010a810d462c925f5455c454b04999da3da60aa624fdf9a401244ecf7a",
        "P 6 --format text":
            "717ee669da94f4844262be7d5acd97243c5e644324885d152c86843ddc72ad97",
        "P 6 --format latex":
            "45ff5409e2e3b39802883f6c1cd6ef22516271c948fef4a574b0e67d1eab56d0",
        "P 6 --format json":
            "fa35c28ccc0d41799deff290886d0ce0d9de29dcf07d9b499b3fa9f2df9f297d",
        "Q 1 1 --format text":
            "2e7703a783ecd8a22bd2aaf089435a46bc1625e2ad5d8f7ec9ae282fccd366af",
        "Q 1 1 --format latex":
            "f014b817779223ffc10e4979f34886ff07cf49a5c3394b5d8d455e13132db913",
        "Q 1 1 --format json":
            "c28a20b669030b638a11a0e0799d541c58eefd2f0eeb9525f0d3e773fd7ccd35",
        "Q 1 2 --format text":
            "14328dc89b28516fed2d54fd4ae5d70d30fbd85eeb8ef076b275c806d57a8e5b",
        "Q 1 2 --format latex":
            "fb31c44ee1565e2864eadaebb45a1dc555a224bb2df86e45ae379e8bfd1f4618",
        "Q 1 2 --format json":
            "3d32ba106a9dd7ac0af4700025748b50b8a7c203da8840e2516c26964ef1eb61",
        "Q 1 3 --format text":
            "945b72eb48f5c8ba9706a7d2be8621816b02d6936d65a029a6f7c12e099b65e9",
        "Q 1 3 --format latex":
            "d5a84dfcad73bc95034bafaebf86e0ed32ee89182126f2dd0a2c3a0bec5f8d45",
        "Q 1 3 --format json":
            "7c9ed016d44a290fe6eeb83edaec0b7e3c051160742e4ad3135b670b3f7694a0",
        "Q 1 4 --format text":
            "a2aabb93909150eb923180d34d2a120772e6e9842dc583be772911e7e2ff152a",
        "Q 1 4 --format latex":
            "66c670d3824ea1727c039c26913732342e80c2214eb8234d8ab1d33f02e462c8",
        "Q 1 4 --format json":
            "041bb24ecfd631d2ba5531aed3dc3077bd18b0ce3bf04af486e87652408dce82",
        "Q 1 5 --format text":
            "435ac5979ec05e09cd51e5d524d13edf498587dfe4834d16ac58b7c3ed114499",
        "Q 1 5 --format latex":
            "7a3ad5fed70e66032c4cc4360bdd5d1fbe2d472bd4536d3c3bd6c5ad7d51bc03",
        "Q 1 5 --format json":
            "7d77da8d472867e0e871832451d62b2a7785282ea4a1fcbf9586b9974f57649e",
        "Q 1 6 --format text":
            "8c0373fa24913045ac93f7ad8b0d81b98c53b59b42aa3296581d655ef310b7da",
        "Q 1 6 --format latex":
            "0174d5be179a4a48ee526d225cc84b37ea0e91a5e3d22dec62746cf21779619b",
        "Q 1 6 --format json":
            "df83aaa3303fefd7e594983b1dcb8b8047d42d8ddcda6e7f9cac5cbb0d8884b0",
        "Q 1 7 --format text":
            "7cf79c53f947dfbc7207a725d69724eacb49274180724046c6de2a547a6a7466",
        "Q 1 7 --format latex":
            "8a17a5f584534723b0a413a4599f1e83b8f5c4317b79983c15d4c205cd577cac",
        "Q 1 7 --format json":
            "bdea1666dffb2322a0c86d182d5f8bb936eb65530626162bb0f156689c5800ba",
        "Q 1 8 --format text":
            "1b6f9cdb530bf3c6e0d300f1500412edcbcfd156277931af588ace799565183c",
        "Q 1 8 --format latex":
            "efe4c46e63b28ad9fddb1b31b23c351ce4847743ee65a7afd823956f9670b80a",
        "Q 1 8 --format json":
            "2e55dfe144eb2a0ca131bc9ef0ef1dddc94e9427996676b233ee1a365799c5ce",
        "Q 2 1 --format text":
            "14328dc89b28516fed2d54fd4ae5d70d30fbd85eeb8ef076b275c806d57a8e5b",
        "Q 2 1 --format latex":
            "fb31c44ee1565e2864eadaebb45a1dc555a224bb2df86e45ae379e8bfd1f4618",
        "Q 2 1 --format json":
            "3d32ba106a9dd7ac0af4700025748b50b8a7c203da8840e2516c26964ef1eb61",
        "Q 2 2 --format text":
            "4b96ce14ad0ac356aceb1f37597a356ba15d92902e6f55b23deccec626e270c9",
        "Q 2 2 --format latex":
            "1a7b0581175a3b370819b0edab0d33cbe03b7643718d498d5d1411762025fb2b",
        "Q 2 2 --format json":
            "783a88a176aa28594fc356147c7f68d0ea6d44cf590e6c171577af426dbe6cb0",
        "Q 2 3 --format text":
            "aab09095d97590a6444042848c8a3de73ed680401bb86789527fe012a1df74d8",
        "Q 2 3 --format latex":
            "cb81d45f033f2be439ea8eda105fcad079b5763df81c6f24cda10a3fb39d3eac",
        "Q 2 3 --format json":
            "675087d0c54f924dad3ea8070ed7212d0c6cba07ee9ab708fc79843ef4a55f10",
        "Q 2 4 --format text":
            "3295c03cf7aaf120e3dbaf054fb6758971915b74ef19e1ec8838237ed07599ab",
        "Q 2 4 --format latex":
            "54ad716a66063cbba624b335f5a675aa43b7abdde1b2143f5e659df7bbec6a77",
        "Q 2 4 --format json":
            "94d2c3adc94bd51e6bc3e1019d4d4420e3a4a0d65ca6a4bc3b3c3a25e29f15d3",
        "Q 3 1 --format text":
            "945b72eb48f5c8ba9706a7d2be8621816b02d6936d65a029a6f7c12e099b65e9",
        "Q 3 1 --format latex":
            "d5a84dfcad73bc95034bafaebf86e0ed32ee89182126f2dd0a2c3a0bec5f8d45",
        "Q 3 1 --format json":
            "7c9ed016d44a290fe6eeb83edaec0b7e3c051160742e4ad3135b670b3f7694a0",
        "Q 3 2 --format text":
            "163f13a9770edf7eb828511f0b13c93ac79bf1480ce072cbb11a216cc7675bfe",
        "Q 3 2 --format latex":
            "fd49e27de17630f080af1118369db569def497a85eb7ddb4b7826295a184f4c3",
        "Q 3 2 --format json":
            "35060f53391c735a94ceaf081db35ba351378a7c6eaa58116c19befbee96cd32",
        "Q 4 1 --format text":
            "a2aabb93909150eb923180d34d2a120772e6e9842dc583be772911e7e2ff152a",
        "Q 4 1 --format latex":
            "66c670d3824ea1727c039c26913732342e80c2214eb8234d8ab1d33f02e462c8",
        "Q 4 1 --format json":
            "041bb24ecfd631d2ba5531aed3dc3077bd18b0ce3bf04af486e87652408dce82",
        "Q 4 2 --format text":
            "62ab140944ab31d6c53a364adb8752425a8ba3c576a8173a5c3105f42883cbdf",
        "Q 4 2 --format latex":
            "96945e864b7c508db5ebaa449c403cf08dfa1e70bfef5050e58033fb75469462",
        "Q 4 2 --format json":
            "8081ac46972fa6dcfc7846c1230117b2c91a84ab1c004adcfa803332725038ec",
        "Q 5 1 --format text":
            "435ac5979ec05e09cd51e5d524d13edf498587dfe4834d16ac58b7c3ed114499",
        "Q 5 1 --format latex":
            "7a3ad5fed70e66032c4cc4360bdd5d1fbe2d472bd4536d3c3bd6c5ad7d51bc03",
        "Q 5 1 --format json":
            "7d77da8d472867e0e871832451d62b2a7785282ea4a1fcbf9586b9974f57649e",
        "Q 6 1 --format text":
            "8c0373fa24913045ac93f7ad8b0d81b98c53b59b42aa3296581d655ef310b7da",
        "Q 6 1 --format latex":
            "0174d5be179a4a48ee526d225cc84b37ea0e91a5e3d22dec62746cf21779619b",
        "Q 6 1 --format json":
            "df83aaa3303fefd7e594983b1dcb8b8047d42d8ddcda6e7f9cac5cbb0d8884b0",
        "Q 7 1 --format text":
            "7cf79c53f947dfbc7207a725d69724eacb49274180724046c6de2a547a6a7466",
        "Q 7 1 --format latex":
            "8a17a5f584534723b0a413a4599f1e83b8f5c4317b79983c15d4c205cd577cac",
        "Q 7 1 --format json":
            "bdea1666dffb2322a0c86d182d5f8bb936eb65530626162bb0f156689c5800ba",
        "Q 8 1 --format text":
            "1b6f9cdb530bf3c6e0d300f1500412edcbcfd156277931af588ace799565183c",
        "Q 8 1 --format latex":
            "efe4c46e63b28ad9fddb1b31b23c351ce4847743ee65a7afd823956f9670b80a",
        "Q 8 1 --format json":
            "2e55dfe144eb2a0ca131bc9ef0ef1dddc94e9427996676b233ee1a365799c5ce",
        "R 1 --method composed --format text":
            "416831ac510830b467c5928116e22894e41f30adc4015673a26b41c996497964",
        "R 1 --method composed --format latex":
            "327f4e54edcfadb7277ac6ff99e5977a8b3addd845fa2a040c2ff31f7375c392",
        "R 1 --method composed --format json":
            "73daac9ccc599b35b88f5d6fe7fc565226b720cc807b81a6a60431f3afa24bba",
        "R 1 --method direct --format text":
            "416831ac510830b467c5928116e22894e41f30adc4015673a26b41c996497964",
        "R 1 --method direct --format latex":
            "327f4e54edcfadb7277ac6ff99e5977a8b3addd845fa2a040c2ff31f7375c392",
        "R 1 --method direct --format json":
            "73daac9ccc599b35b88f5d6fe7fc565226b720cc807b81a6a60431f3afa24bba",
        "R 1 --method both --format text":
            "bdd10d26c766ca74d5658aff72f9f6094442ee83c74f57b16bbcc2921aa0e5a7",
        "R 1 --method both --format latex":
            "33dde11ea64cc6f8e102069f6b540a942dcc0222239803a758f6495be1c0c0bd",
        "R 1 --method both --format json":
            "b0e92c1028c7e70021bb58c8b805144c955489f16828e7dd4819588d5303e409",
        "R 2 --method composed --format text":
            "2c5cba71373db5e8af749defff1591da84df3fa5dd5c9b5c1696390ed0b9b2b9",
        "R 2 --method composed --format latex":
            "2f07486ea75da6e8f2d4b8ededf77e80aa23d3527ded32cda4cd0164cdb1cfbc",
        "R 2 --method composed --format json":
            "ac11f712efcaa7ea586ee02dd0924ab8d3d41c02139e4cdaa4d0055cf62fb2a5",
        "R 2 --method direct --format text":
            "2c5cba71373db5e8af749defff1591da84df3fa5dd5c9b5c1696390ed0b9b2b9",
        "R 2 --method direct --format latex":
            "2f07486ea75da6e8f2d4b8ededf77e80aa23d3527ded32cda4cd0164cdb1cfbc",
        "R 2 --method direct --format json":
            "ac11f712efcaa7ea586ee02dd0924ab8d3d41c02139e4cdaa4d0055cf62fb2a5",
        "R 2 --method both --format text":
            "06498928d506cc7558b1863cc8f7ca12ac6578e28063f7d4157c187a09f2ae05",
        "R 2 --method both --format latex":
            "4735ed0b16162a559e39c34bb64062212e7a241451a5bcbd42e0156d6ac5949d",
        "R 2 --method both --format json":
            "e9ff3aab7b72514f1a629c5ddd06c290b2f79263dafcd5cc3512dc66fa49152b",
        "R 3 --method composed --format text":
            "9d987c66f8735dbdb290654e085d00d63386249125a2e8408fc80596b1b382de",
        "R 3 --method composed --format latex":
            "6f72031308e4343865241c0fc67ce49929d434cf7e71d9977979696d6fe9019b",
        "R 3 --method composed --format json":
            "b4ff7c81ba486e8a28c7d417bd7c7ab4987be91983f2b30e5f432a0b54b50356",
        "R 3 --method direct --format text":
            "9d987c66f8735dbdb290654e085d00d63386249125a2e8408fc80596b1b382de",
        "R 3 --method direct --format latex":
            "6f72031308e4343865241c0fc67ce49929d434cf7e71d9977979696d6fe9019b",
        "R 3 --method direct --format json":
            "b4ff7c81ba486e8a28c7d417bd7c7ab4987be91983f2b30e5f432a0b54b50356",
        "R 3 --method both --format text":
            "a1b4894817a9bc3db3f6e889c9d6ea1d40f1bf2b98c36ede495ed09404cef80b",
        "R 3 --method both --format latex":
            "69ce6c67c4b8cb2969fb4a835fd13d1667dbf8102a3b14ec004808be2fc37e69",
        "R 3 --method both --format json":
            "5cff46911dda50959c9e43ee10215bf402669efe667b9c3bf034866acdd80b1d",
        "R 4 --method composed --format text":
            "c1c63dd1a4c8219f8deebc25bcdf92f4fe35a6cc146b3c6130cbaf3a95e25aa6",
        "R 4 --method composed --format latex":
            "bea883e98c2cafde48b1ea5ee6963b6a96f1b785eb292db8f8f3b11819bc412c",
        "R 4 --method composed --format json":
            "612d729bc5110427e65354bf0fee7c101dcedc7c4c3afe6f7ab181019eb1a8e0",
        "R 4 --method direct --format text":
            "c1c63dd1a4c8219f8deebc25bcdf92f4fe35a6cc146b3c6130cbaf3a95e25aa6",
        "R 4 --method direct --format latex":
            "bea883e98c2cafde48b1ea5ee6963b6a96f1b785eb292db8f8f3b11819bc412c",
        "R 4 --method direct --format json":
            "612d729bc5110427e65354bf0fee7c101dcedc7c4c3afe6f7ab181019eb1a8e0",
        "R 4 --method both --format text":
            "a4342871311fbb5e06ba41be015bf1e7d8b8aabb551dcc1c5cd37eca52b16e35",
        "R 4 --method both --format latex":
            "5a138a84519ba9d5dbf5d78dc7197022b7d212aea8632c46537fa9ef3cbad1eb",
        "R 4 --method both --format json":
            "badcb14edc6c6db338adc9bab8916a61eb05fb5d16237159b977fa4878ac0382",
    }

    def test_golden(self, runner):
        for call, want in self.GOLDEN.items():
            r = run(runner, "universal", *call.split(), "--max", "8")
            got = "%d\n%s" % (r.exit_code, r.output)
            assert hashlib.sha256(got.encode()).hexdigest() == want, call


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

    def test_exponent_size_bound(self, runner):
        # |n| times a generator's largest exponent is bounded like |n|:
        # u^3000 at n = 2 would run for 16 s and print 3.4 MB
        def u_power(e):
            return ('{"gens":["u"],"components":[{"a":[1],"u_exps":[%d]}]}'
                    % e)
        r = run(runner, "adams", "2", "--target", u_power(128))
        assert r.exit_code == 0 and r.output.startswith("u^256 ")
        for n, e in (("2", 3000), ("-2", 129), ("16", 17)):
            start = time.perf_counter()
            r = run(runner, "adams", n, "--target", u_power(e))
            assert time.perf_counter() - start < 1
            assert r.exit_code == 2
            assert ("|n|*e = %s*%d exceeds 256, e the largest exponent of u "
                    "in the target\n" % (n.lstrip("-"), e)) in r.output
        # the product of |n|*e over the generators, 16*4 * 16*4 * 16*5 here
        # (|n|^k = 16^3 was all the bound saw)
        doc = ('{"gens":["u1","u2","u3"],"components":[{"a":[1],'
               '"u_exps":[4,4,5]}]}')
        r = run(runner, "adams", "16", "--target", doc)
        assert r.exit_code == 2
        assert "the size 327680 exceeds 262144" in r.output

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
        # inhomogeneous classes parse but have no Adams image; the message
        # quotes the class cut short (the 729-term sum u1^a*u2^b*u3^c,
        # a, b, c <= 8, made a 10.7 kB line)
        dense = json.dumps({"gens": ["u1", "u2", "u3"], "components": [
            {"a": [1], "u_exps": [a, b, c]}
            for a in range(9) for b in range(9) for c in range(9)]})
        for n, doc in (("2", '{"components":[{"a":[1,1]}]}'),
                       ("-3", '{"components":[{"a":[1,1]}]}'),
                       ("2", '{"gens":["u"],"components":[{"a":[1],'
                             '"u_exps":[1]},{"a":[1],"u_exps":[0]}]}'),
                       ("2", dense)):
            r = run(runner, "adams", n, "--target", doc)
            assert r.exit_code == 2, doc
            line, = [x for x in r.output.splitlines() if "homogeneous" in x]
            assert len(line.encode()) < 300

    def test_theory_and_components_named(self, runner):
        # these leaked a KeyError or TypeError repr ('ko', 'components')
        known = "; the theories are gw, k, witt"
        for doc, msg in (
                ('{"theory":"ko","components":[]}', "unknown theory 'ko'" + known),
                ('{"theory":[],"components":[]}', "unknown theory []" + known),
                ('{"theory":"gw"}', "components must be a list")):
            r = run(runner, "adams", "2", "--target", doc)
            assert r.exit_code == 2
            assert "cannot parse target: %s\n" % msg in r.output


    @pytest.mark.parametrize("doc, msg", [
        ('{"theory":"k","components":[{"u_exps":[]}]}',
         "poly must be a JSON object"),
        ('{"theory":"k","components":[{"poly":{"terms":[]}}]}',
         "vars must be a list"),
        ('{"theory":"witt","components":[{"poly":{"vars":[]}}]}',
         "terms must be a list"),
        ('{"components":[{"a":3}]}', "a must be a list"),
        ('{"components":[{"a":"12"}]}', "a must be a list"),
        ('{"components":[{"a":{"1":2}}]}', "a must be a list"),
        # a generator inside the base-ring polynomial was multiplied in
        ('{"theory":"k","gens":["u1"],"components":[{"u_exps":[0],"poly":'
         '{"vars":[{"name":"u1","laurent":false}],"terms":[{"coeff":1,'
         '"exps":[1]}]}}]}',
         "poly uses the generator 'u1'; its exponent belongs in u_exps"),
        # the fields of a poly document, each named by MultiPoly.from_obj
        ('{"theory":"k","components":[{"poly":{"vars":[{"laurent":true}],'
         '"terms":[]}}]}', "name must be a string, got null"),
        ('{"theory":"k","components":[{"poly":{"vars":[{"name":7,'
         '"laurent":true}],"terms":[]}}]}', "name must be a string, got 7"),
        ('{"theory":"k","components":[{"poly":{"vars":["beta"],'
         '"terms":[]}}]}', "each var must be a JSON object"),
        ('{"theory":"k","components":[{"poly":{"vars":[{"name":"beta"}],'
         '"terms":[]}}]}', "laurent must be true or false, got null"),
        ('{"theory":"k","components":[{"poly":{"vars":[{"name":"beta",'
         '"laurent":true}],"terms":[5]}}]}', "each term must be a JSON object"),
        ('{"theory":"k","components":[{"poly":{"vars":[{"name":"beta",'
         '"laurent":true}],"terms":[{"coeff":1}]}}]}', "exps must be a list"),
        ('{"theory":"k","components":[{"poly":{"vars":[{"name":"beta",'
         '"laurent":true}],"terms":[{"coeff":1,"exps":5}]}}]}',
         "exps must be a list"),
        ('{"theory":"k","components":[{"poly":{"vars":[{"name":"beta",'
         '"laurent":true}],"terms":[{"exps":[1]}]}}]}',
         "a coefficient must be an integer, got null"),
        pytest.param("[" * 30000 + "]" * 30000, DEEP, id="deep"),
    ])
    def test_component_fields_named(self, runner, doc, msg):
        # these leaked a KeyError or TypeError repr, read "12" digit by
        # digit, took the name 7 or, nested past the recursion limit, raised
        # RecursionError with a traceback
        r = run(runner, "adams", "2", "--target", doc)
        assert r.exit_code == 2
        assert "cannot parse target: %s\n" % msg in r.output


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


class TestRenderGolden:
    # sha256 of "<exit code>\n<stdout>" of every text, LaTeX and JSON
    # rendering below, recorded before the three formats shared one term
    # writer.  K is the K-theory class 3*beta^4 - 2*beta^2*u1 + u1*u2.
    K = ('{"components":['
         '{"poly":{"terms":[{"coeff":"3","exps":[4]}],'
         '"vars":[{"laurent":true,"name":"beta"}]},"u_exps":[0,0]},'
         '{"poly":{"terms":[{"coeff":"-2","exps":[2]}],'
         '"vars":[{"laurent":true,"name":"beta"}]},"u_exps":[1,0]},'
         '{"poly":{"terms":[{"coeff":"1","exps":[0]}],'
         '"vars":[{"laurent":true,"name":"beta"}]},"u_exps":[1,1]}],'
         '"gens":["u1","u2"],"quotient":false,"theory":"k"}')
    GOLDEN = {
        "adams -7 --target tau --format text":
            "7be96007e9c3409894501cfb2725af643b123331dfc8409f70e85de047e73e60",
        "adams -7 --target tau --format latex":
            "5377b382dc65edf48e326022997e4682a41ccd17ace4df57f79ab835ff42d6c9",
        "adams -7 --target tau --format json":
            "19cfa69b4326b8fa8095450158628106ef20514028d787cb97a90fed5adf6590",
        "adams -2 --target tau --format text":
            "2ce08cae480afe2606040c76af0c81722db2793c143fb1ec6b962cc57c0ce948",
        "adams -2 --target tau --format latex":
            "570ec179c2f09348435dd6e4c2d48a6f2972f2af06823e0a94bc4783ce2d240b",
        "adams -2 --target tau --format json":
            "80f52225c9361d0afe2bf6bfe0be8bfba091a6479520e545a6aa3b2deeda438a",
        "adams 0 --target tau --format text":
            "409f9891ad678ea20e4b20e862d56f23c9b29ed02f40cbdd3a9257821638a85d",
        "adams 0 --target tau --format latex":
            "409f9891ad678ea20e4b20e862d56f23c9b29ed02f40cbdd3a9257821638a85d",
        "adams 0 --target tau --format json":
            "816af1ead1951ab0ff3fac3036bb8b5b5b1dce3bf265a86e65c3562b07133ea1",
        "adams 3 --target tau --format text":
            "37096b0ab96d68c941da31810d77e3900cca2a184b4b2285a1d030536d2b0725",
        "adams 3 --target tau --format latex":
            "ce02dc816a8e21512aa4214133a7adf4da1e1c4bae1131b19db491bb8ab3d8a7",
        "adams 3 --target tau --format json":
            "61478b9a67019d208000fbcfd4ff6c84b509ab80a60a4f1bcb54954d8e29edf3",
        "adams 16 --target tau --format text":
            "4539dcca3c9924577b75bc20a994335879c2ed8fa4b677d8302e117c60b545f6",
        "adams 16 --target tau --format latex":
            "2b82531516e203c36b6c7f6f0ade239bbdd9f500d3c87e63a719a5c8ddfd6dc4",
        "adams 16 --target tau --format json":
            "b9516253a08b0bd1c013e07747fb84f4be1cc9a45167af901b73da2f46541264",
        "adams -7 --target h --format text":
            "4ee815584f48bddc20a56f657ee12648736132f5909f452d337ffd01292ade0c",
        "adams -7 --target h --format latex":
            "51d8def374e9331d698fce54c238f8332e47ba8f99377f984f7baf7bc973606f",
        "adams -7 --target h --format json":
            "2920c3844172b0cb7205ddcf1e9a2e865761dde39ef4bf86fbc2215a748c4dc7",
        "adams -2 --target h --format text":
            "409f9891ad678ea20e4b20e862d56f23c9b29ed02f40cbdd3a9257821638a85d",
        "adams -2 --target h --format latex":
            "409f9891ad678ea20e4b20e862d56f23c9b29ed02f40cbdd3a9257821638a85d",
        "adams -2 --target h --format json":
            "816af1ead1951ab0ff3fac3036bb8b5b5b1dce3bf265a86e65c3562b07133ea1",
        "adams 0 --target h --format text":
            "409f9891ad678ea20e4b20e862d56f23c9b29ed02f40cbdd3a9257821638a85d",
        "adams 0 --target h --format latex":
            "409f9891ad678ea20e4b20e862d56f23c9b29ed02f40cbdd3a9257821638a85d",
        "adams 0 --target h --format json":
            "816af1ead1951ab0ff3fac3036bb8b5b5b1dce3bf265a86e65c3562b07133ea1",
        "adams 3 --target h --format text":
            "4ee815584f48bddc20a56f657ee12648736132f5909f452d337ffd01292ade0c",
        "adams 3 --target h --format latex":
            "51d8def374e9331d698fce54c238f8332e47ba8f99377f984f7baf7bc973606f",
        "adams 3 --target h --format json":
            "2920c3844172b0cb7205ddcf1e9a2e865761dde39ef4bf86fbc2215a748c4dc7",
        "adams 16 --target h --format text":
            "409f9891ad678ea20e4b20e862d56f23c9b29ed02f40cbdd3a9257821638a85d",
        "adams 16 --target h --format latex":
            "409f9891ad678ea20e4b20e862d56f23c9b29ed02f40cbdd3a9257821638a85d",
        "adams 16 --target h --format json":
            "816af1ead1951ab0ff3fac3036bb8b5b5b1dce3bf265a86e65c3562b07133ea1",
        "adams -7 --target eps --format text":
            "b21997b86905bfde83a5d24c1efa0834d225c863756a996d6017c6fff42f17f0",
        "adams -7 --target eps --format latex":
            "d11698a1b7f33dfb07bccbebd4e3e1dae8c37505e1ff742a01383a15114c4461",
        "adams -7 --target eps --format json":
            "52e64e7f918069df3495142a039694f1c44c25cecd1a376b8c462227501fdf2a",
        "adams -2 --target eps --format text":
            "c7b4ea6821495a8eb0ebc912a385717bcbc0fde124e8f92195d96e25455db0af",
        "adams -2 --target eps --format latex":
            "c7b4ea6821495a8eb0ebc912a385717bcbc0fde124e8f92195d96e25455db0af",
        "adams -2 --target eps --format json":
            "ac8cb3a08012c2fca1425ee88b29de9397e8ad9b196b18a9c45ba21461c14ddd",
        "adams 0 --target eps --format text":
            "c7b4ea6821495a8eb0ebc912a385717bcbc0fde124e8f92195d96e25455db0af",
        "adams 0 --target eps --format latex":
            "c7b4ea6821495a8eb0ebc912a385717bcbc0fde124e8f92195d96e25455db0af",
        "adams 0 --target eps --format json":
            "ac8cb3a08012c2fca1425ee88b29de9397e8ad9b196b18a9c45ba21461c14ddd",
        "adams 3 --target eps --format text":
            "b21997b86905bfde83a5d24c1efa0834d225c863756a996d6017c6fff42f17f0",
        "adams 3 --target eps --format latex":
            "d11698a1b7f33dfb07bccbebd4e3e1dae8c37505e1ff742a01383a15114c4461",
        "adams 3 --target eps --format json":
            "52e64e7f918069df3495142a039694f1c44c25cecd1a376b8c462227501fdf2a",
        "adams 16 --target eps --format text":
            "c7b4ea6821495a8eb0ebc912a385717bcbc0fde124e8f92195d96e25455db0af",
        "adams 16 --target eps --format latex":
            "c7b4ea6821495a8eb0ebc912a385717bcbc0fde124e8f92195d96e25455db0af",
        "adams 16 --target eps --format json":
            "ac8cb3a08012c2fca1425ee88b29de9397e8ad9b196b18a9c45ba21461c14ddd",
        "adams -7 --target gamma --format text":
            "820b6a6076184b1a23c94547240cfef78144be4d35aeebeee65a0d9830d78e32",
        "adams -7 --target gamma --format latex":
            "f7c71ec2580af152872b4912aba3088a97ee28c59ab455f23e38753ba9049732",
        "adams -7 --target gamma --format json":
            "1c2deaae305e3b939c9c0207b0b9b08472b327212ebb64bb7c9e86fdee8264c2",
        "adams -2 --target gamma --format text":
            "3844f7b08bf4e74bf79604cb29fb2196e94c88f9d21da22757e03a30cc8eca32",
        "adams -2 --target gamma --format latex":
            "ad863614e7d5b37859f2a080315a46846be17465697817ad9d6af262e8af447b",
        "adams -2 --target gamma --format json":
            "41fe550f8d9016da2080b09310ff26888b2bcebc1e51ce4801c5fd160596f702",
        "adams 0 --target gamma --format text":
            "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
        "adams 0 --target gamma --format latex":
            "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
        "adams 0 --target gamma --format json":
            "8776fe83d8f160b319ee09e880af3b7534effd60949d88aef0fea150918d9c05",
        "adams 3 --target gamma --format text":
            "d9a777103bc7f0f3e686ad481aa04f6a38b1ee97fe82b60a16d04b3b8f7badaf",
        "adams 3 --target gamma --format latex":
            "d16da5332c4818382e6486949d2217e6040ad04dc2dcaed5c8714f59be99eab1",
        "adams 3 --target gamma --format json":
            "f987b9a12b6128ed47f4009804b2fd9809d8ca920da5691bddb76e9102062829",
        "adams 16 --target gamma --format text":
            "a12e78d3a9e544a14b2df2706d9df2100f60a6f00a93270a70975ba89d464ab2",
        "adams 16 --target gamma --format latex":
            "a703f310c707d9fd7810c7325e77a318f045025c36e5f617704cb0df925bb0eb",
        "adams 16 --target gamma --format json":
            "b6377cce61a55824595fd708faa63fb29feda1626f28d642b6ad8e9c28e21de8",
        "adams -7 --target u --format text":
            "5d40fee596a23f6a1ef6aca984dcb9bc7a96c731806a4c204f98f0b93f64aea8",
        "adams -7 --target u --format latex":
            "05109e10b088d4c64ace7dd192785d18ae819b4e39c4acbeae45fb73026afbed",
        "adams -7 --target u --format json":
            "21a93b8d4a1860341dee6e006228f843b1eff690ef670cd9ab1ddb8fbe351530",
        "adams -2 --target u --format text":
            "ec6dabde9993f0cca8b2ae433a7be469541ffc13d5f0ebc04bb74db894be4376",
        "adams -2 --target u --format latex":
            "95834072d43e460401201d46d8c66f460c2af23ab4da4b1f7afa60fed2419c4a",
        "adams -2 --target u --format json":
            "e55bdbf3038cd72b601e0bcd3de355e3d7e640041ce8dd811679fd78ff271c0b",
        "adams 0 --target u --format text":
            "409f9891ad678ea20e4b20e862d56f23c9b29ed02f40cbdd3a9257821638a85d",
        "adams 0 --target u --format latex":
            "409f9891ad678ea20e4b20e862d56f23c9b29ed02f40cbdd3a9257821638a85d",
        "adams 0 --target u --format json":
            "8c1621d54186b467e3a8adcf68db70254920bb9e46b6f4ebba277756d4845ebd",
        "adams 3 --target u --format text":
            "92e6203c6aeb2eed79f1285caa63736694f3415e3e8a35ef1c7be48cde20f93a",
        "adams 3 --target u --format latex":
            "f418632b5755cbe2f03536717d9e9a1a21492276f0ce779f581bfa916b2e0b29",
        "adams 3 --target u --format json":
            "8288316967a0b91ce7456468721164003767a167068ae596b9ad505b3d20e57b",
        "adams 16 --target u --format text":
            "b4ffa8b4c28bb2de4492d5f16d88bab03dab94e4a4d6e35694188d3efefab19d",
        "adams 16 --target u --format latex":
            "f1009ffe3981a6164268fa67e0369254289263c75e14e4529f874d44af662e8d",
        "adams 16 --target u --format json":
            "6481f54a24e6d545c12231b8cd01033a576a0f3211cb32525c1849851465f748",
        "adams -7 --target u-tau --format text":
            "6d87e67b3ea25fed71134663a1690b222bece26450da26d9e5fc095a433d4eb6",
        "adams -7 --target u-tau --format latex":
            "366c5d02fc3e08b4c3e0a270e71c1f9e723532cdfa301ab43526f0f001fdc470",
        "adams -7 --target u-tau --format json":
            "b24d06394b4e1b4f58d310eb9a54e901faf4b20a5e647cc38a0b6b851138c6ec",
        "adams -2 --target u-tau --format text":
            "322c3c14fb9c4807c399cc3b595e75732155cfa8dc0348054752edf4ea00629f",
        "adams -2 --target u-tau --format latex":
            "eb68b59dc3092dd14d335bb60eb580a2e38527e821188c50dd52574ac05b6066",
        "adams -2 --target u-tau --format json":
            "6ddbfaa074efbe9ed64c830da111da37a1c8a1994a0d39bcf76fb7aa289bdf8a",
        "adams 0 --target u-tau --format text":
            "52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262",
        "adams 0 --target u-tau --format latex":
            "52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262",
        "adams 0 --target u-tau --format json":
            "08dee713c0d3f9a944d2cd483739231baefeb366069b78fd1fbfef21a6f90ce3",
        "adams 3 --target u-tau --format text":
            "c58a68ececc58f748da12a72d59d639176bec923fa0f220b2ceb7bf095a3de1f",
        "adams 3 --target u-tau --format latex":
            "537b3566bbec78e6297b18c3a1f012169227d332c4668bf43a01586eea9c1dd6",
        "adams 3 --target u-tau --format json":
            "d942d360bfbe6a167d64ec2aeb5dc71637ad469369322812e76341985165958c",
        "adams 16 --target u-tau --format text":
            "bdd722811c954dcc390833838c40f5d1ecd7b7830ad1bcb622c5fe966dbf74f4",
        "adams 16 --target u-tau --format latex":
            "3e3b96b90a4964abd8004dd919a877ae6bf919258dc560adc28e82b92084cfec",
        "adams 16 --target u-tau --format json":
            "6fceef172032c4820c659aec11d07f3203683ce67b413b59001617959c09994e",
        "adams -7 --target K --format text":
            "624867ec71a01890040e1f87350c74b4bb4568fdabff365d96fb77e9d4014d1d",
        "adams -7 --target K --format latex":
            "cc7c29a28fff25099eae833675fa39777b884e864e8a4110eaf209d32c3bf8ea",
        "adams -7 --target K --format json":
            "b19580ef925bad56773ce1e9668de92dd9ada9da49e01e583f1a16eba853efbb",
        "adams -2 --target K --format text":
            "9bb55107a0356cdd3cfd42d9b9a355397fb3776805c60a30eaeaabb765bbd81f",
        "adams -2 --target K --format latex":
            "0dfdb1cdb5b7c05ec623c129bc8cb9206be26daa8ffb0d79d2984b34f52a856b",
        "adams -2 --target K --format json":
            "99a12c80d8b69a8c33f9af4b8fd55f1a15a214292f76db3c6fefeb3f2cb47689",
        "adams 0 --target K --format text":
            "b9490968067ba44d92202e000cd93ac898897cd1744b8a89f02f0108d659b95a",
        "adams 0 --target K --format latex":
            "b9490968067ba44d92202e000cd93ac898897cd1744b8a89f02f0108d659b95a",
        "adams 0 --target K --format json":
            "7ad52a281b6101232e89a212167fe5d19f2b47ece09c2f94c9c939b24232d858",
        "adams 3 --target K --format text":
            "555725d4cefe0138e2bfddf4cd8259df85ccdf654129ce02505ffbb21510600f",
        "adams 3 --target K --format latex":
            "73529cb05d237f7384fe6f90df9d6d11be2b41f184c2c47e756edbe4e41372be",
        "adams 3 --target K --format json":
            "189b870c1617f7439d55514994095f7c516085baf990c33000a535de0d2b2311",
        "adams 16 --target K --format text":
            "f8dee12c49c5024cf5c97d4062fc6c628b4f56e45f986871686cf10f0d65743b",
        "adams 16 --target K --format latex":
            "129943b9ebd62cc524b3754717ac4f673dac7e032e452adf71ee10ba5a972214",
        "adams 16 --target K --format json":
            "701add65294e0538678c7c5979137c770c1c0086511f7c1b65a46c10f99d3a05",
        "omega --table 24 --format text":
            "5107d814aa817d157d5cddf5b222f1b7a86a4727983e763084dafd6dc89c493c",
        "omega --table 24 --format latex":
            "2c8ba0ffc6f5cd908334464aa910b601cf461d83fb27ffb14d2e3ac3962c3573",
        "omega --table 24 --format json":
            "f3c95b9b05fc510bd8c7130ffd20f6dfe79fbcbb1e6ae21274975261590883e2",
        "ternary --theory gw --format text":
            "f2d77f71e754a488011b1b66e9a3ffa28b49df7db30ef2e8ab59382b6a937dec",
        "ternary --theory gw --class 3 --format text":
            "4b5eb64fa3f685764fb7ddb9018de93f7a39a74ea5300de65e6c613f8c51ba73",
        "ternary --theory gw --format latex":
            "d8eb534859c4782ea3cdcff50bd445ce127035a0cfa617e126f7789a37fac1fe",
        "ternary --theory gw --class 3 --format latex":
            "f9ffa21d7618ab71f07bbbda3be69905116a78a910058a3a3e28e2d89cc4d431",
        "ternary --theory gw --format json":
            "574401345f80f7415562d28138b87d2ca0e016b22eb2418be7379d99f282a714",
        "ternary --theory gw --class 3 --format json":
            "3d6d53cb259a0764a098eb34bc8cbd1d31629679a90ab46d6bb131ce00b2033f",
        "ternary --theory k --format text":
            "04db1bbe023df1b3082fbee61739534cda66bf46aeaf9766aae6ec9efe8a6f35",
        "ternary --theory k --class 3 --format text":
            "5de1537fd55d642692d86ffe486de19b15007ebdc446171eaaa6f92a8f0bed09",
        "ternary --theory k --format latex":
            "8c84d9fba770114f61b49ff76721c5cdda144b4e822caadd459e20a678c3c6e2",
        "ternary --theory k --class 3 --format latex":
            "738ae9e7031a4b5e9f70f9a1c495319091f89fd1b61e722662e733c538a99f10",
        "ternary --theory k --format json":
            "4288746d8093828d13a11dde2fb8517eaa44dcf404eb6ea6bcac10c26803ae06",
        "ternary --theory k --class 3 --format json":
            "e430080406e5bf99ad2f5a36b4c04c585192703b8eb0a3ef9f0870083c2c7d52",
        "ternary --theory witt --format text":
            "fb63440aef4354e1f3619b7a7afb9864447cfc6baf942463533ea66994e94ab1",
        "ternary --theory witt --class 3 --format text":
            "9f119713ff31304302f1376f5bb7dbcb69db8d7b6e47d1742098404628fbfb7d",
        "ternary --theory witt --format latex":
            "7c824eb4a49f525f8110de583fe647c2edb97877495c2b67d02da7a16862e9d9",
        "ternary --theory witt --class 3 --format latex":
            "52cc551d1b0176de79a1c1058194a4855187f248b87c3cb0985dfe52412c7b63",
        "ternary --theory witt --format json":
            "50e43d0c8e8c3270e26eee1a5ff8f089ec4f118a1313a27225fc53c19787774b",
        "ternary --theory witt --class 3 --format json":
            "ec7e2981815ac335082d7dabca118579ee37279d057249add60986b8ccedb71c",
    }

    def test_golden(self, runner):
        for call, want in self.GOLDEN.items():
            r = run(runner, *[self.K if a == "K" else a for a in call.split()])
            got = "%d\n%s" % (r.exit_code, r.output)
            assert hashlib.sha256(got.encode()).hexdigest() == want, call


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

    def test_stdin(self, runner, tmp_path):
        # `gwadams form hyperbolic 2 | gwadams form invariants -`
        hyp = runner("form", "hyperbolic", "2").output
        p = tmp_path / "hyp.json"
        p.write_text(hyp)
        r = runner("form", "invariants", "-", input=hyp)
        assert r.exit_code == 0
        assert r.output == runner("form", "invariants", str(p)).output
        r = runner("form", "gw-equal", "-", str(p), input=hyp)
        assert (r.exit_code, r.output) == (0, "equal\n")
        r = runner("form", "invariants", "-", input="nope")
        assert r.exit_code == 2 and "cannot read Gram form -" in r.output

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

    @pytest.mark.parametrize("doc, msg", [
        ('{"sym":1,"matrix":[[1]]}', 'sym must be "symmetric" or "skew", got 1'),
        ('{"matrix":[[1]]}', 'sym must be "symmetric" or "skew"'),
        ('{"sym":"x","matrix":[[1]]}',
         'sym must be "symmetric" or "skew", got "x"'),
        ('{"sym":"symmetric"}', "matrix must be a list of rows"),
        ("[1]", "a Gram form document must be a JSON object"),
        pytest.param("[" * 200000, DEEP, id="deep"),
    ])
    def test_document_fields_named(self, runner, doc, msg):
        # these leaked a KeyError or TypeError repr ('sym', 'x', 1) or, nested
        # past the recursion limit, a RecursionError traceback
        r = runner("form", "invariants", "-", input=doc)
        assert r.exit_code == 2
        assert "cannot read Gram form -: %s\n" % msg in r.output

    @pytest.mark.parametrize("argv, doc, prefix", [
        (["adams", "2", "--target"], {"theory": "k", "gens": ["u1"],
         "components": [{"u_exps": [1], "poly": {
             "vars": [{"name": "beta", "laurent": True}],
             "terms": [{"coeff": list(range(3000)), "exps": [0]}]}}]},
         "cannot parse target: a coefficient must be an integer, got [0, 1"),
        (["form", "invariants", "-"],
         {"sym": list(range(3000)), "matrix": [[1]]},
         'cannot read Gram form -: sym must be "symmetric" or "skew", got '
         "[0, 1"),
        (["form", "invariants", "-"],
         {"sym": "symmetric", "matrix": [[list(range(3000))]]},
         "cannot read Gram form -: not an exact rational: [0, 1"),
    ], ids=["coeff", "sym", "entry"])
    def test_long_values_quoted_short(self, runner, argv, doc, prefix):
        # a value quoted from a document is cut after 200 characters; each
        # of these made a 17 kB line
        text = json.dumps(doc)
        r = (runner(*argv, text) if argv[0] == "adams"
             else runner(*argv, input=text))
        assert r.exit_code == 2
        line, = [x for x in r.output.splitlines() if prefix in x]
        assert len(line.encode()) < 400
        assert line.endswith("... (%d characters)"
                             % len(json.dumps(list(range(3000)))))

    def test_factoring_bounded(self, runner, tmp_path):
        # pivots with prime factors far above the trial-division bound:
        # each call ends within 2 s, with the invariants or with exit 2
        ap1 = [["900000000028", "-5", "1/6"], ["-5", "8/5", "-3/4"],
               ["1/6", "-3/4", "-1/2"]]     # 900000000028 = 9*p + 1
        # the last pivot of ap1 is -551812500011*100 / (9638554217*6723):
        # trial division factors each half, while n*d taken whole leaves the
        # cofactor 551812500011*9638554217, beyond the rho budget
        hard = [["5318674698974336596387"]]     # 551812500011*9638554217
        cases = [
            (("invariants",), [["1000000000000000003"]], 0,
             '"disc":1000000000000000003'),
            (("invariants",), ap1, 0, '"disc":-2759062500055,'),
            (("invariants",), hard, 2,
             "cannot factor 5318674698974336596387: no factor in"),
            (("gw-equal", "-"), hard, 2, "cannot factor"),
            (("invariants",), [["10000000000000000000000013"]], 2,
             "cannot factor 10000000000000000000000013: a probable prime"),
            # 3 * 1000000000039^2: the cofactor is the square of a prime
            (("invariants",), [["3000000000234000000004563"]], 0,
             '"disc":3,'),
        ]
        for i, (cmd, m, code, text) in enumerate(cases):
            p = tmp_path / ("f%d.json" % i)
            p.write_text(json.dumps({"sym": "symmetric", "matrix": m}))
            doc = p.read_text()
            start = time.perf_counter()
            r = runner("form", *cmd, str(p), input=doc)
            assert time.perf_counter() - start < 2, (cmd, m)
            assert r.exit_code == code and text in r.output, r.output

    def test_pivot_halves_factored_apart(self, runner, tmp_path):
        # n*d of the entry n/d exhausts the rho budget; n and d, taken
        # apart, factor within it
        n, d = -2244671116682553091, 295377785478078120
        paths = []
        for i, (a, b) in enumerate(((n, d), (n, 4 * d), (7 * n, d))):
            paths.append(tmp_path / ("f%d.json" % i))
            paths[-1].write_text(json.dumps(
                {"sym": "symmetric", "matrix": [["%d/%d" % (a, b)]]}))
        r = run(runner, "form", "invariants", str(paths[0]))
        assert r.exit_code == 0
        inv = json.loads(r.output)
        assert (inv["rank"], inv["signature"], inv["disc"]) == (
            1, -1, -2 * 3 * 5 * 13 * 167 * 199 * 5195649173279
            * 273497949516739)
        # n/(4d) is in the square class of n/d, 7n/d is not
        for other, code, out in ((paths[1], 0, "equal\n"),
                                 (paths[2], 1, "not-equal\n")):
            r = run(runner, "form", "gw-equal", str(paths[0]), str(other))
            assert (r.exit_code, r.output) == (code, out)

    def test_long_entry_bounded(self, runner, tmp_path):
        # a cofactor above COFACTOR_DIGITS_MAX digits is refused as soon as
        # trial division ends (17.8 s and over 60 s before, nearly all in
        # Pollard's rho); 2^13000 leaves no cofactor and is read as before
        rng = random.Random(24)
        cases = [
            (rng.randrange(10 ** 999, 10 ** 1000), 2, 2,
             "cannot factor a cofactor of 997 digits: the limit is 150 "
             "digits"),
            (rng.randrange(10 ** 3999, 10 ** 4000), 5, 2,
             "cannot factor a cofactor of 3993 digits: the limit is 150 "
             "digits"),
            (2 ** 13000, 5, 0, '"disc":1,'),
            # trial division stops at 2*10^6 * 150 / digits: 1999993^680
            # took 2.2 s cold, the rational entry 5.3 s, and both were read
            (1999993 ** 680, 2, 2, "cannot factor a cofactor of 4285 digits"),
            ("%d/%d" % (1999993 ** 680, 1999979 ** 680), 2, 2,
             "cannot factor a cofactor of 4285 digits"),
        ]
        for entry, seconds, code, text in cases:
            p = tmp_path / "long.json"
            p.write_text(json.dumps({"sym": "symmetric", "matrix": [[entry]]}))
            start = time.perf_counter()
            r = runner("form", "invariants", str(p))
            assert time.perf_counter() - start < seconds, seconds
            assert r.exit_code == code and text in r.output, r.output

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

    def test_hyperbolic_bound(self, runner):
        R = cli.FORM_RANK_MAX
        r = run(runner, "form", "hyperbolic", str(R // 2))
        assert r.exit_code == 0, r.output
        assert GramForm.from_json(r.output).rank == R
        r = run(runner, "form", "hyperbolic", str(R // 2 + 1), "--delta", "-")
        assert r.exit_code == 2
        assert "output rank %d exceeds the limit %d" % (R + 2, R) in r.output

    def test_input_rank_bound(self, runner, tmp_path):
        K = cli.FORM_INPUT_RANK_MAX
        inside, outside = tmp_path / "in.json", tmp_path / "out.json"
        inside.write_text(GramForm.diagonal(range(1, K + 1)).to_json())
        outside.write_text(GramForm.diagonal(range(1, K + 2)).to_json())
        r = run(runner, "form", "invariants", str(inside))
        assert r.exit_code == 0 and json.loads(r.output)["rank"] == K
        r = run(runner, "form", "gw-equal", str(inside), str(inside))
        assert (r.exit_code, r.output) == (0, "equal\n")
        for args in (("invariants", outside), ("gw-equal", inside, outside),
                     ("gw-equal", outside, inside)):
            r = run(runner, "form", *map(str, args))
            assert r.exit_code == 2, args
            assert "input rank %d exceeds the limit %d" % (K + 1, K) in r.output


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

    def test_json_path_unwritable(self, runner, tmp_path):
        # refused before any suite runs, not after it with a traceback
        bad = tmp_path / "missing" / "x.json"
        r = run(runner, "verify", "all", "--json", str(bad))
        assert r.exit_code == 2
        assert "cannot write --json" in r.output and str(bad) in r.output
        assert "suite:" not in r.output
        assert not bad.parent.exists()

    def test_elapsed_only_with_timestamp(self, runner, tmp_path):
        out = tmp_path / "rep.json"
        r = run(runner, "verify", "omega", "--json", str(out))
        assert r.exit_code == 0 and "elapsed" not in r.output
        obj = json.loads(out.read_text())
        elapsed = obj["elapsed_s"]
        assert list(elapsed) == ["omega"] and elapsed["omega"] >= 0
        lemmas = obj["lemma_elapsed_s"]
        assert list(lemmas) == ["omega"]
        assert set(lemmas["omega"]) == {e["lemma"] for e in obj["entries"]}
        assert all(t >= 0 for t in lemmas["omega"].values())
        assert sum(lemmas["omega"].values()) <= elapsed["omega"] + 1e-3
        r2 = run(runner, "verify", "omega", "--json", str(out),
                 "--no-timestamp")
        assert r2.output == r.output
        obj = json.loads(out.read_text())
        assert "elapsed_s" not in obj and "lemma_elapsed_s" not in obj

    def test_pass_cells_rendered_only_into_json(self, runner, tmp_path,
                                                monkeypatch):
        # a passing cell's lhs and rhs are rendered when the JSON report
        # is written, never for the text report, which does not print them
        from gwadams import polyring, report
        from_report = []
        render = polyring.MultiPoly._render

        def counting(self, *args):
            frame = sys._getframe(1)
            while frame and frame.f_code.co_filename != report.__file__:
                frame = frame.f_back
            from_report.append(frame is not None)
            return render(self, *args)

        monkeypatch.setattr(polyring.MultiPoly, "_render", counting)
        r = runner("verify", "all")
        assert r.exit_code == 0 and "1232 pass, 0 fail" in r.output
        assert from_report and not any(from_report)
        from_report.clear()
        out = tmp_path / "all.json"
        assert runner("verify", "all", "--json", str(out),
                      "--no-timestamp").output == r.output
        assert sum(from_report) >= 858
        entries = json.loads(out.read_text())["entries"]
        assert (sum("lhs" in e for e in entries),
                sum("rhs" in e for e in entries)) == (858, 854)
        # every lhs and rhs as the eagerly rendering report wrote them
        assert hashlib.sha256(json.dumps(entries, sort_keys=True).encode(
        )).hexdigest() == ("287fbadbc2302ad5be31268a896cb9f3"
                           "99b8059dbdc40a33be54a7123341e483")

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


SRC = os.path.dirname(os.path.dirname(gwadams.__file__))
ROOT = os.path.dirname(SRC)


def _python(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


class TestEntryPoint:
    def test_import_path(self):
        # the CLI's cold start pays for no click, dataclasses or inspect, and
        # loads every layer, so the benchmark tracer can wrap each of them
        proc = _python("-c", "import sys; before = set(sys.modules); "
                       "import gwadams.cli; "
                       "print(' '.join(set(sys.modules) - before))")
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        for mod in ("click", "dataclasses", "inspect"):
            assert not {m for m in loaded if m.split(".")[0] == mod}, mod
        for layer in ("polyring", "gwring", "symfunc", "lambdaring", "borel",
                      "forms"):
            assert "gwadams." + layer in loaded, layer

    def test_traced_call(self, tmp_path):
        # perfbench/tracing.py runs a call as
        # gwadams.cli.main.main(args=..., prog_name="gwadams")
        trace = tmp_path / "t.json"
        proc = _python("perfbench/tracing.py", str(trace), "cli", "omega",
                       "4", cwd=ROOT)
        assert (proc.returncode, proc.stdout) == (0, "8*tau*gamma\n"), \
            proc.stderr
        totals = json.loads(trace.read_text())["totals"]
        assert totals["borel.omega"][0] > 0
        assert totals["cli.render"][0] > 0
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(GramForm.diagonal([1, 1]).to_json())
        b.write_text(GramForm.diagonal([3, 3]).to_json())
        proc = _python("perfbench/tracing.py", str(trace), "cli", "form",
                       "gw-equal", str(a), str(b), cwd=ROOT)
        assert (proc.returncode, proc.stdout) == (1, "not-equal\n"), \
            proc.stderr

    # a `-c` program that reports the interpreter's freeze count from an
    # atexit hook, after the CLI call ends
    FREEZE_COUNT = ("import atexit, gc, sys; atexit.register(lambda: print("
                    "'freeze count', gc.get_freeze_count())); "
                    "sys.argv = ['gwadams', 'omega', '4']; ")

    @pytest.mark.parametrize("call", [
        "import runpy; runpy.run_module('gwadams.cli', run_name='__main__')",
        "from gwadams.cli import main; main()"], ids=["-m", "script"])
    def test_entry_point_exits_frozen(self, call):
        # `python -m gwadams.cli` and the `gwadams` console script freeze
        # the process's objects as the call ends, so the shutdown
        # collections skip them; atexit hooks still run
        proc = _python("-c", self.FREEZE_COUNT + call)
        assert (proc.returncode, proc.stderr) == (0, "")
        out, count = proc.stdout.rsplit("freeze count ", 1)
        assert out == "8*tau*gamma\n"
        assert int(count) > 0

    def test_in_process_call_not_frozen(self, capsys):
        # cli.main(args), as in these tests and perfbench/tracing.py, leaves
        # the caller's objects to the collector
        before = gc.get_freeze_count()
        with pytest.raises(SystemExit) as exc:
            cli.main(["omega", "4"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == "8*tau*gamma\n"
        assert gc.get_freeze_count() == before

    def test_full_output_through_pipe(self):
        # the frozen exit flushes all 257 KB of `universal R 8`, more than a
        # pipe buffer holds
        from gwadams.symfunc import universal_R
        proc = _python("-m", "gwadams.cli", "universal", "R", "8", "--max",
                       "8")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len(proc.stdout) > 65536
        assert proc.stdout == universal_R(8).text() + "\n"

    def test_closed_pipe(self):
        # `gwadams universal R 8 --max 8 | head -c 2`: the 257 KB of output
        # overflow the pipe, so the write fails; exit 1, no traceback
        proc = subprocess.Popen(
            [sys.executable, "-m", "gwadams.cli", "universal", "R", "8",
             "--max", "8"], env=dict(os.environ, PYTHONPATH=SRC),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.read(2) == b"X1"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
        proc.stderr.close()

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("args", [["universal", "P", "3"],
                                      ["verify", "borel"],
                                      ["universal", "R", "8", "--max", "8"]])
    def test_full_stdout(self, args):
        # a failed write to stdout, buffered or not, exits 2 with one line
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "gwadams.cli", *args],
                env=dict(os.environ, PYTHONPATH=SRC), stdout=full,
                stderr=subprocess.PIPE, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (
            2, "gwadams: error: cannot write output: [Errno 28] No space "
               "left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    def test_full_json(self):
        proc = _python("-m", "gwadams.cli", "verify", "borel", "--json",
                       "/dev/full")
        assert proc.returncode == 2 and "PASS" in proc.stdout
        assert proc.stderr.endswith(
            "gwadams verify: error: cannot write --json: [Errno 28] No space "
            "left on device\n"), proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    def test_full_stdout_keeps_json(self, tmp_path):
        # stdout fails before the report is written: the old report stays
        # and the file is closed
        out = tmp_path / "r.json"
        out.write_text("old report\n")
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-X", "dev", "-m", "gwadams.cli", "verify",
                 "all", "--json", str(out)],
                env=dict(os.environ, PYTHONPATH=SRC), stdout=full,
                stderr=subprocess.PIPE, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "cannot write output" in proc.stderr
        assert "ResourceWarning" not in proc.stderr, proc.stderr
        assert out.read_text() == "old report\n"

    def test_version(self, runner):
        assert runner("--version") == (0, "gwadams, version %s\n"
                                       % gwadams.__version__)

    def test_no_abbreviations(self, runner):
        assert runner("omega", "4", "--format", "json").exit_code == 0
        assert runner("omega", "4", "--form", "json").exit_code == 2
        assert runner("verify", "omega", "--no-time").exit_code == 2

    def test_options_between_indices(self, runner):
        r = runner("universal", "Q", "--max", "9", "2", "4")
        assert r.exit_code == 0
        assert r == runner("universal", "Q", "2", "4", "--max", "9")
        assert runner("universal", "Q", "2", "4").exit_code == 2


def _call(*args):
    """(exit code, stdout, stderr) of `gwadams ARGS` in process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.main(list(args))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    raise AssertionError("cli.main returned without SystemExit")


# per command and `form` leaf: -h, a missing positional (or a stray one), a
# bad choice and a bad integer; and the calls that name no command
PARSE_CORPUS = [
    (), ("-h",), ("--version",), ("bogus",), ("--bogus",), ("form",),
    ("form", "-h"), ("form", "bogus"), ("-h", "adams"), ("adams", "3", "x"),
    ("universal", "-h"), ("universal",), ("universal", "X"),
    ("universal", "P", "x"), ("universal", "P", "2", "--method", "x"),
    ("universal", "P", "2", "--format", "x"), ("universal", "P", "--max", "x"),
    ("omega", "-h"), ("omega",), ("omega", "x"), ("omega", "--table", "x"),
    ("omega", "4", "--format", "x"),
    ("adams", "-h"), ("adams",), ("adams", "x"),
    ("adams", "2", "--format", "x"),
    ("ternary", "-h"), ("ternary", "x"), ("ternary", "--theory", "x"),
    ("ternary", "--class", "x"), ("ternary", "--format", "x"),
    ("verify", "-h"), ("verify",), ("verify", "x"),
    ("verify", "omega", "--no-time"),
    ("form", "ext-power", "-h"), ("form", "ext-power", "p"),
    ("form", "ext-power", "p", "x"),
    ("form", "sym-power", "-h"), ("form", "sym-power"),
    ("form", "sym-power", "p", "x"),
    ("form", "tensor", "-h"), ("form", "tensor", "a"),
    ("form", "hyperbolic", "-h"), ("form", "hyperbolic"),
    ("form", "hyperbolic", "x"), ("form", "hyperbolic", "2", "--delta", "x"),
    ("form", "invariants", "-h"), ("form", "invariants"),
    ("form", "gw-equal", "-h"), ("form", "gw-equal", "a"),
    ("form", "hyperbolic", "2"), ("omega", "4"), ("ternary", "--class", "2"),
]


class TestParserPerCommand:
    def test_same_as_full_parser(self, monkeypatch):
        # a call read straight from the table prints what argparse's reading
        # prints, with the same exit code, also where a command refuses it
        monkeypatch.setenv("COLUMNS", "80")
        got = [_call(*args) for args in PARSE_CORPUS]
        monkeypatch.setattr(cli, "_read_call", lambda args: None)
        for args, out in zip(PARSE_CORPUS, got):
            assert out == _call(*args), args
        assert sum(code == 2 for code, _, _ in got) >= 30

    @pytest.mark.parametrize("args, digest", [
        (("-h",), "902b319a523791bd"),
        (("adams", "-h"), "b93cd9a3ef0f5b66"),
        (("form", "invariants", "-h"), "5836c1a8adb27747"),
        (("universal", "-h"), "94083724ff9d91d9"),
        (("omega", "-h"), "9337b161fa1b7bec"),
        (("ternary", "-h"), "e9778a00c01ebc60"),
        (("verify", "-h"), "55ea6f864bcfaecc"),
        (("form", "-h"), "2032f8b628c12b28"),
        (("form", "ext-power", "-h"), "f9e315f1d0733250"),
        (("form", "sym-power", "-h"), "91b610ad41c4e731"),
        (("form", "tensor", "-h"), "28778692f97dc493"),
        (("form", "hyperbolic", "-h"), "108e9519b5a98ec7"),
        (("form", "gw-equal", "-h"), "e873fef9556e81c3"),
    ])
    def test_help_golden(self, monkeypatch, args, digest):
        # sha256 of every help text, recorded while argparse read every call
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = _call(*args)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def _namespace(args) -> dict | None:
    """argparse's namespace of `gwadams ARGS` less `parser`; None where
    argparse prints help or an error and exits."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            ns = cli._argparse("gwadams", list(args))
    except SystemExit:
        return None
    ns.pop("parser")
    return ns


def _read(args) -> bool:
    """Whether the table reader reads `gwadams ARGS`; where it does, it
    gives argparse's namespace less `parser`."""
    got = cli._read_call(list(args))
    if got is not None:
        assert got == _namespace(args), args
    return got is not None


def _leaves(table=cli.COMMANDS, prefix=()):
    for name, (_, arguments) in table.items():
        if isinstance(arguments, dict):
            yield from _leaves(arguments, prefix + (name,))
        else:
            yield prefix + (name,), arguments


def _token(kw: dict):
    """A strategy for one value token of the argument kw: mostly valid,
    sometimes a negative integer, `-`, an option or junk."""
    valid = (st.sampled_from(kw["choices"]) if "choices" in kw
             else st.integers(0, 300).map(str) if "type" in kw
             else st.sampled_from(["f.json", "-", "", "a=b", "x y"]))
    return st.one_of(valid, valid, valid, st.sampled_from(
        ["-", "-3", "--", "-h", "--format", "x", "", "3", "P"]))


@st.composite
def _argvs(draw):
    """argv for a leaf of COMMANDS: positionals and options in any order,
    options repeated or in the `--opt=value` form, and stray tokens."""
    names, arguments = draw(st.sampled_from(list(_leaves())))
    units = []
    for name, kw in arguments:
        if name[0] != "-":
            low, high = {"*": (0, 3), "?": (0, 1)}.get(kw.get("nargs"), (1, 1))
            # the right number of values, or now and then one more or less
            n = draw(st.integers(low, high)
                     | st.integers(max(low - 1, 0), high + 1))
            units += [[draw(_token(kw))] for _ in range(n)]
            continue
        for _ in range(draw(st.integers(0, 2))):
            if "action" in kw:
                units.append([name])
            elif draw(st.integers(0, 9)) == 0:
                units.append(["%s=%s" % (name, draw(_token(kw)))])
            else:
                units.append([name, draw(_token(kw))])
    if draw(st.integers(0, 9)) == 0:
        units.append([draw(st.sampled_from(["-h", "--", "-1", "--bogus"]))])
    units = draw(st.permutations(units))
    return list(names) + [t for unit in units for t in unit]


class TestTableReader:
    # the reader either declines a call, which argparse then reads, or gives
    # exactly argparse's namespace, less `parser`

    def test_parse_corpus(self):
        # the calls that name a command and parse; `omega` alone parses and
        # is then refused by the command
        assert [args for args in PARSE_CORPUS if _read(args)] == [
            ("omega",), ("form", "hyperbolic", "2"), ("omega", "4"),
            ("ternary", "--class", "2")]

    def test_golden_calls(self):
        calls = [["universal", *c.split(), "--max", "8"]
                 for c in TestUniversal.GOLDEN]
        calls += [[TestRenderGolden.K if a == "K" else a for a in c.split()]
                  for c in TestRenderGolden.GOLDEN]
        calls += [["form", *c.split()] for c in TestForm.GOLDEN]
        read = [_read(args) for args in calls]
        # only a negative n, as in `adams -7 ...`, leaves the table reader
        negative = [any(a[:1] == "-" and a[1:].isdigit() for a in args)
                    for args in calls]
        assert read == [not n for n in negative] and any(negative)

    def test_benchmark_decks(self, monkeypatch):
        monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
        import gen
        import refmath
        for seed in (501, 502):
            deck = next(gen.cli_decks(seed))
            for call in deck:
                args = [json.dumps(refmath.U1U2U3) if a == "@u1u2u3"
                        else a[1:] + ".json" if a.startswith("@") else a
                        for a in call["args"]]
                assert _read(args), args

    @settings(max_examples=400, deadline=None)
    @given(_argvs())
    def test_generated(self, args):
        _read(args)
