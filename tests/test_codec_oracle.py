"""The class-document codec against the codec it replaced.

The oracle below is the earlier SymClass/GWElem to_obj/from_obj: it went
through a MultiPoly, a rename, a GWElem and a product per component.  The
codec must write the same bytes and read every document, valid or not, to
the same class or to the same exception type and message.  The only
intended differences are three messages: an unknown or unhashable theory
and a missing components key leaked a KeyError or TypeError before.  A
component field of the wrong type (a `poly` that is not an object, an
`a`, `b` or `c` that is not a list) was read as it came and leaked a
KeyError or TypeError, or read a string digit by digit; the oracle refuses
it with the codec's message, at the same point of the reading.  So it does
with a K or Witt `poly` that uses a generator, which the earlier codec
multiplied in although `poly` is a base-ring polynomial; with
read_generators=True it reads such a poly as the earlier codec did.
GWElem.from_obj reads through SymClass.from_obj: where the earlier GWElem
reader took another theory, generators, quotient mode or generator
exponents for a coefficient-ring class, or leaked a KeyError, TypeError or
AttributeError, it refuses the document with a message that names the
field."""

import json
import random
from collections import defaultdict

import pytest

from gwadams.borel import omega_recursive, ternary_laws
from gwadams.gwring import (
    COEFF_RING, GW, KTH, THEORIES, WITT, GWElem, SymClass,
    context_ring,
)
from gwadams.lambdaring import adams
from gwadams.polyring import (
    ContextError, ExponentError, MultiPoly, read_bool, read_int, read_list,
)


# ---------------------------------------------------------------------------
# the oracle

def oracle_components(x: GWElem) -> dict:
    buckets: dict[int, dict] = {}
    for exps, c in x.poly.tuple_terms().items():
        d = sum(e * GW.weights[n] for e, n in zip(exps, COEFF_RING.names))
        buckets.setdefault(d, {})[exps] = c
    return {d: GWElem(MultiPoly.from_exps(COEFF_RING, t))
            for d, t in sorted(buckets.items())}


def oracle_gw_to_obj(x: GWElem) -> dict:
    comps = []
    for d, part in oracle_components(x).items():
        ab: dict[str, dict[int, int]] = {"a": {}, "b": {}, "c": {}}
        for exps, coeff in part.poly.tuple_terms().items():
            a, b, g = exps
            which = "c" if b else ("b" if a else "a")
            ab[which][g] = coeff
        all_g = [g for slot in ab.values() for g in slot]
        gmin = min(all_g) if all_g else 0
        gmax = max(all_g) if all_g else 0
        comp = {"deg": d, "gmin": gmin}
        for key in ("a", "b", "c"):
            comp[key] = [ab[key].get(g, 0) for g in range(gmin, gmax + 1)]
        comps.append(comp)
    return {"components": comps}


def oracle_gw_from_obj(obj: dict) -> GWElem:
    terms: dict = defaultdict(int)
    for comp in obj["components"]:
        gmin = read_int(comp.get("gmin", 0), "gmin")
        for key, (ea, eb) in (("a", (0, 0)), ("b", (1, 0)), ("c", (0, 1))):
            for k, coeff in enumerate(read_list(comp, key, [])):
                terms[ea, eb, gmin + k] += read_int(coeff, "a coefficient")
    return GWElem(MultiPoly.from_exps(COEFF_RING, terms))


def oracle_to_obj(x: SymClass) -> dict:
    ring = x.poly.ring
    gidx = [ring.index(g) for g in x.gens]
    groups: dict[tuple, dict] = {}
    for exps, c in x.poly.tuple_terms().items():
        ue = tuple(exps[i] for i in gidx)
        base = tuple(0 if i in gidx else e for i, e in enumerate(exps))
        groups.setdefault(ue, {})[base] = c
    components = []
    for ue in sorted(groups):
        if x.theory is GW:
            base_elem = GWElem(MultiPoly.from_exps(ring, groups[ue]).rename(
                COEFF_RING))
            for comp in oracle_gw_to_obj(base_elem)["components"]:
                comp["u_exps"] = list(ue)
                components.append(comp)
        else:
            poly = MultiPoly.from_exps(ring, groups[ue]).rename(
                x.theory.base_ring())
            components.append({"u_exps": list(ue), "poly": poly.to_obj()})
    return {"theory": x.theory.name, "gens": list(x.gens),
            "quotient": x.quotient, "components": components}


def oracle_from_obj(obj: dict, read_generators: bool = False) -> SymClass:
    if not isinstance(obj, dict):
        raise ValueError("a class document must be a JSON object")
    theory = THEORIES[obj.get("theory", "gw")]
    gens = obj.get("gens", [])
    if (not isinstance(gens, list)
            or not all(isinstance(g, str) for g in gens)):
        raise ValueError("gens must be a list of names")
    gens = tuple(gens)
    quotient = read_bool(obj.get("quotient", False), "quotient")
    ring = context_ring(theory, gens)
    total: dict = defaultdict(int)
    if not isinstance(obj["components"], list):
        raise ValueError("components must be a list")
    for comp in obj["components"]:
        if not isinstance(comp, dict):
            raise ValueError("each component must be a JSON object")
        ue = comp.get("u_exps", [0] * len(gens))
        if (not isinstance(ue, list) or len(ue) != len(gens)
                or not all(type(e) is int for e in ue)):
            raise ValueError("u_exps must list one integer per generator")
        umono = ring.monomial(1, dict(zip(gens, ue)))
        if theory is GW:
            base = oracle_gw_from_obj({"components": [comp]}).poly
        else:
            if not isinstance(comp.get("poly"), dict):
                raise ValueError("poly must be a JSON object")
            base = MultiPoly.from_obj(comp["poly"])
            for i, name in enumerate(base.ring.names):
                used = any(e[i] for e in base.tuple_terms())
                if used and name not in ring.names:
                    break       # the rename below refuses it
                if not read_generators and used and name in gens:
                    raise ValueError("poly uses the generator %r; its "
                                     "exponent belongs in u_exps" % name)
        for e, c in (base.rename(ring) * umono).tuple_terms().items():
            total[e] += c
    return SymClass(MultiPoly.from_exps(ring, total), theory, gens, quotient)


# ---------------------------------------------------------------------------
# the corpus

def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def outcome(read, doc):
    """The class read, with its type, or the exception type and message."""
    try:
        x = read(json.loads(dumps(doc)))
    except Exception as exc:    # the exception is the outcome compared
        return type(exc), str(exc)
    return type(x), x, x.to_json()


GENS = ("u1", "u2", "u3")


def _scalar(x: GWElem) -> SymClass:
    return SymClass.from_gw(x, gens=GENS)


def valid_classes() -> list:
    u1, u2, u3 = (SymClass.gen(g, gens=GENS) for g in GENS)
    tau, gamma, eps = GWElem.tau(), GWElem.gamma(), GWElem.eps()
    seeds = [u1 * u2 * u3,
             u1 * u2 + _scalar(tau) * u2 - 3 * _scalar(gamma),
             (_scalar(GWElem.gamma(-1) * tau) * u1 * u1 * u3 * u3
              + _scalar(eps * gamma) * u3 - 5 * u1 * u2 * u3)]
    out = []
    for x in seeds:
        for n in range(-12, 13):
            y = adams(n, x)
            out += [y, y.specialize(KTH), y.specialize(WITT)]
    uq = SymClass.gen("u", gens=("u",), quotient=True)
    out += [adams(n, uq) for n in range(-12, 13)]
    out += [SymClass.from_gw(omega_recursive(n)) for n in range(40)]
    for theory in ("gw", "k", "witt"):
        out += [law.value for law in ternary_laws(theory)]
    return out


def _mutate(rng: random.Random, doc: dict) -> None:
    """Plant one invalid (or merely unusual) entry in doc."""
    comps = doc["components"]
    dicts = [c for c in comps if isinstance(c, dict)] if isinstance(
        comps, list) else []
    comp = rng.choice(dicts) if dicts else None
    gens = doc["gens"] if isinstance(doc["gens"], list) else []
    kind = rng.randrange(12)
    junk = rng.choice([1.5, True, False, "1", "x", None, [1], {"a": 1}])
    if kind == 0 and comp is not None:         # bad u_exps
        comp["u_exps"] = rng.choice([
            junk, [0] * (len(gens) + 1), [1] * (len(gens) - 1),
            [junk] * len(gens), "u1"])
    elif kind == 1 and comp is not None:       # negative u-exponent
        if gens:
            comp["u_exps"] = [rng.randrange(-2, 2) for _ in gens]
            comp["u_exps"][rng.randrange(len(gens))] = -1
    elif kind == 2 and comp is not None:       # a bad coefficient
        if "poly" in comp and comp["poly"]["terms"]:
            rng.choice(comp["poly"]["terms"])["coeff"] = rng.choice(
                [junk, 2.0, "2.5", "--1", "7"])
        else:
            key = rng.choice("abc")
            if not isinstance(comp.get(key), list):
                comp[key] = []
            slot = comp[key]
            slot.insert(rng.randrange(len(slot) + 1), junk)
    elif kind == 3 and comp is not None:       # a bad gmin or slot
        if rng.random() < 0.5:
            comp["gmin"] = junk
        else:
            comp[rng.choice("abc")] = rng.choice([junk, "12", 3])
    elif kind == 4 and comp is not None and "poly" in comp:
        # a variable of another ring in poly, used or not
        poly = comp["poly"]
        name = rng.choice(["x", "eps", "tau", "beta", "gamma"] + gens)
        poly["vars"].insert(0, {"name": name, "laurent": rng.random() < 0.5})
        for t in poly["terms"]:
            t["exps"].insert(0, rng.choice([0, 0, 1, -1, 2]))
    elif kind == 5:                            # components not a list
        doc["components"] = rng.choice([{}, 5, "abc", None, True])
    elif kind == 6 and dicts:                  # a component not an object
        comps[rng.randrange(len(comps))] = rng.choice([5, [], "c", None])
    elif kind == 7:                            # bad gens
        doc["gens"] = rng.choice([
            "u1", [1], gens * 2 or ["v", "v"], ["eps"], ["beta"],
            ["gamma"], None])
    elif kind == 8:                            # bad or impossible quotient
        doc["quotient"] = rng.choice([junk, True, 1])
    elif kind == 9 and comp is not None:       # u_exps left out
        comp.pop("u_exps", None)
    elif kind == 10 and comp is not None and "poly" in comp:
        poly = comp["poly"]
        fault = rng.randrange(4)
        if fault == 0:
            comp.pop("poly")
        elif fault == 1 and poly["terms"]:
            poly["terms"][0]["exps"].append(0)
        elif fault == 2:
            poly["vars"][0]["laurent"] = junk
        else:
            poly["vars"].append(dict(poly["vars"][0]))
            for t in poly["terms"]:
                t["exps"].append(0)
    elif kind == 11 and isinstance(comps, list):  # an odd component
        comps.append(rng.choice([{}, {"deg": 9}, {"a": []},
                                 {"poly": {"vars": [], "terms": []}}]))


def random_doc(rng: random.Random) -> dict:
    theory = rng.choice(["gw", "k", "witt"])
    gens = ["u%d" % i for i in range(1, rng.randrange(4))]
    comps = []
    for _ in range(rng.randrange(4)):
        comp = {"u_exps": [rng.randrange(3) for _ in gens]}
        if theory == "gw":
            comp["gmin"] = rng.randrange(-2, 3)
            for key in "abc":
                if rng.random() < 0.7:
                    comp[key] = [rng.randrange(-4, 5)
                                 for _ in range(rng.randrange(3))]
        else:
            var = "beta" if theory == "k" else "gamma"
            comp["poly"] = {
                "vars": [{"name": var, "laurent": True}],
                "terms": [{"coeff": rng.choice([str(c), c]),
                           "exps": [rng.randrange(-3, 4)]}
                          for c in (rng.randrange(-4, 5)
                                    for _ in range(rng.randrange(3)))]}
        comps.append(comp)
    doc = {"theory": theory, "gens": gens, "components": comps}
    if rng.random() < 0.5:
        doc["quotient"] = theory == "gw" and rng.random() < 0.5
    for _ in range(rng.choice([1, 1, 1, 2])):
        _mutate(rng, doc)
    return doc


@pytest.fixture(scope="module")
def classes():
    return valid_classes()


# ---------------------------------------------------------------------------
# the comparisons

def test_writes_the_same_bytes(classes):
    assert len(classes) == 3 * 25 * 3 + 25 + 40 + 12
    for x in classes:
        assert x.to_json() == dumps(oracle_to_obj(x))


def test_reads_its_documents_back(classes):
    for x in classes:
        doc = json.loads(x.to_json())
        back = SymClass.from_obj(doc)
        assert back == x and back == oracle_from_obj(doc)
        assert back.to_json() == x.to_json()


def test_gwelem():
    omegas = [omega_recursive(n) for n in range(40)]
    rng = random.Random(7)
    for x in omegas + [GWElem(COEFF_RING.monomial(
            rng.randrange(-9, 10), {"eps": rng.randrange(2),
                                    "gamma": rng.randrange(-4, 5)}))
            + rng.randrange(-3, 4) * GWElem.tau() * GWElem.gamma(
                rng.randrange(-3, 4)) for _ in range(60)]:
        assert x.to_json() == dumps(oracle_gw_to_obj(x))
        doc = json.loads(x.to_json())
        assert GWElem.from_obj(doc) == oracle_gw_from_obj(doc) == x
    # the dense components of class documents, read as bare GWElems
    rng = random.Random(11)
    kept = refused = 0
    for _ in range(400):
        doc = random_doc(rng)
        comps = doc["components"]
        if not isinstance(comps, list):
            continue
        bare = {"components": comps}
        want = gwelem_outcome(bare)
        if want == outcome(oracle_gw_from_obj, bare):
            kept += 1
        else:
            refused += 1
        assert outcome(GWElem.from_obj, bare) == want
    assert kept >= 150 and refused >= 100


def gwelem_outcome(bare: dict):
    """The earlier GWElem reader's outcome on a bare document, up to its
    first component that is not an object or carries generator exponents:
    the class reader refuses that one, unless an earlier one fails."""
    comps = bare["components"]
    for k, comp in enumerate(comps):
        if not isinstance(comp, dict):
            why = "each component must be a JSON object"
        elif comp.get("u_exps", []) != []:
            why = "u_exps must list one integer per generator"
        else:
            continue
        head = outcome(oracle_gw_from_obj, {"components": comps[:k]})
        if issubclass(head[0], Exception):
            return head
        return ValueError, why
    return outcome(oracle_gw_from_obj, bare)


ONE = (GWElem, GWElem.from_int(1), GWElem.from_int(1).to_json())
ZERO = (GWElem, GWElem.from_int(0), GWElem.from_int(0).to_json())


@pytest.mark.parametrize("doc, old, new", [
    ({"theory": "gw", "gens": ["u"],
      "components": [{"u_exps": [1], "a": [1]}]}, ONE,
     'gens must be [] in a coefficient-ring class, got ["u"]'),
    ({"theory": "k", "components": [{"poly": {
        "vars": [{"name": "beta", "laurent": True}],
        "terms": [{"coeff": "2", "exps": [1]}]}}]}, ZERO,
     'theory must be "gw" in a coefficient-ring class, got "k"'),
    ({"quotient": True, "components": [{"a": [1]}]}, ONE,
     "quotient must be false in a coefficient-ring class, got true"),
    ({"components": [{"u_exps": [1], "a": [1]}]}, ONE,
     "u_exps must list one integer per generator"),
    ({}, (KeyError, "'components'"), "components must be a list"),
    ([], (TypeError, "list indices must be integers or slices, not str"),
     "a class document must be a JSON object"),
    ({"components": [1]}, (AttributeError, "'int' object has no attribute "
                                           "'get'"),
     "each component must be a JSON object"),
])
def test_gwelem_intended_differences(doc, old, new):
    """GWElem reads through the class reader, which refuses what is not a
    coefficient-ring class and names the field."""
    assert outcome(oracle_gw_from_obj, doc) == old
    assert outcome(GWElem.from_obj, doc) == (ValueError, new)


def test_random_documents():
    rng = random.Random(2024)
    failed = 0
    for _ in range(600):
        doc = random_doc(rng)
        got = outcome(SymClass.from_obj, doc)
        assert got == outcome(oracle_from_obj, doc), doc
        failed += isinstance(got[0], type) and issubclass(got[0], Exception)
    # most documents carry an entry the reader must refuse
    assert failed >= 300


def test_not_documents():
    for doc in ([], "abc", 5, None, {"gens": "u", "components": []},
                {"quotient": "no", "components": []}):
        assert outcome(SymClass.from_obj, doc) == outcome(oracle_from_obj,
                                                          doc)


# a K component whose base-ring poly is the generator u1
K_U1 = {"theory": "k", "gens": ["u1"], "components": [
    {"u_exps": [0], "poly": {"vars": [{"name": "u1", "laurent": False}],
                             "terms": [{"coeff": 1, "exps": [1]}]}}]}


@pytest.mark.parametrize("doc, old, new", [
    ({"theory": "ko", "components": []},
     (KeyError, "'ko'"), "unknown theory 'ko'; the theories are gw, k, witt"),
    ({"theory": [], "components": []},
     (TypeError, "unhashable type: 'list'"),
     "unknown theory []; the theories are gw, k, witt"),
    ({"theory": "gw"}, (KeyError, "'components'"),
     "components must be a list"),
    (K_U1, (SymClass, SymClass.gen("u1", KTH, ("u1",)),
            SymClass.gen("u1", KTH, ("u1",)).to_json()),
     "poly uses the generator 'u1'; its exponent belongs in u_exps"),
])
def test_intended_differences(doc, old, new):
    assert outcome(lambda d: oracle_from_obj(d, read_generators=True),
                   doc) == old
    assert outcome(SymClass.from_obj, doc) == (ValueError, new)


def _k_doc(poly: dict, gens=("u1",)) -> dict:
    return {"theory": "k", "gens": list(gens),
            "components": [{"u_exps": [1] * len(gens), "poly": poly}]}


BETA = {"name": "beta", "laurent": True}
X, U1 = ({"name": n, "laurent": False} for n in ("x", "u1"))


@pytest.mark.parametrize("doc, want", [
    # the first used variable outside the base ring decides the error
    (_k_doc({"vars": [X, U1], "terms": [{"coeff": 1, "exps": [1, 1]}]}),
     (ContextError, "variable 'x' absent from target")),
    (_k_doc({"vars": [U1, X], "terms": [{"coeff": 1, "exps": [1, 1]}]}),
     (ValueError,
      "poly uses the generator 'u1'; its exponent belongs in u_exps")),
    # a non-Laurent beta past the Laurent range is refused by rename; the
    # reader before MultiPoly.rename said "exponent 3000000000 of beta
    # outside -2147483648..2147483647, the range of a Laurent variable"
    (_k_doc({"vars": [{"name": "beta", "laurent": False}],
             "terms": [{"coeff": 1, "exps": [3000000000]}]}, ("u",)),
     (ExponentError, "exponent outside its packed field in Ring(beta^±, u): "
                     "each exponent lies in 0..4294967295, or in "
                     "-2147483648..2147483647 for a Laurent variable")),
    # a poly field of the wrong type or missing is named
    (_k_doc({"vars": [{"laurent": True}], "terms": []}),
     (ValueError, "name must be a string, got null")),
    (_k_doc({"vars": [{"name": 7, "laurent": True}], "terms": []}),
     (ValueError, "name must be a string, got 7")),
    (_k_doc({"vars": ["beta"], "terms": []}),
     (ValueError, "each var must be a JSON object")),
    (_k_doc({"vars": [{"name": "beta"}], "terms": []}),
     (ValueError, "laurent must be true or false, got null")),
    (_k_doc({"vars": [BETA], "terms": [5]}),
     (ValueError, "each term must be a JSON object")),
    (_k_doc({"vars": [BETA], "terms": [{"coeff": 1}]}),
     (ValueError, "exps must be a list")),
    (_k_doc({"vars": [BETA], "terms": [{"coeff": 1, "exps": 5}]}),
     (ValueError, "exps must be a list")),
    (_k_doc({"vars": [BETA], "terms": [{"exps": [1]}]}),
     (ValueError, "a coefficient must be an integer, got null")),
])
def test_poly_documents(doc, want):
    assert outcome(SymClass.from_obj, doc) == outcome(oracle_from_obj,
                                                      doc) == want
