"""The graded coefficient ring Z[eps, tau, gamma^{±1}] modulo the relations

    eps^2 = 1,   eps*tau = -tau,   tau^2 = 2*gamma*(1 - eps),

with grading weights eps -> 0, tau -> 2, gamma -> 4, and the classes of the
three theories (GW, K, Witt) over their base rings extended by rank-2
generators u_1..u_k of weight 2.

normalize maps each term straight to its normal form by closed formulas
for the powers of eps, tau and, in quotient mode, the generators, so its
cost grows with the number of terms, not with their exponents.  SymClass
is a normal-form element of theory.base_ring()[gens]; in quotient mode
(only for a theory with tau) every generator also obeys (u - tau)^2 = 0.
GWElem is a SymClass of theory GW with no generators, whose normal form
is the canonical a(gamma) + b(gamma)*eps + c(gamma)*tau; it adds the
coefficient-ring constructors.  A class document is {"theory", "gens",
"quotient", "components"} (a GWElem's only {"components"}), one component
per generator monomial "u_exps" and, in GW, per degree: {"deg", "gmin",
"a", "b", "c"} in GW, {"poly"} in K and Witt.  Only this module reads and
writes it: GW's components straight from and into term dicts whose
exponents end in the generators', a K or Witt "poly" through
MultiPoly.to_obj, MultiPoly.from_obj and MultiPoly.rename; each Theory
holds its (writer, reader) pair.  The ring maps out of a theory (GW -> K,
GW -> Witt, and each theory's rank map to Z) are data: each Theory lists
the monomial image of every base variable per target, and
SymClass.specialize, SymClass.rank and the ternary laws' rank check apply
them.
"""

from __future__ import annotations

import json
from collections import defaultdict
from functools import cache
from itertools import product

from .polyring import (EXP_MASK, FIELD_BITS, GradingError, MultiPoly, Ring,
                       negative_exponent, quoted, read_bool, read_int,
                       read_list)
from .report import VerificationReport, check

COEFF_VARS = [("eps", False), ("tau", False), ("gamma", True)]


def normalize(poly: MultiPoly, square_zero: tuple) -> MultiPoly:
    """Normal form in any ring containing eps, tau, gamma: every term has
    eps- plus tau-exponent at most 1, and exponent at most 1 in each
    variable named in square_zero, which obeys (u - tau)^2 = 0.  Other
    variables (u-generators etc.) ride along untouched.

    Each term maps straight to its normal form, then equal terms merge:
    u^k = k*tau^(k-1)*u - (k-1)*tau^k (u = tau + d with d^2 = 0),
    eps^a = eps^(a mod 2), tau^(2m+1) = 4^m*gamma^m*tau and
    tau^(2m) = 2^(2m-1)*gamma^m*(1 - eps) for m >= 1, and eps^a beside a
    tau-power is the sign (-1)^a.  So one term gives at most
    2^(len(square_zero)+1) terms, whatever its exponents.  A poly whose
    terms are all in normal form is returned as it is: a term is in normal
    form where its monomial, masked to the eps and tau fields and all but
    the lowest bit of each square_zero field, is 1, eps or tau.  Normal
    form is a condition on each term, so sums, differences and negatives
    of normal forms are normal forms.
    """
    se, st, sg, su, mask, normal = _normal_layout(poly.ring, square_zero)
    for key in poly.terms:
        if key & mask not in normal:
            break
    else:
        return poly
    keep = ~(EXP_MASK << se | EXP_MASK << st)
    out: dict = defaultdict(int)    # MultiPoly drops the zero sums
    for key, c in poly.terms.items():
        if key & mask in normal:
            out[key] += c
            continue
        # the two terms of each u^k, k >= 2:
        # (shift of u, its exponent less the new one, extra tau-exponent,
        # factor)
        choices = [((s, k - 1, k - 1, k), (s, k, k, 1 - k))
                   for s in su if (k := key >> s & EXP_MASK) >= 2]
        for pick in product(*choices):
            e, b, cc = key, key >> st & EXP_MASK, c
            for s, du, dt, f in pick:
                e, b, cc = e - (du << s), b + dt, cc * f
            a = e >> se & EXP_MASK
            e &= keep
            if not b:
                out[e + ((a % 2) << se)] += cc
                continue
            m, odd = divmod(b, 2)
            cc *= (-1) ** a * (4 ** m if odd else 2 ** (2 * m - 1))
            e += (odd << st) + (m << sg)
            out[e] += cc
            if not odd:
                out[e + (1 << se)] -= cc
    return MultiPoly(poly.ring, out)


@cache
def _normal_layout(ring: Ring, square_zero: tuple) -> tuple:
    """The shifts of eps, tau, gamma and the square_zero variables in
    ring, the mask normalize tests and the masked values of the terms in
    normal form."""
    se, st, sg = (ring.shifts[ring.index(v)] for v in ("eps", "tau", "gamma"))
    su = tuple(ring.shifts[ring.index(u)] for u in square_zero)
    mask = EXP_MASK << se | EXP_MASK << st
    for s in su:
        mask |= (EXP_MASK - 1) << s
    return se, st, sg, su, mask, frozenset((0, 1 << se, 1 << st))


class Theory:
    """A frozen record; a theory equals only itself.

    twist: the unit variable implementing the determinant twist;
    det_power: lambda^2 of a rank-2 generator is twist**det_power;
    codec: (writer, reader) of the components of its class documents: base
        terms -> components, (component, generator exponents) pairs ->
        terms;
    maps: ring maps, target -> {base variable: (coeff, {target base
        variable: exponent})}, the monomial image of each base variable;
        a target is a theory name or "rank", the map to Z;
    line: the base variable that is -(a line class): eps;
    rank2: the base variables of rank 2 with determinant twist**det_power:
        tau; where there is one, normalize imposes the relations.
    """

    __slots__ = ("name", "base", "weights", "twist", "det_power", "codec",
                 "maps", "line", "rank2")

    def __init__(self, name: str, base: tuple, weights: dict, twist: str,
                 det_power: int, codec: tuple, maps: dict,
                 line: str | None = None, rank2: tuple = ()):
        for field, value in zip(self.__slots__, (
                name, base, weights, twist, det_power, codec, maps, line,
                rank2)):
            object.__setattr__(self, field, value)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of a Theory" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of a Theory" % name)

    def base_ring(self) -> Ring:
        return context_ring(self, ())


@cache
def context_ring(theory: Theory, gens: tuple) -> Ring:
    """theory.base_ring()[gens].  Ring itself shares one instance per
    variable list; the cache only spares SymClass, on its hot path,
    rebuilding the list."""
    return Ring(list(theory.base) + [(g, False) for g in gens])


@cache
def context_weights(theory: Theory, gens: tuple) -> tuple:
    """The grading weight of each variable of context_ring(theory, gens)."""
    return tuple(theory.weights[n] for n, _ in theory.base) + (2,) * len(gens)


def _write_dense(theory: Theory, terms: dict) -> list:
    """One component per degree 2*tau + 4*gamma: a, b and c list the
    coefficients of gamma^g, eps*gamma^g and tau*gamma^g from g = gmin."""
    # eps is the top field and gamma the lowest
    (se, st, _), og = COEFF_RING.shifts, COEFF_RING.offsets[2]
    buckets: dict[int, dict] = {}
    for key, c in terms.items():
        t, g = key >> st & EXP_MASK, (key & EXP_MASK) - og
        buckets.setdefault(2 * t + 4 * g, {})[2 if t else key >> se, g] = c
    components = []
    for d, slots in sorted(buckets.items()):
        gs = range(min(g for _, g in slots), max(g for _, g in slots) + 1)
        comp = {"deg": d, "gmin": gs.start}
        for s, key in enumerate("abc"):
            comp[key] = [slots.get((s, g), 0) for g in gs]
        components.append(comp)
    return components


def _read_dense(components, ring: Ring, total: dict) -> None:
    ig, gamma = ring.index("gamma"), ring.step("gamma")
    heads = (("a", 0), ("b", ring.step("eps")), ("c", ring.step("tau")))
    for comp, ue in components:
        gmin = read_int(comp.get("gmin", 0), "gmin")
        first = None    # the monomial gamma^gmin u^ue, once a slot is read
        for key, head in heads:
            values = read_list(comp, key, [])
            if not values:
                continue
            if first is None:
                first = ring.pack((0, 0, gmin) + ue)
            if len(values) > 1:
                ring.check_exponent(ig, gmin + len(values) - 1)
            k = first + head
            for c in values:
                total[k] += read_int(c, "a coefficient")
                k += gamma


def _write_poly(theory: Theory, terms: dict) -> list:
    return [{"poly": MultiPoly(context_ring(theory, ()), terms).to_obj()}]


def _read_poly(components, ring: Ring, total: dict) -> None:
    """Each component's base-ring poly, read by MultiPoly.from_obj and
    taken into ring by MultiPoly.rename, times its generator monomial."""
    for comp, ue in components:
        if not isinstance(comp.get("poly"), dict):
            raise ValueError("poly must be a JSON object")
        poly = MultiPoly.from_obj(comp["poly"])
        base = ring.names[:ring.nvars - len(ue)]
        used = poly.support()
        for i, name in enumerate(poly.ring.names):
            if i in used and name not in base:
                if name in ring.names:
                    raise ValueError("poly uses the generator %s; its "
                                     "exponent belongs in u_exps"
                                     % quoted(repr(name)))
                break       # rename refuses it
        poly = poly.rename(ring)
        if poly.terms:      # u_exps is packed once a term uses it
            step = ring.pack((0,) * len(base) + ue) - ring.bias
            for key, c in poly.terms.items():
                total[key + step] += c


GW = Theory("gw", tuple(COEFF_VARS), {"eps": 0, "tau": 2, "gamma": 4},
            "gamma", 1, (_write_dense, _read_dense),
            {"k": {"eps": (-1, {}), "tau": (2, {"beta": 2}),
                   "gamma": (1, {"beta": 4})},
             "witt": {"eps": (1, {}), "tau": (0, {}),
                      "gamma": (1, {"gamma": 1})},
             "rank": {"eps": (-1, {}), "tau": (2, {}), "gamma": (1, {})}},
            line="eps", rank2=("tau",))
KTH = Theory("k", (("beta", True),), {"beta": 1}, "beta", 4,
             (_write_poly, _read_poly), {"rank": {"beta": (1, {})}})
WITT = Theory("witt", (("gamma", True),), {"gamma": 4}, "gamma", 1,
              (_write_poly, _read_poly), {"rank": {"gamma": (1, {})}})

THEORIES = {t.name: t for t in (GW, KTH, WITT)}
COEFF_RING = context_ring(GW, ())
INTEGERS = Ring(())     # the target of SymClass.rank


def _components(obj: dict, ring: Ring, gens: tuple):
    """(component, its generator exponents) of each component of a class
    document, checked one at a time as a reader takes them."""
    zeros = [0] * len(gens)
    for comp in read_list(obj, "components"):
        if not isinstance(comp, dict):
            raise ValueError("each component must be a JSON object")
        ue = comp.get("u_exps", zeros)
        if (not isinstance(ue, list) or len(ue) != len(gens)
                or not all(type(e) is int for e in ue)):
            raise ValueError("u_exps must list one integer per generator")
        if ue and min(ue) < 0:
            raise negative_exponent(next(e for e in ue if e < 0), ring)
        yield comp, tuple(ue)


class SymClass:
    """Normal-form element of theory.base_ring()[gens].  Arithmetic keeps
    the class of the left operand, so subclasses stay closed.  Only a
    product can leave normal form: a sum, a difference or a negative wraps
    its polynomial as it is."""

    __slots__ = ("theory", "gens", "quotient", "poly")

    def __init__(self, poly: MultiPoly, theory: Theory = GW,
                 gens: tuple = (), quotient: bool = False):
        gens = tuple(gens)
        if quotient and not theory.rank2:
            raise ValueError("quotient mode (u - tau)^2 = 0 needs a rank-2 "
                             "base class; theory %s has none" % theory.name)
        ring = context_ring(theory, gens)
        if poly.ring is not ring:
            poly = poly.rename(ring)
        if theory.rank2:
            poly = normalize(poly, gens if quotient else ())
        self.theory = theory
        self.gens = gens
        self.quotient = quotient
        self.poly = poly

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, c: int, theory=GW, gens=(), quotient=False) -> "SymClass":
        ring = context_ring(theory, tuple(gens))
        return cls(ring.const(c), theory, gens, quotient)

    @classmethod
    def gen(cls, name: str, theory=GW, gens=(), quotient=False) -> "SymClass":
        ring = context_ring(theory, tuple(gens))
        return cls(ring.var(name), theory, gens, quotient)

    @classmethod
    def from_gw(cls, x: "GWElem", gens=(), quotient=False) -> "SymClass":
        return cls(x.poly, GW, gens, quotient)

    def _same_context(self, other: "SymClass"):
        if (self.theory is not other.theory or self.gens != other.gens
                or self.quotient != other.quotient):
            raise ValueError("mixed SymClass contexts")

    def _wrap(self, poly: MultiPoly) -> "SymClass":
        """The class of poly, a normal form of self's ring, in self's
        context."""
        out = object.__new__(type(self))
        out.theory, out.gens, out.quotient = (self.theory, self.gens,
                                              self.quotient)
        out.poly = poly
        return out

    def _lift(self, poly: MultiPoly) -> "SymClass":
        """The class of poly, a polynomial of self's ring, in self's
        context."""
        if self.theory.rank2:
            poly = normalize(poly, self.gens if self.quotient else ())
        return self._wrap(poly)

    def _coerce(self, other):
        if isinstance(other, int):
            return self._wrap(self.poly.ring.const(other))
        if isinstance(other, SymClass):
            self._same_context(other)
            return other
        return NotImplemented

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._wrap(self.poly + other.poly)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap(-self.poly)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._wrap(self.poly - other.poly)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._lift(self.poly * other.poly)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return self._lift(self.poly ** n)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self._wrap(self.poly.ring.const(other))
        return (isinstance(other, SymClass)
                and self.theory is other.theory
                and self.gens == other.gens and self.quotient == other.quotient
                and self.poly == other.poly)

    def __hash__(self):
        return hash((self.theory, self.gens, self.quotient, self.poly))

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    # -- grading / rank -----------------------------------------------------

    def degree(self):
        """Common weighted degree, or None when inhomogeneous."""
        return self.poly.graded_degree(context_weights(self.theory, self.gens))

    def rank(self) -> int:
        """The image under the ring map to Z: theory.maps["rank"], with
        each generator sent to 2."""
        if self.degree() is None:
            raise GradingError("rank requires homogeneous input: %s"
                               % quoted(self))
        return self._image("rank", INTEGERS, 2).const_value()

    # -- ring maps ----------------------------------------------------------

    def _image(self, target: str, ring: Ring,
               gen: int | None = None) -> MultiPoly:
        """The polynomial in ring that the ring map theory.maps[target]
        makes of this class: each base variable goes to its monomial, each
        generator to itself by name or, given gen, to the constant gen."""
        images = self.theory.maps.get(target)
        if images is None:
            raise ValueError("no ring map from theory %s to %s"
                             % (self.theory.name, target))
        subs = {v: ring.monomial(c, e) if e else ring.const(c)
                for v, (c, e) in images.items()}
        if gen is not None:
            subs.update((g, ring.const(gen)) for g in self.gens)
        return self.poly.substitute(subs, ring)

    def specialize(self, target: Theory) -> "SymClass":
        """The image under the ring map theory -> target of theory.maps;
        the generators pass through.  The identity when target is this
        class's theory."""
        if target is self.theory:
            return self
        if self.quotient:
            raise ValueError("the map %s -> %s is not a ring map on quotient-"
                             "mode classes: %s has no (u - tau)^2 = 0"
                             % (self.theory.name, target.name, target.name))
        ring = context_ring(target, self.gens)
        return SymClass(self._image(target.name, ring), target, self.gens)

    # -- rendering / JSON ---------------------------------------------------

    def text(self) -> str:
        return self.poly.text()

    def latex(self) -> str:
        return self.poly.latex()

    def __str__(self):
        return self.text()

    def __repr__(self):
        return "%s(%s; %s%s)" % (type(self).__name__, self.text(),
                                 self.theory.name,
                                 " quotient" if self.quotient else "")

    def split_terms(self) -> dict:
        """u_exps -> {base monomial: coefficient}: each monomial split into
        its trailing generator fields, a monomial of the generators' ring
        read as a tuple, and its base fields, a monomial of the theory's
        base ring."""
        bits = FIELD_BITS * len(self.gens)
        low = (1 << bits) - 1
        groups: dict[int, dict] = {}
        for key, c in self.poly.terms.items():
            groups.setdefault(key & low, {})[key >> bits] = c
        gens_ring = Ring((g, False) for g in self.gens)
        return dict(zip(gens_ring.unpack_all(groups), groups.values()))

    def to_obj(self) -> dict:
        write = self.theory.codec[0]
        components = [{**comp, "u_exps": list(ue)}
                      for ue, terms in sorted(self.split_terms().items())
                      for comp in write(self.theory, terms)]
        return {"theory": self.theory.name, "gens": list(self.gens),
                "quotient": self.quotient, "components": components}

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_obj(obj: dict) -> "SymClass":
        if not isinstance(obj, dict):
            raise ValueError("a class document must be a JSON object")
        name = obj.get("theory", "gw")
        if not isinstance(name, str) or name not in THEORIES:
            raise ValueError("unknown theory %s; the theories are %s"
                             % (quoted(repr(name)), ", ".join(THEORIES)))
        theory = THEORIES[name]
        gens = obj.get("gens", [])
        if (not isinstance(gens, list)
                or not all(isinstance(g, str) for g in gens)):
            raise ValueError("gens must be a list of names")
        gens = tuple(gens)
        quotient = read_bool(obj.get("quotient", False), "quotient")
        ring = context_ring(theory, gens)
        read = theory.codec[1]
        total: dict = defaultdict(int)
        read(_components(obj, ring, gens), ring, total)
        return SymClass(MultiPoly(ring, total), theory, gens, quotient)

    @classmethod
    def from_json(cls, s: str) -> "SymClass":
        return cls.from_obj(json.loads(s))


class GWElem(SymClass):
    """Coefficient-ring element: a SymClass of theory GW with no generators,
    in the dense JSON format {"components": [{"deg", "gmin", "a", "b",
    "c"}]}."""

    __slots__ = ()

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_int(c: int) -> "GWElem":
        return GWElem(COEFF_RING.const(c))

    @staticmethod
    def eps() -> "GWElem":
        return GWElem(COEFF_RING.var("eps"))

    @staticmethod
    def tau() -> "GWElem":
        return GWElem(COEFF_RING.var("tau"))

    @staticmethod
    def gamma(k: int = 1) -> "GWElem":
        return GWElem(COEFF_RING.var("gamma", k))

    @staticmethod
    def h() -> "GWElem":
        return GWElem.from_int(1) - GWElem.eps()

    @staticmethod
    def minus_one_class() -> "GWElem":
        # <-1> = -eps
        return -GWElem.eps()

    @staticmethod
    def hyperbolic_unit(i: int) -> "GWElem":
        """h_{2i}(1): tau*gamma^{(i-1)/2} for odd i, h*gamma^{i/2} for even."""
        if i % 2:
            return GWElem.tau() * GWElem.gamma((i - 1) // 2)
        return GWElem.h() * GWElem.gamma(i // 2)

    @staticmethod
    def n_star(n: int) -> "GWElem":
        if n < 0:
            raise ValueError("n must be >= 0")
        if n % 2:
            return GWElem.from_int(n)
        return GWElem.from_int(n // 2) * GWElem.h()

    # -- dense JSON ---------------------------------------------------------

    def to_obj(self) -> dict:
        return {"components": _write_dense(GW, self.poly.terms)}

    @staticmethod
    def from_obj(obj: dict) -> "GWElem":
        """A class document of theory gw, without generators or quotient."""
        x = SymClass.from_obj(obj)
        for field, want in (("theory", "gw"), ("gens", []),
                            ("quotient", False)):
            if obj.get(field, want) != want:
                raise ValueError("%s must be %s in a coefficient-ring class, "
                                 "got %s" % (field, json.dumps(want),
                                             quoted(json.dumps(obj[field]))))
        return GWElem(x.poly)


def check_coefficient_identities() -> VerificationReport:
    """Defining relations, hyperbolic-unit identities, multiplicativity of
    n*, and the localization witness identities for omega(n)."""
    rep = VerificationReport("coefficient-ring")
    h, tau, gamma, eps = (GWElem.h(), GWElem.tau(), GWElem.gamma(),
                          GWElem.eps())

    rep.add(check("tau_sq", ("h^2",), h * h == 2 * h, h * h, 2 * h))
    rep.add(check("tau_sq", ("h*tau",), h * tau == 2 * tau))
    rep.add(check("tau_sq", ("tau^2",), tau * tau == 2 * gamma * h,
                  tau * tau, 2 * gamma * h))

    for i in range(-4, 5):
        lhs = (1 + eps) * GWElem.hyperbolic_unit(i)
        rep.add(check("2_sigma", (i,), lhs.is_zero(), lhs, "0"))

    for i in range(-4, 5):
        for j in range(-4, 5):
            lhs = GWElem.hyperbolic_unit(i) * GWElem.hyperbolic_unit(j)
            rhs = 2 * GWElem.hyperbolic_unit(i + j)
            rep.add(check("product_h", (i, j), lhs == rhs, lhs, rhs))

    # projection formula h_{2i}(1) * b = rank(b) * h_{2(i+j)}(1) for
    # homogeneous b of degree 2j
    samples = [GWElem.from_int(1), eps, tau, gamma, tau * gamma,
               h * gamma ** 2, GWElem.minus_one_class()]
    for i in range(-2, 3):
        for b in samples:
            j = b.degree() // 2
            lhs = GWElem.hyperbolic_unit(i) * b
            rhs = b.rank() * GWElem.hyperbolic_unit(i + j)
            rep.add(check("proj_h", (i, b.text()), lhs == rhs, lhs, rhs))

    for m in range(0, 7):
        for n in range(0, 7):
            lhs = GWElem.n_star(m * n)
            rhs = GWElem.n_star(m) * GWElem.n_star(n)
            rep.add(check("n_star_mult", (m, n), lhs == rhs, lhs, rhs))

    rep.extend(localization_witnesses())
    return rep


def localization_witnesses() -> list:
    """Report entries for omega(n)*(m(1+eps)+eps^m) = gamma^m n^2 (-1)^m at
    odd n = 2m+1 and omega(n)^2 = n^3 n* gamma^{n-1} at even n, n = 2..9."""
    from .borel import omega_recursive  # deferred: borel builds on this module
    out = []
    eps, gamma = GWElem.eps(), GWElem.gamma()
    for n in range(2, 10):
        w = omega_recursive(n)
        if n % 2:
            m = (n - 1) // 2
            lhs = w * (m * (1 + eps) + eps ** m)
            rhs = gamma ** m * (n * n) * ((-1) ** m)
            out.append(check("omega_loc_odd", (n,), lhs == rhs, lhs, rhs))
        else:
            lhs = w * w
            rhs = (n ** 3) * GWElem.n_star(n) * gamma ** (n - 1)
            out.append(check("omega_sq", (n,), lhs == rhs, lhs, rhs))
    return out
