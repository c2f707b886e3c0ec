"""The graded coefficient ring Z[eps, tau, gamma^{±1}] modulo the relations

    eps^2 = 1,   eps*tau = -tau,   tau^2 = 2*gamma*(1 - eps),

with grading weights eps -> 0, tau -> 2, gamma -> 4.  Elements are kept in
the canonical normal form a(gamma) + b(gamma)*eps + c(gamma)*tau.
"""

from __future__ import annotations

import json

from .polyring import GradingError, MultiPoly, Ring, read_int
from .report import VerificationReport, check

COEFF_VARS = [("eps", False), ("tau", False), ("gamma", True)]
COEFF_RING = Ring(COEFF_VARS)

WEIGHTS = {"eps": 0, "tau": 2, "gamma": 4}


def normalize(poly: MultiPoly) -> MultiPoly:
    """Rewrite to normal form in any ring containing eps, tau, gamma.

    Extra variables (u-generators etc.) ride along untouched.  The rewrite
    system {eps^2 -> 1, tau^2 -> 2*gamma - 2*eps*gamma, eps*tau -> -tau}
    terminates because each step lowers (tau-exponent, eps-exponent)
    lexicographically.
    """
    ring = poly.ring
    ie, it, ig = ring.index("eps"), ring.index("tau"), ring.index("gamma")
    out: dict = {}
    stack = list(poly.terms.items())
    while stack:
        exps, c = stack.pop()
        a, b = exps[ie], exps[it]
        if a >= 2:
            e = list(exps)
            e[ie] = a % 2
            stack.append((tuple(e), c))
        elif b >= 2:
            e = list(exps)
            e[it] = b - 2
            e[ig] += 1
            stack.append((tuple(e), 2 * c))
            e2 = list(e)
            e2[ie] += 1
            stack.append((tuple(e2), -2 * c))
        elif a == 1 and b == 1:
            e = list(exps)
            e[ie] = 0
            stack.append((tuple(e), -c))
        else:
            s = out.get(exps, 0) + c
            if s:
                out[exps] = s
            elif exps in out:
                del out[exps]
    return MultiPoly(ring, out)


class GWElem:
    """Coefficient-ring element in canonical normal form."""

    __slots__ = ("poly",)

    def __init__(self, poly: MultiPoly):
        if poly.ring != COEFF_RING:
            poly = poly.rename(COEFF_RING)
        self.poly = normalize(poly)

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

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return GWElem.from_int(other)
        if isinstance(other, GWElem):
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GWElem(self.poly + other.poly)

    __radd__ = __add__

    def __neg__(self):
        return GWElem(-self.poly)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GWElem(self.poly - other.poly)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GWElem(self.poly * other.poly)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported")
        out = GWElem.from_int(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = GWElem.from_int(other)
        return isinstance(other, GWElem) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    # -- grading and rank ---------------------------------------------------

    def degree(self):
        """Common weighted degree, or None when inhomogeneous."""
        return self.poly.graded_degree(WEIGHTS)

    def is_homogeneous(self) -> bool:
        return self.degree() is not None

    def rank(self) -> int:
        if not self.is_homogeneous():
            raise GradingError("rank requires a homogeneous element: %s" % self)
        z = Ring([])
        img = self.poly.substitute(
            {"eps": z.const(-1), "tau": z.const(2), "gamma": z.one()}, z)
        return img.const_value()

    # -- rendering / JSON ---------------------------------------------------

    def text(self) -> str:
        return self.poly.text()

    def latex(self) -> str:
        return self.poly.latex()

    def __str__(self):
        return self.text()

    def __repr__(self):
        return "GWElem(%s)" % self.text()

    def components(self) -> dict:
        """Split into homogeneous components, degree -> GWElem."""
        buckets: dict[int, dict] = {}
        for exps, c in self.poly.terms.items():
            d = sum(e * WEIGHTS[n] for e, n in zip(exps, COEFF_RING.names))
            buckets.setdefault(d, {})[exps] = c
        return {d: GWElem(MultiPoly(COEFF_RING, t))
                for d, t in sorted(buckets.items())}

    def to_obj(self) -> dict:
        comps = []
        for d, part in self.components().items():
            ab: dict[str, dict[int, int]] = {"a": {}, "b": {}, "c": {}}
            for exps, coeff in part.poly.terms.items():
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

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_obj(obj: dict) -> "GWElem":
        poly = COEFF_RING.zero()
        for comp in obj["components"]:
            gmin = read_int(comp.get("gmin", 0), "gmin")
            for key, (ea, eb) in (("a", (0, 0)), ("b", (1, 0)), ("c", (0, 1))):
                for k, coeff in enumerate(comp.get(key, [])):
                    coeff = read_int(coeff, "a coefficient")
                    if coeff:
                        poly = poly + MultiPoly(
                            COEFF_RING, {(ea, eb, gmin + k): coeff})
        return GWElem(poly)

    @staticmethod
    def from_json(s: str) -> "GWElem":
        return GWElem.from_obj(json.loads(s))


def check_coefficient_identities(i_bound: int = 4, mn_bound: int = 6,
                                 loc_bound: int = 9) -> VerificationReport:
    """Defining relations, hyperbolic-unit identities, multiplicativity of
    n*, and the localization witness identities for omega(n)."""
    rep = VerificationReport("coefficient-ring")
    h, tau, gamma, eps = (GWElem.h(), GWElem.tau(), GWElem.gamma(),
                          GWElem.eps())

    rep.add(check("tau_sq", ("h^2",), h * h == 2 * h, (h * h).text(), (2 * h).text()))
    rep.add(check("tau_sq", ("h*tau",), h * tau == 2 * tau))
    rep.add(check("tau_sq", ("tau^2",), tau * tau == 2 * gamma * h,
                  (tau * tau).text(), (2 * gamma * h).text()))

    for i in range(-i_bound, i_bound + 1):
        lhs = (1 + eps) * GWElem.hyperbolic_unit(i)
        rep.add(check("2_sigma", (i,), lhs.is_zero(), lhs.text(), "0"))

    for i in range(-i_bound, i_bound + 1):
        for j in range(-i_bound, i_bound + 1):
            lhs = GWElem.hyperbolic_unit(i) * GWElem.hyperbolic_unit(j)
            rhs = 2 * GWElem.hyperbolic_unit(i + j)
            rep.add(check("product_h", (i, j), lhs == rhs, lhs.text(), rhs.text()))

    # projection formula h_{2i}(1) * b = rank(b) * h_{2(i+j)}(1) for
    # homogeneous b of degree 2j
    samples = [GWElem.from_int(1), eps, tau, gamma, tau * gamma,
               h * gamma ** 2, GWElem.minus_one_class()]
    for i in range(-2, 3):
        for b in samples:
            j = b.degree() // 2
            lhs = GWElem.hyperbolic_unit(i) * b
            rhs = b.rank() * GWElem.hyperbolic_unit(i + j)
            rep.add(check("proj_h", (i, b.text()), lhs == rhs,
                          lhs.text(), rhs.text()))

    for m in range(0, mn_bound + 1):
        for n in range(0, mn_bound + 1):
            lhs = GWElem.n_star(m * n)
            rhs = GWElem.n_star(m) * GWElem.n_star(n)
            rep.add(check("n_star_mult", (m, n), lhs == rhs,
                          lhs.text(), rhs.text()))

    rep.extend(localization_witnesses(loc_bound).entries)
    return rep.sort()


def localization_witnesses(loc_bound: int = 9):
    """omega(n)*(m(1+eps)+eps^m) = gamma^m n^2 (-1)^m for odd n = 2m+1, and
    omega(n)^2 = n^3 n* gamma^{n-1} for even n."""
    from .borel import omega_recursive  # deferred: borel builds on this module
    rep = VerificationReport("localization")
    eps, gamma = GWElem.eps(), GWElem.gamma()
    for n in range(2, loc_bound + 1):
        w = omega_recursive(n)
        if n % 2:
            m = (n - 1) // 2
            lhs = w * (m * (1 + eps) + eps ** m)
            rhs = gamma ** m * (n * n) * ((-1) ** m)
            rep.add(check("omega_loc_odd", (n,), lhs == rhs,
                          lhs.text(), rhs.text()))
        else:
            lhs = w * w
            rhs = (n ** 3) * GWElem.n_star(n) * gamma ** (n - 1)
            rep.add(check("omega_sq", (n,), lhs == rhs, lhs.text(), rhs.text()))
    return rep.sort()
