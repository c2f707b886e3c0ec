"""Exact sparse multivariate Laurent polynomial arithmetic over the integers.

Polynomials live in a Ring context: an ordered tuple of named variables, each
flagged as Laurent (negative exponents allowed) or not.  Terms are stored as a
dict mapping exponent tuples to nonzero integer coefficients.  The monomial
order used everywhere is graded lexicographic by declared variable order.

TruncSeries is a truncated power series in a distinguished formal variable t
with MultiPoly coefficients, exact modulo t^(N+1).

The public constructors validate their terms, checking the Laurent flags
only of a term with a negative exponent.  Results of ring operations and
the Ring's constants and variables are valid by construction and skip
validation (MultiPoly._trusted); every
product goes through one multiply-accumulate kernel, _mul_into, which
sum_of_products also uses to accumulate a sum of products in place, and
substitute to multiply out its multi-term bindings.  Text and LaTeX are
written by one term writer, MultiPoly._render.
"""

from __future__ import annotations

import json
import operator
import re
from typing import Iterable, Mapping


class ContextError(ValueError):
    """Operands belong to different ring contexts."""


class ExponentError(ValueError):
    """Negative exponent on a non-Laurent variable."""


class SubstitutionError(ValueError):
    """Invalid binding in a substitution (e.g. non-unit into a Laurent exponent)."""


class InvertibilityError(ValueError):
    """Series inversion requires constant coefficient 1."""


class GradingError(ValueError):
    """Operation required a homogeneous element."""


_DECIMAL = re.compile(r"-?[0-9]+")


def read_int(value, what: str, decimal_str: bool = False) -> int:
    """A JSON integer: a true int (not a bool or a float), or with
    decimal_str also a decimal-integer string such as to_obj writes."""
    if type(value) is int:
        return value
    if decimal_str and isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    raise ValueError("%s must be an integer, got %s" % (what, json.dumps(value)))


def negative_exponent(e: int, ring: "Ring") -> ExponentError:
    """The error for the exponent e < 0 on a non-Laurent variable of ring."""
    return ExponentError("negative exponent %d on non-Laurent variable in %r"
                         % (e, ring))


def read_bool(value, what: str) -> bool:
    """A JSON boolean: true or false, not a number or a string."""
    if type(value) is bool:
        return value
    raise ValueError("%s must be true or false, got %s" % (what, json.dumps(value)))


def read_list(obj: dict, key: str, default=None) -> list:
    """The JSON list obj[key], or default when obj has no key."""
    value = obj.get(key, default)
    if type(value) is list:
        return value
    raise ValueError("%s must be a list" % key)


def read_vars(obj: dict) -> tuple:
    """The (name, laurent) pairs of a polynomial document."""
    return tuple([(v["name"], read_bool(v["laurent"], "laurent"))
                  for v in read_list(obj, "vars")])


def read_terms(obj: dict, nvars: int) -> dict:
    """The nonzero terms of a polynomial document in nvars variables, the
    coefficients of a repeated exponent tuple added."""
    terms: dict = {}
    for t in read_list(obj, "terms"):
        exps = tuple([read_int(e, "an exponent") for e in t["exps"]])
        if len(exps) != nvars:
            raise ValueError("exponent array length mismatch")
        coeff = read_int(t["coeff"], "a coefficient", decimal_str=True)
        terms[exps] = terms.get(exps, 0) + coeff
    return {exps: c for exps, c in terms.items() if c}


class Ring:
    """Ordered variable context.  Immutable; equality by variable data."""

    __slots__ = ("names", "laurent", "_index")

    def __init__(self, variables: Iterable[tuple[str, bool]]):
        vs = tuple(variables)
        names = tuple(name for name, _ in vs)
        if len(set(names)) != len(names):
            raise ContextError("duplicate variable names: %r" % (names,))
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "laurent", tuple(bool(l) for _, l in vs))
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    def __setattr__(self, *a):
        raise AttributeError("Ring is immutable")

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Ring) and self.names == other.names
            and self.laurent == other.laurent)

    def __hash__(self):
        return hash((self.names, self.laurent))

    def __repr__(self):
        return "Ring(%s)" % ", ".join(
            n + ("^±" if l else "") for n, l in zip(self.names, self.laurent))

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ContextError("no variable %r in %r" % (name, self)) from None

    def zero(self) -> "MultiPoly":
        return MultiPoly._trusted(self, {})

    def one(self) -> "MultiPoly":
        return self.const(1)

    def const(self, c: int) -> "MultiPoly":
        return MultiPoly._trusted(self,
                                  {(0,) * self.nvars: int(c)} if c else {})

    def var(self, name: str, exp: int = 1) -> "MultiPoly":
        i = self.index(name)
        if exp < 0 and not self.laurent[i]:
            raise ExponentError("variable %r is not Laurent" % name)
        e = [0] * self.nvars
        e[i] = exp
        return MultiPoly._trusted(self, {tuple(e): 1})

    def monomial(self, coeff: int, exps: Mapping[str, int]) -> "MultiPoly":
        e = [0] * self.nvars
        for name, k in exps.items():
            e[self.index(name)] = k
        return MultiPoly(self, {tuple(e): int(coeff)} if coeff else {})


def grlex_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


class MultiPoly:
    """Sparse polynomial: dict of exponent tuple -> nonzero int coefficient.

    Values are immutable by convention; no method mutates terms after
    construction.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        clean = {}
        for exps, c in terms.items():
            if c == 0:
                continue
            if exps and min(exps) < 0:
                for e, laur in zip(exps, ring.laurent):
                    if e < 0 and not laur:
                        raise negative_exponent(e, ring)
            clean[exps] = c
        self.ring = ring
        self.terms = clean

    @classmethod
    def _trusted(cls, ring: Ring, terms: dict) -> "MultiPoly":
        """Wrap a fresh dict that already holds no zero coefficient and no
        negative exponent on a non-Laurent variable, without re-checking it."""
        self = cls.__new__(cls)
        self.ring = ring
        self.terms = terms
        return self

    # -- basics -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        z = (0,) * self.ring.nvars
        return not self.terms or (len(self.terms) == 1 and z in self.terms)

    def const_value(self) -> int:
        if not self.is_const():
            raise ValueError("not a constant: %s" % self)
        return self.terms.get((0,) * self.ring.nvars, 0)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_const() and self.const_value() == other
        return (isinstance(other, MultiPoly) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def _check_ring(self, other: "MultiPoly"):
        if self.ring != other.ring:
            raise ContextError("mixed ring contexts: %r vs %r"
                               % (self.ring, other.ring))

    def _coerce(self, other):
        if isinstance(other, int):
            return self.ring.const(other)
        if isinstance(other, MultiPoly):
            self._check_ring(other)
            return other
        return NotImplemented

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, 0) + c
            if s:
                out[exps] = s
            elif exps in out:
                del out[exps]
        return MultiPoly._trusted(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._trusted(self.ring,
                                  {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        _mul_into(out, self.terms, other.terms)
        return MultiPoly._trusted(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    # -- structure ----------------------------------------------------------

    def coefficient(self, name: str, exp: int) -> "MultiPoly":
        """Polynomial coefficient of name^exp (variable removed)."""
        i = self.ring.index(name)
        out = {}
        for exps, c in self.terms.items():
            if exps[i] == exp:
                e = exps[:i] + (0,) + exps[i + 1:]
                out[e] = out.get(e, 0) + c
        return MultiPoly(self.ring, out)

    def degree_in(self, name: str) -> int:
        i = self.ring.index(name)
        if not self.terms:
            return 0
        return max(e[i] for e in self.terms)

    def graded_degree(self, weights: tuple):
        """Common weighted degree of all terms, 0 for the zero polynomial,
        or None if inhomogeneous; weights[i] is the weight of variable i."""
        deg = None
        for exps in self.terms:
            d = sum(map(operator.mul, exps, weights))
            if deg is None:
                deg = d
            elif d != deg:
                return None
        return 0 if deg is None else deg

    def substitute(self, bindings: Mapping[str, "MultiPoly"],
                   target: Ring | None = None) -> "MultiPoly":
        """Image under the evaluation homomorphism.

        Bound variables are replaced by the given polynomials (all in the
        target ring); unbound variables must exist in the target ring by name.
        A variable carrying a negative exponent may only be bound to a unit
        monomial (single term, coefficient ±1, Laurent-variable support).

        A zero binding drops every term that uses its variable, a
        single-term binding acts on the exponent vector and the
        coefficient, and only the multi-term bindings are multiplied out:
        once per distinct exponent vector on their variables, sharing the
        products over common prefixes of those vectors.
        """
        if target is None:
            for v in bindings.values():
                target = v.ring
                break
            else:
                target = self.ring
        src = self.ring
        passthrough = []    # (source index, target index)
        zero = []           # variables bound to 0
        mono = []           # (index, nonzero (target index, exponent)s, coeff)
        multi = []          # (index, binding terms)
        bad = {}            # Laurent variable -> error for a negative exponent
        for i, name in enumerate(src.names):
            err = None
            if name not in bindings:
                j = target.index(name)
                passthrough.append((i, j))
                if not target.laurent[j]:
                    err = ExponentError(
                        "variable %r is not Laurent in the target" % name)
            else:
                v = bindings[name]
                if v.ring != target:
                    raise ContextError("binding for %r not in target ring"
                                       % name)
                if len(v.terms) == 1:
                    (e, c), = v.terms.items()
                    mono.append((i, [(j, x) for j, x in enumerate(e) if x], c))
                    if c not in (1, -1):
                        err = SubstitutionError(
                            "unit monomial must have coefficient ±1")
                    elif any(x > 0 and not target.laurent[j]
                             for j, x in enumerate(e)):
                        err = ExponentError("inverse of the binding for %r "
                                            "is not Laurent" % name)
                else:
                    if v.terms:
                        multi.append((i, v.terms))
                    else:
                        zero.append(i)
                    err = SubstitutionError(
                        "need a unit monomial for %r, got %d terms"
                        % (name, len(v.terms)))
            if err and src.laurent[i]:  # only these have negative exponents
                bad[i] = err
        terms = self.terms
        if any(e[i] < 0 for i in bad for e in terms):
            # the first offending term, passthrough variables before bound ones
            order = sorted(bad, key=lambda i: (src.names[i] in bindings, i))
            for e in terms:
                for i in order:
                    if e[i] < 0:
                        raise bad[i]

        # each term's monomial image, grouped by its exponents on `multi`
        nt = target.nvars
        groups: dict = {}
        for exps, c in terms.items():
            if zero and any(exps[i] for i in zero):
                continue
            te = [0] * nt
            for i, j in passthrough:
                te[j] = exps[i]
            for i, ev, cv in mono:
                k = exps[i]
                if k:
                    for j, x in ev:
                        te[j] += k * x
                    if cv != 1:     # a unit when k < 0
                        c *= cv ** abs(k)
            key = tuple([exps[i] for i, _ in multi])
            group = groups.get(key)
            if group is None:
                group = groups[key] = {}
            te = tuple(te)
            s = group.get(te, 0) + c
            if s:
                group[te] = s
            else:
                del group[te]
        if not multi:
            return MultiPoly._trusted(target, groups.get((), {}))

        # powers of each multi-term binding, grown one factor at a time
        one = {(0,) * nt: 1}
        powers = [[one, v] for _, v in multi]

        def power(p: int, k: int) -> dict:
            table = powers[p]
            while len(table) <= k:
                nxt: dict = {}
                _mul_into(nxt, table[-1], table[1])
                table.append(nxt)
            return table[k]

        # depth-first over the sorted exponent vectors: stack[d] is the
        # product of the first d factors of the previous vector
        out: dict = {}
        prev: tuple = ()
        stack = [one]
        for key in sorted(groups):
            group = groups[key]
            if not group:
                continue
            d = 0
            while d < len(prev) and key[d] == prev[d]:
                d += 1
            del stack[d + 1:]
            for p in range(d, len(key)):
                k, base = key[p], stack[-1]
                if k:
                    f = power(p, k)
                    if base is not one:
                        acc: dict = {}
                        _mul_into(acc, base, f)
                        f = acc
                    base = f
                stack.append(base)
            prev = key
            _mul_into(out, group, stack[-1])
        return MultiPoly._trusted(target, out)

    def rename(self, target: Ring,
               mapping: Mapping[str, str] | None = None) -> "MultiPoly":
        """Embed into another ring by variable name (or an explicit rename map)."""
        pos = []
        for i, name in enumerate(self.ring.names):
            new = mapping.get(name, name) if mapping else name
            used = any(e[i] for e in self.terms)
            if new not in target._index:
                if used:
                    raise ContextError("variable %r absent from target" % new)
                pos.append(None)
            else:
                pos.append(target.index(new))
        out = {}
        for exps, c in self.terms.items():
            te = [0] * target.nvars
            for i, j in enumerate(pos):
                if exps[i]:
                    te[j] = exps[i]
            key = tuple(te)
            out[key] = out.get(key, 0) + c
        return MultiPoly(target, out)

    # -- rendering ----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]),
                      reverse=True)

    def _render(self, names, power: str, glue: str) -> str:
        """The terms in descending graded-lex order, joined by signed_join.
        A term is its |coefficient|, left out when it is 1 and the term has
        factors, then its factors, all glue-joined; the factor of variable
        i with exponent e is names[i] for e = 1, power % (names[i], e)
        otherwise."""
        parts = []
        for exps, c in self.sorted_terms():
            body = [s if e == 1 else power % (s, e)
                    for s, e in zip(names, exps) if e]
            if abs(c) != 1 or not body:
                body.insert(0, str(abs(c)))
            parts.append(("-" if c < 0 else "") + glue.join(body))
        return signed_join(parts)

    def text(self) -> str:
        return self._render(self.ring.names, "%s^%d", "*")

    def latex(self) -> str:
        return self._render([_latex_name(n) for n in self.ring.names],
                            "%s^{%d}", "")

    def __str__(self):
        return self.text()

    def __repr__(self):
        return "MultiPoly(%s)" % self.text()

    # -- JSON ---------------------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "vars": [{"name": n, "laurent": l}
                     for n, l in zip(self.ring.names, self.ring.laurent)],
            "terms": [{"coeff": str(c), "exps": list(e)}
                      for e, c in self.sorted_terms()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_obj(obj: dict) -> "MultiPoly":
        ring = Ring(read_vars(obj))
        return MultiPoly(ring, read_terms(obj, ring.nvars))

    @staticmethod
    def from_json(s: str) -> "MultiPoly":
        return MultiPoly.from_obj(json.loads(s))


_LATEX_SPECIALS = {
    "eps": r"\epsilon", "tau": r"\tau", "gamma": r"\gamma", "beta": r"\beta",
    "sigma": r"\sigma",
}


def _latex_name(name: str) -> str:
    if name in _LATEX_SPECIALS:
        return _LATEX_SPECIALS[name]
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    if tail:
        return "%s_{%s}" % (head, tail)
    return name


def signed_join(parts: list) -> str:
    """Signed terms joined as 'a - b + c'; '0' when there are none."""
    if not parts:
        return "0"
    return parts[0] + "".join(" - " + p[1:] if p[0] == "-" else " + " + p
                              for p in parts[1:])


def _mul_into(out: dict, a: dict, b: dict) -> None:
    """out += a*b on term dicts, deleting the terms that cancel to zero.
    The shorter operand drives the outer loop."""
    if len(a) > len(b):
        a, b = b, a
    add, get = operator.add, out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:           # c1*c2 != 0, so e was present
                del out[e]


def sum_of_products(ring: Ring, triples) -> MultiPoly:
    """sum of c * a * b over (c, a, b) in triples, c an int and a, b
    polynomials of the ring, accumulated into one term dict."""
    out: dict = {}
    for c, a, b in triples:
        if a.ring != ring or b.ring != ring:
            raise ContextError("product of %r and %r outside %r"
                               % (a.ring, b.ring, ring))
        if c:
            at, bt = sorted((a.terms, b.terms), key=len)
            if c != 1:      # scale the shorter operand
                at = {e: c * x for e, x in at.items()}
            _mul_into(out, at, bt)
    return MultiPoly._trusted(ring, out)


class TruncSeries:
    """Polynomial in t modulo t^(N+1), with MultiPoly coefficients."""

    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring: Ring, order: int, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) > order + 1:
            coeffs = coeffs[:order + 1]
        while len(coeffs) < order + 1:
            coeffs.append(ring.zero())
        for c in coeffs:
            if c.ring != ring:
                raise ContextError("series coefficient in wrong ring")
        self.ring = ring
        self.order = order
        self.coeffs = tuple(coeffs)

    @staticmethod
    def one(ring: Ring, order: int) -> "TruncSeries":
        return TruncSeries(ring, order, [ring.one()])

    def __eq__(self, other):
        return (isinstance(other, TruncSeries) and self.ring == other.ring
                and self.order == other.order and self.coeffs == other.coeffs)

    def __getitem__(self, n: int) -> MultiPoly:
        return self.coeffs[n]

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.order, other.order)
        return TruncSeries(self.ring, n,
                           [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if self.ring != other.ring:
            raise ContextError("mixed ring contexts in series_mul")
        n = min(self.order, other.order)
        out = []
        for k in range(n + 1):
            acc: dict = {}
            for i in range(k + 1):
                a, b = self.coeffs[i], other.coeffs[k - i]
                if a and b:
                    _mul_into(acc, a.terms, b.terms)
            out.append(MultiPoly._trusted(self.ring, acc))
        return TruncSeries(self.ring, n, out)

    def inverse(self) -> "TruncSeries":
        if self.coeffs[0] != self.ring.one():
            raise InvertibilityError("constant coefficient must be 1")
        inv = [self.ring.one()]
        for k in range(1, self.order + 1):
            acc: dict = {}
            for i in range(1, k + 1):
                if self.coeffs[i]:
                    _mul_into(acc, self.coeffs[i].terms, inv[k - i].terms)
            inv.append(MultiPoly._trusted(
                self.ring, {e: -c for e, c in acc.items()}))
        return TruncSeries(self.ring, self.order, inv)

    def __pow__(self, n: int) -> "TruncSeries":
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = TruncSeries.one(self.ring, self.order)
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __repr__(self):
        return "TruncSeries([%s]; O(t^%d))" % (
            ", ".join(str(c) for c in self.coeffs), self.order + 1)
