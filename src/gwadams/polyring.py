"""Exact sparse multivariate Laurent polynomial arithmetic over the integers.

Polynomials live in a Ring context: an ordered tuple of named variables, each
flagged as Laurent (negative exponents allowed) or not.  Ring keeps one
instance per variable list, so two contexts are the same exactly when they
are the same object, and every context check is an identity test.  Terms
are stored as a dict mapping packed monomials to nonzero integer
coefficients.  The monomial order used everywhere is graded lexicographic
by declared variable order.

A packed monomial is one int with a FIELD_BITS-bit field per variable, the
first variable in the most significant field.  A field holds the exponent
in its low 32 bits, offset by 2^31 for a Laurent variable, under a guard
byte that is 0 in every valid monomial.  So a variable's exponent lies in
0..2^32-1, or in -2^31..2^31-1 for a Laurent one; int order is the
lexicographic order of the exponent vectors; and the product of monomials
is the sum of their ints less ring.bias, the int of the monomial 1.  A
product that leaves a field's range sets its guard byte (a carry or a
borrow), so the guard test raises ExponentError and never lets a field
carry silently into the next.  Exponent tuples appear only at the
boundaries: Ring.pack and Ring.unpack, Ring.monomial, MultiPoly.from_exps,
parsing, the tuple view MultiPoly.tuple_terms, sorted_terms for rendering
and to_obj.

TruncSeries is a truncated power series in a distinguished formal variable t
with MultiPoly coefficients, exact modulo t^(N+1).

The public constructors validate their terms: the guard test on each
monomial.  Results of ring operations and the Ring's constants and
variables are valid by construction and skip validation
(MultiPoly._trusted); every product goes through one multiply-accumulate
kernel, _mul_into, which sum_of_products also uses to accumulate a sum of
products in place, and MultiPoly.substitute, the one substitution kernel
(renames, the maps between theories and psi^k all go through it), to
multiply each group of terms by the powers of its multi-term bindings.
Every power, of a MultiPoly (so of such a binding) or of a TruncSeries (a
negative one through its inverse), is one square-and-multiply loop,
_power.  Text and LaTeX are written by one term writer, MultiPoly._render.
"""

from __future__ import annotations

import json
import operator
import re
from functools import reduce
from itertools import repeat
from struct import Struct, error as StructError
from typing import Iterable, Mapping

FIELD_BITS = 40
EXP_MASK = (1 << 32) - 1        # the exponent bits of a field
_LAURENT_OFFSET = 1 << 31
_GUARD = ((1 << FIELD_BITS) - 1) ^ EXP_MASK


class ContextError(ValueError):
    """Operands belong to different ring contexts."""


class ExponentError(ValueError):
    """Negative exponent on a non-Laurent variable, or an exponent outside
    the range of its packed field."""


class SubstitutionError(ValueError):
    """Invalid binding in a substitution (e.g. non-unit into a Laurent exponent)."""


class InvertibilityError(ValueError):
    """Series inversion requires constant coefficient 1."""


class GradingError(ValueError):
    """Operation required a homogeneous element."""


_DECIMAL = re.compile(r"-?[0-9]+")


def quoted(x) -> str:
    """str(x) for an error message, cut after 200 characters."""
    s = str(x)
    return s if len(s) <= 200 else s[:200] + "... (%d characters)" % len(s)


def read_int(value, what: str, decimal_str: bool = False) -> int:
    """A JSON integer: a true int (not a bool or a float), or with
    decimal_str also a decimal-integer string such as to_obj writes."""
    if type(value) is int:
        return value
    if decimal_str and isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    raise ValueError("%s must be an integer, got %s"
                     % (what, quoted(json.dumps(value))))


def negative_exponent(e: int, ring: "Ring") -> ExponentError:
    """The error for the exponent e < 0 on a non-Laurent variable of ring."""
    return ExponentError("negative exponent %d on non-Laurent variable in %r"
                         % (e, ring))


def out_of_range(ring: "Ring") -> ExponentError:
    """The error for a monomial of ring whose exponents leave their
    fields."""
    return ExponentError(
        "exponent outside its packed field in %r: each exponent lies in "
        "0..%d, or in %d..%d for a Laurent variable"
        % (ring, EXP_MASK, -_LAURENT_OFFSET, _LAURENT_OFFSET - 1))


def read_bool(value, what: str) -> bool:
    """A JSON boolean: true or false, not a number or a string."""
    if type(value) is bool:
        return value
    raise ValueError("%s must be true or false, got %s"
                     % (what, quoted(json.dumps(value))))


def read_list(obj: dict, key: str, default=None) -> list:
    """The JSON list obj[key], or default when obj has no key."""
    value = obj.get(key, default)
    if type(value) is list:
        return value
    raise ValueError("%s must be a list" % key)


_RINGS: dict = {}      # ((name, laurent), ...) -> its one Ring


class Ring:
    """Ordered variable context and its monomial layout.  Immutable, and
    one shared instance per variable list: Ring(variables) returns the
    ring built for an equal list before, so rings compare and hash by
    identity.

    shifts[i] and offsets[i] place variable i: its exponent e is stored as
    e + offsets[i] at bit shifts[i].  bias is the monomial 1 and guard the
    guard bytes of all fields."""

    __slots__ = ("names", "laurent", "_index", "shifts", "offsets",
                 "bias", "guard", "_struct")

    def __new__(cls, variables: Iterable[tuple[str, bool]]):
        key = tuple((name, bool(l)) for name, l in variables)
        self = _RINGS.get(key)
        if self is not None:
            return self
        names = tuple(name for name, _ in key)
        if len(set(names)) != len(names):
            raise ContextError("duplicate variable names: %s"
                               % quoted(repr(names)))
        laurent = tuple(l for _, l in key)
        n = len(names)
        shifts = tuple(FIELD_BITS * (n - 1 - i) for i in range(n))
        offsets = tuple(_LAURENT_OFFSET if l else 0 for l in laurent)
        fields = {"names": names, "laurent": laurent,
                  "_index": {name: i for i, name in enumerate(names)},
                  "shifts": shifts, "offsets": offsets,
                  "bias": sum(o << s for o, s in zip(offsets, shifts)),
                  "guard": sum(_GUARD << s for s in shifts),
                  # a guard byte, then the exponent: signed where Laurent,
                  # once its offset bit is flipped
                  "_struct": Struct(">" + "".join("xi" if l else "xI"
                                                  for l in laurent))}
        self = super().__new__(cls)
        for field, value in fields.items():
            object.__setattr__(self, field, value)
        _RINGS[key] = self
        return self

    def __setattr__(self, *a):
        raise AttributeError("Ring is immutable")

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

    def step(self, name: str) -> int:
        """The packed monomial of name^1 less the monomial 1: adding it to
        a monomial raises the exponent of name by one."""
        return 1 << self.shifts[self.index(name)]

    def check_exponent(self, i: int, e: int) -> None:
        """Raise ExponentError unless e fits the field of variable i."""
        if 0 <= e + self.offsets[i] <= EXP_MASK:
            return
        if not self.laurent[i] and e < 0:
            raise negative_exponent(e, self)
        lo = -self.offsets[i]
        raise ExponentError("exponent %d of %s outside %d..%d, the range of "
                            "a%s variable" % (e, self.names[i], lo,
                                              lo + EXP_MASK,
                                              " Laurent" if lo else ""))

    def pack(self, exps) -> int:
        """The packed monomial of an exponent tuple, each exponent checked
        against its variable's range."""
        try:
            return int.from_bytes(self._struct.pack(*exps), "big") ^ self.bias
        except StructError:
            for i, e in enumerate(exps):
                self.check_exponent(i, e)
            raise ValueError("need %d integer exponents, got %r"
                             % (self.nvars, exps)) from None

    def unpack(self, key: int) -> tuple:
        """The exponent tuple of a packed monomial."""
        return self._struct.unpack((key ^ self.bias).to_bytes(
            self._struct.size, "big"))

    def unpack_all(self, keys) -> list:
        """The exponent tuples of packed monomials, all unpacked from one
        buffer."""
        size = self._struct.size
        if not size:
            return [()] * len(keys)
        flipped = map(operator.xor, keys, repeat(self.bias))
        return list(self._struct.iter_unpack(b"".join(map(
            int.to_bytes, flipped, repeat(size), repeat("big")))))

    def zero(self) -> "MultiPoly":
        return MultiPoly._trusted(self, {})

    def one(self) -> "MultiPoly":
        return self.const(1)

    def const(self, c: int) -> "MultiPoly":
        return MultiPoly._trusted(self, {self.bias: int(c)} if c else {})

    def var(self, name: str, exp: int = 1) -> "MultiPoly":
        i = self.index(name)
        if exp < 0 and not self.laurent[i]:
            raise ExponentError("variable %r is not Laurent" % name)
        if not 0 <= exp + self.offsets[i] <= EXP_MASK:
            self.check_exponent(i, exp)
        return MultiPoly._trusted(self,
                                  {self.bias + (exp << self.shifts[i]): 1})

    def monomial(self, coeff: int, exps: Mapping[str, int]) -> "MultiPoly":
        e = [0] * self.nvars
        for name, k in exps.items():
            e[self.index(name)] = k
        return MultiPoly.from_exps(self, {tuple(e): int(coeff)})


class MultiPoly:
    """Sparse polynomial: dict of packed monomial -> nonzero int coefficient.

    Values are immutable by convention; no method mutates terms after
    construction.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        guard = ring.guard
        clean = {}
        for key, c in terms.items():
            if c:
                if key & guard:
                    raise out_of_range(ring)
                clean[key] = c
        self.ring = ring
        self.terms = clean

    @classmethod
    def _trusted(cls, ring: Ring, terms: dict) -> "MultiPoly":
        """Wrap a fresh dict that already holds no zero coefficient and only
        valid monomials, without re-checking it."""
        self = cls.__new__(cls)
        self.ring = ring
        self.terms = terms
        return self

    @classmethod
    def from_exps(cls, ring: Ring, terms: Mapping[tuple, int]) -> "MultiPoly":
        """The polynomial of a dict exponent tuple -> coefficient, each
        tuple checked by Ring.pack."""
        pack = ring.pack
        return cls._trusted(ring, {pack(e): c for e, c in terms.items() if c})

    def tuple_terms(self) -> dict:
        """The terms as a dict exponent tuple -> coefficient."""
        return dict(zip(self.ring.unpack_all(self.terms),
                        self.terms.values()))

    # -- basics -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1
                                  and self.ring.bias in self.terms)

    def const_value(self) -> int:
        if not self.is_const():
            raise ValueError("not a constant: %s" % self)
        return self.terms.get(self.ring.bias, 0)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_const() and self.const_value() == other
        return (isinstance(other, MultiPoly)
                and self.ring is other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.ring is not self.ring:
                raise ContextError("mixed ring contexts: %r vs %r"
                                   % (self.ring, other.ring))
            return other
        if isinstance(other, int):
            return self.ring.const(other)
        return NotImplemented

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            elif key in out:
                del out[key]
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
        _mul_into(self.ring, out, self.terms, other.terms)
        return MultiPoly._trusted(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        return _power(self, n, self.ring.one())

    # -- structure ----------------------------------------------------------

    def support(self) -> set:
        """The indices of the variables with a nonzero exponent in some
        term.  A field is the same in every term exactly where its OR and
        its AND over the terms agree with the offset."""
        if not self.terms:
            return set()
        ring = self.ring
        hi = reduce(operator.or_, self.terms)
        lo = reduce(operator.and_, self.terms)
        return {i for i, (s, off) in enumerate(zip(ring.shifts, ring.offsets))
                if hi >> s & EXP_MASK != off or lo >> s & EXP_MASK != off}

    def coefficient(self, name: str, exp: int) -> "MultiPoly":
        """Polynomial coefficient of name^exp (variable removed)."""
        ring = self.ring
        i = ring.index(name)
        s = ring.shifts[i]
        field, shift = exp + ring.offsets[i], exp << s
        return MultiPoly._trusted(ring, {
            key - shift: c for key, c in self.terms.items()
            if key >> s & EXP_MASK == field})

    def degree_in(self, name: str) -> int:
        ring = self.ring
        i = ring.index(name)
        if not self.terms:
            return 0
        s = ring.shifts[i]
        return max(key >> s & EXP_MASK for key in self.terms) - ring.offsets[i]

    def graded_degree(self, weights: tuple):
        """Common weighted degree of all terms, 0 for the zero polynomial,
        or None if inhomogeneous; weights[i] is the weight of variable i."""
        deg = None
        for exps in self.ring.unpack_all(self.terms):
            d = sum(map(operator.mul, exps, weights))
            if deg is None:
                deg = d
            elif d != deg:
                return None
        return 0 if deg is None else deg

    def substitute(self, bindings: Mapping[str, "MultiPoly"],
                   target: Ring) -> "MultiPoly":
        """Image under the evaluation homomorphism.

        Bound variables are replaced by the given polynomials (all in the
        target ring); unbound variables must exist in the target ring by name.
        A variable carrying a negative exponent may only be bound to a unit
        monomial (single term, coefficient ±1, Laurent-variable support):
        else its error is raised at the first term that carries one,
        unbound variables before bound ones.

        A zero binding drops every term that uses its variable.  An unbound
        variable is the single-term image of itself in the target, and a
        single-term image adds a multiple of its exponent vector to the
        monomial and scales the coefficient.  Only the multi-term bindings
        are multiplied out: once per distinct exponent vector on their
        variables, each power raised by _power once.
        """
        src, terms = self.ring, self.terms
        zmask = zero = 0    # the fields of the variables bound to 0, at 0
        mmask = 0           # the fields of the multi-term bindings' variables
        mono = []           # (shift, offset, image monomial less 1, coeff)
        multi = []          # (shift, offset, binding)
        bad = []            # ((bound, index), error type, message)
        for i, name in enumerate(src.names):
            s, off, v = src.shifts[i], src.offsets[i], bindings.get(name)
            if v is None:
                j = target.index(name)
                mono.append((s, off, 1 << target.shifts[j], 1))
            elif v.ring is not target:
                raise ContextError("binding for %r not in target ring" % name)
            elif len(v.terms) == 1:
                (key, c), = v.terms.items()
                mono.append((s, off, key - target.bias, c))
            elif v.terms:
                multi.append((s, off, v))
                mmask |= EXP_MASK << s
            else:
                zmask |= EXP_MASK << s
                zero |= off << s
            if src.laurent[i]:  # only these have negative exponents
                err = _negative_exponent_error(name, v, target)
                if err:
                    bad.append(((v is not None, i), *err))
        if not terms:
            return target.zero()
        if bad:
            # a Laurent exponent is negative where its field's top bit is clear
            bad = [(src.shifts[i] + 31, exc, msg)
                   for (_, i), exc, msg in sorted(bad)]
            for key in terms:
                for bit, exc, msg in bad:
                    if not key >> bit & 1:
                        raise exc(msg)

        # each term's monomial image, grouped by its exponents on the
        # multi-term bindings' variables
        scales = _scales(mono, terms, target)
        bias, guard = target.bias, target.guard
        groups: dict = {}
        for key, c in terms.items():
            if key & zmask != zero:
                continue
            te = bias
            for s, off, step, cv in scales:
                k = (key >> s & EXP_MASK) - off
                if k:
                    te += k * step
                    if cv != 1:     # a unit when k < 0
                        c *= cv ** abs(k)
            if te & guard:
                raise out_of_range(target)
            g = key & mmask
            group = groups.get(g)
            if group is None:
                group = groups[g] = {}
            s = group.get(te, 0) + c
            if s:
                group[te] = s
            else:
                del group[te]
        if not multi:
            return MultiPoly._trusted(target, groups.get(0, {}))

        # each group times the product of its bindings' powers; powers[p]
        # maps k to binding p ** k
        powers: list = [{} for _ in multi]
        out: dict = {}
        for g, group in groups.items():
            if not group:
                continue
            factor = None
            for (s, off, v), memo in zip(multi, powers):
                k = (g >> s & EXP_MASK) - off
                if k:
                    f = memo.get(k)
                    if f is None:
                        f = memo[k] = v ** k
                    factor = f if factor is None else factor * f
            _mul_into(target, out, group,
                      {bias: 1} if factor is None else factor.terms)
        return MultiPoly._trusted(target, out)

    def rename(self, target: Ring,
               mapping: Mapping[str, str] | None = None) -> "MultiPoly":
        """Embed into another ring by variable name (or an explicit rename
        map): the substitution that passes each kept variable through, binds
        each renamed one to its new name and each unused one that target
        lacks to 1."""
        used = self.support()
        bindings = {}
        for i, name in enumerate(self.ring.names):
            new = mapping.get(name, name) if mapping else name
            if new not in target._index:
                if i in used:
                    raise ContextError("variable %r absent from target" % new)
                bindings[name] = target.one()
            elif new != name:
                bindings[name] = target.var(new)
        try:
            return self.substitute(bindings, target)
        except ExponentError:
            # substitute names the variable or binding that carries a
            # negative exponent into a non-Laurent variable; a rename reports
            # it by the field's bounds, as any exponent that leaves its field
            raise out_of_range(target) from None

    # -- rendering ----------------------------------------------------------

    def sorted_terms(self):
        """(exponent tuple, coefficient) pairs in descending graded-lex
        order."""
        exps = self.ring.unpack_all(self.terms)
        rows = sorted(zip(map(sum, exps), exps, self.terms.values()),
                      reverse=True)
        return [(e, c) for _, e, c in rows]

    def _render(self, names, power: str, glue: str) -> str:
        """The terms in descending graded-lex order, joined by signed_join.
        A term is its |coefficient|, left out when it is 1 and the term has
        factors, then its factors, all glue-joined; the factor of variable
        i with exponent e is names[i] for e = 1, power % (names[i], e)
        otherwise."""
        factors = [{1: s} for s in names]   # exponent -> factor, per variable
        parts = []
        for exps, c in self.sorted_terms():
            body = [f[e] if e in f else f.setdefault(e, power % (s, e))
                    for f, s, e in zip(factors, names, exps) if e]
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
        """The polynomial of a document {"vars": [{"name", "laurent"}],
        "terms": [{"coeff", "exps"}]}, the coefficients of a repeated
        exponent tuple added; ValueError names the first bad field."""
        if not isinstance(obj, dict):
            raise ValueError("a polynomial document must be a JSON object")
        variables = []
        for v in read_list(obj, "vars"):
            if not isinstance(v, dict):
                raise ValueError("each var must be a JSON object")
            if not isinstance(v.get("name"), str):
                raise ValueError("name must be a string, got %s"
                                 % quoted(json.dumps(v.get("name"))))
            variables.append((v["name"], read_bool(v.get("laurent"),
                                                   "laurent")))
        ring = Ring(variables)
        terms: dict = {}
        for t in read_list(obj, "terms"):
            if not isinstance(t, dict):
                raise ValueError("each term must be a JSON object")
            exps = tuple([read_int(e, "an exponent")
                          for e in read_list(t, "exps")])
            if len(exps) != ring.nvars:
                raise ValueError("exponent array length mismatch")
            coeff = read_int(t.get("coeff"), "a coefficient",
                             decimal_str=True)
            terms[exps] = terms.get(exps, 0) + coeff
        return MultiPoly.from_exps(ring, terms)

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


def _mul_into(ring: Ring, out: dict, a: dict, b: dict) -> None:
    """out += a*b on term dicts of ring, deleting the terms that cancel to
    zero.  The shorter operand drives the outer loop; a product monomial
    that leaves its fields raises ExponentError."""
    if len(a) > len(b):
        a, b = b, a
    bias, guard, get = ring.bias, ring.guard, out.get
    for e1, c1 in a.items():
        e1 -= bias
        for e2, c2 in b.items():
            e = e1 + e2
            if e & guard:
                raise out_of_range(ring)
            s = get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:           # c1*c2 != 0, so e was present
                del out[e]


def _power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply, the first factor taken
    as it is; one, the identity of base's multiplication, is base ** 0."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return one if result is None else result


def sum_of_products(ring: Ring, triples) -> MultiPoly:
    """sum of c * a * b over (c, a, b) in triples, c an int and a, b
    polynomials of the ring, accumulated into one term dict."""
    out: dict = {}
    for c, a, b in triples:
        if a.ring is not ring or b.ring is not ring:
            raise ContextError("product of %r and %r outside %r"
                               % (a.ring, b.ring, ring))
        if c:
            at, bt = sorted((a.terms, b.terms), key=len)
            if c != 1:      # scale the shorter operand
                at = {e: c * x for e, x in at.items()}
            _mul_into(ring, out, at, bt)
    return MultiPoly._trusted(ring, out)


def _negative_exponent_error(name: str, v: MultiPoly | None,
                             target: Ring) -> tuple | None:
    """(error type, message) for a negative exponent on the variable name
    bound to v (None: unbound), or None where its image is a unit of
    target."""
    if v is None:
        if not target.laurent[target.index(name)]:
            return (ExponentError,
                    "variable %r is not Laurent in the target" % name)
    elif len(v.terms) != 1:
        return (SubstitutionError, "need a unit monomial for %r, got %d terms"
                % (name, len(v.terms)))
    else:
        (key, c), = v.terms.items()
        if c not in (1, -1):
            return SubstitutionError, "unit monomial must have coefficient ±1"
        if any(x > 0 and not target.laurent[j]
               for j, x in enumerate(target.unpack(key))):
            return (ExponentError,
                    "inverse of the binding for %r is not Laurent" % name)
    return None


def _scales(mono: list, terms: dict, target: Ring) -> list:
    """(shift, offset, step, coeff) for each single-term image in mono whose
    variable occurs in some of the terms: a term with exponent k on that
    variable gains k * step and the factor coeff ** |k|.  The OR and the
    AND of the terms show which variables occur and bound each field, so
    each |k|, so each image exponent; where that bound could leave the
    window in which the guard test is exact, ExponentError."""
    hi = reduce(operator.or_, terms)
    lo = reduce(operator.and_, terms)
    out, bound = [], [0] * target.nvars
    for s, off, step, c in mono:
        k = max((hi >> s & EXP_MASK) - off, off - (lo >> s & EXP_MASK))
        if k:
            out.append((s, off, step, c))
            for j, x in enumerate(target.unpack(step + target.bias)):
                bound[j] += k * abs(x)
    if max(bound, default=0) >> FIELD_BITS - 2:
        raise out_of_range(target)
    return out


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
            if c.ring is not ring:
                raise ContextError("series coefficient in wrong ring")
        self.ring = ring
        self.order = order
        self.coeffs = tuple(coeffs)

    @staticmethod
    def one(ring: Ring, order: int) -> "TruncSeries":
        return TruncSeries(ring, order, [ring.one()])

    def __eq__(self, other):
        return (isinstance(other, TruncSeries) and self.ring is other.ring
                and self.order == other.order and self.coeffs == other.coeffs)

    def __getitem__(self, n: int) -> MultiPoly:
        return self.coeffs[n]

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if self.ring is not other.ring:
            raise ContextError("mixed ring contexts in series_mul")
        n = min(self.order, other.order)
        out = []
        for k in range(n + 1):
            acc: dict = {}
            for i in range(k + 1):
                a, b = self.coeffs[i], other.coeffs[k - i]
                if a and b:
                    _mul_into(self.ring, acc, a.terms, b.terms)
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
                    _mul_into(self.ring, acc, self.coeffs[i].terms,
                              inv[k - i].terms)
            inv.append(MultiPoly._trusted(
                self.ring, {e: -c for e, c in acc.items()}))
        return TruncSeries(self.ring, self.order, inv)

    def __pow__(self, n: int) -> "TruncSeries":
        base = self if n >= 0 else self.inverse()
        return _power(base, abs(n), TruncSeries.one(self.ring, self.order))

    def __repr__(self):
        return "TruncSeries([%s]; O(t^%d))" % (
            ", ".join(str(c) for c in self.coeffs), self.order + 1)
