"""Sparse multivariate polynomials over Q and graded free modules.

Coefficients are `fractions.Fraction` throughout; nothing in this package
ever rounds.  A `Ring` fixes the number of variables and the degree that
every variable carries: 1 for the grading used by free resolutions, 2 for
the polynomial part of a differential graded algebra.

Polynomials are stored as a map from exponent vector (a tuple of
nonnegative ints, one slot per variable) to a nonzero coefficient.  All
values are immutable after construction and safe to share.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, RingMismatchError

# Input aliases for small rings, matching the usual single-letter matrix
# displays.  x -> x1, y -> x2, z -> x3, w -> x4; uppercase likewise.
_ALIASES = "xyzw"
_INT = re.compile("-?[0-9]+")


@dataclass(frozen=True)
class Ring:
    """Polynomial ring Q[x1..xr] with all variables of one common degree."""

    num_vars: int
    var_degree: int = 1

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("num_vars must be >= 1")
        if self.var_degree not in (1, 2):
            raise ValueError("var_degree must be 1 or 2")

    def var_name(self, i: int) -> str:
        return f"x{i + 1}"

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.num_vars: c})

    def variable(self, i: int) -> "Polynomial":
        if not 0 <= i < self.num_vars:
            raise ValueError(f"no variable with index {i}")
        exp = tuple(1 if j == i else 0 for j in range(self.num_vars))
        return Polynomial(self, {exp: Fraction(1)})

    def monomial(self, exps, coeff=1) -> "Polynomial":
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.num_vars or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps!r}")
        coeff = Fraction(coeff)
        if coeff == 0:
            return self.zero()
        return Polynomial(self, {exps: coeff})

    def resolve_var(self, name: str):
        """Map a variable name (canonical or alias) to its index, or None."""
        if name.startswith("x") and name[1:].isdigit():
            i = int(name[1:]) - 1
            if 0 <= i < self.num_vars:
                return i
        if self.num_vars <= 4 and len(name) == 1:
            low = name.lower()
            if low in _ALIASES:
                i = _ALIASES.index(low)
                if i < self.num_vars:
                    return i
        return None


def degrevlex_key(exp):
    # Sorting exponent vectors ascending by this key lists them in
    # *descending* degree-reverse-lexicographic order.
    return (-sum(exp), tuple(reversed(exp)))


class Polynomial:
    """Immutable sparse polynomial; `terms` maps exponent tuple -> Fraction."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c != 0}

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def degree(self):
        """Internal degree (var_degree * exponent sum); None for 0."""
        if not self.terms:
            return None
        return self.ring.var_degree * max(sum(e) for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.ring.num_vars, Fraction(0))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: degrevlex_key(t[0]))

    # -- arithmetic ------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Polynomial(self.ring, terms)

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return Polynomial(self.ring, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return self.ring.zero()
        return Polynomial(self.ring, {e: c * v for e, v in self.terms.items()})

    def monomial_mul(self, exp, coeff=1) -> "Polynomial":
        """Multiply by coeff * x^exp without building a Polynomial first."""
        coeff = Fraction(coeff)
        if coeff == 0:
            return self.ring.zero()
        return Polynomial(
            self.ring,
            {tuple(a + b for a, b in zip(e, exp)): c * coeff for e, c in self.terms.items()},
        )

    def with_ring(self, ring: Ring) -> "Polynomial":
        """Reinterpret the same terms over a ring with another var_degree."""
        if ring.num_vars != self.ring.num_vars:
            raise RingMismatchError("cannot regrade to a different number of variables")
        return Polynomial(ring, dict(self.terms))

    # -- comparisons / printing ------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for exp, coeff in self.sorted_terms():
            factors = []
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(self.ring.var_name(i))
                elif e > 1:
                    factors.append(f"{self.ring.var_name(i)}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not chunks:
                chunks.append(body if coeff > 0 else "-" + body)
            else:
                chunks.append((" + " if coeff > 0 else " - ") + body)
        return "".join(chunks)

    def __repr__(self):
        return f"Polynomial({self})"


# ---------------------------------------------------------------------------
# One expression parser, shared by polynomials and algebra expressions.

def tokenize(text: str):
    """Yield (kind, value, pos) with kind in int/name/op; raises ParseError."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            try:
                toks.append(("int", int(text[i:j]), i))
            except ValueError:  # longer than the interpreter converts
                raise ParseError(f"integer of {j - i} digits is too long", i) from None
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
        elif ch in "+-*/^":
            toks.append(("op", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    return toks


def parse_int(token: str, where: str) -> int:
    """The ASCII integer `-?[0-9]+` that token is, or a ParseError that names
    `where` in the input.  Python's other literal forms (`1_0`, `+3`, spaces,
    non-ASCII digits) are refused."""
    try:
        if _INT.fullmatch(token):
            return int(token)
    except ValueError:  # more digits than int() converts
        pass
    raise ParseError(f"{where}: expected an integer, got {token!r}")


def parse_coefficient(token: str, where: str) -> Fraction:
    """`["-"] int ["/" int]` with a nonzero denominator, the coefficient
    grammar of `parse_expression`; a ParseError names `where` otherwise."""
    try:
        ts = _TokenStream(tokenize(token), len(token))
        sign = -1 if ts.accept_op("-") else 1
        if ts.peek()[0] == "int":
            value = _parse_coeff(ts)
            if ts.peek()[0] is None:
                return sign * value
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}") from None
    raise ParseError(f"{where}: expected <p>[/<q>], got {token!r}")


class _TokenStream:
    def __init__(self, toks, length):
        self.toks = toks
        self.i = 0
        self.length = length

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, self.length)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def accept_op(self, *ops):
        kind, val, _ = self.peek()
        if kind == "op" and val in ops:
            self.i += 1
            return val
        return None


def parse_expression(text: str, one, factor, noun: str):
    """Parse `expr := ["+"|"-"] term (("+"|"-") term)*` into one algebra.

    A term is a coefficient `int["/"int]` followed by `"*" factor`s, or a
    factor followed by `"*"`-separated factors and coefficients.  A factor
    is `name["^"int]`; `factor(name, exponent, pos)` turns it into an
    element (or raises ParseError), and `noun` names what a factor is in
    the error for a missing one.  `one` is the unit of the algebra.
    """
    ts = _TokenStream(tokenize(text), len(text))
    result = one.scale(0)
    sign = -1 if ts.accept_op("+", "-") == "-" else 1
    while True:
        result = result + _parse_term(ts, one, factor, noun).scale(sign)
        op = ts.accept_op("+", "-")
        if op is None:
            break
        sign = 1 if op == "+" else -1
    kind, val, pos = ts.peek()
    if kind is not None:
        raise ParseError(f"trailing input {val!r}", pos)
    return result


def _parse_term(ts: _TokenStream, one, factor, noun):
    kind, val, pos = ts.peek()
    if kind == "int":
        out = one.scale(_parse_coeff(ts))
    elif kind == "name":
        out = _parse_factor(ts, factor, noun)
    elif kind is None:
        raise ParseError("expected a term", pos)
    else:
        raise ParseError(f"expected a term, found {val!r}", pos)
    while ts.accept_op("*"):
        # Only a term that starts with a factor takes further coefficients.
        if kind == "name" and ts.peek()[0] == "int":
            out = out.scale(_parse_coeff(ts))
        else:
            out = out * _parse_factor(ts, factor, noun)
    return out


def _parse_coeff(ts: _TokenStream) -> Fraction:
    _, val, _ = ts.next()
    if ts.accept_op("/"):
        kind, den, pos = ts.next()
        if kind != "int" or den == 0:
            raise ParseError("expected a nonzero denominator", pos)
        return Fraction(val, den)
    return Fraction(val)


def _parse_factor(ts: _TokenStream, factor, noun):
    kind, name, pos = ts.next()
    if kind != "name":
        raise ParseError(f"expected a {noun}, found {name!r}", pos)
    exp = 1
    if ts.accept_op("^"):
        kind, exp, exp_pos = ts.next()
        if kind != "int":
            factor(name, 1, pos)  # an unknown name is reported first
            raise ParseError("expected an exponent", exp_pos)
    return factor(name, exp, pos)


def parse_poly(text: str, ring: Ring) -> Polynomial:
    """Parse a polynomial over the ring's variables.

    Round-trips with the canonical printer.  Aliases x,y,z,w (any case)
    are accepted for rings with at most four variables.
    """

    def factor(name, exp, pos):
        idx = ring.resolve_var(name)
        if idx is None:
            raise ParseError(f"unknown variable {name!r}", pos)
        exps = [0] * ring.num_vars
        exps[idx] = exp
        return ring.monomial(exps)

    return parse_expression(text, ring.one(), factor, "variable")


# ---------------------------------------------------------------------------
# Graded free modules.


@dataclass(frozen=True)
class FreeModule:
    """Free module over `ring` with one generator per listed internal degree."""

    ring: Ring
    generator_degrees: tuple

    def __post_init__(self):
        object.__setattr__(self, "generator_degrees", tuple(int(d) for d in self.generator_degrees))

    @property
    def rank(self) -> int:
        return len(self.generator_degrees)

    def zero_element(self) -> "ModuleElement":
        return ModuleElement(self, tuple(self.ring.zero() for _ in range(self.rank)))

    def generator(self, s: int) -> "ModuleElement":
        comps = [self.ring.zero()] * self.rank
        comps[s] = self.ring.one()
        return ModuleElement(self, tuple(comps))


class ModuleElement:
    """Element of a graded free module: one polynomial per generator."""

    __slots__ = ("module", "components")

    def __init__(self, module: FreeModule, components):
        components = tuple(components)
        if len(components) != module.rank:
            raise ValueError("component count does not match module rank")
        for p in components:
            if p.ring != module.ring:
                raise RingMismatchError("component over the wrong ring")
        self.module = module
        self.components = components

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.components)

    def _check(self, other):
        if self.module != other.module:
            raise RingMismatchError("module mismatch")

    def __add__(self, other):
        self._check(other)
        return ModuleElement(self.module, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other):
        self._check(other)
        return ModuleElement(self.module, tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self):
        return ModuleElement(self.module, tuple(-a for a in self.components))

    def scale(self, c):
        return ModuleElement(self.module, tuple(p.scale(c) for p in self.components))

    def monomial_mul(self, exp, coeff=1):
        return ModuleElement(self.module, tuple(p.monomial_mul(exp, coeff) for p in self.components))

    def poly_mul(self, poly: Polynomial):
        return ModuleElement(self.module, tuple(p * poly for p in self.components))

    def terms(self):
        """Iterate ((exponent, component index), coefficient) over all terms."""
        for s, p in enumerate(self.components):
            for e, c in p.terms.items():
                yield (e, s), c

    def is_homogeneous(self) -> bool:
        return element_degree(self) is not None or self.is_zero()

    def degree(self):
        return element_degree(self)

    def __eq__(self, other):
        return (
            isinstance(other, ModuleElement)
            and self.module == other.module
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.module, self.components))

    def __str__(self):
        parts = [f"({p})*e{s + 1}" for s, p in enumerate(self.components) if not p.is_zero()]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"ModuleElement({self})"


def element_degree(e: ModuleElement):
    """Internal degree of a homogeneous element, else None (also for 0)."""
    ring = e.module.ring
    degs = set()
    for s, p in enumerate(e.components):
        gdeg = e.module.generator_degrees[s]
        for exp in p.terms:
            degs.add(ring.var_degree * sum(exp) + gdeg)
            if len(degs) > 1:
                return None
    if len(degs) == 1:
        return degs.pop()
    return None
