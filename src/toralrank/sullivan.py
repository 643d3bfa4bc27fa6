"""Free graded-commutative algebras with differential, and their cohomology.

Monomials are sorted words in the generators with Koszul-sign bookkeeping:
odd generators square to zero and anticommute, even generators are
polynomial.  `GradedBasis` owns the degreewise monomial bases, d on them
and the capacity cap; cohomology and `hirschbrown`'s retract share it.
Cohomology is computed degree by degree with exact rational linear
algebra; representatives come from a deterministic echelon choice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import DomainError, ParseError, ValidationError
from .polyring import parse_expression, parse_int


class SullivanModel:
    """Free graded-commutative algebra on named generators, with d of degree +1.

    `differential` maps generator index -> AlgebraElement (or zero element).
    d^2 = 0 is validated at construction; minimality (no linear terms in the
    image of d) is only warned about via `minimality_violations`.
    """

    def __init__(self, generators, differential=None, validate=True):
        self.generators = tuple((str(n), int(d)) for n, d in generators)
        if len({n for n, _ in self.generators}) != len(self.generators):
            raise ValidationError("duplicate generator names")
        for n, d in self.generators:
            if d < 1:
                raise ValidationError(f"generator {n} must have positive degree")
        self.name_to_index = {n: i for i, (n, _) in enumerate(self.generators)}
        diff = {}
        if differential:
            for key, val in differential.items():
                idx = key if isinstance(key, int) else self.name_to_index[key]
                diff[idx] = val
        self.differential = diff
        if validate:
            self._validate()

    def degree(self, i: int) -> int:
        return self.generators[i][1]

    def is_odd(self, i: int) -> bool:
        return self.degree(i) % 2 == 1

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {(): Fraction(1)})

    def gen(self, key) -> "AlgebraElement":
        idx = key if isinstance(key, int) else self.name_to_index[key]
        return AlgebraElement(self, {((idx, 1),): Fraction(1)})

    def d_of_gen(self, i: int) -> "AlgebraElement":
        return self.differential.get(i, self.zero())

    def d(self, elem: "AlgebraElement") -> "AlgebraElement":
        """Extend the differential by the graded Leibniz rule."""
        if elem.model is not self and elem.model.generators != self.generators:
            raise ValidationError("element from another model")
        out = self.zero()
        for mono, coeff in elem.terms.items():
            out = out + self._d_monomial(mono).scale(coeff)
        return out

    def _d_monomial(self, mono) -> "AlgebraElement":
        out = self.zero()
        prefix_deg = 0
        for pos, (g, e) in enumerate(mono):
            dg = self.d_of_gen(g)
            if not dg.is_zero():
                left = (mono[:pos] + ((g, e - 1),)) if e > 1 else mono[:pos]
                right = mono[pos + 1 :]
                piece = AlgebraElement(self, {left: Fraction(e)})
                piece = piece * dg
                piece = piece * AlgebraElement(self, {right: Fraction(1)})
                sign = -1 if prefix_deg % 2 else 1
                out = out + piece.scale(sign)
            prefix_deg += e * self.degree(g)
        return out

    def _validate(self):
        for i in range(len(self.generators)):
            dg = self.d_of_gen(i)
            if dg.is_zero():
                continue
            want = self.degree(i) + 1
            if dg.degree() != want or not dg.is_homogeneous():
                raise ValidationError(
                    f"d({self.generators[i][0]}) must be homogeneous of degree {want}"
                )
            dd = self.d(dg)
            if not dd.is_zero():
                raise ValidationError(
                    f"d^2 != 0 on generator {self.generators[i][0]}: d(d) = {dd}"
                )

    def minimality_violations(self):
        """Generators whose differential has a linear term (warn-only)."""
        bad = []
        for i in range(len(self.generators)):
            for mono in self.d_of_gen(i).terms:
                if len(mono) == 1 and mono[0][1] == 1:
                    bad.append(self.generators[i][0])
                    break
        return bad

    def all_odd(self) -> bool:
        return all(self.is_odd(i) for i in range(len(self.generators)))

    def top_degree(self):
        """Top degree of the algebra when every generator is odd, else None."""
        if not self.all_odd():
            return None
        return sum(d for _, d in self.generators)

    def monomial_basis(self, degree: int):
        """All monomials of the given total degree, deterministically ordered."""
        out = []

        def rec(idx, remaining, word):
            if remaining == 0:
                out.append(tuple(word))
                return
            if idx == len(self.generators):
                return
            rec(idx + 1, remaining, word)
            gdeg = self.degree(idx)
            cap = 1 if self.is_odd(idx) else remaining // gdeg
            for e in range(1, cap + 1):
                if e * gdeg <= remaining:
                    rec(idx + 1, remaining - e * gdeg, word + [(idx, e)])

        rec(0, degree, [])
        return sorted(out)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, SullivanModel)
            and self.generators == other.generators
            and {i: e.terms for i, e in self.differential.items() if not e.is_zero()}
            == {i: e.terms for i, e in other.differential.items() if not e.is_zero()}
        )

    def __repr__(self):
        gens = ", ".join(f"{n}^{d}" for n, d in self.generators)
        return f"SullivanModel({gens})"


def _mul_monomials(model, m1, m2):
    """Product of sorted monomials: (monomial, sign) or None when it dies."""
    sign = 1
    # Koszul sign: odd letters of m1 that must move past odd letters of m2.
    odd1 = [g for g, e in m1 if model.is_odd(g)]
    odd2 = [g for g, e in m2 if model.is_odd(g)]
    for a in odd1:
        for b in odd2:
            if a > b:
                sign = -sign
            elif a == b:
                return None
    merged = {}
    for g, e in m1:
        merged[g] = merged.get(g, 0) + e
    for g, e in m2:
        merged[g] = merged.get(g, 0) + e
    for g, e in merged.items():
        if model.is_odd(g) and e > 1:
            return None
    return tuple(sorted(merged.items())), sign


class AlgebraElement:
    """Q-linear combination of sorted monomials in one model's generators."""

    __slots__ = ("model", "terms")

    def __init__(self, model: SullivanModel, terms: dict):
        self.model = model
        self.terms = {m: c for m, c in terms.items() if c != 0}

    def is_zero(self) -> bool:
        return not self.terms

    def monomial_degree(self, mono) -> int:
        return sum(e * self.model.degree(g) for g, e in mono)

    def is_homogeneous(self) -> bool:
        return len({self.monomial_degree(m) for m in self.terms}) <= 1

    def degree(self):
        if not self.terms:
            return None
        return max(self.monomial_degree(m) for m in self.terms)

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return AlgebraElement(self.model, terms)

    def __neg__(self):
        return AlgebraElement(self.model, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "AlgebraElement":
        c = Fraction(c)
        if c == 0:
            return AlgebraElement(self.model, {})
        return AlgebraElement(self.model, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                hit = _mul_monomials(self.model, m1, m2)
                if hit is None:
                    continue
                mono, sign = hit
                s = terms.get(mono, 0) + sign * c1 * c2
                if s:
                    terms[mono] = s
                else:
                    terms.pop(mono, None)
        return AlgebraElement(self.model, terms)

    __rmul__ = __mul__

    def power(self, n: int) -> "AlgebraElement":
        """self^n by repeated squaring (self^0 is 1)."""
        acc = AlgebraElement(self.model, {(): Fraction(1)})
        square = self
        while n > 0:
            if n & 1:
                acc = acc * square
            n >>= 1
            if n:
                square = square * square
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and (self.model is other.model or self.model.generators == other.model.generators)
            and self.terms == other.terms
        )

    def __str__(self):
        if not self.terms:
            return "0"
        def mono_str(m):
            if not m:
                return "1"
            parts = []
            for g, e in m:
                name = self.model.generators[g][0]
                parts.append(name if e == 1 else f"{name}^{e}")
            return "*".join(parts)

        keys = sorted(self.terms, key=lambda m: (self.monomial_degree(m), m))
        chunks = []
        for m in keys:
            c = self.terms[m]
            mag = abs(c)
            body = mono_str(m)
            if body == "1":
                body = str(mag)
            elif mag != 1:
                body = f"{mag}*{body}"
            if not chunks:
                chunks.append(body if c > 0 else "-" + body)
            else:
                chunks.append((" + " if c > 0 else " - ") + body)
        return "".join(chunks)

    def __repr__(self):
        return f"AlgebraElement({self})"


# ---------------------------------------------------------------------------
# Cohomology.

MAX_BASIS_CAPACITY = 200000


def _monomial_counts(model: SullivanModel, top: int):
    """Monomials per degree 0..top: prod (1 + t^d) over odd generators
    times prod 1/(1 - t^d) over even ones.  The list stops where the rest
    is known: past the degree sum if all are odd, and at e * cap for an
    even generator of degree e, which alone fills every degree e*j."""
    degrees = [d for _, d in model.generators]
    evens = [d for d in degrees if d % 2 == 0]
    counts = [1] + [0] * min(top, min(evens) * MAX_BASIS_CAPACITY if evens else sum(degrees))
    for d in degrees:
        steps = range(d, len(counts)) if d % 2 == 0 else range(len(counts) - 1, d - 1, -1)
        for p in steps:
            counts[p] += counts[p - d]
    return counts


class GradedBasis:
    """Indexed monomial bases of a model in degrees 0..top.

    Degree p lists `model.monomial_basis(p)` in order; the global index runs
    through the degrees in turn.  The size is counted before any monomial
    is enumerated, and a basis above MAX_BASIS_CAPACITY is refused.  The
    degrees stop at the model's top degree when it has one: every degree
    above it is empty.
    """

    def __init__(self, model: SullivanModel, top: int):
        counts = _monomial_counts(model, top)
        for p, total in enumerate(itertools.accumulate(counts)):
            if total > MAX_BASIS_CAPACITY:
                raise DomainError(
                    f"the monomial basis through degree {p} has {total} monomials, "
                    f"above the capacity cap {MAX_BASIS_CAPACITY}"
                )
        self.model = model
        self.by_degree = {}
        self.monomials = []
        self.degree_of = []
        self.index = {}
        self._start = {}
        for p in range(len(counts)):
            monos = model.monomial_basis(p) if counts[p] else []
            self.by_degree[p] = monos
            self._start[p] = len(self.monomials)
            for m in monos:
                self.index[m] = len(self.monomials)
                self.monomials.append(m)
                self.degree_of.append(p)

    def degrees_through(self, cutoff: int):
        """Degrees 0..cutoff, less the empty ones above the model's top degree."""
        return range(min(cutoff + 1, len(self.by_degree)))

    def dim(self, p: int) -> int:
        return len(self.by_degree.get(p, ()))

    def global_index(self, p: int, local: int) -> int:
        return self._start[p] + local

    def element_to_local(self, elem: AlgebraElement, p: int):
        """Coordinates of an element over the degree-p monomials."""
        vec = [Fraction(0)] * self.dim(p)
        for m, c in elem.terms.items():
            idx = self.index.get(m)
            if idx is None or self.degree_of[idx] != p:
                raise ValueError("element not homogeneous of the expected degree")
            vec[idx - self._start[p]] += c
        return vec

    def local_to_element(self, vec, p: int) -> AlgebraElement:
        return AlgebraElement(
            self.model, {m: c for m, c in zip(self.by_degree[p], vec) if c != 0}
        )

    def d_columns(self, p: int):
        """d on degree p: one vector over degree p+1 per monomial of degree p."""
        model = self.model
        return [
            self.element_to_local(model.d(AlgebraElement(model, {m: Fraction(1)})), p + 1)
            for m in self.by_degree[p]
        ]


class CohomologyRing:
    """Betti numbers, representative cycles and products up to a cutoff."""

    def __init__(self, model: SullivanModel, cutoff: int):
        self.model = model
        self.cutoff = cutoff
        self.basis = basis = GradedBasis(model, cutoff + 1)
        self._coboundaries = {}
        self._reps = {}
        self.betti = []
        images = []  # d of the degree p-1 monomials, as vectors over degree p
        for p in basis.degrees_through(cutoff):
            n = basis.dim(p)
            cob, span = linalg.Subspace(n), linalg.Subspace(n)
            for vec in images:
                cob.add(vec)
                span.add(vec)
            self._coboundaries[p] = cob
            images = basis.d_columns(p)
            cocycle_matrix = [[col[i] for col in images] for i in range(basis.dim(p + 1))]
            kernel = linalg.kernel_basis(cocycle_matrix, n)
            reps = []
            for vec in kernel:
                red = span.reduce(vec)
                if any(x != 0 for x in red):
                    span.add(red)
                    reps.append(red)
            self._reps[p] = reps
            self.betti.append(len(reps))

    def dim(self, p: int) -> int:
        return self.betti[p] if 0 <= p < len(self.betti) else 0

    def representatives(self, p: int):
        return [self.basis.local_to_element(v, p) for v in self._reps.get(p, [])]

    def is_cocycle(self, elem: AlgebraElement) -> bool:
        return self.model.d(elem).is_zero()

    def coordinates(self, elem: AlgebraElement):
        """Coordinates of a homogeneous cocycle's class in the chosen basis."""
        if elem.is_zero():
            return None, []
        if not elem.is_homogeneous():
            raise ValueError("need a homogeneous element")
        p = elem.degree()
        if p > self.cutoff:
            raise ValueError(f"degree {p} beyond cutoff {self.cutoff}")
        if not self.is_cocycle(elem):
            raise ValueError("element is not a cocycle")
        red = self._coboundaries[p].reduce(self.basis.element_to_local(elem, p))
        if all(x == 0 for x in red):
            return p, [Fraction(0)] * self.betti[p]
        coeffs = linalg.solve(self._reps[p], red)
        if coeffs is None:
            raise ValueError("representative basis failed to span; internal error")
        return p, coeffs

    def class_is_zero(self, elem: AlgebraElement) -> bool:
        p, coords = self.coordinates(elem)
        return p is None or all(c == 0 for c in coords)

    def product_coordinates(self, p: int, a: int, q: int, b: int):
        """Class coordinates of representatives(p)[a] * representatives(q)[b]."""
        prod = self.representatives(p)[a] * self.representatives(q)[b]
        if prod.is_zero():
            return [Fraction(0)] * self.dim(p + q)
        return self.coordinates(prod)[1]


def checked_cutoff(model: SullivanModel, cutoff=None) -> int:
    """The cutoff, defaulting to the top degree for a model on odd generators
    only; models with even generators must say how far to look.  A cutoff
    above MAX_BASIS_CAPACITY is refused before any work: every degree up to
    the cutoff is reported, even the empty ones above the top degree."""
    if cutoff is None:
        cutoff = model.top_degree()
        if cutoff is None:
            raise DomainError("cutoff is mandatory when even generators are present")
    if cutoff < 0:
        raise DomainError(f"cutoff must be at least 0 (got {cutoff})")
    if cutoff > MAX_BASIS_CAPACITY:
        raise DomainError(f"cutoff {cutoff} is above the capacity cap {MAX_BASIS_CAPACITY}")
    return cutoff


def cohomology(model: SullivanModel, cutoff: int = None) -> CohomologyRing:
    """Cohomology with products up to `checked_cutoff(model, cutoff)`."""
    return CohomologyRing(model, checked_cutoff(model, cutoff))


def formal_dimension(h: CohomologyRing) -> int:
    top = 0
    for p in range(h.cutoff + 1):
        if h.dim(p):
            top = p
    return top


def euler_characteristic(h: CohomologyRing) -> int:
    return sum((-1) ** p * h.dim(p) for p in range(h.cutoff + 1))


# ---------------------------------------------------------------------------
# The c-symplectic test.


@dataclass
class CSymplecticReport:
    is_csymplectic: object  # True / False / None ("unknown")
    n: int
    omega_used: object
    lefschetz_type: object
    poincare_duality: bool
    detail: str


def _pairing_matrix(h, p, q, top_index):
    rows = []
    for a in range(h.dim(p)):
        row = []
        for b in range(h.dim(q)):
            coords = h.product_coordinates(p, a, q, b)
            row.append(coords[top_index] if coords else Fraction(0))
        rows.append(row)
    return rows


def poincare_duality_holds(h: CohomologyRing, fd: int) -> bool:
    if h.dim(fd) != 1:
        return False
    for p in range(fd + 1):
        q = fd - p
        if h.dim(p) != h.dim(q):
            return False
        mat = _pairing_matrix(h, p, q, 0)
        if h.dim(p) and linalg.rank(mat) != h.dim(p):
            return False
    return True


def _omega_candidates(h: CohomologyRing):
    reps = h.representatives(2)
    for rep in reps:
        yield rep
    m = min(len(reps), 3)
    if m >= 2:
        for coeffs in itertools.product([-2, -1, 0, 1, 2], repeat=m):
            if all(c == 0 for c in coeffs):
                continue
            acc = h.model.zero()
            for c, rep in zip(coeffs, reps[:m]):
                acc = acc + rep.scale(c)
            yield acc
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    if reps:
        acc = h.model.zero()
        for k, rep in enumerate(reps):
            acc = acc + rep.scale(primes[k % len(primes)])
        yield acc


def c_symplectic_check(h: CohomologyRing, omega: AlgebraElement = None) -> CSymplecticReport:
    """Test for a degree-2 class whose n-th power generates the top degree.

    Poincare duality of the whole ring is verified first.  With no omega
    supplied, a deterministic search tries basis classes, small integer
    combinations, then one prime-weighted combination; exhausting the
    policy reports "unknown" (None), never "false".
    """
    fd = formal_dimension(h)
    if fd % 2:
        raise DomainError(f"formal dimension {fd} is odd")
    n = fd // 2
    pd = poincare_duality_holds(h, fd)
    if not pd:
        return CSymplecticReport(False, n, None, None, False, "Poincare duality fails")

    def omega_works(cand):
        if cand.is_zero() or cand.degree() != 2 or not cand.is_homogeneous():
            return False
        if not h.is_cocycle(cand):
            return False
        return not h.class_is_zero(cand.power(n))

    if omega is not None:
        ok = omega_works(omega)
        lef = _lefschetz(h, omega, n, fd) if ok else None
        return CSymplecticReport(
            ok, n, omega if ok else None, lef, True,
            "supplied omega works" if ok else "supplied omega has vanishing top power",
        )
    for cand in _omega_candidates(h):
        if omega_works(cand):
            return CSymplecticReport(
                True, n, cand, _lefschetz(h, cand, n, fd), True, "omega found by search"
            )
    return CSymplecticReport(None, n, None, None, True, "no omega found by the search policy")


def _lefschetz(h: CohomologyRing, omega: AlgebraElement, n: int, fd: int):
    """Is multiplication by omega^(n-1): H^1 -> H^(2n-1) bijective?"""
    if h.dim(1) != h.dim(fd - 1):
        return False
    if h.dim(1) == 0:
        return True
    power = omega.power(n - 1)
    cols = []
    for rep in h.representatives(1):
        prod = power * rep
        if prod.is_zero():
            cols.append([Fraction(0)] * h.dim(fd - 1))
        else:
            cols.append(h.coordinates(prod)[1])
    mat = [[cols[j][i] for j in range(len(cols))] for i in range(h.dim(fd - 1))]
    return linalg.rank(mat) == h.dim(1)


# ---------------------------------------------------------------------------
# Model files.


def parse_algebra_expression(text, model: SullivanModel):
    """Algebra expression: the polynomial grammar with generator names."""

    def factor(name, exp, pos):
        if name not in model.name_to_index:
            raise ParseError(f"unknown generator {name!r}", pos)
        return model.gen(name).power(exp)

    return parse_expression(text, model.one(), factor, "generator")


def _model_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_model(text: str) -> SullivanModel:
    """Parse "gen <name> deg=<int>" and "d <name> = <expr|0>" lines."""
    model, torus = _parse_model_and_torus(text)
    if torus is not None:
        raise ParseError(
            "file has a torus block; use parse_extension "
            "(the hb-build, hb-check and hb-pipeline commands read such files)"
        )
    return model


def _parse_model_and_torus(text):
    gens = []
    d_lines = []
    torus_rank = None
    big_d_lines = []
    for lineno, line in _model_lines(text):
        toks = line.split(None, 1)
        head = toks[0]
        if head == "gen":
            parts = line.split()
            if len(parts) != 3 or not parts[2].startswith("deg="):
                raise ParseError(f"line {lineno}: expected 'gen <name> deg=<int>'")
            gens.append((parts[1], parse_int(parts[2][4:], f"line {lineno}")))
        elif head == "d":
            name, expr = _split_assignment(line[1:], lineno)
            d_lines.append((lineno, name, expr))
        elif head == "torus":
            parts = line.split()
            if len(parts) != 2 or not parts[1].startswith("r="):
                raise ParseError(f"line {lineno}: expected 'torus r=<int>'")
            torus_rank = parse_int(parts[1][2:], f"line {lineno}")
        elif head == "D":
            name, expr = _split_assignment(line[1:], lineno)
            big_d_lines.append((lineno, name, expr))
        else:
            raise ParseError(f"line {lineno}: unknown directive {head!r}")
    if not gens:
        raise ParseError("model file declares no generators")
    bare = SullivanModel(gens, validate=False)
    diff = {}
    for lineno, name, expr in d_lines:
        if name not in bare.name_to_index:
            raise ParseError(f"line {lineno}: unknown generator {name!r}")
        value = bare.zero() if expr.strip() == "0" else parse_algebra_expression(expr, bare)
        diff[name] = value
    try:
        model = SullivanModel(gens, diff)
    except ValidationError as exc:
        raise ValidationError(f"invalid differential: {exc}") from exc
    torus = None
    if torus_rank is not None:
        torus = (torus_rank, big_d_lines)
    elif big_d_lines:
        raise ParseError("'D' lines need a 'torus r=...' line")
    return model, torus


def _split_assignment(rest, lineno):
    if "=" not in rest:
        raise ParseError(f"line {lineno}: expected '<name> = <expression>'")
    name, expr = rest.split("=", 1)
    return name.strip(), expr.strip()


@dataclass
class ActionExtension:
    """Degree-2 polynomial extension of a base model, with differential D.

    `extended` places the polynomial generators X1..Xr at indices 0..r-1
    and the base generators after them; D is the extended model's
    differential.  D is R-linear by construction (D X_i = 0) and projects
    onto the base differential when every X_i is set to zero.
    """

    base: SullivanModel
    torus_rank: int
    extended: SullivanModel

    @property
    def offset(self) -> int:
        return self.torus_rank

    def embed_monomial(self, mono):
        return tuple((g + self.offset, e) for g, e in mono)

    def embed(self, elem: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(
            self.extended, {self.embed_monomial(m): c for m, c in elem.terms.items()}
        )

    def split_monomial(self, mono):
        """Extended monomial -> (X exponent tuple, base monomial)."""
        alpha = [0] * self.torus_rank
        base = []
        for g, e in mono:
            if g < self.offset:
                alpha[g] = e
            else:
                base.append((g - self.offset, e))
        return tuple(alpha), tuple(base)

    def D(self, elem: AlgebraElement) -> AlgebraElement:
        return self.extended.d(elem)


def make_extension(base: SullivanModel, torus_rank: int, big_d: dict) -> ActionExtension:
    """Assemble and validate an extension; big_d maps base gen name -> element
    of the extended algebra (omitted generators keep their base differential)."""
    if torus_rank < 1:
        raise ValidationError("torus rank must be >= 1")
    xnames = [f"X{i + 1}" for i in range(torus_rank)]
    for n, _ in base.generators:
        if n in xnames:
            raise ValidationError(f"generator name {n} collides with a torus variable")
    gens = [(n, 2) for n in xnames] + list(base.generators)
    skeleton = SullivanModel(gens, validate=False)
    diff = {}
    for i, (name, _) in enumerate(base.generators):
        if name in big_d:
            diff[torus_rank + i] = big_d[name]
        else:
            embedded = AlgebraElement(
                skeleton,
                {
                    tuple((g + torus_rank, e) for g, e in m): c
                    for m, c in base.d_of_gen(i).terms.items()
                },
            )
            diff[torus_rank + i] = embedded
    try:
        extended = SullivanModel(gens, diff)
    except ValidationError as exc:
        raise ValidationError(f"invalid extension differential: {exc}") from exc
    ext = ActionExtension(base, torus_rank, extended)
    _validate_extension(ext)
    return ext


def _validate_extension(ext: ActionExtension):
    # D must project onto d when the X variables are killed.
    for i in range(len(ext.base.generators)):
        name = ext.base.generators[i][0]
        dval = ext.extended.d_of_gen(ext.offset + i)
        projected = {}
        for mono, c in dval.terms.items():
            alpha, basem = ext.split_monomial(mono)
            if all(a == 0 for a in alpha):
                projected[basem] = projected.get(basem, Fraction(0)) + c
        base_d = {m: c for m, c in ext.base.d_of_gen(i).terms.items()}
        if projected != base_d:
            raise ValidationError(
                f"D({name}) does not project onto d({name}) modulo the torus variables"
            )


def parse_extension(text: str) -> ActionExtension:
    """Parse a model file that carries a torus block."""
    base, torus = _parse_model_and_torus(text)
    if torus is None:
        raise ParseError(
            "file has no 'torus r=...' line; use parse_model "
            "(the model-cohomology and csympl commands read such files)"
        )
    torus_rank, big_d_lines = torus
    xnames = [f"X{i + 1}" for i in range(torus_rank)]
    gens = [(n, 2) for n in xnames] + list(base.generators)
    skeleton = SullivanModel(gens, validate=False)
    big_d = {}
    for lineno, name, expr in big_d_lines:
        if name not in base.name_to_index:
            raise ParseError(f"line {lineno}: unknown generator {name!r}")
        value = skeleton.zero() if expr.strip() == "0" else parse_algebra_expression(expr, skeleton)
        big_d[name] = value
    return make_extension(base, torus_rank, big_d)
