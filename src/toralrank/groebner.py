"""Buchberger-style Groebner bases for submodules of graded free modules.

One module order is shipped: position-over-term refined by
degree-reverse-lexicographic, with lower generator index winning.  All
inputs are required to be homogeneous, which keeps every S-pair and normal
form homogeneous and makes the degree cap meaningful.

Buchberger's algorithm uses normal selection (Giovini et al. 1991): the
pending S-pairs sit in a heap keyed (internal degree of the lcm, lead
component, i, j), so the pair of smallest lcm degree is reduced first and
ties go to the lower component, then to the lower basis indices.  Only
pairs whose leading terms share a component are queued.  The keys are
unique and fixed when a pair is pushed, so the order of reductions, and
with it every basis element, is determined by the input.  Each basis
element's leading term is computed once, when it joins the basis, and
handed to every division against that basis.

Coordinates over the columns of a map p: F_src -> F_tgt come from its
graph (Kreuzer and Robbiano 2000): the Buchberger pass runs on the
elements (p(e_j), e_j) of F_tgt (+) F_src and reduces the F_tgt components
only, so the F_src part of every element it makes records that element
over the columns.  `_Graph` holds one such basis per map; a lift is one
division of (e, 0) by it.  The syzygies are the F_src parts of its
S-pairs, reduced by it (Schreyer's theorem), and `syzygy_basis` runs the
same helper on the graph of a basis G over the free module on G.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DegreeCapError, DomainError, InhomogeneousError, NotInSpanError, ParseError, RingMismatchError
)
from .polyring import FreeModule, ModuleElement, Polynomial, Ring, degrevlex_key, parse_int, parse_poly

DEFAULT_DEGREE_CAP = 64
# Standard monomials a finite-length test may enumerate, summed over components.
MAX_STANDARD_BOX = 200000


def _term_key(term):
    """Key of a term (exponent, component) in the one module order this
    package ships: position over term, then degrevlex, lower generator
    index first.  Ascending sort by this key lists terms from largest to
    smallest."""
    exp, comp = term
    return (comp, *degrevlex_key(exp))


def leading_term(e: ModuleElement):
    """((exponent, component), coefficient) of the largest term, or None."""
    # Position over term: the lead lies in the first nonzero component.
    for comp, p in enumerate(e.components):
        if p.terms:
            exp = min(p.terms, key=degrevlex_key)
            return (exp, comp), p.terms[exp]
    return None


def _divides(ea, eb) -> bool:
    return all(a <= b for a, b in zip(ea, eb))


def _exp_sub(eb, ea):
    return tuple(b - a for a, b in zip(ea, eb))


def _exp_lcm(ea, eb):
    return tuple(max(a, b) for a, b in zip(ea, eb))


def _require_homogeneous(elements):
    for e in elements:
        if not e.is_zero() and e.degree() is None:
            raise InhomogeneousError(f"inhomogeneous element: {e}")


def _internal_degree(module: FreeModule, exp, comp) -> int:
    return module.ring.var_degree * sum(exp) + module.generator_degrees[comp]


@dataclass(frozen=True)
class GroebnerBasis:
    module: FreeModule
    elements: tuple

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    @cached_property
    def leads(self):
        """leading_term of each element, in basis order."""
        return tuple(leading_term(e) for e in self.elements)


def division(e: ModuleElement, basis, leads=None):
    """Fully reduce e by `basis`; returns the remainder.

    The remainder has no term divisible by any basis leading term, and e
    minus the remainder is a combination of the basis elements.  A
    component that leads no basis element goes into the remainder whole,
    with what the reduction steps added to it: on a graph (see `_Graph`)
    its source part so carries the combination's coefficients.  `leads`,
    when given, must be the leading_term of each basis element.
    """
    if leads is None:
        leads = [leading_term(g) for g in basis]
    divisors = {}  # component -> [(lead exponent, lead coefficient, components)] in basis order
    for g, lt in zip(basis, leads):
        if lt is not None:
            (gexp, gcomp), gcoeff = lt
            divisors.setdefault(gcomp, []).append((gexp, gcoeff, g.components))
    work = [dict(p.terms) for p in e.components]
    # The largest term of what is left always lies in the first nonzero
    # component, and reducing by an element led there never touches an
    # earlier one: so each component is finished before the next.
    for comp, terms in enumerate(work):
        if comp not in divisors:
            continue
        rem = {}
        while terms:
            exp = min(terms, key=degrevlex_key)
            for gexp, gcoeff, gcomps in divisors[comp]:
                if _divides(gexp, exp):
                    factor = -terms[exp] / gcoeff
                    mono = _exp_sub(exp, gexp)
                    for s, p in enumerate(gcomps):
                        if p.terms:
                            _add_multiple(work[s], p.terms, mono, factor)
                    break
            else:
                rem[exp] = terms.pop(exp)
        work[comp] = rem
    ring = e.module.ring
    return ModuleElement(e.module, tuple(Polynomial(ring, t) for t in work))


def _add_multiple(terms, other, mono, factor):
    """terms += factor * x^mono * other, in place, dropping zero terms."""
    for e, c in other.items():
        key = tuple(a + b for a, b in zip(e, mono))
        v = terms.get(key, 0) + c * factor
        if v:
            terms[key] = v
        else:
            terms.pop(key, None)


def normal_form(e: ModuleElement, gb: GroebnerBasis) -> ModuleElement:
    """Remainder of e under full division by the basis."""
    if e.module != gb.module:
        raise RingMismatchError("module mismatch")
    return division(e, gb.elements, leads=gb.leads)


def s_pair_data(f: ModuleElement, g: ModuleElement):
    """For same-component leads: (lcm_exp, comp, mono_f, mono_g) else None."""
    return _s_pair(leading_term(f), leading_term(g))


def _s_pair(ltf, ltg):
    if ltf is None or ltg is None:
        return None
    (ef, cf), _ = ltf
    (eg, cg), _ = ltg
    if cf != cg:
        return None
    lcm = _exp_lcm(ef, eg)
    return lcm, cf, _exp_sub(lcm, ef), _exp_sub(lcm, eg)


def buchberger(gens, degree_cap: int = DEFAULT_DEGREE_CAP, module: FreeModule = None) -> GroebnerBasis:
    """Groebner basis of the submodule generated by the given elements.

    Inputs must be homogeneous elements of one free module.  The result is
    inter-reduced with monic leading coefficients, sorted by leading term.
    An empty generator list needs the ambient module passed explicitly.
    """
    gens = list(gens)
    if gens:
        module = gens[0].module
    elif module is None:
        raise ValueError("empty generator list needs an explicit module")
    return _buchberger(gens, degree_cap, module, module.rank)


def _buchberger(gens, degree_cap, module, lead_rank):
    """Reduced Groebner basis of gens, judged on the first `lead_rank`
    components of `module`: an element that vanishes there is dropped, and
    the later components follow every step unreduced (see `_Graph`)."""
    for g in gens:
        if g.module != module:
            raise RingMismatchError("generators from different modules")
    _require_homogeneous(gens)

    def vanishes(e):
        return all(p.is_zero() for p in e.components[:lead_rank])

    basis = []
    leads = []  # leading_term of each (monic) basis element
    single = []  # whether the element lives in one of the first lead_rank components only
    pairs = []  # heap of (lcm degree, component, i, j, mono_i, mono_j); (i, j) is unique

    def add_element(e):
        lt = leading_term(e)
        j = len(basis)
        for i, lti in enumerate(leads):
            data = _s_pair(lti, lt)
            if data is not None:
                lcm, comp, mono_i, mono_j = data
                heapq.heappush(pairs, (_internal_degree(module, lcm, comp), comp, i, j, mono_i, mono_j))
        basis.append(e.scale(1 / lt[1]))
        leads.append(leading_term(basis[-1]))
        single.append(sum(not p.is_zero() for p in e.components[:lead_rank]) == 1)

    for g in gens:
        if not vanishes(g):
            add_element(g)

    while pairs:
        degree, comp, i, j, mono_i, mono_j = heapq.heappop(pairs)
        if degree > degree_cap:
            raise DegreeCapError(f"S-pair degree {degree} exceeds cap {degree_cap}")
        # Coprime leads: the classical product criterion, sound only when
        # both elements live entirely in the (shared) lead component.
        if single[i] and single[j] and not any(map(min, leads[i][0][0], leads[j][0][0])):
            continue
        s = basis[i].monomial_mul(mono_i) - basis[j].monomial_mul(mono_j)
        rem = division(s, basis, leads=leads)
        if not vanishes(rem):
            add_element(rem)

    return GroebnerBasis(module, tuple(_interreduce(basis, leads)))


def _interreduce(basis, leads):
    # Smallest leading term first, so redundant larger leads get dropped.
    order = sorted(range(len(basis)), key=lambda i: _term_key(leads[i][0]), reverse=True)
    kept, kept_leads = [], []
    for i in order:
        (exp, comp), _ = leads[i]
        if any(c == comp and _divides(e, exp) for (e, c), _ in kept_leads):
            continue
        kept.append(basis[i])
        kept_leads.append(leads[i])
    # Tail-reduce each against the others; leading terms do not move, so a
    # single full pass yields the reduced basis.
    reduced = []
    for idx, e in enumerate(kept):
        rem = division(e, kept[:idx] + kept[idx + 1 :], leads=kept_leads[:idx] + kept_leads[idx + 1 :])
        reduced.append(rem.scale(1 / leading_term(rem)[1]))
    return reduced


# ---------------------------------------------------------------------------
# Presentations.


class PresentationMap:
    """Graded map F_source -> F_target given by columns in the target.

    Column s must be homogeneous of internal degree
    source.generator_degrees[s]; zero columns are allowed (their degree is
    whatever the source says).

    A map is immutable: its columns are a tuple of immutable elements, and
    every operation that changes a map builds a new one.  So its reduced basis
    (`groebner`), finite-length report (`finite_length_and_hilbert`) and
    minimal resolution (`resolutions.minimal_free_resolution`) are computed
    once per degree cap and kept on the map; a call that raises keeps nothing.
    """

    def __init__(self, source: FreeModule, target: FreeModule, columns):
        columns = tuple(columns)
        if len(columns) != source.rank:
            raise ValueError("column count does not match source rank")
        if source.ring != target.ring:
            raise RingMismatchError("source and target over different rings")
        for s, col in enumerate(columns):
            if col.module != target:
                raise RingMismatchError("column outside the target module")
            d = col.degree()
            if not col.is_zero() and d is None:
                raise InhomogeneousError(f"column {s} is inhomogeneous")
            if d is not None and d != source.generator_degrees[s]:
                raise InhomogeneousError(
                    f"column {s} has degree {d}, source generator says {source.generator_degrees[s]}"
                )
        self.source = source
        self.target = target
        self.columns = columns
        self._memo = {}

    def _memoized(self, kind, degree_cap, compute):
        """compute(self, degree_cap), kept per (kind, degree_cap) after the first call."""
        key = (kind, degree_cap)
        if key not in self._memo:
            self._memo[key] = compute(self, degree_cap)
        return self._memo[key]

    @classmethod
    def from_columns(cls, target: FreeModule, columns, zero_degree=0):
        degs = tuple(zero_degree if (d := col.degree()) is None else d for col in columns)
        return cls(FreeModule(target.ring, degs), target, columns)

    @classmethod
    def from_matrix(cls, ring: Ring, target_degrees, rows):
        """Rows of polynomials; entry (i, j) multiplies target generator i."""
        target = FreeModule(ring, tuple(target_degrees))
        k = target.rank
        if len(rows) != k:
            raise ValueError(f"expected {k} rows, got {len(rows)}")
        ncols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged matrix")
        cols = [ModuleElement(target, tuple(rows[i][j] for i in range(k))) for j in range(ncols)]
        return cls.from_columns(target, cols)

    def entry(self, i: int, j: int) -> Polynomial:
        return self.columns[j].components[i]

    def image_in_augmentation_ideal(self) -> bool:
        """True when no entry has a constant term (image inside I*target)."""
        return all(
            self.entry(i, j).constant_term() == 0
            for i in range(self.target.rank)
            for j in range(self.source.rank)
        )

    def compose(self, other: "PresentationMap") -> "PresentationMap":
        """self after other: source of other, target of self."""
        if other.target != self.source:
            raise RingMismatchError("maps not composable")
        cols = []
        for col in other.columns:
            acc = self.target.zero_element()
            for s, p in enumerate(col.components):
                if not p.is_zero():
                    acc = acc + self.columns[s].poly_mul(p)
            cols.append(acc)
        return PresentationMap(other.source, self.target, tuple(cols))

    def __eq__(self, other):
        return (
            isinstance(other, PresentationMap)
            and self.source == other.source
            and self.target == other.target
            and self.columns == other.columns
        )

    def __repr__(self):
        return f"PresentationMap({self.target.rank}x{self.source.rank} over {self.target.ring})"


def groebner(p: PresentationMap, degree_cap: int = DEFAULT_DEGREE_CAP) -> GroebnerBasis:
    """Reduced Groebner basis of the columns of p, kept on p per degree cap (see PresentationMap)."""
    return p._memoized("groebner", degree_cap, lambda p, cap: buchberger(p.columns, cap, p.target))


def syzygy_basis(gb: GroebnerBasis) -> PresentationMap:
    """Generators of the syzygy module of gb.elements.

    The target is the free module F_G on the basis elements (placed at
    their internal degrees), and the columns are the S-pair syzygies of
    the graph of "evaluate at gb.elements", whose basis is the elements
    (g_i, e_i); composing the result with that map gives zero.
    """
    syz_target = FreeModule(gb.module.ring, tuple(e.degree() or 0 for e in gb.elements))
    graph = _graph_module(gb.module, syz_target)
    elements = tuple(
        ModuleElement(graph, g.components + syz_target.generator(i).components) for i, g in enumerate(gb.elements)
    )
    columns = [c for c in _s_pair_syzygies(GroebnerBasis(graph, elements), syz_target) if not c.is_zero()]
    return PresentationMap.from_columns(syz_target, _sorted_columns(columns))


def _graph_module(target: FreeModule, source: FreeModule) -> FreeModule:
    """target (+) source, the module a graph lives in."""
    return FreeModule(target.ring, target.generator_degrees + source.generator_degrees)


def _s_pair_syzygies(gb: GroebnerBasis, source: FreeModule):
    """The source part of every S-pair of a graph basis, reduced by it.

    gb lives in target (+) source and has its leads in target.  By
    Schreyer's theorem the results generate the syzygies among the target
    parts, written over the source.
    """
    k = gb.module.rank - source.rank
    elements, leads = gb.elements, gb.leads
    for i, j in itertools.combinations(range(len(elements)), 2):
        data = _s_pair(leads[i], leads[j])
        if data is not None:
            _, _, mono_i, mono_j = data
            s = elements[i].monomial_mul(mono_i) - elements[j].monomial_mul(mono_j)
            rem = division(s, elements, leads=leads)
            if any(not p.is_zero() for p in rem.components[:k]):
                raise ValueError("input is not a Groebner basis: an S-pair does not reduce to 0")
            yield ModuleElement(source, rem.components[k:])


def _sorted_columns(columns):
    def key(col):
        d = col.degree()
        lt = leading_term(col)
        return (d if d is not None else -1, _term_key(lt[0]) if lt else ())

    # dict.fromkeys keeps the first of equal columns, in sorted order.
    return list(dict.fromkeys(sorted(columns, key=key)))


class _Graph:
    """One Groebner basis of the graph of p.

    The pass runs on (p(e_j), e_j) in p.target (+) p.source for every
    nonzero column and reduces the target components only.  Each basis
    element's target part is an element of the reduced basis of p's image,
    and its source part x satisfies p(x) == that target part.
    """

    def __init__(self, p: PresentationMap, degree_cap: int):
        self.p = p
        self.module = _graph_module(p.target, p.source)
        gens = [self._element(c, p.source.generator(j)) for j, c in enumerate(p.columns) if not c.is_zero()]
        self.gb = _buchberger(gens, degree_cap, self.module, p.target.rank)

    def _element(self, t: ModuleElement, s: ModuleElement) -> ModuleElement:
        return ModuleElement(self.module, t.components + s.components)

    def lift(self, e: ModuleElement):
        """(remainder, x) with p(x) + remainder == e, from one division of (e, 0)."""
        k = self.p.target.rank
        rem = division(self._element(e, self.p.source.zero_element()), self.gb.elements, leads=self.gb.leads)
        return ModuleElement(self.p.target, rem.components[:k]), -ModuleElement(self.p.source, rem.components[k:])

    def syzygy_columns(self):
        """Generators of ker(p), sorted: the unit vectors of the zero columns,
        the S-pair syzygies of the basis, and lift(c) - e_j for each nonzero
        column c = p(e_j)."""
        p = self.p
        cols = [p.source.generator(j) for j, c in enumerate(p.columns) if c.is_zero()]
        cols.extend(_s_pair_syzygies(self.gb, p.source))
        for j, c in enumerate(p.columns):
            if not c.is_zero():
                rem, lifted = self.lift(c)
                if not rem.is_zero():
                    raise ValueError("column failed to reduce against its own basis")
                cols.append(lifted - p.source.generator(j))
        return _sorted_columns([c for c in cols if not c.is_zero()])


def syzygies_of_columns(p: PresentationMap, degree_cap: int = DEFAULT_DEGREE_CAP) -> PresentationMap:
    """Generating set of ker(p) as columns of a map into p.source.

    Runs one Buchberger pass on the graph of p and returns the S-pair
    syzygies of its basis and the division discrepancies of the columns,
    all read off in source coordinates.
    """
    return PresentationMap.from_columns(p.source, _Graph(p, degree_cap).syzygy_columns())


def quotient_presentation(k: PresentationMap, elements, degree_cap=DEFAULT_DEGREE_CAP) -> PresentationMap:
    """Present span(columns of k) / span(elements) on the generators of k.

    Every element must lie in k.target and in the span of k's columns, or
    NotInSpanError is raised.  The columns of the result are the nonzero
    lifts of the elements to k.source, in order, followed by the columns of
    syzygies_of_columns(k); one basis of k's graph serves both.
    """
    graph = _Graph(k, degree_cap)
    cols = []
    for e in elements:
        if e.module != k.target:
            raise RingMismatchError("element outside the target module")
        rem, lifted = graph.lift(e)
        if not rem.is_zero():
            raise NotInSpanError("an element is not in the span of the columns")
        cols.append(lifted)
    cols.extend(graph.syzygy_columns())
    return PresentationMap.from_columns(k.source, [c for c in cols if not c.is_zero()])


# ---------------------------------------------------------------------------
# Finite length and Hilbert functions.


@dataclass(frozen=True)
class FiniteLengthReport:
    finite: bool
    hilbert: tuple
    total_dim: int
    top_degree: int

    def __bool__(self):
        return self.finite


def finite_length_and_hilbert(p: PresentationMap, degree_cap: int = DEFAULT_DEGREE_CAP) -> FiniteLengthReport:
    """Decide finite length of coker(p) and read off its Hilbert function.

    Finiteness is combinatorial: for every target component the leading-term
    module must contain a pure power of every variable.  When it does, the
    Hilbert values are the counts of standard monomials by degree, and
    top_degree is the regularity of the cokernel.  The report is kept on p
    per degree cap (see PresentationMap).
    """
    return p._memoized("finite_length", degree_cap, _finite_length_and_hilbert)


def _finite_length_and_hilbert(p: PresentationMap, degree_cap: int) -> FiniteLengthReport:
    module = p.target
    ring = module.ring
    if any(d < 0 for d in module.generator_degrees):
        raise DomainError("finite_length_and_hilbert needs nonnegative generator degrees")
    if module.rank == 0:
        return FiniteLengthReport(True, (), 0, None)
    lead = {}
    for (exp, comp), _ in groebner(p, degree_cap).leads:
        lead.setdefault(comp, []).append(exp)

    nvars = ring.num_vars
    bounds = []
    for s in range(module.rank):
        exps = lead.get(s, [])
        comp_bounds = []
        for i in range(nvars):
            pure = [e[i] for e in exps if sum(e) == e[i]]
            if not pure:
                return FiniteLengthReport(False, None, None, None)
            comp_bounds.append(min(pure))
        bounds.append(comp_bounds)
    size = 0
    for s, comp_bounds in enumerate(bounds):
        size += math.prod(comp_bounds)
        if size > MAX_STANDARD_BOX:
            raise DegreeCapError(
                f"standard-monomial box of {size} monomials at component {s} exceeds cap {MAX_STANDARD_BOX}"
            )

    counts = {}
    for s in range(module.rank):
        exps = lead.get(s, [])
        for mono in itertools.product(*map(range, bounds[s])):
            if any(_divides(e, mono) for e in exps):
                continue
            d = ring.var_degree * sum(mono) + module.generator_degrees[s]
            counts[d] = counts.get(d, 0) + 1
    if not counts:
        return FiniteLengthReport(True, (0,), 0, None)
    top = max(counts)
    hilbert = tuple(counts.get(d, 0) for d in range(top + 1))
    return FiniteLengthReport(True, hilbert, sum(hilbert), top)


# ---------------------------------------------------------------------------
# Presentation file format.


def parse_presentation(text: str) -> PresentationMap:
    """Parse the line-oriented presentation format.

    Line 1: "ring r=<int> vardeg=<1|2>"; line 2: "target <d1> ... <dk>";
    line 3: "matrix <k> <l>"; then k rows of l space-free polynomial
    expressions.  Lines starting with "#" are comments.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 3:
        raise ParseError("presentation needs ring, target and matrix lines")
    ring = _parse_ring_line(lines[0])
    if not lines[1].startswith("target"):
        raise ParseError(f"expected 'target ...', got {lines[1]!r}")
    target_degrees = tuple(parse_int(tok, repr(lines[1])) for tok in lines[1].split()[1:])
    head = lines[2].split()
    if len(head) != 3 or head[0] != "matrix":
        raise ParseError(f"expected 'matrix <k> <l>', got {lines[2]!r}")
    k, l = parse_int(head[1], repr(lines[2])), parse_int(head[2], repr(lines[2]))
    if k != len(target_degrees):
        raise ParseError(f"matrix has {k} rows but target lists {len(target_degrees)} degrees")
    body = lines[3:]
    if len(body) != k:
        raise ParseError(f"expected {k} matrix rows, got {len(body)}")
    rows = []
    for ln in body:
        toks = ln.split()
        if len(toks) != l:
            raise ParseError(f"expected {l} entries in row {ln!r}")
        rows.append([parse_poly(tok, ring) for tok in toks])
    return PresentationMap.from_matrix(ring, target_degrees, rows)


def _parse_ring_line(line: str) -> Ring:
    toks = line.split()
    if not toks or toks[0] != "ring":
        raise ParseError(f"expected 'ring ...', got {line!r}")
    fields = dict(tok.split("=", 1) for tok in toks[1:] if "=" in tok)
    if "r" not in fields:
        raise ParseError("ring line missing field 'r'")
    r = parse_int(fields["r"], repr(line))
    vardeg = parse_int(fields.get("vardeg", "1"), repr(line))
    try:
        return Ring(r, vardeg)
    except ValueError as exc:
        raise ParseError(f"bad ring line {line!r}: {exc}") from exc


def format_presentation(p: PresentationMap) -> str:
    """Inverse of parse_presentation (entries printed without spaces)."""
    ring = p.target.ring
    out = [f"ring r={ring.num_vars} vardeg={ring.var_degree}"]
    out.append("target " + " ".join(str(d) for d in p.target.generator_degrees))
    out.append(f"matrix {p.target.rank} {p.source.rank}")
    for i in range(p.target.rank):
        out.append(" ".join(str(p.entry(i, j)).replace(" ", "") for j in range(p.source.rank)))
    return "\n".join(out) + "\n"
