"""Minimal graded free resolutions and an independent homology oracle.

A resolution is built one step at a time: the last map gives way to the
reduced Groebner basis G of its columns (the same image), the cofactor
syzygies of G, which generate all its syzygies (Schreyer), are appended, and
unit entries are cancelled.  Because each partial complex is kept minimal,
the iteration stops after at most num_vars syzygy stages.

`betti_via_koszul` recomputes the graded Betti numbers without any Groebner
machinery, as the homology of the cokernel tensored with the exterior
complex on the variables, degree piece by degree piece.  The two routes
agreeing is the package's central cross-check.  Each graded piece of the
cokernel comes from one sparse reduced echelon form of the image, and
multiplication by a variable is read off its rows.  Above every generator
degree a piece is spanned by variables times the piece one variable degree
lower, so once the cokernel vanishes there it vanishes again one variable
degree up, and such degrees are skipped.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from . import linalg
from .diagrams import BettiDiagram
from .errors import DegreeCapError, DomainError
from .groebner import (
    DEFAULT_DEGREE_CAP,
    PresentationMap,
    finite_length_and_hilbert,
    groebner,
    syzygy_basis,
)
from .polyring import FreeModule, ModuleElement

_ZERO, _ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class Resolution:
    """Chain F_0 <- F_1 <- ... with maps[i]: F_{i+1} -> F_i; maps[0] is p's minimized reduced basis."""

    maps: tuple

    @property
    def target(self) -> FreeModule:
        return self.maps[0].target

    def free_modules(self):
        mods = [self.maps[0].target]
        for m in self.maps:
            mods.append(m.source)
        return mods

    @property
    def length(self) -> int:
        mods = self.free_modules()
        top = len(mods) - 1
        while top > 0 and mods[top].rank == 0:
            top -= 1
        return top

    def betti_diagram(self) -> BettiDiagram:
        entries = {}
        for i, mod in enumerate(self.free_modules()):
            for d in mod.generator_degrees:
                entries[(i, d)] = entries.get((i, d), 0) + 1
        return BettiDiagram(entries, codim_hint=self.target.ring.num_vars)

    def is_minimal(self) -> bool:
        return all(m.image_in_augmentation_ideal() for m in self.maps)


def minimal_free_resolution(p: PresentationMap, degree_cap: int = DEFAULT_DEGREE_CAP) -> Resolution:
    """Minimal free resolution of coker(p), kept on p per degree cap (see PresentationMap)."""
    return p._memoized("resolution", degree_cap, _resolve)


def _resolve(p: PresentationMap, degree_cap: int) -> Resolution:
    maps = [p]
    _minimize(maps)
    safety = p.target.ring.num_vars + 2
    while maps[-1].source.rank > 0:
        if len(maps) > safety:
            raise DegreeCapError("resolution failed to terminate; input may be corrupt")
        gb = groebner(maps[-1], degree_cap)
        syz = syzygy_basis(gb)
        maps[-1] = PresentationMap(syz.target, maps[-1].target, gb.elements)
        if syz.source.rank == 0:
            break
        maps.append(syz)
        _minimize(maps)
        if maps[-1].source.rank == 0:
            maps.pop()
            break
    return Resolution(tuple(maps))


def _minimize(maps):
    """Cancel the unit (constant) entries of maps[-1], lowest (row, col) first.

    Earlier maps are minimal already: maps[-2] is a reduced basis of a
    minimal map's image, so its entries lie in the maximal ideal.  A unit
    pivot at (row, col) splits off a trivial summand: after clearing the
    pivot row by column operations and dropping the pivot row and column,
    maps[-2] only loses the matching column (the complex identity makes
    its corrected entries vanish).
    """
    while True:
        spot = _find_unit(maps[-1])
        if spot is None:
            return
        row, col = spot
        a = maps[-1]
        cols = [list(c.components) for c in a.columns]
        u = cols[col][row]
        uc = u.constant_term()
        for j in range(len(cols)):
            if j == col:
                continue
            lam = cols[j][row].scale(1 / uc)
            if lam.is_zero():
                continue
            cols[j] = [x - lam * y for x, y in zip(cols[j], cols[col])]
        new_target = FreeModule(a.target.ring, _drop(a.target.generator_degrees, row))
        new_source = FreeModule(a.source.ring, _drop(a.source.generator_degrees, col))
        new_cols = []
        for j, c in enumerate(cols):
            if j == col:
                continue
            new_cols.append(ModuleElement(new_target, tuple(_drop(c, row))))
        maps[-1] = PresentationMap(new_source, new_target, tuple(new_cols))
        if len(maps) > 1:
            prev = maps[-2]
            kept = [c for j, c in enumerate(prev.columns) if j != row]
            maps[-2] = PresentationMap(
                FreeModule(prev.source.ring, _drop(prev.source.generator_degrees, row)),
                prev.target,
                tuple(kept),
            )


def _find_unit(m):
    for row in range(m.target.rank):
        for col in range(m.source.rank):
            if m.entry(row, col).constant_term() != 0:
                return row, col
    return None


def _drop(seq, i):
    seq = list(seq)
    del seq[i]
    return seq


# ---------------------------------------------------------------------------
# Koszul-Tor oracle: Betti numbers by plain graded linear algebra.


class _GradedCoker:
    """Graded pieces of coker(p) with multiplication-by-variable maps.

    Per degree the column multiples are eliminated, sparse, into a reduced
    echelon `linalg.Subspace` over the target's monomial/generator pairs;
    the non-pivot pairs are the quotient basis.  Degrees that the vanishing
    rule (module docstring) clears get no basis and no elimination.
    """

    def __init__(self, p: PresentationMap, max_degree: int):
        ring = p.target.ring
        gdegs = p.target.generator_degrees
        if any(d < 0 for d in gdegs):
            raise DomainError("oracle needs nonnegative generator degrees")
        self.var_degree = vd = ring.var_degree
        self.index = {}  # degree -> {(exp, comp): ambient position}
        self.image = {}  # degree -> linalg.Subspace
        self.slot = {}  # degree -> {non-pivot ambient position: quotient slot}
        self.basis = {}  # degree -> (exp, comp) per quotient slot
        columns = [(c.degree(), [(t, Fraction(x)) for t, x in c.terms()]) for c in p.columns if not c.is_zero()]
        top_generator = max(gdegs, default=-1)
        for d in range(max_degree + 1):
            if d > top_generator and not self.dim(d - vd):
                continue
            pairs = graded_basis(ring, gdegs, d)
            index = self.index[d] = {pair: k for k, pair in enumerate(pairs)}
            image = self.image[d] = linalg.Subspace(len(pairs))
            for cd, terms in columns:
                if d >= cd and (d - cd) % vd == 0:
                    for exp in _monomials_of_degree(ring.num_vars, (d - cd) // vd):
                        image.insert({index[(tuple(map(add, exp, e)), c)]: x for (e, c), x in terms})
            free = [k for k in range(len(pairs)) if image.row(k) is None]
            self.slot[d] = {k: q for q, k in enumerate(free)}
            self.basis[d] = [pairs[k] for k in free]

    def dim(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def mult_map(self, var: int, d: int):
        """x_var: coker_d -> coker_{d+var_degree}, one sparse column {slot: Fraction} per slot.

        Both degrees must have a basis.  x_var sends a slot to an ambient
        position t.  A non-pivot t is itself a slot; a pivot t is congruent to
        minus the non-pivot part of the echelon row with pivot t.
        """
        d2 = d + self.var_degree
        index, image, slot = self.index[d2], self.image[d2], self.slot[d2]
        cols = []
        for exp, comp in self.basis[d]:
            t = index[(exp[:var] + (exp[var] + 1,) + exp[var + 1 :], comp)]
            row = image.row(t)
            cols.append({slot[t]: _ONE} if row is None else {slot[j]: -x for j, x in row.items() if j != t})
        return cols


def graded_basis(ring, generator_degrees, d):
    """(exponent, generator) pairs of internal degree d, generator by generator."""
    basis = []
    for comp, gdeg in enumerate(generator_degrees):
        rem = d - gdeg
        if rem >= 0 and rem % ring.var_degree == 0:
            basis.extend((exp, comp) for exp in _monomials_of_degree(ring.num_vars, rem // ring.var_degree))
    return basis


def _monomials_of_degree(nvars, total):
    if total < 0:
        return
    if nvars == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _monomials_of_degree(nvars - 1, total - head):
            yield (head,) + tail


def betti_via_koszul(p: PresentationMap, max_degree: int) -> BettiDiagram:
    """Graded Betti numbers of coker(p) for internal degrees <= max_degree.

    Computed as the homology of coker(p) tensored with the exterior complex
    on the variables, with boundary e_S (x) m -> sum sign(i,S) e_{S-i} (x)
    x_i m and sign(i,S) = (-1)^{#{j in S : j < i}}.  No Groebner bases are
    involved, which makes this an independent check on the resolution.
    The maps x_i m are read off the reduced echelon rows of the image of p
    degree by degree, and the degrees where coker(p) vanishes (above every
    generator degree, right after a degree where it vanishes) are skipped.
    """
    ring = p.target.ring
    r, vd = ring.num_vars, ring.var_degree
    coker = _GradedCoker(p, max_degree)
    subsets = [list(itertools.combinations(range(r), i)) for i in range(r + 1)]
    mults = {}

    def space(i, d):
        """Basis of K_{i, d + vd*i}: (subset S, quotient slot) with |S| = i."""
        return [(S, q) for S in subsets[i] for q in range(coker.dim(d))] if 0 <= i <= r else []

    def boundary_rank(i, j):
        """Rank of K_{i,j} -> K_{i-1,j}."""
        d = j - vd * i
        dom, cod = space(i, d), space(i - 1, d + vd)
        if not dom or not cod:
            return 0
        if d not in mults:
            mults[d] = [coker.mult_map(v, d) for v in range(r)]
        cod_index = {bc: k for k, bc in enumerate(cod)}
        rows = [[_ZERO] * len(dom) for _ in cod]
        for cidx, (S, q) in enumerate(dom):
            for pos, v in enumerate(S):
                Srem = S[:pos] + S[pos + 1 :]
                for q2, val in mults[d][v][q].items():
                    rows[cod_index[(Srem, q2)]][cidx] += -val if pos % 2 else val
        return linalg.rank(rows)

    entries = {}
    for j in range(max_degree + 1):
        ranks = [boundary_rank(i, j) for i in range(r + 2)]
        for i in range(r + 1):
            beta = math.comb(r, i) * coker.dim(j - vd * i) - ranks[i] - ranks[i + 1]
            if beta:
                entries[(i, j)] = beta
    return BettiDiagram(entries, codim_hint=r)


# ---------------------------------------------------------------------------
# The generator-count inequality for finite-length cokernels.


@dataclass(frozen=True)
class RatioCheckReport:
    k: int
    l: int
    N: int
    ratio: Fraction
    holds: bool
    beta0: int
    beta1: int
    hilbert: tuple

    @property
    def required(self) -> int:
        return math.ceil(self.ratio * self.k)


def check_generator_ratio(p: PresentationMap, degree_cap: int = DEFAULT_DEGREE_CAP) -> RatioCheckReport:
    """Check l >= ceil((N+r)/(N+1) * k) for a presentation p: R^l -> R^k.

    Requires the image inside I*target and a finite-length cokernel; N is
    the top nonzero degree of the cokernel (its regularity).  Also reports
    beta_0 and beta_1 of the cokernel from the minimal resolution, so the
    caller can confirm beta_0 = k and beta_1 <= l.
    """
    if not p.image_in_augmentation_ideal():
        raise DomainError("image is not contained in I * target")
    rep = finite_length_and_hilbert(p, degree_cap)
    if not rep.finite:
        raise DomainError("cokernel does not have finite length")
    r = p.target.ring.num_vars
    k = p.target.rank
    l = p.source.rank
    N = rep.top_degree if rep.top_degree is not None else 0
    ratio = Fraction(N + r, N + 1)
    res = minimal_free_resolution(p, degree_cap)
    diagram = res.betti_diagram()
    beta0 = int(diagram.total(0))
    beta1 = int(diagram.total(1))
    holds = l >= math.ceil(ratio * k)
    return RatioCheckReport(k, l, N, ratio, holds, beta0, beta1, rep.hilbert)


def hilbert_by_linear_algebra(p: PresentationMap, up_to: int):
    """Brute-force graded dimensions of coker(p) for degrees 0..up_to."""
    coker = _GradedCoker(p, up_to)
    return tuple(coker.dim(d) for d in range(up_to + 1))
