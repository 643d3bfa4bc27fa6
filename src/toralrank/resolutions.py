"""Minimal graded free resolutions and an independent homology oracle.

A resolution is built by iterating the syzygy construction and cancelling
constant (unit) entries after every stage.  Because each partial complex is
kept minimal, the iteration stops after at most num_vars syzygy stages.

`betti_via_koszul` recomputes the graded Betti numbers without any Groebner
machinery, as the homology of the cokernel tensored with the exterior
complex on the variables, degree piece by degree piece.  The two routes
agreeing is the package's central cross-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .diagrams import BettiDiagram
from .errors import DegreeCapError, DomainError
from .groebner import (
    DEFAULT_DEGREE_CAP,
    FiniteLengthReport,
    PresentationMap,
    finite_length_and_hilbert,
    syzygies_of_columns,
)
from .polyring import FreeModule, ModuleElement


@dataclass(frozen=True)
class Resolution:
    """Chain F_0 <- F_1 <- ... with maps[i]: F_{i+1} -> F_i, maps[0] = p."""

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
        syz = syzygies_of_columns(maps[-1], degree_cap)
        if syz.source.rank == 0:
            break
        maps.append(syz)
        _minimize(maps)
        if maps[-1].source.rank == 0:
            maps.pop()
            break
    return Resolution(tuple(maps))


def _minimize(maps):
    """Cancel unit (constant) entries everywhere, lowest map / (row, col) first.

    A unit pivot at (row, col) of maps[idx] splits off a trivial summand:
    after clearing the pivot row by column operations, dropping the pivot
    row and column, the neighbouring maps only lose the matching column /
    row (the complex identity makes their corrected entries vanish).
    """
    while True:
        spot = _find_unit(maps)
        if spot is None:
            return
        idx, row, col = spot
        a = maps[idx]
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
        maps[idx] = PresentationMap(new_source, new_target, tuple(new_cols))
        if idx > 0:
            prev = maps[idx - 1]
            kept = [c for j, c in enumerate(prev.columns) if j != row]
            maps[idx - 1] = PresentationMap(
                FreeModule(prev.source.ring, _drop(prev.source.generator_degrees, row)),
                prev.target,
                tuple(kept),
            )
        if idx + 1 < len(maps):
            nxt = maps[idx + 1]
            new_nxt_target = FreeModule(nxt.target.ring, _drop(nxt.target.generator_degrees, col))
            nxt_cols = [
                ModuleElement(new_nxt_target, tuple(_drop(list(c.components), col)))
                for c in nxt.columns
            ]
            maps[idx + 1] = PresentationMap(nxt.source, new_nxt_target, tuple(nxt_cols))


def _find_unit(maps):
    for idx, m in enumerate(maps):
        for row in range(m.target.rank):
            for col in range(m.source.rank):
                if m.entry(row, col).constant_term() != 0:
                    return idx, row, col
    return None


def _drop(seq, i):
    seq = list(seq)
    del seq[i]
    return seq


# ---------------------------------------------------------------------------
# Koszul-Tor oracle: Betti numbers by plain graded linear algebra.


class _GradedCoker:
    """Graded pieces of coker(p) with multiplication-by-variable maps.

    Bases are the non-pivot monomial/generator pairs after reducing the
    column multiples away; everything is exact Fraction linear algebra.
    """

    def __init__(self, p: PresentationMap, max_degree: int):
        ring = p.target.ring
        if any(d < 0 for d in p.target.generator_degrees):
            raise DomainError("oracle needs nonnegative generator degrees")
        self.ring = ring
        self.p = p
        self.max_degree = max_degree
        self.ambient = {}  # degree -> list of (exp, comp)
        self.index = {}  # degree -> {(exp, comp): position}
        self.image = {}  # degree -> linalg.Subspace
        self.quotient = {}  # degree -> list of ambient positions (non-pivot)
        for d in range(max_degree + 1):
            basis = graded_basis(ring, p.target.generator_degrees, d)
            self.ambient[d] = basis
            self.index[d] = {bc: k for k, bc in enumerate(basis)}
            sub = linalg.Subspace(len(basis))
            for vec in self._image_vectors(d):
                sub.add(vec)
            self.image[d] = sub
            pivots = set(sub.pivots())
            self.quotient[d] = [k for k in range(len(basis)) if k not in pivots]

    def dim(self, d: int) -> int:
        if d < 0 or d > self.max_degree:
            return 0
        return len(self.quotient[d])

    def _image_vectors(self, d):
        ring = self.ring
        for col in self.p.columns:
            cd = col.degree()
            if cd is None:
                continue
            rem = d - cd
            if rem < 0 or rem % ring.var_degree:
                continue
            for exp in _monomials_of_degree(ring.num_vars, rem // ring.var_degree):
                vec = [Fraction(0)] * len(self.ambient[d])
                for (texp, comp), coeff in col.monomial_mul(exp).terms():
                    vec[self.index[d][(texp, comp)]] += coeff
                yield vec

    def reduce_to_quotient(self, d, vec):
        red = self.image[d].reduce(vec)
        return [red[k] for k in self.quotient[d]]

    def mult_map(self, var: int, d: int):
        """Matrix of x_var: coker_d -> coker_{d+var_degree} on quotient bases."""
        ring = self.ring
        d2 = d + ring.var_degree
        rows = len(self.quotient.get(d2, []))
        out_cols = []
        for pos in self.quotient[d]:
            exp, comp = self.ambient[d][pos]
            nexp = tuple(e + (1 if i == var else 0) for i, e in enumerate(exp))
            vec = [Fraction(0)] * len(self.ambient[d2])
            vec[self.index[d2][(nexp, comp)]] = Fraction(1)
            out_cols.append(self.reduce_to_quotient(d2, vec))
        # Column-major -> row-major.
        return [[out_cols[c][r] for c in range(len(out_cols))] for r in range(rows)]


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
    """
    ring = p.target.ring
    r = ring.num_vars
    vd = ring.var_degree
    coker = _GradedCoker(p, max_degree)

    subsets = {i: list(itertools.combinations(range(r), i)) for i in range(r + 2)}

    def space(i, j):
        """Basis of K_{i,j}: (subset S, quotient slot) with |S| = i."""
        d = j - vd * i
        if d < 0 or d > max_degree or i < 0 or i > r:
            return []
        return [(S, q) for S in subsets[i] for q in range(coker.dim(d))]

    def boundary(i, j):
        """Matrix of K_{i,j} -> K_{i-1,j}."""
        dom = space(i, j)
        cod = space(i - 1, j)
        rows = [[Fraction(0)] * len(dom) for _ in range(len(cod))]
        if dom and cod:
            cod_index = {bc: k for k, bc in enumerate(cod)}
            d = j - vd * i
            mats = {v: coker.mult_map(v, d) for v in range(r)}
            for cidx, (S, q) in enumerate(dom):
                for pos, v in enumerate(S):
                    sign = (-1) ** pos
                    Srem = S[:pos] + S[pos + 1 :]
                    col = mats[v]
                    for q2 in range(len(col)):
                        val = col[q2][q]
                        if val:
                            rows[cod_index[(Srem, q2)]][cidx] += sign * val
        return rows, len(dom), len(cod)

    entries = {}
    for j in range(max_degree + 1):
        ranks = {}
        dims = {}
        for i in range(r + 2):
            mat, ncols, _ = boundary(i, j)
            dims[i] = ncols
            ranks[i] = linalg.rank(mat) if mat and ncols else 0
        for i in range(r + 1):
            beta = dims[i] - ranks[i] - ranks.get(i + 1, 0)
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
