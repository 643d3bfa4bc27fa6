"""Transfer of the twisted differential onto R (x) H along a retract.

The construction works degreewise with exact coefficients.  A retract
splits the algebra as A + B + C with d vanishing on A and B and carrying C
isomorphically onto B; cycles chosen from A realize the cohomology.  The
twisted part t of the extended differential strictly lowers word length,
so on any bounded degree range the geometric series of correction terms
stabilizes after finitely many steps -- no convergence bookkeeping is
needed, every identity below is checked as an exact matrix identity.

The monomial bases come from `sullivan.GradedBasis`.  The retract owns the
tables of g and phi, one sparse row per basis monomial; `OperatorContext`
adds t and D and extends all four R-linearly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, partial
from fractions import Fraction

from . import linalg
from .errors import DomainError, NotInSpanError, ValidationError
from .groebner import (
    DEFAULT_DEGREE_CAP,
    FiniteLengthReport,
    PresentationMap,
    finite_length_and_hilbert,
    quotient_presentation,
    syzygies_of_columns,
)
from .polyring import FreeModule, ModuleElement, Polynomial, Ring
from .resolutions import graded_basis
from .sullivan import ActionExtension, AlgebraElement, GradedBasis, SullivanModel, checked_cutoff


@dataclass
class RetractData:
    """Degreewise splitting of the algebra plus the retract maps.

    `h_info[i] = (degree, local coordinates of the cycle, tag)`; tags mark
    seeded classes so later stages can find them again.  `g_table` and
    `phi_table` hold one row per basis monomial through the cutoff, by
    global index: g as {H index: Fraction}, phi as {basis index: Fraction}.
    """

    model: SullivanModel
    cutoff: int
    basis: GradedBasis
    h_info: list
    a_count: dict
    b_count: dict
    c_locals: dict
    g_table: list
    phi_table: list
    h_offset: dict = field(default_factory=dict)

    def dim_A(self, p):
        return self.a_count.get(p, 0)

    def dim_B(self, p):
        return self.b_count.get(p, 0)

    def dim_C(self, p):
        return len(self.c_locals.get(p, []))

    def f_vector(self, h_index):
        deg, vec, _ = self.h_info[h_index]
        return deg, vec

    def _combine_rows(self, table, p, vec):
        """Sum of vec[loc] times the table row of the degree-p monomial loc."""
        out = {}
        for loc, c in enumerate(vec):
            if c:
                for key, entry in table[self.basis.global_index(p, loc)].items():
                    out[key] = out.get(key, 0) + c * entry
        return {key: v for key, v in out.items() if v}

    def g_local(self, p, vec):
        """A-coordinates (paired with their global H indices)."""
        return self._combine_rows(self.g_table, p, vec)

    def phi_local(self, p, vec):
        """Homotopy: minus the d-preimage of the B-part, landing in degree p-1."""
        prev = [Fraction(0)] * self.basis.dim(p - 1)
        for idx, c in self._combine_rows(self.phi_table, p, vec).items():
            prev[idx - self.basis.global_index(p - 1, 0)] = c
        return prev


def build_retract(model: SullivanModel, cutoff: int = None, seed=None) -> RetractData:
    """Split the algebra through `cutoff` and assemble the retract maps.

    `seed` is a list of (tag, AlgebraElement) whose spans end up inside A.
    Every seed must be a homogeneous nonzero cycle, and a seed of degree at
    most `cutoff` must be independent of the coboundaries and of the
    earlier seeds, or a ValidationError is raised.  A seed of degree above
    `cutoff` is dropped without an error, so the retract then holds none
    of it.  Only `pipeline.run_pipeline` refuses a cutoff below the degree-1
    seeds of Z' (its projections need them); `hb-build` and `hb-check`
    accept it.
    """
    cutoff = checked_cutoff(model, cutoff)
    basis = GradedBasis(model, cutoff + 1)
    seed = list(seed or [])
    seeds_by_degree = {}
    for tag, elem in seed:
        if elem.is_zero() or not elem.is_homogeneous():
            raise ValidationError(f"seed {tag} must be homogeneous and nonzero")
        if not model.d(elem).is_zero():
            raise ValidationError(f"seed {tag} is not a cycle")
        seeds_by_degree.setdefault(elem.degree(), []).append((tag, elem))

    h_info = []
    a_count, b_count, c_locals, h_offset = {}, {}, {}, {}
    g_table, phi_table = [], []
    for p in basis.degrees_through(cutoff):
        n = basis.dim(p)
        d_cols = basis.d_columns(p)
        # C: pivot monomials of d_p (their images form a basis of B_{p+1}).
        dmat = [[d_cols[j][i] for j in range(n)] for i in range(basis.dim(p + 1))]
        _, pivots = linalg.rref(dmat)
        c_locals[p] = pivots
        # B_p: image of the previous differential.
        b_vectors = [prev_d_cols[loc] for loc in c_locals[p - 1]] if p else []
        b_count[p] = len(b_vectors)
        # Kernel of d_p, then A = seeds + a deterministic completion.
        kernel = linalg.kernel_basis(dmat, n)
        span = linalg.Subspace(n)
        for b in b_vectors:
            span.add(b)
        a_vectors = []
        for tag, elem in seeds_by_degree.get(p, []):
            vec = basis.element_to_local(elem, p)
            if not span.add(vec):
                raise ValidationError(f"seed {tag} is not independent (lies in B + earlier seeds)")
            a_vectors.append((tag, vec))
        for vec in kernel:
            if span.add(vec):
                a_vectors.append((None, vec))
        a_count[p] = len(a_vectors)
        h_offset[p] = len(h_info)
        for tag, vec in a_vectors:
            h_info.append((p, vec, tag))
        # Invert the change of basis [A | d(C_{p-1}) | C_p] -> monomials.
        columns = [vec for _, vec in a_vectors] + b_vectors
        columns += [[Fraction(int(k == loc)) for k in range(n)] for loc in pivots]
        if len(columns) != n:
            raise ValidationError(f"degree {p}: A+B+C has dimension {len(columns)} != {n}")
        # Column loc of the inverse splits monomial loc: g keeps its
        # A-part, phi sends its B-part back to minus the C monomials.
        na = len(a_vectors)
        prev_c = [basis.global_index(p - 1, loc) for loc in c_locals.get(p - 1, [])]
        for x in zip(*_invert(columns, n)):
            g_table.append({h_offset[p] + a: x[a] for a in range(na) if x[a]})
            phi_table.append({idx: -x[na + b] for b, idx in enumerate(prev_c) if x[na + b]})
        prev_d_cols = d_cols
    return RetractData(
        model, cutoff, basis, h_info, a_count, b_count, c_locals, g_table, phi_table, h_offset
    )


def _invert(columns, n):
    if n == 0:
        return []
    aug = [[columns[j][i] for j in range(n)] + [Fraction(1 if k == i else 0) for k in range(n)] for i in range(n)]
    red, pivots = linalg.rref(aug)
    if pivots != list(range(n)):
        raise ValidationError("split basis is singular")
    return [row[n:] for row in red]


# ---------------------------------------------------------------------------
# R-linear operator calculus.  Vectors are sparse {index: Polynomial}: an
# "rvec" indexes global basis monomials, an "hvec" indexes H classes.


def _vec_add(a, b):
    out = dict(a)
    for k, p in b.items():
        s = out.get(k)
        out[k] = p if s is None else s + p
        if out[k].is_zero():
            del out[k]
    return out


def _vec_sub(a, b):
    return _vec_add(a, {k: -p for k, p in b.items()})


def _vec_is_zero(a):
    return all(p.is_zero() for p in a.values())


def _apply(table, vec):
    """The R-linear map whose value on index k is table[k], applied to vec.

    Table rows map output index -> Polynomial, or -> Fraction for maps that
    are Q-linear on the basis (phi, g).
    """
    out = {}
    for k, poly in vec.items():
        for key, entry in table[k].items():
            add = entry * poly
            cur = out.get(key)
            out[key] = add if cur is None else cur + add
    return {k: v for k, v in out.items() if not v.is_zero()}


class OperatorContext:
    """Everything needed to run the perturbation series for one extension.

    t is tabulated once per basis monomial, D on first use, and phi and g
    are the retract's tables; phi, g and D exist through the retract's
    cutoff, t through the top of the basis.
    """

    def __init__(self, ext: ActionExtension, rd: RetractData):
        self.ext = ext
        self.rd = rd
        self.model = ext.base
        if rd.model.generators != self.model.generators:
            raise ValidationError("retract was built for a different model")
        self.ring = Ring(ext.torus_rank, var_degree=2)
        self.basis = basis = rd.basis
        self.t_table = [self._t_of(idx) for idx in range(len(basis.monomials))]
        self.phi_table, self.g_table = rd.phi_table, rd.g_table
        self.word_cap = max((sum(e for _, e in m) for m in basis.monomials), default=0) + 2

    # -- conversions -------------------------------------------------------

    def _to_rvec(self, extended_elem: AlgebraElement):
        out = {}
        for mono, coeff in extended_elem.terms.items():
            alpha, base_mono = self.ext.split_monomial(mono)
            if base_mono not in self.basis.index:
                raise DomainError("operator output escaped the basis range")
            idx = self.basis.index[base_mono]
            poly = self.ring.monomial(alpha, coeff)
            cur = out.get(idx)
            out[idx] = poly if cur is None else cur + poly
        return {k: p for k, p in out.items() if not p.is_zero()}

    def _D_of(self, idx):
        elem = AlgebraElement(self.model, {self.basis.monomials[idx]: Fraction(1)})
        return self.ext.D(self.ext.embed(elem))

    def _t_of(self, idx):
        elem = AlgebraElement(self.model, {self.basis.monomials[idx]: Fraction(1)})
        return self._to_rvec(self._D_of(idx) - self.ext.embed(self.model.d(elem)))

    @cached_property
    def D_table(self):
        """D of each basis monomial through the cutoff; only the verifier needs it."""
        return [self._to_rvec(self._D_of(idx)) for idx in range(len(self.phi_table))]

    # -- R-linear extensions of the basic maps ------------------------------

    def apply_t(self, rvec):
        return _apply(self.t_table, rvec)

    def apply_phi(self, rvec):
        return _apply(self.phi_table, rvec)

    def apply_g(self, rvec):
        """R (x) Lambda -> R (x) H; returns {h index: Polynomial}."""
        return _apply(self.g_table, rvec)

    def apply_D(self, rvec):
        return _apply(self.D_table, rvec)

    def f_rvec(self, h_index):
        deg, vec = self.rd.f_vector(h_index)
        return {self.basis.global_index(deg, loc): self.ring.constant(c) for loc, c in enumerate(vec) if c}

    # -- stabilized series --------------------------------------------------

    def sigma(self, rvec):
        """Sum of t, t phi t, t phi t phi t, ... applied to rvec (stabilizes)."""
        acc = {}
        u = self.apply_t(rvec)
        steps = 0
        while not _vec_is_zero(u):
            acc = _vec_add(acc, u)
            steps += 1
            if steps > self.word_cap:
                raise ValidationError(
                    "perturbation series did not stabilize; the extension data is invalid"
                )
            u = self.apply_t(self.apply_phi(u))
        return acc


@dataclass
class HirschBrownModel:
    """Free differential module (R (x) H, delta) in the cdga grading."""

    ring: Ring
    h_degrees: tuple
    h_tags: tuple
    delta: dict  # column h index -> {row h index: Polynomial}
    torus_rank: int
    cutoff: int

    def delta_entry(self, row: int, col: int) -> Polynomial:
        return self.delta.get(col, {}).get(row, self.ring.zero())

    @property
    def h_rank(self) -> int:
        return len(self.h_degrees)

    def betti_of_h(self):
        out = {}
        for d in self.h_degrees:
            out[d] = out.get(d, 0) + 1
        return out


def perturb(ext: ActionExtension, rd: RetractData) -> HirschBrownModel:
    """Transferred differential delta = g (sum of twisted corrections) f.

    Raises when the series fails to stabilize (invalid extension data) and
    checks that every matrix entry lands in the augmentation ideal.
    """
    ctx = OperatorContext(ext, rd)
    delta = {}
    for h_idx in range(len(rd.h_info)):
        acc = ctx.sigma(ctx.f_rvec(h_idx))
        col = ctx.apply_g(acc)
        for row, poly in col.items():
            if poly.constant_term() != 0:
                raise ValidationError(
                    "transferred differential has a constant term; retract is inconsistent"
                )
        if col:
            delta[h_idx] = col
    return HirschBrownModel(
        ring=ctx.ring,
        h_degrees=tuple(deg for deg, _, _ in rd.h_info),
        h_tags=tuple(tag for _, _, tag in rd.h_info),
        delta=delta,
        torus_rank=ext.torus_rank,
        cutoff=rd.cutoff,
    )


# ---------------------------------------------------------------------------
# Verification of the transfer identities.


@dataclass
class TransferReport:
    ok: bool
    failures: list
    checked_up_to: int

    def __bool__(self):
        return self.ok


def verify_transfer(ext: ActionExtension, rd: RetractData, hb: HirschBrownModel) -> TransferReport:
    """Exact check of the limit identities of the transferred retract.

    delta-related identities use hb's matrix (so a corrupted model is
    caught); the deformed maps are recomputed from the retract.  The first
    violated identity is reported with a witness basis element.
    """
    ctx = OperatorContext(ext, rd)
    failures = []
    # D of a top-degree monomial reaches degree cutoff+1, where the retract
    # has no phi or g, unless d vanishes on the top degree.
    verify_cutoff = rd.cutoff if rd.model.all_odd() and not rd.dim_C(rd.cutoff) else rd.cutoff - 1

    delta_table = [hb.delta.get(h, {}) for h in range(len(rd.h_info))]
    f_inf_table = []
    for h in range(len(rd.h_info)):
        base = ctx.f_rvec(h)
        f_inf_table.append(_vec_add(base, ctx.apply_phi(ctx.sigma(base))))

    delta_on_hvec = partial(_apply, delta_table)
    f_inf_on_hvec = partial(_apply, f_inf_table)

    def g_inf(rvec):
        acc = ctx.sigma(ctx.apply_phi(rvec))
        return _vec_add(ctx.apply_g(rvec), ctx.apply_g(acc))

    def phi_inf(rvec):
        acc = ctx.sigma(ctx.apply_phi(rvec))
        return _vec_add(ctx.apply_phi(rvec), ctx.apply_phi(acc))

    h_indices = [i for i, (deg, _, _) in enumerate(rd.h_info) if deg <= verify_cutoff]
    basis_indices = [
        i for i in range(len(ctx.basis.monomials)) if ctx.basis.degree_of[i] <= verify_cutoff
    ]

    def check(name, condition_fn, witnesses):
        for w, desc in witnesses:
            if not condition_fn(w):
                failures.append((name, desc))
                return

    # delta^2 = 0.
    check(
        "delta^2 = 0",
        lambda h: _vec_is_zero(delta_on_hvec(delta_table[h])),
        [(h, f"H class #{h} (degree {rd.h_info[h][0]})") for h in h_indices],
    )
    # D f = f delta.
    check(
        "D f_inf = f_inf delta",
        lambda h: _vec_is_zero(
            _vec_sub(ctx.apply_D(f_inf_table[h]), f_inf_on_hvec(delta_table[h]))
        ),
        [(h, f"H class #{h}") for h in h_indices],
    )
    # delta g = g D.
    check(
        "delta g_inf = g_inf D",
        lambda i: _vec_is_zero(
            _vec_sub(
                delta_on_hvec(g_inf(_unit_rvec(ctx, i))),
                g_inf(ctx.apply_D(_unit_rvec(ctx, i))),
            )
        ),
        [(i, f"basis monomial #{i}") for i in basis_indices],
    )
    # g f = id.
    def gf_is_identity(h):
        got = g_inf(f_inf_table[h])
        want = {h: ctx.ring.one()}
        return _vec_is_zero(_vec_sub(got, want))

    check("g_inf f_inf = id", gf_is_identity, [(h, f"H class #{h}") for h in h_indices])

    # f g - id = D phi + phi D.
    def homotopy_identity(i):
        unit = _unit_rvec(ctx, i)
        lhs = _vec_sub(f_inf_on_hvec(g_inf(unit)), unit)
        rhs = _vec_add(ctx.apply_D(phi_inf(unit)), phi_inf(ctx.apply_D(unit)))
        return _vec_is_zero(_vec_sub(lhs, rhs))

    check(
        "f_inf g_inf - id = D phi_inf + phi_inf D",
        homotopy_identity,
        [(i, f"basis monomial #{i}") for i in basis_indices],
    )
    # Side conditions.
    check(
        "phi_inf^2 = 0",
        lambda i: _vec_is_zero(phi_inf(phi_inf(_unit_rvec(ctx, i)))),
        [(i, f"basis monomial #{i}") for i in basis_indices],
    )
    check(
        "phi_inf f_inf = 0",
        lambda h: _vec_is_zero(phi_inf(f_inf_table[h])),
        [(h, f"H class #{h}") for h in h_indices],
    )
    check(
        "g_inf phi_inf = 0",
        lambda i: _vec_is_zero(g_inf(phi_inf(_unit_rvec(ctx, i)))),
        [(i, f"basis monomial #{i}") for i in basis_indices],
    )
    return TransferReport(not failures, failures, verify_cutoff)


def _unit_rvec(ctx, idx):
    return {idx: ctx.ring.one()}


# ---------------------------------------------------------------------------
# The degree-1 splitting of cycles by injectivity of D.


@dataclass(frozen=True)
class ZSplit:
    """ker(d on degree-1 generators) = Z + Z', with D injective on Z.

    Vectors are coordinates over `v1_gens` (the degree-1 generator indices);
    k = dim Z', b = dim ker(d|degree 1).
    """

    v1_gens: tuple
    Z: tuple
    Zprime: tuple

    @property
    def k(self) -> int:
        return len(self.Zprime)

    @property
    def b(self) -> int:
        return len(self.Z) + len(self.Zprime)


def split_Z(ext: ActionExtension) -> ZSplit:
    model = ext.base
    v1 = [i for i in range(len(model.generators)) if model.degree(i) == 1]
    if not v1:
        return ZSplit((), (), ())
    # Kernel of d restricted to degree-1 generators.
    img_monos = sorted({m for i in v1 for m in model.d_of_gen(i).terms})
    pos = {m: k for k, m in enumerate(img_monos)}
    mat = [[Fraction(0)] * len(v1) for _ in img_monos]
    for col, i in enumerate(v1):
        for m, c in model.d_of_gen(i).terms.items():
            mat[pos[m]][col] += c
    kernel = linalg.kernel_basis(mat, len(v1))
    if not kernel:
        return ZSplit(tuple(v1), (), ())
    # D on a kernel vector is purely linear in the torus variables.
    rows = []
    for vec in kernel:
        combo = ext.extended.zero()
        for c, i in zip(vec, v1):
            if c:
                combo = combo + ext.extended.d_of_gen(ext.offset + i).scale(c)
        coeffs = [Fraction(0)] * ext.torus_rank
        for mono, cc in combo.terms.items():
            alpha, base = ext.split_monomial(mono)
            if base:
                raise ValidationError(
                    "D of a d-cycle of degree 1 has a component outside R^2 (x) 1"
                )
            (x_idx,) = [j for j, a in enumerate(alpha) if a]
            coeffs[x_idx] += cc
        rows.append(coeffs)
    dmat = [[rows[j][i] for j in range(len(kernel))] for i in range(ext.torus_rank)]
    zprime_coords = linalg.kernel_basis(dmat, len(kernel))
    zprime = []
    span = linalg.Subspace(len(v1))
    for coords in zprime_coords:
        vec = [sum(c * kernel[j][pos_] for j, c in enumerate(coords)) for pos_ in range(len(v1))]
        span.add(vec)
        zprime.append(tuple(vec))
    z = []
    for vec in kernel:
        if span.add(vec):
            z.append(tuple(vec))
    return ZSplit(tuple(v1), tuple(z), tuple(zprime))


def zsplit_seed(model: SullivanModel, zs: ZSplit):
    """Seeds for build_retract: the exterior monomials on Z and the Z' lines."""
    def vec_elem(vec):
        return AlgebraElement(model, {((i, 1),): c for c, i in zip(vec, zs.v1_gens)})

    seeds = [(("lz", ()), model.one())]
    z_elems = [vec_elem(v) for v in zs.Z]
    n = len(z_elems)
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            prod = model.one()
            for s in subset:
                prod = prod * z_elems[s]
            seeds.append((("lz", subset), prod))
    for i, v in enumerate(zs.Zprime):
        seeds.append((("zp", i), vec_elem(v)))
    return seeds


def seeded_retract(ext: ActionExtension, zs: ZSplit, cutoff: int = None) -> RetractData:
    return build_retract(ext.base, cutoff, seed=zsplit_seed(ext.base, zs))


# ---------------------------------------------------------------------------
# Finite-dimensionality of the transferred cohomology.


@dataclass
class HBFiniteReport:
    finite: bool
    total_dim: int
    parts: dict  # "even"/"odd" -> FiniteLengthReport

    def __bool__(self):
        return self.finite


def hb_cohomology_finite(hb: HirschBrownModel, degree_cap: int = DEFAULT_DEGREE_CAP) -> HBFiniteReport:
    """Homology of (R (x) H, delta) via syzygy kernels and lifted images.

    The module splits by generator parity; each homology piece is presented
    as a cokernel and run through the finite-length test.  total_dim is the
    sum over both parities when finite.
    """
    reports = [_homology_presentation(hb, parity, degree_cap) for parity in (0, 1)]
    finite = all(reports)
    total = sum(rep.total_dim for rep in reports) if finite else None
    return HBFiniteReport(finite, total, dict(zip(("even", "odd"), reports)))


def _parity_indices(hb, parity):
    return [i for i, d in enumerate(hb.h_degrees) if parity is None or d % 2 == parity]


def _restrict(hb, src, dst, ring, source_degrees, target_degrees) -> PresentationMap:
    """delta from the classes `src` to the classes `dst`, over `ring`.

    Entries in rows outside `dst` are dropped; column j of the map is the
    image of class src[j].
    """
    pos = {h: i for i, h in enumerate(dst)}
    target = FreeModule(ring, tuple(target_degrees))
    cols = []
    for h in src:
        comps = [ring.zero()] * len(dst)
        for row, poly in hb.delta.get(h, {}).items():
            if row in pos:
                comps[pos[row]] = poly.with_ring(ring)
        cols.append(ModuleElement(target, tuple(comps)))
    return PresentationMap(FreeModule(ring, tuple(source_degrees)), target, tuple(cols))


def delta_map(hb: HirschBrownModel, parity: int = None) -> PresentationMap:
    """delta restricted to the parity part, as a graded map into the other.

    parity None takes all of H, so delta maps R (x) H into itself.
    """
    src = _parity_indices(hb, parity)
    dst = _parity_indices(hb, None if parity is None else 1 - parity)
    degrees = hb.h_degrees
    return _restrict(hb, src, dst, hb.ring, (degrees[h] + 1 for h in src), (degrees[h] for h in dst))


def _homology_presentation(hb, parity, degree_cap):
    """Present ker(delta|parity) / im(delta|other parity) as a cokernel.

    The kernel generators are the columns of `syzygies_of_columns`;
    `quotient_presentation` lifts the image into them and adds the
    relations among the generators themselves.  Degrees inside the
    presentation are uniformly the cdga degree + 1 (the kernel is computed
    in the source grading of the delta map); the shift does not affect
    finiteness or total dimension.
    """
    out_map = delta_map(hb, parity)
    in_map = delta_map(hb, 1 - parity)
    kernel = syzygies_of_columns(out_map, degree_cap)
    # kernel: R^s -> out_map.source; its columns generate ker(delta|parity).
    if kernel.source.rank == 0:
        # Homology is zero iff the incoming image is zero too (it must be,
        # since im is inside ker); present the zero module.
        if any(not c.is_zero() for c in in_map.columns):
            raise ValidationError("delta^2 != 0: image is not contained in the kernel")
        return FiniteLengthReport(True, (0,), 0, None)
    image = [ModuleElement(kernel.target, col.components) for col in in_map.columns]
    try:
        pres = quotient_presentation(kernel, image, degree_cap)
    except NotInSpanError:
        raise ValidationError("delta^2 != 0: an image column is not in the kernel") from None
    return finite_length_and_hilbert(pres, degree_cap)


def hb_homology_dims_by_degree(hb: HirschBrownModel, up_to: int):
    """Independent oracle: dim of homology of (R (x) H, delta) per cdga degree.

    Pure rational linear algebra on the graded pieces, no Groebner bases.
    """
    def delta_matrix(m):
        dom = graded_basis(hb.ring, hb.h_degrees, m)
        cod = graded_basis(hb.ring, hb.h_degrees, m + 1)
        pos = {bc: i for i, bc in enumerate(cod)}
        rows = [[Fraction(0)] * len(dom) for _ in cod]
        for cidx, (alpha, h) in enumerate(dom):
            for row_h, poly in hb.delta.get(h, {}).items():
                for exp, coeff in poly.terms.items():
                    beta = tuple(a + e for a, e in zip(alpha, exp))
                    key = (beta, row_h)
                    if key in pos:
                        rows[pos[key]][cidx] += coeff
        return rows, len(dom)

    ranks = {}
    dims = {}
    for m in range(up_to + 2):
        mat, ncols = delta_matrix(m)
        dims[m] = ncols
        ranks[m] = linalg.rank(mat) if ncols else 0
    out = []
    for m in range(up_to + 1):
        out.append(dims[m] - ranks[m] - (ranks.get(m - 1, 0)))
    return out


# ---------------------------------------------------------------------------
# Projected presentations consumed by the generator-count inequality.


@dataclass
class ProjectionMaps:
    map_even: PresentationMap  # R (x) (H / exterior part)^even -> R (x) Z'bar
    map_odd: PresentationMap  # R (x) H^odd -> R (x) H^(<k_first)
    k_first: int
    even_vacuous: bool
    odd_vacuous: bool


def projection_presentations(hb: HirschBrownModel, zs: ZSplit) -> ProjectionMaps:
    """Project the transferred differential onto the two target submodules.

    Both maps come out in the resolution grading (variables of degree 1):
    a target class of cdga degree m sits in degree (m - parity)/2, and each
    column keeps the degree its entries dictate.
    """
    tags = hb.h_tags
    if all(t is None for t in tags):
        raise ValidationError("model was built from an unseeded retract")
    res_ring = Ring(hb.torus_rank, var_degree=1)
    degrees = hb.h_degrees
    lz = [i for i, t in enumerate(tags) if t is not None and t[0] == "lz"]
    zp = [i for i, t in enumerate(tags) if t is not None and t[0] == "zp"]
    if len(zp) != zs.k:
        raise ValidationError("retract seeds do not match the given splitting")

    # Even map: sources are even classes outside the exterior part.
    even_src = [i for i in range(hb.h_rank) if degrees[i] % 2 == 0 and i not in lz]
    for i in lz:
        if degrees[i] % 2 == 0:
            col = hb.delta.get(i, {})
            for row in zp:
                if row in col and not col[row].is_zero():
                    raise ValidationError(
                        "delta does not preserve the exterior part; seeding is inconsistent"
                    )
    map_even = _restrict(
        hb, even_src, zp, res_ring, (degrees[i] // 2 for i in even_src), (0 for _ in zp)
    )

    # Odd map: project delta on odd classes onto everything below the first
    # degree with odd cohomology.
    odd_degrees = sorted({d for d in degrees if d % 2})
    k_first = odd_degrees[0] if odd_degrees else None
    odd_src = [i for i in range(hb.h_rank) if degrees[i] % 2 == 1]
    low = [i for i in range(hb.h_rank) if k_first is not None and degrees[i] < k_first]
    map_odd = _restrict(
        hb, odd_src, low, res_ring,
        ((degrees[i] + 1) // 2 for i in odd_src), (degrees[i] // 2 for i in low),
    )

    return ProjectionMaps(
        map_even=map_even,
        map_odd=map_odd,
        k_first=k_first,
        even_vacuous=len(zp) == 0 or len(even_src) == 0,
        odd_vacuous=len(odd_src) == 0 or len(low) == 0,
    )
