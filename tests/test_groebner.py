import hashlib
import random
from fractions import Fraction

import pytest

from toralrank.errors import DegreeCapError, InhomogeneousError, NotInSpanError, ParseError, RingMismatchError
from toralrank.groebner import (
    DEFAULT_DEGREE_CAP,
    GroebnerBasis,
    PresentationMap,
    _Graph,
    buchberger,
    division,
    finite_length_and_hilbert,
    format_presentation,
    leading_term,
    normal_form,
    parse_presentation,
    quotient_presentation,
    s_pair_data,
    syzygy_basis,
    syzygies_of_columns,
)
from toralrank.polyring import FreeModule, ModuleElement, Ring, parse_poly
from toralrank.resolutions import hilbert_by_linear_algebra

from conftest import SEED, data_text


def ring2():
    return Ring(2)


def rank1_module(ring):
    return FreeModule(ring, (0,))


def elem(module, *polys):
    ring = module.ring
    return ModuleElement(module, tuple(parse_poly(p, ring) for p in polys))


def matrix_columns(text):
    return parse_presentation(text)


def all_s_pairs_reduce(gb: GroebnerBasis) -> bool:
    els = list(gb.elements)
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            data = s_pair_data(els[i], els[j])
            if data is None:
                continue
            _, _, mono_i, mono_j = data
            s = els[i].monomial_mul(mono_i) - els[j].monomial_mul(mono_j)
            if not division(s, els).is_zero():
                return False
    return True


class TestBuchberger:
    def test_monomial_generators_already_basis(self):
        F = rank1_module(ring2())
        g1, g2 = elem(F, "x"), elem(F, "y^2")
        gb = buchberger([g1, g2])
        assert len(gb) == 2
        assert set(gb.elements) == {g1, g2}

    def test_empty_generators(self):
        F = rank1_module(ring2())
        gb = buchberger([], module=F)
        assert len(gb) == 0

    def test_two_by_three_matrix_leads(self):
        p = matrix_columns(data_text("m23.pres"))
        gb = buchberger(list(p.columns))
        # Each component's leading-term module must contain a pure power of
        # each variable.
        for comp in range(2):
            for var in range(2):
                assert any(
                    c == comp and sum(e) == e[var] and e[var] > 0
                    for (e, c), _ in map(leading_term, gb.elements)
                )
        assert all_s_pairs_reduce(gb)

    def test_inhomogeneous_rejected(self):
        F = rank1_module(ring2())
        with pytest.raises(InhomogeneousError):
            buchberger([elem(F, "x + x^2")])

    def test_s_pairs_reduce_on_random_bases(self):
        rng = random.Random(SEED + 2)
        for _ in range(8):
            r = rng.choice([2, 3])
            ring = Ring(r)
            F = FreeModule(ring, (0,) * rng.randint(1, 2))
            gens = []
            for _ in range(rng.randint(2, 4)):
                deg = rng.randint(1, 2)
                comps = []
                for _ in range(F.rank):
                    exps = [0] * r
                    for _ in range(deg):
                        exps[rng.randrange(r)] += 1
                    comps.append(ring.monomial(exps, rng.choice([-1, 1, 2])))
                gens.append(ModuleElement(F, tuple(comps)))
            gb = buchberger(gens)
            assert all_s_pairs_reduce(gb)
            for g in gens:
                assert normal_form(g, gb).is_zero()

    def test_degree_cap(self):
        ring = ring2()
        F = FreeModule(ring, (0, 0))
        f = elem(F, "x", "y")
        g = elem(F, "y", "x")
        with pytest.raises(DegreeCapError):
            buchberger([f, g], degree_cap=1)

    def test_coprime_leads_across_components_still_pair(self):
        # f and g have coprime leading monomials in the same component but
        # live across two components; skipping their S-pair would lose the
        # element (y^2 - x^2) e2.
        ring = ring2()
        F = FreeModule(ring, (0, 0))
        f = elem(F, "x", "y")
        g = elem(F, "y", "x")
        gb = buchberger([f, g])
        assert all_s_pairs_reduce(gb)
        witness = elem(F, "0", "y^2 - x^2")
        assert normal_form(witness, gb).is_zero()
        assert len(gb) == 3


class TestNormalForm:
    def test_member_reduces_to_zero(self):
        F = rank1_module(ring2())
        gb = buchberger([elem(F, "x")])
        assert normal_form(elem(F, "x"), gb).is_zero()

    def test_already_reduced(self):
        F = rank1_module(ring2())
        gb = buchberger([elem(F, "x")])
        assert normal_form(elem(F, "y"), gb) == elem(F, "y")

    def test_two_step_division(self):
        F = rank1_module(ring2())
        gb = buchberger([elem(F, "x"), elem(F, "y^2")])
        assert normal_form(elem(F, "x^2 + y^2"), gb).is_zero()

    def test_idempotent_and_linear(self):
        rng = random.Random(SEED + 3)
        ring = ring2()
        F = FreeModule(ring, (0,))
        gb = buchberger([elem(F, "x^2"), elem(F, "x*y + y^2")])
        for _ in range(20):
            def rand_elem():
                p = ring.zero()
                for _ in range(rng.randint(0, 4)):
                    exps = (rng.randint(0, 2), rng.randint(0, 2))
                    p = p + ring.monomial(exps, rng.randint(-3, 3))
                return ModuleElement(F, (p,))

            a, b = rand_elem(), rand_elem()
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            nf = lambda e: normal_form(e, gb)
            assert nf(nf(a)) == nf(a)
            assert nf(a.scale(c) + b) == nf(a).scale(c) + nf(b)


class TestSyzygies:
    def test_koszul_style_syzygy(self):
        F = rank1_module(ring2())
        gb = buchberger([elem(F, "x"), elem(F, "y^2")])
        syz = syzygy_basis(gb)
        assert syz.source.rank == 1
        col = syz.columns[0]
        assert col.components[0] == parse_poly("y^2", ring2())
        assert col.components[1] == parse_poly("-x", ring2())

    def test_principal_no_syzygies(self):
        F = rank1_module(ring2())
        gb = buchberger([elem(F, "x")])
        assert syzygy_basis(gb).source.rank == 0

    def test_composition_is_zero(self):
        p = matrix_columns(data_text("m23.pres"))
        gb = buchberger(list(p.columns))
        syz = syzygy_basis(gb)
        for col in syz.columns:
            acc = gb.module.zero_element()
            for coeff, g in zip(col.components, gb.elements):
                acc = acc + g.poly_mul(coeff)
            assert acc.is_zero()

    def test_column_syzygies_degree(self):
        p = matrix_columns(data_text("m23.pres"))
        syz = syzygies_of_columns(p)
        assert syz.source.rank >= 1
        assert min(syz.source.generator_degrees) >= 2 + min(p.source.generator_degrees)
        for col in syz.columns:
            acc = p.target.zero_element()
            for coeff, c in zip(col.components, p.columns):
                acc = acc + c.poly_mul(coeff)
            assert acc.is_zero()


class TestQuotientPresentation:
    @pytest.mark.parametrize("name", ["m23.pres", "m24.pres", "ex33.pres"])
    def test_lifts_then_column_syzygies(self, name):
        k = matrix_columns(data_text(name))
        x = k.target.ring.variable(0)
        # x * (column 0), the last column, and zero.
        elements = [k.columns[0].poly_mul(x), k.columns[-1], k.target.zero_element()]
        pres = quotient_presentation(k, elements)
        syz = syzygies_of_columns(k).columns
        assert pres.target == k.source
        assert pres.columns[2:] == syz
        # Each lift maps onto its element.
        lifts = PresentationMap.from_columns(k.source, pres.columns[:2])
        assert k.compose(lifts).columns == tuple(elements[:2])

    def test_refuses_an_element_outside_the_span(self):
        F = rank1_module(ring2())
        k = PresentationMap.from_columns(F, [elem(F, "x^2"), elem(F, "x*y")])
        with pytest.raises(NotInSpanError):
            quotient_presentation(k, [elem(F, "y^2")])
        with pytest.raises(RingMismatchError):
            quotient_presentation(k, [ModuleElement(FreeModule(F.ring, (1,)), (parse_poly("x", F.ring),))])

    def test_all_zero_columns(self):
        F = FreeModule(ring2(), (0, 1))
        k = PresentationMap(FreeModule(F.ring, (1, 2)), F, [F.zero_element()] * 2)
        pres = quotient_presentation(k, [F.zero_element()])
        assert pres.columns == (k.source.generator(0), k.source.generator(1))


class TestFiniteLength:
    def test_example_xy2(self):
        p = matrix_columns(data_text("ex33.pres"))
        rep = finite_length_and_hilbert(p)
        assert rep.finite
        assert rep.hilbert == (1, 1)
        assert rep.total_dim == 2
        assert rep.top_degree == 1

    def test_two_by_three(self):
        p = matrix_columns(data_text("m23.pres"))
        rep = finite_length_and_hilbert(p)
        assert (rep.finite, rep.hilbert, rep.total_dim, rep.top_degree) == (True, (2, 1), 3, 1)

    def test_principal_not_finite(self):
        F = rank1_module(ring2())
        p = PresentationMap.from_columns(F, [elem(F, "x")])
        assert finite_length_and_hilbert(p).finite is False

    def test_agrees_with_linear_algebra_oracle(self):
        for name in ("ex33.pres", "m23.pres", "m35.pres", "m25.pres"):
            p = matrix_columns(data_text(name))
            rep = finite_length_and_hilbert(p)
            dims = hilbert_by_linear_algebra(p, rep.top_degree + 2)
            padded = rep.hilbert + (0,) * (len(dims) - len(rep.hilbert))
            assert dims == padded


class TestPresentationFiles:
    def test_roundtrip(self):
        text = data_text("m35.pres")
        p = parse_presentation(text)
        again = parse_presentation(format_presentation(p))
        assert again == p

    def test_image_in_augmentation_ideal_flag(self):
        p = parse_presentation(data_text("m23.pres"))
        assert p.image_in_augmentation_ideal()
        ring = ring2()
        F = FreeModule(ring, (0,))
        q = PresentationMap.from_columns(F, [ModuleElement(F, (ring.one(),))])
        assert not q.image_in_augmentation_ideal()

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_presentation("ring r=2\nmatrix 1 1\nx")

    def test_comment_lines(self):
        p = parse_presentation("# c\nring r=1 vardeg=1\ntarget 0\nmatrix 1 1\nx1^2\n")
        assert p.source.generator_degrees == (2,)


# sha256 over the graph Buchberger output (basis and coordinates) and the column
# syzygies of every engine input below.  It was pinned from an engine that
# chose each S-pair by a min() scan over all pending pairs; the heap queue
# must reduce the same pairs in the same order.  Any change to that order,
# or to a division step, moves it.
ENGINE_DIGEST = "1fb3490d9b4ec2df1d8cf0999918e8ee8652890ddf9c24c90102c482fc806dca"


def engine_inputs():
    from conftest import random_finite_presentations
    from toralrank.hirschbrown import delta_map, perturb, seeded_retract, split_Z
    from toralrank.sullivan import parse_extension

    yield from random_finite_presentations()
    yield from random_finite_presentations(seed=SEED + 1)
    for name in ("ex33.pres", "m23.pres", "m24.pres", "m25.pres", "m35.pres"):
        yield parse_presentation(data_text(name))
    for name in ("circle.sul", "torus2.sul", "heis_circle.sul", "nilmanifold.sul"):
        ext = parse_extension(data_text(name))
        hb = perturb(ext, seeded_retract(ext, split_Z(ext)))
        for parity in (0, 1):
            delta = delta_map(hb, parity)
            yield delta
            # The kernel of delta, as _homology_presentation computes it.
            yield syzygies_of_columns(delta)


def engine_digest(presentations):
    h = hashlib.sha256()
    for p in presentations:
        gens = [c for c in p.columns if not c.is_zero()]
        if gens:
            # Each basis element of the graph over the nonzero columns, as
            # its target part and its coordinates over those columns.
            k = p.target.rank
            for e in _Graph(PresentationMap.from_columns(p.target, gens), DEFAULT_DEGREE_CAP).gb.elements:
                target = ModuleElement(p.target, e.components[:k])
                h.update(f"{target}|{'|'.join(map(str, e.components[k:]))}\n".encode())
        syz = syzygies_of_columns(p)
        h.update(f"{syz.source.generator_degrees}\n".encode())
        for col in syz.columns:
            h.update(f"{col}\n".encode())
        h.update(b"--\n")
    return h.hexdigest()


class TestEngineEquivalence:
    def test_tracked_bases_and_syzygies_are_pinned(self):
        assert engine_digest(engine_inputs()) == ENGINE_DIGEST

    def test_degree_cap_names_the_smallest_pair_past_the_cap(self):
        # Pairs by lcm degree: (x^2, xy) at 3, (xy, y^5) at 6, (x^2, y^5) at 7.
        # The first pair popped stays under the cap and reduces to zero; the
        # cap is first crossed by the degree-6 pair.
        F = rank1_module(ring2())
        with pytest.raises(DegreeCapError, match="S-pair degree 6 exceeds cap 4"):
            buchberger([elem(F, "x^2"), elem(F, "x*y"), elem(F, "y^5")], degree_cap=4)
        with pytest.raises(DegreeCapError, match="S-pair degree 7 exceeds cap 6"):
            buchberger([elem(F, "x^2"), elem(F, "x*y"), elem(F, "y^5")], degree_cap=6)
        assert len(buchberger([elem(F, "x^2"), elem(F, "x*y"), elem(F, "y^5")], degree_cap=7)) == 3
