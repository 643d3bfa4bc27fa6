from fractions import Fraction

import pytest

from toralrank.pipeline import run_pipeline
from toralrank.errors import DomainError, ValidationError
from toralrank.groebner import finite_length_and_hilbert
from toralrank.hirschbrown import (
    HirschBrownModel,
    OperatorContext,
    build_retract,
    hb_cohomology_finite,
    hb_homology_dims_by_degree,
    perturb,
    projection_presentations,
    seeded_retract,
    split_Z,
    verify_transfer,
    zsplit_seed,
)
from toralrank.polyring import Ring
from toralrank.resolutions import check_generator_ratio
from toralrank.sullivan import AlgebraElement, GradedBasis, SullivanModel, parse_extension, parse_model

from conftest import CAP_GENERATORS, CAP_MESSAGE, data_text, patch_bindings, refuse_enumeration


def load_ext(name):
    return parse_extension(data_text(name))


def transfer(name):
    ext = load_ext(name)
    zs = split_Z(ext)
    rd = seeded_retract(ext, zs)
    return ext, zs, rd, perturb(ext, rd)


class TestSplitZ:
    def test_nilmanifold(self, nilmanifold_ext):
        zs = split_Z(nilmanifold_ext)
        assert zs.k == 3
        assert zs.b == 3
        assert len(zs.Z) == 0

    def test_torus_on_itself(self):
        zs = split_Z(load_ext("torus2.sul"))
        assert zs.k == 0
        assert zs.b == 2
        assert len(zs.Z) == 2

    def test_mixed(self):
        text = (
            "gen x1 deg=1\ngen x2 deg=1\nd x1 = 0\nd x2 = 0\n"
            "torus r=1\nD x1 = X1\nD x2 = 0\n"
        )
        zs = split_Z(parse_extension(text))
        assert zs.k == 1
        assert zs.b == 2
        assert len(zs.Z) == 1


class TestRetract:
    def test_zero_differential_model(self):
        m = parse_model("gen x deg=1\nd x = 0\n")
        rd = build_retract(m)
        assert [rd.dim_A(p) for p in range(2)] == [1, 1]
        assert all(rd.dim_B(p) == 0 for p in range(2))
        assert all(rd.dim_C(p) == 0 for p in range(2))

    def test_nilmanifold_split_dimensions(self, nilmanifold_ext):
        rd = build_retract(nilmanifold_ext.base)
        # A recovers the Betti numbers; B and C match the rank of d.
        assert [rd.dim_A(p) for p in range(7)] == [1, 3, 8, 12, 8, 3, 1]
        for p in range(7):
            assert rd.dim_B(p) == rd.dim_C(p - 1) if p else rd.dim_B(p) == 0
            n = rd.basis.dim(p)
            assert rd.dim_A(p) + rd.dim_B(p) + rd.dim_C(p) == n

    def test_g_after_f_is_identity(self, nilmanifold_ext):
        rd = build_retract(nilmanifold_ext.base)
        for h_idx in range(len(rd.h_info)):
            deg, vec = rd.f_vector(h_idx)
            coords = rd.g_local(deg, vec)
            assert coords == {h_idx: 1}

    def test_homotopy_identity_on_basis(self, nilmanifold_ext):
        # f g - id = d phi + phi d, checked on every monomial.
        m = nilmanifold_ext.base
        rd = build_retract(m)
        from toralrank.sullivan import AlgebraElement
        from fractions import Fraction as F

        def as_elem(p, vec):
            return AlgebraElement(
                m, {mono: c for mono, c in zip(rd.basis.by_degree[p], vec) if c}
            )

        for p in range(7):
            for loc, mono in enumerate(rd.basis.by_degree[p]):
                unit = [F(0)] * rd.basis.dim(p)
                unit[loc] = F(1)
                fg = [F(0)] * rd.basis.dim(p)
                for h_idx, c in rd.g_local(p, unit).items():
                    hdeg, hvec = rd.f_vector(h_idx)
                    assert hdeg == p
                    fg = [a + c * b for a, b in zip(fg, hvec)]
                lhs = as_elem(p, [a - b for a, b in zip(fg, unit)])
                e = AlgebraElement(m, {mono: F(1)})
                dphi = m.d(as_elem(p - 1, rd.phi_local(p, unit))) if p else m.zero()
                de = m.d(e)
                phid = as_elem(p, rd.phi_local(p + 1, rd.basis.element_to_local(de, p + 1))) if not de.is_zero() else m.zero()
                assert lhs == dphi + phid

    def test_heisenberg_degree_two_split(self):
        m = parse_model(
            "gen a1 deg=1\ngen a2 deg=1\ngen b3 deg=1\n"
            "d a1 = 0\nd a2 = 0\nd b3 = a1*a2\n"
        )
        rd = build_retract(m)
        assert rd.dim_A(2) == 2
        assert rd.dim_B(2) == 1
        # the boundary a1*a2 is not a cohomology representative
        boundary = m.gen("a1") * m.gen("a2")
        vec = rd.basis.element_to_local(boundary, 2)
        coords = rd.g_local(2, vec)
        assert coords == {}

    def test_capacity_cap_fails_before_enumerating(self):
        m = refuse_enumeration(SullivanModel(CAP_GENERATORS))
        with pytest.raises(DomainError, match=CAP_MESSAGE):
            build_retract(m, 120)

    def test_all_odd_walk_stops_at_the_top_degree(self, monkeypatch):
        walked = []
        d_columns = GradedBasis.d_columns
        monkeypatch.setattr(GradedBasis, "d_columns", lambda basis, p: walked.append(p) or d_columns(basis, p))
        rd = build_retract(SullivanModel([("x1", 1), ("x2", 1)]), cutoff=100000)
        assert walked == [0, 1, 2]
        assert [rd.dim_A(p) for p in range(4)] == [1, 2, 1, 0]
        assert len(rd.g_table) == 4

    def test_seed_must_be_cycle(self):
        m = parse_model("gen a1 deg=1\ngen b1 deg=1\nd a1 = 0\nd b1 = 0\n")
        bad_seed = [(("zp", 0), m.gen("a1") + m.gen("b1")), (("lz", ()), m.one())]
        rd = build_retract(m, seed=bad_seed)  # both are cycles here: fine
        assert rd.h_info[rd.h_offset[1]][2] == ("zp", 0)
        heis = parse_model("gen a deg=1\ngen b deg=1\nd a = 0\nd b = 0\n")
        with pytest.raises(ValidationError):
            build_retract(heis, seed=[(("zp", 0), heis.zero())])

    def test_seed_independence_enforced(self):
        m = parse_model(
            "gen a1 deg=1\ngen a2 deg=1\ngen b3 deg=1\n"
            "d a1 = 0\nd a2 = 0\nd b3 = a1*a2\n"
        )
        boundary = m.gen("a1") * m.gen("a2")
        with pytest.raises(ValidationError):
            build_retract(m, seed=[(("lz", (0,)), boundary)])


class TestPerturb:
    def test_circle(self):
        ext, zs, rd, hb = transfer("circle.sul")
        assert hb.h_degrees == (0, 1)
        assert hb.delta_entry(0, 1) == Ring(1, 2).variable(0)
        fin = hb_cohomology_finite(hb)
        assert fin.finite and fin.total_dim == 1

    def test_torus2_koszul_shape(self):
        ext, zs, rd, hb = transfer("torus2.sul")
        ring = Ring(2, 2)
        x1, x2 = ring.variable(0), ring.variable(1)
        assert hb.delta_entry(0, 1) == x1
        assert hb.delta_entry(0, 2) == x2
        top = 3  # index of the degree-2 class
        assert hb.h_degrees[top] == 2
        assert {str(hb.delta_entry(1, top)), str(hb.delta_entry(2, top))} == {"-x2", "x1"}
        fin = hb_cohomology_finite(hb)
        assert fin.finite and fin.total_dim == 1

    def test_delta_entries_in_augmentation_ideal(self, nilmanifold_hb):
        _, _, hb = nilmanifold_hb
        for col in hb.delta.values():
            for poly in col.values():
                assert poly.constant_term() == 0

    def test_delta_raises_degree_by_one(self, nilmanifold_hb):
        _, _, hb = nilmanifold_hb
        for col_idx, col in hb.delta.items():
            for row_idx, poly in col.items():
                assert poly.is_homogeneous()
                assert (
                    poly.degree() + hb.h_degrees[row_idx]
                    == hb.h_degrees[col_idx] + 1
                )

    def test_word_length_filtration(self, nilmanifold_ext):
        zs = split_Z(nilmanifold_ext)
        rd = seeded_retract(nilmanifold_ext, zs)
        ctx = OperatorContext(nilmanifold_ext, rd)
        for idx, rvec in enumerate(ctx.t_table):
            wl_in = sum(e for _, e in ctx.basis.monomials[idx])
            for out_idx, poly in rvec.items():
                assert sum(e for _, e in ctx.basis.monomials[out_idx]) <= wl_in - 1
                assert poly.constant_term() == 0

    def test_trivial_twist_gives_zero_delta(self):
        # D = d on every generator: the transfer must do nothing.
        text = (
            "gen a1 deg=1\ngen a2 deg=1\ngen a3 deg=1\n"
            "gen b1 deg=1\ngen b2 deg=1\ngen b3 deg=1\n"
            "d a1 = 0\nd a2 = 0\nd a3 = 0\n"
            "d b1 = a2*a3\nd b2 = a3*a1\nd b3 = a1*a2\n"
            "torus r=2\n"
        )
        ext = parse_extension(text)
        rd = build_retract(ext.base)
        hb = perturb(ext, rd)
        assert hb.delta == {}
        ctx = OperatorContext(ext, rd)
        assert all(not rvec for rvec in ctx.t_table)


class TestTransferIdentities:
    @pytest.mark.parametrize("name", ["circle.sul", "torus2.sul"])
    def test_small_models(self, name):
        ext, zs, rd, hb = transfer(name)
        report = verify_transfer(ext, rd, hb)
        assert report.ok, report.failures

    def test_nilmanifold(self, nilmanifold_ext, nilmanifold_hb):
        zs, rd, hb = nilmanifold_hb
        report = verify_transfer(nilmanifold_ext, rd, hb)
        assert report.ok, report.failures

    def test_corrupted_delta_is_flagged(self):
        ext, zs, rd, hb = transfer("torus2.sul")
        # Drop one term of delta on the top class.
        top = 3
        corrupted = dict(hb.delta)
        col = dict(corrupted[top])
        del col[1]
        corrupted[top] = col
        hb.delta = corrupted
        report = verify_transfer(ext, rd, hb)
        assert not report.ok
        names = {name for name, _ in report.failures}
        assert "delta^2 = 0" in names or "D f_inf = f_inf delta" in names
        assert "g_inf f_inf = id" not in names


class TestHomology:
    def test_tori_have_point_homology(self):
        for r in (1, 2, 3):
            gens = "".join(f"gen x{i+1} deg=1\nd x{i+1} = 0\n" for i in range(r))
            tor = "torus r=%d\n" % r
            big = "".join(f"D x{i+1} = X{i+1}\n" for i in range(r))
            ext = parse_extension(gens + tor + big)
            zs = split_Z(ext)
            rd = seeded_retract(ext, zs)
            hb = perturb(ext, rd)
            fin = hb_cohomology_finite(hb)
            assert fin.finite and fin.total_dim == 1

    def test_nilmanifold_finite(self, nilmanifold_finiteness):
        assert nilmanifold_finiteness.finite
        assert nilmanifold_finiteness.total_dim == 8

    def test_nilmanifold_matches_linear_algebra_oracle(self, nilmanifold_hb, nilmanifold_finiteness):
        _, _, hb = nilmanifold_hb
        dims = hb_homology_dims_by_degree(hb, 16)
        assert sum(dims) == nilmanifold_finiteness.total_dim
        assert dims[:4] == [1, 3, 3, 1]
        assert all(d == 0 for d in dims[4:])

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_torus_self_action_ladder(self, n):
        gens = "".join(f"gen x{i} deg=1\nd x{i} = 0\n" for i in range(1, n + 1))
        twists = "".join(f"D x{i} = X{i}\n" for i in range(1, n + 1))
        text = f"{gens}torus r={n}\n{twists}"
        result = run_pipeline(text)
        assert (result.b, result.k, result.finite, result.total_dim) == (n, 0, True, 1)
        assert result.actual_h_dim == 2**n
        assert result.bound_met
        ext = parse_extension(text)
        hb = perturb(ext, seeded_retract(ext, split_Z(ext)))
        assert sum(hb_homology_dims_by_degree(hb, n)) == result.total_dim

    def test_infinite_when_action_is_trivial(self):
        text = "gen x deg=1\nd x = 0\ntorus r=1\n"
        ext = parse_extension(text)
        rd = build_retract(ext.base)
        hb = perturb(ext, rd)
        fin = hb_cohomology_finite(hb)
        assert not fin.finite


class TestHomologyPresentation:
    """Both delta^2 != 0 branches, on hand-made models over Q[X], deg X = 2.

    Class a has degree 1 and class c degree 0, with delta(c) = a and
    delta(a) = X c, so delta^2(c) = X c != 0.  An optional third class b of
    degree 0 has delta(b) = 0.
    """

    @staticmethod
    def corrupted(with_b):
        ring = Ring(1, 2)
        delta = {0: {1: ring.variable(0)}, 1: {0: ring.one()}}
        degrees = (1, 0, 0) if with_b else (1, 0)
        return HirschBrownModel(ring, degrees, (None,) * len(degrees), delta, 1, 1)

    def test_image_outside_an_empty_kernel(self):
        # delta is injective on the one even class c.
        with pytest.raises(ValidationError) as err:
            hb_cohomology_finite(self.corrupted(with_b=False))
        assert str(err.value) == "delta^2 != 0: image is not contained in the kernel"

    def test_image_column_outside_the_kernel(self):
        # The even kernel is R b, and delta(a) = X c is not in it.
        with pytest.raises(ValidationError) as err:
            hb_cohomology_finite(self.corrupted(with_b=True))
        assert str(err.value) == "delta^2 != 0: an image column is not in the kernel"

    def test_one_tracked_basis_per_kernel(self, monkeypatch, nilmanifold_hb):
        # Per parity: one graph pass for ker(delta), one for the quotient by the image.
        from toralrank import groebner

        original = groebner._buchberger
        graph_passes = []

        def counting(gens, degree_cap, module, lead_rank):
            graph_passes.append(lead_rank < module.rank)
            return original(gens, degree_cap, module, lead_rank)

        patch_bindings(monkeypatch, original, counting)
        _, _, hb = nilmanifold_hb
        assert hb_cohomology_finite(hb).total_dim == 8
        assert graph_passes.count(True) == 4


class TestProjections:
    def test_nilmanifold_maps(self, nilmanifold_hb):
        zs, rd, hb = nilmanifold_hb
        maps = projection_presentations(hb, zs)
        assert maps.k_first == 1
        assert maps.map_even.target.rank == zs.k == 3
        assert maps.map_even.source.rank == 8 + 8 + 1
        assert maps.map_even.image_in_augmentation_ideal()
        even = check_generator_ratio(maps.map_even)
        assert even.holds
        assert even.k == 3
        odd = check_generator_ratio(maps.map_odd)
        assert odd.holds
        assert odd.k == 1 and odd.l == 3 + 12 + 3

    def test_map_odd_cokernel_finite(self, nilmanifold_hb):
        zs, _, hb = nilmanifold_hb
        maps = projection_presentations(hb, zs)
        rep = finite_length_and_hilbert(maps.map_odd)
        assert rep.finite

    def test_torus_is_vacuous(self):
        ext, zs, rd, hb = transfer("torus2.sul")
        maps = projection_presentations(hb, zs)
        assert maps.even_vacuous
        assert maps.map_even.target.rank == 0

    def test_unseeded_model_rejected(self, nilmanifold_ext):
        zs = split_Z(nilmanifold_ext)
        rd = build_retract(nilmanifold_ext.base)
        hb = perturb(nilmanifold_ext, rd)
        with pytest.raises(ValidationError):
            projection_presentations(hb, zs)


class TestSeeds:
    def test_exterior_monomials_cover_full_torus(self):
        ext = load_ext("torus2.sul")
        zs = split_Z(ext)
        seeds = zsplit_seed(ext.base, zs)
        assert len(seeds) == 4  # 1, x1, x2, x1x2 up to basis change
        degrees = sorted(e.degree() or 0 for _, e in seeds)
        assert degrees == [0, 1, 1, 2]


class TestMixedSplitting:
    """Product of the three-generator nilmanifold with a circle: both Z and
    Z' are nonzero, so the exterior seeding and the quotient projection are
    exercised at the same time."""

    def test_full_run(self):
        ext = load_ext("heis_circle.sul")
        zs = split_Z(ext)
        assert (zs.k, zs.b, len(zs.Z)) == (2, 3, 1)
        rd = seeded_retract(ext, zs)
        hb = perturb(ext, rd)
        assert verify_transfer(ext, rd, hb).ok
        fin = hb_cohomology_finite(hb)
        assert fin.finite and fin.total_dim == 4
        dims = hb_homology_dims_by_degree(hb, 10)
        assert dims[:3] == [1, 2, 1] and sum(dims) == 4
        maps = projection_presentations(hb, zs)
        even = check_generator_ratio(maps.map_even)
        odd = check_generator_ratio(maps.map_odd)
        assert even.holds and even.k == 2
        assert odd.holds and odd.k == 1
        # The exterior classes really sit inside the transferred basis.
        lz_degrees = sorted(
            hb.h_degrees[i]
            for i, t in enumerate(hb.h_tags)
            if t is not None and t[0] == "lz"
        )
        assert lz_degrees == [0, 1]


class TestEvenGenerators:
    def test_retract_needs_cutoff(self):
        m = parse_model("gen x deg=1\ngen u deg=2\nd x = 0\nd u = 0\n")
        with pytest.raises(Exception):
            build_retract(m)
        rd = build_retract(m, cutoff=5)
        # d = 0: everything is a cycle and nothing is a boundary.
        for p in range(6):
            assert rd.dim_A(p) == rd.basis.dim(p)
            assert rd.dim_B(p) == 0
