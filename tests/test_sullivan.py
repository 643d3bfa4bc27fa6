import random
from fractions import Fraction

import pytest

from toralrank.errors import DomainError, ParseError, ValidationError
from toralrank.linalg import rank
from toralrank.sullivan import (
    MAX_BASIS_CAPACITY,
    AlgebraElement,
    GradedBasis,
    SullivanModel,
    _monomial_counts,
    _pairing_matrix,
    c_symplectic_check,
    cohomology,
    euler_characteristic,
    formal_dimension,
    parse_extension,
    parse_model,
    poincare_duality_holds,
)

from conftest import CAP_GENERATORS, CAP_MESSAGE, SEED, data_text, refuse_enumeration

NIL_BETTI = [1, 3, 8, 12, 8, 3, 1]


def nil_model():
    return parse_extension(data_text("nilmanifold.sul")).base


def torus_model(r):
    return SullivanModel([(f"x{i+1}", 1) for i in range(r)])


class TestParsing:
    def test_nilmanifold_model(self):
        m = nil_model()
        assert [d for _, d in m.generators] == [1] * 6
        db1 = m.d_of_gen(m.name_to_index["b1"])
        assert db1 == m.gen("a2") * m.gen("a3")
        assert m.d_of_gen(m.name_to_index["a1"]).is_zero()

    def test_circle_model(self):
        ext = parse_extension(data_text("circle.sul"))
        assert ext.base.generators == (("x", 1),)
        assert ext.torus_rank == 1

    def test_extension_differential(self):
        ext = parse_extension(data_text("nilmanifold.sul"))
        i = ext.base.name_to_index["b1"] + ext.offset
        db1 = ext.extended.d_of_gen(i)
        x1 = ext.extended.gen("X1")
        a2a3 = ext.extended.gen("a2") * ext.extended.gen("a3")
        assert db1 == a2a3 + x1

    def test_d_squared_validation(self):
        bad = "gen a deg=1\ngen u deg=2\nd a = u\nd u = u*a\n"
        with pytest.raises(ValidationError) as err:
            parse_model(bad)
        assert "d^2" in str(err.value)
        assert "a" in str(err.value)

    def test_extension_d_squared_reports_generator(self):
        bad = (
            "gen a deg=1\ngen b deg=1\nd a = 0\nd b = 0\n"
            "torus r=1\nD b = X1 + a*b\n"
        )
        with pytest.raises(ValidationError) as err:
            parse_extension(bad)
        assert "b" in str(err.value)

    def test_extension_must_project_onto_base(self):
        bad = "gen a deg=1\nd a = 0\ntorus r=1\nD a = X1 + a*X1\n"
        with pytest.raises(ValidationError):
            parse_extension(bad)

    def test_unknown_generator(self):
        with pytest.raises(ParseError):
            parse_model("gen a deg=1\nd q = 0\n")


class TestAlgebra:
    def test_koszul_signs(self):
        m = torus_model(3)
        a, b, c = m.gen(0), m.gen(1), m.gen(2)
        assert b * a == (a * b).scale(-1)
        assert (a * b) * c == a * (b * c)
        assert (a * a).is_zero()

    def test_even_generators_commute(self):
        m = SullivanModel([("u", 2), ("v", 2)])
        u, v = m.gen("u"), m.gen("v")
        assert u * v == v * u
        assert not (u * u).is_zero()

    def test_power_matches_repeated_products(self):
        m = SullivanModel([("u", 2), ("v", 2), ("a", 1)])
        x = m.gen("u") + m.gen("v").scale(2) + m.gen("u") * m.gen("a")
        acc = m.one()
        for n in range(8):
            assert x.power(n) == acc
            acc = acc * x
        assert m.gen("a").power(10**9).is_zero()
        assert m.gen("u").power(10**6).terms == {((0, 10**6),): 1}

    def test_leibniz_on_random_elements(self):
        rng = random.Random(SEED + 4)
        m = nil_model()
        basis2 = m.monomial_basis(2)
        basis1 = m.monomial_basis(1)

        def rand_elem(basis):
            terms = {}
            for mono in rng.sample(basis, k=min(3, len(basis))):
                terms[mono] = Fraction(rng.randint(-3, 3))
            return AlgebraElement(m, terms)

        for _ in range(25):
            u = rand_elem(basis1)
            v = rand_elem(basis2)
            left = m.d(u * v)
            right = m.d(u) * v + (u * m.d(v)).scale((-1) ** 1)
            assert left == right

    def test_d_squared_zero_on_monomials(self):
        m = nil_model()
        for p in range(0, 6):
            for mono in m.monomial_basis(p):
                e = AlgebraElement(m, {mono: Fraction(1)})
                assert m.d(m.d(e)).is_zero()


class TestCohomology:
    def test_nilmanifold_betti(self):
        h = cohomology(nil_model())
        assert [h.dim(p) for p in range(7)] == NIL_BETTI

    def test_nilmanifold_degree_one_classes(self):
        m = nil_model()
        h = cohomology(m)
        reps = h.representatives(1)
        assert [str(r) for r in reps] == ["a1", "a2", "a3"]
        for i, a in enumerate(reps):
            for b in reps[i + 1 :]:
                assert h.class_is_zero(a * b)

    def test_circle(self):
        h = cohomology(SullivanModel([("x", 1)]))
        assert [h.dim(0), h.dim(1)] == [1, 1]

    def test_torus(self):
        h = cohomology(torus_model(2))
        assert [h.dim(p) for p in range(3)] == [1, 2, 1]

    def test_cutoff_mandatory_with_even_generators(self):
        m = SullivanModel([("u", 2)])
        with pytest.raises(DomainError):
            cohomology(m)
        h = cohomology(m, cutoff=6)
        assert [h.dim(p) for p in range(7)] == [1, 0, 1, 0, 1, 0, 1]

    def test_formal_dimension_and_euler(self):
        h = cohomology(nil_model())
        assert formal_dimension(h) == 6
        assert euler_characteristic(h) == 0
        ht = cohomology(torus_model(2))
        assert formal_dimension(ht) == 2
        assert euler_characteristic(ht) == 0
        hp = cohomology(SullivanModel([]))
        assert formal_dimension(hp) == 0
        assert euler_characteristic(hp) == 1

    def test_poincare_duality_pairing_symmetry(self):
        h = cohomology(nil_model())
        assert poincare_duality_holds(h, 6)
        for p in range(7):
            q = 6 - p
            mat = _pairing_matrix(h, p, q, 0)
            tam = _pairing_matrix(h, q, p, 0)
            sign = (-1) ** (p * q)
            for i in range(h.dim(p)):
                for j in range(h.dim(q)):
                    assert mat[i][j] == sign * tam[j][i]


class TestGradedBasis:
    def test_counts_match_enumeration(self):
        m = SullivanModel([("x", 1), ("u", 2), ("y", 3), ("v", 4)])
        assert _monomial_counts(m, 12) == [len(m.monomial_basis(p)) for p in range(13)]
        # With odd generators only the count stops at the degree sum.
        assert _monomial_counts(nil_model(), 9) == [1, 6, 15, 20, 15, 6, 1]

    def test_coordinates_round_trip(self):
        m = nil_model()
        basis = GradedBasis(m, 3)
        elem = m.gen("a1") * m.gen("b2") - m.gen("a2") * m.gen("a3")
        assert basis.local_to_element(basis.element_to_local(elem, 2), 2) == elem
        b3 = basis.by_degree[1].index(((5, 1),))
        assert basis.local_to_element(basis.d_columns(1)[b3], 2) == m.gen("a1") * m.gen("a2")
        assert basis.global_index(2, 0) == 1 + 6

    def test_element_to_local_refuses_another_degree(self):
        m = nil_model()
        basis = GradedBasis(m, 3)
        with pytest.raises(ValueError):
            basis.element_to_local(m.gen("a1"), 2)
        with pytest.raises(ValueError):
            basis.element_to_local(m.gen("a1") + m.gen("a2") * m.gen("a3"), 1)

    def test_capacity_cap_fails_before_enumerating(self):
        m = refuse_enumeration(SullivanModel(CAP_GENERATORS))
        with pytest.raises(DomainError, match=CAP_MESSAGE):
            cohomology(m, cutoff=120)

    def test_all_odd_walk_stops_at_the_top_degree(self, monkeypatch):
        walked = []
        d_columns = GradedBasis.d_columns
        monkeypatch.setattr(GradedBasis, "d_columns", lambda basis, p: walked.append(p) or d_columns(basis, p))
        m = torus_model(3)
        h = cohomology(m, cutoff=MAX_BASIS_CAPACITY)
        assert walked == [0, 1, 2, 3] and m.top_degree() == 3
        assert [h.dim(p) for p in range(6)] == [1, 3, 3, 1, 0, 0]
        assert h.dim(MAX_BASIS_CAPACITY) == 0
        assert euler_characteristic(h) == 0 and formal_dimension(h) == 3

    def test_cutoff_above_the_cap_is_refused_before_enumerating(self):
        m = refuse_enumeration(torus_model(1))
        with pytest.raises(DomainError, match=f"cutoff {MAX_BASIS_CAPACITY + 1} is above the capacity cap"):
            cohomology(m, cutoff=MAX_BASIS_CAPACITY + 1)


class TestCSymplectic:
    def test_nilmanifold_with_given_omega(self):
        m = nil_model()
        h = cohomology(m)
        om = m.gen("a1") * m.gen("b2") + m.gen("a2") * m.gen("b3") + m.gen("a3") * m.gen("b1")
        assert m.d(om).is_zero()
        cube = om.power(3)
        expect = (
            m.gen("a1") * m.gen("a2") * m.gen("a3") * m.gen("b1") * m.gen("b2") * m.gen("b3")
        ).scale(-6)
        assert cube == expect
        rep = c_symplectic_check(h, om)
        assert rep.is_csymplectic is True
        assert rep.n == 3
        assert rep.lefschetz_type is False

    def test_torus_surface(self):
        m = torus_model(2)
        h = cohomology(m)
        rep = c_symplectic_check(h)
        assert rep.is_csymplectic is True
        assert rep.n == 1
        assert rep.lefschetz_type is True

    def test_odd_formal_dimension_rejected(self):
        h = cohomology(SullivanModel([("x", 1)]))
        with pytest.raises(DomainError):
            c_symplectic_check(h)

    def test_search_finds_omega_for_nilmanifold(self):
        h = cohomology(nil_model())
        rep = c_symplectic_check(h)
        assert rep.is_csymplectic is True
        assert not h.class_is_zero(rep.omega_used.power(3))

    def test_supplied_omega_failing(self):
        m = torus_model(4)
        h = cohomology(m)
        # x1 x2 pairs to zero with itself in the 4-torus: (x1x2)^2 = 0.
        om = m.gen(0) * m.gen(1)
        rep = c_symplectic_check(h, om)
        assert rep.is_csymplectic is False

    def test_search_on_four_torus(self):
        h = cohomology(torus_model(4))
        rep = c_symplectic_check(h)
        # x1x2 +- x3x4 style combinations square to the top class.
        assert rep.is_csymplectic is True
        assert rep.n == 2
