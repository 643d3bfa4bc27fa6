import math
from fractions import Fraction

import pytest

from toralrank import groebner, resolutions
from toralrank.diagrams import BettiDiagram
from toralrank.errors import DegreeCapError, DomainError
from toralrank.groebner import PresentationMap, finite_length_and_hilbert, parse_presentation
from toralrank.hirschbrown import perturb, projection_presentations, seeded_retract, split_Z
from toralrank.polyring import FreeModule, Ring
from toralrank.resolutions import (
    betti_via_koszul,
    check_generator_ratio,
    minimal_free_resolution,
)
from toralrank.sullivan import parse_extension

from conftest import SEED, data_text, patch_bindings, random_finite_presentations


def load(name):
    return parse_presentation(data_text(name))


def compositions_vanish(res):
    for a, b in zip(res.maps, res.maps[1:]):
        comp = a.compose(b)
        assert all(c.is_zero() for c in comp.columns)


class TestMinimalResolution:
    def test_worked_example(self):
        res = minimal_free_resolution(load("ex33.pres"))
        mods = res.free_modules()
        assert [m.rank for m in mods] == [1, 2, 1]
        assert mods[1].generator_degrees == (1, 2)
        assert mods[2].generator_degrees == (3,)
        assert res.betti_diagram() == BettiDiagram(
            {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1}
        )
        assert res.is_minimal()
        compositions_vanish(res)
        # The second map is the single relation (y^2, -x) up to sign.
        col = res.maps[1].columns[0]
        entries = {str(p) for p in col.components}
        assert entries in ({"x2^2", "-x1"}, {"-x2^2", "x1"})

    def test_zero_map_gives_free_module(self):
        ring = Ring(2)
        F = FreeModule(ring, (0,))
        p = PresentationMap(FreeModule(ring, ()), F, ())
        res = minimal_free_resolution(p)
        assert res.betti_diagram() == BettiDiagram({(0, 0): 1})
        assert res.length == 0

    def test_two_by_three(self):
        res = minimal_free_resolution(load("m23.pres"))
        dia = res.betti_diagram()
        assert dia.total(0) == 2 and dia.total(1) == 3
        # l = k + r - 1 with k = 2, r = 2.
        assert res.maps[0].source.rank == 2 + 2 - 1
        compositions_vanish(res)

    def test_length_bounded_by_variable_count(self, random_presentations):
        for p in random_presentations[:10]:
            res = minimal_free_resolution(p)
            assert res.length <= p.target.ring.num_vars
            assert res.is_minimal()
            compositions_vanish(res)

    def test_duplicate_generators_are_cancelled(self):
        # A redundant presentation must minimize to the honest resolution.
        text = "ring r=2 vardeg=1\ntarget 0\nmatrix 1 4\nx x y^2 2*x\n"
        res = minimal_free_resolution(parse_presentation(text))
        assert res.betti_diagram() == BettiDiagram(
            {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1}
        )
        assert res.is_minimal()
        compositions_vanish(res)

    def test_all_zero_columns_minimize_away(self):
        text = "ring r=2 vardeg=1\ntarget 0 0\nmatrix 2 2\n0 0\n0 0\n"
        res = minimal_free_resolution(parse_presentation(text))
        assert [m.rank for m in res.free_modules()] == [2, 0]
        assert res.betti_diagram() == BettiDiagram({(0, 0): 2})

    def test_betti_numbers_independent_of_column_order(self, random_presentations):
        import random as _random

        rng = _random.Random(99173)
        for p in random_presentations[:8]:
            dia = minimal_free_resolution(p).betti_diagram()
            perm = list(range(p.source.rank))
            rng.shuffle(perm)
            shuffled = PresentationMap.from_columns(
                p.target, [p.columns[j] for j in perm]
            )
            assert minimal_free_resolution(shuffled).betti_diagram() == dia


class TestKoszulOracle:
    def test_worked_example(self):
        assert betti_via_koszul(load("ex33.pres"), 4) == BettiDiagram(
            {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1}
        )

    def test_zero_map(self):
        ring = Ring(2)
        F = FreeModule(ring, (0,))
        p = PresentationMap(FreeModule(ring, ()), F, ())
        assert betti_via_koszul(p, 3) == BettiDiagram({(0, 0): 1})

    def test_three_by_five(self):
        dia = betti_via_koszul(load("m35.pres"), 6)
        assert dia.total(0) == 3 and dia.total(1) == 5

    def test_oracle_equivalence_on_shipped_matrices(self):
        for name in ("ex33.pres", "m23.pres", "m35.pres", "m25.pres", "m24.pres"):
            p = load(name)
            res_dia = minimal_free_resolution(p).betti_diagram()
            top = max(j for _, j in res_dia.entries)
            assert betti_via_koszul(p, top) == res_dia

    def test_oracle_equivalence_with_twisted_target(self):
        text = (
            "ring r=2 vardeg=1\ntarget 0 1\nmatrix 2 4\n"
            "x^2 y^2 0 0\n"
            "x y x y\n"
        )
        p = parse_presentation(text)
        from toralrank.groebner import finite_length_and_hilbert

        rep = finite_length_and_hilbert(p)
        assert rep.finite
        res_dia = minimal_free_resolution(p).betti_diagram()
        top = max(j for _, j in res_dia.entries)
        assert betti_via_koszul(p, top) == res_dia
        from toralrank.resolutions import hilbert_by_linear_algebra

        dims = hilbert_by_linear_algebra(p, rep.top_degree + 2)
        assert dims[: len(rep.hilbert)] == rep.hilbert


def assert_oracles_match_past_the_top(p):
    """Koszul Betti numbers and linear-algebra Hilbert function three degrees past the top.

    Above the top degree of a finite-length cokernel every graded piece
    vanishes, so both oracles must add nothing there.
    """
    rep = finite_length_and_hilbert(p)
    assert rep.finite
    res_dia = minimal_free_resolution(p).betti_diagram()
    top = max(j for _, j in res_dia.entries)
    assert betti_via_koszul(p, top + 3) == res_dia
    up_to = rep.top_degree + 3
    dims = resolutions.hilbert_by_linear_algebra(p, up_to)
    assert dims == rep.hilbert + (0,) * (up_to + 1 - len(rep.hilbert))


class TestKoszulOracleCoverage:
    NAMES = ["ex33.pres", "m23.pres", "m24.pres", "m25.pres", "m35.pres"]

    def test_random_presentations_past_the_top(self, random_presentations):
        for p in random_presentations:
            assert_oracles_match_past_the_top(p)

    @pytest.mark.parametrize("name", NAMES)
    def test_shipped_matrices_past_the_top(self, name):
        assert_oracles_match_past_the_top(load(name))

    def test_variable_degree_two(self):
        p = parse_presentation("ring r=2 vardeg=2\ntarget 0 2\nmatrix 2 4\nx y^2 0 0\n0 0 x^2 y\n")
        assert_oracles_match_past_the_top(p)
        assert betti_via_koszul(p, 12) == minimal_free_resolution(p).betti_diagram()

    def test_target_with_a_degree_gap(self):
        # coker vanishes in degrees 1 and 2, below the second generator in degree 3.
        p = parse_presentation("ring r=2 vardeg=1\ntarget 0 3\nmatrix 2 5\nx y 0 0 y^4\n0 0 x y x\n")
        assert resolutions.hilbert_by_linear_algebra(p, 6) == (1, 0, 0, 1, 0, 0, 0)
        assert_oracles_match_past_the_top(p)

    def test_infinite_cokernel_never_stops_early(self):
        p = parse_presentation("ring r=2 vardeg=1\ntarget 0\nmatrix 1 1\nx\n")
        assert betti_via_koszul(p, 8) == BettiDiagram({(0, 0): 1, (1, 1): 1})
        assert resolutions.hilbert_by_linear_algebra(p, 8) == (1,) * 9


class TestOracleIndependence:
    """The Koszul and Hilbert oracles run with every Groebner entry point broken."""

    ENTRY_POINTS = (
        "buchberger",
        "_buchberger",
        "syzygy_basis",
        "syzygies_of_columns",
        "finite_length_and_hilbert",
        "_finite_length_and_hilbert",
    )

    @pytest.fixture
    def no_groebner(self, monkeypatch):
        for attr in self.ENTRY_POINTS:

            def refuse(*args, _name=attr, **kwargs):
                raise AssertionError(f"groebner.{_name} called")

            patch_bindings(monkeypatch, getattr(groebner, attr), refuse)

    def test_pinned_results_without_groebner(self, no_groebner):
        with pytest.raises(AssertionError, match="called"):
            finite_length_and_hilbert(load("ex33.pres"))
        assert betti_via_koszul(load("ex33.pres"), 6) == BettiDiagram(
            {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1}
        )
        assert resolutions.hilbert_by_linear_algebra(load("ex33.pres"), 4) == (1, 1, 0, 0, 0)
        assert betti_via_koszul(load("m35.pres"), 8) == BettiDiagram(
            {(0, 0): 3, (1, 1): 5, (2, 4): 5, (3, 5): 3}
        )
        assert resolutions.hilbert_by_linear_algebra(load("m35.pres"), 5) == (3, 4, 3, 0, 0, 0)


class TestExactnessProperties:
    def test_alternating_rank_sum_vanishes(self, random_presentations):
        for p in random_presentations[:10]:
            res = minimal_free_resolution(p)
            total = 0
            for i, mod in enumerate(res.free_modules()):
                total += (-1) ** i * mod.rank
            assert total == 0

    def test_hilbert_series_identity(self, random_presentations):
        # H_M(t) * (1-t)^r == sum_i (-1)^i sum_j beta_{i,j} t^j, checked as
        # truncated power series through degree N + 5.
        from toralrank.groebner import finite_length_and_hilbert

        for p in random_presentations[:10]:
            rep = finite_length_and_hilbert(p)
            res = minimal_free_resolution(p)
            dia = res.betti_diagram()
            r = p.target.ring.num_vars
            upto = rep.top_degree + 5
            hm = list(rep.hilbert) + [0] * (upto + 1 - len(rep.hilbert))
            import math

            lhs = []
            for d in range(upto + 1):
                acc = Fraction(0)
                for j in range(d + 1):
                    if j <= r:
                        acc += hm[d - j] * (-1) ** j * math.comb(r, j)
                lhs.append(acc)
            rhs = [Fraction(0)] * (upto + 1)
            for (i, j), v in dia.entries.items():
                if j <= upto:
                    rhs[j] += (-1) ** i * v
            assert lhs == rhs


class TestGeneratorRatio:
    def test_two_by_three_tight(self):
        rep = check_generator_ratio(load("m23.pres"))
        assert (rep.k, rep.l, rep.N) == (2, 3, 1)
        assert rep.ratio == Fraction(3, 2)
        assert rep.required == 3
        assert rep.holds
        assert rep.beta0 == rep.k and rep.beta1 <= rep.l

    def test_two_by_five(self):
        rep = check_generator_ratio(load("m25.pres"))
        assert (rep.k, rep.l) == (2, 5)
        assert rep.holds
        assert rep.l == rep.k + 4 - 1

    def test_example_xy2(self):
        rep = check_generator_ratio(load("ex33.pres"))
        assert (rep.k, rep.l, rep.N) == (1, 2, 1)
        assert rep.ratio == Fraction(3, 2)
        assert rep.holds

    def test_rejects_unit_image(self):
        text = "ring r=2 vardeg=1\ntarget 0\nmatrix 1 1\n1\n"
        with pytest.raises(DomainError):
            check_generator_ratio(parse_presentation(text))

    def test_rejects_infinite_cokernel(self):
        text = "ring r=2 vardeg=1\ntarget 0\nmatrix 1 1\nx\n"
        with pytest.raises(DomainError):
            check_generator_ratio(parse_presentation(text))


class TestMemoizedResults:
    """A presentation map keeps its finite-length report and resolution per degree cap."""

    NAMES = ["ex33.pres", "m23.pres", "m24.pres", "m25.pres", "m35.pres"]

    @pytest.mark.parametrize("name", NAMES)
    def test_repeat_calls_return_the_same_object(self, name):
        p = load(name)
        assert finite_length_and_hilbert(p) is finite_length_and_hilbert(p)
        assert minimal_free_resolution(p) is minimal_free_resolution(p)

    @pytest.mark.parametrize("name", NAMES)
    def test_ratio_check_reuses_both_results(self, monkeypatch, name):
        p = load(name)
        fin = finite_length_and_hilbert(p)
        res = minimal_free_resolution(p)
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        for fn in (
            groebner.groebner,
            groebner.syzygy_basis,
            groebner.syzygies_of_columns,
            groebner.buchberger,
            groebner._buchberger,
        ):
            patch_bindings(monkeypatch, fn, counting(fn))
        chk = check_generator_ratio(p)
        assert calls == []
        assert chk.hilbert == fin.hilbert
        assert (chk.beta0, chk.beta1) == (res.betti_diagram().total(0), res.betti_diagram().total(1))

    @pytest.mark.parametrize("name", NAMES)
    def test_results_equal_those_of_a_fresh_copy(self, name):
        p = load(name)
        first = (finite_length_and_hilbert(p), minimal_free_resolution(p), check_generator_ratio(p))
        again = (finite_length_and_hilbert(p), minimal_free_resolution(p), check_generator_ratio(p))
        fresh = load(name)
        assert fresh == p
        assert again == first
        assert minimal_free_resolution(fresh) == first[1]
        assert finite_length_and_hilbert(fresh) == first[0]
        assert check_generator_ratio(fresh) == first[2]

    def test_results_are_keyed_by_degree_cap(self):
        p = load("m24.pres")
        low, high = finite_length_and_hilbert(p, 6), finite_length_and_hilbert(p, 64)
        assert low == high and low is not high
        assert finite_length_and_hilbert(p, 6) is low
        res_low, res_high = minimal_free_resolution(p, 6), minimal_free_resolution(p, 64)
        assert res_low == res_high and res_low is not res_high
        assert minimal_free_resolution(p, 6) is res_low

    def test_a_degree_cap_error_is_not_kept(self):
        p = load("m24.pres")
        # At cap 4 the cokernel's basis fits but its resolution does not.
        with pytest.raises(DegreeCapError):
            minimal_free_resolution(p, 4)
        with pytest.raises(DegreeCapError):
            minimal_free_resolution(p, 4)
        with pytest.raises(DegreeCapError):
            finite_length_and_hilbert(p, 3)
        res = minimal_free_resolution(p)
        assert res == minimal_free_resolution(load("m24.pres"))
        assert finite_length_and_hilbert(p).finite
        assert check_generator_ratio(p).holds


def reference_resolution(p, degree_cap=groebner.DEFAULT_DEGREE_CAP):
    """The resolution loop that tracks cofactors: each step appends the
    syzygies of the last map's own columns, then cancels unit entries."""
    maps = [p]
    resolutions._minimize(maps)
    while maps[-1].source.rank > 0:
        syz = groebner.syzygies_of_columns(maps[-1], degree_cap)
        if syz.source.rank == 0:
            break
        maps.append(syz)
        resolutions._minimize(maps)
        if maps[-1].source.rank == 0:
            maps.pop()
            break
    return resolutions.Resolution(tuple(maps))


def projection_maps(name):
    ext = parse_extension(data_text(name))
    zs = split_Z(ext)
    maps = projection_presentations(perturb(ext, seeded_retract(ext, zs)), zs)
    return [maps.map_even, maps.map_odd]


def step_inputs(key):
    if key.startswith("seed"):
        return random_finite_presentations(seed=SEED + int(key[-1]))
    if key.endswith(".sul"):
        return projection_maps(key)
    return [load(key)]


STEP_INPUTS = ["seed+0", "seed+1", "ex33.pres", "m23.pres", "m24.pres", "m25.pres", "m35.pres",
               "nilmanifold.sul", "heis_circle.sul"]


class TestReducedBasisSteps:
    """Each step resolves from the reduced basis of the last map's columns.

    The tracked loop above is the reference: the same Betti diagram, and
    exactness checked through the Hilbert series against the linear-algebra
    Hilbert function, which uses no Groebner basis.
    """

    @pytest.mark.parametrize("key", STEP_INPUTS)
    def test_matches_the_tracked_reference(self, key):
        for p in step_inputs(key):
            res = minimal_free_resolution(p)
            assert res.betti_diagram() == reference_resolution(p).betti_diagram()
            assert res.is_minimal()
            compositions_vanish(res)

    @pytest.mark.parametrize("key", STEP_INPUTS)
    def test_hilbert_series_of_the_complex(self, key):
        # sum_i (-1)^i sum_{generators of F_i} t^deg == H(t) * (1 - t^vd)^r
        for p in step_inputs(key):
            ring = p.target.ring
            r, vd = ring.num_vars, ring.var_degree
            mods = minimal_free_resolution(p).free_modules()
            euler = {}
            for i, mod in enumerate(mods):
                for d in mod.generator_degrees:
                    euler[d] = euler.get(d, 0) + (-1) ** i
            up_to = max(max(euler), max(p.target.generator_degrees) + vd * r) + 1
            hilbert = resolutions.hilbert_by_linear_algebra(p, up_to)
            assert hilbert[-1] == 0
            product = {}
            for d, h in enumerate(hilbert):
                for j in range(r + 1):
                    e = d + vd * j
                    product[e] = product.get(e, 0) + h * (-1) ** j * math.comb(r, j)
            assert {d: v for d, v in euler.items() if v} == {d: v for d, v in product.items() if v}

    @pytest.mark.parametrize("key", ["seed+0", "ex33.pres", "m23.pres", "m24.pres", "m25.pres", "m35.pres"])
    def test_one_basis_per_map(self, monkeypatch, key):
        # After the finite-length test, the resolution makes no graph pass
        # and no second Buchberger pass on the map's own columns.
        original = groebner._buchberger
        for p in step_inputs(key):
            assert finite_length_and_hilbert(p).finite
            passes = []

            def counting(gens, degree_cap, module, lead_rank):
                passes.append((tuple(gens), lead_rank < module.rank))
                return original(gens, degree_cap, module, lead_rank)

            patch_bindings(monkeypatch, original, counting)
            minimal_free_resolution(p)
            monkeypatch.undo()
            assert [graph for _, graph in passes if graph] == []
            assert p.columns not in [gens for gens, _ in passes]
