"""Acceptance criteria, one test per criterion, each printing a PASS line.

All arithmetic in the package is exact, so every assertion here is an
equality; the only inequalities are the stated runtime budgets.
"""

import itertools
import time
from fractions import Fraction

import pytest

from toralrank import bounds as B
from toralrank.pipeline import run_pipeline
from toralrank.diagrams import (
    BettiDiagram,
    DegreeSequence,
    bs_decompose,
    herzog_kuhl_residuals,
    min_ratio_over_sequences,
    pure_diagram,
)
from toralrank.groebner import finite_length_and_hilbert, parse_presentation
from toralrank.hirschbrown import (
    OperatorContext,
    build_retract,
    hb_cohomology_finite,
    perturb,
    seeded_retract,
    split_Z,
    verify_transfer,
)
from toralrank.resolutions import betti_via_koszul, check_generator_ratio, minimal_free_resolution
from toralrank.sullivan import parse_extension

from conftest import GOLDEN, data_text, random_finite_presentations

TABLE_4A = {
    4: [8, 9, 10, 12, 13, 14, 16, 16, 16, 16],
    6: [12, 14, 16, 19, 22, 26, 32, 39, 50, 64],
    10: [20, 24, 28, 34, 41, 50, 64, 84, 122, 216],
}
TABLE_4B = {
    4: [8, 10, 12, 15, 19, 24, 32, 46, 72, 152],
    6: [12, 15, 18, 23, 28, 36, 48, 68, 108, 228],
    10: [20, 25, 30, 38, 47, 60, 80, 114, 180, 380],
}
TABLE_5 = {
    2: [3, 6, 10, 16],
    3: [3, 6, 12, 28, 44, 64],
    4: [3, 7, 13, 25, 40, 65, 110, 214],
    5: [3, 6, 11, 20, 33, 52, 80, 123, 208, 428],
}


class _Budget:
    def __init__(self, seconds, label):
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.label}: {elapsed:.2f}s over budget"
            print(f"ACCEPTANCE PASS {self.label} ({elapsed:.2f}s)")
        return False


def test_criterion_01_table_4a():
    with _Budget(1.0, "criterion 1: table 4a"):
        _, rows = B.table_cells("4a")
        assert {int(l.split("=")[1]): v for l, v in rows} == TABLE_4A


def test_criterion_02_table_4b():
    with _Budget(1.0, "criterion 2: table 4b"):
        _, rows = B.table_cells("4b")
        assert {int(l.split("=")[1]): v for l, v in rows} == TABLE_4B


def test_criterion_03_table_5():
    with _Budget(1.0, "criterion 3: table 5 with parity/range dispatch"):
        _, rows = B.table_cells("5")
        assert {int(l.split("=")[1]): v for l, v in rows} == TABLE_5
        # Dispatch sanity: the two formulas are used on complementary ranges.
        assert B.csymplectic_table_value(3, 3) == B.duality_bound_low_rank(3, 3).value
        assert B.csymplectic_table_value(3, 4) == B.duality_bound_high_rank(3, 4).value
        assert B.csymplectic_table_value(4, 3) == B.duality_bound_low_rank(4, 3).value
        assert B.csymplectic_table_value(4, 4) == B.duality_bound_high_rank(4, 4).value


def test_criterion_04_trc_audit():
    with _Budget(1.0, "criterion 4: TRC audit for n <= 4"):
        ok, records = B.trc_audit(4)
        assert ok
        assert len(records) == 2 + 4 + 6 + 8
        for n, r, best, target, meets in records:
            assert meets, (n, r, best, target)
        # The exterior-algebra witness is genuinely needed at the top ranks.
        rep = B.best_bound(B.BoundInputs(n=4, r=7, csymplectic=True))
        assert rep.entry("duality_high_rank").value == 110
        assert rep.best == 128


def test_criterion_05_midpoint_ratio_sweep():
    with _Budget(1.0, "criterion 5: ratio inequality sweep"):
        ok, records = B.midpoint_ratio_sweep(40)
        assert ok
        assert len(records) == sum(n - 1 for n in range(4, 41, 2))


def test_criterion_06_worked_resolution():
    with _Budget(1.0, "criterion 6: worked minimal resolution"):
        p = parse_presentation(data_text("ex33.pres"))
        res = minimal_free_resolution(p)
        assert res.betti_diagram() == BettiDiagram(
            {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1}
        )
        from toralrank.diagrams import format_betti_table

        assert format_betti_table(res.betti_diagram()) == (GOLDEN / "example_betti.txt").read_text()


def test_criterion_07_displayed_matrices():
    with _Budget(5.0, "criterion 7: displayed matrices"):
        expected = {"m23.pres": (2, 3, 2), "m25.pres": (2, 5, 4), "m35.pres": (3, 5, 3)}
        for name, (k, l, r) in expected.items():
            p = parse_presentation(data_text(name))
            rep = finite_length_and_hilbert(p)
            assert rep.finite, name
            assert (p.target.rank, p.source.rank) == (k, l)
            assert l == k + r - 1
            check = check_generator_ratio(p)
            assert check.holds, name


def test_criterion_08_decomposition_and_pure_diagrams():
    with _Budget(5.0, "criterion 8: cone decomposition and pure diagrams"):
        worked = BettiDiagram({(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1})
        deco = bs_decompose(worked, 2)
        assert [(c, s.degrees) for c, s in deco] == [(2, (0, 1, 3)), (2, (0, 2, 3))]
        assert deco.recompose() == worked
        for length in (1, 2, 3):
            for combo in itertools.combinations(range(7), length + 1):
                seq = DegreeSequence(combo)
                residuals = herzog_kuhl_residuals(pure_diagram(seq), length)
                assert all(v == 0 for v in residuals), seq


def test_criterion_09_oracle_equivalence():
    with _Budget(60.0, "criterion 9: resolution vs exterior-complex oracle"):
        presentations = random_finite_presentations(count=20)
        assert len(presentations) >= 20
        for p in presentations:
            dia = minimal_free_resolution(p).betti_diagram()
            top = max(j for _, j in dia.entries)
            assert betti_via_koszul(p, top) == dia


def test_criterion_10_perturbation_suite():
    with _Budget(60.0, "criterion 10: perturbation suite"):
        # (a) self-actions of the circle and the 2-torus transfer to
        # one-dimensional homology.
        for name in ("circle.sul", "torus2.sul"):
            ext = parse_extension(data_text(name))
            zs = split_Z(ext)
            rd = seeded_retract(ext, zs)
            hb = perturb(ext, rd)
            fin = hb_cohomology_finite(hb)
            assert fin.finite and fin.total_dim == 1
            # (c) all limit identities, exactly.
            assert verify_transfer(ext, rd, hb).ok

        # (b) the worked six-generator extension has finite transferred
        # cohomology -- the witness that three circles act almost freely.
        ext = parse_extension(data_text("nilmanifold.sul"))
        zs = split_Z(ext)
        assert (zs.k, zs.b) == (3, 3)
        rd = seeded_retract(ext, zs)
        hb = perturb(ext, rd)
        fin = hb_cohomology_finite(hb)
        assert fin.finite
        assert fin.total_dim == 8
        assert verify_transfer(ext, rd, hb).ok  # (c) again, on the big example

        # (d) an untwisted extension transfers to delta = 0.
        text = data_text("nilmanifold.sul").split("torus")[0] + "torus r=3\n"
        ext0 = parse_extension(text)
        rd0 = build_retract(ext0.base)
        hb0 = perturb(ext0, rd0)
        assert hb0.delta == {}


def test_criterion_11_property_suites():
    with _Budget(30.0, "criterion 11: property suites"):
        # HK residuals on pure diagrams.
        for length in (1, 2, 3):
            for combo in itertools.combinations(range(7), length + 1):
                assert all(
                    v == 0
                    for v in herzog_kuhl_residuals(pure_diagram(DegreeSequence(combo)), length)
                )
        # Brute force vs closed form for the minimal ratio.
        for N in range(0, 9):
            for r in range(1, 6):
                assert min_ratio_over_sequences(N, r)["ratio"] == Fraction(N + r, N + 1)
        # Monotonicity in b.
        for r in range(1, 11):
            vals = [B.betti_tradeoff_bound(10, r, b).exact for b in range(1, 13)]
            assert all(x <= y for x, y in zip(vals, vals[1:]))
        # argmin location for the high-rank bound.
        for n in range(7, 13):
            rs = range(n + 1, 2 * n + 1) if n % 2 else range(n, 2 * n + 1)
            for r in rs:
                entry = B.duality_bound_high_rank(n, r)
                assert any(k > r - n for k in entry.argmin_k)
        # Ceiling convention on all 88 table cells.
        import math

        count = 0
        for b, row in TABLE_4A.items():
            for r, cell in zip(range(1, 11), row):
                assert math.ceil(B.betti_tradeoff_bound(10, r, b).exact) == cell
                count += 1
        for l, row in TABLE_4B.items():
            for r, cell in zip(range(1, 11), row):
                assert math.ceil(B.low_degree_bound(10, r, l).exact) == cell
                count += 1
        for n, row in TABLE_5.items():
            for r, cell in zip(range(1, 2 * n + 1), row):
                if (n % 2 == 1 and r >= n + 1) or (n % 2 == 0 and r >= n):
                    exact = B.duality_bound_high_rank(n, r).exact
                else:
                    exact = B.duality_bound_low_rank(n, r).exact
                assert math.ceil(exact) == cell
                count += 1
        assert count == 88


def test_pipeline_end_to_end_smoke():
    # Not a numbered criterion, but the consolidated pipeline should keep
    # reporting the worked values.
    result = run_pipeline(data_text("nilmanifold.sul"))
    assert (result.b, result.k) == (3, 3)
    assert result.finite and result.total_dim == 8
    assert result.even_check.holds and result.odd_check.holds
    assert result.bound_met
