import itertools
from fractions import Fraction

import pytest

from toralrank.diagrams import (
    BettiDiagram,
    BSDecomposition,
    DegreeSequence,
    bs_decompose,
    check_printable,
    format_betti_table,
    format_diagram,
    format_grid,
    herzog_kuhl_residuals,
    hk_ratio,
    min_ratio_over_sequences,
    parse_diagram,
    pure_diagram,
)
from toralrank.errors import DomainError, NotInConeError, ParseError
from toralrank.groebner import finite_length_and_hilbert
from toralrank.resolutions import minimal_free_resolution

EX33 = BettiDiagram({(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1})


def all_sequences(max_entry, length):
    for combo in itertools.combinations(range(max_entry + 1), length + 1):
        yield DegreeSequence(combo)


class TestPureDiagram:
    def test_zero_one_three(self):
        assert pure_diagram(DegreeSequence((0, 1, 3))) == BettiDiagram(
            {(0, 0): Fraction(1, 3), (1, 1): Fraction(1, 2), (2, 3): Fraction(1, 6)}
        )

    def test_two_entry_sequence(self):
        assert pure_diagram(DegreeSequence((0, 1))) == BettiDiagram(
            {(0, 0): 1, (1, 1): 1}
        )

    def test_zero_two_three(self):
        assert pure_diagram(DegreeSequence((0, 2, 3))) == BettiDiagram(
            {(0, 0): Fraction(1, 6), (1, 2): Fraction(1, 2), (2, 3): Fraction(1, 3)}
        )

    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            DegreeSequence((0, 0, 1))


class TestHKRatio:
    def test_prop_shape(self):
        # (0, 1, N+2, ..., N+r) telescopes to (N+r)/(N+1).
        for N in range(0, 6):
            for r in range(2, 6):
                seq = DegreeSequence(tuple([0, 1] + [N + i for i in range(2, r + 1)]))
                assert hk_ratio(seq) == Fraction(N + r, N + 1)

    def test_rank_one(self):
        assert hk_ratio(DegreeSequence((0, 1))) == 1

    def test_zero_one_three(self):
        assert hk_ratio(DegreeSequence((0, 1, 3))) == Fraction(3, 2)

    def test_translation_invariance(self):
        assert hk_ratio(DegreeSequence((5, 6, 8))) == hk_ratio(DegreeSequence((0, 1, 3)))

    def test_length_zero_rejected(self):
        with pytest.raises(ValueError):
            hk_ratio(DegreeSequence((0,)))


class TestHerzogKuhl:
    def test_pure_zero_one_three(self):
        assert herzog_kuhl_residuals(pure_diagram(DegreeSequence((0, 1, 3))), 2) == [0, 0]

    def test_worked_diagram(self):
        assert herzog_kuhl_residuals(EX33, 2) == [0, 0]

    def test_free_module_fails(self):
        assert herzog_kuhl_residuals(BettiDiagram({(0, 0): 1}), 1) == [1]

    def test_all_pure_diagrams_satisfy_hk(self):
        for length in (1, 2, 3):
            for seq in all_sequences(6, length):
                residuals = herzog_kuhl_residuals(pure_diagram(seq), length)
                assert all(v == 0 for v in residuals), seq


class TestDecomposition:
    def test_worked_example(self):
        deco = bs_decompose(EX33, 2)
        assert [(c, s.degrees) for c, s in deco] == [
            (2, (0, 1, 3)),
            (2, (0, 2, 3)),
        ]
        assert deco.recompose() == EX33

    def test_pure_multiple_single_part(self):
        q = Fraction(7, 3)
        diagram = pure_diagram(DegreeSequence((0, 2, 5))).scaled(q)
        deco = bs_decompose(diagram, 2)
        assert len(deco) == 1
        coeff, seq = deco.parts[0]
        assert coeff == q and seq.degrees == (0, 2, 5)

    def test_not_in_cone(self):
        bad = BettiDiagram({(0, 0): 1, (1, 1): 1, (2, 3): 1})
        with pytest.raises(NotInConeError):
            bs_decompose(bad, 2)

    def test_step_count_bounded_by_entries(self):
        deco = bs_decompose(EX33, 2)
        assert len(deco) <= len(EX33.entries)

    def test_module_diagrams_always_decompose(self, random_presentations):
        for p in random_presentations:
            rep = finite_length_and_hilbert(p)
            assert rep.finite
            dia = minimal_free_resolution(p).betti_diagram()
            deco = bs_decompose(dia, p.target.ring.num_vars)
            assert deco.recompose(codim_hint=p.target.ring.num_vars) == dia
            assert all(c > 0 for c, _ in deco)
            assert len(deco) <= len(dia.entries)


class TestMinRatio:
    def test_example_values(self):
        assert min_ratio_over_sequences(1, 2) == {
            "ratio": Fraction(3, 2),
            "argmin": DegreeSequence((0, 1, 3)),
        }
        assert min_ratio_over_sequences(0, 4)["ratio"] == 4
        assert min_ratio_over_sequences(3, 1)["ratio"] == 1

    def test_matches_closed_form(self):
        for N in range(0, 9):
            for r in range(1, 6):
                out = min_ratio_over_sequences(N, r)
                assert out["ratio"] == Fraction(N + r, N + 1)
                expected = tuple([0, 1] + [N + i for i in range(2, r + 1)])
                assert out["argmin"].degrees == expected


class TestIO:
    def test_file_roundtrip(self):
        text = format_diagram(EX33)
        assert parse_diagram(text) == EX33

    def test_parse_with_comments(self):
        d = parse_diagram("# header\n0 0 1/3\n1 1 1/2  # trailing comment\n")
        assert d.entry(0, 0) == Fraction(1, 3)
        assert d.entry(1, 1) == Fraction(1, 2)

    def test_parse_negative_entry(self):
        assert parse_diagram("2 3 -7/4\n").entry(2, 3) == Fraction(-7, 4)

    @pytest.mark.parametrize("line", ["1 2 3/0", "1 2 0.5", "1 2 1e999", "1 2 +3", "1 2 3/-2", "1.0 2 3", "1 x 3"])
    def test_parse_refuses_entries_outside_the_grammar(self, line):
        with pytest.raises(ParseError, match="^line 1: "):
            parse_diagram(line + "\n")

    def test_windowed_array(self):
        table = format_betti_table(EX33)
        lines = table.splitlines()
        assert lines[0].split() == ["j\\i", "0", "1", "2"]
        assert lines[1].split() == ["0", "1", ".", "."]
        assert lines[4].split() == ["3", ".", ".", "1"]

    def test_grid_rows_may_stop_early(self):
        grid = format_grid("r", [1, 2, 10], [("n=2", [3, 40]), ("n=10", [5, 6, 789])])
        assert grid == "r     1   2   10\nn=2   3  40\nn=10  5   6  789\n"

    def test_window_above_the_cell_cap_is_refused(self):
        with pytest.raises(DomainError, match="^Betti table window of degrees 0..10000 by columns 0..1 is above"):
            format_betti_table(pure_diagram(DegreeSequence((0, 10_000))))
        assert len(format_betti_table(pure_diagram(DegreeSequence((0, 4999)))).splitlines()) == 5001

    @pytest.mark.parametrize("k", [1, 9, 10, 4299, 4300, 4301, 9999])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_digit_count_is_exact(self, k, delta):
        n = 10**k + delta
        digits = k + (delta >= 0)
        fits = digits <= 4300
        for value in (Fraction(n), Fraction(-n), Fraction(1, n)):
            if fits:
                check_printable([("v", value)])
            else:
                with pytest.raises(DomainError, match=f"^v has {digits} digits, above the 4300 that can be printed$"):
                    check_printable([("v", value)])
