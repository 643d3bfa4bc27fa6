import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from toralrank import cli
from toralrank.cli import main
from toralrank.pipeline import run_pipeline
from toralrank.diagrams import DegreeSequence, format_diagram, pure_diagram

from conftest import DATA, GOLDEN, data_text

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestTables:
    @pytest.mark.parametrize("which,golden", [("4a", "table_4a.txt"), ("4b", "table_4b.txt"), ("5", "table_5.txt")])
    def test_matches_golden_file(self, capsys, which, golden):
        code, out, err = run(capsys, "table", "--paper", which)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    def test_porcelain_cells(self, capsys):
        code, out, _ = run(capsys, "table", "--paper", "5", "--porcelain")
        assert code == 0
        assert "table=5 row=n=2 r=1 value=3" in out.splitlines()
        assert "table=5 row=n=5 r=10 value=428" in out.splitlines()

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "table", "--paper", "4a")
        _, second, _ = run(capsys, "table", "--paper", "4a")
        assert first == second


class TestBound:
    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "4", "--r", "7", "--csymplectic")
        assert code == 0
        assert "best: 128" in out
        assert "meets the target" in out

    def test_porcelain(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--n", "10", "--r", "4", "--b", "6", "--porcelain"
        )
        assert code == 0
        lines = dict(l.split("=", 1) for l in out.splitlines())
        assert lines["formula.betti_tradeoff.value"] == "19"
        assert lines["formula.betti_tradeoff.exact"] == "132/7"
        assert lines["formula.betti_tradeoff.argmin_k"] == "4"

    def test_invalid_rank_exits_one(self, capsys):
        code, out, err = run(capsys, "bound", "--n", "3", "--r", "9")
        assert code == 1
        assert "error" in err

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--n", "4"])
        assert exc.value.code == 2


class TestAudits:
    def test_trc_audit(self, capsys):
        code, out, _ = run(capsys, "audit-trc", "--nmax", "4")
        assert code == 0
        assert "all satisfied" in out

    def test_lemma52(self, capsys):
        code, out, _ = run(capsys, "lemma52", "--nmax", "40")
        assert code == 0
        assert "all satisfied" in out

    @pytest.mark.parametrize("nmax", ["0", "-1"])
    def test_trc_audit_refuses_an_empty_range(self, capsys, nmax):
        code, out, err = run(capsys, "audit-trc", "--nmax", nmax)
        assert code == 1
        assert out == ""
        assert "--nmax must be at least 1" in err


def run_child(*argv):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "toralrank", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return proc, time.perf_counter() - start


class TestSizeCaps:
    """Sizes past the caps stated in README exit 1 before any output."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            # 2^19999 has more digits than the interpreter prints.
            (["bound", "--n", "20000", "--r", "19999"], "--r 19999 is above the cap 500"),
            (["bound", "--n", "20000", "--r", "3"], "--n 20000 is above the cap 500"),
            (["bound", "--n", "10", "--r", "4", "--b", "100000"], "--b 100000 is above the cap 500"),
            (["bound", "--n", "10", "--r", "4", "--l", "501", "--porcelain"], "--l 501 is above the cap 500"),
            (["lemma52", "--nmax", "400"], "--nmax 400 is above the cap 100"),
            (["audit-trc", "--nmax", "200"], "--nmax 200 is above the cap 20"),
            # The diagram file is never read.
            (["hk", "--in", "missing.txt", "--codim", "100000"], "--codim 100000 is above the cap 100"),
            (["decompose", "--in", "missing.txt", "--codim", "101"], "--codim 101 is above the cap 100"),
            (["pure", "--d", ",".join(str(7 * i) for i in range(1500))], "--d length 1500 is above the cap 100"),
            (["pure", "--d", ",".join(map(str, range(101))), "--array"], "--d length 101 is above the cap 100"),
        ],
    )
    def test_refused_before_any_work(self, argv, message):
        proc, wall = run_child(*argv)
        assert wall < 5
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"

    def test_largest_bound_inputs_print(self, capsys):
        code, out, err = run(
            capsys, "bound", "--n", "500", "--r", "500", "--b", "500", "--l", "500", "--csymplectic", "--porcelain"
        )
        assert code == 0 and err == ""
        lines = dict(l.split("=", 1) for l in out.splitlines())
        assert lines["trc_target"] == str(2**500)

    @pytest.mark.parametrize(
        "command,nmax,code,last",
        [
            ("lemma52", "100", 0, "midpoint ratio inequality on even n in [4, 100], 3 <= r <= n+1: all satisfied"),
            # The c-symplectic bounds miss 2^r from n = 5 on (n=5 r=6: best 52).
            ("audit-trc", "20", 1, "audit: FAILED"),
        ],
    )
    def test_largest_nmax_runs_to_the_end(self, command, nmax, code, last):
        proc, wall = run_child(command, "--nmax", nmax)
        assert wall < 30
        assert proc.returncode == code
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-1] == last

    def test_largest_diagram_sizes_run_to_the_end(self, tmp_path):
        degrees = ",".join(str(7 * i) for i in range(100))
        proc, wall = run_child("pure", "--d", degrees)
        assert wall < 5
        assert proc.returncode == 0 and proc.stderr == ""
        assert len(proc.stdout.splitlines()) == 100
        f = tmp_path / "d.txt"
        f.write_text("0 0 1\n1 1 2\n2 2 1\n")
        proc, wall = run_child("hk", "--in", str(f), "--codim", "100")
        assert wall < 5
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.splitlines()[-2:] == [f"t=99: {2 ** 99 - 2}", "all zero: no"]
        # A pure diagram with 101 degrees has codimension 100.
        f.write_text(format_diagram(pure_diagram(DegreeSequence(tuple(range(101))))))
        proc, wall = run_child("decompose", "--in", str(f), "--codim", "100")
        assert wall < 5
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.splitlines() == [f"1 * pi({','.join(map(str, range(101)))})", "recomposes exactly: yes"]


    @pytest.mark.parametrize(
        "argv",
        [
            ["hk", "--in", "missing.txt", "--codim", "0"],
            ["hk", "--in", "missing.txt", "--codim", "-3"],
            ["decompose", "--in", "missing.txt", "--codim", "-1"],
        ],
    )
    def test_codim_below_one_is_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == "error: --codim must be at least 1\n"

    def test_array_window_above_the_cell_cap_is_refused(self):
        proc, wall = run_child("pure", "--d", "0,100000", "--array")
        assert wall < 5
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: Betti table window of degrees 0..100000 by columns 0..1 is above the cap of 10000 cells\n"

    def test_largest_array_window_prints(self):
        # 100 consecutive degrees fill exactly the 10000-cell cap.
        proc, wall = run_child("pure", "--d", ",".join(map(str, range(100))), "--array")
        assert wall < 5
        assert proc.returncode == 0 and proc.stderr == ""
        assert len(proc.stdout.splitlines()) == 101

    def test_values_past_the_digit_limit_are_refused_before_output(self, tmp_path):
        # Python's int-to-str conversion stops at 4300 digits.
        f = tmp_path / "d.txt"
        f.write_text(f"0 0 1\n1 {10 ** 50} 1\n")
        proc, wall = run_child("hk", "--in", str(f), "--codim", "100")
        assert wall < 5
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: residual t=86 has 4301 digits, above the 4300 that can be printed\n"
        x = 10**3000
        for array in ([], ["--array"]):
            proc, wall = run_child("pure", "--d", f"0,{x},{2 * x}", *array)
            assert wall < 5
            assert (proc.returncode, proc.stdout) == (1, "")
            assert proc.stderr == "error: entry (0,0) has 6001 digits, above the 4300 that can be printed\n"
        # The one coefficient of pi(0,x,2x,3x) scaled to integer entries is 6x^3.
        x = 10**1500
        f.write_text(format_diagram(pure_diagram(DegreeSequence((0, x, 2 * x, 3 * x))).scaled(6 * x**3)))
        proc, wall = run_child("decompose", "--in", str(f), "--codim", "3")
        assert wall < 5
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: coefficient 1 has 4501 digits, above the 4300 that can be printed\n"


class TestDiagramCommands:
    def test_pure(self, capsys):
        code, out, _ = run(capsys, "pure", "--d", "0,1,3")
        assert code == 0
        assert out == "0 0 1/3\n1 1 1/2\n2 3 1/6\n"

    def test_decompose(self, capsys, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("0 0 1\n1 1 1\n1 2 1\n2 3 1\n")
        code, out, _ = run(capsys, "decompose", "--in", str(f), "--codim", "2")
        assert code == 0
        assert "2 * pi(0,1,3)" in out
        assert "2 * pi(0,2,3)" in out
        assert "recomposes exactly: yes" in out

    def test_decompose_cone_error(self, capsys, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("0 0 1\n1 1 1\n2 3 1\n")
        code, out, err = run(capsys, "decompose", "--in", str(f), "--codim", "2")
        assert code == 1
        assert "cone" in err

    @pytest.mark.parametrize("degrees,token", [("0,1_0", "1_0"), (" 0,+3", " 0"), ("0,+3", "+3"), ("0,\u0663", "\u0663")])
    def test_degree_outside_the_integer_grammar_exits_two(self, capsys, degrees, token):
        code, out, err = run(capsys, "pure", "--d", degrees)
        assert code == 2
        assert out == ""
        assert err == f"error: bad degree sequence {degrees!r}: expected an integer, got {token!r}\n"

    def test_hk(self, capsys, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("0 0 1\n1 1 1\n1 2 1\n2 3 1\n")
        code, out, _ = run(capsys, "hk", "--in", str(f), "--codim", "2")
        assert code == 0
        assert "all zero: yes" in out

    @pytest.mark.parametrize("command", ["decompose", "hk"])
    @pytest.mark.parametrize("value", ["3/0", "0.5", "1e999", "1e10000000", "1" * 5000])
    def test_entry_outside_the_grammar_exits_two(self, tmp_path, command, value):
        # Entries are <p>[/<q>] with integers p and q, q nonzero; "1e10000000"
        # alone took seconds to read as a Fraction.
        f = tmp_path / "d.txt"
        f.write_text(f"0 0 1\n1 2 {value}\n")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "toralrank", command, "--in", str(f), "--codim", "2"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert time.perf_counter() - start < 5
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: line 2: ")
        assert "Traceback" not in proc.stderr


class TestPresentationCommands:
    def test_resolve_matches_golden(self, capsys):
        code, out, _ = run(capsys, "resolve", "--in", str(DATA / "ex33.pres"))
        assert code == 0
        table = "\n".join(out.splitlines()[2:]) + "\n"
        assert table == (GOLDEN / "example_betti.txt").read_text()

    def test_coker(self, capsys):
        code, out, _ = run(capsys, "coker", "--in", str(DATA / "m35.pres"), "--porcelain")
        assert code == 0
        lines = dict(l.split("=", 1) for l in out.splitlines())
        assert lines["finite"] == "1"
        assert lines["hilbert"] == "3,4,3"
        assert lines["total_dim"] == "10"

    def test_prop41(self, capsys):
        code, out, _ = run(capsys, "prop41", "--in", str(DATA / "m23.pres"), "--porcelain")
        assert code == 0
        lines = dict(l.split("=", 1) for l in out.splitlines())
        assert lines["k"] == "2" and lines["l"] == "3"
        assert lines["ratio"] == "3/2"
        assert lines["holds"] == "1"

    def test_syntax_error_exits_two(self, capsys, tmp_path):
        f = tmp_path / "bad.pres"
        f.write_text("ring r=2 vardeg=1\ntarget 0\nmatrix 1 1\nx1 +\n")
        code, out, err = run(capsys, "resolve", "--in", str(f))
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            "ring r=2 vardeg=1\ntarget 0 q\nmatrix 1 1\nx1\n",
            "ring r=2 vardeg=1\ntarget 0\nmatrix 1 x\nx1\n",
        ],
    )
    def test_non_integer_header_exits_two(self, capsys, tmp_path, text):
        f = tmp_path / "bad.pres"
        f.write_text(text)
        code, out, err = run(capsys, "coker", "--in", str(f))
        assert code == 2
        assert "expected an integer" in err
        assert "Traceback" not in err and "invalid literal" not in err

    @staticmethod
    def assert_coker_fails_fast(tmp_path, text):
        f = tmp_path / "big.pres"
        f.write_text(text)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "toralrank", "coker", "--in", str(f)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert time.perf_counter() - start < 5
        assert proc.returncode == 1
        assert "exceeds cap" in proc.stderr
        assert "Traceback" not in proc.stderr
        return proc.stderr

    def test_huge_exponent_fails_fast(self, tmp_path):
        # x1^2000000 is built as one monomial; the first S-pair then crosses
        # the degree cap at once instead of after two million multiplications.
        self.assert_coker_fails_fast(tmp_path, "ring r=2 vardeg=1\ntarget 0\nmatrix 1 2\nx1^2000000 x2\n")

    def test_huge_standard_monomial_box_fails_fast(self, tmp_path):
        # One pure power: finite length, but two million standard monomials.
        err = self.assert_coker_fails_fast(tmp_path, "ring r=1 vardeg=1\ntarget 0\nmatrix 1 1\nx1^2000000\n")
        assert "box of 2000000 monomials at component 0" in err

    def test_missing_file_exits_two(self, capsys):
        code, out, err = run(capsys, "coker", "--in", "/nonexistent.pres")
        assert code == 2

    def test_degree_cap_exits_one(self, capsys):
        code, out, err = run(
            capsys, "resolve", "--in", str(DATA / "m35.pres"), "--max-degree", "2"
        )
        assert code == 1
        assert "cap" in err


class TestModelCommands:
    def test_model_cohomology(self, capsys, tmp_path):
        f = tmp_path / "m.sul"
        f.write_text("gen x1 deg=1\ngen x2 deg=1\nd x1 = 0\nd x2 = 0\n")
        code, out, _ = run(capsys, "model-cohomology", "--in", str(f))
        assert code == 0
        assert "betti: 1 2 1" in out
        assert "euler characteristic: 0" in out

    def test_csympl_with_omega(self, capsys, tmp_path):
        f = tmp_path / "m.sul"
        f.write_text("gen x1 deg=1\ngen x2 deg=1\nd x1 = 0\nd x2 = 0\n")
        code, out, _ = run(capsys, "csympl", "--in", str(f), "--omega", "x1*x2")
        assert code == 0
        assert "c-symplectic: yes" in out

    @pytest.mark.parametrize("omega", ["x1*", "x1 x2", "q", ""])
    def test_csympl_bad_omega_exits_two(self, capsys, tmp_path, omega):
        f = tmp_path / "m.sul"
        f.write_text("gen x1 deg=1\ngen x2 deg=1\nd x1 = 0\nd x2 = 0\n")
        code, out, err = run(capsys, "csympl", "--in", str(f), "--omega", omega)
        assert code == 2
        assert out == ""
        assert "at position" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["nilmanifold", "heis_circle", "torus2", "circle"])
    def test_hb_build_matches_golden(self, capsys, name):
        code, out, _ = run(capsys, "hb-build", "--in", str(DATA / f"{name}.sul"))
        assert code == 0
        assert out == (GOLDEN / f"hb_build_{name}.txt").read_text()

    @pytest.mark.parametrize("command", ["hb-build", "hb-check", "hb-pipeline"])
    def test_negative_cutoff_exits_one(self, capsys, command):
        code, out, err = run(capsys, command, "--in", str(DATA / "torus2.sul"), "--cutoff", "-5")
        assert code == 1
        assert out == ""
        assert "cutoff must be at least 0" in err

    def test_model_cohomology_negative_cutoff_exits_one(self, capsys, tmp_path):
        f = tmp_path / "m.sul"
        f.write_text("gen x1 deg=1\nd x1 = 0\n")
        code, out, err = run(capsys, "model-cohomology", "--in", str(f), "--cutoff", "-3")
        assert code == 1
        assert out == ""
        assert "cutoff must be at least 0" in err

    @pytest.mark.parametrize(
        "command,torus",
        [("model-cohomology", ""), ("csympl", ""), ("hb-build", "torus r=1\nD x = X1\n"),
         ("hb-check", "torus r=1\nD x = X1\n"), ("hb-pipeline", "torus r=1\nD x = X1\n")],
    )
    def test_capacity_cap_fails_fast(self, capsys, tmp_path, command, torus):
        f = tmp_path / "big.sul"
        gens = "".join(f"gen y{i} deg=2\nd y{i} = 0\n" for i in range(1, 5))
        f.write_text(gens + "gen x deg=1\nd x = 0\n" + torus)
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--in", str(f), "--cutoff", "120")
        assert time.perf_counter() - start < 5
        assert code == 1
        assert out == ""
        stage = "[stage build_retract] " if command == "hb-pipeline" else ""
        assert err == (
            f"error: {stage}the monomial basis through degree 75 has 202540 monomials, "
            "above the capacity cap 200000\n"
        )

    def test_all_odd_cutoff_at_the_cap(self, capsys, tmp_path):
        f = tmp_path / "m.sul"
        f.write_text("gen x deg=1\nd x = 0\n")
        code, out, _ = run(capsys, "model-cohomology", "--in", str(f), "--cutoff", "200000")
        assert code == 0
        assert out == "betti: 1 1" + " 0" * 199999 + "\nformal dimension: 1\neuler characteristic: 0\n"

    @pytest.mark.parametrize("command,torus", [("model-cohomology", ""), ("hb-pipeline", "torus r=1\nD x = X1\n")])
    def test_cutoff_above_the_cap_fails_fast(self, tmp_path, command, torus):
        f = tmp_path / "m.sul"
        f.write_text("gen x deg=1\nd x = 0\n" + torus)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "toralrank", command, "--in", str(f), "--cutoff", "10000000"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert time.perf_counter() - start < 5
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.endswith("cutoff 10000000 is above the capacity cap 200000\n")

    def test_model_command_on_an_extension_file_names_the_hb_commands(self, capsys):
        code, out, err = run(capsys, "model-cohomology", "--in", str(DATA / "circle.sul"))
        assert code == 2
        assert "the hb-build, hb-check and hb-pipeline commands read such files" in err

    def test_hb_command_on_a_plain_model_names_the_model_commands(self, capsys, tmp_path):
        f = tmp_path / "m.sul"
        f.write_text("gen x deg=1\nd x = 0\n")
        code, out, err = run(capsys, "hb-build", "--in", str(f))
        assert code == 2
        assert "the model-cohomology and csympl commands read such files" in err

    def test_hb_build_writes_presentation(self, capsys, tmp_path):
        out_file = tmp_path / "delta.pres"
        code, out, _ = run(
            capsys, "hb-build", "--in", str(DATA / "torus2.sul"), "--out", str(out_file)
        )
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("ring r=2 vardeg=2")
        from toralrank.groebner import parse_presentation

        pres = parse_presentation(text)
        assert pres.target.rank == 4

    def test_hb_check(self, capsys):
        code, out, _ = run(capsys, "hb-check", "--in", str(DATA / "torus2.sul"))
        assert code == 0
        assert "hold exactly" in out

    # Every cutoff from 0 to the top degree: (model, cutoff, degrees checked).
    # The identities reach one degree past the checked range, so a cutoff
    # where d does not vanish on the top degree is checked one degree lower.
    @pytest.mark.parametrize(
        "name,cutoff,checked",
        [("nilmanifold", c, c if c in (0, 5, 6) else c - 1) for c in range(7)]
        + [("heis_circle", c, c if c in (0, 3, 4) else c - 1) for c in range(5)]
        + [("torus2", c, c) for c in range(3)]
        + [("circle", c, c) for c in range(2)],
    )
    def test_hb_check_at_every_cutoff(self, capsys, name, cutoff, checked):
        code, out, err = run(capsys, "hb-check", "--in", str(DATA / f"{name}.sul"), "--cutoff", str(cutoff))
        assert code == 0
        assert out == f"all transfer identities hold exactly (degrees <= {checked})\n"
        assert err == ""

    @pytest.mark.parametrize("text", ["gen a deg=x\nd a = 0\n", "gen a deg=1\nd a = 0\ntorus r=q\n"])
    def test_non_integer_field_exits_two(self, capsys, tmp_path, text):
        f = tmp_path / "bad.sul"
        f.write_text(text)
        code, out, err = run(capsys, "model-cohomology", "--in", str(f))
        assert code == 2
        assert "expected an integer" in err
        assert "Traceback" not in err and "invalid literal" not in err

    def test_corrupted_extension_exits_one(self, capsys, tmp_path):
        f = tmp_path / "bad.sul"
        f.write_text(
            "gen a deg=1\ngen b deg=1\nd a = 0\nd b = 0\ntorus r=1\nD b = X1 + a*b\n"
        )
        code, out, err = run(capsys, "hb-pipeline", "--in", str(f))
        assert code == 1
        assert "parse_extension" in err
        assert "b" in err


class TestPipeline:
    def test_nilmanifold_pipeline(self, capsys):
        code, out, _ = run(
            capsys, "hb-pipeline", "--in", str(DATA / "nilmanifold.sul"), "--porcelain"
        )
        assert code == 0
        lines = dict(l.split("=", 1) for l in out.splitlines())
        assert lines["b"] == "3" and lines["k"] == "3"
        assert lines["finite"] == "1"
        assert lines["total_dim"] == "8"
        assert lines["map_even.holds"] == "1"
        assert lines["map_odd.holds"] == "1"
        assert lines["bound_met"] == "1"

    def test_cutoff_below_the_seeds_exits_one(self, capsys):
        code, out, err = run(
            capsys, "hb-pipeline", "--in", str(DATA / "nilmanifold.sul"), "--cutoff", "0"
        )
        assert code == 1
        assert out == ""
        assert "[stage build_retract] cutoff 0 lies below the degree-1 seeds" in err

    @pytest.mark.parametrize("cutoff", [1, 2])
    def test_stage_error_names_a_truncating_cutoff(self, capsys, cutoff):
        code, out, err = run(
            capsys, "hb-pipeline", "--in", str(DATA / "nilmanifold.sul"), "--cutoff", str(cutoff)
        )
        assert code == 1
        assert out == ""
        assert err == (
            "error: [stage check_generator_ratio(map_odd)] cokernel does not have finite length "
            f"(at cutoff {cutoff}; a cutoff below the top degree truncates H)\n"
        )

    def test_circle_k_zero_branch(self, capsys):
        code, out, _ = run(capsys, "hb-pipeline", "--in", str(DATA / "circle.sul"))
        assert code == 0
        assert "exterior algebra" in out

    def test_run_pipeline_api(self):
        result = run_pipeline(data_text("torus2.sul"))
        assert result.k == 0 and result.b == 2
        assert result.finite and result.total_dim == 1
        assert result.exterior_witness == 4
        assert result.bound_met
        assert result.ok

    def test_ok_needs_every_generator_count_check(self):
        result = run_pipeline(data_text("nilmanifold.sul"))
        assert result.ok
        assert not replace(result, odd_check=replace(result.odd_check, holds=False)).ok
        assert not replace(result, finite=False).ok
        assert not replace(result, bound_met=False).ok

    def test_cli_serves_the_library_pipeline(self):
        assert cli.run_pipeline is run_pipeline


class TestIntegerTokens:
    @pytest.mark.parametrize(
        "name,text,where",
        [
            ("m.sul", "gen x deg=1_0\nd x = 0\n", "line 1"),
            ("m.sul", "gen x deg=+3\nd x = 0\n", "line 1"),
            ("d.txt", "0 0 1\n1_0 2 3\n", "line 2"),
            ("p.pres", "ring r=2 vardeg=1\ntarget 0_0\nmatrix 1 1\nx\n", "'target 0_0'"),
            ("p.pres", "ring r=1_0 vardeg=1\ntarget 0\nmatrix 1 1\nx\n", "'ring r=1_0 vardeg=1'"),
        ],
    )
    def test_python_only_integer_literals_exit_two(self, tmp_path, name, text, where):
        # int() also reads 1_0 as 10 and +3 as 3; the file formats do not.
        f = tmp_path / name
        f.write_text(text)
        command = {"m.sul": ["model-cohomology"], "d.txt": ["hk", "--codim", "2"], "p.pres": ["coker"]}[name]
        proc = subprocess.run(
            [sys.executable, "-m", "toralrank", *command, "--in", str(f)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {where}: expected an integer, got ")
        assert "Traceback" not in proc.stderr
