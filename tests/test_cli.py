"""Command-line interface: outputs and documented exit codes."""
from __future__ import annotations

import json
import re

import pytest

from vpf import ProblemSpec, compute, count_points, evaluate
from vpf.cli import main


A2 = "2 3\n1 0 1\n0 1 1\n"
ONE_ONE = "1 2\n1 1\n"
THREE_ONE = "2 2\n1 1\n3 1\n"
BECK = "2 4\n1 2 1 0\n1 1 0 1\n"
NOT_POINTED = "1 2\n1 -1\n"
COLLIDE = "2 3\n1 1 2\n1 1 1\n"
COLLIDE3 = "3 3\n1 1 0\n1 1 0\n0 0 1\n"
NEGATIVE = "2 3\n1 -1 0\n0 1 1\n"


@pytest.fixture
def mat(tmp_path):
    def write(text, name="m.mat"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


class TestCompute:
    def test_one_one_text(self, mat, capsys):
        assert main(["compute", mat(ONE_ONE)]) == 0
        out = capsys.readouterr().out
        assert "b+1 if b >= 0" in out

    def test_a2_text(self, mat, capsys):
        assert main(["compute", mat(A2)]) == 0
        out = capsys.readouterr().out
        assert "a+1" in out and "a >= 0" in out
        assert "-(a-b)" in out and "a-b-1 >= 0" in out
        assert "b >= 0" in out

    def test_json_schema(self, mat, capsys):
        assert main(["compute", mat(A2), "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["schema"] == 3
        assert obj["m"] == 2
        assert obj["matrix"] == [[1, 0, 1], [0, 1, 1]]
        for term in obj["terms"]:
            assert set(term) == {"guards", "modulus", "residue", "poly"}
            for mono in term["poly"]:
                assert len(mono["table"]) == term["modulus"]
                assert all(isinstance(x, str) for x in mono["table"])

    def test_latex(self, mat, capsys):
        assert main(["compute", mat(A2), "--format", "latex"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("\\phi(a, b) =")
        assert "\\ge" in out

    def test_order_flag(self, mat, capsys):
        assert main(["compute", mat(A2), "--order", "2,1"]) == 0

    @pytest.mark.parametrize("order", ["1,1", "1,2,3", "0,1", "2"])
    def test_bad_order_exits_4(self, mat, capsys, order):
        assert main(["compute", mat(A2), "--order", order]) == 4
        assert "MatrixParseError" in capsys.readouterr().err

    def test_zero_column_exits_2(self, mat, capsys):
        assert main(["compute", mat("2 2\n1 0\n1 0\n")]) == 2


class TestEval:
    def test_a2_values(self, mat, capsys):
        path = mat(A2)
        for b, expect in (("2,5", "3"), ("0,0", "1"), ("-1,4", "0")):
            assert main(["eval", path, b]) == 0
            assert capsys.readouterr().out.strip() == expect

    def test_eval_from_expr_json(self, mat, capsys, tmp_path):
        assert main(["compute", mat(A2), "--format", "json"]) == 0
        blob = capsys.readouterr().out
        ep = tmp_path / "expr.json"
        ep.write_text(blob)
        assert main(["eval", str(ep), "5,2"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_malformed_b_exits_4(self, mat, capsys):
        assert main(["eval", mat(A2), "2,x"]) == 4

    def test_expr_json_after_whitespace(self, mat, capsys, tmp_path):
        assert main(["compute", mat(A2), "--format", "json"]) == 0
        ep = tmp_path / "expr.json"
        ep.write_text("\n  \n" + capsys.readouterr().out)
        assert main(["eval", str(ep), "5,2"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_unknown_schema_exits_4(self, mat, capsys, tmp_path):
        assert main(["compute", mat(A2), "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        obj["schema"] = 4
        ep = tmp_path / "expr.json"
        ep.write_text(json.dumps(obj))
        assert main(["eval", str(ep), "5,2"]) == 4
        assert "schema" in capsys.readouterr().err

    def test_decimal_table_entry_exits_4(self, mat, capsys, tmp_path):
        # The "3/4" of (1 2) written as "0.75" used to load and be written
        # back as "3/4".
        assert main(["compute", mat("1 2\n1 2\n"), "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["terms"][0]["poly"][0]["table"] == ["3/4"]
        obj["terms"][0]["poly"][0]["table"] = ["0.75"]
        ep = tmp_path / "expr.json"
        ep.write_text(json.dumps(obj))
        assert main(["eval", str(ep), "3"]) == 4
        assert "bad expression JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("m", [0, -2])
    def test_nonpositive_m_exits_4(self, capsys, tmp_path, m):
        ep = tmp_path / "expr.json"
        ep.write_text(json.dumps({"schema": 3, "m": m, "terms": []}))
        assert main(["eval", str(ep), "1"]) == 4
        err = capsys.readouterr().err
        assert "bad expression JSON" in err and f"m = {m}" in err

    def test_b_length_mismatch_exits_4(self, mat, capsys):
        assert main(["eval", mat(A2), "1"]) == 4
        assert main(["eval", mat(A2), "1,2,3"]) == 4
        assert "MatrixParseError" in capsys.readouterr().err

    @pytest.mark.parametrize("blob", [
        {"m": 1, "terms": 5},
        {"m": 1, "terms": [{
            "scalar": {"level": 1, "coeffs": ["1"]}, "phase": {"coeffs": ["0"]},
            "poly": [], "guards": [{"coeffs": [1], "const": 0, "sense": "gt"}]}]},
        {"m": 1, "terms": [{
            "scalar": {"level": 1, "coeffs": ["1"]}, "phase": {"coeffs": ["3/2"]},
            "poly": [], "guards": []}]},
    ], ids=["terms-not-a-list", "guard-sense-gt", "phase-not-reduced"])
    def test_malformed_expr_json_exits_4(self, mat, capsys, tmp_path, blob):
        ep = tmp_path / "expr.json"
        ep.write_text(json.dumps(blob))
        assert main(["eval", str(ep), "1"]) == 4
        assert "bad expression JSON" in capsys.readouterr().err
        assert main(["verify", mat(ONE_ONE), "0..2", "--expr", str(ep)]) == 4
        assert "bad expression JSON" in capsys.readouterr().err

    @pytest.fixture
    def wrong_m(self, mat, capsys, tmp_path):
        # The expression of (1 1) relabelled as two-parameter: every term
        # still has one-entry phases, guards and monomials.
        assert main(["compute", mat(ONE_ONE), "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        obj["m"] = 2
        ep = tmp_path / "bad.json"
        ep.write_text(json.dumps(obj))
        return str(ep)

    def test_eval_term_arity_mismatch_exits_4(self, capsys, wrong_m):
        assert main(["eval", wrong_m, "1,2"]) == 4
        assert "bad expression JSON" in capsys.readouterr().err

    def test_verify_term_arity_mismatch_exits_4(self, mat, capsys, wrong_m):
        assert main(["verify", mat(A2), "0..1,0..1", "--expr", wrong_m]) == 4
        assert "bad expression JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("unimodular", [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0], [1, 2]],
    ], ids=["3x3", "ragged"])
    def test_unimodular_not_m_by_m_exits_4(self, mat, capsys, tmp_path,
                                           unimodular):
        assert main(["compute", mat(NEGATIVE), "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        obj["unimodular"] = unimodular
        ep = tmp_path / "bad.json"
        ep.write_text(json.dumps(obj))
        assert main(["eval", str(ep), "1,2"]) == 4
        assert "bad expression JSON" in capsys.readouterr().err


class TestVerify:
    def test_a2_box(self, mat, capsys):
        assert main(["verify", mat(A2), "-3..8,-3..8"]) == 0
        out = capsys.readouterr().out
        assert "checked 144 points" in out
        assert "0 mismatches" in out

    def test_corrupted_expr_mismatch(self, mat, capsys, tmp_path):
        assert main(["compute", mat(A2), "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        obj["terms"][0]["poly"][0]["table"] = ["7"] * obj["terms"][0]["modulus"]
        ep = tmp_path / "bad.json"
        ep.write_text(json.dumps(obj))
        rc = main(["verify", mat(A2), "0..4,0..4", "--expr", str(ep)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "mismatch at b=" in out

    def test_box_dimension_mismatch_exits_4(self, mat, capsys):
        assert main(["verify", mat(A2), "0..3"]) == 4

    def test_expr_dimension_mismatch_exits_4(self, mat, capsys, tmp_path):
        assert main(["compute", mat(ONE_ONE), "--format", "json"]) == 0
        ep = tmp_path / "one.json"
        ep.write_text(capsys.readouterr().out)
        assert main(["verify", mat(A2), "0..2,0..2", "--expr", str(ep)]) == 4
        assert "MatrixParseError" in capsys.readouterr().err


class TestOracle:
    def test_count(self, mat, capsys):
        assert main(["oracle", mat(A2), "2,5"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_dimension_check(self, mat, capsys):
        assert main(["oracle", mat(A2), "2"]) == 4


class TestDedekind:
    def test_half_coefficient(self, capsys):
        assert main(["dedekind", "2", "0", "0", "--factor", "1/2"]) == 0
        assert capsys.readouterr().out.strip() == "4/3"

    def test_phase_factor_json(self, capsys):
        assert main(["dedekind", "1", "0", "0",
                     "--factor-phase", "1/3", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert set(obj) == {"level", "coeffs"}

    def test_vanishing_factor_exits_1(self, capsys):
        assert main(["dedekind", "1", "0", "0", "--factor", "1"]) == 1

    def test_zero_n_exits_4(self, capsys):
        assert main(["dedekind", "0", "0", "0"]) == 4
        assert "MatrixParseError" in capsys.readouterr().err

    def test_negative_n_exits_4(self, capsys):
        assert main(["dedekind", "-2", "0", "0"]) == 4
        assert "MatrixParseError" in capsys.readouterr().err


class TestExitCodes:
    def test_not_pointed_is_2(self, mat, capsys):
        assert main(["compute", mat(NOT_POINTED)]) == 2
        assert "NotPointed" in capsys.readouterr().err

    def test_multiple_pole_is_3(self, mat, capsys):
        assert main(["compute", mat(COLLIDE)]) == 3
        assert main(["compute", mat(COLLIDE3)]) == 3
        err = capsys.readouterr().err
        assert "UnsupportedMultiplePole" in err

    def test_multiple_pole_message(self, mat, capsys):
        # Columns (1, 1) and (1, 1) collide with two variables active.
        assert main(["compute", mat(COLLIDE), "--order", "2,1"]) == 3
        err = capsys.readouterr().err
        assert "with 2 active variables" in err
        assert "(phase 0, exponents (1, 1))" in err
        assert "input columns 1 and 2" in err
        assert "order 2,1" in err and "--order" in err

    def test_parse_error_is_4(self, mat, capsys):
        assert main(["compute", mat("1 2\n1\n")]) == 4
        assert main(["compute", mat("nonsense\n")]) == 4
        assert main(["eval", str(mat("x", "missing.mat")) + ".nope", "1"]) == 4
        err = capsys.readouterr().err
        assert "MatrixParseError" in err

    @pytest.mark.parametrize("text, message", [
        ("# a comment\n\n  # and another\n", "empty matrix file"),
        ("2 2\n1 1\n", "expected 2 matrix rows, found 1"),
    ], ids=["comments-only", "header-row-count"])
    def test_matrix_file_shape_is_4(self, mat, capsys, text, message):
        assert main(["compute", mat(text)]) == 4
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["compute"], ["eval"]])
    def test_non_utf8_file_is_4(self, tmp_path, capsys, command):
        # A UTF-16 byte-order mark, then the (1 1) matrix file.
        p = tmp_path / "utf16.mat"
        p.write_bytes(b"\xff\xfe" + ONE_ONE.encode())
        args = command + [str(p)] + (["1"] if command == ["eval"] else [])
        assert main(args) == 4
        assert "MatrixParseError" in capsys.readouterr().err

    def test_level_overflow_is_6(self, mat, capsys):
        assert main(["--max-level", "2", "compute", mat(THREE_ONE)]) == 6
        assert "LevelOverflow" in capsys.readouterr().err

    def test_level_overflow_says_how_to_raise_cap(self, mat, capsys):
        assert main(["--max-level", "2", "compute", mat(THREE_ONE)]) == 6
        err = capsys.readouterr().err
        assert "exceeds cap 2" in err
        assert "--max-level" in err and "VPF_MAX_LEVEL" in err

    def test_level_cap_ends_with_command(self, mat, capsys):
        assert main(["--max-level", "2", "compute", mat(THREE_ONE)]) == 6
        capsys.readouterr()
        spec = ProblemSpec.from_rows([(1, 1), (3, 1)])
        assert evaluate(compute(spec), (4, 6)) == count_points(spec, (4, 6))

    def test_level_cap_env(self, mat, capsys, monkeypatch):
        monkeypatch.setenv("VPF_MAX_LEVEL", "2")
        assert main(["compute", mat(THREE_ONE)]) == 6
        capsys.readouterr()

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_nonpositive_level_cap_exits_4(self, mat, capsys, cap):
        assert main(["--max-level", cap, "compute", mat(ONE_ONE)]) == 4
        assert "MatrixParseError" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["abc", "0", "2.5"])
    def test_bad_level_cap_env_exits_4(self, mat, capsys, monkeypatch, cap):
        monkeypatch.setenv("VPF_MAX_LEVEL", cap)
        assert main(["compute", mat(ONE_ONE)]) == 4
        assert "MatrixParseError" in capsys.readouterr().err

    def test_usage_error_is_4(self, capsys):
        assert main(["frobnicate"]) == 4


#: Spellings int() or Fraction() would take (or, for "1/0", fail on with a
#: ZeroDivisionError) but the documented grammar does not: -?[0-9]+ for
#: integers, -?[0-9]+(/[0-9]+)? with a positive denominator for rationals.
REJECTED = ["1_0", "+2", "\u0662", "\uff12", " 2", "0.5", "1e-1", "1/0"]

#: Every entry point that reads a number from outside: the argv with the
#: spelling s in its place, and the message text that names the entry.
NUMBER_ENTRIES = {
    "header": (lambda mat, s: ["compute", mat(f"2 {s}\n1 0 1\n0 1 1\n")],
               "header '{s}'"),
    "matrix-entry": (lambda mat, s: ["compute", mat(f"2 3\n1 {s} 1\n0 1 1\n")],
                     "m.mat:2: column 2: '{s}'"),
    "eval-b": (lambda mat, s: ["eval", mat(A2), f"{s},5"],
               "parameter vector b '{s},5': entry '{s}'"),
    "oracle-b": (lambda mat, s: ["oracle", mat(A2), f"2,{s}"],
                 "parameter vector b '2,{s}': entry '{s}'"),
    "box-lo": (lambda mat, s: ["verify", mat(A2), f"{s}..3,0..3"],
               "box range '{s}..3': corner '{s}'"),
    "box-hi": (lambda mat, s: ["verify", mat(A2), f"0..3,0..{s}"],
               "box range '0..{s}': corner '{s}'"),
    "order": (lambda mat, s: ["compute", mat(A2), "--order", f"{s},1"],
              "row order '{s},1': entry '{s}'"),
    "max-level": (lambda mat, s: ["--max-level", s, "compute", mat(ONE_ONE)],
                  "--max-level '{s}'"),
    "env-max-level": (lambda mat, s: ["compute", mat(ONE_ONE)],
                      "VPF_MAX_LEVEL '{s}'"),
    "dedekind-n": (lambda mat, s: ["dedekind", s, "0", "0"], "n '{s}'"),
    "dedekind-a-phase": (lambda mat, s: ["dedekind", "2", s, "0"],
                         "a_phase '{s}'"),
    "dedekind-beta": (lambda mat, s: ["dedekind", "2", "0", s], "beta '{s}'"),
    "factor": (lambda mat, s: ["dedekind", "2", "0", "0", "--factor", s],
               "--factor '{s}'"),
    "factor-phase": (lambda mat, s: ["dedekind", "2", "0", "0",
                                     "--factor-phase", s],
                     "--factor-phase '{s}'"),
}


class TestNumberGrammar:
    # A matrix file splits on whitespace, so " 2" is two fields there.
    @pytest.mark.parametrize("entry, spelling", [
        (entry, s) for entry in NUMBER_ENTRIES for s in REJECTED
        if not (s == " 2" and entry in ("header", "matrix-entry"))])
    def test_rejected_spelling_exits_4(self, mat, capsys, monkeypatch,
                                       entry, spelling):
        argv, named = NUMBER_ENTRIES[entry]
        if entry == "env-max-level":
            monkeypatch.setenv("VPF_MAX_LEVEL", spelling)
        assert main(argv(mat, spelling)) == 4
        err = capsys.readouterr().err
        assert "MatrixParseError" in err
        assert named.format(s=spelling) in err

    @pytest.mark.parametrize("argv, out", [
        (["eval", A2, "-1,4"], re.escape("0")),
        (["verify", A2, "-3..8,-3..8"],
         r"checked 144 points in [0-9.]+s; 0 mismatches"),
        (["dedekind", "2", "0", "0", "--factor", "1/2"], re.escape("4/3")),
        (["dedekind", "1", "0", "3", "--factor-phase", "1/3"],
         re.escape("2/3 + 1/3*z3")),
        (["--max-level", "2", "compute", ONE_ONE],
         re.escape("phi(b) =\n    [b+1 if b >= 0]")),
        (["compute", A2, "--order", "2,1"], re.escape(
            "phi(a, b) =\n    [a-b if -a+b-1 >= 0 and a >= 0]\n"
            "  + [b+1 if b >= 0 and a >= 0]")),
    ], ids=["b", "box", "factor", "factor-phase", "max-level", "order"])
    def test_documented_spelling_output(self, mat, capsys, argv, out):
        argv = [mat(a) if a in (A2, ONE_ONE) else a for a in argv]
        assert main(argv) == 0
        assert re.fullmatch(out, capsys.readouterr().out.strip())


class TestRoundTrip:
    def test_json_roundtrip_verifies(self, mat, capsys, tmp_path):
        path = mat(BECK)
        assert main(["compute", path, "--format", "json"]) == 0
        blob = capsys.readouterr().out
        ep = tmp_path / "expr.json"
        ep.write_text(blob)
        assert main(["verify", path, "-2..6,-2..6", "--expr", str(ep)]) == 0
        assert "0 mismatches" in capsys.readouterr().out
