import json

import pytest

from helpers import misoriented_nf4
from leibniz_deform.algebra import algebra_to_json, lambda6
from leibniz_deform.cli import parse_poly, run
from leibniz_deform.deform import LocalBase
from leibniz_deform.errors import FormatError
from leibniz_deform.reports import dumps_canonical


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_builtin(capsys):
    code, out, _ = invoke(capsys, "check", "lambda6")
    assert code == 0
    assert "Leibniz identity: OK (0 violations)" in out


def test_check_reports_violations(capsys, tmp_path):
    path = tmp_path / "bad_alg.json"
    path.write_text(
        '{"dim": 2, "brackets": [{"left": 1, "right": 1,'
        ' "value": [{"basis": 1, "coeff": "1"}]}]}',
        encoding="utf-8",
    )
    code, out, _ = invoke(capsys, "check", str(path))
    assert code == 0
    assert "Leibniz identity: FAILED" in out


def test_cohomology_degree_two(capsys):
    code, out, _ = invoke(capsys, "cohomology", "--degree", "2", "lambda6")
    assert code == 0
    assert "dim ZL^2 = 8, dim BL^2 = 6, dim HL^2 = 2" in out
    assert "a_{2,1}^1 = 0" in out


def test_versal_reference_bracket_table(capsys):
    code, out, _ = invoke(capsys, "versal", "lambda6", "--max-order", "3", "--reps", "paper")
    assert code == 0
    assert "[e_1,e_3] = e_2 + s*e_1" in out
    assert "[e_2,e_3] = -t*e_1" in out
    assert "[e_3,e_3] = e_1" in out
    assert "relations: none" in out


def test_infinitesimal_matches_versal_table(capsys):
    code, out, _ = invoke(capsys, "infinitesimal", "lambda6", "--reps", "paper")
    assert code == 0
    assert "[e_1,e_3] = e_2 + s*e_1" in out
    assert "truncated at order 1" in out


def test_massey_all_trivial(capsys):
    code, out, _ = invoke(capsys, "massey", "lambda6", "--reps", "paper")
    assert code == 0
    assert "<[1],[2]> = 0" in out
    assert "<[1],[1],[2]> = 0" in out


def test_pushforward_specialization(capsys):
    code, out, _ = invoke(
        capsys, "pushforward", "lambda6", "--max-order", "3", "--reps", "paper",
        "--sub", "t=t", "--sub", "s=0", "--to", "t",
    )
    assert code == 0
    assert "[e_1,e_3] = e_2" in out
    assert "[e_2,e_3] = -t*e_1" in out
    assert "s" not in out.split("brackets:")[1]


def test_json_output_round_trips(capsys):
    for argv in (
        ("check", "lambda6"),
        ("cohomology", "--degree", "2", "lambda6"),
        ("massey", "lambda6", "--reps", "paper"),
        ("versal", "lambda6", "--reps", "paper"),
    ):
        code, out, _ = invoke(capsys, *argv, "--output", "json")
        assert code == 0
        body = out.rstrip("\n")
        assert dumps_canonical(json.loads(body)) == body


def test_algebra_file_equivalent_to_builtin(capsys, tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(algebra_to_json(lambda6()), encoding="utf-8")
    _, out_file, _ = invoke(capsys, "cohomology", "--degree", "2", str(path))
    _, out_builtin, _ = invoke(capsys, "cohomology", "--degree", "2", "lambda6")
    assert out_file == out_builtin


def test_parse_error_exits_one(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 3, "brackets": [oops]}', encoding="utf-8")
    code, _, err = invoke(capsys, "check", str(path))
    assert code == 1
    assert "line 1" in err


def test_missing_file_exits_one(capsys):
    code, _, err = invoke(capsys, "check", "no_such_file.json")
    assert code == 1
    assert "error" in err


def test_precondition_fault_exits_two(capsys, tmp_path):
    reps = {
        "dim": 3,
        "arity": 2,
        "cochains": [
            {"entries": [{"args": [1, 1], "value": [{"basis": 1, "coeff": "1"}]}]},
            {"entries": [{"args": [1, 3], "value": [{"basis": 1, "coeff": "1"}]}]},
        ],
    }
    path = tmp_path / "reps.json"
    path.write_text(json.dumps(reps), encoding="utf-8")
    code, _, err = invoke(capsys, "versal", "lambda6", "--reps", str(path))
    assert code == 2
    assert "fault" in err


def test_cohomology_of_non_leibniz_input_exits_two(capsys, tmp_path):
    path = tmp_path / "misoriented_nf4.json"
    path.write_text(algebra_to_json(misoriented_nf4()), encoding="utf-8")
    for degree in ("2", "3"):
        code, out, err = invoke(capsys, "cohomology", "--degree", degree, str(path))
        assert code == 2
        assert out == ""
        assert "fault: not a Leibniz algebra" in err
        assert "(e_1,e_1,e_1)" in err


def test_reps_file_reproduces_reference_table(capsys, tmp_path):
    reps = {
        "dim": 3,
        "arity": 2,
        "cochains": [
            {"entries": [{"args": [2, 3], "value": [{"basis": 1, "coeff": "-1"}]}]},
            {"entries": [{"args": [1, 3], "value": [{"basis": 1, "coeff": "1"}]}]},
        ],
    }
    path = tmp_path / "reps.json"
    path.write_text(json.dumps(reps), encoding="utf-8")
    code, out, _ = invoke(capsys, "versal", "lambda6", "--reps", str(path))
    assert code == 0
    assert "[e_1,e_3] = e_2 + s*e_1" in out


def test_reps_paper_rejected_for_other_algebras(capsys, tmp_path):
    path = tmp_path / "ab.json"
    path.write_text('{"dim": 2, "brackets": []}', encoding="utf-8")
    code, _, err = invoke(capsys, "massey", str(path), "--reps", "paper")
    assert code == 1


def test_parse_poly_expressions():
    from fractions import Fraction

    base = LocalBase(("t", "s"), 3)
    assert parse_poly("0", base).is_zero()
    assert parse_poly("t", base) == base.generator("t")
    assert parse_poly("2*t^2*s", base) == base.monomial((2, 1), 2)
    assert parse_poly("t - 1/2*s", base) == base.monomial((1, 0)) + base.monomial(
        (0, 1), Fraction(-1, 2)
    )
    combo = parse_poly("t - 1/2*s + t", base)
    assert combo.coeff((1, 0)) == 2
    assert combo.coeff((0, 1)) == Fraction(-1, 2)
    with pytest.raises(FormatError):
        parse_poly("t + q", base)
    with pytest.raises(FormatError):
        parse_poly("t*", base)
