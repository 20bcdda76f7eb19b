import ast
import json
import os
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import h3, misoriented_nf4, nf4, q4
from leibniz_deform import cochain, deform, graded, reps
from leibniz_deform.algebra import abelian, algebra_to_json, lambda6
from leibniz_deform.cli import run
from leibniz_deform.poly import LocalBase, TruncatedPolynomial
from leibniz_deform.pushforward import parse_poly
from leibniz_deform.errors import FormatError
from leibniz_deform.reports import cochain_to_json, dumps_canonical


GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden"
# outputs the benchmark goldens do not cover; a name ending in .json is the
# command's --output json form
TEST_GOLDEN = Path(__file__).resolve().parent / "golden"
# in a command line of a test, the algebras of FILE_ALGEBRAS are written to
# files, and REPS_FILE stands for a --reps file of the paper's representatives
# in reverse order
FILE_ALGEBRAS = {"abelian1": abelian(1), "abelian2": abelian(2), "h3": h3(), "nf4": nf4(), "q4": q4()}
REPS_FILE = "REPS_FILE"
GOLDEN_COMMANDS = {
    "versal-abelian2-max-order-3.txt": ("versal", "abelian2", "--max-order", "3"),
    "versal-abelian2-max-order-3.json": ("versal", "abelian2", "--max-order", "3"),
    "pushforward-lambda6-max-order-3.json": (
        "pushforward", "lambda6", "--max-order", "3", "--reps", "paper",
        "--sub", "t = x + 1/2*x^2", "--sub", "s=-x", "--to", "x",
    ),
    "infinitesimal-lambda6.txt": ("infinitesimal", "lambda6"),
    "infinitesimal-lambda6.json": ("infinitesimal", "lambda6"),
    "cohomology-lambda6-degree-3.txt": ("cohomology", "lambda6", "--degree", "3"),
    # a second-order bracket is nonzero, so no third-order bracket is defined
    "massey-h3.txt": ("massey", "h3"),
    # every second-order bracket vanishes and 12 third-order brackets do not
    "massey-q4.txt": ("massey", "q4"),
    "massey-lambda6-reps-paper.json": ("massey", "lambda6", "--reps", "paper"),
    "massey-lambda6-reps-file.txt": ("massey", "lambda6", "--reps", REPS_FILE),
    "versal-lambda6-max-order-4-reps-file.json": ("versal", "lambda6", "--max-order", "4", "--reps", REPS_FILE),
}


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


def file_argv(argv, tmp_path) -> list[str]:
    """``argv`` with the names of ``FILE_ALGEBRAS`` and ``REPS_FILE`` replaced
    by files written to ``tmp_path``."""
    for alg_name, alg in FILE_ALGEBRAS.items():
        (tmp_path / f"{alg_name}.json").write_text(algebra_to_json(alg), encoding="utf-8")
    reversed_paper = [cochain_to_json(mu) for mu in reversed(reps.lambda6_reference_representatives())]
    (tmp_path / "reps.json").write_text(json.dumps({"cochains": reversed_paper}), encoding="utf-8")
    files = {**{a: str(tmp_path / f"{a}.json") for a in FILE_ALGEBRAS}, REPS_FILE: str(tmp_path / "reps.json")}
    return [files.get(a, a) for a in argv]


def golden_argv(name, tmp_path):
    argv = file_argv(GOLDEN_COMMANDS[name], tmp_path)
    return argv + ["--output", "json"] if name.endswith(".json") else argv


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_output_matches_golden(capsys, tmp_path, name):
    code, out, _ = invoke(capsys, *golden_argv(name, tmp_path))
    assert code == 0
    assert out == (TEST_GOLDEN / name).read_text(encoding="utf-8")


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


def test_algebra_file_that_is_not_utf8_exits_one(capsys, tmp_path):
    # the read used to end in a UnicodeDecodeError traceback
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dim": 1,\r\n "brackets": [\xff]}')
    code, out, err = invoke(capsys, "check", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: cannot read algebra file {str(path)!r}: byte 0xff at offset 26 is not UTF-8\n"


def test_reps_file_that_is_not_utf8_exits_one(capsys, tmp_path):
    path = tmp_path / "reps.json"
    path.write_bytes(b"\xff{}")
    code, out, err = invoke(capsys, "massey", "lambda6", "--reps", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: cannot read representatives file {str(path)!r}: byte 0xff at offset 0 is not UTF-8\n"


@pytest.mark.parametrize("degree", [13, 14, 10 ** 9])
def test_a_degree_too_large_to_allocate_exits_two_at_once(capsys, degree):
    # degree 8 took 19 s and 89 MB on lambda6, each degree more about 3 times the memory
    code, out, err = invoke(capsys, "cohomology", "lambda6", "--degree", str(degree))
    assert (code, out) == (2, "")
    assert err == (f"fault: a cochain of arity {degree + 1} and dimension 3 has 3^{degree + 2}"
                   f" coordinates, more than 10000000\n")


# degree 8 (59,049 rows) still computes; degree 9 used to start building its 177,147 rows
@pytest.mark.parametrize("degree, rows", [(9, 177147), (12, 4782969)])
def test_a_coboundary_with_too_many_rows_exits_two_before_building_one(capsys, monkeypatch, degree, rows):
    monkeypatch.setattr(cochain, "nonzero_constants", lambda alg: pytest.fail("began building rows"))
    code, out, err = invoke(capsys, "cohomology", "lambda6", "--degree", str(degree))
    assert (code, out) == (2, "")
    assert err == (f"fault: the coboundary of degree {degree} on dimension 3 has 3^{degree + 2} = {rows} rows,"
                   f" more than 100000\n")


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds the address space on Linux")
def test_a_dimension_too_large_to_allocate_exits_one_before_allocating(tmp_path):
    """Run in a child whose address space is capped at 1 GB, so that
    allocating the 10^15-entry table fails there instead of here."""
    import resource

    path = tmp_path / "huge.json"
    path.write_text('{"dim": 100000, "brackets": []}', encoding="utf-8")
    cap = 2 ** 30
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "leibniz_deform", "check", str(path)],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: 'dim' is 100000: more than 10000000 structure constants\n"


@pytest.mark.parametrize("reader", ["algebra", "reps"])
def test_a_number_too_long_to_read_exits_one(capsys, tmp_path, reader):
    long = "1" * 4301
    if reader == "algebra":
        doc, argv = '{"dim": %s, "brackets": []}' % long, ("check",)
    else:
        doc = '{"cochains": [{"entries": [{"args": [1, 3], "value": [{"basis": 1, "coeff": %s}]}]}]}' % long
        argv = ("massey", "lambda6", "--reps")
    path = tmp_path / "doc.json"
    path.write_text(doc, encoding="utf-8")
    code, out, err = invoke(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid JSON: Exceeds the limit (4300 digits) for integer string conversion")


@pytest.mark.parametrize("reader", ["algebra", "reps"])
def test_json_nested_too_deep_to_read_exits_one(capsys, tmp_path, reader):
    nested = "[" * 100_000 + "]" * 100_000
    if reader == "algebra":
        doc, argv = '{"dim": 1, "brackets": %s}' % nested, ("check",)
    else:
        doc, argv = '{"cochains": %s}' % nested, ("massey", "lambda6", "--reps")
    path = tmp_path / "doc.json"
    path.write_text(doc, encoding="utf-8")
    code, out, err = invoke(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid JSON: maximum recursion depth exceeded")


@pytest.mark.parametrize("argv", [("cohomology", "lambda6", "--degree", "3"),
                                  ("cohomology", "abelian3", "--degree", "3", "--output", "json"),
                                  ("--help",), ("versal", "lambda6", "-h")],
                         ids=["2KB", "23KB", "help", "versal-help"])
def test_a_closed_standard_output_exits_141_and_writes_no_error(tmp_path, argv):
    """The read end of the child's stdout pipe is closed before the child
    starts, so its first write fails: buffered, the 2 KB report and the help
    texts fail at the flush and the 23 KB report inside ``print``;
    unbuffered, all of them in ``print``."""
    path = tmp_path / "abelian3.json"
    path.write_text(algebra_to_json(abelian(3)), encoding="utf-8")
    argv = [str(path) if a == "abelian3" else a for a in argv]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for buffering in ({}, {"PYTHONUNBUFFERED": "1"}):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-S", "-m", "leibniz_deform", *argv], stdout=write,
                                  stderr=subprocess.PIPE, env={**env, **buffering, "PYTHONPATH": str(SRC.parent)})
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, b"")


def test_a_buffered_report_or_error_is_written_in_full_before_the_process_ends(tmp_path):
    """``main`` ends the process without the interpreter's final flush, so
    what ``run`` writes must already be out: the 23 KB report, more than the
    stdout buffer holds, and the error line on stderr."""
    path = tmp_path / "abelian3.json"
    path.write_text(algebra_to_json(abelian(3)), encoding="utf-8")
    env = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}, "PYTHONPATH": str(SRC.parent)}
    child = [sys.executable, "-S", "-m", "leibniz_deform"]
    proc = subprocess.run([*child, "cohomology", str(path), "--degree", "3", "--output", "json"],
                          capture_output=True, env=env, cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / "cohomology-abelian3-degree-3.json").read_bytes()
    proc = subprocess.run([*child, "check", "missing.json"], capture_output=True, env=env, cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == (b"error: cannot read algebra file 'missing.json': [Errno 2]"
                           b" No such file or directory: 'missing.json'\n")


def test_main_ends_the_process_with_the_exit_status_of_run_and_no_teardown():
    """Nothing registered to run at interpreter exit runs after ``main``."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import atexit, os, sys; from leibniz_deform.cli import main\n"
         "atexit.register(os.write, 1, b'atexit ran')\n"
         "sys.argv = ['leibniz-deform', 'cohomology', 'lambda6', '--degree', '13']\n"
         "main()"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"fault: a cochain of arity 14 and dimension 3 has 3^15 coordinates, more than 10000000\n"


def test_reps_file_reads_decimal_coefficients_exactly(tmp_path):
    # they used to pass through a float: 1.00000000000000001 read as 1 and 1e-400 as 0
    coeffs = {"1.5": F(3, 2), "1.00000000000000001": 1 + F(1, 10 ** 17), "1e-400": F(1, 10 ** 400)}
    entries = ", ".join('{"args": [1, %d], "value": [{"basis": 1, "coeff": %s}]}' % (k + 1, c)
                        for k, c in enumerate(coeffs))
    path = tmp_path / "reps.json"
    path.write_text('{"cochains": [{"entries": [%s]}]}' % entries, encoding="utf-8")
    (rep,) = reps._load_reps(str(path), lambda6())
    assert [rep.eval_basis((0, k))[0] for k in range(3)] == list(coeffs.values())


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


@pytest.mark.parametrize("command", ["massey", "versal", "infinitesimal"])
@pytest.mark.parametrize(
    "cochains, message",
    [
        (5, "'cochains' list"),
        ([5], "entry 0 of 'cochains' is not an object"),
        ([{"entries": []}, "x"], "entry 1 of 'cochains' is not an object"),
        (
            [{"entries": [{"args": [1, 3], "value": []}, {"args": [1, 3], "value": []}]}],
            "entry 0 of 'cochains': entry 1 of 'entries' repeats args [1, 3]",
        ),
        ([{"dim": True, "entries": []}], "entry 0 of 'cochains': bad cochain document: 'dim' is true, not an integer"),
        ([{"arity": 2.0, "entries": []}], "entry 0 of 'cochains': bad cochain document: 'arity' is 2.0, not an integer"),
        ([{"entries": {"x": 1}}], "entry 0 of 'cochains': 'entries' must be a list"),
        ([{"entries": ["x"]}], "entry 0 of 'cochains': entry 0 of 'entries' is not an object"),
    ],
)
def test_malformed_reps_file_exits_one(capsys, tmp_path, command, cochains, message):
    path = tmp_path / "reps.json"
    path.write_text(json.dumps({"cochains": cochains}), encoding="utf-8")
    code, out, err = invoke(capsys, command, "lambda6", "--reps", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command", ["massey", "versal", "infinitesimal"])
@pytest.mark.parametrize(
    "cochains, message",
    [
        (
            [{"arity": 2, "dim": 3, "entries": []}, {"arity": 3, "dim": 3, "entries": []}],
            "entry 1 of 'cochains' has arity 3 and dimension 3; expected arity 2 and dimension 3",
        ),
        (
            [{"arity": 2, "dim": 2, "entries": []}],
            "entry 0 of 'cochains' has arity 2 and dimension 2; expected arity 2 and dimension 3",
        ),
        # shapes far too large to allocate, rejected before any coordinate is allocated
        (
            [{"dim": 300000, "entries": []}],
            "entry 0 of 'cochains' has arity 2 and dimension 300000; expected arity 2 and dimension 3",
        ),
        (
            [{"arity": 40, "entries": []}],
            "entry 0 of 'cochains' has arity 40 and dimension 3; expected arity 2 and dimension 3",
        ),
    ],
)
def test_reps_of_wrong_arity_or_dimension_exit_one(capsys, tmp_path, command, cochains, message):
    path = tmp_path / "reps.json"
    path.write_text(json.dumps({"cochains": cochains}), encoding="utf-8")
    code, out, err = invoke(capsys, command, "lambda6", "--reps", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["massey", "versal", "infinitesimal"])
@pytest.mark.parametrize(
    "entry, message",
    [
        (
            {"args": [2, 3], "value": [{"basis": 7, "coeff": "1"}]},
            "entry 1 of 'cochains': entry 0 of 'entries' has basis 7; expected an index in 1..3",
        ),
        (
            {"args": [4, 1], "value": [{"basis": 1, "coeff": "1"}]},
            "entry 1 of 'cochains': entry 0 of 'entries' has args [4, 1]; expected 2 indices in 1..3",
        ),
        (
            {"args": [2, 3], "value": [{"basis": 0, "coeff": "-1"}]},
            "entry 1 of 'cochains': entry 0 of 'entries' has basis 0; expected an index in 1..3",
        ),
        (
            {"args": [2, 3], "value": [{"basis": 1.5, "coeff": "-1"}]},
            "entry 1 of 'cochains': entry 0 of 'entries' has basis 1.5; expected an index in 1..3",
        ),
        (
            {"args": [True, 3], "value": [{"basis": 1, "coeff": "-1"}]},
            "entry 1 of 'cochains': entry 0 of 'entries' has args [true, 3]; expected 2 indices in 1..3",
        ),
        (
            {"args": [2, 3], "value": [{"basis": 1, "coeff": "-1"}, {"basis": 1, "coeff": "2"}]},
            "entry 1 of 'cochains': entry 0 of 'entries' repeats basis 1",
        ),
        (
            {"args": [2, 3], "value": [{"basis": 2, "coeff": "1/0"}]},
            "entry 1 of 'cochains': entry 0 of 'entries' has no rational 'coeff' at basis 2",
        ),
        (
            {"args": [2, 3], "value": {"basis": 2, "coeff": "1"}},
            "entry 1 of 'cochains': entry 0 of 'entries' has value {\"basis\": 2, \"coeff\": \"1\"}; expected a list",
        ),
    ],
)
def test_reps_with_out_of_range_indices_exit_one(capsys, tmp_path, command, entry, message):
    cochains = [{"entries": []}, {"entries": [entry]}]
    path = tmp_path / "reps.json"
    path.write_text(json.dumps({"cochains": cochains}), encoding="utf-8")
    code, out, err = invoke(capsys, command, "lambda6", "--reps", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("lambda6", "--sub", "t=x", "--sub", "s=0", "--sub", "q=1", "--to", "x"),
         "image supplied for 'q', which is not a source generator"),
        # the versal base of abelian(1) has the relation t^2, which t -> x breaks
        (("abelian1", "--to", "x", "--sub", "t=x", "--max-order", "2"), "relation t^2 maps to x^2, not 0"),
    ],
    ids=["unknown-generator", "relation-not-sent-to-zero"],
)
def test_pushforward_that_is_no_base_homomorphism_exits_two(capsys, tmp_path, argv, message):
    path = tmp_path / "abelian1.json"
    path.write_text(algebra_to_json(abelian(1)), encoding="utf-8")
    code, out, err = invoke(capsys, "pushforward", *(str(path) if a == "abelian1" else a for a in argv))
    assert code == 2
    assert out == ""
    assert err == f"fault: {message}\n"


def test_pushforward_zero_denominator_exits_one(capsys):
    code, out, err = invoke(
        capsys, "pushforward", "lambda6", "--sub", "t=1/0*x", "--sub", "s=0", "--to", "x",
    )
    assert code == 1
    assert out == ""
    assert err == "error: zero denominator in polynomial term '1/0*x' in '1/0*x'\n"


def test_pushforward_repeated_generator_exits_one(capsys):
    code, out, err = invoke(
        capsys, "pushforward", "lambda6", "--sub", "t=x", "--sub", "t=2*x", "--sub", "s=0",
        "--to", "x",
    )
    assert code == 1
    assert out == ""
    assert err == "error: --sub gives generator 't' a second image\n"


@pytest.mark.parametrize(
    "sub, message",
    [("t=q", "unknown generator 'q' in 'q'"), ("t", "--sub expects NAME=POLY, got 't'"),
     ("t=1/0*u", "zero denominator in polynomial term '1/0*u' in '1/0*u'")],
)
def test_pushforward_parses_every_sub_before_the_versal_computation(capsys, monkeypatch, sub, message):
    # versal_construct starts from the universal first-order deformation
    monkeypatch.setattr(deform, "universal_infinitesimal", lambda *a: pytest.fail("the versal computation ran"))
    code, out, err = invoke(capsys, "pushforward", "lambda6", "--sub", "s=0", "--sub", sub, "--to", "u")
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("pushforward", "lambda6", "--sub", "t=x", "--sub", "s=0", "--to", "x,x"),
         "--to 'x,x': duplicate generator names"),
        *((("pushforward", "lambda6", "--sub", "t=u", "--sub", "s=0", "--to", to),
           f"--to {to!r}: {name!r} is not a generator name (letters, digits and _, not starting with a digit)")
          for to, name in (("u*v", "u*v"), ("1s", "1s"), ("s, u", " u"))),
        (("pushforward", "lambda6", "--sub", "t=x", "--sub", "s=0", "--to", "x", "--max-order", "0"),
         "--max-order must be at least 1, got 0"),
        (("pushforward", "lambda6", "--sub", "t=x", "--sub", "s=0", "--to", "x", "--max-order", "-1"),
         "--max-order must be at least 1, got -1"),
        (("versal", "lambda6", "--max-order", "0"), "--max-order must be at least 1, got 0"),
        (("versal", "lambda6", "--max-order", "-1"), "--max-order must be at least 1, got -1"),
        (("versal", "lambda6", "--max-order=-1"), "--max-order must be at least 1, got -1"),
        (("cohomology", "lambda6", "--degree", "0"), "--degree must be at least 1, got 0"),
        (("versal", "lambda6", "--max-order", "x"), "--max-order expects an integer, got 'x'"),
        (("check", "lambda6", "--output", "yaml"), "--output expects one of text, json, got 'yaml'"),
        (("check", "lambda6", "--degree", "2"), "unknown option '--degree' for check"),
        (("check", "lambda6", "--reps"), "unknown option '--reps' for check"),
        (("versal", "lambda6", "--reps"), "--reps expects a value"),
        (("versal", "lambda6", "--reps", "--max-order", "2"), "--reps expects a value"),
        (("check", "lambda6", "lambda6"), "unexpected argument 'lambda6'"),
        (("chek", "lambda6"), "unknown subcommand 'chek'; choose from check, cohomology, massey,"
                              " infinitesimal, versal, pushforward"),
        ((), "missing subcommand; choose from check, cohomology, massey, infinitesimal, versal, pushforward"),
        (("check",), "check expects ALGEBRA"),
        (("cohomology", "--degree", "2"), "cohomology expects ALGEBRA"),
        (("cohomology", "lambda6"), "cohomology requires --degree"),
        (("pushforward", "lambda6", "--to", "t"), "pushforward requires --sub"),
        (("pushforward", "lambda6", "--sub", "t=t", "--sub", "s=0"), "pushforward requires --to"),
    ],
    ids=["to-twice", "to-product", "to-digit-first", "to-space", "pushforward-order-0", "pushforward-order-minus-1", "versal-order-0",
         "versal-order-minus-1", "versal-order-equals-minus-1", "cohomology-degree-0", "order-not-int",
         "output-choice", "unknown-option", "option-of-other-command", "value-missing", "value-is-option",
         "two-algebras", "unknown-subcommand", "no-subcommand", "no-algebra", "no-algebra-after-option",
         "no-degree", "no-sub", "no-to"],
)
def test_malformed_option_value_exits_one(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "reference, spellings",
    [
        (("cohomology", "lambda6", "--degree", "2"),
         [("cohomology", "lambda6", "--degree=2"), ("cohomology", "lambda6", "--deg", "2"),
          ("cohomology", "--degree", "2", "lambda6"), ("cohomology", "--deg=2", "lambda6")]),
        (("check", "lambda6", "--output", "json"),
         [("check", "--output", "json", "lambda6"), ("check", "lambda6", "--output=json"),
          ("check", "--out=json", "lambda6")]),
        (("versal", "lambda6", "--reps", "paper", "--max-order", "2", "--output", "json"),
         [("versal", "--output", "json", "--max-order=2", "lambda6", "--reps=paper"),
          ("versal", "--max", "2", "--re", "paper", "--o", "json", "lambda6")]),
        (("pushforward", "lambda6", "--max-order", "2", "--sub", "t=t", "--sub", "s=2*t", "--to", "t"),
         [("pushforward", "--sub", "t=t", "lambda6", "--sub=s=2*t", "--to=t", "--max-order", "2"),
          ("pushforward", "--to", "t", "--sub=t=t", "--sub", "s=2*t", "--max-o=2", "lambda6")]),
    ],
    ids=["cohomology", "check", "versal", "pushforward"],
)
def test_command_line_spellings_print_the_same(capsys, reference, spellings):
    code, expected, _ = invoke(capsys, *reference)
    assert code == 0 and expected
    for argv in spellings:
        assert invoke(capsys, *argv) == (0, expected, ""), argv


HELP_NAMES = {
    "check": ("--output",),
    "cohomology": ("--output", "--degree"),
    "massey": ("--output", "--reps"),
    "infinitesimal": ("--output", "--reps"),
    "versal": ("--output", "--reps", "--max-order"),
    "pushforward": ("--output", "--reps", "--max-order", "--sub", "--to"),
}


@pytest.mark.parametrize(
    "argv, names",
    [(("-h",), tuple(HELP_NAMES)), (("--help",), tuple(HELP_NAMES))]
    + [((command, "-h"), names) for command, names in HELP_NAMES.items()]
    + [(("pushforward", "lambda6", "--sub", "t=t", "--help"), HELP_NAMES["pushforward"])],
    ids=["-h", "--help", *HELP_NAMES, "pushforward-help-last"],
)
def test_help_exits_zero_naming_every_subcommand_and_option(capsys, argv, names):
    code, out, err = invoke(capsys, *argv)
    assert code == 0
    assert err == ""
    assert out.startswith("usage: leibniz-deform ")
    assert all(name in out for name in names)


def test_massey_solves_each_pair_witness_once(capsys, monkeypatch):
    solves, circles = [], []
    real_solve, real_circle = graded.solve, graded.circle
    monkeypatch.setattr(graded, "solve", lambda *a: solves.append(a) or real_solve(*a))
    monkeypatch.setattr(graded, "circle", lambda *a: circles.append(a) or real_circle(*a))
    code, out, _ = invoke(capsys, "massey", "lambda6", "--output", "json")
    assert code == 0
    assert out == (GOLDEN / "massey-lambda6.json").read_text(encoding="utf-8")
    # h = 2: three pairs of classes, each pair's bracket and witness computed
    # once for all four triples; two circle products per superbracket, one
    # superbracket per pair and three per triple: 2 * (3 + 4 * 3) = 30
    assert len(solves) == 3
    assert len(circles) == 30


def python_s(code: str) -> str:
    """The standard output of ``code`` run by a fresh ``python -S`` on ``src/``."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_introspection_modules():
    """``import leibniz_deform.cli`` starts every command; it must not pull in
    ``dataclasses`` or the source-introspection modules that it imports."""
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "copy")
    code = f"import sys, leibniz_deform.cli; print([m for m in {heavy!r} if m in sys.modules])"
    assert python_s(code) == "[]\n"


def test_check_loads_no_argument_parsing_or_typing_modules():
    """A command parses its arguments without ``argparse`` (and the
    ``gettext`` and ``locale`` it imports) and annotates without ``typing``."""
    heavy = ("argparse", "gettext", "locale", "typing")
    code = f"import sys; from leibniz_deform.cli import run; run(['check', 'lambda6']); " \
           f"print([m for m in {heavy!r} if m in sys.modules])"
    assert python_s(code) == "Leibniz identity: OK (0 violations)\n[]\n"


# The layers that not every command runs; they load on first use.
LAZY = ("linalg", "cochain", "graded", "poly", "deform", "readers", "reps", "cli_massey", "cli_hl2", "pushforward")
# The layers that bench/tracing.py wraps.
TRACED_LAYERS = ("algebra", "linalg", "cochain", "graded", "deform", "reports")
# An expression, for a python_s script, of the submodules that have run their source.
RUN_SUBMODULES = "sorted(m[15:] for m, v in sys.modules.items() if m[:15] == 'leibniz_deform.' and type(v) is types.ModuleType)"


def loaded_after(argv, tmp_path) -> set[str]:
    """Which of ``LAZY`` have run their source after ``run(argv)``: a module
    registered but not yet loaded is not of type ``ModuleType`` (``type()``
    is the one look at it that does not load it)."""
    return set(python_s(
        "import io, sys, types, contextlib; from leibniz_deform.cli import run\n"
        f"with contextlib.redirect_stdout(io.StringIO()): assert run({file_argv(argv, tmp_path)!r}) == 0\n"
        f"print(*[m for m in {LAZY!r} if type(sys.modules['leibniz_deform.' + m]) is types.ModuleType])"
    ).split())


COHOMOLOGY_LAYERS = {"linalg", "cochain"}
DEFORMATION_LAYERS = COHOMOLOGY_LAYERS | {"graded", "poly", "deform"}


@pytest.mark.parametrize("argv", [("check", "lambda6"), ("cohomology", "lambda6", "--degree", "3")])
def test_cohomology_commands_never_load_deform_or_graded(argv, tmp_path):
    # check runs neither linalg nor cochain, cohomology both; neither runs
    # poly or a degree-2 command's front end, and the builtin lambda6 needs no reader
    assert loaded_after(argv, tmp_path) == (COHOMOLOGY_LAYERS if argv[0] == "cohomology" else set())


def test_massey_loads_graded_but_not_deform(tmp_path):
    # nor poly, cli_hl2 or pushforward
    assert loaded_after(("massey", "lambda6"), tmp_path) == COHOMOLOGY_LAYERS | {"graded", "cli_massey"}


@pytest.mark.parametrize("argv", [("versal", "lambda6", "--max-order", "2"), ("infinitesimal", "lambda6")])
def test_deformation_commands_load_deform_and_graded(argv, tmp_path):
    # neither the massey front end nor pushforward
    assert loaded_after(argv, tmp_path) == DEFORMATION_LAYERS | {"cli_hl2"}


def test_pushforward_loads_no_other_commands_front_end(tmp_path):
    argv = ("pushforward", "lambda6", "--sub", "t=x", "--sub", "s=0", "--to", "x")
    assert loaded_after(argv, tmp_path) == DEFORMATION_LAYERS | {"pushforward"}


@pytest.mark.parametrize(("argv", "readers"), [
    (("check", "h3"), "readers"),
    (("cohomology", "nf4", "--degree", "3"), "readers"),
    (("massey", "h3"), "readers"),
    (("versal", "abelian1", "--max-order", "2"), "readers"),
    (("massey", "lambda6", "--reps", "paper"), "reps"),
    (("versal", "lambda6", "--max-order", "2", "--reps", REPS_FILE), "readers reps"),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else value)
def test_an_algebra_file_loads_the_readers_and_reps_loads_the_reps_reader(argv, readers, tmp_path):
    assert " ".join(sorted(loaded_after(argv, tmp_path) & {"readers", "reps"})) == readers


# The most AST nodes of package source that a command may compile: the
# count at the last change, rounded up to the next 50.  check, cohomology,
# massey and versal on lambda6 compiled 4,620, 8,621, 11,655 and 17,109, and
# every other command of the benchmark 8,621, 11,655 or 17,109, while the
# file readers, the --reps reader, the massey front end and pushforward were
# loaded with the modules of every command.
NODE_BUDGET = {
    ("check", "lambda6"): 3850,
    ("cohomology", "lambda6", "--degree", "2"): 7650,
    ("cohomology", "nf4", "--degree", "3"): 8450,
    ("massey", "lambda6"): 9500,
    ("massey", "h3"): 10300,
    ("versal", "lambda6"): 13500,
    ("versal", "abelian1", "--max-order", "12"): 14350,
}


@pytest.mark.parametrize("argv", sorted(NODE_BUDGET), ids=lambda argv: "-".join(argv[:2]).removesuffix("-lambda6"))
def test_a_command_compiles_no_other_commands_code(argv, tmp_path):
    """The package modules that ``run(argv)`` leaves loaded hold at most
    ``NODE_BUDGET[argv]`` AST nodes: the cost of compiling them from source.
    A failure shows the count of each module."""
    nodes = ast.literal_eval(python_s(
        "import ast, io, sys, types, contextlib; from leibniz_deform.cli import run\n"
        f"with contextlib.redirect_stdout(io.StringIO()): assert run({file_argv(argv, tmp_path)!r}) == 0\n"
        "print({n: len(list(ast.walk(ast.parse(open(m.__file__, encoding='utf-8').read()))))"
        " for n, m in sorted(sys.modules.items())"
        " if n.split('.')[0] == 'leibniz_deform' and type(m) is types.ModuleType})"
    ))
    assert sum(nodes.values()) <= NODE_BUDGET[argv], ", ".join(f"{name} {count}" for name, count in nodes.items())


def test_bare_import_runs_no_layer():
    """``__init__`` only registers the layers; it needs none of them to run."""
    assert python_s(f"import sys, types, leibniz_deform; print({RUN_SUBMODULES})") == "[]\n"


def test_lazy_modules_are_registered_by_importing_the_cli():
    # bench/tracing.py imports leibniz_deform.cli and then reads every traced
    # layer from sys.modules to wrap its functions
    code = f"import sys, leibniz_deform.cli; print([f'leibniz_deform.{{m}}' in sys.modules for m in {TRACED_LAYERS!r}])"
    assert python_s(code) == f"{[True] * len(TRACED_LAYERS)}\n"


SRC = Path(__file__).resolve().parent.parent / "src" / "leibniz_deform"


# versal's peak over massey's, in KB: 1,450 to 1,740 while deform.py held the
# polynomial base, 360 to 600 since poly.py holds it (10 runs each, Python 3.11.7).
# A single run per side spread it over 464 to 716 KB (10 runs), so each side
# is the median of PEAK_RUNS alternating runs.
COMPILE_PEAK_KB = 900
PEAK_RUNS = 5


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts kilobytes on Linux")
def test_compiling_the_deformation_layers_does_not_set_the_peak_rss(tmp_path):
    """``versal`` compiles ``poly`` and ``deform`` from source, as a checkout
    without bytecode does, and ``massey`` compiles neither: each compile must
    be small enough that versal's median peak is less than ``COMPILE_PEAK_KB``
    above massey's.  Both run ``PEAK_RUNS`` times, alternating, on a copy of
    the package without ``__pycache__``.  A child's ``ru_maxrss`` counts the
    memory of the process that started it, so a small launcher starts them
    and reads their peaks from ``wait4``."""
    shutil.copytree(SRC, tmp_path / "leibniz_deform", ignore=shutil.ignore_patterns("__pycache__"))
    launcher = f"""
import os, sys
env = dict(os.environ, PYTHONPATH={str(tmp_path)!r}, PYTHONDONTWRITEBYTECODE="1")
for _ in range({PEAK_RUNS}):
    for argv in (["versal", "lambda6", "--max-order", "2"], ["massey", "lambda6"]):
        out = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
        pid = os.posix_spawn(sys.executable, [sys.executable, "-S", "-m", "leibniz_deform", *argv], env,
                             file_actions=out)
        _, status, usage = os.wait4(pid, 0)
        assert status == 0, argv
        print(usage.ru_maxrss)
"""
    peaks = list(map(int, python_s(launcher).split()))
    versal, massey = statistics.median(peaks[0::2]), statistics.median(peaks[1::2])
    assert versal - massey < COMPILE_PEAK_KB


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_inside_a_function(path):
    """Every import of the package is at module level, where laziness is
    decided by ``__init__``; a deferred import hides a dependency cycle."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    deferred = [
        node.lineno
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert deferred == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_uses_true_division(path):
    """Stored scalars are ints when integral, and ``int / int`` is a float, so
    no module divides with ``/`` or ``/=``: a quotient is a ``Fraction(a, b)``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    divisions = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]
    assert divisions == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_reads(path):
    """Every name that a module imports is read in it, so code that moves to
    another module takes along the imports that only it read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - read) == []


def _module_names(name: str) -> set[str]:
    """The modules a source module imports, the names it imports and the names it reads."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names.update([node.module or "", *(a.name for a in node.names)])
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return {n.rpartition(".")[2] for n in names}


def test_deform_names_neither_reports_nor_cli():
    """The polynomial format is ``poly``'s own, so ``deform`` takes its
    renderer from there and needs nothing from the front end."""
    names = _module_names("deform")
    assert not names & {"reports", "cli"}
    assert {"poly", "render_poly"} <= names


def test_poly_imports_no_cochain_graded_deform_reports_or_cli():
    """The bases are a layer below the deformations: ``poly`` runs without
    any cochain, graded, deformation or front-end code."""
    assert not _module_names("poly") & {"cochain", "graded", "deform", "reports", "cli"}


BENCH = SRC.parent.parent / "bench"


def _src_names(tree) -> set[str]:
    """The names a module reads: plain names, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_deform_reads_no_private_name_of_the_base():
    """``deform`` reaches normal forms through ``TruncatedPolynomial`` alone:
    it reads neither a base's Macaulay echelon nor the sparse rows of it."""
    names = _src_names(ast.parse((SRC / "deform.py").read_text(encoding="utf-8")))
    assert not names & {"_echelon", "_sparse_poly"}


def _bench_names(tree) -> set[str]:
    """The package names a benchmark module reaches: each part of a ``TRACED``
    path, each name imported from ``leibniz_deform`` and each attribute read."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("leibniz_deform"):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            names.update(part for c in ast.walk(node.value) if isinstance(c, ast.Constant) for part in c.value.split("."))
    return names


def test_every_definition_in_src_is_reached():
    """Each function, class and method of ``src/``, dunders aside, is named
    elsewhere in ``src/`` or reached by ``bench/*.py``: a definition that only
    tests reach belongs in ``tests/helpers.py``, or nowhere."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    reached = set().union(*map(_src_names, trees.values()))
    for path in sorted(BENCH.glob("*.py")):
        reached |= _bench_names(ast.parse(path.read_text(encoding="utf-8")))
    unreached = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in reached
    ]
    assert unreached == []


def test_looking_up_a_name_runs_its_layer_and_the_layers_that_it_imports():
    # a bare import of a layer runs nothing; looking up one of its names runs
    # it and the layers that it imports; the package itself exports no name
    code = f"""
import sys, types, leibniz_deform.cochain
import leibniz_deform as pkg
print("import", *{RUN_SUBMODULES})
for layer, name in (("errors", "FormatError"), ("algebra", "validate"), ("linalg", "rref"), ("poly", "LocalBase"),
                    ("cochain", "cohomology"), ("graded", "circle"), ("deform", "versal_construct"),
                    ("reps", "cochain_from_json"), ("readers", "parse_json"), ("pushforward", "parse_poly")):
    assert getattr(getattr(pkg, layer), name).__module__ == f"leibniz_deform.{{layer}}", name
    print(name, *{RUN_SUBMODULES})
try:
    pkg.cohomology
except AttributeError as e:
    print(e)
"""
    assert python_s(code) == (
        "import\n"
        "FormatError errors\n"
        "validate algebra errors values\n"
        "rref algebra errors linalg values\n"
        "LocalBase algebra errors linalg poly values\n"
        "cohomology algebra cochain errors linalg poly values\n"
        "circle algebra cochain errors graded linalg poly values\n"
        "versal_construct algebra cochain deform errors graded linalg poly values\n"
        "cochain_from_json algebra cochain deform errors graded linalg poly reps values\n"
        "parse_json algebra cochain deform errors graded linalg poly readers reps values\n"
        "parse_poly algebra cochain deform errors graded linalg poly pushforward readers reports reps values\n"
        "module 'leibniz_deform' has no attribute 'cohomology'\n"
    )


def test_reps_paper_rejected_for_other_algebras(capsys, tmp_path):
    path = tmp_path / "ab.json"
    path.write_text('{"dim": 2, "brackets": []}', encoding="utf-8")
    code, _, err = invoke(capsys, "massey", str(path), "--reps", "paper")
    assert code == 1


def test_parse_poly_expressions():
    from fractions import Fraction

    base = LocalBase(("t", "s"), 3)
    assert parse_poly("0", base).is_zero()
    assert parse_poly("t", base) == TruncatedPolynomial(base, {(1, 0): 1})
    assert parse_poly("2*t^2*s", base) == TruncatedPolynomial(base, {(2, 1): 2})
    assert parse_poly("t - 1/2*s", base) == TruncatedPolynomial(base, {(1, 0): 1, (0, 1): Fraction(-1, 2)})
    combo = parse_poly("t - 1/2*s + t", base)
    assert combo.coeff((1, 0)) == 2
    assert combo.coeff((0, 1)) == Fraction(-1, 2)
    with pytest.raises(FormatError):
        parse_poly("t + q", base)
    with pytest.raises(FormatError):
        parse_poly("t*", base)
