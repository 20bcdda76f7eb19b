import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import bracket_eval, dense_validate, misoriented_nf4, random_leibniz_algebra
from leibniz_deform.algebra import (
    LeibnizAlgebra,
    abelian,
    algebra_from_json,
    algebra_to_json,
    lambda6,
    load_algebra,
    validate,
)
from leibniz_deform.errors import DimensionMismatch, FormatError

F = Fraction


def test_lambda6_dimension():
    assert lambda6().dim == 3


def test_lambda6_defining_brackets():
    alg = lambda6()
    e = lambda i: tuple(F(1) if k == i else F(0) for k in range(3))
    assert bracket_eval(alg, e(0), e(2)) == e(1)  # [e1, e3] = e2
    assert bracket_eval(alg, e(2), e(2)) == e(0)  # [e3, e3] = e1


def test_lambda6_all_other_basis_brackets_vanish():
    alg = lambda6()
    for i in range(3):
        for j in range(3):
            if (i, j) in ((0, 2), (2, 2)):
                continue
            assert all(x == 0 for x in alg.bracket_basis(i, j))


def test_lambda6_satisfies_identity():
    assert validate(lambda6()) == []


def test_abelian_satisfies_identity():
    assert validate(abelian(4)) == []


def test_square_on_e1_violates_identity():
    # [e_1, e_1] = e_1 alone fails: [e1,[e1,e1]] = e1 but the right side is 0
    alg = LeibnizAlgebra.from_brackets(2, {(0, 0): {0: 1}})
    violations = validate(alg)
    assert ((0, 0, 0), (F(1), F(0))) in violations


# Mostly zero constants, so that tables are sparse, often Leibniz and often not.
constants = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))


@st.composite
def structure_tables(draw):
    n = draw(st.integers(1, 4))
    cells = draw(st.lists(constants, min_size=n ** 3, max_size=n ** 3))
    brackets = {(i, j): {k: cells[(i * n + j) * n + k] for k in range(n)} for i in range(n) for j in range(n)}
    return LeibnizAlgebra.from_brackets(n, brackets)


@given(structure_tables())
def test_validate_equals_dense_oracle(alg):
    assert validate(alg) == dense_validate(alg)


def test_validate_equals_dense_oracle_on_known_tables():
    rng = random.Random(7)
    square_on_e1 = LeibnizAlgebra.from_brackets(2, {(0, 0): {0: 1}})
    for alg in (lambda6(), abelian(3), misoriented_nf4(), random_leibniz_algebra(rng), square_on_e1):
        violations = validate(alg)
        assert violations == dense_validate(alg)
        assert all(type(x) is F for _, defect in violations for x in defect)
    assert validate(misoriented_nf4())


def test_bracket_of_zero_vector_is_zero():
    alg = lambda6()
    zero = (F(0),) * 3
    y = (F(2), F(-1), F(5))
    assert bracket_eval(alg, zero, y) == zero
    assert bracket_eval(alg, y, zero) == zero


def test_bracket_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        bracket_eval(lambda6(), (F(1), F(0)), (F(0), F(1), F(0)))


small_vec3 = st.tuples(*[st.fractions(min_value=-4, max_value=4, max_denominator=3)] * 3)
small_scalar = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@given(small_vec3, small_vec3, small_vec3, small_scalar, small_scalar)
def test_bracket_bilinear(x, xp, y, a, b):
    alg = lambda6()
    left = bracket_eval(alg, tuple(a * u + b * v for u, v in zip(x, xp)), y)
    right = tuple(
        a * u + b * v
        for u, v in zip(bracket_eval(alg, x, y), bracket_eval(alg, xp, y))
    )
    assert left == right
    left = bracket_eval(alg, y, tuple(a * u + b * v for u, v in zip(x, xp)))
    right = tuple(
        a * u + b * v
        for u, v in zip(bracket_eval(alg, y, x), bracket_eval(alg, y, xp))
    )
    assert left == right


def test_validated_algebras_satisfy_identity_on_random_vectors():
    rng = random.Random(11)
    for _ in range(20):
        alg = random_leibniz_algebra(rng)
        n = alg.dim
        for _ in range(5):
            x, y, z = (
                tuple(F(rng.randint(-3, 3)) for _ in range(n)) for _ in range(3)
            )
            lhs = bracket_eval(alg, x, bracket_eval(alg, y, z))
            rhs = tuple(
                a - b
                for a, b in zip(
                    bracket_eval(alg, bracket_eval(alg, x, y), z),
                    bracket_eval(alg, bracket_eval(alg, x, z), y),
                )
            )
            assert lhs == rhs


def test_json_round_trip_is_bit_exact():
    alg = LeibnizAlgebra.from_brackets(
        3, {(0, 2): {1: F(1, 2)}, (2, 2): {0: -2, 2: F(7, 3)}}
    )
    text = algebra_to_json(alg)
    back = algebra_from_json(text)
    assert back == alg
    assert algebra_to_json(back) == text


def test_json_unlisted_brackets_are_zero():
    alg = algebra_from_json('{"dim": 2, "brackets": []}')
    assert alg == abelian(2)


def test_json_rejects_bad_documents():
    with pytest.raises(FormatError):
        algebra_from_json("{not json")
    with pytest.raises(FormatError):
        algebra_from_json('{"dim": 0, "brackets": []}')
    with pytest.raises(FormatError):
        algebra_from_json('{"dim": 2, "brackets": [{"left": 5, "right": 1, "value": []}]}')
    with pytest.raises(FormatError):
        algebra_from_json(
            '{"dim": 2, "brackets": [{"left": 1, "right": 1,'
            ' "value": [{"basis": 1, "coeff": "x"}]}]}'
    )
    # a repeated entry does not replace the earlier one, and an index is a JSON integer
    for doc, message in (
        (
            '{"dim": 2, "brackets": [{"left": 1, "right": 1, "value": [{"basis": 2, "coeff": "1"}]},'
            ' {"left": 1, "right": 1, "value": []}]}',
            r"brackets\[1\] repeats the bracket of left 1 and right 1",
        ),
        (
            '{"dim": 2, "brackets": [{"left": 1, "right": 1,'
            ' "value": [{"basis": 2, "coeff": "1"}, {"basis": 2, "coeff": "3"}]}]}',
            r"brackets\[0\] repeats basis 2",
        ),
        ('{"dim": true, "brackets": []}', "'dim' must be a positive integer"),
        ('{"dim": 2.0, "brackets": []}', "'dim' must be a positive integer"),
        (
            '{"dim": 2, "brackets": [{"left": 1.5, "right": 1, "value": []}]}',
            r"brackets\[0\] needs integer 'left' and 'right'",
        ),
        (
            '{"dim": 2, "brackets": [{"left": 1, "right": true, "value": []}]}',
            r"brackets\[0\] needs integer 'left' and 'right'",
        ),
        (
            '{"dim": 2, "brackets": [{"left": 1, "right": 1, "value": [{"basis": 1.5, "coeff": "1"}]}]}',
            r"brackets\[0\] has basis 1.5; expected an index in 1..2",
        ),
        (
            '{"dim": 2, "brackets": [{"left": 1, "right": 1, "value": 5}]}',
            r"brackets\[0\] has value 5; expected a list",
        ),
        (
            '{"dim": 2, "brackets": [{"left": 1, "right": 1, "value": [{"basis": 2, "coeff": "x"}]}]}',
            r"brackets\[0\] has no rational 'coeff' at basis 2",
        ),
        ('{"dim": 2, "brackets": null}', "'brackets' must be a list"),
        ('{"dim": 2, "brackets": 5}', "'brackets' must be a list"),
        ('{"dim": 2, "brackets": "ab"}', "'brackets' must be a list"),
        ('{"dim": 2, "brackets": {"a": 1}}', "'brackets' must be a list"),
    ):
        with pytest.raises(FormatError, match=message):
            algebra_from_json(doc)


def test_json_parse_error_carries_position():
    try:
        algebra_from_json('{"dim": 3,\n "brackets": [oops]}')
    except FormatError as e:
        assert e.line == 2
    else:
        pytest.fail("expected FormatError")


def _one_bracket(coeff: str) -> str:
    return '{"dim": 1, "brackets": [{"left": 1, "right": 1, "value": [{"basis": 1, "coeff": %s}]}]}' % coeff


# a JSON number with a fraction or an exponent used to pass through a float
@pytest.mark.parametrize(
    "coeff, value", [("1.5", F(3, 2)), ("1.00000000000000001", 1 + F(1, 10 ** 17)), ("1e-400", F(1, 10 ** 400))]
)
def test_json_reads_a_decimal_coefficient_exactly(coeff, value):
    assert algebra_from_json(_one_bracket(coeff)).structure_constants[0][0][0] == value


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"dim": 1%s, "brackets": []}' % ("0" * 4300), "Exceeds the limit (4300 digits)"),
        (_one_bracket("1" * 4301), "Exceeds the limit (4300 digits)"),
    ],
    ids=["long-dim", "long-coeff"],
)
def test_json_refuses_a_number_too_long_to_read(doc, message):
    # a long integer used to escape as a ValueError
    with pytest.raises(FormatError) as info:
        algebra_from_json(doc)
    assert str(info.value).startswith(f"invalid JSON: {message}")


@pytest.mark.parametrize("coeff", ["1e-4301", "2E+99999999999", '"1e-99999"'])
def test_json_refuses_a_coefficient_exponent_before_computing_its_power(coeff):
    # Fraction computes 10 ** exponent, for a string coeff too
    with pytest.raises(FormatError, match=r"^brackets\[0\] has a 'coeff' with an exponent beyond 4300 at basis 1$"):
        algebra_from_json(_one_bracket(coeff))
    assert algebra_from_json(_one_bracket("1e-4300")).structure_constants[0][0][0] == F(1, 10 ** 4300)


@pytest.mark.parametrize("dim", [216, 100000, 10 ** 40], ids=["216", "100000", "10^40"])
def test_json_refuses_a_dimension_whose_table_is_too_large_before_allocating_it(monkeypatch, dim):
    # 215^3 is under the cap; checking 100,000 used to be killed allocating its table
    monkeypatch.setattr(LeibnizAlgebra, "from_brackets", lambda *a: pytest.fail("began allocating the table"))
    with pytest.raises(FormatError) as info:
        algebra_from_json('{"dim": %d, "brackets": []}' % dim)
    assert str(info.value) == f"'dim' is {dim}: more than 10000000 structure constants"


def test_load_algebra_builtin_and_file(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(algebra_to_json(lambda6()), encoding="utf-8")
    assert load_algebra(str(path)) == lambda6()
    assert load_algebra("lambda6") == lambda6()
    with pytest.raises(FormatError):
        load_algebra(str(tmp_path / "missing.json"))
