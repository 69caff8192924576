"""Expression grammar, exact literal handling, and error positions."""

import sys
from fractions import Fraction as F

import pytest

from realbicyclic import Elem, NegativeScalar, ParseError, ZERO, parse_expr
from realbicyclic.cli import main
from realbicyclic.exprparse import MAX_NESTING


def test_worked_examples():
    assert parse_expr("(1,3)*(2,5)") == Elem(1, 6)
    assert parse_expr("((1,6))^-1") == Elem(6, 1)
    assert parse_expr("(3,5) <= (1,3)") is True


def test_zero_literal_and_absorption():
    assert parse_expr("0") is ZERO
    assert parse_expr("0 * (1,2)") is ZERO
    assert parse_expr("(1,2) * 0") is ZERO
    assert parse_expr("0^-1") is ZERO
    assert parse_expr("(0,0)") == Elem(0, 0)  # the identity, not the zero


def test_rational_and_decimal_literals_exact():
    assert parse_expr("(1/2, 3/2) * (2, 1/3)") == Elem(1, F(1, 3))
    assert parse_expr("(0.5, 1.5)") == Elem(F(1, 2), F(3, 2))
    assert parse_expr("(0.1, 0)") == Elem(F(1, 10), 0)  # exact, not binary float


def test_order_with_zero():
    assert parse_expr("0 <= (1,2)") is True
    assert parse_expr("(1,2) <= 0") is False
    assert parse_expr("0 <= 0") is True


def test_precedence_and_grouping():
    # postfix inversion binds tighter than product
    assert parse_expr("(1,3)*(2,5)^-1") == parse_expr("(1,3)*((2,5)^-1)")
    assert parse_expr("(2,5)^-1^-1") == Elem(2, 5)
    assert parse_expr("((1,3)*(2,5)) <= (1,3)") in (True, False)
    assert parse_expr("(1,2)*(1,2)*(1,2)") == parse_expr("((1,2)*(1,2))*(1,2)")


def test_comparison_result_is_boolean():
    value = parse_expr("(3,5) <= (1,3)")
    assert value is True


def test_negative_literal_rejected_with_position():
    with pytest.raises(NegativeScalar) as exc:
        parse_expr("(-1, 2)")
    assert exc.value.pos == 1
    with pytest.raises(NegativeScalar):
        parse_expr("(1, -2)")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_expr("(1,2")
    assert exc.value.pos == 4
    with pytest.raises(ParseError):
        parse_expr("(1,2) * ")
    with pytest.raises(ParseError):
        parse_expr("(1,2) (3,4)")  # trailing input
    with pytest.raises(ParseError):
        parse_expr("5 * (1,2)")  # bare nonzero scalar is not an element
    with pytest.raises(ParseError):
        parse_expr("(1,2) ^ 2")
    with pytest.raises(ParseError):
        parse_expr("(1,2) < (1,3)")
    with pytest.raises(ParseError):
        parse_expr("(1/, 2)")
    with pytest.raises(ParseError):
        parse_expr("(1/0, 2)")
    with pytest.raises(ParseError):
        parse_expr("(1., 2)")
    with pytest.raises(ParseError):
        parse_expr("")


@pytest.mark.parametrize(
    "text", ["(\u00b2,1)", "(\u0663,1)", "(1,1/\u0663)", "(1.\u0663,1)", "(-\u0663,1)"]
)
def test_non_ascii_digits_rejected(text):
    # str.isdigit() accepts '²' and '٣'; the scalar grammar is ASCII only
    with pytest.raises(ParseError):
        parse_expr(text)


def test_boolean_misuse_rejected():
    with pytest.raises(ParseError):
        parse_expr("((1,2) <= (1,2)) * (1,2)")
    with pytest.raises(ParseError):
        parse_expr("((1,2) <= (1,2))^-1")


def test_whitespace_is_free_form():
    assert parse_expr("  ( 1 , 3 )  *  ( 2 , 5 )  ") == Elem(1, 6)


def nested(depth: int, inner: str = "(1,2)") -> str:
    return "(" * depth + inner + ")" * depth


def test_nesting_limit():
    assert parse_expr(nested(MAX_NESTING)) == Elem(1, 2)
    assert parse_expr(nested(MAX_NESTING, "(1,3)*(2,5)")) == Elem(1, 6)
    for depth in (MAX_NESTING + 1, 1000, 100000):
        with pytest.raises(ParseError, match="nested deeper") as info:
            parse_expr(nested(depth))
        assert info.value.pos == MAX_NESTING


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no limit on the digits of an integer string",
)
def test_oversized_literal_is_not_a_zero_denominator(capsys):
    # a literal one digit past the interpreter's integer-string limit (4300
    # by default) is reported as such at the literal's start, never as a
    # zero denominator, and the CLI exits 2; at the limit it evaluates
    limit = sys.get_int_max_str_digits()
    at, past = "7" * limit, "7" * (limit + 1)
    assert parse_expr(f"(1,{at})") == Elem(1, int(at))
    message = f"a number has more than {limit} digits"
    for text, pos in (
        (f"(1,{past})", 3),
        (f"({past}/2,1)", 1),
        (f"(1,2/{past})", 3),
        (f"(1.{past},0)", 1),
    ):
        with pytest.raises(ParseError) as exc:
            parse_expr(text)
        assert str(exc.value) == f"{message} (at position {pos})"
    assert main(["eval", f"(1,{'7' * 5000})"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message} (at position 3)\n"
    assert main(["eval", f"(1,{at})"]) == 0
    assert capsys.readouterr().out == f"(1,{at})\n"
    with pytest.raises(ParseError, match=r"^zero denominator \(at position 2\)$"):
        parse_expr("(1/000,2)")
