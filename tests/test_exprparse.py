"""Expression grammar, exact literal handling, and error positions."""

import random
import sys
import time
from fractions import Fraction as F

import pytest

from expr_reference import parse_expr as reference_parse_expr
from realbicyclic import Elem, NegativeScalar, ParseError, ZERO, parse_expr
from realbicyclic.cli import main
from realbicyclic.exprparse import MAX_NESTING


def test_worked_examples():
    assert parse_expr("(1,3)*(2,5)") == Elem(1, 6)
    assert parse_expr("((1,6))^-1") == Elem(6, 1)
    assert parse_expr("(3,5) <= (1,3)") is True
    assert parse_expr("( 1 , 2 )*( 3/6 , 1.5 )") == Elem(1, 3)


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


def test_long_whitespace_is_read_in_linear_time():
    # a whitespace tail matches no token, and searching it from each of its
    # positions would take time quadratic in its length (the smaller size runs
    # first, so that a regression fails in seconds); "\u00a0" and "\u3000" are
    # spaces.  Values and errors are those of the reference parser.
    for n in (4000, 200_000):
        for text in (
            "0" + " " * n,
            " " * n + "(1,2)",
            "(1,2)" + " \t\n\u00a0\u3000" * (n // 5),
            "(" + " " * n + "1," + " " * n + "2)" + " " * n,
            "(1," + " " * n + "(2,3))" + " " * n,
            "-" + " " * n,
            " " * n,
        ):
            start = time.perf_counter()
            outcome = _outcome(parse_expr, text)
            assert time.perf_counter() - start < 0.5, (n, text[:8])
            assert outcome == _outcome(reference_parse_expr, text), (n, text[:8])


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
        (past, 0),
        (f"(1,2) * {past}", 8),
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


# Every raise site of the parser, with its exact message and position.
_ERRORS = [
    ("(1,2)^2", ParseError, "expected ^-1", 5),
    ("(1,2) < (1,3)", ParseError, "expected <=", 6),
    ("(-1, 2)", NegativeScalar, "negative literals are not allowed", 1),
    ("(1, - \t2)", NegativeScalar, "negative literals are not allowed", 4),
    ("(1,2) - (1,2)", ParseError, "unexpected '-'", 6),
    ("(1/, 2)", ParseError, "missing denominator", 2),
    ("(1., 2)", ParseError, "missing digits after decimal point", 2),
    ("(1/000,2)", ParseError, "zero denominator", 2),
    ("(1,x)", ParseError, "unexpected character 'x'", 3),
    ("(1,\u0663)", ParseError, "unexpected character '\u0663'", 3),
    ("* x", ParseError, "unexpected character 'x'", 2),  # lexical before syntax
    ("", ParseError, "expected an element, 0, or '(', found end of input", 0),
    ("(1,2) * ", ParseError, "expected an element, 0, or '(', found end of input", 8),
    ("((1,2)", ParseError, "expected ')', found end of input", 6),
    ("(1,2", ParseError, "expected ')', found end of input", 4),
    ("(1,", ParseError, "expected a scalar, found end of input", 3),
    ("(1,2) (3,4)", ParseError, "trailing input", 6),
    ("((1,2) <= (1,2)) <= (1,2)", ParseError, "cannot order booleans", 17),
    ("(1,2) <= ((1,2) <= (1,2))", ParseError, "cannot order booleans", 6),
    ("((1,2) <= (1,2)) * (1,2)", ParseError, "cannot multiply booleans", 17),
    ("(1,2) * ((1,2) <= (1,2))", ParseError, "cannot multiply booleans", 6),
    ("((1,2) <= (1,2))^-1", ParseError, "cannot invert a boolean", 16),
    ("5 * (1,2)", ParseError, "a bare scalar is not an element (only 0 is)", 0),
    ("(5)", ParseError, "a bare scalar is not an element (only 0 is)", 1),
    (nested(MAX_NESTING + 1), ParseError, f"parentheses nested deeper than {MAX_NESTING}",
     MAX_NESTING),
    ("((1,2) (1,2)", ParseError, "expected ')'", 7),
    ("*", ParseError, "expected an element, 0, or '('", 0),
    ("(1,*)", ParseError, "expected a scalar after ','", 3),
    ("(1,2 3)", ParseError, "expected ')' to close the element", 5),
    # malformed element literals ("(1,2" is above)
    ("(1,(2,3))", ParseError, "expected a scalar after ','", 3),
    ("(1/0,2)", ParseError, "zero denominator", 2),
    ("(1,2,3)", ParseError, "expected ')' to close the element", 4),
    ("(1.,2)", ParseError, "missing digits after decimal point", 2),
]


def test_error_messages_and_positions():
    for text, kind, message, pos in _ERRORS:
        with pytest.raises(ParseError) as exc:
            parse_expr(text)
        assert type(exc.value) is kind, text
        assert (str(exc.value), exc.value.pos) == (f"{message} (at position {pos})", pos), text


# Pieces of the differential corpus and their weights: the grammar's tokens,
# whitespace (NBSP included) and, more rarely, lexically bad pieces.
_PIECES = {
    "(": 12, ")": 12, ",": 8, "*": 6, "^-1": 4, "<=": 4, "0": 4, "1": 4, "12": 2,
    "1/2": 2, "0.5": 2, "(1,2)": 6, "(0,3/2)": 3, "((1,2)<=(0,1))": 2,
    " ": 3, "\t": 1, "\u00a0": 1, "^-": 1, "^": 1, "<": 1, "-": 1, "1/": 1, "1.": 1,
    "3/000": 1, "\u0663": 1, "\u00b2": 1, "x": 1,
}


def _outcome(parse, text):
    try:
        value = parse(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.pos
    return type(value), value


def test_parser_matches_reference():
    # 100k seeded strings: the same value, or the same exception type,
    # message and position, as the backtracking parser this one replaced
    rng = random.Random(1313)
    pieces, weights = list(_PIECES), list(_PIECES.values())
    messages = set()
    values = 0
    for _ in range(100_000):
        text = "".join(rng.choices(pieces, weights, k=rng.randrange(13)))
        expected = _outcome(reference_parse_expr, text)
        assert _outcome(parse_expr, text) == expected, text
        if len(expected) == 3:
            messages.add(expected[1].split(" (at position")[0])
        else:
            values += 1
    assert values > 1000 and len(messages) > 20


def test_literals_match_reference():
    # the corpus above parses no scalar that reduces, so element literals
    # with leading zeros, common factors and decimals with trailing zeros
    # are checked against the reference parser here
    rng = random.Random(2718)

    def scalar():
        whole = "0" * rng.randrange(3) + str(rng.randrange(60))
        den = "/" + "0" * rng.randrange(2) + str(rng.randrange(1, 60))
        decimals = "." + str(rng.randrange(100)) + "0" * rng.randrange(3)
        return whole + rng.choice(("", den, decimals))

    def literal():
        a, b, c, d = (rng.choice(("", " ", "\t")) for _ in range(4))
        return f"({a}{scalar()}{b},{c}{scalar()}{d})"

    for _ in range(5000):
        text = rng.choice(
            (literal(), f"{literal()}*{literal()}", f"({literal()})^-1", f"{literal()}<={literal()}")
        )
        assert _outcome(parse_expr, text) == _outcome(reference_parse_expr, text), text
