"""Parser and evaluator for a tiny exact expression language.

Grammar (whitespace free-form):

    expr    := product ( "<=" product )?
    product := postfix ( "*" postfix )*
    postfix := primary ( "^-1" )*
    primary := "0" | "(" expr ")" | "(" scalar "," scalar ")"
    scalar  := digits | digits "/" digits | digits "." digits

Digits are ASCII: the scalar grammar is ``semigroup.SCALAR_LITERAL``, shared
with ``scalar`` and the CLI's lines.  Scalars are exact: fractions stay
fractions and decimal literals (necessarily finite) convert exactly.  ``*``
is the semigroup product, ``^-1`` inversion, ``<=`` the natural partial
order (yielding a boolean); the bare literal ``0`` is the adjoined zero, the
least element.  Evaluation happens during the parse
and returns either a point (or zero) or a boolean.  Grouping parentheses nest
at most ``MAX_NESTING`` deep; deeper input is a ``ParseError``, raised well
before the parser's recursion (four frames a level) reaches Python's limit.
"""

from __future__ import annotations

from math import gcd
from typing import List, Tuple, Union

from .semigroup import (
    SCALAR_LITERAL,
    Elem,
    TooLarge,
    ZERO,
    ZeroType,
    _elem,
    inv_ext,
    literal_value,
    mul_ext,
    natural_leq_ext,
)

Value = Union[Elem, ZeroType, bool]

MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax or evaluation-type error, carrying the character position."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class NegativeScalar(ParseError):
    """A negative literal appeared; all coordinates are non-negative."""

    def __init__(self, pos: int) -> None:
        ParseError.__init__(self, "negative literals are not allowed", pos)


# kind, value, position; a number's value is its (numerator, denominator) in
# lowest terms, and an element literal hands both pairs to the trusted
# ``_elem``: the grammar has no sign, so they are non-negative.
_Token = Tuple[str, object, int]

_DIGITS = "0123456789"  # ASCII only: str.isdigit() also accepts '²' and '٣'

# The operators by first character; an operator token's kind is its text.
_OPERATORS = {"(": "(", ")": ")", ",": ",", "*": "*", "^": "^-1", "<": "<="}


def _tokenize(text: str) -> List[_Token]:
    """The tokens of ``text``, closed by an end token at its length."""
    tokens: List[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        op = _OPERATORS.get(c)
        if op is not None:
            if not text.startswith(op, i):
                raise ParseError(f"expected {op}", i)
            tokens.append((op, None, i))
            i += len(op)
        elif c == "-":
            j = i + 1
            while j < n and text[j].isspace():
                j += 1
            if j < n and text[j] in _DIGITS:
                raise NegativeScalar(i)
            raise ParseError("unexpected '-'", i)
        elif c in _DIGITS:
            m = SCALAR_LITERAL.match(text, i)
            j = m.end()
            if j == m.end(1) and j < n and text[j] in "/.":
                if text[j] == "/":
                    raise ParseError("missing denominator", j)
                raise ParseError("missing digits after decimal point", j)
            den = m.group(2)
            if den is not None and not den.strip("0"):
                raise ParseError("zero denominator", m.end(1))
            try:
                if m.group(3) is None:
                    num, d = int(m.group(1)), int(den or 1)
                    g = gcd(num, d)
                    value = (num // g, d // g)
                else:
                    value = literal_value(m).as_integer_ratio()
            except ValueError:  # digits only, so the one refusal is the digit limit
                raise ParseError(str(TooLarge()), i) from None
            tokens.append(("number", value, i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def _next(self, expected: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] == "end":
            raise ParseError(f"expected {expected}, found end of input", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> Value:
        value = self.expr()
        kind, _, pos = self.tokens[self.pos]
        if kind != "end":
            raise ParseError("trailing input", pos)
        return value

    def expr(self) -> Value:
        left = self.product()
        kind, _, pos = self.tokens[self.pos]
        if kind != "<=":
            return left
        self.pos += 1
        right = self.product()
        if isinstance(left, bool) or isinstance(right, bool):
            raise ParseError("cannot order booleans", pos)
        return natural_leq_ext(left, right)

    def product(self) -> Value:
        value = self.postfix()
        while True:
            kind, _, pos = self.tokens[self.pos]
            if kind != "*":
                return value
            self.pos += 1
            right = self.postfix()
            if isinstance(value, bool) or isinstance(right, bool):
                raise ParseError("cannot multiply booleans", pos)
            value = mul_ext(value, right)

    def postfix(self) -> Value:
        value = self.primary()
        while True:
            kind, _, pos = self.tokens[self.pos]
            if kind != "^-1":
                return value
            self.pos += 1
            if isinstance(value, bool):
                raise ParseError("cannot invert a boolean", pos)
            value = inv_ext(value)

    def primary(self) -> Value:
        kind, value, pos = self._next("an element, 0, or '('")
        if kind == "number":
            if value[0] == 0:
                return ZERO
            raise ParseError("a bare scalar is not an element (only 0 is)", pos)
        if kind != "(":
            raise ParseError("expected an element, 0, or '('", pos)
        tokens, i = self.tokens, self.pos
        if tokens[i][0] == "number" and tokens[i + 1][0] == ",":
            # an element literal "(a, b)"
            self.pos = i + 2
            kind, b, b_pos = self._next("a scalar")
            if kind != "number":
                raise ParseError("expected a scalar after ','", b_pos)
            kind, _, close_pos = self._next("')'")
            if kind != ")":
                raise ParseError("expected ')' to close the element", close_pos)
            return _elem(*tokens[i][1], *b)
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
        self.depth += 1
        inner = self.expr()
        self.depth -= 1
        kind, _, close_pos = self._next("')'")
        if kind != ")":
            raise ParseError("expected ')'", close_pos)
        return inner


def parse_expr(text: str) -> Value:
    """Parse and exactly evaluate ``text``; see the module grammar."""
    return _Parser(_tokenize(text)).parse()
