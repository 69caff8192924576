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

import sys
from typing import List, Optional, Tuple, Union

from .semigroup import (
    SCALAR_LITERAL,
    Elem,
    ZERO,
    ZeroType,
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


_Token = Tuple[str, object, int]  # kind, value, position

_DIGITS = "0123456789"  # ASCII only: str.isdigit() also accepts '²' and '٣'


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "(":
            tokens.append(("lparen", None, i))
            i += 1
        elif c == ")":
            tokens.append(("rparen", None, i))
            i += 1
        elif c == ",":
            tokens.append(("comma", None, i))
            i += 1
        elif c == "*":
            tokens.append(("star", None, i))
            i += 1
        elif c == "^":
            if text[i : i + 3] == "^-1":
                tokens.append(("inv", None, i))
                i += 3
            else:
                raise ParseError("expected ^-1", i)
        elif c == "<":
            if text[i : i + 2] == "<=":
                tokens.append(("leq", None, i))
                i += 2
            else:
                raise ParseError("expected <=", i)
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
                value = literal_value(m)
            except ValueError:
                # digits only, so the one refusal left is the interpreter's
                # limit on the digits of an integer string (read, never set)
                limit = sys.get_int_max_str_digits()
                raise ParseError(f"a number has more than {limit} digits", i) from None
            tokens.append(("number", value, i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token], length: int) -> None:
        self.tokens = tokens
        self.pos = 0
        self.length = length
        self.depth = 0

    def _peek(self) -> Optional[_Token]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def _next(self, expected: str) -> _Token:
        tok = self._peek()
        if tok is None:
            raise ParseError(f"expected {expected}, found end of input", self.length)
        self.pos += 1
        return tok

    def parse(self) -> Value:
        value = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError("trailing input", tok[2])
        return value

    def expr(self) -> Value:
        left = self.product()
        tok = self._peek()
        if tok is not None and tok[0] == "leq":
            self.pos += 1
            right = self.product()
            if isinstance(left, bool) or isinstance(right, bool):
                raise ParseError("cannot order booleans", tok[2])
            return natural_leq_ext(left, right)
        return left

    def product(self) -> Value:
        value = self.postfix()
        while True:
            tok = self._peek()
            if tok is None or tok[0] != "star":
                return value
            self.pos += 1
            right = self.postfix()
            if isinstance(value, bool) or isinstance(right, bool):
                raise ParseError("cannot multiply booleans", tok[2])
            value = mul_ext(value, right)

    def postfix(self) -> Value:
        value = self.primary()
        while True:
            tok = self._peek()
            if tok is None or tok[0] != "inv":
                return value
            self.pos += 1
            if isinstance(value, bool):
                raise ParseError("cannot invert a boolean", tok[2])
            value = inv_ext(value)

    def primary(self) -> Value:
        tok = self._next("an element, 0, or '('")
        kind, value, pos = tok
        if kind == "number":
            if value == 0:
                return ZERO
            raise ParseError("a bare scalar is not an element (only 0 is)", pos)
        if kind == "lparen":
            # element literal "(a, b)" or grouped expression: try the literal
            saved = self.pos
            elem = self._try_element(pos)
            if elem is not None:
                return elem
            self.pos = saved
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            closing = self._next("')'")
            if closing[0] != "rparen":
                raise ParseError("expected ')'", closing[2])
            return inner
        raise ParseError("expected an element, 0, or '('", pos)

    def _try_element(self, open_pos: int) -> Optional[Elem]:
        tok = self._peek()
        if tok is None or tok[0] != "number":
            return None
        a = tok[1]
        self.pos += 1
        tok = self._peek()
        if tok is None or tok[0] != "comma":
            return None
        self.pos += 1
        tok = self._next("a scalar")
        if tok[0] != "number":
            raise ParseError("expected a scalar after ','", tok[2])
        b = tok[1]
        closing = self._next("')'")
        if closing[0] != "rparen":
            raise ParseError("expected ')' to close the element", closing[2])
        return Elem(a, b)


def parse_expr(text: str) -> Value:
    """Parse and exactly evaluate ``text``; see the module grammar."""
    return _Parser(_tokenize(text), len(text)).parse()
