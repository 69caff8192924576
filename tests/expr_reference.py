"""The expression parser that ``exprparse`` replaced, kept as the
differential reference: it tests for the end of input with ``None`` at every
read, and after "(" parses an element literal and rewinds to read a grouped
expression when the literal does not complete.  Both parsers must return equal
values, and raise the same exception type with the same message and position,
on every input."""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from realbicyclic.exprparse import MAX_NESTING, NegativeScalar, ParseError, Value
from realbicyclic.semigroup import (
    SCALAR_LITERAL,
    Elem,
    ZERO,
    inv_ext,
    mul_ext,
    natural_leq_ext,
)

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
                value = Fraction(m.group())
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
    return _Parser(_tokenize(text), len(text)).parse()
