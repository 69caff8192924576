"""Parser and evaluator for a tiny exact expression language.

Grammar (whitespace free-form):

    expr    := product ( "<=" product )?
    product := postfix ( "*" postfix )*
    postfix := primary ( "^-1" )*
    primary := "0" | "(" expr ")" | "(" scalar "," scalar ")"
    scalar  := digits | digits "/" digits | digits "." digits

Digits are ASCII: the scalar grammar is ``semigroup.SCALAR_LITERAL``, shared
with ``scalar`` and the CLI's lines, and ``semigroup.literal_ratio`` reads a
scalar's lowest-terms integers.  Scalars are exact: fractions stay fractions
and decimal literals (necessarily finite) convert exactly.  ``*`` is the
semigroup product, ``^-1`` inversion, ``<=`` the natural partial order
(yielding a boolean); the bare literal ``0`` is the adjoined zero, the least
element.  One master pattern tokenizes the text, one match a token: an
element literal ``( scalar , scalar )`` of well-formed scalars is a single
token, any other is read piece by piece, and each lexical error has an
alternative, so the first is raised at its position before any syntax error.
One flat loop then evaluates the tokens as it reads them, to a point, zero
or a boolean: each operand inline (an element, ``0`` or a parenthesised
group), then its ``^-1``s, each ``*`` folded in, and at most one ``<=``.
Parentheses nest at most ``MAX_NESTING`` deep; deeper input is a
``ParseError``, raised well before the recursion (one frame per
parenthesised group) reaches Python's limit.  A text that is not a str is a
``TypeError``.
"""

from __future__ import annotations

import re

from .semigroup import (
    SCALAR_LITERAL,
    Elem,
    TooLarge,
    ZERO,
    ZeroType,
    _check_field,
    _elem,
    inv_ext,
    literal_ratio,
    mul_ext,
    natural_leq_ext,
)

Value = Elem | ZeroType | bool

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


# kind, value, position; a number's value is its lowest-terms (numerator,
# denominator), an element literal's the four non-negative ints ``_elem`` takes.
_Token = tuple[str, object, int]

_S1 = r"([0-9]+)(?:/(0*[1-9][0-9]*)|(\.[0-9]+))?"  # SCALAR_LITERAL, denominator nonzero

# After free whitespace (``\s`` is ``str.isspace``) the first alternative that
# matches; element scalars are groups 2-4 and 5-7.  A whitespace tail matches
# none, and would be searched from each of its positions: the scan ends before it.
_TOKEN = re.compile(
    rf"""\s*(?:
      (?P<elem>\(\s*{_S1}\s*,\s*{_S1}\s*\))
    | (?P<op>\^-1|<=|[(),*])
    | (?P<zero>[0-9]+)/0+(?![0-9])
    | (?P<noden>[0-9]+)/(?![0-9])
    | (?P<nodec>[0-9]+)\.(?![0-9])
    | (?P<number>{SCALAR_LITERAL.pattern})
    | (?P<neg>-)(?=\s*[0-9])
    | (?P<bad>\S)
    )""",
    re.VERBOSE,
)
_N = _TOKEN.groupindex["number"] + 1  # a bare number's three groups start here
_LEXICAL = {"zero": "zero denominator", "noden": "missing denominator",
            "nodec": "missing digits after decimal point"}
_BAD = {"^": "expected ^-1", "<": "expected <=", "-": "unexpected '-'"}


def _tokenize(text: str) -> list[_Token]:
    """The tokens of ``text`` to its last non-space, then an end token at its length."""
    tokens: list[_Token] = []
    for m in _TOKEN.finditer(text, 0, len(text.rstrip())):
        kind = m.lastgroup
        i = m.start(kind)
        if kind == "elem":
            a = None
            try:
                a = literal_ratio(*m.group(2, 3, 4))
                tokens.append((kind, (*a, *literal_ratio(*m.group(5, 6, 7))), i))
            except TooLarge:  # at the start of the scalar past the digit limit
                raise ParseError(str(TooLarge()), m.start(2 if a is None else 5)) from None
        elif kind == "op":
            tokens.append((m.group(kind), None, i))
        elif kind == "number":
            try:
                tokens.append((kind, literal_ratio(*m.group(_N, _N + 1, _N + 2)), i))
            except TooLarge:
                raise ParseError(str(TooLarge()), i) from None
        elif kind == "neg":
            raise NegativeScalar(i)
        elif kind == "bad":
            c = m.group(kind)
            raise ParseError(_BAD.get(c, f"unexpected character {c!r}"), i)
        else:
            raise ParseError(_LEXICAL[kind], m.end(kind))  # at the '/' or '.'
    tokens.append(("end", None, len(text)))
    return tokens


def _expected(what: str, kind: str, pos: int, detail: str = "") -> ParseError:
    """``expected <what>`` at a token of ``kind``: at the end token, found end
    of input; at any other, followed by ``detail``."""
    if kind == "end":
        return ParseError(f"expected {what}, found end of input", pos)
    return ParseError(f"expected {what}{detail}", pos)


def _expr(tokens: list[_Token], i: int, depth: int) -> tuple[Value, int]:
    """The value of the expression at ``tokens[i]``, inside ``depth``
    parentheses, and the index of the token after it."""
    left = value = None
    while True:
        kind, operand, pos = tokens[i]
        i += 1
        if kind == "elem":
            operand = _elem(*operand)
        elif kind == "(":
            if tokens[i][0] == "number" and tokens[i + 1][0] == ",":
                # a malformed element literal: a well-formed one is an "elem" token
                kind, _, pos = tokens[i + 2]
                if kind != "number":
                    raise _expected("a scalar", kind, pos, " after ','")
                kind, _, pos = tokens[i + 3]
                raise _expected("')'", kind, pos, " to close the element")
            if depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            operand, i = _expr(tokens, i, depth + 1)
            kind, _, pos = tokens[i]
            if kind != ")":
                raise _expected("')'", kind, pos)
            i += 1
        elif kind == "number":
            if operand[0]:
                raise ParseError("a bare scalar is not an element (only 0 is)", pos)
            operand = ZERO
        else:
            raise _expected("an element, 0, or '('", kind, pos)
        kind, _, pos = tokens[i]
        while kind == "^-1":
            if isinstance(operand, bool):
                raise ParseError("cannot invert a boolean", pos)
            operand = inv_ext(operand)
            i += 1
            kind, _, pos = tokens[i]
        if value is None:
            value = operand
        elif isinstance(value, bool) or isinstance(operand, bool):
            raise ParseError("cannot multiply booleans", star)
        else:
            value = mul_ext(value, operand)
        if kind == "*":
            star = pos
        elif kind == "<=" and left is None:
            left, value, order = value, None, pos
        else:
            break
        i += 1
    if left is None:
        return value, i
    if isinstance(left, bool) or isinstance(value, bool):
        raise ParseError("cannot order booleans", order)
    return natural_leq_ext(left, value), i


def parse_expr(text: str) -> Value:
    """Parse and exactly evaluate ``text``; see the module grammar."""
    _check_field("text", text, str)
    tokens = _tokenize(text)
    value, i = _expr(tokens, 0, 0)
    kind, _, pos = tokens[i]
    if kind != "end":
        raise ParseError("trailing input", pos)
    return value
