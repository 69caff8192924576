"""Exact arithmetic for the pair semigroup on the non-negative rational quadrant.

Elements are pairs (a, b) of non-negative rationals with the operation

    (a, b) * (c, d) = (a + c - min(b, c), b + d - min(b, c))

under which the quadrant is a bisimple inverse monoid with identity (0, 0).
Restricted to non-negative integers this is the bicyclic monoid.  Every
coordinate is an exact ``fractions.Fraction``, so equality of values is
structural equality and no comparison ever touches floating point.

Besides multiplication the module provides the adjoined absorbing zero,
inversion (coordinate swap), idempotents, the natural partial order, and the
partition of the quadrant into diagonal lines of constant offset ``b - a``.
All values are immutable and all operations are pure functions.
``Elem(a, b)`` and ``LineRef(sign, alpha)`` check their arguments; closed
operations build results that lie in the quadrant by construction with the
unchecked internal ``_elem`` and ``_line``, and compare rationals as integer
cross-products.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Tuple, Union

Scalar = Fraction
ScalarLike = Union[Fraction, int, str]

# The scalar grammar of every text input (``scalar`` of a string, the
# expression language, the CLI's lines): ASCII digits, optionally followed by
# "/" and a denominator or by "." and decimal digits.
SCALAR_LITERAL = re.compile(r"([0-9]+)(?:/([0-9]+)|(\.[0-9]+))?")


def literal_value(m: "re.Match[str]") -> Fraction:
    """The exact value of a ``SCALAR_LITERAL`` match (a finite decimal
    converts exactly).  Raises ``ValueError`` for a zero denominator."""
    whole, den, decimals = m.groups()
    if decimals is not None:
        return Fraction(m.group())
    if den is None:
        return Fraction(int(whole))
    if int(den) == 0:
        raise ValueError(f"zero denominator: {m.group()!r}")
    return Fraction(int(whole), int(den))


def scalar(value: ScalarLike) -> Fraction:
    """Coerce ``value`` to a non-negative exact rational.

    Accepts Fractions, ints, and strings in the ``SCALAR_LITERAL`` grammar
    such as ``"3"``, ``"3/4"`` or ``"1.25"``.  Raises ``ValueError`` for
    negative inputs, for any other string (signs, spaces, exponents,
    underscores, non-ASCII digits), for a zero denominator, and for floats
    and bools, which are not exact rationals.
    """
    if type(value) is Fraction:
        f = value
    elif isinstance(value, (float, bool)):
        raise ValueError(f"not an exact scalar: {value!r}")
    elif isinstance(value, str):
        m = SCALAR_LITERAL.fullmatch(value)
        if m is None:
            raise ValueError(f"not a scalar (digits, digits/digits or digits.digits): {value!r}")
        f = literal_value(m)
    else:
        f = Fraction(value)
    if f.numerator < 0:
        raise ValueError(f"negative scalar: {value!r}")
    return f


def format_scalar(f: Fraction) -> str:
    """Render a rational compactly: ``3`` when integral, else ``3/2``."""
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True, slots=True)
class Elem:
    """A point (a, b) of the quadrant."""

    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        a, b = self.a, self.b
        if type(a) is not Fraction or type(b) is not Fraction:
            a, b = scalar(a), scalar(b)
        elif a.numerator < 0 or b.numerator < 0:
            raise ValueError(f"negative coordinate: ({a}, {b})")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __str__(self) -> str:
        return f"({format_scalar(self.a)},{format_scalar(self.b)})"

    def __repr__(self) -> str:
        return f"Elem({format_scalar(self.a)!r}, {format_scalar(self.b)!r})"

    def __mul__(self, other: "Elem") -> "Elem":
        return mul(self, other)

    def inv(self) -> "Elem":
        return inv(self)

    def __le__(self, other: "Elem"):
        if not isinstance(other, Elem):
            return NotImplemented
        return natural_leq(self, other)

    def __ge__(self, other: "Elem"):
        if not isinstance(other, Elem):
            return NotImplemented
        return natural_leq(other, self)


_set_a, _set_b = Elem.a.__set__, Elem.b.__set__


def _elem(a: Fraction, b: Fraction) -> Elem:
    """Trusted construction: the caller guarantees two non-negative Fractions."""
    e = object.__new__(Elem)
    _set_a(e, a)
    _set_b(e, b)
    return e


class ZeroType:
    """The adjoined absorbing zero.  A singleton; use the ``ZERO`` constant."""

    _instance: Optional["ZeroType"] = None

    def __new__(cls) -> "ZeroType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "0"


ZERO = ZeroType()

ExtElem = Union[Elem, ZeroType]


class Sign(Enum):
    PLUS = "+"
    MINUS = "-"


@dataclass(frozen=True, slots=True)
class LineRef:
    """Handle for one diagonal line: all (x, x+alpha) for PLUS, (x+alpha, x) for MINUS.

    The two lines with alpha = 0 coincide, so that case is canonicalised to PLUS.
    """

    sign: Sign
    alpha: Fraction

    def __post_init__(self) -> None:
        alpha = scalar(self.alpha)
        sign = self.sign if alpha.numerator else Sign.PLUS
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "sign", sign)

    def __str__(self) -> str:
        return f"L{self.sign.value}{format_scalar(self.alpha)}"


_set_sign, _set_alpha = LineRef.sign.__set__, LineRef.alpha.__set__


def _line(sign: Sign, alpha: Fraction) -> LineRef:
    """Trusted construction: the caller guarantees a non-negative Fraction
    ``alpha``, positive when ``sign`` is MINUS (the canonical form)."""
    line = object.__new__(LineRef)
    _set_sign(line, sign)
    _set_alpha(line, alpha)
    return line


def mul(e1: Elem, e2: Elem) -> Elem:
    """Semigroup product (a+c-min(b,c), b+d-min(b,c)) by its case split on the gap
    c - b = g/q (unreduced): (a + g/q, d), (a, d) or (a, d - g/q) as g > 0, = 0 or
    < 0.  Each builds at most one Fraction and adds only a positive amount."""
    a, b, c, d = e1.a, e1.b, e2.a, e2.b
    q = b.denominator * c.denominator
    g = c.numerator * b.denominator - b.numerator * c.denominator
    if g > 0:
        return _elem(Fraction(a.numerator * q + g * a.denominator, a.denominator * q), d)
    if g == 0:
        return _elem(a, d)
    return _elem(a, Fraction(d.numerator * q - g * d.denominator, d.denominator * q))


def mul_branch(e1: Elem, e2: Elem) -> str:
    """Which case of the product's case split applies: ``lt``/``eq``/``gt``
    according as the left factor's second coordinate compares to the right
    factor's first, read off the sign of the same integer gap as ``mul``."""
    b, c = e1.b, e2.a
    g = c.numerator * b.denominator - b.numerator * c.denominator
    if g > 0:
        return "lt"
    if g == 0:
        return "eq"
    return "gt"


def mul_ext(e1: ExtElem, e2: ExtElem) -> ExtElem:
    """Product on the quadrant with adjoined zero; zero absorbs."""
    if e1 is ZERO or e2 is ZERO:
        return ZERO
    return mul(e1, e2)


def inv(e: Elem) -> Elem:
    """The unique inverse: coordinate swap."""
    return _elem(e.b, e.a)  # the coordinates of a checked element


def inv_ext(e: ExtElem) -> ExtElem:
    return ZERO if e is ZERO else inv(e)


def is_idempotent(e: Elem) -> bool:
    """True exactly for diagonal points (u, u)."""
    return e.a == e.b


def natural_leq(e1: Elem, e2: Elem) -> bool:
    """Natural partial order of the inverse semigroup.

    (a, b) lies below (c, d) iff a >= c and a - b = c - d, i.e. e1 is e2
    pushed up the diagonal by a non-negative amount: a - c = b - d >= 0.
    Both gaps are compared as unreduced integer ratios over the products of
    their denominators, so no Fraction is built.
    """
    a, b, c, d = e1.a, e1.b, e2.a, e2.b
    x = a.numerator * c.denominator - c.numerator * a.denominator
    if x < 0:
        return False
    y = b.numerator * d.denominator - d.numerator * b.denominator
    return x * b.denominator * d.denominator == y * a.denominator * c.denominator


def natural_leq_ext(e1: ExtElem, e2: ExtElem) -> bool:
    """Order on the extension: zero is the least element."""
    if e1 is ZERO:
        return True
    if e2 is ZERO:
        return False
    return natural_leq(e1, e2)


def leq_witness(e1: Elem, e2: Elem) -> Optional[Elem]:
    """If e1 lies below e2, the canonical idempotent f with e2 * f = e1.

    Returns (b1, b1), the right-multiplier witness; None when incomparable.
    """
    if not natural_leq(e1, e2):
        return None
    return _elem(e1.b, e1.b)  # a coordinate of a checked element


def classify_line(e: Elem) -> Tuple[LineRef, Fraction]:
    """The unique diagonal line through ``e`` and its line parameter x.

    The side is the sign of the integer cross-product g = (b - a) * q with
    q the product of the denominators; the offset is |g| / q."""
    a, b = e.a, e.b
    q = a.denominator * b.denominator
    g = b.numerator * a.denominator - a.numerator * b.denominator
    if g >= 0:
        return _line(Sign.PLUS, Fraction(g, q)), a  # b >= a, so alpha = b - a >= 0
    return _line(Sign.MINUS, Fraction(-g, q)), b  # a > b, so alpha = a - b > 0


def line_point(line: LineRef, x: ScalarLike) -> Elem:
    """The point of ``line`` with parameter ``x`` (inverse of classify_line)."""
    x = scalar(x)  # checked here, and alpha was checked by LineRef
    if line.sign is Sign.PLUS:
        return _elem(x, x + line.alpha)
    return _elem(x + line.alpha, x)
