"""Exact arithmetic for the pair semigroup on the non-negative rational quadrant.

Elements are pairs (a, b) of non-negative rationals with the operation

    (a, b) * (c, d) = (a + c - min(b, c), b + d - min(b, c))

under which the quadrant is a bisimple inverse monoid with identity (0, 0).
Restricted to non-negative integers this is the bicyclic monoid.  Every
coordinate is held as a lowest-terms pair of integers (numerator, denominator
>= 1) and exposed as an exact ``fractions.Fraction``, so equality of values is
equality of the integer pairs and no comparison ever touches floating point.

Besides multiplication the module provides the adjoined absorbing zero,
inversion (coordinate swap), idempotents, the natural partial order, and the
partition of the quadrant into diagonal lines of constant offset ``b - a``.
All values are immutable and all operations are pure functions.
``Elem(a, b)`` and ``LineRef(sign, alpha)`` check their arguments; closed
operations build results that lie in the quadrant by construction with the
unchecked internal ``_elem`` and ``_line`` from integers, compare rationals
as integer cross-products, and sum them in lowest terms with ``_sum``.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd
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
    return _format(f.numerator, f.denominator)


def _format(num: int, den: int) -> str:
    return str(num) if den == 1 else f"{num}/{den}"


# Fraction(num, den), memoised: coordinates repeat and Fractions are immutable.
# The one route from the integer representation back to Fractions.
_fraction = lru_cache(maxsize=4096)(Fraction)


class _Frozen:
    """Immutability as in a frozen dataclass: no attribute can be assigned or
    deleted.  Constructors set the slots through their descriptors."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Elem(_Frozen):
    """A point (a, b) of the quadrant, immutable and hashable.

    Each coordinate is held as a lowest-terms numerator and denominator
    (denominator >= 1); ``a`` and ``b`` read them back as Fractions.  Equality
    compares the integers and the hash is that of ``(a, b)``.
    """

    __slots__ = ("_q",)  # (a's numerator, a's denominator, b's numerator, b's denominator)

    def __init__(self, a: ScalarLike, b: ScalarLike) -> None:
        if type(a) is not Fraction or type(b) is not Fraction:
            a, b = scalar(a), scalar(b)
        elif a.numerator < 0 or b.numerator < 0:
            raise ValueError(f"negative coordinate: ({a}, {b})")
        _set_q(self, (a.numerator, a.denominator, b.numerator, b.denominator))

    @property
    def a(self) -> Fraction:
        q = self._q
        return _fraction(q[0], q[1])

    @property
    def b(self) -> Fraction:
        q = self._q
        return _fraction(q[2], q[3])

    def __reduce__(self):
        return _elem, self._q

    def __eq__(self, other: object):
        if type(other) is Elem:
            return self._q == other._q
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __str__(self) -> str:
        an, ad, bn, bd = self._q
        return f"({_format(an, ad)},{_format(bn, bd)})"

    def __repr__(self) -> str:
        an, ad, bn, bd = self._q
        return f"Elem({_format(an, ad)!r}, {_format(bn, bd)!r})"

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


_new = object.__new__
_set_q = Elem._q.__set__


def _elem(an: int, ad: int, bn: int, bd: int) -> Elem:
    """Trusted construction: the caller guarantees the point (an/ad, bn/bd)
    with non-negative numerators, positive denominators and lowest terms."""
    e = _new(Elem)
    _set_q(e, (an, ad, bn, bd))
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


class LineRef(_Frozen):
    """Handle for one diagonal line: all (x, x+alpha) for PLUS, (x+alpha, x) for MINUS.

    The two lines with alpha = 0 coincide, so that case is canonicalised to PLUS.
    Like ``Elem`` it is immutable and holds ``alpha`` as a lowest-terms
    numerator and denominator, read back as a Fraction.
    """

    __slots__ = ("sign", "_alpha")  # _alpha: (numerator, denominator)

    def __init__(self, sign: Sign, alpha: ScalarLike) -> None:
        alpha = scalar(alpha)
        _set_sign(self, sign if alpha.numerator else Sign.PLUS)
        _set_alpha(self, (alpha.numerator, alpha.denominator))

    @property
    def alpha(self) -> Fraction:
        return _fraction(*self._alpha)

    def __reduce__(self):
        return _line, (self.sign, *self._alpha)

    def __eq__(self, other: object):
        if type(other) is LineRef:
            return self.sign is other.sign and self._alpha == other._alpha
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.sign, self.alpha))

    def __str__(self) -> str:
        return f"L{self.sign.value}{_format(*self._alpha)}"

    def __repr__(self) -> str:
        return f"LineRef(sign={self.sign!r}, alpha={self.alpha!r})"


_set_sign, _set_alpha = LineRef.sign.__set__, LineRef._alpha.__set__


def _line(sign: Sign, num: int, den: int) -> LineRef:
    """Trusted construction: the caller guarantees a non-negative ``num/den``
    in lowest terms, positive when ``sign`` is MINUS (the canonical form)."""
    line = _new(LineRef)
    _set_sign(line, sign)
    _set_alpha(line, (num, den))
    return line


def _sum(an: int, ad: int, bn: int, bd: int) -> Tuple[int, int]:
    """an/ad + bn/bd in lowest terms, for summands in lowest terms (numerators
    of either sign, denominators positive).  As in ``fractions``, only the
    common factor g of the denominators can cancel."""
    g = gcd(ad, bd)
    if g == 1:
        return an * bd + bn * ad, ad * bd
    s = ad // g
    t = an * (bd // g) + bn * s
    g = gcd(t, g)
    return t // g, s * (bd // g)


def mul(e1: Elem, e2: Elem) -> Elem:
    """Semigroup product (a+c-min(b,c), b+d-min(b,c)) by its case split on the gap
    c - b = g/q (unreduced): (a + g/q, d), (a, d) or (a, d - g/q) as g > 0, = 0 or
    < 0.  Only the one coordinate that moves is summed, and reduced by one gcd."""
    an, ad, bn, bd = e1._q
    cn, cd, dn, dd = e2._q
    g = cn * bd - bn * cd
    if g == 0:
        return _elem(an, ad, dn, dd)
    q = bd * cd
    if g > 0:
        n, d = an * q + g * ad, ad * q
        k = gcd(n, d)
        return _elem(n // k, d // k, dn, dd)
    n, d = dn * q - g * dd, dd * q
    k = gcd(n, d)
    return _elem(an, ad, n // k, d // k)


def mul_branch(e1: Elem, e2: Elem) -> str:
    """Which case of the product's case split applies: ``lt``/``eq``/``gt``
    according as the left factor's second coordinate compares to the right
    factor's first, read off the sign of the same integer gap as ``mul``."""
    _, _, bn, bd = e1._q
    cn, cd, _, _ = e2._q
    g = cn * bd - bn * cd
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
    an, ad, bn, bd = e._q
    return _elem(bn, bd, an, ad)


def inv_ext(e: ExtElem) -> ExtElem:
    return ZERO if e is ZERO else inv(e)


def is_idempotent(e: Elem) -> bool:
    """True exactly for diagonal points (u, u)."""
    an, ad, bn, bd = e._q
    return an == bn and ad == bd


def natural_leq(e1: Elem, e2: Elem) -> bool:
    """Natural partial order of the inverse semigroup.

    (a, b) lies below (c, d) iff a >= c and a - b = c - d, i.e. e1 is e2
    pushed up the diagonal by a non-negative amount: a - c = b - d >= 0.
    Both gaps are compared as unreduced integer ratios over the products of
    their denominators.
    """
    an, ad, bn, bd = e1._q
    cn, cd, dn, dd = e2._q
    x = an * cd - cn * ad
    if x < 0:
        return False
    y = bn * dd - dn * bd
    return x * bd * dd == y * ad * cd


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
    _, _, bn, bd = e1._q
    return _elem(bn, bd, bn, bd)


def classify_line(e: Elem) -> Tuple[LineRef, Fraction]:
    """The unique diagonal line through ``e`` and its line parameter x.

    The side is the sign of b - a, the offset its absolute value, and x the
    smaller coordinate."""
    an, ad, bn, bd = e._q
    n, d = _sum(bn, bd, -an, ad)
    if n >= 0:
        return _line(Sign.PLUS, n, d), _fraction(an, ad)  # b >= a
    return _line(Sign.MINUS, -n, d), _fraction(bn, bd)  # a > b


def line_point(line: LineRef, x: ScalarLike) -> Elem:
    """The point of ``line`` with parameter ``x`` (inverse of classify_line)."""
    x = scalar(x)  # checked here, and alpha was checked by LineRef
    xn, xd = x.numerator, x.denominator
    n, d = _sum(xn, xd, *line._alpha)
    if line.sign is Sign.PLUS:
        return _elem(xn, xd, n, d)
    return _elem(n, d, xn, xd)
