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
The package imports no ``typing``: annotations and type aliases are written
with builtins, ``|`` and ``collections.abc`` (``Elem | ZeroType``,
``tuple[...]``), never ``typing.Union[...]``, because a ``typing``
subscription caches its arguments for the life of the process and so would
keep every re-import's classes and modules alive.
``Elem(a, b)`` and ``LineRef(sign, alpha)`` check their arguments, every
operation on points raises a ``TypeError`` naming an operand that is no
``Elem``, and ``line_literal`` reads a line from its text (``"L-1/2"``).  ``Elem``
stores two non-negative plain ints as they are and reads two Fractions with
one ``as_integer_ratio`` each; every other argument goes through ``scalar``.
Rationals are compared as integer cross-products and summed in lowest terms
with ``_sum``.  The hot paths read enum members as module constants
(``_PLUS``, ``_MINUS``, ``order_geometry._LEFT`` and ``_RIGHT``), a member's
text as ``_value_`` and a Fraction's integers with one
``as_integer_ratio()``, because on CPython 3.11 ``Sign.PLUS`` runs
``EnumType.__getattr__`` (109 ns against 21 ns for a plain class attribute;
41-44 ns against 18-24 ns on 3.12 and 3.13), ``.value`` is an
``enum.property`` (126 ns against 10 ns) and ``.numerator`` with
``.denominator`` are two Python properties (119 ns against 52 ns).

Trusted construction.  Code holding checked values skips the public
constructors' checks: a trusted constructor sets the slots of a bare instance
(``_new``) through their descriptors and runs no ``__init__`` or
``__post_init__``.  Its caller guarantees all that those checks establish
(declared types, Fractions in lowest terms, a canonical line sign, a positive
threshold, a non-empty tuple), and the record is then the one the public
constructor builds: same type, equal, equally hashed.  ``_elem`` and ``_line``
build points and lines (``mul``, ``inv`` and ``gen_elem`` set ``Elem._q`` with
``_set_q``); ``_trusted(cls)`` generates one for a frozen slotted dataclass.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Callable
from dataclasses import MISSING, FrozenInstanceError, fields
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd

ScalarLike = Fraction | int | str

# The scalar grammar of every text input (``scalar`` of a string, the
# expression language, the CLI's lines): ASCII digits, optionally followed by
# "/" and a denominator or by "." and decimal digits.
SCALAR_LITERAL = re.compile(r"([0-9]+)(?:/([0-9]+)|(\.[0-9]+))?")
_NOT_A_SCALAR = "not a scalar (digits, digits/digits or digits.digits): {!r}"


def literal_ratio(whole: str, den: str | None, decimals: str | None) -> tuple[int, int]:
    """The exact value, as a lowest-terms (numerator, denominator), of the
    three groups of a ``SCALAR_LITERAL`` match (a finite decimal converts
    exactly).  Raises ``TooLarge`` for a number past the digit limit, then
    ``ValueError`` for a zero denominator."""
    try:
        if decimals is not None:
            return Fraction(whole + decimals).as_integer_ratio()
        num = int(whole)
        if den is None:
            return num, 1
        d = int(den)
    except ValueError:  # digits only, so the one refusal is the digit limit
        raise TooLarge() from None
    if d == 0:
        raise ValueError(f"zero denominator: {whole + '/' + den!r}")
    g = gcd(num, d)
    return num // g, d // g


def scalar(value: ScalarLike) -> Fraction:
    """Coerce ``value`` to a non-negative exact rational.

    Accepts Fractions, ints, and strings in the ``SCALAR_LITERAL`` grammar
    such as ``"3"``, ``"3/4"`` or ``"1.25"``.  Raises ``ValueError`` for
    negative inputs, for any other string (signs, spaces, exponents,
    underscores, non-ASCII digits), for a zero denominator, and for floats
    and bools, which are not exact rationals; its subclass ``TooLarge`` for
    a string with a number past the digit limit.
    """
    if type(value) is Fraction:
        f = value
    elif isinstance(value, (float, bool)):
        raise ValueError(f"not an exact scalar: {value!r}")
    elif isinstance(value, str):
        m = SCALAR_LITERAL.fullmatch(value)
        if m is None:
            raise ValueError(_NOT_A_SCALAR.format(value))
        f = Fraction(*literal_ratio(*m.groups()))
    else:
        f = Fraction(value)
    if f.numerator < 0:
        raise ValueError(f"negative scalar: {value!r}")
    return f


class TooLarge(ValueError):
    """A number has more digits than the interpreter converts between an int
    and decimal text (``sys.get_int_max_str_digits()``, read and never set)."""

    def __init__(self) -> None:
        super().__init__(f"a number has more than {sys.get_int_max_str_digits()} digits")


def _format(num: int, den: int) -> str:
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # int to str past the digit limit
        raise TooLarge() from None


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
        if type(a) is int and type(b) is int and a >= 0 and b >= 0:
            _set_q(self, (a, 1, b, 1))
        elif type(a) is Fraction and type(b) is Fraction:
            an, ad = a.as_integer_ratio()
            bn, bd = b.as_integer_ratio()
            if an < 0 or bn < 0:
                raise ValueError(f"negative coordinate: ({a}, {b})")
            _set_q(self, (an, ad, bn, bd))
        else:  # also a negative int, for scalar's message
            a, b = scalar(a), scalar(b)
            _set_q(self, (*a.as_integer_ratio(), *b.as_integer_ratio()))

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


_new = object.__new__
_set_q = Elem._q.__set__


def _check_int(name: str, value: object) -> None:
    """Refuse a count or bound that is not an int, or is a bool."""
    if type(value) is bool or not isinstance(value, int):
        raise _not_a(name, value, int)


def _not_a(name: str, value: object, kind: type | tuple[type, ...]) -> TypeError:
    """The error for a field or argument ``value`` that is no ``kind`` (or tuple of kinds)."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    words = [("an " if k.__name__[0] in "AEIOUaeiou" else "a ") + k.__name__ for k in kinds]
    return TypeError(f"{name} must be {' or '.join(words)}, not {value!r}")


def _not_elems(e1: object, e2: object, names: tuple[str, str] = ("e1", "e2")) -> TypeError:
    """The error for the first of two operands that is no ``Elem``, named by ``names``."""
    if isinstance(e1, Elem):
        return _not_a(names[1], e2, Elem)
    return _not_a(names[0], e1, Elem)


def _check_field(name: str, value: object, kind: type | tuple[type, ...]) -> None:
    """The one check of a field or argument of type ``kind`` (or tuple of kinds)."""
    if not isinstance(value, kind):
        raise _not_a(name, value, kind)


def _trusted(cls: type) -> Callable[..., object]:
    """The trusted constructor of the frozen slotted dataclass ``cls``, its
    fields (with their defaults) as parameters.  Its code is generated, as
    ``dataclasses`` generates ``__init__``, to run as fast as one written out."""
    names = [f.name for f in fields(cls)]
    ns = {"__name__": cls.__module__, "__new": _new, "__cls": cls}
    ns.update((f"__set_{n}", getattr(cls, n).__set__) for n in names)
    sets = "".join(f"    __set_{n}(__self, {n})\n" for n in names)
    src = f"def trusted({', '.join(names)}):\n    __self = __new(__cls)\n{sets}    return __self\n"
    exec(compile(src, f"<trusted {cls.__qualname__}>", "exec"), ns)
    fn = ns["trusted"]
    fn.__defaults__ = tuple(f.default for f in fields(cls) if f.default is not MISSING)
    fn.__doc__ = f"Trusted constructor of {cls.__name__} (see ``semigroup._trusted``)."
    return fn


def _elem(an: int, ad: int, bn: int, bd: int) -> Elem:
    """Trusted construction: the caller guarantees the point (an/ad, bn/bd)
    with non-negative numerators, positive denominators and lowest terms."""
    e = _new(Elem)
    _set_q(e, (an, ad, bn, bd))
    return e


class ZeroType:
    """The adjoined absorbing zero.  A singleton; use the ``ZERO`` constant."""

    _instance: ZeroType | None = None

    def __new__(cls) -> ZeroType:
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "0"


ZERO = ZeroType()

ExtElem = Elem | ZeroType


class Sign(Enum):
    PLUS = "+"
    MINUS = "-"


_PLUS, _MINUS = Sign.PLUS, Sign.MINUS


class LineRef(_Frozen):
    """Handle for one diagonal line: all (x, x+alpha) for PLUS, (x+alpha, x) for MINUS.

    The two lines with alpha = 0 coincide, so that case is canonicalised to PLUS.
    Like ``Elem`` it is immutable and holds ``alpha`` as a lowest-terms
    numerator and denominator, read back as a Fraction.
    """

    __slots__ = ("sign", "_alpha")  # _alpha: (numerator, denominator)

    def __init__(self, sign: Sign, alpha: ScalarLike) -> None:
        if type(sign) is not Sign:  # _check_field's test, inline on the line paths
            raise _not_a("sign", sign, Sign)
        if type(alpha) is not Fraction:
            alpha = scalar(alpha)
        n, d = alpha.as_integer_ratio()
        if n < 0:  # scalar's refusal, for a Fraction that skipped it
            raise ValueError(f"negative scalar: {alpha!r}")
        _set_sign(self, sign if n else _PLUS)
        _set_alpha(self, (n, d))

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
        return f"L{self.sign._value_}{_format(*self._alpha)}"

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


_LINE_LITERAL = re.compile(r"L([+-])" + SCALAR_LITERAL.pattern)  # alpha: groups 2-4
_SIGNS = {"+": _PLUS, "-": _MINUS}


def line_literal(text: str) -> LineRef:
    """The line that ``text`` names: ``L+`` or ``L-`` and a scalar, such as
    ``"L+3"`` or ``"L-1/2"``.  It is ``LineRef(sign, scalar(alpha))``, read in
    one match and built from alpha's lowest-terms integers.  Raises what
    ``scalar`` raises for the text after the sign, ``ValueError`` for a text
    that does not start with ``L+`` or ``L-``, and ``TypeError`` for a
    ``text`` that is not a str."""
    _check_field("text", text, str)
    m = _LINE_LITERAL.fullmatch(text)
    if m is None:
        if text.startswith(("L+", "L-")):
            raise ValueError(_NOT_A_SCALAR.format(text[2:]))
        raise ValueError(f"not a line (L+ or L- and a scalar): {text!r}")
    num, den = literal_ratio(*m.group(2, 3, 4))
    return _line(_SIGNS[m.group(1)] if num else _PLUS, num, den)  # L-0 is L+0


def _sum(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
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
    try:
        an, ad, bn, bd = e1._q
        cn, cd, dn, dd = e2._q
    except AttributeError:
        raise _not_elems(e1, e2) from None
    g = cn * bd - bn * cd
    e = _new(Elem)
    if g == 0:
        _set_q(e, (an, ad, dn, dd))
        return e
    q = bd * cd
    if g > 0:
        n, d = an * q + g * ad, ad * q
        k = gcd(n, d)
        _set_q(e, (n // k, d // k, dn, dd))
        return e
    n, d = dn * q - g * dd, dd * q
    k = gcd(n, d)
    _set_q(e, (an, ad, n // k, d // k))
    return e


def mul_branch(e1: Elem, e2: Elem) -> str:
    """Which case of the product's case split applies: ``lt``/``eq``/``gt``
    according as the left factor's second coordinate compares to the right
    factor's first, read off the sign of the same integer gap as ``mul``."""
    try:
        _, _, bn, bd = e1._q
        cn, cd, _, _ = e2._q
    except AttributeError:
        raise _not_elems(e1, e2) from None
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
    try:
        an, ad, bn, bd = e._q
    except AttributeError:
        raise _not_a("e", e, Elem) from None
    r = _new(Elem)
    _set_q(r, (bn, bd, an, ad))
    return r


def inv_ext(e: ExtElem) -> ExtElem:
    return ZERO if e is ZERO else inv(e)


def is_idempotent(e: Elem) -> bool:
    """True exactly for diagonal points (u, u)."""
    try:
        an, ad, bn, bd = e._q
    except AttributeError:
        raise _not_a("e", e, Elem) from None
    return an == bn and ad == bd


def natural_leq(e1: Elem, e2: Elem) -> bool:
    """Natural partial order of the inverse semigroup.

    (a, b) lies below (c, d) iff a >= c and a - b = c - d, i.e. e1 is e2
    pushed up the diagonal by a non-negative amount: a - c = b - d >= 0.
    Both gaps are compared as unreduced integer ratios over the products of
    their denominators.
    """
    try:
        an, ad, bn, bd = e1._q
        cn, cd, dn, dd = e2._q
    except AttributeError:
        raise _not_elems(e1, e2) from None
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


def leq_witness(e1: Elem, e2: Elem) -> Elem | None:
    """If e1 lies below e2, the canonical idempotent f with e2 * f = e1.

    Returns (b1, b1), the right-multiplier witness; None when incomparable.
    """
    if not natural_leq(e1, e2):
        return None
    _, _, bn, bd = e1._q
    return _elem(bn, bd, bn, bd)


def classify_line(e: Elem) -> tuple[LineRef, Fraction]:
    """The unique diagonal line through ``e`` and its line parameter x.

    The side is the sign of b - a, the offset its absolute value, and x the
    smaller coordinate.  An ``e`` that is not an ``Elem`` is a ``TypeError``."""
    try:
        an, ad, bn, bd = e._q
    except AttributeError:
        raise _not_a("e", e, Elem) from None
    n, d = _sum(bn, bd, -an, ad)
    if n >= 0:
        return _line(_PLUS, n, d), _fraction(an, ad)  # b >= a
    return _line(_MINUS, -n, d), _fraction(bn, bd)  # a > b


def line_point(line: LineRef, x: ScalarLike) -> Elem:
    """The point of ``line`` with parameter ``x`` (inverse of classify_line).

    ``x`` is checked as ``scalar`` checks it (a Fraction is read directly),
    and a ``line`` that is not a ``LineRef`` is a ``TypeError``."""
    if type(x) is not Fraction:
        x = scalar(x)
    xn, xd = x.as_integer_ratio()
    if xn < 0:  # scalar's refusal, for a Fraction that skipped it
        raise ValueError(f"negative scalar: {x!r}")
    try:
        n, d = line._alpha  # checked by LineRef
    except AttributeError:
        raise _not_a("line", line, LineRef) from None
    n, d = _sum(xn, xd, n, d)
    e = _new(Elem)
    if line.sign is _PLUS:
        _set_q(e, (xn, xd, n, d))
    else:
        _set_q(e, (n, d, xn, xd))
    return e
