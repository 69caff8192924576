"""Neighbourhood models for topologies on the quadrant and its zero extension.

Three basic-neighbourhood shapes, all with exact rational membership:

* ``NbhdOrder`` -- interval of one diagonal line around a point, a base for
  the topology generated by the natural partial order (each line is open and
  closed there);
* ``NbhdAc1`` -- zero neighbourhood in the one-point compactification of the
  plane topology: zero together with every point with a coordinate beyond a
  threshold;
* ``NbhdAc2`` -- zero neighbourhood in the one-point compactification of the
  order topology: the complement of a finite union of up-segments.

The three classes check their arguments; ``_ac1`` and ``_ac2`` are the
zero-neighbourhood classes' trusted constructors (see ``semigroup``), for the
certificate generator and reader.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .semigroup import (
    Elem,
    ExtElem,
    ZERO,
    ZeroType,
    _check_field,
    _not_a,
    _trusted,
    classify_line,
    inv,
    natural_leq,
    scalar,
)


def _positive(value) -> Fraction:
    f = scalar(value)
    if f == 0:
        raise ValueError("size parameter must be positive")
    return f


@dataclass(frozen=True)
class NbhdOrder:
    """Points of the center's diagonal line whose parameter is within epsilon."""

    center: Elem
    epsilon: Fraction

    def __post_init__(self) -> None:
        _check_field("center", self.center, Elem)
        object.__setattr__(self, "epsilon", _positive(self.epsilon))

    def member(self, e: ExtElem) -> bool:
        if e is ZERO:
            return False
        line_e, x_e = classify_line(e)
        line_c, x_c = classify_line(self.center)
        return line_e == line_c and abs(x_e - x_c) < self.epsilon


@dataclass(frozen=True, slots=True)
class NbhdAc1:
    """Zero plus every point with a coordinate strictly beyond ``n``."""

    n: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _positive(self.n))

    def member(self, e: ExtElem) -> bool:
        if e is ZERO:
            return True
        try:
            an, ad, bn, bd = e._q
        except AttributeError:
            raise _not_a("e", e, (Elem, ZeroType)) from None
        nn, nd = self.n.as_integer_ratio()
        return an * nd > nn * ad or bn * nd > nn * bd


@dataclass(frozen=True, slots=True)
class NbhdAc2:
    """Zero plus every point outside the up-segments of the listed tops."""

    tops: tuple[Elem, ...]

    def __post_init__(self) -> None:
        tops = tuple(self.tops)
        if not tops:
            raise ValueError("neighbourhood needs at least one excluded up-segment")
        for top in tops:
            _check_field("tops", top, Elem)
        object.__setattr__(self, "tops", tops)

    def member(self, e: ExtElem) -> bool:
        if e is ZERO:
            return True
        try:
            e._q
        except AttributeError:
            raise _not_a("e", e, (Elem, ZeroType)) from None
        for top in self.tops:
            if natural_leq(top, e):
                return False
        return True


_ac1, _ac2 = _trusted(NbhdAc1), _trusted(NbhdAc2)

ZeroNbhd = NbhdAc1 | NbhdAc2


def nbhd_invert(nbhd: ZeroNbhd) -> ZeroNbhd:
    """The pointwise inverse image of a zero neighbourhood.

    Threshold neighbourhoods are fixed (the defining condition is symmetric in
    the coordinates); up-segment complements swap each excluded top.
    """
    if isinstance(nbhd, NbhdAc1):
        return nbhd
    if isinstance(nbhd, NbhdAc2):
        return NbhdAc2(tuple(inv(top) for top in nbhd.tops))
    raise _not_a("nbhd", nbhd, (NbhdAc1, NbhdAc2))
