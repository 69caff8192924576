"""Symbolic set algebra over the natural partial order of the quadrant.

The pieces are the order-defined subsets that one-sided multiplication can
produce from diagonal lines: down-rays (principal down-sets, optionally
punctured at the base), up-segments (principal up-sets, which are closed
segments reaching the quadrant boundary), and full diagonal lines.

The operations compute, in exact rational arithmetic: products of lines with
constructive factorisations, the right/left shrink witnesses that squeeze a
translated down-ray below a prescribed point, exact translation images of
down-rays, and exact preimages of up-segments under one-sided multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple, Union

from .semigroup import (
    Elem,
    LineRef,
    Sign,
    _elem,
    _line,
    _sum,
    inv,
    mul,
    natural_leq,
)


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class DownRay:
    """All points lying below ``base``:  {base + (t, t) : t >= 0}.

    With ``punctured`` the base itself is excluded.
    """

    base: Elem
    punctured: bool = False

    def member(self, e: Elem) -> bool:
        if self.punctured and e == self.base:
            return False
        return natural_leq(e, self.base)

    def __str__(self) -> str:
        mark = "*" if self.punctured else ""
        return f"down{mark}{self.base}"


@dataclass(frozen=True)
class UpSegment:
    """All points lying above ``top``: the segment from ``top`` to the boundary,
    {top - (t, t) : 0 <= t <= min(top.a, top.b)}."""

    top: Elem

    def member(self, e: Elem) -> bool:
        return natural_leq(self.top, e)

    def __str__(self) -> str:
        return f"up{self.top}"


@dataclass(frozen=True)
class FullLine:
    line: LineRef

    def member(self, e: Elem) -> bool:
        """Whether ``e`` has the line's signed offset: (b - a) * q, with q the
        product of e's denominators, equals +-alpha * q on integers.  A
        canonical MINUS line has alpha > 0, so only one side can match."""
        an, ad, bn, bd = e._q
        line = self.line
        g = bn * ad - an * bd
        if line.sign is Sign.MINUS:
            g = -g
        n, d = line._alpha
        return g * d == n * ad * bd

    def __str__(self) -> str:
        return str(self.line)


def down_set(e: Elem, punctured: bool = False) -> DownRay:
    return DownRay(e, punctured)


def up_set(e: Elem) -> UpSegment:
    return UpSegment(e)


def line_product(l1: LineRef, l2: LineRef) -> Union[FullLine, DownRay]:
    """The exact product set of two diagonal lines.

    Like-signed lines multiply to the line with the offsets added; a PLUS
    followed by a MINUS collapses to the line of the offset difference; a
    MINUS followed by a PLUS is not a whole line but the down-ray below
    (alpha1, alpha2).
    """
    (n1, d1), (n2, d2) = l1._alpha, l2._alpha
    if l1.sign is l2.sign:
        return FullLine(_line(l1.sign, *_sum(n1, d1, n2, d2)))  # > 0 if both MINUS
    if l1.sign is Sign.PLUS:
        n, d = _sum(n1, d1, -n2, d2)  # a1 - a2
        if n >= 0:
            return FullLine(_line(Sign.PLUS, n, d))
        return FullLine(_line(Sign.MINUS, -n, d))
    return DownRay(_elem(n1, d1, n2, d2))  # two offsets, both >= 0


class NotInProduct(ValueError):
    """Raised when a factorisation target is outside the stated product set."""


def factor_in_line_product(target: Elem, l1: LineRef, l2: LineRef) -> Tuple[Elem, Elem]:
    """Split ``target`` as e1 * e2 with e1 on ``l1`` and e2 on ``l2``.

    The choice is deterministic: one factor sits at the start of its line or
    ties its middle coordinate to the other's, which pins both factors given
    the target's parameter.
    """
    prod = line_product(l1, l2)
    if not prod.member(target):
        raise NotInProduct(f"{target} is not in {l1} * {l2} = {prod}")
    # every factor coordinate is a target coordinate x, an offset, or a sum of
    # the two, so each is non-negative
    (n1, d1), (n2, d2) = l1._alpha, l2._alpha
    an, ad, bn, bd = target._q
    if l1.sign is l2.sign:
        if l1.sign is Sign.PLUS:  # x = target.a: (x, x + a1), (0, a2)
            return _elem(an, ad, *_sum(an, ad, n1, d1)), _elem(0, 1, n2, d2)
        # x = target.b: (a1, 0), (x + a2, x)
        return _elem(n1, d1, 0, 1), _elem(*_sum(bn, bd, n2, d2), bn, bd)
    if l1.sign is Sign.PLUS:
        # the product's offset: a1 - a2 >= 0 on PLUS, a2 - a1 > 0 on MINUS
        gn, gd = prod.line._alpha
        if prod.line.sign is Sign.PLUS:  # x = target.a: (x, x + a1), (x + a1, x + gap)
            s = _sum(an, ad, n1, d1)
            return _elem(an, ad, *s), _elem(*s, *_sum(an, ad, gn, gd))
        # x = target.b: (x + gap, x + a2), (x + a2, x)
        s = _sum(bn, bd, n2, d2)
        return _elem(*_sum(bn, bd, gn, gd), *s), _elem(*s, bn, bd)
    # target = (a1 + t, a2 + t) lies on the down-ray below (a1, a2), checked
    # above, so t = target.a - a1 >= 0: (target.a, t), (t, target.b)
    tn, td = _sum(an, ad, -n1, d1)
    return _elem(an, ad, tn, td), _elem(tn, td, bn, bd)


def shrink_witness(e0: Elem, e1: Elem) -> Elem:
    """The least (c, d) with e0 * (c, d) below e1, hereditarily.

    c is pinned to e1.a + e0.a + e0.b (the smallest choice that works) and d
    follows so the diagonal offsets match.  Every point below the returned
    witness keeps the containment: e0 * s lies below e1 whenever s lies below
    the witness.
    """
    an, ad, bn, bd = e0._q
    cn, cd, dn, dd = e1._q
    c = _sum(*_sum(cn, cd, an, ad), bn, bd)  # e1.a + e0.a + e0.b
    d = _sum(*_sum(an, ad, an, ad), dn, dd)  # e0.a + e0.a + e1.b
    return _elem(*c, *d)  # d - c = (e0.a - e0.b) + (e1.b - e1.a)


def shrink_witness_dual(e0: Elem, e1: Elem) -> Elem:
    """Mirror witness for right multiplication: (c, d) * e0 lies below e1.

    Obtained from ``shrink_witness`` through the coordinate-swap involution,
    which reverses products and preserves the order.
    """
    return inv(shrink_witness(inv(e0), inv(e1)))


def translate_down_ray(side: Side, t: Elem, r: DownRay) -> DownRay:
    """The exact image of a down-ray under one-sided multiplication by ``t``.

    The image is always the full down-ray below the translated base.  When the
    translation folds an initial piece of the ray onto the image base (left:
    t.b exceeds the base's first coordinate; right: t.a exceeds the base's
    second), a punctured source still covers the image base, so the image is
    unpunctured; otherwise the translation is injective on the ray and
    puncturing is preserved.
    """
    if side is Side.LEFT:
        base = mul(t, r.base)
        collapsed = t.b > r.base.a
    else:
        base = mul(r.base, t)
        collapsed = t.a > r.base.b
    return DownRay(base, punctured=r.punctured and not collapsed)


def preimage_up_segment(side: Side, t: Elem, u: UpSegment) -> Optional[UpSegment]:
    """Exact solution set of ``t * s in u`` (left) or ``s * t in u`` (right).

    Both product coordinates subtract the same min term, so the image lands on
    u's diagonal iff s sits on one fixed diagonal; the threshold coordinate is
    piecewise affine and monotone along it, which makes the preimage a single
    up-segment, or empty (``None``) when the translator already overshoots the
    segment's top.
    """
    pn, pd, qn, qd = u.top._q
    an, ad, bn, bd = t._q
    # the moved coordinate is non-negative: the overshoot test rules out t.a > p
    # (left) and t.b > q (right)
    if side is Side.LEFT:
        if an * pd > pn * ad:
            return None
        return UpSegment(_elem(*_sum(*_sum(pn, pd, -an, ad), bn, bd), qn, qd))  # p - t.a + t.b
    if bn * qd > qn * bd:
        return None
    return UpSegment(_elem(pn, pd, *_sum(*_sum(qn, qd, -bn, bd), an, ad)))  # q - t.b + t.a
