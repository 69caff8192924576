"""Differential test of the integer point layer.

Points and line offsets are held as lowest-terms integer pairs and the
product, order, line and order-geometry operations compute on those
integers.  Here each operation is checked against its defining formula on
Fractions, written out below, over seeded draws from both generator modes,
and every point, line and draw is checked to hold its integers in lowest
terms: a pair that is not would compare unequal to the same value.
"""

import itertools
from fractions import Fraction as F
from math import gcd

import pytest

from realbicyclic import (
    DownRay,
    Elem,
    FullLine,
    LineRef,
    Side,
    Sign,
    classify_line,
    factor_in_line_product,
    inv,
    leq_witness,
    line_point,
    line_product,
    mul,
    natural_leq,
    preimage_up_segment,
    shrink_witness,
    shrink_witness_dual,
    up_set,
)
from realbicyclic.generate import GenConfig, IntegerMode, RationalMode, gen_elem
from realbicyclic.semigroup import _sum

PAIRS = 4000
MODES = [RationalMode(30, 8), IntegerMode(25)]


def lowest(num, den):
    return den >= 1 and gcd(num, den) == 1


def checked(e):
    """``e`` as its two Fractions, after checking its integer pairs."""
    an, ad, bn, bd = e._q
    assert lowest(an, ad) and lowest(bn, bd) and an >= 0 and bn >= 0, e._q
    assert (e.a, e.b) == (F(an, ad), F(bn, bd))
    return e.a, e.b


def checked_line(line):
    """``line`` as (sign, alpha), after checking its integer pair."""
    n, d = line._alpha
    assert lowest(n, d) and n >= 0 and (n > 0 or line.sign is Sign.PLUS), line._alpha
    assert line.alpha == F(n, d)
    return line.sign, line.alpha


def ref_mul(p, q):
    (a, b), (c, d) = p, q
    m = min(b, c)
    return a + c - m, b + d - m


def ref_leq(p, q):
    (a, b), (c, d) = p, q
    return a >= c and a - b == c - d


def ref_line(p):
    a, b = p
    return ((Sign.PLUS, b - a), a) if b >= a else ((Sign.MINUS, a - b), b)


def ref_line_point(sign, alpha, x):
    return (x, x + alpha) if sign is Sign.PLUS else (x + alpha, x)


def ref_line_product(l1, l2):
    """('line', sign, alpha) or ('down', base) of the two lines' product."""
    (s1, a1), (s2, a2) = l1, l2
    if s1 is s2:
        return ("line", s1, a1 + a2)
    if s1 is Sign.PLUS:
        return ("line", Sign.PLUS, a1 - a2) if a1 >= a2 else ("line", Sign.MINUS, a2 - a1)
    return ("down", (a1, a2))


def ref_on_line(sign, alpha, p):
    a, b = p
    return (b - a if sign is Sign.PLUS else a - b) == alpha


def ref_preimage(side, t, top):
    (ta, tb), (p, q) = t, top
    if side is Side.LEFT:
        return None if ta > p else (p - ta + tb, q)
    return None if tb > q else (p, q - tb + ta)


def draws(mode, seed):
    return itertools.islice(gen_elem(GenConfig(seed=seed, scalar_mode=mode)), 2 * PAIRS)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: type(m).__name__)
def test_gen_elem_draws_in_lowest_terms(mode):
    for e in draws(mode, 12):
        checked(e)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: type(m).__name__)
def test_semigroup_layer_matches_fraction_formulas(mode):
    stream = draws(mode, 13)
    for e1, e2 in zip(stream, stream):
        p, q = checked(e1), checked(e2)
        assert checked(mul(e1, e2)) == ref_mul(p, q)
        assert checked(mul(e1, e1)) == ref_mul(p, p)
        assert checked(inv(e1)) == (p[1], p[0])
        below = mul(e2, Elem(p[1], p[1]))  # below e2 by construction
        for x, y in ((e1, e2), (below, e2), (e2, e2)):
            px, py = checked(x), checked(y)
            assert natural_leq(x, y) is ref_leq(px, py)
            w = leq_witness(x, y)
            if ref_leq(px, py):
                assert checked(w) == (px[1], px[1])
            else:
                assert w is None
        line, x = classify_line(e1)
        (sign, alpha), want_x = ref_line(p)
        assert checked_line(line) == (sign, alpha) and x == want_x and type(x) is F
        for t in (x, q[0], q[1]):
            assert checked(line_point(line, t)) == ref_line_point(sign, alpha, t)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: type(m).__name__)
def test_line_layer_matches_fraction_formulas(mode):
    stream = draws(mode, 14)
    for i, (e1, e2) in enumerate(zip(stream, stream)):
        p, q = checked(e1), checked(e2)
        signs = ((Sign.PLUS, Sign.MINUS)[i % 2], (Sign.PLUS, Sign.MINUS)[i // 2 % 2])
        l1, l2 = LineRef(signs[0], p[0]), LineRef(signs[1], p[1])
        r1, r2 = checked_line(l1), checked_line(l2)
        prod = line_product(l1, l2)
        want = ref_line_product(r1, r2)
        if want[0] == "down":
            assert type(prod) is DownRay and not prod.punctured
            assert checked(prod.base) == want[1]
            target = ref_mul(want[1], (q[0], q[0]))  # on the down-ray
        else:
            assert type(prod) is FullLine
            assert checked_line(prod.line) == want[1:]
            target = ref_line_point(*want[1:], q[0])
        # membership of a point of the product and of the two draws
        for point in (target, p, q):
            e = Elem(*point)
            if want[0] == "line":
                assert prod.member(e) is ref_on_line(*want[1:], point)
            else:
                assert prod.member(e) is ref_leq(point, want[1])
            for line, ref in ((l1, r1), (l2, r2)):
                assert FullLine(line).member(e) is ref_on_line(*ref, point)
        f1, f2 = factor_in_line_product(Elem(*target), l1, l2)
        assert ref_on_line(*r1, checked(f1)) and ref_on_line(*r2, checked(f2))
        assert ref_mul(checked(f1), checked(f2)) == target


@pytest.mark.parametrize("mode", MODES, ids=lambda m: type(m).__name__)
def test_order_geometry_matches_fraction_formulas(mode):
    stream = draws(mode, 15)
    for e0, e1 in zip(stream, stream):
        p, q = checked(e0), checked(e1)
        (a0, b0), (a1, b1) = p, q
        w = shrink_witness(e0, e1)
        assert checked(w) == (a1 + a0 + b0, a0 + a0 + b1)
        assert ref_leq(ref_mul(p, checked(w)), q)
        wd = shrink_witness_dual(e0, e1)
        assert checked(wd) == (b0 + b0 + a1, b1 + b0 + a0)
        assert ref_leq(ref_mul(checked(wd), p), q)
        for side in (Side.LEFT, Side.RIGHT):
            pre = preimage_up_segment(side, e0, up_set(e1))
            want = ref_preimage(side, p, q)
            assert (pre if pre is None else checked(pre.top)) == want


def test_sum_is_in_lowest_terms():
    values = [F(n, d) for n in range(-13, 14) for d in (1, 2, 3, 4, 6, 8, 9, 12)]
    for x, y in itertools.product(values[::3], values[1::4]):
        n, d = _sum(x.numerator, x.denominator, y.numerator, y.denominator)
        assert lowest(n, d) and F(n, d) == x + y, (x, y)
