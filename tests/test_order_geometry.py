"""Down-rays, up-segments, line products, shrink witnesses, translation
images, and preimages; each checked against brute-force membership oracles."""

import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import elems, nonneg_scalars, small_elems, small_scalars
from realbicyclic import (
    DownRay,
    Elem,
    FullLine,
    LineRef,
    NotInProduct,
    Side,
    Sign,
    UpSegment,
    classify_line,
    down_set,
    factor_in_line_product,
    line_point,
    line_product,
    mul,
    natural_leq,
    preimage_up_segment,
    shrink_witness,
    shrink_witness_dual,
    translate_down_ray,
    up_set,
)

sides = st.sampled_from([Side.LEFT, Side.RIGHT])


def grid(step=F(1, 2), upto=4):
    """Rational lattice for exhaustive membership scans."""
    k = 0
    vals = []
    while k * step <= upto:
        vals.append(k * step)
        k += 1
    return [Elem(x, y) for x in vals for y in vals]


def test_down_set_examples():
    ray = down_set(Elem(0, 3))
    assert ray.member(Elem(2, 5))
    assert not ray.member(Elem(2, 4))
    punct = down_set(Elem(1, 1), punctured=True)
    assert not punct.member(Elem(1, 1))
    assert punct.member(Elem(2, 2))


def test_down_set_of_corner_is_line():
    # the down-set of (0, alpha) is exactly the plus line with that offset
    ray = down_set(Elem(0, 3))
    line = FullLine(LineRef(Sign.PLUS, 3))
    for e in grid():
        assert ray.member(e) == line.member(e)


def test_up_set_examples():
    seg = up_set(Elem(2, 3))
    assert seg.member(Elem(1, 2))
    assert not seg.member(Elem(3, 4))
    assert seg.member(Elem(2, 3))
    boundary = up_set(Elem(2, 0))
    members = [e for e in grid() if boundary.member(e)]
    assert members == [Elem(2, 0)]


@given(elems, elems)
def test_up_down_duality(e1, e2):
    assert natural_leq(e1, e2) == down_set(e2).member(e1) == up_set(e1).member(e2)


def test_line_product_examples():
    assert line_product(LineRef(Sign.PLUS, 1), LineRef(Sign.PLUS, 2)) == FullLine(
        LineRef(Sign.PLUS, 3)
    )
    assert line_product(LineRef(Sign.PLUS, 2), LineRef(Sign.MINUS, 1)) == FullLine(
        LineRef(Sign.PLUS, 1)
    )
    assert line_product(LineRef(Sign.MINUS, 2), LineRef(Sign.PLUS, 3)) == DownRay(Elem(2, 3))
    assert line_product(LineRef(Sign.MINUS, 1), LineRef(Sign.MINUS, 2)) == FullLine(
        LineRef(Sign.MINUS, 3)
    )


@given(
    st.sampled_from([Sign.PLUS, Sign.MINUS]),
    st.sampled_from([Sign.PLUS, Sign.MINUS]),
    small_scalars,
    small_scalars,
    small_scalars,
    small_scalars,
)
def test_line_product_two_sided(s1, s2, a1, a2, x1, x2):
    l1, l2 = LineRef(s1, a1), LineRef(s2, a2)
    prod = line_product(l1, l2)
    # forward: products of members land in the product set
    p = mul(line_point(l1, x1), line_point(l2, x2))
    assert prod.member(p)
    # backward: every member factors through the lines
    if isinstance(prod, DownRay):
        target = Elem(prod.base.a + x1, prod.base.b + x1)
    else:
        target = line_point(prod.line, x1)
    f1, f2 = factor_in_line_product(target, l1, l2)
    assert classify_line(f1)[0] == l1
    assert classify_line(f2)[0] == l2
    assert mul(f1, f2) == target


def _fraction_line_product(l1, l2):
    """line_product by its Fraction definition, with checked constructors."""
    a1, a2 = l1.alpha, l2.alpha
    if l1.sign is Sign.PLUS and l2.sign is Sign.PLUS:
        return FullLine(LineRef(Sign.PLUS, a1 + a2))
    if l1.sign is Sign.MINUS and l2.sign is Sign.MINUS:
        return FullLine(LineRef(Sign.MINUS, a1 + a2))
    if l1.sign is Sign.PLUS:
        if a1 >= a2:
            return FullLine(LineRef(Sign.PLUS, a1 - a2))
        return FullLine(LineRef(Sign.MINUS, a2 - a1))
    return DownRay(Elem(a1, a2))


def _fraction_factors(target, l1, l2):
    """The factorisation of factor_in_line_product as first written."""
    a1, a2 = l1.alpha, l2.alpha
    if l1.sign is Sign.PLUS and l2.sign is Sign.PLUS:
        x = target.a
        return Elem(x, x + a1), Elem(0, a2)
    if l1.sign is Sign.MINUS and l2.sign is Sign.MINUS:
        x = target.b
        return Elem(a1, 0), Elem(x + a2, x)
    if l1.sign is Sign.PLUS:
        if a1 >= a2:
            x = target.a
            return Elem(x, x + a1), Elem(x + a1, x + a1 - a2)
        x = target.b
        return Elem(x + a2 - a1, x + a2), Elem(x + a2, x)
    t = target.a - a1
    return Elem(a1 + t, t), Elem(t, t + a2)


def _on_line(line, e):
    """Membership of a diagonal line by its definition: the signed offset."""
    return (e.b - e.a if line.sign is Sign.PLUS else e.a - e.b) == line.alpha


def test_line_products_match_fraction_reference():
    # line_product, FullLine.member and factor_in_line_product decide on
    # integers and build trusted results; each seeded case must agree with
    # the Fraction definitions, and every trusted value must be one that the
    # checked constructors build the same
    rng = random.Random(9099)
    signs = (Sign.PLUS, Sign.MINUS)

    def q():
        return F(rng.randrange(13), rng.randrange(1, 7))

    kinds, hits = Counter(), Counter()
    for _ in range(5000):
        a1 = q()
        l1 = LineRef(rng.choice(signs), a1)
        l2 = LineRef(rng.choice(signs), rng.choice((q(), a1, a1 + F(1, 6))))
        prod = line_product(l1, l2)
        assert prod == _fraction_line_product(l1, l2), (l1, l2)
        if isinstance(prod, FullLine):
            line = prod.line
            # a canonical line: never MINUS with alpha 0
            assert line == LineRef(line.sign, line.alpha) and type(line.alpha) is F
            assert not (line.sign is Sign.MINUS and line.alpha == 0)
            kinds[line.sign, line.alpha == 0] += 1
            target = line_point(line, q())
            for e in (target, Elem(target.b, target.a), Elem(q(), q()),
                      Elem(target.a + F(1, 7), target.b)):
                assert prod.member(e) == _on_line(line, e), (line, e)
                hits[prod.member(e)] += 1
        else:
            assert prod.base == Elem(prod.base.a, prod.base.b)
            kinds["down"] += 1
            t = q()
            target = Elem(prod.base.a + t, prod.base.b + t)
        f1, f2 = factor_in_line_product(target, l1, l2)
        assert (f1, f2) == _fraction_factors(target, l1, l2), (target, l1, l2)
        for f, line in ((f1, l1), (f2, l2)):
            assert f == Elem(f.a, f.b) and type(f.a) is F and type(f.b) is F
            assert _on_line(line, f), (f, line)
        assert mul(f1, f2) == target
        stray = Elem(q(), q())
        if prod.member(stray):
            assert mul(*factor_in_line_product(stray, l1, l2)) == stray
        else:
            with pytest.raises(NotInProduct):
                factor_in_line_product(stray, l1, l2)
    assert len(kinds) == 4 and min(kinds.values()) > 400, kinds
    assert min(hits.values()) > 2000, hits


def test_factor_examples():
    # plus,plus: first factor keeps the parameter, second sits at the corner
    f1, f2 = factor_in_line_product(Elem(2, 7), LineRef(Sign.PLUS, 2), LineRef(Sign.PLUS, 3))
    assert (f1, f2) == (Elem(2, 4), Elem(0, 3))
    # minus,plus: middle coordinates tie
    f1, f2 = factor_in_line_product(Elem(6, 7), LineRef(Sign.MINUS, 2), LineRef(Sign.PLUS, 3))
    assert (f1, f2) == (Elem(6, 4), Elem(4, 7))
    assert mul(f1, f2) == Elem(6, 7)
    # like-offset plus,minus: the idempotent-style split
    f1, f2 = factor_in_line_product(Elem(3, 3), LineRef(Sign.PLUS, 1), LineRef(Sign.MINUS, 1))
    assert (f1, f2) == (Elem(3, 4), Elem(4, 3))


def test_factor_not_in_product():
    with pytest.raises(NotInProduct):
        factor_in_line_product(Elem(1, 3), LineRef(Sign.PLUS, 1), LineRef(Sign.PLUS, 2))
    with pytest.raises(NotInProduct):
        factor_in_line_product(Elem(1, 4), LineRef(Sign.MINUS, 2), LineRef(Sign.PLUS, 3))


def test_shrink_witness_examples():
    assert shrink_witness(Elem(1, 2), Elem(3, 1)) == Elem(6, 3)
    assert mul(Elem(1, 2), Elem(6, 3)) == Elem(5, 3)
    assert natural_leq(Elem(5, 3), Elem(3, 1))
    assert shrink_witness(Elem(0, 0), Elem(0, 0)) == Elem(0, 0)
    # a point below the witness keeps the containment
    assert natural_leq(Elem(7, 4), Elem(6, 3))
    assert mul(Elem(1, 2), Elem(7, 4)) == Elem(6, 4)
    assert natural_leq(Elem(6, 4), Elem(3, 1))


@given(elems, elems, nonneg_scalars)
def test_shrink_witness_postcondition(e0, e1, d):
    w = shrink_witness(e0, e1)
    assert w.a == e1.a + e0.a + e0.b  # minimal allowed first coordinate
    assert natural_leq(mul(e0, w), e1)
    below = Elem(w.a + d, w.b + d)
    assert natural_leq(mul(e0, below), e1)


@given(elems, elems, nonneg_scalars)
def test_shrink_witness_dual_postcondition(e0, e1, d):
    w = shrink_witness_dual(e0, e1)
    # mirror construction agrees with the direct formula
    assert w == Elem(2 * e0.b + e1.a, e0.b + e1.b + e0.a)
    assert natural_leq(mul(w, e0), e1)
    below = Elem(w.a + d, w.b + d)
    assert natural_leq(mul(below, e0), e1)


def test_shrink_witness_dual_examples():
    w = shrink_witness_dual(Elem(2, 1), Elem(1, 3))
    assert natural_leq(mul(w, Elem(2, 1)), Elem(1, 3))
    assert shrink_witness_dual(Elem(0, 0), Elem(0, 0)) == Elem(0, 0)


def test_translate_examples():
    assert translate_down_ray(Side.LEFT, Elem(1, 3), down_set(Elem(2, 5))) == DownRay(
        Elem(1, 6)
    )
    # right translation moving one line onto another
    assert translate_down_ray(
        Side.RIGHT, Elem(2, "7/2"), down_set(Elem(0, 2))
    ) == DownRay(Elem(0, "7/2"))
    ray = down_set(Elem(2, 5), punctured=True)
    assert translate_down_ray(Side.LEFT, Elem(0, 0), ray) == ray


@given(sides, small_elems, small_elems, st.booleans(), small_scalars, small_scalars)
def test_translate_image_two_sided(side, t, base, punctured, d, u):
    ray = down_set(base, punctured)
    img = translate_down_ray(side, t, ray)
    # forward: image of a ray point is in the image ray
    if punctured and d == 0:
        d += 1
    s = Elem(base.a + d, base.b + d)
    p = mul(t, s) if side is Side.LEFT else mul(s, t)
    assert img.member(p)
    # backward: each image point is hit from inside the ray
    if img.punctured and u == 0:
        u += 1
    g = Elem(img.base.a + u, img.base.b + u)
    if side is Side.LEFT:
        lag = max(F(0), t.b - base.a)
    else:
        lag = max(F(0), t.a - base.b)
    s_pre = Elem(base.a + u + lag, base.b + u + lag)
    assert ray.member(s_pre)
    assert (mul(t, s_pre) if side is Side.LEFT else mul(s_pre, t)) == g


@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
@pytest.mark.parametrize(
    "t,base,punctured",
    [
        (Elem(1, 3), Elem(2, 5), False),
        (Elem(3, "1/2"), Elem("1/4", 2), True),
        (Elem(0, 4), Elem(1, 0), True),
    ],
)
def test_translate_image_dense_scan(side, t, base, punctured):
    # two-sided agreement on a couple hundred ray points per configuration
    ray = down_set(base, punctured)
    img = translate_down_ray(side, t, ray)
    lag = max(F(0), (t.b - base.a) if side is Side.LEFT else (t.a - base.b))
    for k in range(1 if punctured else 0, 220):
        d = F(k, 8)
        s = Elem(base.a + d, base.b + d)
        p = mul(t, s) if side is Side.LEFT else mul(s, t)
        assert img.member(p)
    for k in range(1 if img.punctured else 0, 220):
        u = F(k, 8)
        g = Elem(img.base.a + u, img.base.b + u)
        s_pre = Elem(base.a + u + lag, base.b + u + lag)
        assert ray.member(s_pre)
        assert (mul(t, s_pre) if side is Side.LEFT else mul(s_pre, t)) == g


def test_translate_collapse_unpunctures():
    ray = down_set(Elem(1, 2), punctured=True)
    # t.b > base.a folds the start of the ray onto the image base
    img = translate_down_ray(Side.LEFT, Elem(0, 3), ray)
    assert img == DownRay(Elem(0, 4), punctured=False)
    # the image base is attained by an interior ray point
    assert mul(Elem(0, 3), Elem(2, 3)) == Elem(0, 4)
    # no collapse at equality: puncture survives
    img2 = translate_down_ray(Side.LEFT, Elem(0, 1), ray)
    assert img2 == DownRay(Elem(0, 2), punctured=True)
    # right-side collapse compares t.a with the base's second coordinate
    img3 = translate_down_ray(Side.RIGHT, Elem(3, 0), ray)
    assert img3 == DownRay(mul(Elem(1, 2), Elem(3, 0)), punctured=False)


def test_preimage_examples():
    pre = preimage_up_segment(Side.LEFT, Elem(0, 1), up_set(Elem(2, 2)))
    assert pre == UpSegment(Elem(3, 2))
    # translator overshoots the segment: empty
    assert preimage_up_segment(Side.LEFT, Elem(3, 0), up_set(Elem(2, 2))) is None
    assert preimage_up_segment(Side.RIGHT, Elem(0, 3), up_set(Elem(2, 2))) is None
    # identity translation
    seg = up_set(Elem(2, 2))
    assert preimage_up_segment(Side.LEFT, Elem(0, 0), seg) == seg
    assert preimage_up_segment(Side.RIGHT, Elem(0, 0), seg) == seg


@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
@pytest.mark.parametrize(
    "t,top",
    [
        (Elem(0, 1), Elem(2, 2)),
        (Elem(1, 0), Elem(2, 2)),
        (Elem("1/2", "3/2"), Elem(3, 1)),
        (Elem(2, 2), Elem(1, 3)),
        (Elem(3, 1), Elem("5/2", "1/2")),
        (Elem(0, 0), Elem(2, 0)),
    ],
)
def test_preimage_exhaustive_grid(side, t, top):
    seg = up_set(top)
    pre = preimage_up_segment(side, t, seg)
    for s in grid():
        img = mul(t, s) if side is Side.LEFT else mul(s, t)
        assert (pre is not None and pre.member(s)) == seg.member(img), (side, t, top, s)


@given(sides, small_elems, small_elems, small_elems)
def test_preimage_pointwise_random(side, t, top, s):
    seg = up_set(top)
    pre = preimage_up_segment(side, t, seg)
    img = mul(t, s) if side is Side.LEFT else mul(s, t)
    assert (pre is not None and pre.member(s)) == seg.member(img)


def test_region_part_strings():
    assert str(DownRay(Elem(2, 3))) == "down(2,3)"
    assert str(DownRay(Elem(2, 3), punctured=True)) == "down*(2,3)"
    assert str(UpSegment(Elem(2, 3))) == "up(2,3)"
    assert str(FullLine(LineRef(Sign.MINUS, F(1, 2)))) == "L-1/2"
