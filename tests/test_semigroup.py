"""Core operation tests: worked examples checked against the defining formula
and the case-table route, plus law checks with hypothesis."""

import copy
import itertools
import pickle
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import elems, nonneg_scalars
from realbicyclic import (
    Elem,
    LineRef,
    Sign,
    ZERO,
    classify_line,
    inv,
    inv_ext,
    is_idempotent,
    leq_witness,
    line_point,
    mul,
    mul_branch,
    mul_ext,
    natural_leq,
    natural_leq_ext,
    scalar,
    shrink_witness,
)
from realbicyclic.generate import GenConfig, IntegerMode, RationalMode, gen_elem


def formula_mul(e1: Elem, e2: Elem) -> Elem:
    """Direct evaluation of the defining min expression."""
    m = min(e1.b, e2.a)
    return Elem(e1.a + e2.a - m, e1.b + e2.b - m)


def table_mul(e1: Elem, e2: Elem) -> Elem:
    """The three-way case split; an independent route."""
    if e1.b < e2.a:
        return Elem(e1.a + e2.a - e1.b, e2.b)
    if e1.b == e2.a:
        return Elem(e1.a, e2.b)
    return Elem(e1.a, e1.b + e2.b - e2.a)


def word_mul(k: int, l: int, m: int, n: int):
    """Multiply q^k p^l and q^m p^n as literal words with pq = 1."""
    stack = []
    for g in ["q"] * k + ["p"] * l + ["q"] * m + ["p"] * n:
        if g == "q" and stack and stack[-1] == "p":
            stack.pop()
        else:
            stack.append(g)
    return stack.count("q"), stack.count("p")


@pytest.mark.parametrize(
    "e1,e2,want",
    [
        (Elem(1, 3), Elem(2, 5), Elem(1, 6)),
        (Elem("1/2", "3/2"), Elem(2, "1/3"), Elem(1, "1/3")),
        (Elem(2, 1), Elem(1, 4), Elem(2, 4)),
    ],
)
def test_mul_examples(e1, e2, want):
    assert mul(e1, e2) == want
    assert formula_mul(e1, e2) == want
    assert table_mul(e1, e2) == want


def test_identity_element():
    for e in (Elem(3, "7/2"), Elem(0, 0), Elem("1/3", 5)):
        assert mul(Elem(0, 0), e) == e
        assert mul(e, Elem(0, 0)) == e


def test_negative_coordinates_rejected():
    with pytest.raises(ValueError):
        Elem(-1, 2)
    with pytest.raises(ValueError):
        Elem(1, F(-1, 3))
    # the public constructor keeps every check beside the trusted one
    for a, b in ((-1, 0), (F(-1), 0), (0.5, 1)):
        with pytest.raises(ValueError):
            Elem(a, b)


@pytest.mark.parametrize(
    "e1,e2,branch",
    [
        (Elem(1, 2), Elem(3, 4), "lt"),
        (Elem("1/2", 3), Elem(3, "5/7"), "eq"),
        (Elem(2, "9/2"), Elem("1/3", 0), "gt"),
        (Elem(3, 1), None, "lt"),
        (Elem("5/2", "5/2"), None, "eq"),
        (Elem(1, 3), None, "gt"),
    ],
)
def test_mul_is_min_formula_on_every_branch(e1, e2, branch):
    e2 = e1 if e2 is None else e2  # None: the aliased product e1 * e1
    assert mul_branch(e1, e2) == branch
    assert mul(e1, e2) == formula_mul(e1, e2)


@given(elems, elems)
def test_closed_results_are_plain_elems(e1, e2):
    trusted = (
        mul(e1, e2), mul(e1, e1), inv(e1), leq_witness(e1, e1),
        line_point(*classify_line(e1)), shrink_witness(e1, e2),
    )
    for r in trusted:
        assert type(r) is Elem
        assert type(r.a) is F and type(r.b) is F
        checked = Elem(r.a, r.b)
        assert r == checked and hash(r) == hash(checked)


@pytest.mark.parametrize("value", [0.1, 1.0, -0.0, float("inf"), True, False])
def test_inexact_scalars_rejected(value):
    with pytest.raises(ValueError, match="not an exact scalar"):
        scalar(value)
    with pytest.raises(ValueError, match="not an exact scalar"):
        Elem(value, 1)
    with pytest.raises(ValueError, match="not an exact scalar"):
        Elem(F(1), value)


@pytest.mark.parametrize("value", ["1/0", "0/0", "7/00"])
def test_zero_denominator_rejected(value):
    with pytest.raises(ValueError, match="zero denominator"):
        scalar(value)
    with pytest.raises(ValueError, match="zero denominator"):
        Elem(value, 1)


@pytest.mark.parametrize(
    "value", ["1e1", "1_0", " 3 ", "+2", "\u0663", "-1", "1/", ".5", "1.", "", "3/4/5", "inf"]
)
def test_scalar_strings_outside_the_grammar_rejected(value):
    with pytest.raises(ValueError, match="not a scalar"):
        scalar(value)
    with pytest.raises(ValueError, match="not a scalar"):
        Elem(value, 1)


def test_exact_scalars_accepted():
    assert scalar(3) == F(3)
    assert scalar("0.1") == F(1, 10)
    assert scalar(F(7, 2)) == F(7, 2)
    assert Elem("1.25", 0) == Elem(F(5, 4), 0)


@given(elems, elems)
def test_mul_matches_both_routes(e1, e2):
    assert mul(e1, e2) == formula_mul(e1, e2) == table_mul(e1, e2)


@given(elems, elems, elems)
def test_associativity(e1, e2, e3):
    assert mul(mul(e1, e2), e3) == mul(e1, mul(e2, e3))


@given(elems)
def test_inverse_axioms(e):
    i = inv(e)
    assert mul(mul(e, i), e) == e
    assert mul(mul(i, e), i) == i
    assert inv(i) == e


def test_inv_examples():
    assert inv(Elem(1, 6)) == Elem(6, 1)
    assert inv(Elem("5/2", "5/2")) == Elem("5/2", "5/2")
    assert inv(inv(Elem(2, 5))) == Elem(2, 5)


@given(nonneg_scalars, nonneg_scalars)
def test_idempotents(u, v):
    f, g = Elem(u, u), Elem(v, v)
    assert is_idempotent(f)
    mx = max(u, v)
    assert mul(f, g) == mul(g, f) == Elem(mx, mx)


def test_is_idempotent_examples():
    assert is_idempotent(Elem(3, 3))
    assert is_idempotent(Elem(0, 0))
    assert not is_idempotent(Elem(1, 3))
    assert mul(Elem(1, 3), Elem(1, 3)) == Elem(1, 5)


def test_mul_ext_zero_absorbs():
    assert mul_ext(ZERO, Elem(1, 3)) is ZERO
    assert mul_ext(Elem(1, 3), ZERO) is ZERO
    assert mul_ext(ZERO, ZERO) is ZERO
    assert mul_ext(Elem(1, 3), Elem(2, 5)) == Elem(1, 6)
    assert inv_ext(ZERO) is ZERO
    assert inv_ext(Elem(1, 6)) == Elem(6, 1)


def test_order_examples():
    assert natural_leq(Elem(3, 5), Elem(1, 3))
    assert not natural_leq(Elem(1, 3), Elem(2, 5))
    assert natural_leq(Elem(4, 4), Elem(4, 4))


def test_natural_leq_matches_fraction_definition():
    def by_definition(s, t):
        return s.a >= t.a and s.a - s.b == t.a - t.b

    for mode in (RationalMode(30, 8), RationalMode(7, 3), IntegerMode(6)):
        points = list(itertools.islice(gen_elem(GenConfig(seed=11, scalar_mode=mode)), 3000))
        seen = {True: 0, False: 0}
        for t, u, v in zip(points[0::3], points[1::3], points[2::3]):
            below = Elem(t.a + u.a, t.b + u.a)  # same diagonal, a >= t.a
            above = Elem(t.a + u.a + 1, t.b + u.a + 1)  # same diagonal, t.a < above.a
            for s1, s2 in ((t, u), (u, v), (t, t), (below, t), (t, below), (t, above), (above, t)):
                want = by_definition(s1, s2)
                assert natural_leq(s1, s2) is want, (s1, s2)
                seen[want] += 1
            assert not natural_leq(t, above) and natural_leq(above, t)
        assert seen[True] >= 2000 and seen[False] >= 2000, (mode, seen)


@given(elems, elems)
def test_order_characterisations_agree(s, t):
    by_first = s.a >= t.a and s.a - s.b == t.a - t.b
    by_second = s.b >= t.b and s.a - s.b == t.a - t.b
    by_left_idem = s == mul(mul(s, inv(s)), t)
    by_right_idem = s == mul(t, mul(inv(s), s))
    assert natural_leq(s, t) == by_first == by_second == by_left_idem == by_right_idem


@given(elems, nonneg_scalars)
def test_constructed_comparable_pairs(t, d):
    s = Elem(t.a + d, t.b + d)
    assert natural_leq(s, t)
    w = leq_witness(s, t)
    assert w == Elem(s.b, s.b)
    assert is_idempotent(w)
    assert mul(t, w) == s


@given(elems, elems, nonneg_scalars, elems)
def test_partial_order_laws(t, other, d, u):
    s = Elem(t.a + d, t.b + d)
    assert natural_leq(t, t)
    if natural_leq(s, t) and natural_leq(t, s):
        assert s == t
    s2 = Elem(s.a + u.a, s.b + u.a)  # s2 below s below t
    assert natural_leq(s2, t)
    assert natural_leq(mul(u, s), mul(u, t))
    assert natural_leq(mul(s, u), mul(t, u))
    if not natural_leq(other, t):
        assert leq_witness(other, t) is None


def test_leq_witness_examples():
    assert leq_witness(Elem(3, 5), Elem(1, 3)) == Elem(5, 5)
    assert mul(Elem(1, 3), Elem(5, 5)) == Elem(3, 5)
    assert leq_witness(Elem(1, 3), Elem(2, 5)) is None
    e = Elem(2, 7)
    assert leq_witness(e, e) == Elem(7, 7)
    assert mul(e, Elem(7, 7)) == e


def test_ext_order():
    assert natural_leq_ext(ZERO, Elem(1, 2))
    assert natural_leq_ext(ZERO, ZERO)
    assert not natural_leq_ext(Elem(1, 2), ZERO)
    assert natural_leq_ext(Elem(3, 5), Elem(1, 3))


def test_classify_line_examples():
    line, x = classify_line(Elem(2, 5))
    assert (line.sign, line.alpha, x) == (Sign.PLUS, F(3), F(2))
    line, x = classify_line(Elem(5, 2))
    assert (line.sign, line.alpha, x) == (Sign.MINUS, F(3), F(2))
    line, x = classify_line(Elem(4, 4))
    assert (line.sign, line.alpha, x) == (Sign.PLUS, F(0), F(4))


def test_line_point_examples():
    assert line_point(LineRef(Sign.PLUS, 3), 2) == Elem(2, 5)
    assert line_point(LineRef(Sign.MINUS, 3), 0) == Elem(3, 0)
    assert line_point(LineRef(Sign.PLUS, 0), 4) == Elem(4, 4)
    with pytest.raises(ValueError):
        line_point(LineRef(Sign.PLUS, 3), -1)


def test_line_canonicalisation():
    assert LineRef(Sign.MINUS, 0) == LineRef(Sign.PLUS, 0)
    assert LineRef(Sign.MINUS, 0).sign is Sign.PLUS


@given(elems)
def test_line_roundtrip_and_inversion(e):
    line, x = classify_line(e)
    assert line_point(line, x) == e
    iline, ix = classify_line(inv(e))
    assert iline.alpha == line.alpha
    assert ix == x
    if line.alpha == 0:
        assert iline.sign is Sign.PLUS
    else:
        assert iline.sign is not line.sign


@given(st.integers(0, 25), st.integers(0, 25), st.integers(0, 25), st.integers(0, 25))
def test_bicyclic_specialisation(k, l, m, n):
    got = mul(Elem(k, l), Elem(m, n))
    qs, ps = word_mul(k, l, m, n)
    assert got == Elem(qs, ps)
    lo = min(l, m)
    assert got == Elem(k + m - lo, l + n - lo)


@given(elems, elems)
def test_mul_branch_tags(e1, e2):
    tag = mul_branch(e1, e2)
    assert tag == ("lt" if e1.b < e2.a else "eq" if e1.b == e2.a else "gt")


def test_str_formats():
    assert str(Elem(1, 6)) == "(1,6)"
    assert str(Elem("1/2", "3/2")) == "(1/2,3/2)"
    assert str(ZERO) == "0"
    assert str(LineRef(Sign.MINUS, F(3, 2))) == "L-3/2"


@pytest.mark.parametrize(
    "value, text, rep",
    [
        (Elem(0, 0), "(0,0)", "Elem('0', '0')"),
        (Elem("3/2", 5), "(3/2,5)", "Elem('3/2', '5')"),
        (LineRef(Sign.MINUS, 0), "L+0", "LineRef(sign=<Sign.PLUS: '+'>, alpha=Fraction(0, 1))"),
        (LineRef(Sign.MINUS, "7/2"), "L-7/2", "LineRef(sign=<Sign.MINUS: '-'>, alpha=Fraction(7, 2))"),
    ],
)
def test_point_and_line_contract(value, text, rep):
    # the contract of the frozen slotted dataclasses these types replaced:
    # text forms, immutability, keyword construction, the hash of the field
    # tuple, and copies and pickles that compare and hash equal
    assert (str(value), repr(value)) == (text, rep)
    fields = ("a", "b") if type(value) is Elem else ("sign", "alpha")
    values = tuple(getattr(value, name) for name in fields)
    assert hash(value) == hash(values)
    assert type(value)(**dict(zip(fields, values))) == value
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, values[0])
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in fields) == values
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert (str(twin), repr(twin)) == (text, rep)


def test_line_layer_matches_fraction_reference():
    # classify_line and mul_branch decide on integer cross-products; their
    # Fraction definitions decide every seeded case the same way, ties and
    # points on the diagonal included
    rng = random.Random(8088)

    def q():
        return F(rng.randrange(13), rng.randrange(1, 7))

    sides, branches = Counter(), Counter()
    for _ in range(6000):
        a = q()
        e = Elem(a, rng.choice((q(), q(), a, a + F(1, rng.randrange(1, 9)))))
        line, x = classify_line(e)
        if e.b >= e.a:
            assert (line, x) == (LineRef(Sign.PLUS, e.b - e.a), e.a), e
        else:
            assert (line, x) == (LineRef(Sign.MINUS, e.a - e.b), e.b), e
        # the trusted result is canonical: never MINUS with alpha 0
        assert line == LineRef(line.sign, line.alpha) and type(line.alpha) is F
        assert not (line.sign is Sign.MINUS and line.alpha == 0)
        sides[line.sign, line.alpha == 0] += 1
        f = Elem(rng.choice((q(), e.b, e.b + F(1, 12))), q())
        want = "lt" if e.b < f.a else "eq" if e.b == f.a else "gt"
        assert mul_branch(e, f) == want, (e, f)
        branches[want] += 1
    assert len(sides) == 3 and min(sides.values()) > 500, sides
    assert min(branches.values()) > 1000, branches
