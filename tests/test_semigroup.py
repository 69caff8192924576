"""Core operation tests: worked examples checked against the defining formula
and the case-table route, plus law checks with hypothesis."""

import ast
import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bicyclic_reference import word_mul
from conftest import elems, nonneg_scalars
import realbicyclic
from realbicyclic import (
    Elem,
    LineRef,
    Sign,
    TooLarge,
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


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no limit on the digits of an integer string",
)
def test_scalar_past_the_digit_limit_is_too_large():
    # at the limit a literal reads; one digit past it is TooLarge, a
    # ValueError that names the limit and echoes nothing
    limit = sys.get_int_max_str_digits()
    assert scalar("7" * limit) == F(int("7" * limit))
    assert scalar(f"1/{'7' * limit}") == F(1, int("7" * limit))
    message = f"^a number has more than {limit} digits$"
    for text in ("7" * (limit + 1), f"1/{'7' * (limit + 1)}", f"0.{'7' * (limit + 1)}"):
        with pytest.raises(TooLarge, match=message):
            scalar(text)
        with pytest.raises(TooLarge, match=message):
            Elem(1, text)


def test_exact_scalars_accepted():
    assert scalar(3) == F(3)
    assert scalar("0.1") == F(1, 10)
    assert scalar(F(7, 2)) == F(7, 2)
    assert Elem("1.25", 0) == Elem(F(5, 4), 0)


class _Int(int):
    pass


# one value per row, spelled as an int (None when it is not one), an int
# subclass, a Fraction and a string
_SPELLINGS = [
    (0, _Int(0), F(0), "0"),
    (3, _Int(3), F(3), "3"),
    (10**30, _Int(10**30), F(10**30), "1" + "0" * 30),
    (None, None, F(3, 2), "3/2"),
    (None, None, F(5, 4), "1.25"),
    (None, None, F(1, 3), "2/6"),
]


def test_constructors_agree_on_every_spelling():
    # Elem has an int path, a Fraction path and the scalar path, and LineRef
    # a Fraction path and the scalar path: every spelling of a value, mixed
    # or not, holds the same lowest-terms plain ints
    for row1, row2 in itertools.product(_SPELLINGS, repeat=2):
        f1, f2 = row1[2], row2[2]
        want = (f1.numerator, f1.denominator, f2.numerator, f2.denominator)
        for a, b in (*zip(row1, row2), (row1[2], row2[3]), (row1[0], row2[2])):
            if a is None or b is None:
                continue
            q = Elem(a, b)._q
            assert q == want and all(type(x) is int for x in q), (a, b)
    for row in _SPELLINGS:
        f = row[2]
        for sign in Sign:
            for alpha in row:
                if alpha is None:
                    continue
                line = LineRef(sign, alpha)
                assert line.sign is (sign if f else Sign.PLUS), alpha
                assert line._alpha == (f.numerator, f.denominator), alpha
                assert all(type(x) is int for x in line._alpha)


@pytest.mark.parametrize(
    "cls, args, message",
    [
        (Elem, (True, 1), "not an exact scalar: True"),
        (Elem, (1, False), "not an exact scalar: False"),
        (Elem, (-1, 2), "negative scalar: -1"),
        (Elem, (2, -1), "negative scalar: -1"),
        (Elem, (_Int(-1), 2), "negative scalar: -1"),
        (Elem, (1.5, 2), "not an exact scalar: 1.5"),
        (Elem, (2, 0.5), "not an exact scalar: 0.5"),
        (Elem, (F(-1, 2), 1), "negative scalar: Fraction(-1, 2)"),
        (Elem, (1, F(-1, 2)), "negative scalar: Fraction(-1, 2)"),
        (Elem, (F(-1, 2), F(-3)), "negative coordinate: (-1/2, -3)"),
        (Elem, (F(1, 2), F(-3)), "negative coordinate: (1/2, -3)"),
        (Elem, (F(1, 2), 1.5), "not an exact scalar: 1.5"),
        (LineRef, (Sign.PLUS, True), "not an exact scalar: True"),
        (LineRef, (Sign.MINUS, -1), "negative scalar: -1"),
        (LineRef, (Sign.MINUS, 1.5), "not an exact scalar: 1.5"),
        (LineRef, (Sign.PLUS, F(-1, 2)), "negative scalar: Fraction(-1, 2)"),
        (LineRef, (Sign.MINUS, F(-1, 2)), "negative scalar: Fraction(-1, 2)"),
        (line_point, (LineRef(Sign.PLUS, 3), -1), "negative scalar: -1"),
        (line_point, (LineRef(Sign.MINUS, 3), F(-1, 2)), "negative scalar: Fraction(-1, 2)"),
    ],
)
def test_rejected_constructor_arguments_keep_their_messages(cls, args, message):
    # the int and Fraction paths refuse what the scalar path refuses, with
    # the same type and message
    with pytest.raises(ValueError) as info:
        cls(*args)
    assert type(info.value) is ValueError and str(info.value) == message


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


def test_line_sign_checked():
    # a sign that is not a Sign is a TypeError naming the field, also before
    # alpha 0 would canonicalise it to PLUS
    for sign in ("x", "+", None):
        for alpha in (1, 0):
            with pytest.raises(TypeError, match="^sign must be a Sign, not "):
                LineRef(sign, alpha)
    with pytest.raises(TypeError) as info:
        LineRef("+", 1)
    assert str(info.value) == "sign must be a Sign, not '+'"


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
    assert got == word_mul(k, l, m, n)
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


def test_function_bodies_read_enum_members_as_module_constants():
    # ``Sign.PLUS`` or ``Side.LEFT`` in a function body runs the enum's
    # ``__getattr__`` hook on CPython 3.11; bodies read ``_PLUS``, ``_MINUS``,
    # ``_LEFT`` and ``_RIGHT`` instead, and only module-level tables may name
    # a member through its class
    found = set()
    for path in sorted(Path(realbicyclic.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = fn.body
            elif isinstance(fn, ast.Lambda):
                body = [fn.body]
            else:
                continue
            for node in (n for stmt in body for n in ast.walk(stmt)):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("Sign", "Side")
                ):
                    found.add(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    assert sorted(found) == []


# Imports every submodule three times, dropping the package from
# ``sys.modules`` in between, and prints the names of the classes of the
# earlier imports that a collection leaves alive.
_REIMPORT_PROBE = """
import gc, importlib, importlib.util, inspect, pkgutil, sys, weakref
path = importlib.util.find_spec("realbicyclic").submodule_search_locations
names = ["realbicyclic"] + [
    "realbicyclic." + m.name for m in pkgutil.iter_modules(path) if m.name != "__main__"
]
imports = []
for _ in range(3):
    for key in [k for k in sys.modules if k.partition(".")[0] == "realbicyclic"]:
        del sys.modules[key]
    classes = []
    for name in names:
        module = importlib.import_module(name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == name:
                classes.append(weakref.ref(cls))
    imports.append(classes)
    del module, cls, classes
gc.collect()
assert min(len(classes) for classes in imports) > 30, [len(c) for c in imports]
print(sorted({ref().__qualname__ for classes in imports[:-1] for ref in classes if ref()}))
"""


def test_reimported_package_leaves_no_stale_classes():
    # a typing.Union[...] over a package class would cache it, and through it
    # its module, for the life of the process
    env = dict(os.environ, PYTHONPATH=str(Path(realbicyclic.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _REIMPORT_PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
