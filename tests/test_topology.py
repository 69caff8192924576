"""Neighbourhood membership, inversion coherence, and the line-local
character of order neighbourhoods."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import elems, small_elems
from realbicyclic import (
    Elem,
    NbhdAc1,
    NbhdAc2,
    NbhdOrder,
    ZERO,
    classify_line,
    inv,
    inv_ext,
    line_point,
    mul_ext,
    nbhd_invert,
)

ext_elems = st.one_of(st.just(ZERO), elems)


def test_threshold_membership_examples():
    n4 = NbhdAc1(4)
    assert n4.member(Elem(5, 1))
    assert n4.member(Elem(1, 5))
    assert not n4.member(Elem(4, 4))
    assert n4.member(ZERO)


def test_segment_complement_membership_examples():
    nb = NbhdAc2((Elem(2, 3),))
    assert not nb.member(Elem(1, 2))  # above (2,3)
    assert nb.member(Elem(3, 4))
    assert nb.member(ZERO)


def test_zero_in_every_zero_neighbourhood():
    assert NbhdAc1("1/7").member(ZERO)
    assert NbhdAc2((Elem(0, 0),)).member(ZERO)


def test_positive_parameters_required():
    with pytest.raises(ValueError):
        NbhdAc1(0)
    with pytest.raises(ValueError):
        NbhdOrder(Elem(1, 1), F(0))
    with pytest.raises(ValueError):
        NbhdAc2(())


def test_segment_tops_must_be_elems():
    # a top that is not an Elem is a TypeError at construction, not an
    # AttributeError at the first membership test
    for tops in ((1,), (Elem(1, 2), "(3,1)"), (ZERO,), ((1, 2),)):
        with pytest.raises(TypeError, match="^tops must be an Elem, not "):
            NbhdAc2(tops)


def test_order_neighbourhood_is_line_local():
    center = Elem(2, 5)
    nb = NbhdOrder(center, F(3, 4))
    line, x = classify_line(center)
    assert nb.member(line_point(line, x + F(1, 2)))
    assert nb.member(line_point(line, x - F(1, 2)))
    assert not nb.member(line_point(line, x + F(3, 4)))  # radius excluded
    assert not nb.member(Elem(2, 6))  # different line
    assert not nb.member(ZERO)


@given(small_elems, st.fractions(min_value="1/8", max_value=4, max_denominator=8), small_elems)
def test_order_neighbourhood_members_share_the_line(center, eps, probe):
    nb = NbhdOrder(center, eps)
    if nb.member(probe):
        assert classify_line(probe)[0] == classify_line(center)[0]


def test_invert_examples():
    assert nbhd_invert(NbhdAc1(7)) == NbhdAc1(7)
    assert nbhd_invert(NbhdAc2((Elem(2, 3), Elem(5, 1)))) == NbhdAc2(
        (Elem(3, 2), Elem(1, 5))
    )
    with pytest.raises(TypeError):
        nbhd_invert(NbhdOrder(Elem(1, 1), 1))


@given(ext_elems)
def test_invert_threshold_pointwise(e):
    nb = NbhdAc1(F(7, 2))
    assert nbhd_invert(nb).member(e) == nb.member(inv_ext(e))


@given(ext_elems)
def test_invert_segments_pointwise(e):
    nb = NbhdAc2((Elem(2, 3), Elem(5, 1), Elem("1/2", 4)))
    assert nbhd_invert(nb).member(e) == nb.member(inv_ext(e))


@given(ext_elems)
def test_zero_absorption_lands_in_every_neighbourhood(e):
    img = mul_ext(ZERO, e)
    assert img is ZERO
    assert NbhdAc1(3).member(img)
    assert NbhdAc2((Elem(4, 2),)).member(img)
    assert mul_ext(e, ZERO) is ZERO
