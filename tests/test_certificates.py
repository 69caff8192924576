"""Certificate generation, independent validation, tampering, falsification,
and bit-exact serialization."""

import copy
import dataclasses
import functools
import hashlib
import importlib
import inspect
import math
import os
import pickle
import pkgutil
import random
import sys
import textwrap
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_generator
from conftest import small_elems
from line_reader import line_cert_from_text
from realbicyclic import (
    BranchEvidence,
    ContinuityCert,
    DownRay,
    Elem,
    FullLine,
    LineRef,
    MalformedCert,
    NbhdAc1,
    NbhdAc2,
    NbhdOrder,
    Side,
    Sign,
    UpSegment,
    ZERO,
    cert_from_text,
    cert_to_text,
    classify_line,
    continuity_cert_ac1,
    continuity_cert_ac2,
    down_set,
    factor_in_line_product,
    falsify,
    inv,
    is_idempotent,
    line_point,
    line_product,
    mul,
    mul_branch,
    natural_leq,
    nbhd_invert,
    parse_expr,
    preimage_up_segment,
    read_cert,
    shrink_witness,
    shrink_witness_dual,
    translate_down_ray,
    up_set,
    validate_cert,
    validate_cert_ac1,
    validate_cert_ac2,
    write_cert,
)
import realbicyclic
from realbicyclic import certificates
from realbicyclic.certificates import (
    CaseEvidence,
    Interval,
    TopEvidence,
    _branch,
    _case,
    _cert,
    _covers_chosen,
    _interval,
    _top_evidence,
)
from realbicyclic.order_geometry import _down, _full, _up
from realbicyclic.semigroup import line_literal
from realbicyclic.topology import _ac1, _ac2
from realbicyclic.cli import main


def image(side, t, s):
    return mul(t, s) if side is Side.LEFT else mul(s, t)


def _covers(cases, m):
    """``_covers_chosen`` of the cases' rational boxes and the chosen
    threshold m, scaled to a grid of doubled common-denominator units as
    ``validate_cert_ac1`` scales them."""
    ends = [v for c in cases for iv in (c.a_range, c.b_range) for v in (iv.lo, iv.hi)]
    G = 2 * math.lcm(m.denominator, *(v.denominator for v in ends if v is not None))

    def closed(iv):
        lo = iv.lo.numerator * (G // iv.lo.denominator) + iv.lo_strict
        if iv.hi is None:
            return lo, None
        return lo, iv.hi.numerator * (G // iv.hi.denominator) - iv.hi_strict

    boxes = [(closed(c.a_range), closed(c.b_range)) for c in cases]
    return _covers_chosen(boxes, m.numerator * (G // m.denominator))


def assert_violates(side, t, chosen, target, witness):
    assert witness is not None
    assert chosen.member(witness)
    assert not target.member(image(side, t, witness))


# ---------------------------------------------------------------------------
# threshold certificates
# ---------------------------------------------------------------------------


def test_ac1_worked_example():
    cert = continuity_cert_ac1(Side.LEFT, Elem(1, 2), NbhdAc1(4))
    assert cert.effective == NbhdAc1(4)  # hypothesis already satisfied
    assert cert.chosen == NbhdAc1(8)
    assert validate_cert_ac1(cert)
    # spot instance through the doubled neighbourhood
    assert mul(Elem(1, 2), Elem(9, 0)) == Elem(8, 0)
    assert NbhdAc1(4).member(Elem(8, 0))


def test_ac1_identity_translator():
    cert = continuity_cert_ac1(Side.LEFT, Elem(0, 0), NbhdAc1(4))
    assert validate_cert_ac1(cert)
    cert_r = continuity_cert_ac1(Side.RIGHT, Elem(0, 0), NbhdAc1(4))
    assert validate_cert_ac1(cert_r)


def test_ac1_right_side():
    cert = continuity_cert_ac1(Side.RIGHT, Elem(1, 2), NbhdAc1(4))
    assert validate_cert_ac1(cert)
    assert falsify(Side.RIGHT, Elem(1, 2), cert.chosen, cert.effective, 5000, 3) is None


def test_ac1_threshold_adjustment_recorded():
    # requested threshold below the working regime: enlarged and kept
    cert = continuity_cert_ac1(Side.LEFT, Elem(3, "9/2"), NbhdAc1(2))
    assert cert.target == NbhdAc1(2)
    assert cert.effective.n == F(9, 2) + 2  # max coordinate + 2
    assert cert.chosen.n == 2 * cert.effective.n
    assert validate_cert_ac1(cert)
    # smaller neighbourhoods certify the requested inclusion a fortiori
    assert falsify(Side.LEFT, Elem(3, "9/2"), cert.chosen, cert.target, 5000, 5) is None


def test_ac1_corrupted_chosen_rejected_and_falsified():
    t = Elem(1, 2)
    cert = continuity_cert_ac1(Side.LEFT, t, NbhdAc1(4))
    corrupted = dataclasses.replace(cert, chosen=NbhdAc1(4))
    assert not validate_cert_ac1(corrupted)
    w = falsify(Side.LEFT, t, NbhdAc1(4), NbhdAc1(4), 10000, 7)
    assert_violates(Side.LEFT, t, NbhdAc1(4), NbhdAc1(4), w)


def test_ac1_lying_infimum_rejected():
    cert = continuity_cert_ac1(Side.LEFT, Elem(1, 2), NbhdAc1(4))
    big = cert.evidence[0]
    lied = dataclasses.replace(
        big, branches=(dataclasses.replace(big.branches[0], inf_value=F(100)),)
    )
    tampered = dataclasses.replace(cert, evidence=(lied,) + cert.evidence[1:])
    assert not validate_cert_ac1(tampered)


def test_ac1_wrong_image_rejected():
    cert = continuity_cert_ac1(Side.LEFT, Elem(1, 2), NbhdAc1(4))
    big = cert.evidence[0]
    wrong = dataclasses.replace(
        big,
        branches=(
            dataclasses.replace(big.branches[0], image_a=(F(1), F(0), F(5))),
        ),
    )
    tampered = dataclasses.replace(cert, evidence=(wrong,) + cert.evidence[1:])
    assert not validate_cert_ac1(tampered)


def test_ac1_missing_case_breaks_coverage():
    cert = continuity_cert_ac1(Side.LEFT, Elem(1, 2), NbhdAc1(4))
    tampered = dataclasses.replace(cert, evidence=cert.evidence[:2])
    assert not validate_cert_ac1(tampered)
    assert _covers(cert.evidence, cert.chosen.n) is True
    assert _covers(tampered.evidence, cert.chosen.n) is False


@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
def test_ac1_open_mid_range_caught_by_coverage(side, monkeypatch):
    # [n, m] -> [n, m) on the mid case's bounded range leaves the points with
    # that coordinate equal to m uncovered; every branch record still matches
    t = Elem(1, 2)
    cert = continuity_cert_ac1(side, t, NbhdAc1(4))
    m = cert.chosen.n
    mid = cert.evidence[1]
    field = "a_range" if side is Side.LEFT else "b_range"
    assert mid.case_id == ("mid-a" if side is Side.LEFT else "mid-b")
    assert getattr(mid, field).hi == m and not getattr(mid, field).hi_strict
    opened = dataclasses.replace(
        mid, **{field: dataclasses.replace(getattr(mid, field), hi_strict=True)}
    )
    tampered = dataclasses.replace(
        cert, evidence=(cert.evidence[0], opened, cert.evidence[2])
    )
    assert not validate_cert_ac1(tampered)
    assert _covers(tampered.evidence, m) is False
    # the branch checks pass: coverage alone rejects it
    monkeypatch.setattr(certificates, "_covers_chosen", lambda boxes, top: True)
    assert validate_cert_ac1(tampered)


def test_ac1_range_ends_outside_the_quadrant_or_reversed():
    # the mid case's a-range emptied and the low case's widened to [0, 8]:
    # the low case then covers all the mid case did.  A range with an end
    # below the quadrant, [0, -1] or [-2, -1], holds no point of the chosen
    # set, so it gets the verdict of [1, 0] and of no mid case at all
    cert = continuity_cert_ac1(Side.LEFT, Elem(1, 2), NbhdAc1(4))
    big, mid, low = cert.evidence
    wide = dataclasses.replace(low, a_range=Interval(F(0), False, F(8), False))

    def emptied(lo, hi, strict=False):
        return dataclasses.replace(mid, a_range=Interval(lo, strict, hi, strict), branches=())

    for evidence in (
        (big, emptied(F(0), F(-1)), wide),
        (big, emptied(F(-2), F(-1)), wide),
        (big, emptied(F(1), F(0)), wide),
        (big, wide),
    ):
        tampered = dataclasses.replace(cert, evidence=evidence)
        assert cert_from_text(cert_to_text(tampered)) == tampered
        assert validate_cert_ac1(tampered) is True, evidence[1]
        assert _reference_validate_ac1(tampered) is True
        assert _covers(evidence, cert.chosen.n) is True
    assert falsify(Side.LEFT, Elem(1, 2), cert.chosen, cert.effective, 8) is None
    # a reversed range (8, 4) covers nothing, not even the points between
    # its ends, so with the low case as generated the points with 4 <= a <= 8
    # are left out
    reversed_mid = (big, emptied(F(8), F(4), strict=True), low)
    tampered = dataclasses.replace(cert, evidence=reversed_mid)
    assert validate_cert_ac1(tampered) is False
    assert _reference_validate_ac1(tampered) is False
    assert _covers(reversed_mid, cert.chosen.n) is False


def _mutant_validate_ac1(old, new):
    """validate_cert_ac1 compiled from its source with one edit."""
    src = textwrap.dedent(inspect.getsource(certificates.validate_cert_ac1))
    assert src.count(old) == 1
    namespace = dict(vars(certificates))
    exec(compile(src.replace(old, new), certificates.__file__, "exec"), namespace)
    return namespace["validate_cert_ac1"]


def _widen_mid_case(cert, low):
    """The certificate with its mid case's unbounded range widened down to
    [low, inf) and the branch's infimum recorded as low, attained."""
    mid = cert.evidence[1]
    field = "b_range" if cert.side is Side.LEFT else "a_range"
    (branch,) = mid.branches
    widened = dataclasses.replace(
        mid,
        **{field: Interval(low, False, None, True)},
        branches=(dataclasses.replace(branch, inf_value=low, inf_attained=True),),
    )
    return dataclasses.replace(cert, evidence=(cert.evidence[0], widened, cert.evidence[2]))


@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
def test_ac1_attained_infimum_at_threshold_rejected(side):
    # a box reaching down to n_eff, whose witness coordinate attains n_eff:
    # the infimum is recorded truly, so only the attained bound (inf > n_eff
    # when attained) rejects it.  The extra box lies outside the chosen set,
    # so coverage passes.
    t = Elem(1, 2) if side is Side.LEFT else Elem(2, 1)
    cert = continuity_cert_ac1(side, t, NbhdAc1(F(9, 2)))
    ne, m = cert.effective.n, cert.chosen.n
    assert ne == F(9, 2)
    tampered = _widen_mid_case(cert, ne)
    assert cert_from_text(cert_to_text(tampered)) == tampered
    assert not validate_cert_ac1(tampered)
    assert _covers(tampered.evidence, m)
    mutant = _mutant_validate_ac1("if inf_value <= ne:", "if inf_value < ne:")
    assert mutant(cert) and mutant(tampered)


def _flip_attained(case, tag):
    """``case`` with the branch ``tag``'s record of attainment negated."""
    return dataclasses.replace(
        case,
        branches=tuple(
            dataclasses.replace(br, inf_attained=not br.inf_attained) if br.branch == tag else br
            for br in case.branches
        ),
    )


@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
def test_ac1_infimum_attainment_at_both_coefficients(side):
    # In one branch (gt on the left, lt on the right) the witness moves with
    # both coordinates: the far one and, negated, the driving one, which
    # stops short of the pivot.  Its infimum is attained only when both ends
    # are, and every branch's record of attainment is checked.
    left = side is Side.LEFT
    t = Elem(1, 2) if left else Elem(2, 1)
    cert = continuity_cert_ac1(side, t, NbhdAc1(4))
    big, mid, low = cert.evidence
    near, far, tag = ("a_range", "b_range", "gt") if left else ("b_range", "a_range", "lt")
    # the far range closed at m: the other two branches' witness attains m,
    # this one's does not, since the driving coordinate's end is open
    closed = dataclasses.replace(
        low,
        **{far: Interval(cert.chosen.n, False, None, True)},
        branches=tuple(
            dataclasses.replace(br, inf_attained=br.branch != tag) for br in low.branches
        ),
    )
    # the near range [0, 1] and the far one closed at m: the driving
    # coordinate's end 1 is attained too, and so is the infimum 2 - 1 + 8;
    # the mid case, widened down to (1, 8], takes the low case's branches
    (branch,) = [br for br in low.branches if br.branch == tag]
    attained = dataclasses.replace(
        low,
        **{near: Interval(F(0), False, F(1), False), far: Interval(F(8), False, None, True)},
        branches=(dataclasses.replace(branch, inf_value=F(9), inf_attained=True),),
    )
    widened = dataclasses.replace(
        mid, **{near: Interval(F(1), True, F(8), False)}, branches=low.branches
    )
    # and with the far range open at 8 again, unattained at the far end only
    half = dataclasses.replace(
        attained,
        **{far: Interval(F(8), True, None, True)},
        branches=(dataclasses.replace(branch, inf_value=F(9), inf_attained=False),),
    )
    for evidence in ((big, mid, closed), (big, widened, attained), (big, widened, half)):
        honest = dataclasses.replace(cert, evidence=evidence)
        assert validate_cert_ac1(honest) is True
        assert _reference_validate_ac1(honest) is True
        case = evidence[2]
        for br in case.branches:
            flipped = dataclasses.replace(
                cert, evidence=evidence[:2] + (_flip_attained(case, br.branch),)
            )
            assert validate_cert_ac1(flipped) is False, br.branch


@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
def test_ac1_effective_threshold_denominator_on_the_grid(side):
    # the same widened box down to 4 under an effective threshold of 13/3,
    # whose denominator no other value of the certificate has: a grid that
    # left it out would scale n_eff to 0 and accept the box
    t = Elem(1, 2) if side is Side.LEFT else Elem(2, 1)
    cert = continuity_cert_ac1(side, t, NbhdAc1(4))
    cert = dataclasses.replace(cert, effective=NbhdAc1(F(13, 3)))
    assert validate_cert_ac1(cert)
    tampered = _widen_mid_case(cert, F(4))
    assert cert_from_text(cert_to_text(tampered)) == tampered
    assert not validate_cert_ac1(tampered)
    assert _covers(tampered.evidence, cert.chosen.n)
    mutant = _mutant_validate_ac1("ne_den, *{", "*{")
    assert mutant(cert) and mutant(tampered)


@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
def test_ac1_chosen_threshold_denominator_on_the_grid(side):
    # chosen thresholds of denominator 3, which no other value of the
    # certificate has: 25/3 lies past the case boxes' 8 and validates, 22/3
    # leaves points beyond it uncovered.  A grid that left the chosen
    # threshold's denominator out would scale 25/3 to 0.
    t = Elem(1, 2) if side is Side.LEFT else Elem(2, 1)
    cert = continuity_cert_ac1(side, t, NbhdAc1(4))
    assert cert.chosen == NbhdAc1(8)
    above = dataclasses.replace(cert, chosen=NbhdAc1(F(25, 3)))
    below = dataclasses.replace(cert, chosen=NbhdAc1(F(22, 3)))
    assert validate_cert_ac1(above) and _reference_validate_ac1(above)
    assert not validate_cert_ac1(below) and not _reference_validate_ac1(below)
    mutant = _mutant_validate_ac1("math.lcm(top_den, ", "math.lcm(")
    assert mutant(above) != validate_cert_ac1(above)


def test_ac1_missing_branch_rejected():
    cert = continuity_cert_ac1(Side.LEFT, Elem(1, 2), NbhdAc1(4))
    low = cert.evidence[2]
    assert len(low.branches) == 3
    tampered_case = dataclasses.replace(low, branches=low.branches[:2])
    tampered = dataclasses.replace(cert, evidence=cert.evidence[:2] + (tampered_case,))
    assert not validate_cert_ac1(tampered)


def test_ac1_flipped_witness_rejected():
    cert = continuity_cert_ac1(Side.LEFT, Elem(1, 2), NbhdAc1(4))
    mid = cert.evidence[1]
    flipped = dataclasses.replace(
        mid, branches=(dataclasses.replace(mid.branches[0], witness="a"),)
    )
    tampered = dataclasses.replace(
        cert, evidence=(cert.evidence[0], flipped, cert.evidence[2])
    )
    # witness "a" over the mid box has infimum below the threshold, and the
    # recorded infimum no longer matches either
    assert not validate_cert_ac1(tampered)


def test_ac1_widened_region_rejected():
    cert = continuity_cert_ac1(Side.LEFT, Elem(1, 2), NbhdAc1(4))
    big = cert.evidence[0]
    widened = dataclasses.replace(big, a_range=Interval(F(4), True, None, True))
    tampered = dataclasses.replace(cert, evidence=(widened,) + cert.evidence[1:])
    assert not validate_cert_ac1(tampered)


def test_ac1_effective_below_requested_rejected():
    cert = continuity_cert_ac1(Side.LEFT, Elem(1, 2), NbhdAc1(4))
    tampered = dataclasses.replace(cert, target=NbhdAc1(100))
    assert not validate_cert_ac1(tampered)


def test_ac1_unknown_case_id_malformed():
    cert = continuity_cert_ac1(Side.LEFT, Elem(1, 2), NbhdAc1(4))
    bad = dataclasses.replace(cert.evidence[0], case_id="mystery")
    tampered = dataclasses.replace(cert, evidence=(bad,) + cert.evidence[1:])
    with pytest.raises(MalformedCert):
        validate_cert_ac1(tampered)


def test_ac1_duplicate_branch_malformed():
    cert = continuity_cert_ac1(Side.LEFT, Elem(1, 2), NbhdAc1(4))
    big = cert.evidence[0]
    doubled = dataclasses.replace(big, branches=big.branches + big.branches)
    tampered = dataclasses.replace(cert, evidence=(doubled,) + cert.evidence[1:])
    with pytest.raises(MalformedCert):
        validate_cert_ac1(tampered)


def test_ac1_wrong_topology_malformed():
    cert = continuity_cert_ac1(Side.LEFT, Elem(1, 2), NbhdAc1(4))
    with pytest.raises(MalformedCert):
        validate_cert_ac2(cert)


def test_structural_faults_malformed():
    ac1 = continuity_cert_ac1(Side.LEFT, Elem(1, 2), NbhdAc1(4))
    ac2 = continuity_cert_ac2(Side.LEFT, Elem(1, 2), NbhdAc2((Elem(3, 1),)))
    with pytest.raises(MalformedCert, match="not a threshold-neighbourhood certificate"):
        validate_cert_ac1(ac2)
    # the certificate record refuses the rest when it is built, in the words
    # the validators and the writer used
    kinds = "carries wrong neighbourhood kinds"
    for cert, changes, message in (
        (ac1, {"target": ac2.target}, kinds),
        (ac1, {"chosen": ac2.chosen}, kinds),
        (ac1, {"effective": None}, "missing effective"),
        (ac2, {"target": ac1.target}, kinds),
        (ac2, {"chosen": ac1.chosen}, kinds),
        (ac1, {"topology": "ac3"}, "unknown certificate topology 'ac3'"),
    ):
        with pytest.raises(MalformedCert, match=message):
            dataclasses.replace(cert, **changes)


def test_ac1_boundary_certificate_validates():
    # The chosen threshold moved down onto the target's 20 on the left by
    # (9/2, 0): a point (c, d) with c > 20 or d > 20 maps to (9/2 + c, d),
    # or to (9/2, d) when c = 0, so its image has a coordinate beyond 20.
    # The boundary point (0, 20) maps into the target box, but it is not a
    # chosen point, and every branch record of the certificate is true.
    t = Elem(F(9, 2), 0)
    cert = continuity_cert_ac1(Side.LEFT, t, NbhdAc1(20))
    assert cert.chosen.n == 40 and image(Side.LEFT, t, Elem(0, 20)) == Elem(F(9, 2), 20)
    text = cert_to_text(cert).replace("40/1", "20/1").replace("89/2", "49/2")
    edge = cert_from_text(text)
    assert "\nchosen-n 20/1\n" in text and edge.chosen == NbhdAc1(20)
    assert validate_cert(edge) is True
    assert _reference_validate_ac1(edge) is True
    assert falsify(Side.LEFT, t, edge.chosen, edge.effective, 8) is None


def _fraction_grid_covers(cases, m):
    """Reference coverage decision on the rational endpoint grid: every
    endpoint, the midpoint of each consecutive pair and one point beyond,
    each in the quadrant (a negative range end is no point of the chosen
    set)."""

    def contains(iv, v):
        if v < iv.lo or (v == iv.lo and iv.lo_strict):
            return False
        return iv.hi is None or v < iv.hi or (v == iv.hi and not iv.hi_strict)

    reps = []
    for pick in (lambda c: c.a_range, lambda c: c.b_range):
        vals = {F(0), m}
        for c in cases:
            iv = pick(c)
            vals.add(iv.lo)
            if iv.hi is not None:
                vals.add(iv.hi)
        vals = sorted(vals)
        mids = [(v1 + v2) / 2 for v1, v2 in zip(vals, vals[1:])]
        reps.append([v for v in vals + mids + [vals[-1] + 1] if v >= 0])
    for ra in reps[0]:
        for rb in reps[1]:
            if ra <= m and rb <= m:
                continue
            if not any(contains(c.a_range, ra) and contains(c.b_range, rb) for c in cases):
                return False
    return True


def _mutate_range(rng, iv):
    op = rng.randrange(5)
    shift = F(rng.randrange(-16, 17), rng.choice((1, 2, 4, 8)))
    if op == 0:
        return dataclasses.replace(iv, lo=iv.lo + shift)
    if op == 1 and iv.hi is not None:
        return dataclasses.replace(iv, hi=iv.hi + shift)
    if op == 2:
        return dataclasses.replace(iv, lo_strict=not iv.lo_strict)
    if op == 3 and iv.hi is not None:
        return dataclasses.replace(iv, hi_strict=not iv.hi_strict)
    if iv.hi is None:  # bound it
        return Interval(iv.lo, iv.lo_strict, iv.lo + abs(shift), rng.random() < 0.5)
    return Interval(iv.lo, iv.lo_strict, None, True)  # unbound it


def test_coverage_grid_matches_fraction_reference():
    # endpoint shifts, strictness flips, (un)bounded ranges and dropped cases
    rng = random.Random(8080)

    def q(lo, hi):
        return F(rng.randrange(lo, hi), rng.randrange(1, 9))

    outcomes = {True: 0, False: 0}
    for k in range(2400):
        side = (Side.LEFT, Side.RIGHT)[k % 2]
        cert = continuity_cert_ac1(side, Elem(q(0, 49), q(0, 49)), NbhdAc1(q(1, 97)))
        cases = list(cert.evidence)
        for _ in range(rng.randint(1, 3)):
            if cases and rng.random() < 0.15:
                del cases[rng.randrange(len(cases))]
                continue
            i = rng.randrange(len(cases))
            field = rng.choice(("a_range", "b_range"))
            cases[i] = dataclasses.replace(
                cases[i], **{field: _mutate_range(rng, getattr(cases[i], field))}
            )
        m = cert.chosen.n
        expected = _fraction_grid_covers(cases, m)
        assert _covers(cases, m) == expected, (cert, cases)
        outcomes[expected] += 1
    assert min(outcomes.values()) > 200, outcomes


# The Fraction reference for the integer branch checks and coverage of
# ``validate_cert_ac1``: the same checks in the same order, on rationals.


def _iv_meet(i1, i2):
    if i1.lo > i2.lo:
        lo, lo_strict = i1.lo, i1.lo_strict
    elif i2.lo > i1.lo:
        lo, lo_strict = i2.lo, i2.lo_strict
    else:
        lo, lo_strict = i1.lo, i1.lo_strict or i2.lo_strict
    if i1.hi is None:
        hi, hi_strict = i2.hi, i2.hi_strict
    elif i2.hi is None:
        hi, hi_strict = i1.hi, i1.hi_strict
    elif i1.hi < i2.hi:
        hi, hi_strict = i1.hi, i1.hi_strict
    elif i2.hi < i1.hi:
        hi, hi_strict = i2.hi, i2.hi_strict
    else:
        hi, hi_strict = i1.hi, i1.hi_strict or i2.hi_strict
    return Interval(lo, lo_strict, hi, hi_strict)


def _iv_nonempty(iv):
    if iv.hi is None:
        return True
    if iv.lo < iv.hi:
        return True
    return iv.lo == iv.hi and not iv.lo_strict and not iv.hi_strict


def _branch_interval(side, branch, pivot):
    if branch == "eq":
        return Interval(pivot, False, pivot, False)
    below = Interval(F(0), False, pivot, True)
    above = Interval(pivot, True, None, True)
    if side is Side.LEFT:
        return above if branch == "lt" else below
    return below if branch == "lt" else above


def _expected_images(side, translator, branch):
    x, y = translator.a, translator.b
    one, zero = F(1), F(0)
    if side is Side.LEFT:
        if branch == "lt":
            return (one, zero, x - y), (zero, one, zero)
        if branch == "eq":
            return (zero, zero, x), (zero, one, zero)
        return (zero, zero, x), (-one, one, y)
    if branch == "lt":
        return (one, -one, x), (zero, zero, y)
    if branch == "eq":
        return (one, zero, zero), (zero, zero, y)
    return (one, zero, zero), (zero, one, y - x)


def _affine_inf(coeffs, iv_a, iv_b):
    ca, cb, const = coeffs
    total = const
    attained = True
    for c, iv in ((ca, iv_a), (cb, iv_b)):
        if c == 0:
            continue
        if c > 0:
            total += c * iv.lo
            attained = attained and not iv.lo_strict
        else:
            if iv.hi is None:
                return None
            total += c * iv.hi
            attained = attained and not iv.hi_strict
    return total, attained


def _reference_validate_ac1(cert):
    if cert.topology != "ac1":
        raise MalformedCert("not a threshold-neighbourhood certificate")
    if not isinstance(cert.target, NbhdAc1) or not isinstance(cert.chosen, NbhdAc1):
        raise MalformedCert("threshold certificate carries wrong neighbourhood kinds")
    if cert.effective is None:
        raise MalformedCert("missing effective target threshold")
    for case in cert.evidence:
        for record in case.branches:
            if record.branch not in ("lt", "eq", "gt"):
                raise MalformedCert(f"unknown branch tag {record.branch!r}")
            if record.witness not in ("a", "b"):
                raise MalformedCert(f"unknown witness coordinate {record.witness!r}")
    known_ids = certificates._CASE_IDS[cert.side]
    seen_ids = [c.case_id for c in cert.evidence]
    for cid in seen_ids:
        if cid not in known_ids:
            raise MalformedCert(f"unknown case id {cid!r}")
    if len(set(seen_ids)) != len(seen_ids):
        raise MalformedCert("duplicate case id")
    n_eff, m = cert.effective.n, cert.chosen.n
    if n_eff < cert.target.n:
        return False
    left = cert.side is Side.LEFT
    pivot = cert.translator.b if left else cert.translator.a
    for case in cert.evidence:
        records = {b.branch: b for b in case.branches}
        if len(records) != len(case.branches):
            raise MalformedCert("duplicate branch record")
        driving = case.a_range if left else case.b_range
        for tag in ("lt", "eq", "gt"):
            meet = _iv_meet(driving, _branch_interval(cert.side, tag, pivot))
            record = records.get(tag)
            if _iv_nonempty(meet) != (record is not None):
                return False
            if record is None:
                continue
            if (record.image_a, record.image_b) != _expected_images(
                cert.side, cert.translator, tag
            ):
                return False
            iv_a, iv_b = (meet, case.b_range) if left else (case.a_range, meet)
            coeffs = record.image_a if record.witness == "a" else record.image_b
            derived = _affine_inf(coeffs, iv_a, iv_b)
            if derived is None:
                return False
            inf_value, attained = derived
            if inf_value != record.inf_value or attained != record.inf_attained:
                return False
            if attained:
                if inf_value <= n_eff:
                    return False
            elif inf_value < n_eff:
                return False
    return _fraction_grid_covers(cert.evidence, m)


def _outcome(validate, cert):
    """The verdict, or the message of the MalformedCert raised instead."""
    try:
        return validate(cert)
    except MalformedCert as exc:
        return f"malformed: {exc}"


_TRUSTED = {
    Interval: _interval,
    BranchEvidence: _branch,
    CaseEvidence: _case,
    TopEvidence: _top_evidence,
    ContinuityCert: _cert,
    NbhdAc1: _ac1,
    NbhdAc2: _ac2,
}


def _unchecked_replace(record, **changes):
    """``dataclasses.replace`` through the record's trusted constructor, so
    that a tamper may hold a value the public constructors refuse."""
    values = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
    return _TRUSTED[type(record)](**{**values, **changes})


def _public_build(value):
    """``value`` rebuilt, at every depth, through the public constructors of
    its records, which refuse what the text format cannot hold."""
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return type(value)(*(_public_build(getattr(value, f.name)) for f in fields))
    if isinstance(value, tuple):
        return tuple(_public_build(v) for v in value)
    return value


def _tamper_ac1(rng, cert):
    """One to three seeded edits of an ac1 certificate: range endpoints and
    strictness (some moved onto the pivot), image rows, infima, attained
    flags, witnesses, branch tags, dropped branches and cases, thresholds
    (alone, or with the range ends on them) and the translator.  The edits
    are built through the trusted constructors (``_public_build`` checks
    them)."""
    replace = _unchecked_replace
    cases = list(cert.evidence)

    def shift():
        return F(rng.randrange(-8, 9), rng.choice((1, 2, 3, 4)))

    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(12)
        if op == 11:
            # move a threshold together with every range end that sits on it
            field = rng.choice(("effective", "chosen"))
            old = getattr(cert, field).n
            new = rng.choice((cert.effective.n, cert.chosen.n, old + shift()))
            if new <= 0:
                continue

            def move(iv):
                hi = new if iv.hi == old else iv.hi
                return replace(iv, lo=new if iv.lo == old else iv.lo, hi=hi)

            cases = [
                replace(c, a_range=move(c.a_range), b_range=move(c.b_range))
                for c in cases
            ]
            cert = replace(cert, **{field: NbhdAc1(new)})
            continue
        if op >= 9 or not cases:
            field = ("target", "effective", "chosen", "translator")[rng.randrange(4)]
            if field == "translator":
                t = cert.translator
                t = Elem(max(F(0), t.a + shift()), max(F(0), t.b + shift()))
                cert = replace(cert, translator=t)
            else:
                n = getattr(cert, field).n + shift()
                cert = replace(cert, **{field: NbhdAc1(n if n > 0 else F(1, 2))})
            continue
        i = rng.randrange(len(cases))
        case = cases[i]
        branches = list(case.branches)
        if op <= 1:
            field = rng.choice(("a_range", "b_range"))
            iv = getattr(case, field)
            if op == 1:  # put an end on the pivot
                pivot = cert.translator.b if cert.side is Side.LEFT else cert.translator.a
                end = "lo" if iv.hi is None or rng.random() < 0.5 else "hi"
                iv = replace(iv, **{end: pivot})
            else:
                iv = _mutate_range(rng, iv)
            cases[i] = replace(case, **{field: iv})
            continue
        if op == 8:
            if rng.random() < 0.8:
                del cases[i]
            else:
                cases.insert(i, case)
            continue
        if not branches:
            continue
        j = rng.randrange(len(branches))
        br = branches[j]
        if op == 2:
            row = rng.choice(("image_a", "image_b"))
            coeffs = list(getattr(br, row))
            k = rng.randrange(3)
            coeffs[k] = rng.choice((F(-1), F(0), F(1), coeffs[k] + shift()))
            br = replace(br, **{row: tuple(coeffs)})
        elif op == 3:
            br = replace(br, inf_value=br.inf_value + shift())
        elif op == 4:
            br = replace(br, inf_attained=not br.inf_attained)
        elif op == 5:
            br = replace(br, witness=rng.choice(("a", "b", "a", "b", "c")))
        elif op == 6:
            br = replace(br, branch=rng.choice(("lt", "eq", "gt", "lt", "eq", "gt", "ge")))
        if op == 7:
            if rng.random() < 0.85:
                del branches[j]
            else:
                branches.insert(j, br)
        else:
            branches[j] = br
        cases[i] = replace(case, branches=tuple(branches))
    return replace(cert, evidence=tuple(cases))


def _rederive_records(cert):
    """The certificate with every case's branch records derived by the
    reference, so that only the threshold checks and coverage can reject
    it: each branch whose meet is nonempty, its images, and the witness with
    the larger infimum."""
    left = cert.side is Side.LEFT
    pivot = cert.translator.b if left else cert.translator.a
    cases = []
    for case in cert.evidence:
        driving = case.a_range if left else case.b_range
        branches = []
        for tag in ("lt", "eq", "gt"):
            meet = _iv_meet(driving, _branch_interval(cert.side, tag, pivot))
            if not _iv_nonempty(meet):
                continue
            rows = _expected_images(cert.side, cert.translator, tag)
            iv_a, iv_b = (meet, case.b_range) if left else (case.a_range, meet)
            infs = [_affine_inf(row, iv_a, iv_b) or (F(-1), False) for row in rows]
            w = 0 if infs[0][0] >= infs[1][0] else 1
            branches.append(BranchEvidence(tag, *rows, "ab"[w], *infs[w]))
        cases.append(dataclasses.replace(case, branches=tuple(branches)))
    return dataclasses.replace(cert, evidence=tuple(cases))


def test_ac1_validator_matches_fraction_reference():
    # every verdict and every MalformedCert message of the integer validator
    # equals the Fraction reference's, on honest certificates and on seeded
    # tampers of both sides, a third of them with re-derived branch records
    rng = random.Random(4711)

    def q(lo, hi):
        return F(rng.randrange(lo, hi), rng.randrange(1, 9))

    outcomes = Counter()
    for k in range(4000):
        side = (Side.LEFT, Side.RIGHT)[k % 2]
        cert = continuity_cert_ac1(side, Elem(q(0, 49), q(0, 49)), NbhdAc1(q(1, 97)))
        if k % 10:
            cert = _tamper_ac1(rng, cert)
        if k % 3 == 0:
            cert = _rederive_records(cert)
        expected = _outcome(_reference_validate_ac1, cert)
        try:
            cert = _public_build(cert)
        except MalformedCert as exc:
            # the records refuse the tamper when built, in the reference's words
            assert expected == f"malformed: {exc}", cert
            outcomes["refused"] += 1
            continue
        assert _outcome(validate_cert_ac1, cert) == expected, cert
        outcomes[expected if expected in (True, False) else "malformed"] += 1
        if expected is True:
            # an accepted certificate holds: the probes at budget 8 are
            # exhaustive, so no chosen point escapes the effective target
            assert cert.effective.n >= cert.target.n, cert
            assert falsify(cert.side, cert.translator, cert.chosen, cert.effective, 8) is None
    assert min(outcomes[k] for k in (True, False, "malformed")) > 150, outcomes
    assert outcomes["refused"] > 50, outcomes


@settings(max_examples=40)
@given(small_elems, st.fractions(min_value=0, max_value=5, max_denominator=8))
def test_ac1_generated_certificates_validate(t, extra):
    target = NbhdAc1(max(t.a, t.b) + 2 + extra)
    for side in (Side.LEFT, Side.RIGHT):
        cert = continuity_cert_ac1(side, t, target)
        assert cert.effective == target
        assert validate_cert_ac1(cert)
        assert falsify(side, t, cert.chosen, cert.effective, 400, 11) is None


def _generator_instances():
    """2400 seeded threshold and 2400 segment instances, the sides
    alternating; every third translator has a zero coordinate.  The
    threshold targets take turns: exactly max(translator) + 1, a step above
    it, a step below it, and a free draw."""
    rng = random.Random(1414)

    def q(hi=12, den=8):
        return F(rng.randrange(hi + 1), rng.randrange(1, den + 1))

    for k in range(2400):
        side = Side.LEFT if k % 2 == 0 else Side.RIGHT
        a, b = q(), q()
        if k % 3 == 0:
            a, b = (0, b) if k % 2 else (a, 0)
        t = Elem(a, b)
        hyp = max(t.a, t.b) + 1
        step = F(1, rng.randrange(2, 9))
        yield side, t, NbhdAc1((hyp, hyp + step, hyp - step, q() + F(1, 7))[k % 4])
        yield side, t, NbhdAc2(tuple(Elem(q(), q()) for _ in range(1 + k % 3)))


def test_integer_generator_matches_fraction_reference():
    # the integer generator builds the certificate, and the text, of the
    # Fraction generator it replaced
    seen = Counter()
    for side, t, target in _generator_instances():
        if isinstance(target, NbhdAc1):
            cert = continuity_cert_ac1(side, t, target)
            expected = fraction_generator.continuity_cert_ac1(side, t, target)
            hyp = max(t.a, t.b) + 1
            # the boundary: a target at max(translator) + 1 is not past it,
            # so it is enlarged to max + 2; only a target above it is kept
            kept = cert.effective.n == target.n
            assert kept == (target.n > hyp), (t, target)
            assert kept or cert.effective.n == hyp + 1
            n = cert.effective.n
            assert cert.chosen.n.denominator == (
                n.denominator // 2 if n.denominator % 2 == 0 else n.denominator
            )
            seen["kept" if kept else "at" if target.n == hyp else "enlarged"] += 1
            seen["even" if n.denominator % 2 == 0 else "odd"] += 1
            seen["zero", side, t.a == 0 or t.b == 0] += 1
        else:
            cert = continuity_cert_ac2(side, t, target)
            expected = fraction_generator.continuity_cert_ac2(side, t, target)
            seen["empty preimage"] += any(ev.preimage_top is None for ev in cert.evidence)
        assert cert == expected, (side, t, target)
        assert cert_to_text(cert) == cert_to_text(expected), (side, t, target)
    assert min(seen.values()) > 100, seen


def test_ac1_threshold_enlargement_boundary():
    # max(3/2, 5/2) + 1 = 7/2: a target there is enlarged to 9/2, one just
    # above it is kept; the chosen threshold doubles it (halving an even
    # denominator)
    t = Elem("3/2", "5/2")
    for target, effective, chosen in (
        ("7/2", "9/2", 9),
        ("15/4", "15/4", "15/2"),
        ("10/3", "9/2", 9),
        ("7/3", "9/2", 9),
    ):
        cert = continuity_cert_ac1(Side.LEFT, t, NbhdAc1(target))
        assert (cert.effective.n, cert.chosen.n) == (F(effective), F(chosen)), target


def _records(cert):
    """The certificate and every record it holds, the Elems excepted."""
    yield cert
    yield cert.target
    yield cert.chosen
    if cert.effective is not None:
        yield cert.effective
    for ev in cert.evidence:
        yield ev
        if isinstance(ev, certificates.CaseEvidence):
            yield ev.a_range
            yield ev.b_range
            yield from ev.branches


def test_slotted_records_copy_pickle_replace_and_stay_frozen():
    # the generator's records and the reader's, both built by the trusted
    # constructors, and the region records of the order geometry, built by
    # its trusted constructors
    ac1 = continuity_cert_ac1(Side.RIGHT, Elem("5/2", "1/3"), NbhdAc1("9/2"))
    ac2 = continuity_cert_ac2(Side.LEFT, Elem(5, 0), NbhdAc2((Elem(3, 1), Elem(7, 2))))
    read1, read2 = (cert_from_text(cert_to_text(c)) for c in (ac1, ac2))
    assert (read1, read2) == (ac1, ac2)
    regions = (
        down_set(Elem(2, 3), True),
        line_product(LineRef(Sign.MINUS, 2), LineRef(Sign.PLUS, 3)),
        up_set(Elem(1, 2)),
        preimage_up_segment(Side.LEFT, Elem(1, 2), up_set(Elem(3, 1))),
        line_product(LineRef(Sign.PLUS, 1), LineRef(Sign.MINUS, 2)),
    )
    kinds = set()
    for record in (
        *_records(ac1), *_records(ac2), *_records(read1), *_records(read2), *regions
    ):
        kinds.add(type(record))
        assert not hasattr(record, "__dict__"), type(record)
        for twin in (
            copy.copy(record),
            copy.deepcopy(record),
            pickle.loads(pickle.dumps(record)),
        ):
            assert twin == record and hash(twin) == hash(record), type(record)
        field = dataclasses.fields(record)[0].name
        assert dataclasses.replace(record) == record
        value = getattr(record, field)
        assert getattr(dataclasses.replace(record, **{field: value}), field) == value
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, value)
        if type(record) in (DownRay, UpSegment, FullLine):
            # the public constructor, which replace goes through, checks
            # what the trusted ones were handed
            with pytest.raises(TypeError, match=f"^{field} must be"):
                dataclasses.replace(record, **{field: str(value)})
    assert kinds == {
        ContinuityCert,
        NbhdAc1,
        NbhdAc2,
        Interval,
        certificates.CaseEvidence,
        BranchEvidence,
        certificates.TopEvidence,
        DownRay,
        UpSegment,
        FullLine,
    }


def _frozen_slotted_records():
    """Every frozen slotted dataclass defined in the package's modules."""
    for info in pkgutil.iter_modules(realbicyclic.__path__):
        if info.name.startswith("_"):  # __main__ runs the CLI
            continue
        module = importlib.import_module(f"realbicyclic.{info.name}")
        for cls in vars(module).values():
            if (
                isinstance(cls, type)
                and dataclasses.is_dataclass(cls)
                and cls.__module__ == module.__name__
                and cls.__dataclass_params__.frozen
                and "__slots__" in vars(cls)
            ):
                yield cls


def test_trusted_constructors_match_public_ones():
    # each trusted constructor builds the record its public constructor
    # builds from the same fields: equal, equally hashed, of the same type,
    # holding the very same field values
    iv = (F(7, 2), True, None, True)
    br = ("lt", (F(1), F(0), F(-1, 2)), (F(0), F(1), F(0)), "a", F(9, 2), False)
    case = ("big-a", Interval(*iv), Interval(F(0), False, F(3), True), (BranchEvidence(*br),))
    top = (Elem(3, 1), None, F(-3), None)
    ac1 = ("ac1", Side.LEFT, Elem(1, 2), NbhdAc1(4), NbhdAc1(8), (CaseEvidence(*case),))
    ac1 += (NbhdAc1(4),)
    ac2 = ("ac2", Side.RIGHT, Elem(1, 2), NbhdAc2((Elem(3, 1),)), NbhdAc2((Elem(6, 3),)))
    ac2 += ((TopEvidence(*top),),)
    table = (
        (_interval, Interval, iv),
        (_interval, Interval, (F(0), False, F(5, 3), False)),
        (_branch, BranchEvidence, br),
        (_case, CaseEvidence, case),
        (_top_evidence, TopEvidence, top),
        (_top_evidence, TopEvidence, (Elem(3, 1), Elem(2, 1), F(1, 2), Elem(4, 3))),
        (_cert, ContinuityCert, ac1),
        (_cert, ContinuityCert, ac2),
        (_ac1, NbhdAc1, (F(9, 2),)),
        (_ac2, NbhdAc2, ((Elem(3, 1), Elem(7, 2)),)),
        (_down, DownRay, (Elem(2, 3), False)),
        (_down, DownRay, (Elem(0, F(7, 2)), True)),
        (_up, UpSegment, (Elem(F(1, 2), 4),)),
        (_full, FullLine, (LineRef(Sign.MINUS, F(1, 2)),)),
    )
    for trusted, public, fields in table:
        built, expected = trusted(*fields), public(*fields)
        assert type(built) is public
        assert built == expected and hash(built) == hash(expected), public
        names = [f.name for f in dataclasses.fields(public)]
        assert all(getattr(built, n) is v for n, v in zip(names, fields)), public
    # _cert leaves an ac2 certificate's effective threshold at its default
    assert _cert(*ac2).effective is None
    # the table covers every frozen slotted dataclass of the package, and
    # each trusted constructor's parameters are its record's fields, in
    # order, with their defaults
    assert {public for _, public, _ in table} == set(_frozen_slotted_records())
    for trusted, public, _ in table:
        params = inspect.signature(trusted).parameters.values()
        got = [(p.name, dataclasses.MISSING if p.default is p.empty else p.default) for p in params]
        assert got == [(f.name, f.default) for f in dataclasses.fields(public)], public
    # the public names are the checked constructors
    assert down_set is DownRay and up_set is UpSegment
    # a trusted constructor runs no __post_init__, so it skips the checks
    assert _ac1(F(0)).n == 0
    with pytest.raises(ValueError):
        NbhdAc1(0)


_BAD_SIDES = ("left", "right", 0, None, Side)


def _api_calls(side):
    """One call per public entry point that takes a side."""
    t, nb1, nb2 = Elem(1, 2), NbhdAc1(3), NbhdAc2((Elem(3, 1),))
    honest1 = continuity_cert_ac1(Side.LEFT, t, nb1)
    honest2 = continuity_cert_ac2(Side.LEFT, t, nb2)
    return {
        "translate_down_ray": lambda: translate_down_ray(side, t, down_set(Elem(3, 1))),
        "preimage_up_segment": lambda: preimage_up_segment(side, t, up_set(Elem(3, 1))),
        "cert_to_text ac1": lambda: cert_to_text(dataclasses.replace(honest1, side=side)),
        "cert_to_text ac2": lambda: cert_to_text(dataclasses.replace(honest2, side=side)),
        "write_cert": lambda: write_cert(dataclasses.replace(honest1, side=side), os.devnull),
        "continuity_cert_ac1": lambda: continuity_cert_ac1(side, t, nb1),
        "continuity_cert_ac2": lambda: continuity_cert_ac2(side, t, nb2),
        "validate_cert ac1": lambda: validate_cert(dataclasses.replace(honest1, side=side)),
        "validate_cert ac2": lambda: validate_cert(dataclasses.replace(honest2, side=side)),
        "validate_cert_ac1": lambda: validate_cert_ac1(dataclasses.replace(honest1, side=side)),
        "validate_cert_ac2": lambda: validate_cert_ac2(dataclasses.replace(honest2, side=side)),
        "falsify ac1": lambda: falsify(side, t, nb1, NbhdAc1(4), 100),
        "falsify ac2": lambda: falsify(side, t, nb2, nb2, 100),
    }


def test_bad_arguments_are_typed_errors(tmp_path, capsys):
    # a side that is not a Side (a string used to act as the right side), a
    # falsifier budget that is not an int (True used to run one probe) and a
    # seed that is not an int (1.5 and True used to run silently) are
    # TypeErrors naming the parameter, never a verdict; a NUL byte in a CLI
    # path is exit 2 with the usual message, never a traceback
    nb = NbhdAc1(4)
    table = [(call, "side") for side in _BAD_SIDES for call in _api_calls(side).values()]
    table += [
        (functools.partial(falsify, Side.LEFT, Elem(1, 2), nb, nb, samples), "samples")
        for samples in (True, False, 1.5, F(8), "8", None)
    ]
    table += [
        (functools.partial(falsify, Side.LEFT, Elem(1, 2), nb, nb, 8, seed), "seed")
        for seed in (1.5, True, "x", None)
    ]
    # a generator's target of the other kind, and a region record's field of
    # the wrong type, used to fail later with an AttributeError
    nb2 = NbhdAc2((Elem(3, 1),))
    table += [
        (functools.partial(continuity_cert_ac1, Side.LEFT, Elem(1, 2), target), "target")
        for target in (nb2, 4, F(4), None)
    ]
    table += [
        (functools.partial(continuity_cert_ac2, Side.LEFT, Elem(1, 2), target), "target")
        for target in (nb, (Elem(3, 1),), Elem(3, 1), None)
    ]
    # a translator that is not an Elem, and a falsifier's neighbourhoods of
    # mixed or no kind, used to fail with an AttributeError or a bespoke message
    table += [
        (functools.partial(continuity_cert_ac1, Side.LEFT, (1, 2), nb), "translator"),
        (functools.partial(continuity_cert_ac2, Side.LEFT, (1, 2), nb2), "translator"),
        (functools.partial(falsify, Side.LEFT, (1, 2), NbhdAc1(3), nb, 10), "translator"),
        (functools.partial(falsify, Side.LEFT, Elem(1, 2), nb, nb2, 10), "target"),
        (functools.partial(falsify, Side.LEFT, Elem(1, 2), nb2, nb, 10), "target"),
        (functools.partial(falsify, Side.LEFT, Elem(1, 2), "x", nb, 10), "chosen"),
        (functools.partial(nbhd_invert, "x"), "nbhd"),
    ]
    table += [
        (functools.partial(DownRay, (1, 2)), "base"),
        (functools.partial(DownRay, ZERO), "base"),
        (functools.partial(DownRay, Elem(1, 2), 1), "punctured"),
        (functools.partial(DownRay, Elem(1, 2), None), "punctured"),
        (functools.partial(UpSegment, 3), "top"),
        (functools.partial(UpSegment, "(1,2)"), "top"),
        (functools.partial(FullLine, "L+1"), "line"),
        (functools.partial(FullLine, (Sign.PLUS, 1)), "line"),
        # the public down_set and up_set used to skip every check
        (functools.partial(down_set, (1, 2)), "base"),
        (functools.partial(up_set, (1, 2)), "top"),
    ]
    # a region of the wrong kind handed to a translation used to fail with
    # an AttributeError on its base or top
    table += [
        (functools.partial(translate_down_ray, Side.LEFT, Elem(1, 2), (1, 2)), "r"),
        (functools.partial(preimage_up_segment, Side.LEFT, Elem(1, 2), Elem(3, 1)), "u"),
    ]
    # and a translator that is not an Elem used to fail with an AttributeError,
    # or to name the parameter of the product it reached
    table += [
        (functools.partial(translate, side, (1, 2), region), "t")
        for side in (Side.LEFT, Side.RIGHT)
        for translate, region in (
            (translate_down_ray, down_set(Elem(3, 1))),
            (preimage_up_segment, up_set(Elem(3, 1))),
        )
    ]
    # a line or point of the wrong type handed to the line layer used to fail
    # with an AttributeError
    line = LineRef(Sign.MINUS, 2)
    table += [
        (functools.partial(line_product, "L+1", line), "l1"),
        (functools.partial(line_product, line, "L+1"), "l2"),
        (functools.partial(line_point, "L+1", 2), "line"),
        (functools.partial(classify_line, (1, 2)), "e"),
        (functools.partial(factor_in_line_product, Elem(1, 2), "L+1", line), "l1"),
        (functools.partial(factor_in_line_product, (1, 2), line, line), "target"),
    ]
    # a point of the wrong type handed to the product, the order, inversion
    # or a threshold neighbourhood used to fail with an AttributeError
    table += [
        (functools.partial(mul, (1, 2), Elem(1, 2)), "e1"),
        (functools.partial(mul, Elem(1, 2), (1, 2)), "e2"),
        (functools.partial(natural_leq, (1, 2), Elem(1, 2)), "e1"),
        (functools.partial(inv, "x"), "e"),
        (functools.partial(NbhdAc1(4).member, (1, 2)), "e"),
        (functools.partial(NbhdOrder, (1, 2), 1), "center"),
    ]
    # a certificate entry point handed no certificate, or a reader no str,
    # used to fail with an AttributeError
    table += [
        (functools.partial(validate_cert, "x"), "cert"),
        (functools.partial(validate_cert_ac1, "x"), "cert"),
        (functools.partial(validate_cert_ac2, None), "cert"),
        (functools.partial(cert_to_text, None), "cert"),
        (functools.partial(cert_from_text, None), "text"),
        (functools.partial(cert_from_text, b"realbicyclic-cert 1\n"), "text"),
    ]
    # a float, an int or a bool where a record holds a Fraction, and a
    # translator that is not an Elem: a float offset used to validate and be
    # written as -3/1; the records refuse each when they are built
    t = Elem(1, 2)
    ac1 = continuity_cert_ac1(Side.LEFT, t, NbhdAc1(4))
    ac2 = continuity_cert_ac2(Side.LEFT, t, NbhdAc2((Elem(3, 1), Elem(2, 5))))
    (case, *cases), (ev, *evs) = ac1.evidence, ac2.evidence
    assert ac1.chosen.n == 8 and ev.offset == -3
    replace = dataclasses.replace
    table += [
        (functools.partial(replace, ev, offset=-3.0), "offset"),
        (functools.partial(replace, case.a_range, lo=float(case.a_range.lo)), "lo"),
        (functools.partial(replace, case.branches[0], inf_value=8), "inf_value"),
        (functools.partial(replace, ac1, translator=(1, 2)), "translator"),
        (functools.partial(replace, ac2, translator=(1, 2)), "translator"),
    ]
    # the last operands that used to fail with an AttributeError, or to name
    # the parameter of the callee they reached
    e = Elem(1, 2)
    table += [
        (functools.partial(mul_branch, (1, 2), e), "e1"),
        (functools.partial(mul_branch, e, "x"), "e2"),
        (functools.partial(is_idempotent, (1, 2)), "e"),
        (functools.partial(shrink_witness, (1, 2), e), "e0"),
        (functools.partial(shrink_witness, e, (1, 2)), "e1"),
        (functools.partial(shrink_witness_dual, (1, 2), e), "e0"),
        (functools.partial(shrink_witness_dual, e, (1, 2)), "e1"),
        (functools.partial(FullLine(line).member, (1, 2)), "e"),
        (functools.partial(NbhdAc2((Elem(3, 1),)).member, (1, 2)), "e"),
        (functools.partial(UpSegment(e).member, (1, 2)), "e"),
        (functools.partial(DownRay(e).member, (1, 2)), "e"),
        (functools.partial(DownRay(e, True).member, (1, 2)), "e"),
    ]
    # an expression or a line that is not a str used to fail in the regex
    # module or with an AttributeError
    table += [(functools.partial(parse_expr, text), "text") for text in (None, 12, b"(1,2)")]
    table += [(functools.partial(line_literal, None), "text")]
    for call, param in table:
        with pytest.raises(TypeError, match=f"^{param} must be"):
            call()
    with pytest.raises(TypeError) as info:
        line_product("L+1", line)
    assert str(info.value) == "l1 must be a LineRef, not 'L+1'"
    with pytest.raises(TypeError) as info:
        NbhdOrder((1, 2), 1)
    assert str(info.value) == "center must be an Elem, not (1, 2)"
    with pytest.raises(TypeError) as info:
        classify_line((1, 2))
    assert str(info.value) == "e must be an Elem, not (1, 2)"
    with pytest.raises(TypeError) as info:
        NbhdAc1(4).member((1, 2))
    assert str(info.value) == "e must be an Elem or a ZeroType, not (1, 2)"
    with pytest.raises(TypeError) as info:
        replace(ev, offset=-3.0)
    assert str(info.value) == "offset must be a Fraction, not -3.0"
    with pytest.raises(TypeError) as info:
        NbhdAc2((Elem(3, 1),)).member((1, 2))
    assert str(info.value) == "e must be an Elem or a ZeroType, not (1, 2)"
    either = "must be a NbhdAc1 or a NbhdAc2, not 'x'"
    for call, message in (
        (lambda: nbhd_invert("x"), f"nbhd {either}"),
        (lambda: falsify(Side.LEFT, t, "x", nb, 10), f"chosen {either}"),
        (lambda: falsify(Side.LEFT, t, nb, nb2, 10), f"target must be a NbhdAc1, not {nb2!r}"),
    ):
        with pytest.raises(TypeError) as info:
            call()
        assert str(info.value) == message
    # the records refuse neighbourhoods of the wrong kind, an evidence entry
    # that is not a record of the topology's kind and an image row of two
    # coefficients when they are built, in the words the writer and the
    # validators used: each used to end in an AttributeError, and the short
    # row used to be reported as a number past the digit limit
    kinds = "{} certificate carries wrong neighbourhood kinds"
    entry = "evidence entry {!r} is not a {}"
    short = case.branches[0].image_a[:2]
    for record, changes, message in (
        (ac1, {"target": ac2.target}, kinds.format("threshold")),
        (ac1, {"chosen": ac2.chosen}, kinds.format("threshold")),
        (ac2, {"target": ac1.target}, kinds.format("segment")),
        (ac1, {"evidence": (case, None)}, entry.format(None, "CaseEvidence")),
        (ac1, {"evidence": ac2.evidence}, entry.format(ev, "CaseEvidence")),
        (ac2, {"evidence": (None, *evs)}, entry.format(None, "TopEvidence")),
        (ac2, {"evidence": ac1.evidence}, entry.format(case, "TopEvidence")),
        (case.branches[0], {"image_a": short}, "an image row must have three coefficients"),
    ):
        with pytest.raises(MalformedCert) as info:
            replace(record, **changes)
        assert str(info.value) == message, changes
    # the same calls with a Side: the left side's witness (4,0), not the
    # right side's (4,1) that "left" used to give
    results = {name: call() for name, call in _api_calls(Side.LEFT).items()}
    assert results["falsify ac1"] == Elem(4, 0)
    assert all(results[name] is True for name in results if name.startswith("validate"))

    cert = tmp_path / "a.cert"
    honest = ["certify", "ac1", "--side", "left", "--translator", "(1,2)", "--target", "4"]
    assert main(honest + ["--emit", str(cert)]) == 0
    capsys.readouterr()
    for argv, verb, path in (
        (["validate", "\x00"], "read", "\x00"),
        (["validate", str(cert) + "\x00"], "read", str(cert) + "\x00"),
        (honest + ["--emit", "a\x00b"], "write", "a\x00b"),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot {verb} {path}: embedded null byte\n", argv


_WRONG_KINDS = (None, (1, 2), "x", 3.0, -1, F(-1), Elem(1, 1), True)


def _field_paths(value, path=()):
    """The path of every field of a record at every depth: each dataclass
    field, and each entry of a tuple a field holds."""
    if dataclasses.is_dataclass(value):
        items = [(f.name, getattr(value, f.name)) for f in dataclasses.fields(value)]
    elif isinstance(value, tuple):
        items = list(enumerate(value))
    else:
        return
    for key, item in items:
        yield path + (key,)
        yield from _field_paths(item, path + (key,))


def _replaced(value, path, new):
    """``value`` with the field or tuple entry at ``path`` set to ``new``,
    rebuilt outwards with nested ``dataclasses.replace``."""
    if not path:
        return new
    key, rest = path[0], path[1:]
    if isinstance(key, int):
        return value[:key] + (_replaced(value[key], rest, new),) + value[key + 1 :]
    return dataclasses.replace(value, **{key: _replaced(getattr(value, key), rest, new)})


def test_every_record_field_is_checked_when_built():
    # each wrong-kind value at each field path of a generated certificate of
    # each kind is refused when its records are built, or the certificate it
    # builds has a text that reads back as itself and gets a verdict or a
    # MalformedCert; no AttributeError reaches the caller
    ac1 = continuity_cert_ac1(Side.RIGHT, Elem("5/2", "1/3"), NbhdAc1("9/2"))
    ac2 = continuity_cert_ac2(Side.LEFT, Elem(5, 0), NbhdAc2((Elem(3, 1), Elem(7, 2))))
    assert {ev.preimage_top is None for ev in ac2.evidence} == {True, False}
    seen = Counter()
    for cert in (ac1, ac2):
        for path in _field_paths(cert):
            for new in _WRONG_KINDS:
                try:
                    built = _replaced(cert, path, new)
                except (TypeError, ValueError):
                    seen["refused"] += 1
                    continue
                assert cert_from_text(cert_to_text(built)) == built, (path, new)
                verdict = _outcome(validate_cert, built)
                assert verdict in (True, False) or verdict.startswith("malformed: "), verdict
                seen["built"] += 1
    assert seen["refused"] > 900 and seen["built"] > 80, seen
    # the faults that used to validate, be written as text the reader
    # refuses, or end in an AttributeError
    (case, mid, _), (ev, _) = ac1.evidence, ac2.evidence
    for record, changes, error, message in (
        (case.a_range, {"lo_strict": "x"}, TypeError, "lo_strict must be a bool, not 'x'"),
        (ac2, {"effective": "x"}, MalformedCert, "an ac2 certificate has no effective threshold"),
        (case.branches[0], {"witness": 3.0}, MalformedCert, "unknown witness coordinate 3.0"),
        (case, {"branches": (None,)}, TypeError, "branches must be a BranchEvidence, not None"),
        (ev, {"covering_top": (1, 2)}, TypeError, "covering_top must be an Elem, not (1, 2)"),
        (case, {"case_id": "Big A"}, MalformedCert, "unknown case id 'Big A'"),
        (mid.b_range, {"hi": None}, MalformedCert, "a range with no hi must be open at inf"),
    ):
        with pytest.raises(error) as info:
            dataclasses.replace(record, **changes)
        assert str(info.value) == message


def test_ac1_soundness_ten_seeds():
    t = Elem("3/2", "7/4")
    cert = continuity_cert_ac1(Side.LEFT, t, NbhdAc1("15/4"))
    assert validate_cert_ac1(cert)
    # the falsifier reads no seed (test_falsify_probes_are_exhaustive pins
    # that), so one call tries everything ten seeds would
    assert falsify(Side.LEFT, t, cert.chosen, cert.effective, 10**4, 9) is None


# ---------------------------------------------------------------------------
# segment certificates
# ---------------------------------------------------------------------------


def test_ac2_worked_example():
    target = NbhdAc2((Elem(3, 1),))
    cert = continuity_cert_ac2(Side.LEFT, Elem(1, 2), target)
    assert cert.chosen == NbhdAc2((Elem(6, 3),))
    assert validate_cert_ac2(cert)
    assert falsify(Side.LEFT, Elem(1, 2), cert.chosen, target, 5000, 2) is None


def test_ac2_identity_translator_keeps_target():
    target = NbhdAc2((Elem(3, 1), Elem(2, 5)))
    cert = continuity_cert_ac2(Side.LEFT, Elem(0, 0), target)
    assert cert.chosen == target
    assert validate_cert_ac2(cert)
    cert_r = continuity_cert_ac2(Side.RIGHT, Elem(0, 0), target)
    assert cert_r.chosen == target
    assert validate_cert_ac2(cert_r)


def test_ac2_right_side():
    target = NbhdAc2((Elem(1, 3),))
    cert = continuity_cert_ac2(Side.RIGHT, Elem(2, 1), target)
    assert validate_cert_ac2(cert)
    assert falsify(Side.RIGHT, Elem(2, 1), cert.chosen, target, 5000, 9) is None


def test_ac2_corrupted_chosen_rejected_and_falsified():
    t = Elem(1, 2)
    target = NbhdAc2((Elem(3, 1),))
    cert = continuity_cert_ac2(Side.LEFT, t, target)
    corrupted = dataclasses.replace(cert, chosen=NbhdAc2((Elem(1, 1),)))
    assert not validate_cert_ac2(corrupted)
    w = falsify(Side.LEFT, t, NbhdAc2((Elem(1, 1),)), target, 10000, 7)
    assert_violates(Side.LEFT, t, NbhdAc2((Elem(1, 1),)), target, w)


def test_ac2_empty_preimage_evidence():
    # translator already past the target segment: nothing pulls back
    t = Elem(5, 0)
    target = NbhdAc2((Elem(3, 1),))
    cert = continuity_cert_ac2(Side.LEFT, t, target)
    assert cert.evidence[0].preimage_top is None
    assert validate_cert_ac2(cert)
    assert falsify(Side.LEFT, t, cert.chosen, target, 4000, 13) is None


def test_ac2_mismatched_evidence_malformed():
    cert = continuity_cert_ac2(Side.LEFT, Elem(1, 2), NbhdAc2((Elem(3, 1),)))
    tampered = dataclasses.replace(cert, target=NbhdAc2((Elem(4, 1),)))
    with pytest.raises(MalformedCert):
        validate_cert_ac2(tampered)


@settings(max_examples=40)
@given(
    small_elems,
    st.lists(small_elems, min_size=1, max_size=3),
    st.sampled_from([Side.LEFT, Side.RIGHT]),
)
def test_ac2_generated_certificates_validate(t, tops, side):
    target = NbhdAc2(tuple(tops))
    cert = continuity_cert_ac2(side, t, target)
    assert validate_cert_ac2(cert)
    assert falsify(side, t, cert.chosen, target, 300, 17) is None


def test_ac2_soundness_ten_seeds():
    t = Elem("3/2", "1/4")
    target = NbhdAc2((Elem(3, 1), Elem("5/2", 2)))
    cert = continuity_cert_ac2(Side.LEFT, t, target)
    assert validate_cert_ac2(cert)
    # one call: the falsifier reads no seed, as in test_ac1_soundness_ten_seeds
    assert falsify(Side.LEFT, t, cert.chosen, target, 10**4, 9) is None


def test_ac2_witness_shrink_consistency():
    # chosen tops are exactly the shrink witnesses of the target tops
    t = Elem("1/2", 3)
    tops = (Elem(2, 2), Elem(4, 0))
    cert = continuity_cert_ac2(Side.LEFT, t, NbhdAc2(tops))
    assert cert.chosen.tops == tuple(shrink_witness(t, u) for u in tops)


def _segment_covered(seg_top, tops):
    """The first top whose up-segment contains the whole segment below seg_top.

    Up-segments on one diagonal all reach the same boundary point, so
    containment is: same offset, and the covering top at least as far out.
    """
    offset = seg_top.b - seg_top.a
    for c in tops:
        if c.b - c.a == offset and c.a >= seg_top.a:
            return c
    return None


def _reference_validate_ac2(cert):
    """The ac2 validator in Fraction arithmetic through ``order_geometry``."""
    if cert.topology != "ac2":
        raise MalformedCert("not an up-segment-complement certificate")
    if not isinstance(cert.target, NbhdAc2) or not isinstance(cert.chosen, NbhdAc2):
        raise MalformedCert("segment certificate carries wrong neighbourhood kinds")
    if tuple(ev.target_top for ev in cert.evidence) != cert.target.tops:
        raise MalformedCert("evidence tops do not match the target")
    for ev in cert.evidence:
        u = ev.target_top
        delta = (cert.translator.a - cert.translator.b) + (u.b - u.a)
        if ev.offset != delta:
            return False
        pre = preimage_up_segment(cert.side, cert.translator, up_set(u))
        if pre is None:
            if ev.preimage_top is not None:
                return False
            continue
        if ev.preimage_top != pre.top:
            return False
        if _segment_covered(pre.top, cert.chosen.tops) is None:
            return False
        if ev.covering_top is None or ev.covering_top not in cert.chosen.tops:
            return False
        if _segment_covered(pre.top, [ev.covering_top]) is None:
            return False
    return True


def _ac2_grid_step(cert):
    """1/D for D the common denominator of every value of an ac2 certificate."""
    vals = [cert.translator.a, cert.translator.b]
    for ev in cert.evidence:
        vals.append(ev.offset)
        for e in (ev.target_top, ev.preimage_top, ev.covering_top):
            if e is not None:
                vals += (e.a, e.b)
    for e in cert.chosen.tops:
        vals += (e.a, e.b)
    return F(1, math.lcm(*(v.denominator for v in vals)))


def _tamper_ac2(rng, cert):
    """One or two seeded edits of an ac2 certificate: offsets; preimage tops
    (moved, or None against a value); covering tops (one grid step below the
    preimage top, off its diagonal, or not among the chosen tops, each also
    with the chosen tops following); chosen tops dropped, reordered or moved;
    target tops (alone or with their evidence); the translator; and the
    neighbourhood kinds and topology.  The edits are built through the
    trusted constructors (``_public_build`` checks them)."""
    replace = _unchecked_replace
    evidence = list(cert.evidence)
    chosen = list(cert.chosen.tops)
    step = _ac2_grid_step(cert)

    def shift():
        return rng.choice((step, -step, F(rng.randrange(-4, 5), rng.choice((1, 2, 3)))))

    def moved(e):
        return Elem(max(F(0), e.a + shift()), max(F(0), e.b + shift()))

    for _ in range(rng.randint(1, 2)):
        op = rng.randrange(11)
        if op == 10:
            field = rng.choice(("topology", "chosen", "target", "target", "evidence"))
            if field == "topology":
                cert = replace(cert, topology="ac1")
            elif field == "chosen":
                cert = replace(cert, chosen=NbhdAc1(1))
                chosen = None
            elif field == "target":
                cert = replace(
                    cert, target=NbhdAc2(tuple(moved(u) for u in cert.target.tops))
                )
            elif len(evidence) > 1:
                del evidence[rng.randrange(len(evidence))]
            continue
        if op == 9:
            cert = replace(cert, translator=moved(cert.translator))
            continue
        if op == 8:
            k = rng.randrange(3)
            if chosen is None:
                pass
            elif k == 0 and len(chosen) > 1:
                del chosen[rng.randrange(len(chosen))]
            elif k == 1:
                rng.shuffle(chosen)
            else:
                i = rng.randrange(len(chosen))
                chosen[i] = moved(chosen[i])
            continue
        i = rng.randrange(len(evidence))
        ev = evidence[i]
        if op == 0:
            ev = replace(ev, offset=ev.offset + shift())
        elif op == 1:
            if ev.preimage_top is None:
                top = rng.choice((ev.target_top, moved(ev.target_top)))
            else:
                top = rng.choice((None, moved(ev.preimage_top)))
            ev = replace(ev, preimage_top=top)
        elif op == 2:
            # a target top moved with its evidence record, so the evidence
            # still matches the target
            top = moved(ev.target_top)
            tops = list(cert.target.tops)
            tops[i] = top
            cert = replace(cert, target=NbhdAc2(tuple(tops)))
            ev = replace(ev, target_top=top)
        elif ev.preimage_top is not None:
            p = ev.preimage_top
            k = rng.randrange(5)
            if k == 0:  # one grid step below the preimage top, on its diagonal
                cover = Elem(p.a - step, p.b - step) if min(p.a, p.b) >= step else p
            elif k == 1:  # the preimage top itself, the least cover
                cover = p
            elif k == 2:  # off the diagonal
                cover = rng.choice((Elem(p.a + step, p.b), Elem(p.a, p.b + step)))
            else:  # somewhere else, or dropped
                cover = rng.choice((moved(p), None))
            if cover is not None and chosen is not None and rng.random() < 0.7:
                # the chosen tops follow, so only the cover checks can object
                if ev.covering_top in chosen:
                    chosen[chosen.index(ev.covering_top)] = cover
                else:
                    chosen.append(cover)
            ev = replace(ev, covering_top=cover)
        else:
            ev = replace(ev, covering_top=rng.choice(chosen or [Elem(1, 1)]))
        evidence[i] = ev
    if chosen is not None:
        cert = replace(cert, chosen=NbhdAc2(tuple(chosen)))
    return replace(cert, evidence=tuple(evidence))


def test_ac2_validator_matches_fraction_reference():
    # every verdict and every MalformedCert message of the integer validator
    # equals the Fraction reference's, on honest certificates and on seeded
    # tampers of both sides
    rng = random.Random(5802)

    def q(lo, hi):
        return F(rng.randrange(lo, hi), rng.randrange(1, 9))

    def el(hi):
        return Elem(q(0, hi), q(0, hi))

    outcomes = Counter()
    for k in range(4000):
        side = (Side.LEFT, Side.RIGHT)[k % 2]
        t = Elem(0, q(0, 25)) if k % 7 == 0 else el(25)
        tops = tuple(el(49) for _ in range(rng.randint(1, 3)))
        cert = continuity_cert_ac2(side, t, NbhdAc2(tops))
        if k % 10:
            cert = _tamper_ac2(rng, cert)
        try:
            built = _public_build(cert)
        except MalformedCert as exc:
            # the records refuse the tamper when built, in the words of the
            # reference its topology names
            ac1 = cert.topology == "ac1"
            reference = _reference_validate_ac1 if ac1 else _reference_validate_ac2
            assert _outcome(reference, cert) == f"malformed: {exc}", cert
            outcomes["refused"] += 1
            continue
        expected = _outcome(_reference_validate_ac2, built)
        assert _outcome(validate_cert_ac2, built) == expected, built
        outcomes[expected if expected in (True, False) else "malformed"] += 1
    assert min(outcomes[k] for k in (True, False, "malformed")) > 150, outcomes
    assert outcomes["refused"] > 50, outcomes


# ---------------------------------------------------------------------------
# falsifier behaviour
# ---------------------------------------------------------------------------


def test_falsify_deterministic_per_seed():
    t = Elem(1, 2)
    w1 = falsify(Side.LEFT, t, NbhdAc1(4), NbhdAc1(4), 10000, 42)
    w2 = falsify(Side.LEFT, t, NbhdAc1(4), NbhdAc1(4), 10000, 42)
    assert w1 == w2


def test_falsify_identity_translator_finds_nothing():
    assert falsify(Side.LEFT, Elem(0, 0), NbhdAc1(4), NbhdAc1(4), 2000, 1) is None
    nb = NbhdAc2((Elem(2, 2),))
    assert falsify(Side.RIGHT, Elem(0, 0), nb, nb, 2000, 1) is None


def test_falsify_kind_mismatch():
    with pytest.raises(TypeError):
        falsify(Side.LEFT, Elem(1, 2), NbhdAc1(4), NbhdAc2((Elem(1, 1),)), 100, 0)


def test_falsify_negative_seed_rejected():
    # the seed plays no part in the search, but it must be non-negative, as
    # every seed input of the library (GenConfig, the CLI) requires
    for nb in (NbhdAc1(4), NbhdAc2((Elem(1, 1),))):
        with pytest.raises(ValueError):
            falsify(Side.LEFT, Elem(1, 2), nb, nb, 100, -7)


def test_falsify_zero_budget():
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples"):
            falsify(Side.LEFT, Elem(1, 2), NbhdAc1(4), NbhdAc1(4), samples, 0)


def test_falsify_right_side_counterexample():
    # halved inclusion fails on the right exactly when a > b
    t = Elem(2, 1)
    w = falsify(Side.RIGHT, t, NbhdAc1(4), NbhdAc1(4), 10000, 3)
    assert_violates(Side.RIGHT, t, NbhdAc1(4), NbhdAc1(4), w)


# ---------------------------------------------------------------------------
# golden falsifier streams
# ---------------------------------------------------------------------------


def _golden_falsify_instances():
    """Seeded (side, translator, chosen, target) instances: honest ac1/ac2
    certificates, their tampered twins as in the benchmark's certs workload,
    and random inclusions of which many fail."""
    rng = random.Random(5151)

    def q(hi=48, den=8):
        return F(rng.randrange(hi + 1), rng.randrange(1, den + 1))

    def el(hi=48, den=8):
        return Elem(q(hi, den), q(hi, den))

    out = []
    for k in range(12):
        t = el()
        if t.a == t.b:
            t = Elem(t.a, t.b + F(1, 2))
        side = Side.LEFT if t.a < t.b else Side.RIGHT
        cert = continuity_cert_ac1(side, t, NbhdAc1(max(t.a, t.b) + 2 + q()))
        out.append((side, t, cert.chosen, cert.effective))
        out.append((side, t, cert.effective, cert.effective))  # tampered twin
    for k in range(160):
        # small thresholds, often the chosen one at most the target's: some of
        # these fail only off the probes, some only on a cut-off's boundary
        m = q(20, 4) + F(1, 8)
        n = m + q(8, 8) if k % 2 else q(20, 4) + F(1, 8)
        out.append((rng.choice((Side.LEFT, Side.RIGHT)), el(12, 4), NbhdAc1(m), NbhdAc1(n)))
    for k in range(12):
        t = el()
        side = Side.LEFT if k % 2 == 0 else Side.RIGHT
        tops = []
        for _ in range(1 + k % 3):
            x = el()
            if side is Side.LEFT:
                tops.append(Elem(t.a + 1 + x.a, 1 + x.b))
            else:
                tops.append(Elem(1 + x.a, t.b + 1 + x.b))
        cert = continuity_cert_ac2(side, t, NbhdAc2(tuple(tops)))
        out.append((side, t, cert.chosen, cert.target))
        pushed = tuple(
            Elem(max(F(0), c.a - c.b), max(F(0), c.b - c.a)) for c in cert.chosen.tops
        )
        out.append((side, t, NbhdAc2(pushed), cert.target))  # tampered twin
    for k in range(160):
        # small tops, some target tops sharing a diagonal
        tops = [el(12, 4) for _ in range(rng.randint(1, 3))]
        if k % 2:
            tops.append(Elem(tops[0].a + 1, tops[0].b + 1))
        out.append((rng.choice((Side.LEFT, Side.RIGHT)), el(12, 4),
                    NbhdAc2(tuple(el(12, 4) for _ in range(rng.randint(1, 4)))),
                    NbhdAc2(tuple(tops))))
    return out


def test_falsify_golden_streams():
    # the returned witnesses, pinned by a digest; budgets 1, 2 (the ac1
    # probes) and 1000 per instance
    results = []
    for i, (side, t, chosen, target) in enumerate(_golden_falsify_instances()):
        for samples in (1, 2, 1000):
            results.append(falsify(side, t, chosen, target, samples, 31 * i + samples))
    hits = sum(w is not None for w in results)
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert (hits, digest) == (
        691,
        "119f177b81863fb5bd109ca64fd3a3329fc2ebfe0d1e6759bd72f859c60cfcce",
    )



def test_falsify_ac1_images_on_the_target_edge():
    # the target box is closed: an image on its edge escapes.  The first two
    # hits are the first threshold probe, the others the second one, which
    # the first misses; the last two are the only escaping grid points
    cases = [
        (Side.LEFT, Elem(1, 3), 5, 4, 1, Elem(6, 0)),  # image (4, 0)
        (Side.RIGHT, Elem(3, 1), 5, 4, 1, Elem(0, 6)),  # image (0, 4)
        (Side.LEFT, Elem(6, 1), 4, 6, 2, Elem(1, 5)),  # image (6, 5)
        (Side.RIGHT, Elem(1, 6), 4, 6, 2, Elem(5, 1)),  # image (5, 6)
        (Side.LEFT, Elem(5, 1), 4, 5, 2, Elem(1, 5)),  # image (5, 5)
        (Side.RIGHT, Elem(1, 5), 4, 5, 2, Elem(5, 1)),  # image (5, 5)
    ]
    for side, t, m, n, samples, expected in cases:
        assert falsify(side, t, NbhdAc1(m), NbhdAc1(n), samples, 0) == expected
        if samples > 1:
            assert falsify(side, t, NbhdAc1(m), NbhdAc1(n), samples - 1, 0) is None
        assert_violates(side, t, NbhdAc1(m), NbhdAc1(n), expected)
        img = image(side, t, expected)
        assert max(img.a, img.b) == n

def _threshold_violation_exists(side, t, m, n):
    """Independent exact decision of whether translating the threshold
    neighbourhood of m escapes the one of n (for m >= n), derived by hand
    from the product's case split: the escaping points sit just past the
    chosen threshold on the translator's branch row, or on the pivot row
    when the pivot itself clears the threshold."""
    x, y = t.a, t.b
    if side is Side.LEFT:
        if y > m:
            return x <= n
        return x - y + m < n
    if x > m:
        return y <= n
    return y - x + m < n


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([Side.LEFT, Side.RIGHT]),
    small_elems,
    st.fractions(min_value="1/8", max_value=8, max_denominator=8),
    st.fractions(min_value=0, max_value=8, max_denominator=8),
)
def test_falsify_agrees_with_exact_truth(side, t, n, extra):
    m = n + extra  # chosen at least as tight as the target
    found = falsify(side, t, NbhdAc1(m), NbhdAc1(n), 64, 5)
    assert (found is not None) == _threshold_violation_exists(side, t, m, n)
    if found is not None:
        assert_violates(side, t, NbhdAc1(m), NbhdAc1(n), found)


# ---------------------------------------------------------------------------
# falsifier: exhaustive probes and the threshold escape predicate
# ---------------------------------------------------------------------------


def _escapes(side, t, chosen, target, s):
    """The definition the falsifier's integer tests must decide."""
    return chosen.member(s) and not target.member(image(side, t, s))


def _scan_finds_escape(side, t, chosen, target):
    """Exhaustive scan of the grid box that holds every escaping point.

    An escaping image lies in the closed target box, or on a target
    up-segment, so both its coordinates are at most r (the threshold, or the
    largest top coordinate).  Each input coordinate exceeds the matching
    image coordinate by at most max(t.a, t.b), so the box of side
    r + max(t.a, t.b) on the common-denominator grid holds them all."""
    if isinstance(target, NbhdAc1):
        values = [t.a, t.b, chosen.n, target.n]
        r = target.n
    else:
        values = [t.a, t.b] + [v for e in chosen.tops + target.tops for v in (e.a, e.b)]
        r = max(max(u.a, u.b) for u in target.tops)
    D = math.lcm(*(v.denominator for v in values))
    top = int((r + max(t.a, t.b)) * D)
    return any(
        _escapes(side, t, chosen, target, Elem(F(xs, D), F(ys, D)))
        for xs in range(top + 1)
        for ys in range(top + 1)
    )


def _exhaustive_instances():
    """Seeded instances the probes settle: threshold and segment ones, on
    both sides, with honest certificates and their tampered twins among
    them."""
    rng = random.Random(2718)

    def q(hi=5, den=3):
        return F(rng.randrange(hi + 1), rng.randrange(1, den + 1))

    def el():
        return Elem(q(), q())

    out = []
    for k in range(64):
        side = (Side.LEFT, Side.RIGHT)[k % 2]
        n = q() + F(1, 2)
        out.append((side, el(), NbhdAc1(n + q(2, 2)), NbhdAc1(n)))
    for k in range(8):
        # a pivot far past both thresholds: of the probes, only the one on
        # the pivot row escapes
        side = (Side.LEFT, Side.RIGHT)[k % 2]
        n = q() + F(1, 2)
        m = n + q(2, 2)
        far = n + m + 1 + q()
        t = Elem(n, far) if side is Side.LEFT else Elem(far, n)
        out.append((side, t, NbhdAc1(m), NbhdAc1(n)))
    for k in range(4):
        side = (Side.LEFT, Side.RIGHT)[k % 2]
        t = el()
        cert = continuity_cert_ac1(side, t, NbhdAc1(q() + 1))
        out.append((side, t, cert.chosen, cert.effective))
        out.append((side, t, cert.effective, cert.effective))
    for k in range(64):
        side = (Side.LEFT, Side.RIGHT)[k % 2]
        chosen = tuple(el() for _ in range(rng.randint(1, 3)))
        target = tuple(el() for _ in range(rng.randint(1, 3)))
        out.append((side, el(), NbhdAc2(chosen), NbhdAc2(target)))
    for k in range(12):
        side = (Side.LEFT, Side.RIGHT)[k % 2]
        t = el()
        # tops past the translator, so that their preimages are not empty
        tops = [Elem(q(2, 2), q(2, 2)) for _ in range(2)]
        if side is Side.LEFT:
            tops = [Elem(t.a + 1 + u.a, 1 + u.b) for u in tops]
        else:
            tops = [Elem(1 + u.a, t.b + 1 + u.b) for u in tops]
        cert = continuity_cert_ac2(side, t, NbhdAc2(tuple(tops)))
        out.append((side, t, cert.chosen, cert.target))
        pushed = tuple(
            Elem(max(F(0), c.a - c.b), max(F(0), c.b - c.a)) for c in cert.chosen.tops
        )
        out.append((side, t, NbhdAc2(pushed), cert.target))
        # every chosen segment one grid step short of its preimage: each
        # preimage top is then the only escaping point on its diagonal
        values = [v for e in (t,) + cert.target.tops for v in (e.a, e.b)]
        step = F(1, math.lcm(*(v.denominator for v in values)))
        short = tuple(
            Elem(ev.preimage_top.a - step, ev.preimage_top.b - step)
            for ev in cert.evidence
            if ev.preimage_top is not None and min(ev.preimage_top.a, ev.preimage_top.b) >= step
        )
        if short:
            out.append((side, t, NbhdAc2(short), cert.target))
    for k in range(32):
        # the chosen threshold below the target's
        side = (Side.LEFT, Side.RIGHT)[k % 2]
        m = q() + F(1, 2)
        out.append((side, el(), NbhdAc1(m), NbhdAc1(m + q(2, 2) + F(1, 3))))
    for k in range(16):
        # a pivot p at most the chosen threshold and the other translator
        # coordinate q with nt - q + p <= nc <= nt - 1/3: the escaping points
        # have u in [p, nt - q + p] and v in (nc, nt], and often the probe
        # (p, nc + 1) is the only probe among them
        side = (Side.LEFT, Side.RIGHT)[k % 2]
        m = q() + 1
        n = m + F(1, rng.randint(1, 3))
        p = F(rng.randrange(int(m) + 1))
        far = min(n, p + (n - m) + q(2, 2))
        t = Elem(far, p) if side is Side.LEFT else Elem(p, far)
        out.append((side, t, NbhdAc1(m), NbhdAc1(n)))
    out.append((Side.LEFT, Elem(7, 1), NbhdAc1(9), NbhdAc1(10)))
    out.append((Side.RIGHT, Elem(1, 7), NbhdAc1(9), NbhdAc1(10)))
    return out


def test_falsify_probes_are_exhaustive():
    # with a budget of exactly the probes, falsify finds a witness iff the
    # whole escaping set is non-empty; larger budgets and other seeds add
    # nothing on these instances
    outcomes = set()
    last_probe_only = Counter()
    for i, (side, t, chosen, target) in enumerate(_exhaustive_instances()):
        if isinstance(chosen, NbhdAc1):
            probes = 2
        else:
            probes = len({u.a - u.b for u in target.tops})
        found = falsify(side, t, chosen, target, probes, i)
        expected = _scan_finds_escape(side, t, chosen, target)
        assert (found is not None) == expected, (side, t, chosen, target)
        if found is not None:
            assert_violates(side, t, chosen, target, found)
        for seed in (i, i + 1000):
            assert falsify(side, t, chosen, target, 1000, seed) == found
        below = isinstance(chosen, NbhdAc1) and chosen.n < target.n
        outcomes.add((type(chosen), side, expected, below))
        if below and found is not None and falsify(side, t, chosen, target, 1) is None:
            last_probe_only[side] += 1
    # both kinds, both sides, hits and misses, and threshold ones with the
    # chosen threshold below the target's and not below it
    assert len(outcomes) == 12
    # hits that of the two threshold probes only the second, (p, nc + 1),
    # reaches
    assert last_probe_only[Side.LEFT] and last_probe_only[Side.RIGHT]


def test_falsify_probe_counts_match_the_proofs():
    # two probes per threshold inclusion; one per pulled-back target
    # diagonal for a segment one, on that diagonal, so at most |target|
    for side, t, chosen, target in _exhaustive_instances() + _golden_falsify_instances():
        if isinstance(chosen, NbhdAc1):
            D, probes, _ = certificates._ac1_grid(side, t, chosen, target)
            assert len(probes) == 2
        else:
            D, probes, _ = certificates._ac2_grid(side, t, chosen, target)
            pulled = {(u.a - u.b) - (t.a - t.b) for u in target.tops}
            assert len(probes) == len(pulled) <= len(target.tops)
            assert {F(xs - ys, D) for xs, ys in probes} == pulled
        assert all(xs >= 0 and ys >= 0 for xs, ys in probes)


def _threshold_cutoff_points(side, t, D, nc, nt):
    """Grid points on and next to every cut-off line of the threshold escape
    predicate (u the coordinate the product branches on, p the pivot)."""
    p, q = (t.b, t.a) if side is Side.LEFT else (t.a, t.b)
    p, q = int(p * D), int(q * D)
    u_cut, d_cut = nt - q + p, nt - p
    points = set()
    for u in (0, 1, p - 1, p, p + 1, nc, nc + 1, u_cut - 1, u_cut, u_cut + 1):
        for v in (0, nc, nc + 1, nt - 1, nt, nt + 1, u + d_cut - 1, u + d_cut, u + d_cut + 1):
            if u >= 0 and v >= 0:
                points.add((u, v) if side is Side.LEFT else (v, u))
    return sorted(points)


def _chosen_grid_points(rng, D, nc, nt, count):
    """Seeded grid points of the chosen set: one coordinate past nc, half of
    them in a window next to the target box."""
    wide, near = 3 * nt + 4 * D + 1, nt + 2 * D + 1
    points = []
    for k in range(count):
        span = near if k % 2 else wide
        far, other = nc + 1 + rng.randrange(span - nt), rng.randrange(span)
        points.append((far, other) if rng.randrange(2) else (other, far))
    return points


def test_threshold_escape_predicate_matches_definition():
    # chosen threshold below the target's: the integer predicate against
    # exact membership and mul, on every cut-off boundary, on the probes and
    # on 5000 seeded grid points of the chosen set
    rng = random.Random(4242)
    hits = 0
    for k in range(16):
        side = (Side.LEFT, Side.RIGHT)[k % 2]
        def q(lo, hi):
            return F(rng.randrange(lo, hi), rng.randrange(1, 5))

        t = Elem(q(0, 25), q(0, 25))
        m = q(1, 25)
        chosen, target = NbhdAc1(m), NbhdAc1(m + q(1, 13))
        D, probes, escapes = certificates._ac1_grid(side, t, chosen, target)
        nc, nt = int(chosen.n * D), int(target.n * D)
        points = _chosen_grid_points(random.Random(k), D, nc, nt, 5000)
        assert all(xs > nc or ys > nc for xs, ys in points)
        for xs, ys in _threshold_cutoff_points(side, t, D, nc, nt) + list(probes) + points:
            s = Elem(F(xs, D), F(ys, D))
            expected = _escapes(side, t, chosen, target, s)
            assert escapes(xs, ys) == expected, (side, t, chosen, target, xs, ys)
            hits += expected
    assert hits > 0


def test_falsify_ac1_hit_only_random_draws_reach():
    # the escaping points (1..4, 10) (mirrored on the right) miss the first
    # probe and once needed random draws; the second probe, (p, nc + 1), is
    # the first of them, whatever the budget past 2 and the seed
    for side, t, expected in (
        (Side.LEFT, Elem(7, 1), Elem(1, 10)),
        (Side.RIGHT, Elem(1, 7), Elem(10, 1)),
    ):
        chosen, target = NbhdAc1(9), NbhdAc1(10)
        assert falsify(side, t, chosen, target, 1, 0) is None
        for samples, seed in ((2, 0), (3, 3), (8, 0), (1000, 0), (1000, 6), (10**6, 2**40)):
            assert falsify(side, t, chosen, target, samples, seed) == expected
        assert_violates(side, t, chosen, target, expected)


def test_segment_cover_decision_matches_membership():
    # the Fraction reference's cover decision against walking the segment
    tops = [Elem(4, 1), Elem(2, 2), Elem("7/2", "1/2"), Elem(1, 5)]
    segs = [Elem(3, 0), Elem(4, 1), Elem(5, 2), Elem(2, 2), Elem(1, 1), Elem(0, 4)]
    for seg_top in segs:
        covered = _segment_covered(seg_top, tops) is not None
        # brute force: walk the whole segment on its own grid
        span = min(seg_top.a, seg_top.b)
        steps = int(span * 8)
        points = [
            Elem(seg_top.a - F(k, 8), seg_top.b - F(k, 8)) for k in range(steps + 1)
        ]
        brute = all(
            any(up_set(c).member(p) for c in tops) for p in points
        )
        assert covered == brute, seg_top


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_ac1_roundtrip(tmp_path):
    cert = continuity_cert_ac1(Side.LEFT, Elem("1/2", "7/3"), NbhdAc1("9/2"))
    text = cert_to_text(cert)
    back = cert_from_text(text)
    assert back == cert
    assert cert_to_text(back) == text
    path = tmp_path / "a.cert"
    write_cert(cert, str(path))
    assert read_cert(str(path)) == cert
    assert validate_cert(read_cert(str(path)))


def test_ac2_roundtrip(tmp_path):
    cert = continuity_cert_ac2(
        Side.RIGHT, Elem(2, "1/5"), NbhdAc2((Elem(3, 1), Elem("1/2", 4)))
    )
    text = cert_to_text(cert)
    back = cert_from_text(text)
    assert back == cert
    assert cert_to_text(back) == text
    path = tmp_path / "b.cert"
    write_cert(cert, str(path))
    assert validate_cert(read_cert(str(path)))


def _golden_certs():
    """2000 seeded ac1 and 2000 ac2 certificates, the sides alternating;
    every third translator has a = 0 and every fifth b = 0."""
    rng = random.Random(6871)

    def q(hi=24, den=6):
        return F(rng.randrange(hi + 1), rng.randrange(1, den + 1))

    for k in range(2000):
        side = Side.LEFT if k % 2 == 0 else Side.RIGHT
        t = Elem(q() if k % 3 else 0, q() if k % 5 else 0)
        yield continuity_cert_ac1(side, t, NbhdAc1(q() + F(1, 7)))
        tops = tuple(Elem(q(), q()) for _ in range(1 + k % 3))
        yield continuity_cert_ac2(side, t, NbhdAc2(tops))


def test_cert_text_golden():
    # the emitted text of every generated certificate, pinned by a digest
    certs = list(_golden_certs())
    lows = Counter(
        (c.side, tuple(b.branch for b in c.evidence[2].branches))
        for c in certs
        if c.topology == "ac1"
    )
    # a zero translator coordinate drops low-a's gt branch and low-b's lt one
    assert lows[Side.LEFT, ("lt", "eq")] and lows[Side.RIGHT, ("eq", "gt")]
    digest = hashlib.sha256("".join(map(cert_to_text, certs)).encode()).hexdigest()
    assert digest == "f6008a2957d7856ad08a680458adf950ea946b0b1c1b575977c19258a3534e5a"


def test_parse_rejects_garbage():
    with pytest.raises(MalformedCert):
        cert_from_text("not a certificate\n")
    cert = continuity_cert_ac1(Side.LEFT, Elem(1, 2), NbhdAc1(4))
    text = cert_to_text(cert)
    with pytest.raises(MalformedCert):
        cert_from_text(text.replace("witness a", "witness q", 1))
    with pytest.raises(MalformedCert):
        cert_from_text(text.replace("side left", "side sideways", 1))
    with pytest.raises(MalformedCert):
        cert_from_text(text.replace("inf 7/1", "inf seven", 1))
    with pytest.raises(MalformedCert, match="negative coordinate"):
        cert_from_text(text.replace("translator 1/1 2/1", "translator -1/1 2/1", 1))
    truncated = "\n".join(text.splitlines()[:10]) + "\n"
    with pytest.raises(MalformedCert):
        cert_from_text(truncated)


# Edits of an emitted certificate that the line reader accepts only in the
# canonical form; each names the same value or layout, but is malformed.
_NON_CANONICAL = {
    "underscore": ("effective-n 4/1\n", "effective-n 4_0/10\n"),
    "plus-sign": ("translator 1/1 2/1\n", "translator +1/1 2/1\n"),
    "leading-zero": ("translator 1/1 2/1\n", "translator 01/1 2/1\n"),
    "unit-not-reduced": ("translator 1/1 2/1\n", "translator 2/2 2/1\n"),
    "negative-zero": ("image-b 0/1 1/1 0/1\n", "image-b -0/1 1/1 0/1\n"),
    "not-lowest-terms": ("target-n 3/1\n", "target-n 6/2\n"),
    "negative-denominator": ("image-a 1/1 0/1 -1/1\n", "image-a 1/1 0/1 1/-1\n"),
    "tab": ("translator 1/1 2/1\n", "translator 1/1\t2/1\n"),
    "trailing-space": ("kind ac1\n", "kind ac1 \n"),
    "trailing-space-case-id": ("case mid-a\n", "case mid-a \n"),
    "leading-space": ("side left\n", " side left\n"),
    "doubled-space": ("chosen-n 8/1\n", "chosen-n  8/1\n"),
    "blank-line": ("end-case\n", "end-case\n\n"),
    "blank-last-line": ("end-cert\n", "end-cert\n\n"),
    "no-final-newline": ("end-cert\n", "end-cert"),
    "final-cr": ("end-cert\n", "end-cert\r"),
    "crlf": ("\n", "\r\n"),
    "non-ascii-digit": ("target-n 3/1\n", "target-n \u0663/1\n"),
    "count-leading-zero": ("target-tops 2\n", "target-tops 02\n"),
    "unbounded-closed-above": ("a-range (8/1 inf)\n", "a-range (8/1 inf]\n"),
}


@pytest.mark.parametrize("old,new", _NON_CANONICAL.values(), ids=list(_NON_CANONICAL))
def test_parse_rejects_non_canonical_text(old, new):
    texts = (
        cert_to_text(continuity_cert_ac1(Side.LEFT, Elem(1, 2), NbhdAc1(3))),
        cert_to_text(continuity_cert_ac2(Side.LEFT, Elem(1, 2), NbhdAc2((Elem(3, 1), Elem(2, 5))))),
    )
    text = next(t for t in texts if old in t)
    count = -1 if old == "\n" else 1
    with pytest.raises(MalformedCert):
        cert_from_text(text.replace(old, new, count))


def test_crlf_file_reads_as_lf(tmp_path):
    # read_cert opens the file in text mode, where CRLF line ends read as LF,
    # so a certificate stored with CRLF still validates; a CRLF string given
    # to cert_from_text is malformed (test_parse_rejects_non_canonical_text)
    cert = continuity_cert_ac2(Side.LEFT, Elem(1, 2), NbhdAc2((Elem(3, 1), Elem(2, 5))))
    path = tmp_path / "crlf.cert"
    path.write_bytes(cert_to_text(cert).replace("\n", "\r\n").encode("ascii"))
    assert read_cert(str(path)) == cert
    assert validate_cert(read_cert(str(path)))


def test_parse_rejects_empty_tops():
    cert = continuity_cert_ac2(Side.LEFT, Elem(1, 2), NbhdAc2((Elem(3, 1),)))
    text = cert_to_text(cert)
    bad = text.replace("chosen-tops 1\ntop 6/1 3/1\n", "chosen-tops 0\n")
    with pytest.raises(MalformedCert):
        cert_from_text(bad)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no limit on the digits of an integer string",
)
def test_oversized_tokens_are_malformed(capsys, tmp_path):
    # a number one digit past the interpreter's integer-string limit (4300
    # by default) is malformed, named at its record's first line, and the
    # CLI exits 2
    limit = sys.get_int_max_str_digits()
    cert = continuity_cert_ac2(Side.LEFT, Elem(1, 2), NbhdAc2((Elem(3, 1),)))
    text = cert_to_text(cert)
    ac1 = cert_to_text(continuity_cert_ac1(Side.LEFT, Elem(1, 2), NbhdAc1(4)))
    past = "7" * (limit + 1)
    path = tmp_path / "big.cert"
    # at the limit, a huge offset reads and is invalid; a huge count of
    # target tops reads, and the second top line it asks for is missing
    assert not validate_cert(cert_from_text(text.replace("offset -3/1", f"offset -{'7' * limit}/1")))
    with pytest.raises(MalformedCert, match="^line 7: expected a top line$"):
        cert_from_text(text.replace("target-tops 1", f"target-tops {'1' * limit}"))
    for source, old, new, line in (
        (text, "offset -3/1", f"offset -{past}/1", 10),
        (text, "target-tops 1", f"target-tops {'1' * (limit + 1)}", 5),
        (ac1, "target-n 4/1", f"target-n {past}/1", 5),
        (ac1, "a-range [4/1 8/1]", f"a-range [4/1 {past}/1]", 18),
        (ac1, "image-b 0/1 1/1 0/1", f"image-b 0/1 {past}/1 0/1", 11),
        (ac1, "inf 7/1", f"inf {past}/1", 11),
    ):
        assert old in source
        edited = source.replace(old, new)
        message = f"line {line}: a number has more than {limit} digits"
        with pytest.raises(MalformedCert) as exc:
            cert_from_text(edited)
        assert str(exc.value) == message
        path.write_text(edited, encoding="ascii")
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: malformed certificate: {message}\n"


def test_element_reader_messages():
    # a coordinate token is checked in lowest terms and within the digit
    # limit, both tokens before their signs, and reported at its record's
    # first line in the words of the Fraction reader it replaced
    ac1 = cert_to_text(continuity_cert_ac1(Side.LEFT, Elem(1, 2), NbhdAc1(4)))
    ac2 = cert_to_text(
        continuity_cert_ac2(Side.LEFT, Elem(1, 2), NbhdAc2((Elem(3, 1), Elem(2, 5))))
    )
    cases = [
        (ac1, "translator 1/1 2/1", "translator -1/1 2/1", "line 1: negative coordinate: (-1, 2)"),
        (ac1, "translator 1/1 2/1", "translator -2/2 2/1", "line 1: '-2/2' is not in lowest terms"),
        (ac1, "translator 1/1 2/1", "translator -1/1 4/2", "line 1: '4/2' is not in lowest terms"),
        (ac2, "top 3/1 1/1", "top 6/2 1/1", "line 6: '6/2' is not in lowest terms"),
        (ac2, "top 3/1 1/1", "top 3/1 -5/3", "line 6: negative coordinate: (3, -5/3)"),
        (ac2, "preimage-top 4/1 1/1", "preimage-top -4/1 1/1",
         "line 12: negative coordinate: (-4, 1)"),
        (ac2, "covering-top 6/1 3/1", "covering-top 6/1 6/2",
         "line 12: '6/2' is not in lowest terms"),
        (ac2, "target-top 2/1 5/1", "target-top 2/1 -5/1", "line 17: negative coordinate: (2, -5)"),
    ]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        past = "7" * (limit + 1)
        message = f"line 6: a number has more than {limit} digits"
        cases += [
            (ac2, "top 3/1 1/1", f"top 3/1 {past}/1", message),
            (ac2, "top 3/1 1/1", f"top -{past}/1 1/1", message),
            (ac2, "top 3/1 1/1", f"top 3/1 1/{past}", message),
        ]
    for text, old, new, message in cases:
        assert old in text
        with pytest.raises(MalformedCert) as exc:
            cert_from_text(text.replace(old, new, 1))
        assert str(exc.value) == message, new[:40]


def test_record_reader_messages():
    # one edit of each record: the reader names the line where the record
    # starts and the record it expected there, word for word
    ac1 = cert_to_text(continuity_cert_ac1(Side.LEFT, Elem(1, 2), NbhdAc1(4)))
    ac2 = cert_to_text(
        continuity_cert_ac2(Side.LEFT, Elem(1, 2), NbhdAc2((Elem(3, 1), Elem(2, 5))))
    )
    cases = [
        (ac1, "kind ac1", "kind ac3",
         "line 1: expected the header block ('realbicyclic-cert 1', kind, side, translator)"),
        (ac1, "chosen-n 8/1", "chosen-n 8",
         "line 5: expected the three thresholds (target-n, effective-n, chosen-n)"),
        (ac1, "case mid-a", "case Mid-a",
         "line 18: expected a case head (case, a-range, b-range) or end-cert"),
        (ac1, "witness a", "witness c",
         "line 11: expected a branch record "
         "(branch, image-a, image-b, witness, inf, attained) or end-case"),
        (ac2, "target-tops 2", "chosen-tops 2", "line 5: expected the count line 'target-tops'"),
        (ac2, "chosen-tops 2", "chosen-tops 02", "line 8: expected the count line 'chosen-tops'"),
        (ac2, "evidence 2", "evidences 2", "line 11: expected the count line 'evidence'"),
        (ac2, "covering-top", "covering-tops",
         "line 12: expected an evidence record "
         "(target-top, preimage, offset, covering, end-evidence)"),
        (ac2, "end-cert", "end-certs", "line 22: expected end-cert"),
        (ac2, "end-cert\n", "end-cert\nend-cert\n", "line 23: trailing content after end-cert"),
        # a rational token not in lowest terms, in each kind of place
        (ac1, "target-n 4/1", "target-n 2/4", "line 5: '2/4' is not in lowest terms"),
        (ac1, "a-range [4/1 8/1]", "a-range [4/1 2/4]",
         "line 18: '2/4' is not in lowest terms"),
        (ac1, "image-b 0/1 1/1 0/1", "image-b 0/1 2/4 0/1",
         "line 11: '2/4' is not in lowest terms"),
        (ac1, "inf 7/1", "inf 2/4", "line 11: '2/4' is not in lowest terms"),
        (ac2, "offset -3/1", "offset 2/4", "line 12: '2/4' is not in lowest terms"),
    ]
    for text, old, new, message in cases:
        assert old in text
        with pytest.raises(MalformedCert) as exc:
            cert_from_text(text.replace(old, new, 1))
        assert str(exc.value) == message, new


_FUZZ_TOKENS = (
    "-1/1", "0/1", "-0/1", "1/0", "7/2", "1", "x", "inf", "(0/1", "1/1]", "",
    "end-case", "end-evidence", "end-cert", "branch", "top",
)


def _mutant(rng, text):
    """Delete, duplicate or alter one to three tokens (or lines) of ``text``."""
    lines = [line.split(" ") for line in text.splitlines()]
    for _ in range(rng.randint(1, 3)):
        row = rng.randrange(len(lines))
        toks = lines[row]
        if not toks:
            toks.append("x")
            continue
        i = rng.randrange(len(toks))
        op = rng.randrange(6)
        if op == 0:
            del toks[i]
        elif op == 1:
            toks.insert(i, toks[i])
        elif op == 2:
            toks[i] = rng.choice(_FUZZ_TOKENS + (rng.choice(rng.choice(lines) or ["x"]),))
        elif op == 3:
            k = rng.randrange(len(toks[i]) + 1)
            toks[i] = toks[i][:k] + rng.choice("0-/()[]x") + toks[i][k:]
        elif op == 4 and len(lines) > 1:
            del lines[row]
        else:
            lines.insert(row, list(toks))
    return "\n".join(" ".join(toks) for toks in lines) + "\n"


def test_certio_mutation_fuzz():
    # parsing a damaged file raises MalformedCert or yields a certificate that
    # re-emits the same text; validating what parsed yields a verdict or
    # MalformedCert (the CLI maps exactly these to exit 1 / exit 2), the same
    # as the Fraction reference's on threshold certificates
    texts = [
        cert_to_text(continuity_cert_ac1(Side.LEFT, Elem(1, 2), NbhdAc1(4))),
        cert_to_text(continuity_cert_ac1(Side.RIGHT, Elem("5/2", "1/3"), NbhdAc1("9/2"))),
        cert_to_text(
            continuity_cert_ac2(Side.LEFT, Elem(1, 2), NbhdAc2((Elem(3, 1), Elem(2, 5))))
        ),
        cert_to_text(
            continuity_cert_ac2(
                Side.RIGHT, Elem("3/2", "1/3"), NbhdAc2((Elem(3, 1), Elem("7/2", 4)))
            )
        ),
    ]
    rng = random.Random(20240)
    parsed = malformed = 0
    for i in range(4000):
        mutant = _mutant(rng, texts[i % len(texts)])
        try:
            cert = cert_from_text(mutant)
        except MalformedCert:
            malformed += 1
            continue
        assert isinstance(cert, ContinuityCert), mutant
        assert cert_to_text(cert) == mutant
        parsed += 1
        verdict = _outcome(validate_cert, cert)
        assert verdict in (True, False) or verdict.startswith("malformed: "), mutant
        if cert.topology == "ac1":
            assert verdict == _outcome(_reference_validate_ac1, cert), mutant
    assert parsed > 0 and malformed > 0


def _read_outcome(read, text):
    try:
        return read(text)
    except MalformedCert:
        return "malformed"


def test_record_reader_matches_line_reader():
    # the record reader accepts exactly the texts the line reader it replaced
    # accepts, and builds equal certificates from them
    texts = [
        cert_to_text(continuity_cert_ac1(Side.LEFT, Elem(1, 2), NbhdAc1(4))),
        cert_to_text(continuity_cert_ac1(Side.RIGHT, Elem("5/2", "1/3"), NbhdAc1("9/2"))),
        cert_to_text(continuity_cert_ac2(Side.LEFT, Elem(5, 0), NbhdAc2((Elem(3, 1),)))),
        cert_to_text(
            continuity_cert_ac2(Side.LEFT, Elem(1, 2), NbhdAc2((Elem(3, 1), Elem(2, 5))))
        ),
        cert_to_text(
            continuity_cert_ac2(
                Side.RIGHT, Elem("3/2", "1/3"), NbhdAc2((Elem(3, 1), Elem("7/2", 4)))
            )
        ),
    ]
    candidates = list(texts)
    for old, new in _NON_CANONICAL.values():
        for text in texts:
            if old in text:
                candidates.append(text.replace(old, new, -1 if old == "\n" else 1))
    rng = random.Random(6170)
    candidates += [_mutant(rng, texts[i % len(texts)]) for i in range(20000)]
    parsed = 0
    for text in candidates:
        expected = _read_outcome(line_cert_from_text, text)
        assert _read_outcome(cert_from_text, text) == expected, text
        parsed += expected != "malformed"
    assert 100 < parsed < len(candidates) - 10000


def test_tampered_file_still_validates_false(tmp_path):
    # a parseable certificate with a halved chosen threshold must simply be
    # judged invalid, not crash
    cert = continuity_cert_ac1(Side.LEFT, Elem(1, 2), NbhdAc1(4))
    text = cert_to_text(cert).replace("chosen-n 8/1", "chosen-n 4/1")
    back = cert_from_text(text)
    assert not validate_cert(back)
