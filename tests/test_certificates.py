"""Certificate generation, independent validation, tampering, falsification,
and bit-exact serialization."""

import dataclasses
import hashlib
import math
import random
from collections import Counter
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_elems
from realbicyclic import (
    BranchEvidence,
    ContinuityCert,
    Elem,
    MalformedCert,
    NbhdAc1,
    NbhdAc2,
    Side,
    cert_from_text,
    cert_to_text,
    continuity_cert_ac1,
    continuity_cert_ac2,
    falsify,
    mul,
    read_cert,
    shrink_witness,
    validate_cert,
    validate_cert_ac1,
    validate_cert_ac2,
    write_cert,
)
from realbicyclic import certificates
from realbicyclic.certificates import Interval, _corner_scan_ok, _covers_chosen


def image(side, t, s):
    return mul(t, s) if side is Side.LEFT else mul(s, t)


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
    assert _covers_chosen(cert.evidence, cert.chosen.n) is True
    assert _covers_chosen(tampered.evidence, cert.chosen.n) is False


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
    assert _covers_chosen(tampered.evidence, m) is False
    # the branch checks and the corner scan pass: coverage alone rejects it
    assert _corner_scan_ok(side, t, m, cert.effective.n)
    monkeypatch.setattr(certificates, "_covers_chosen", lambda cases, m: True)
    assert validate_cert_ac1(tampered)


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


def test_corner_scan_helper():
    # the honest doubled threshold clears the scan; the halved one is caught
    assert _corner_scan_ok(Side.LEFT, Elem(1, 2), F(8), F(4))
    assert not _corner_scan_ok(Side.LEFT, Elem(1, 2), F(4), F(4))
    assert _corner_scan_ok(Side.RIGHT, Elem(2, 1), F(8), F(4))
    assert not _corner_scan_ok(Side.RIGHT, Elem(2, 1), F(4), F(4))
    # the integer scan agrees with the Fraction one, also where a corner's
    # image lies on the target box and where the pivot equals m
    rng = random.Random(5150)

    def q():
        return F(rng.randrange(25), rng.randrange(1, 5))

    verdicts = Counter()
    for k in range(4000):
        side = (Side.LEFT, Side.RIGHT)[k % 2]
        t = Elem(q(), q())
        m = rng.choice((q(), q() + q(), t.a, t.b))
        if m == 0:
            continue
        corner = rng.choice((Elem(m, 0), Elem(m, m), Elem(0, m), Elem(t.b, m), Elem(m, t.a)))
        img = image(side, t, corner)
        n = rng.choice((q(), img.a, img.b, max(img.a, img.b)))
        expected = _fraction_corner_scan_ok(side, t, m, n)
        assert _corner_scan_ok(side, t, m, n) == expected, (side, t, m, n)
        verdicts[expected] += 1
    assert min(verdicts.values()) > 1000, verdicts


def test_corner_scan_needs_no_meeting_corner():
    # The scan leaves out (m, m), which (m, 0) on the left and (0, m) on the
    # right dominate.  The Fraction reference still scans it, and no verdict
    # may differ, also where the image of (m, m) lies on the target box.
    rng = random.Random(6161)

    def q():
        return F(rng.randrange(25), rng.randrange(1, 5))

    verdicts = Counter()
    for k in range(12000):
        side = (Side.LEFT, Side.RIGHT)[k % 2]
        t = Elem(q(), q())
        m = rng.choice((q(), q() + q(), t.a, t.b))
        if m == 0:
            continue
        img = image(side, t, Elem(m, m))
        n = rng.choice((q(), img.a, img.b, max(img.a, img.b), max(img.a, img.b) + F(1, 8)))
        if n == 0:
            continue
        expected = _fraction_corner_scan_ok(side, t, m, n)
        assert _corner_scan_ok(side, t, m, n) == expected, (side, t, m, n)
        verdicts[expected] += 1
    assert sum(verdicts.values()) >= 10000 and min(verdicts.values()) > 1500, verdicts


def _fraction_grid_covers(cases, m):
    """Reference coverage decision on the rational endpoint grid: every
    endpoint, the midpoint of each consecutive pair and one point beyond."""
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
        reps.append(vals + mids + [vals[-1] + 1])
    for ra in reps[0]:
        for rb in reps[1]:
            if ra <= m and rb <= m:
                continue
            if not any(c.a_range.contains(ra) and c.b_range.contains(rb) for c in cases):
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
        assert _covers_chosen(cases, m) == expected, (cert, cases)
        outcomes[expected] += 1
    assert min(outcomes.values()) > 200, outcomes


# The Fraction reference for the integer branch checks and corner scan of
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


def _fraction_corner_scan_ok(side, translator, m, n_eff):
    """The corner scan as first written, with the meeting corner (m, m)."""
    corners = [Elem(m, 0), Elem(m, m), Elem(0, m)]
    pivot = translator.b if side is Side.LEFT else translator.a
    if pivot <= m:
        corners.append(Elem(pivot, m) if side is Side.LEFT else Elem(m, pivot))
    for corner in corners:
        img = image(side, translator, corner)
        if img.a <= n_eff and img.b <= n_eff:
            return False
    return True


def _reference_validate_ac1(cert):
    if cert.topology != "ac1":
        raise MalformedCert("not a threshold-neighbourhood certificate")
    if not isinstance(cert.target, NbhdAc1) or not isinstance(cert.chosen, NbhdAc1):
        raise MalformedCert("threshold certificate carries wrong neighbourhood kinds")
    if cert.effective is None:
        raise MalformedCert("missing effective target threshold")
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
        for tag in records:
            if tag not in ("lt", "eq", "gt"):
                raise MalformedCert(f"unknown branch tag {tag!r}")
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
            if record.witness not in ("a", "b"):
                raise MalformedCert(f"unknown witness coordinate {record.witness!r}")
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
    if not _fraction_grid_covers(cert.evidence, m):
        return False
    return _fraction_corner_scan_ok(cert.side, cert.translator, m, n_eff)


def _outcome(validate, cert):
    """The verdict, or the message of the MalformedCert raised instead."""
    try:
        return validate(cert)
    except MalformedCert as exc:
        return f"malformed: {exc}"


def _tamper_ac1(rng, cert):
    """One to three seeded edits of an ac1 certificate: range endpoints and
    strictness (some moved onto the pivot), image rows, infima, attained
    flags, witnesses, branch tags, dropped branches and cases, thresholds
    (alone, or with the range ends on them) and the translator."""
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
                return dataclasses.replace(iv, lo=new if iv.lo == old else iv.lo, hi=hi)

            cases = [
                dataclasses.replace(c, a_range=move(c.a_range), b_range=move(c.b_range))
                for c in cases
            ]
            cert = dataclasses.replace(cert, **{field: NbhdAc1(new)})
            continue
        if op >= 9 or not cases:
            field = ("target", "effective", "chosen", "translator")[rng.randrange(4)]
            if field == "translator":
                t = cert.translator
                t = Elem(max(F(0), t.a + shift()), max(F(0), t.b + shift()))
                cert = dataclasses.replace(cert, translator=t)
            else:
                n = getattr(cert, field).n + shift()
                cert = dataclasses.replace(cert, **{field: NbhdAc1(n if n > 0 else F(1, 2))})
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
                iv = dataclasses.replace(iv, **{end: pivot})
            else:
                iv = _mutate_range(rng, iv)
            cases[i] = dataclasses.replace(case, **{field: iv})
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
            br = dataclasses.replace(br, **{row: tuple(coeffs)})
        elif op == 3:
            br = dataclasses.replace(br, inf_value=br.inf_value + shift())
        elif op == 4:
            br = dataclasses.replace(br, inf_attained=not br.inf_attained)
        elif op == 5:
            br = dataclasses.replace(br, witness=rng.choice(("a", "b", "a", "b", "c")))
        elif op == 6:
            br = dataclasses.replace(br, branch=rng.choice(("lt", "eq", "gt", "lt", "eq", "gt", "ge")))
        if op == 7:
            if rng.random() < 0.85:
                del branches[j]
            else:
                branches.insert(j, br)
        else:
            branches[j] = br
        cases[i] = dataclasses.replace(case, branches=tuple(branches))
    return dataclasses.replace(cert, evidence=tuple(cases))


def _rederive_records(cert):
    """The certificate with every case's branch records derived by the
    reference, so that only the threshold checks, coverage and the corner
    scan can reject it: each branch whose meet is nonempty, its images, and
    the witness with the larger infimum."""
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
    for k in range(3000):
        side = (Side.LEFT, Side.RIGHT)[k % 2]
        cert = continuity_cert_ac1(side, Elem(q(0, 49), q(0, 49)), NbhdAc1(q(1, 97)))
        if k % 10:
            cert = _tamper_ac1(rng, cert)
        if k % 3 == 0:
            cert = _rederive_records(cert)
        expected = _outcome(_reference_validate_ac1, cert)
        assert _outcome(validate_cert_ac1, cert) == expected, cert
        outcomes[expected if expected in (True, False) else "malformed"] += 1
    assert min(outcomes.values()) > 150, outcomes


@settings(max_examples=40)
@given(small_elems, st.fractions(min_value=0, max_value=5, max_denominator=8))
def test_ac1_generated_certificates_validate(t, extra):
    target = NbhdAc1(max(t.a, t.b) + 2 + extra)
    for side in (Side.LEFT, Side.RIGHT):
        cert = continuity_cert_ac1(side, t, target)
        assert cert.effective == target
        assert validate_cert_ac1(cert)
        assert falsify(side, t, cert.chosen, cert.effective, 400, 11) is None


def test_ac1_soundness_ten_seeds():
    t = Elem("3/2", "7/4")
    cert = continuity_cert_ac1(Side.LEFT, t, NbhdAc1("15/4"))
    assert validate_cert_ac1(cert)
    for seed in range(10):
        assert falsify(Side.LEFT, t, cert.chosen, cert.effective, 10**4, seed) is None


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
    for seed in range(10):
        assert falsify(Side.LEFT, t, cert.chosen, target, 10**4, seed) is None


def test_ac2_witness_shrink_consistency():
    # chosen tops are exactly the shrink witnesses of the target tops
    t = Elem("1/2", 3)
    tops = (Elem(2, 2), Elem(4, 0))
    cert = continuity_cert_ac2(Side.LEFT, t, NbhdAc2(tops))
    assert cert.chosen.tops == tuple(shrink_witness(t, u) for u in tops)


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
    # random.Random(-7) would replay seed 7 under the name -7
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
    # the seeded streams and returned witnesses, pinned by a digest recorded
    # with the sample loops as they were before the integer cut-offs and
    # diagonal tables; budgets 1, 7 (the ac1 probes), 8 and 1000 per instance
    results = []
    for i, (side, t, chosen, target) in enumerate(_golden_falsify_instances()):
        for samples in (1, 7, 8, 1000):
            results.append(falsify(side, t, chosen, target, samples, 31 * i + samples))
    hits = sum(w is not None for w in results)
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert (hits, digest) == (
        723,
        "96996f12272a36a240abec477a6c743f512de3027c79b96b7ed6cb0297c78e9e",
    )



def test_falsify_ac1_images_on_the_target_edge():
    # the target box is closed: an image on its edge escapes, and each of
    # these probes is the only grid point of its kind that does
    cases = [
        (Side.LEFT, Elem(1, 3), 5, 4, 1, Elem(6, 0)),  # image (4, 0)
        (Side.RIGHT, Elem(3, 1), 5, 4, 2, Elem(0, 6)),  # image (0, 4)
        (Side.LEFT, Elem(5, 1), 4, 6, 2, Elem(0, 5)),  # image (5, 6)
        (Side.RIGHT, Elem(1, 5), 4, 6, 1, Elem(5, 0)),  # image (6, 5)
    ]
    for side, t, m, n, samples, expected in cases:
        assert falsify(side, t, NbhdAc1(m), NbhdAc1(n), samples, 0) == expected
        assert_violates(side, t, NbhdAc1(m), NbhdAc1(n), expected)

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
    """Seeded instances the probes settle: threshold ones with the chosen
    threshold at least the target's, and segment ones, on both sides, with
    honest certificates and their tampered twins among them."""
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
    return out


def test_falsify_probes_are_exhaustive():
    # with a budget of exactly the probes, falsify finds a witness iff the
    # whole escaping set is non-empty; larger budgets and other seeds add
    # nothing on these instances
    outcomes = set()
    for i, (side, t, chosen, target) in enumerate(_exhaustive_instances()):
        if isinstance(chosen, NbhdAc1):
            probes = 7
        else:
            probes = 2 * len(chosen.tops) + 3 * len(target.tops)
        found = falsify(side, t, chosen, target, probes, i)
        expected = _scan_finds_escape(side, t, chosen, target)
        assert (found is not None) == expected, (side, t, chosen, target)
        if found is not None:
            assert_violates(side, t, chosen, target, found)
        for seed in (i, i + 1000):
            assert falsify(side, t, chosen, target, 1000, seed) == found
        outcomes.add((type(chosen), side, expected))
    assert len(outcomes) == 8  # both kinds, both sides, hits and misses


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


def test_threshold_escape_predicate_matches_definition():
    # chosen threshold below the target's, the only case that draws: the
    # integer predicate against exact membership and mul, on every cut-off
    # boundary, on the probes and on 5000 seeded draws (about 1000 per mode)
    rng = random.Random(4242)
    hits = 0
    for k in range(16):
        side = (Side.LEFT, Side.RIGHT)[k % 2]
        def q(lo, hi):
            return F(rng.randrange(lo, hi), rng.randrange(1, 5))

        t = Elem(q(0, 25), q(0, 25))
        m = q(1, 25)
        chosen, target = NbhdAc1(m), NbhdAc1(m + q(1, 13))
        D, nc, nt, probes, escapes = certificates._ac1_grid(side, t, chosen, target)
        draws = list(islice(certificates._ac1_draws(nc, nt, D, k), 5000))
        for xs, ys in _threshold_cutoff_points(side, t, D, nc, nt) + list(probes) + draws:
            s = Elem(F(xs, D), F(ys, D))
            expected = _escapes(side, t, chosen, target, s)
            assert escapes(xs, ys) == expected, (side, t, chosen, target, xs, ys)
            hits += expected
        assert all(xs > nc or ys > nc for xs, ys in draws)
    assert hits > 0


def test_falsify_ac1_hit_only_random_draws_reach():
    # the escaping points (1..4, 10) (mirrored on the right) miss every
    # probe: the budget of the probes alone finds nothing, 1000 samples do
    for side, t, expected in (
        (Side.LEFT, Elem(7, 1), Elem(3, 10)),
        (Side.RIGHT, Elem(1, 7), Elem(10, 3)),
    ):
        chosen, target = NbhdAc1(9), NbhdAc1(10)
        assert falsify(side, t, chosen, target, 7, 0) is None
        assert falsify(side, t, chosen, target, 1000, 0) == expected
        assert_violates(side, t, chosen, target, expected)


def test_segment_cover_decision_matches_membership():
    from realbicyclic.certificates import _segment_covered
    from realbicyclic import up_set

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


def test_tampered_file_still_validates_false(tmp_path):
    # a parseable certificate with a halved chosen threshold must simply be
    # judged invalid, not crash
    cert = continuity_cert_ac1(Side.LEFT, Elem(1, 2), NbhdAc1(4))
    text = cert_to_text(cert).replace("chosen-n 8/1", "chosen-n 4/1")
    back = cert_from_text(text)
    assert not validate_cert(back)
