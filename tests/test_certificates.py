"""Certificate generation, independent validation, tampering, falsification,
and bit-exact serialization."""

import dataclasses
import hashlib
import math
import random
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_elems
from realbicyclic import (
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
    truncated = "\n".join(text.splitlines()[:10]) + "\n"
    with pytest.raises(MalformedCert):
        cert_from_text(truncated)


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
    # parsing a damaged file yields a certificate or MalformedCert, and so does
    # validating what parsed: the CLI maps exactly these to exit 1 / exit 2
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
        parsed += 1
        try:
            assert validate_cert(cert) in (True, False), mutant
        except MalformedCert:
            pass
    assert parsed > 0 and malformed > 0


def test_tampered_file_still_validates_false(tmp_path):
    # a parseable certificate with a halved chosen threshold must simply be
    # judged invalid, not crash
    cert = continuity_cert_ac1(Side.LEFT, Elem(1, 2), NbhdAc1(4))
    text = cert_to_text(cert).replace("chosen-n 8/1", "chosen-n 4/1")
    back = cert_from_text(text)
    assert not validate_cert(back)
