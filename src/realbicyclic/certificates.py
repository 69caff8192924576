"""Machine-checkable continuity certificates for zero neighbourhoods.

A certificate claims that one-sided multiplication by a fixed translator maps
a *chosen* zero neighbourhood into a *target* zero neighbourhood.  The
generator builds the chosen neighbourhood together with explicit evidence; the
validators re-derive every claim exactly on integer grids of the
certificate's common denominator, and are written independently of the
generator (they call nothing in ``order_geometry``), so a tampered certificate
is rejected on its merits.  ``falsify`` is a third route: it hunts for a
concrete point of the chosen neighbourhood whose image escapes the target,
double-checking any hit by direct evaluation before reporting it.  It tries a fixed list of
structural probes that provably reach every escaping point, so its result
depends on no seed, and its sample count is a budget, an upper bound that
covers every probe from 8 points (threshold neighbourhoods) or
2|chosen| + 3|target| points (segment ones).

For threshold neighbourhoods the evidence is a case split of the chosen set
into boxes, each carrying the affine image formula of the product's applicable
branch and the exact infimum of the coordinate that stays beyond the target
threshold.  For up-segment-complement neighbourhoods the evidence records, per
excluded target segment, the preimage segment and the chosen segment covering
it; inclusion of up-segments lying on one diagonal is decided by comparing
offsets and furthest points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .semigroup import Elem, mul
from .order_geometry import (
    Side,
    preimage_up_segment,
    shrink_witness,
    shrink_witness_dual,
    up_set,
)
from .topology import NbhdAc1, NbhdAc2, ZeroNbhd

F0 = Fraction(0)
F1 = Fraction(1)

Affine = Tuple[Fraction, Fraction, Fraction]  # coefficient of a, of b, constant


class MalformedCert(ValueError):
    """Certificate is structurally broken (unknown ids, mismatched shape)."""


@dataclass(frozen=True)
class Interval:
    """One-dimensional constraint lo <(=) var <(=) hi; hi None means unbounded."""

    lo: Fraction
    lo_strict: bool
    hi: Optional[Fraction]
    hi_strict: bool

    def contains(self, v: Fraction) -> bool:
        if v < self.lo or (v == self.lo and self.lo_strict):
            return False
        if self.hi is None:
            return True
        if v > self.hi or (v == self.hi and self.hi_strict):
            return False
        return True


FULL = Interval(F0, False, None, True)


@dataclass(frozen=True)
class BranchEvidence:
    """One branch of the product's case split over a case region.

    ``image_a``/``image_b`` give the product coordinates as affine functions
    of the input point; ``witness`` names the coordinate claimed to stay
    beyond the target threshold, with its exact infimum over the region."""

    branch: str  # "lt" | "eq" | "gt"
    image_a: Affine
    image_b: Affine
    witness: str  # "a" | "b"
    inf_value: Fraction
    inf_attained: bool


@dataclass(frozen=True)
class CaseEvidence:
    case_id: str
    a_range: Interval
    b_range: Interval
    branches: Tuple[BranchEvidence, ...]


@dataclass(frozen=True)
class TopEvidence:
    """Per excluded target segment: its preimage and the chosen cover."""

    target_top: Elem
    preimage_top: Optional[Elem]  # None when the preimage is empty
    offset: Fraction  # diagonal offset (b - a) of the preimage line
    covering_top: Optional[Elem]


Evidence = Union[Tuple[CaseEvidence, ...], Tuple[TopEvidence, ...]]


@dataclass(frozen=True)
class ContinuityCert:
    topology: str  # "ac1" | "ac2"
    side: Side
    translator: Elem
    target: ZeroNbhd  # as requested
    chosen: ZeroNbhd
    evidence: Evidence
    effective: Optional[NbhdAc1] = None  # ac1 only: target after threshold adjustment


# ---------------------------------------------------------------------------
# threshold-neighbourhood certificates
# ---------------------------------------------------------------------------

_CASE_IDS = {
    Side.LEFT: ("big-a", "mid-a", "low-a"),
    Side.RIGHT: ("big-b", "mid-b", "low-b"),
}

_BRANCH_ORDER = ("lt", "eq", "gt")


def continuity_cert_ac1(side: Side, translator: Elem, target: NbhdAc1) -> ContinuityCert:
    """Certify that translating the doubled-threshold neighbourhood lands in
    the target.

    If the requested threshold is not past max(translator) + 1 it is first
    enlarged to max(translator) + 2 (a smaller neighbourhood, so the requested
    inclusion still follows); both thresholds are recorded.
    """
    hyp = max(translator.a, translator.b) + 1
    n = target.n if target.n > hyp else hyp + 1
    m = 2 * n
    x, y = translator.a, translator.b
    if side is Side.LEFT:
        cases = _cases_left(x, y, n, m)
    else:
        cases = _cases_right(x, y, n, m)
    return ContinuityCert(
        topology="ac1",
        side=side,
        translator=translator,
        target=target,
        chosen=NbhdAc1(m),
        evidence=cases,
        effective=NbhdAc1(n),
    )


def _cases_left(x: Fraction, y: Fraction, n: Fraction, m: Fraction) -> Tuple[CaseEvidence, ...]:
    big = CaseEvidence(
        "big-a",
        a_range=Interval(m, True, None, True),
        b_range=FULL,
        branches=(
            BranchEvidence("lt", (F1, F0, x - y), (F0, F1, F0), "a", x - y + m, False),
        ),
    )
    mid = CaseEvidence(
        "mid-a",
        a_range=Interval(n, False, m, False),
        b_range=Interval(m, True, None, True),
        branches=(
            BranchEvidence("lt", (F1, F0, x - y), (F0, F1, F0), "b", m, False),
        ),
    )
    low_branches: List[BranchEvidence] = [
        BranchEvidence("lt", (F1, F0, x - y), (F0, F1, F0), "b", m, False),
        BranchEvidence("eq", (F0, F0, x), (F0, F1, F0), "b", m, False),
    ]
    if y > 0:
        low_branches.append(
            BranchEvidence("gt", (F0, F0, x), (-F1, F1, y), "b", m, False)
        )
    low = CaseEvidence(
        "low-a",
        a_range=Interval(F0, False, n, True),
        b_range=Interval(m, True, None, True),
        branches=tuple(low_branches),
    )
    return (big, mid, low)


def _cases_right(x: Fraction, y: Fraction, n: Fraction, m: Fraction) -> Tuple[CaseEvidence, ...]:
    big = CaseEvidence(
        "big-b",
        a_range=FULL,
        b_range=Interval(m, True, None, True),
        branches=(
            BranchEvidence("gt", (F1, F0, F0), (F0, F1, y - x), "b", m + y - x, False),
        ),
    )
    mid = CaseEvidence(
        "mid-b",
        a_range=Interval(m, True, None, True),
        b_range=Interval(n, False, m, False),
        branches=(
            BranchEvidence("gt", (F1, F0, F0), (F0, F1, y - x), "a", m, False),
        ),
    )
    low_branches: List[BranchEvidence] = []
    if x > 0:
        low_branches.append(
            BranchEvidence("lt", (F1, -F1, x), (F0, F0, y), "a", m, False)
        )
    low_branches.append(BranchEvidence("eq", (F1, F0, F0), (F0, F0, y), "a", m, False))
    low_branches.append(
        BranchEvidence("gt", (F1, F0, F0), (F0, F1, y - x), "a", m, False)
    )
    low = CaseEvidence(
        "low-b",
        a_range=Interval(m, True, None, True),
        b_range=Interval(F0, False, n, True),
        branches=tuple(low_branches),
    )
    return (big, mid, low)


def _covers_chosen(boxes: Sequence[Tuple[Tuple[int, Optional[int]], ...]], top: int) -> bool:
    """Do the case boxes cover everything with a coordinate beyond top?

    ``boxes`` holds each case's closed integer (a, b) ranges on the grid of
    ``validate_cert_ac1``, where every endpoint is even and a strict end sits
    one step inwards (odd).  Membership in a union of boxes is constant on the
    cells of the endpoint grid, so testing one representative per cell decides
    coverage exactly: every even end e and e + 1, the gap above it, with 0 and
    top among the ends.  A representative's bitmask holds the cases whose
    closed range contains it.
    """
    low_masks, high_masks = [], []
    for axis in (0, 1):
        ranges = [box[axis] for box in boxes]
        ends = {0, top}
        for lo, hi in ranges:
            ends.add(lo - (lo & 1))
            if hi is not None:
                ends.add(hi + (hi & 1))
        low, high = set(), set()
        for e in ends:
            for r in (e, e + 1):
                mask = 0
                for bit, (lo, hi) in enumerate(ranges):
                    if lo <= r and (hi is None or r <= hi):
                        mask |= 1 << bit
                (high if r > top else low).add(mask)
        low_masks.append(low)
        high_masks.append(high)
    # a point of the chosen set has a coordinate beyond top on one axis or both
    return all(
        a & b for a in high_masks[0] for b in low_masks[1] | high_masks[1]
    ) and all(a & b for a in low_masks[0] for b in high_masks[1])


def _grid_mul(a: int, b: int, c: int, d: int) -> Tuple[int, int]:
    """The product (a, b) * (c, d) of grid points, by its case split on the
    gap g = c - b: (a + g, d) when g > 0, else (a, d - g)."""
    g = c - b
    return (a + g, d) if g > 0 else (a, d - g)


def _corner_scan_ok(left: bool, x: int, y: int, m: int, n: int) -> bool:
    """Push the extreme points of the chosen set's inner boundary through the
    translation by the grid point (x, y), on the left when ``left``, and
    demand every image clears the closed target box below (n, n).

    The boundary is two segments meeting at (m, m); the piecewise-affine
    translation can only switch branches where the driving coordinate equals
    the pivot, which adds at most one more corner.  The meeting corner itself
    is never needed.  On the left the image of (c, d) is
    (x + max(c - y, 0), d + max(y - c, 0)): its first coordinate depends on c
    alone and its second does not decrease as d grows, so if (m, m) lands in
    the box so does (m, 0).  On the right, by the mirror argument, (0, m)
    dominates (m, m) in the same way.
    """
    corners = [(m, 0), (0, m)]
    pivot = y if left else x
    if pivot <= m:
        corners.append((pivot, m) if left else (m, pivot))
    for c, d in corners:
        a, b = _grid_mul(x, y, c, d) if left else _grid_mul(c, d, x, y)
        if a <= n and b <= n:
            return False
    return True


def validate_cert_ac1(cert: ContinuityCert) -> bool:
    """Re-derive an ac1 certificate from scratch.

    Checks, in order: structural sanity, the threshold relation between the
    requested and effective targets, per-case branch completeness with exact
    affine images and infima, coverage of the chosen set by the case boxes,
    and a corner scan of the chosen set's boundary.

    Every check after the threshold relation runs on one integer grid: each
    value read, the chosen threshold included, is scaled once by
    G = 2 * (their common denominator), so each endpoint is an even grid point,
    and a range becomes the closed integer range of its grid points, a strict
    end moved one step inwards (odd).  Meets are then max/min of ends and a
    range is empty exactly when lo > hi.  Coverage reads the closed ranges
    the branch checks built, and the corner scan the scaled translator and
    thresholds.
    """
    if cert.topology != "ac1":
        raise MalformedCert("not a threshold-neighbourhood certificate")
    if not isinstance(cert.target, NbhdAc1) or not isinstance(cert.chosen, NbhdAc1):
        raise MalformedCert("threshold certificate carries wrong neighbourhood kinds")
    if cert.effective is None:
        raise MalformedCert("missing effective target threshold")
    known_ids = _CASE_IDS[cert.side]
    seen_ids = [c.case_id for c in cert.evidence]
    for cid in seen_ids:
        if cid not in known_ids:
            raise MalformedCert(f"unknown case id {cid!r}")
    if len(set(seen_ids)) != len(seen_ids):
        raise MalformedCert("duplicate case id")

    n_req = cert.target.n
    n_eff = cert.effective.n
    m = cert.chosen.n
    if n_eff < n_req:
        return False

    left = cert.side is Side.LEFT
    t = cert.translator
    vals = [t.a, t.b, n_eff]
    for case in cert.evidence:
        for iv in (case.a_range, case.b_range):
            vals.append(iv.lo)
            if iv.hi is not None:
                vals.append(iv.hi)
        for br in case.branches:
            vals += br.image_a
            vals += br.image_b
            vals.append(br.inf_value)
    G = 2 * math.lcm(m.denominator, *(v.denominator for v in vals))

    def grid(v: Fraction) -> int:
        return v.numerator * (G // v.denominator)

    def closed(iv: Interval) -> Tuple[int, Optional[int]]:
        lo = grid(iv.lo) + (1 if iv.lo_strict else 0)
        return lo, None if iv.hi is None else grid(iv.hi) - (1 if iv.hi_strict else 0)

    x, y, ne, top = grid(t.a), grid(t.b), grid(n_eff), grid(m)
    boxes = []
    # Per branch tag: the range the branch allows the driving coordinate (the
    # input's a on the left, its b on the right, compared with the pivot, the
    # translator's b or a), and the image rows (coefficient of a, of b,
    # constant) on the grid, where a coefficient 1 reads G.
    if left:
        below, at, above = (0, y - 1), (y, y), (y + 1, None)
        expected = (
            ("lt", above, (G, 0, x - y), (0, G, 0)),
            ("eq", at, (0, 0, x), (0, G, 0)),
            ("gt", below, (0, 0, x), (-G, G, y)),
        )
    else:
        below, at, above = (0, x - 1), (x, x), (x + 1, None)
        expected = (
            ("lt", below, (G, -G, x), (0, 0, y)),
            ("eq", at, (G, 0, 0), (0, 0, y)),
            ("gt", above, (G, 0, 0), (0, G, y - x)),
        )
    for case in cert.evidence:
        records = {b.branch: b for b in case.branches}
        for tag in records:
            if tag not in _BRANCH_ORDER:
                raise MalformedCert(f"unknown branch tag {tag!r}")
        if len(records) != len(case.branches):
            raise MalformedCert("duplicate branch record")
        a_iv, b_iv = closed(case.a_range), closed(case.b_range)
        boxes.append((a_iv, b_iv))
        d_lo, d_hi = a_iv if left else b_iv
        for tag, (br_lo, br_hi), exp_a, exp_b in expected:
            lo = max(d_lo, br_lo)
            hi = br_hi if d_hi is None else d_hi if br_hi is None else min(d_hi, br_hi)
            record = records.get(tag)
            if (hi is None or lo <= hi) != (record is not None):
                return False
            if record is None:
                continue
            if (
                tuple(map(grid, record.image_a)) != exp_a
                or tuple(map(grid, record.image_b)) != exp_b
            ):
                return False
            if record.witness not in ("a", "b"):
                raise MalformedCert(f"unknown witness coordinate {record.witness!r}")
            ca, cb, inf_value = exp_a if record.witness == "a" else exp_b
            attained = True
            # the coefficients are -G, 0 or G: add the least (subtract the
            # greatest) value of the coordinate, its even grid end
            for c, (c_lo, c_hi) in (
                (ca, (lo, hi) if left else a_iv),
                (cb, b_iv if left else (lo, hi)),
            ):
                if c > 0:
                    inf_value += c_lo - (c_lo & 1)
                    attained = attained and not c_lo & 1
                elif c < 0:
                    if c_hi is None:
                        return False
                    inf_value -= c_hi + (c_hi & 1)
                    attained = attained and not c_hi & 1
            if inf_value != grid(record.inf_value) or attained != record.inf_attained:
                return False
            if attained:
                if inf_value <= ne:
                    return False
            elif inf_value < ne:
                return False
    if not _covers_chosen(boxes, top):
        return False
    if not _corner_scan_ok(left, x, y, top, ne):
        return False
    return True


# ---------------------------------------------------------------------------
# up-segment-complement certificates
# ---------------------------------------------------------------------------


def continuity_cert_ac2(side: Side, translator: Elem, target: NbhdAc2) -> ContinuityCert:
    """Certify the translated complement-of-up-segments neighbourhood.

    The chosen neighbourhood excludes, per target segment, the shrink witness
    for the translator; the evidence records the exact preimage of each target
    segment and which chosen segment swallows it.
    """
    chosen_tops: List[Elem] = []
    evidence: List[TopEvidence] = []
    for u in target.tops:
        if side is Side.LEFT:
            w = shrink_witness(translator, u)
        else:
            w = shrink_witness_dual(translator, u)
        if w not in chosen_tops:
            chosen_tops.append(w)
        delta = (translator.a - translator.b) + (u.b - u.a)
        pre = preimage_up_segment(side, translator, up_set(u))
        if pre is None:
            evidence.append(TopEvidence(u, None, delta, None))
        else:
            evidence.append(TopEvidence(u, pre.top, delta, w))
    return ContinuityCert(
        topology="ac2",
        side=side,
        translator=translator,
        target=target,
        chosen=NbhdAc2(tuple(chosen_tops)),
        evidence=tuple(evidence),
    )


def validate_cert_ac2(cert: ContinuityCert) -> bool:
    """Re-derive an ac2 certificate: recompute each target segment's preimage
    and decide its containment in the chosen segments exactly.

    Every value is scaled once to the integer grid of the certificate's common
    denominator.  The preimage of the up-segment below (ua, ub) is the one
    below (ua - ta + tb, ub) on the left, (ua, ub - tb + ta) on the right, and
    empty when ta > ua (left) or tb > ub (right).  Up-segments on one diagonal
    all reach the same boundary point, so the one below (ca, cb) contains the
    one below (pa, pb) exactly when ca - cb == pa - pb and ca >= pa.
    """
    if cert.topology != "ac2":
        raise MalformedCert("not an up-segment-complement certificate")
    if not isinstance(cert.target, NbhdAc2) or not isinstance(cert.chosen, NbhdAc2):
        raise MalformedCert("segment certificate carries wrong neighbourhood kinds")
    if not cert.chosen.tops:
        raise MalformedCert("chosen neighbourhood must exclude at least one segment")
    if tuple(ev.target_top for ev in cert.evidence) != cert.target.tops:
        raise MalformedCert("evidence tops do not match the target")
    points = [cert.translator, *cert.chosen.tops]
    for ev in cert.evidence:
        points += [e for e in (ev.target_top, ev.preimage_top, ev.covering_top) if e is not None]
    D = math.lcm(
        *(d for e in points for d in e._q[1::2]),
        *(ev.offset.denominator for ev in cert.evidence),
    )

    def grid(e: Optional[Elem]) -> Optional[Tuple[int, int]]:
        if e is None:
            return None
        an, ad, bn, bd = e._q
        return an * (D // ad), bn * (D // bd)

    ta, tb = grid(cert.translator)
    chosen = [grid(c) for c in cert.chosen.tops]
    left = cert.side is Side.LEFT
    for ev in cert.evidence:
        ua, ub = grid(ev.target_top)
        if ev.offset.numerator * (D // ev.offset.denominator) != (ta - tb) + (ub - ua):
            return False
        if left:
            pre = None if ta > ua else (ua - ta + tb, ub)
        else:
            pre = None if tb > ub else (ua, ub - tb + ta)
        if pre is None:
            if ev.preimage_top is not None:
                return False
            continue
        if grid(ev.preimage_top) != pre:
            return False
        pa, pb = pre
        if not any(ca - cb == pa - pb and ca >= pa for ca, cb in chosen):
            return False
        cover = grid(ev.covering_top)
        if cover is None or cover not in chosen:
            return False
        ca, cb = cover
        if not (ca - cb == pa - pb and ca >= pa):
            return False
    return True


def validate_cert(cert: ContinuityCert) -> bool:
    if cert.topology == "ac1":
        return validate_cert_ac1(cert)
    if cert.topology == "ac2":
        return validate_cert_ac2(cert)
    raise MalformedCert(f"unknown certificate topology {cert.topology!r}")


# ---------------------------------------------------------------------------
# falsifier
# ---------------------------------------------------------------------------


def falsify(
    side: Side,
    translator: Elem,
    chosen: ZeroNbhd,
    target: ZeroNbhd,
    samples: int,
    seed: int = 0,
) -> Optional[Elem]:
    """Hunt for s in the chosen neighbourhood whose image escapes the target.

    The search runs on the integer grid of the inputs' common denominator.  It
    tries a fixed list of structural probes near the boundary of the chosen
    set, each tested by integer comparisons against cut-offs computed once per
    call (per diagonal for segment neighbourhoods), which decide exactly what
    membership would.  The probes provably reach every escaping point
    (``_ac1_grid`` proves it for threshold neighbourhoods, ``_ac2_grid`` for
    segment ones), so when none escapes, no point of the chosen set does.
    ``samples`` is a budget, an upper bound on the probes tried: 8 cover
    them all for threshold neighbourhoods, 2|chosen| + 3|target| for segment
    ones, and a larger budget changes nothing.  Any candidate is re-verified
    with exact rational membership before being returned, so a returned
    point is always a true violation.  Returns None when no violation is
    found.

    ``seed`` plays no part in the search; it stays so that callers that
    pass one positionally keep working.  A negative seed still raises
    ``ValueError``: no seed input of the library accepts one (``GenConfig``
    and the CLI reject it too), and a caller's bad seed is better reported
    than silently ignored.  So does ``samples < 1``, which would report a
    miss without trying a point.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if isinstance(chosen, NbhdAc1) and isinstance(target, NbhdAc1):
        D, probes, escapes = _ac1_grid(side, translator, chosen, target)
    elif isinstance(chosen, NbhdAc2) and isinstance(target, NbhdAc2):
        D, probes, escapes = _ac2_grid(side, translator, chosen, target)
    else:
        raise TypeError("chosen and target must be zero neighbourhoods of the same kind")
    for xs, ys in probes[:samples]:
        if escapes(xs, ys):
            s = _confirm(side, translator, chosen, target, xs, ys, D)
            if s is not None:
                return s
    return None


def _confirm(
    side: Side, t: Elem, chosen: ZeroNbhd, target: ZeroNbhd, xs: int, ys: int, D: int
) -> Optional[Elem]:
    """The grid point (xs, ys)/D if exact membership confirms it escapes."""
    s = Elem(Fraction(xs, D), Fraction(ys, D))
    img = mul(t, s) if side is Side.LEFT else mul(s, t)
    return s if chosen.member(s) and not target.member(img) else None


# The grid denominator D, the probes in the order they are tried, and the
# escape predicate on grid points (xs, ys).
Probing = Tuple[int, Sequence[Tuple[int, int]], Callable[[int, int], bool]]


def _ac1_grid(side: Side, t: Elem, chosen: NbhdAc1, target: NbhdAc1) -> Probing:
    """Scale a threshold instance to the grid of its common denominator D.

    Returns D, the probes, and the escape predicate: does the grid point
    (xs, ys) lie in the chosen set with its image in the closed target box?

    The probes reach every escaping point, whatever the thresholds.  In the
    terms of the cut-off comment below, with nc and nt the chosen and target
    thresholds, let (u, v) escape.
      u >  nc, u >= p:  (max(nc + 1, p), 0) escapes as well, and it is the
               probe (nc + 1, 0) or (p, 0).
      u >  nc, u <  p:  q <= nt and p > u > nc, so (p, 0) escapes:
               p <= nt - q + p and 0 <= nt.
      u <= nc:  then v > nc.  Both branches force q <= nt and v <= nt, so
               nc < nt, and the probe (p, nc + 1) escapes: it is on the
               u >= p branch with p <= nt - q + p and nc + 1 <= nt, and
               v = nc + 1 > nc puts it in the chosen set.
    In (xs, ys) these are (nc + 1, 0), (tb, 0) and (tb, nc + 1) on the left,
    (0, nc + 1), (0, ta) and (nc + 1, ta) on the right, all among the probes.
    So when no probe escapes, no grid point does.
    """
    an, ad, bn, bd = t._q
    cn, cd = chosen.n.numerator, chosen.n.denominator
    tn, td = target.n.numerator, target.n.denominator
    D = math.lcm(ad, bd, cd, td)
    ta, tb, nc, nt = an * (D // ad), bn * (D // bd), cn * (D // cd), tn * (D // td)
    left = side is Side.LEFT
    probes = (
        (nc + 1, 0),
        (0, nc + 1),
        (tb, 0),
        (0, ta),
        (nc + 1, nt + 1),
        (nt + 1, nc + 1),
        (nc + 1, nc + 1),
        (tb, nc + 1) if left else (nc + 1, ta),
    )
    # With u the coordinate the product branches on (a on the left, b on the
    # right), v the other one, p the translator's pivot and q its remaining
    # coordinate, the image stays in the closed target box exactly when
    #   u >= p:  u <= nt - q + p  and  v <= nt
    #   u <  p:  q <= nt          and  v - u <= nt - p
    p, q = (tb, ta) if left else (ta, tb)
    u_cut, d_cut, low_ok = nt - q + p, nt - p, q <= nt

    def escapes(xs: int, ys: int) -> bool:
        u, v = (xs, ys) if left else (ys, xs)
        return (xs > nc or ys > nc) and (
            (u <= u_cut and v <= nt) if u >= p else (low_ok and v - u <= d_cut)
        )

    return D, probes, escapes


def _furthest(tops: Sequence[Tuple[int, int]]) -> Dict[int, int]:
    """Per diagonal a - b, the largest first coordinate among the tops on it."""
    far: Dict[int, int] = {}
    for a, b in tops:
        if a > far.get(a - b, -1):
            far[a - b] = a
    return far


def _ac2_grid(side: Side, t: Elem, chosen: NbhdAc2, target: NbhdAc2) -> Probing:
    """Scale a segment instance to the grid of its common denominator D.

    Returns D, the probes, and the escape predicate: does the grid point
    (xs, ys) lie in the chosen set with its image in a target segment?

    The probes reach the least escaping point of every diagonal.  Up-segment
    membership needs a top on the point's diagonal at least as far out.  On
    diagonal k = xs - ys the image (on k + ta - tb) has first coordinate
    ta + max(xs - tb, 0) on the left, max(xs, ta + k) on the right,
    non-decreasing in xs.  With c_far and t_far the furthest chosen and
    target tops there, the escaping points of the diagonal are therefore the
    interval c_far < xs <= cut, and only diagonals k = -d, for d in the
    target's pulled-back offsets, have any.  The least grid point of the
    interval is c_far + 1, the probe just past the furthest chosen top, when
    a chosen top lies on k (its first coordinate is at least max(k, 0)), and
    otherwise the diagonal's first point max(k, 0), the probe (x0, x0 + d).
    So when no probe escapes, no grid point does.
    """
    D = math.lcm(*(d for e in (t, *chosen.tops, *target.tops) for d in e._q[1::2]))

    def grid(e: Elem) -> Tuple[int, int]:
        an, ad, bn, bd = e._q
        return an * (D // ad), bn * (D // bd)

    ta, tb = grid(t)
    ch = [grid(c) for c in chosen.tops]
    tg = [grid(u) for u in target.tops]
    left = side is Side.LEFT
    # every image on a target segment's diagonal pulls back to one source
    # diagonal, since both product coordinates subtract the same min term
    deltas = [(ub - ua) + (ta - tb) for ua, ub in tg]
    probes: List[Tuple[int, int]] = []
    for ca, cb in ch:
        probes.append((ca + 1, cb + 1))
        probes.append((ca + D, cb + D))
    for d in deltas:
        x0 = -d if d < 0 else 0
        probes.append((x0, x0 + d))
        probes.append((x0 + 1, x0 + 1 + d))
        probes.append((x0 + D, x0 + D + d))
    far_ch = _furthest(ch)
    reach: Dict[int, Tuple[int, int]] = {}
    for image_k, t_far in _furthest(tg).items():
        k = image_k - (ta - tb)
        if left:
            cut = t_far - ta + tb if ta <= t_far else -1
        else:
            cut = t_far if ta + k <= t_far else -1
        reach[k] = (far_ch.get(k, -1), cut)
    nowhere = (0, -1)

    def escapes(xs: int, ys: int) -> bool:
        c_far, cut = reach.get(xs - ys, nowhere)
        return c_far < xs <= cut

    return D, probes, escapes
