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
covers every probe from 2 points (threshold neighbourhoods) or one point
per target diagonal (segment ones).

For threshold neighbourhoods the evidence is a case split of the chosen set
into boxes, each carrying the affine image formula of the product's applicable
branch and the exact infimum of the coordinate that stays beyond the target
threshold.  For up-segment-complement neighbourhoods the evidence records, per
excluded target segment, the preimage segment and the chosen segment covering
it; inclusion of up-segments lying on one diagonal is decided by comparing
offsets and furthest points.

The generator computes on the integers of ``Elem._q`` and of the
thresholds, with its own arithmetic (``semigroup._sum`` and cross-products;
it shares no grid code with the validators).  The records are frozen,
slotted dataclasses of Fractions.  Their public constructors, written here
alone, refuse every value the text format cannot hold: a wrong type is a
``TypeError``, a wrong word or shape a ``MalformedCert``.  So the writer and
the validators read the fields unchecked, and the validators judge only the
content.  The generator and the ``certio`` reader hold checked values and
build the records through the trusted constructors ``_interval``,
``_branch``, ``_case``, ``_top_evidence`` and ``_cert`` (see ``semigroup``).
Every entry point raises ``TypeError`` for an argument of the wrong type.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .semigroup import Elem, _check_field, _check_int, _fraction, _not_a, _sum, _trusted, mul
from .order_geometry import (
    Side,
    _LEFT,
    _up,
    preimage_up_segment,
    shrink_witness,
    shrink_witness_dual,
)
from .topology import NbhdAc1, NbhdAc2, ZeroNbhd, _ac1, _ac2

F0 = Fraction(0)
F1 = Fraction(1)
FM1 = Fraction(-1)

Affine = tuple[Fraction, Fraction, Fraction]  # coefficient of a, of b, constant


class MalformedCert(ValueError):
    """Certificate is structurally broken (unknown ids, mismatched shape)."""


_BRANCH_ORDER = ("lt", "eq", "gt")
_CASE_ID = re.compile("[a-z]+(?:-[a-z]+)*")  # the words the text format holds as a case id


@dataclass(frozen=True, slots=True)
class Interval:
    """One-dimensional constraint lo <(=) var <(=) hi; hi None means open at inf."""

    lo: Fraction
    lo_strict: bool
    hi: Fraction | None
    hi_strict: bool

    def __post_init__(self) -> None:
        _check_field("lo", self.lo, Fraction)
        _check_field("lo_strict", self.lo_strict, bool)
        _check_field("hi_strict", self.hi_strict, bool)
        if self.hi is not None:
            _check_field("hi", self.hi, Fraction)
        elif not self.hi_strict:
            raise MalformedCert("a range with no hi must be open at inf")


_interval = _trusted(Interval)
FULL = Interval(F0, False, None, True)


@dataclass(frozen=True, slots=True)
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

    def __post_init__(self) -> None:
        if self.branch not in _BRANCH_ORDER:
            raise MalformedCert(f"unknown branch tag {self.branch!r}")
        for name, row in (("image_a", self.image_a), ("image_b", self.image_b)):
            _check_field(name, row, tuple)
            if len(row) != 3:
                raise MalformedCert("an image row must have three coefficients")
            for value in row:
                _check_field(name, value, Fraction)
        if self.witness not in ("a", "b"):
            raise MalformedCert(f"unknown witness coordinate {self.witness!r}")
        _check_field("inf_value", self.inf_value, Fraction)
        _check_field("inf_attained", self.inf_attained, bool)


_branch = _trusted(BranchEvidence)


@dataclass(frozen=True, slots=True)
class CaseEvidence:
    case_id: str
    a_range: Interval
    b_range: Interval
    branches: tuple[BranchEvidence, ...]

    def __post_init__(self) -> None:
        _check_field("case_id", self.case_id, str)
        if not _CASE_ID.fullmatch(self.case_id):
            raise MalformedCert(f"unknown case id {self.case_id!r}")
        _check_field("a_range", self.a_range, Interval)
        _check_field("b_range", self.b_range, Interval)
        _check_field("branches", self.branches, tuple)
        for br in self.branches:
            _check_field("branches", br, BranchEvidence)


_case = _trusted(CaseEvidence)


@dataclass(frozen=True, slots=True)
class TopEvidence:
    """Per excluded target segment: its preimage and the chosen cover."""

    target_top: Elem
    preimage_top: Elem | None  # None when the preimage is empty
    offset: Fraction  # diagonal offset (b - a) of the preimage line
    covering_top: Elem | None

    def __post_init__(self) -> None:
        _check_field("target_top", self.target_top, Elem)
        for name, top in (("preimage_top", self.preimage_top), ("covering_top", self.covering_top)):
            if top is not None:
                _check_field(name, top, Elem)
        _check_field("offset", self.offset, Fraction)


_top_evidence = _trusted(TopEvidence)

Evidence = tuple[CaseEvidence, ...] | tuple[TopEvidence, ...]


@dataclass(frozen=True, slots=True)
class ContinuityCert:
    topology: str  # "ac1" | "ac2"
    side: Side
    translator: Elem
    target: ZeroNbhd  # as requested
    chosen: ZeroNbhd
    evidence: Evidence
    effective: NbhdAc1 | None = None  # ac1 only: target after threshold adjustment

    def __post_init__(self) -> None:
        if self.topology not in ("ac1", "ac2"):
            raise MalformedCert(f"unknown certificate topology {self.topology!r}")
        _check_field("side", self.side, Side)
        _check_field("translator", self.translator, Elem)
        ac1 = self.topology == "ac1"
        kind, record = (NbhdAc1, CaseEvidence) if ac1 else (NbhdAc2, TopEvidence)
        if not isinstance(self.target, kind) or not isinstance(self.chosen, kind):
            word = "threshold" if ac1 else "segment"
            raise MalformedCert(f"{word} certificate carries wrong neighbourhood kinds")
        if not ac1:
            if self.effective is not None:
                raise MalformedCert("an ac2 certificate has no effective threshold")
        elif self.effective is None:
            raise MalformedCert("missing effective target threshold")
        else:
            _check_field("effective", self.effective, NbhdAc1)
        _check_field("evidence", self.evidence, tuple)
        for entry in self.evidence:
            if not isinstance(entry, record):
                raise MalformedCert(f"evidence entry {entry!r} is not a {record.__name__}")


_cert = _trusted(ContinuityCert)


_ratio = Fraction.as_integer_ratio  # unbound: a record value's integers in one call


# ---------------------------------------------------------------------------
# threshold-neighbourhood certificates
# ---------------------------------------------------------------------------

_CASE_IDS = {
    Side.LEFT: ("big-a", "mid-a", "low-a"),
    Side.RIGHT: ("big-b", "mid-b", "low-b"),
}


def continuity_cert_ac1(side: Side, translator: Elem, target: NbhdAc1) -> ContinuityCert:
    """Certify that translating the doubled-threshold neighbourhood lands in
    the target.

    If the requested threshold is not past max(translator) + 1 it is first
    enlarged to max(translator) + 2 (a smaller neighbourhood, so the requested
    inclusion still follows); both thresholds are recorded.
    """
    _check_field("side", side, Side)
    _check_field("target", target, NbhdAc1)
    _check_field("translator", translator, Elem)
    an, ad, bn, bd = translator._q
    pn, pd = (an, ad) if an * bd >= bn * ad else (bn, bd)  # max(translator)
    tn, td = target.n.as_integer_ratio()
    if tn * pd > (pn + pd) * td:  # past max + 1
        effective, nn, nd = target, tn, td
    else:  # max + 2, in lowest terms as max is
        nn, nd = pn + 2 * pd, pd
        effective = _ac1(_fraction(nn, nd))
    m = _fraction(nn, nd // 2) if nd % 2 == 0 else _fraction(2 * nn, nd)  # 2n
    evidence = _cases(side, translator, effective.n, m)
    return _cert("ac1", side, translator, target, _ac1(m), evidence, effective)


def _cases(side: Side, translator: Elem, n: Fraction, m: Fraction) -> tuple[CaseEvidence, ...]:
    """The big, mid and low boxes of the chosen set for the translator (x, y).

    ``rows`` holds, per branch of the product, the image rows (coefficient of
    a, of b, constant).  The big box puts the near coordinate (a on the left,
    b on the right) beyond m; the mid and low boxes put the far one beyond m
    and the near one in [n, m] or [0, n).  The right side mirrors the left,
    its big and mid boxes taking the gt branch where the left's take lt.
    The sums x - y and its negation, and the big box's infimum, are taken on
    the integers and each built once as a Fraction."""
    an, ad, bn, bd = translator._q
    x, y = _fraction(an, ad), _fraction(bn, bd)
    dn, dd = _sum(an, ad, -bn, bd)  # x - y
    mn, md = m.as_integer_ratio()
    left = side is _LEFT
    if left:
        rows = {
            "lt": ((F1, F0, _fraction(dn, dd)), (F0, F1, F0)),
            "eq": ((F0, F0, x), (F0, F1, F0)),
            "gt": ((F0, F0, x), (FM1, F1, y)),
        }
        ids, near, far, tag = ("big-a", "mid-a", "low-a"), "a", "b", "lt"
        big_inf = _fraction(*_sum(dn, dd, mn, md))  # x - y + m
        low_tags = ("lt", "eq", "gt") if bn else ("lt", "eq")
    else:
        rows = {
            "lt": ((F1, FM1, x), (F0, F0, y)),
            "eq": ((F1, F0, F0), (F0, F0, y)),
            "gt": ((F1, F0, F0), (F0, F1, _fraction(-dn, dd))),
        }
        ids, near, far, tag = ("big-b", "mid-b", "low-b"), "b", "a", "gt"
        big_inf = _fraction(*_sum(mn, md, -dn, dd))  # m + y - x
        low_tags = ("lt", "eq", "gt") if an else ("eq", "gt")

    def case(case_id, near_range, far_range, tags, witness, inf):
        ranges = (near_range, far_range) if left else (far_range, near_range)
        branches = tuple([_branch(t, *rows[t], witness, inf, False) for t in tags])
        return _case(case_id, *ranges, branches)

    beyond = _interval(m, True, None, True)
    return (
        case(ids[0], beyond, FULL, (tag,), near, big_inf),
        case(ids[1], _interval(n, False, m, False), beyond, (tag,), far, m),
        case(ids[2], _interval(F0, False, n, True), beyond, low_tags, far, m),
    )


def _covers_chosen(boxes: Sequence[tuple[tuple[int, int | None], ...]], top: int) -> bool:
    """Do the case boxes cover everything with a coordinate beyond top?

    ``boxes`` holds each case's closed integer (a, b) ranges on the grid of
    ``validate_cert_ac1``.  Membership in a union of boxes is constant on the
    cells between an axis's breakpoints, the points where a range starts or
    stops: each lo, each hi + 1, and 0 and top + 1, so that no cell straddles
    the quadrant's edge or top.  A sweep over the sorted breakpoints keeps
    the bitmask of the cases whose range holds the current cell, and records
    it for each cell of the quadrant, its first point >= 0; testing one
    point per cell decides coverage exactly.
    """
    cells = []  # per axis: the masks of the cells up to top, and beyond it
    for axis in (0, 1):
        flips = {0: 0, top + 1: 0}  # breakpoint -> the cases entering or leaving there
        bit = 1
        for box in boxes:
            lo, hi = box[axis]
            if hi is None:
                flips[lo] = flips.get(lo, 0) ^ bit
            elif lo <= hi:
                flips[lo] = flips.get(lo, 0) ^ bit
                flips[hi + 1] = flips.get(hi + 1, 0) ^ bit
            bit <<= 1
        low, high = set(), set()
        mask = 0
        for r in sorted(flips):
            mask ^= flips[r]
            if r > top:
                high.add(mask)
            elif r >= 0:
                low.add(mask)
        cells.append((low, high))
    # a point of the chosen set has a coordinate beyond top on one axis or both
    (low_a, high_a), (low_b, high_b) = cells
    every_b = low_b | high_b
    for a in high_a:
        for b in every_b:
            if not a & b:
                return False
    for a in low_a:
        for b in high_b:
            if not a & b:
                return False
    return True


def validate_cert_ac1(cert: ContinuityCert) -> bool:
    """Re-derive an ac1 certificate from scratch.

    Checks, in order: structural sanity, the threshold relation between the
    requested and effective targets, per-case branch completeness with exact
    affine images and infima, and coverage of the chosen set by the case
    boxes.  Coverage and the branch infima decide the inclusion: each chosen
    point lies in a case box and in the one branch region its driving
    coordinate picks, whose record carries the true image rows, and that
    branch's witness coordinate is > n_eff over the box (its infimum > n_eff
    when attained, >= n_eff when not), so the image avoids [0, n_eff]^2.

    Every check after the threshold relation runs on one integer grid.  One
    flat pass collects the values in the order the case loop reads them: per
    case its four range ends (an unbounded end reads 0 and is never used) and
    per branch record its image rows and infimum.  One comprehension reads
    their numerators and denominators, and one lcm over those, the
    translator's and the thresholds' gives G = 2 * (the common denominator).
    Each value is scaled once by G, so each endpoint is an even grid point,
    and a range becomes the closed integer range of its grid points, a strict
    end moved one step inwards (odd).  Meets are then max/min of ends and a
    range is empty exactly when lo > hi.  The case loop reads each case's
    closed ranges inline, and coverage reads the ranges it built.
    """
    _check_field("cert", cert, ContinuityCert)
    if cert.topology != "ac1":
        raise MalformedCert("not a threshold-neighbourhood certificate")
    side = cert.side
    known_ids = _CASE_IDS[side]
    seen_ids = [c.case_id for c in cert.evidence]
    for cid in seen_ids:
        if cid not in known_ids:
            raise MalformedCert(f"unknown case id {cid!r}")
    if len(set(seen_ids)) != len(seen_ids):
        raise MalformedCert("duplicate case id")

    thresholds = cert.effective.n, cert.target.n, cert.chosen.n
    (ne_num, ne_den), (tn, td), (top_num, top_den) = map(_ratio, thresholds)
    if ne_num * td < tn * ne_den:  # the effective threshold below the requested one
        return False

    left = side is _LEFT
    an, ad, bn, bd = cert.translator._q
    values = []
    for case in cert.evidence:
        a_range, b_range = case.a_range, case.b_range
        a_hi, b_hi = a_range.hi, b_range.hi
        values += (
            a_range.lo, F0 if a_hi is None else a_hi, b_range.lo, F0 if b_hi is None else b_hi
        )
        for br in case.branches:
            values += br.image_a
            values += br.image_b
            values.append(br.inf_value)
    ratios = [_ratio(v) for v in values]
    G = 2 * math.lcm(top_den, ad, bd, ne_den, *{d for _, d in ratios})
    grid = [n * (G // d) for n, d in ratios]
    x, y = an * (G // ad), bn * (G // bd)
    ne, top = ne_num * (G // ne_den), top_num * (G // top_den)

    boxes = []
    # Per branch tag: the range the branch allows the driving coordinate (the
    # input's a on the left, its b on the right, compared with the pivot, the
    # translator's b or a), and the image rows (coefficient of a, of b,
    # constant) on the grid, where a coefficient 1 reads G.
    if left:
        expected = (
            ("lt", y + 1, None, [G, 0, x - y], [0, G, 0]),
            ("eq", y, y, [0, 0, x], [0, G, 0]),
            ("gt", 0, y - 1, [0, 0, x], [-G, G, y]),
        )
    else:
        expected = (
            ("lt", 0, x - 1, [G, -G, x], [0, 0, y]),
            ("eq", x, x, [G, 0, 0], [0, 0, y]),
            ("gt", x + 1, None, [G, 0, 0], [0, G, y - x]),
        )
    i = 0  # the grid index of the next value to read
    for case in cert.evidence:
        a_range, b_range = case.a_range, case.b_range
        a_lo = grid[i] + (1 if a_range.lo_strict else 0)
        a_hi = None if a_range.hi is None else grid[i + 1] - (1 if a_range.hi_strict else 0)
        b_lo = grid[i + 2] + (1 if b_range.lo_strict else 0)
        b_hi = None if b_range.hi is None else grid[i + 3] - (1 if b_range.hi_strict else 0)
        i += 4
        records = {}  # branch tag -> (record, grid index of its image rows and infimum)
        for br in case.branches:
            records[br.branch] = br, i
            i += 7
        if len(records) != len(case.branches):
            raise MalformedCert("duplicate branch record")
        boxes.append(((a_lo, a_hi), (b_lo, b_hi)))
        d_lo, d_hi = (a_lo, a_hi) if left else (b_lo, b_hi)
        for tag, br_lo, br_hi, exp_a, exp_b in expected:
            lo = d_lo if d_lo > br_lo else br_lo
            hi = br_hi if d_hi is None else d_hi if br_hi is None else min(d_hi, br_hi)
            entry = records.get(tag)
            if (hi is None or lo <= hi) != (entry is not None):
                return False
            if entry is None:
                continue
            record, j = entry
            if grid[j : j + 3] != exp_a or grid[j + 3 : j + 6] != exp_b:
                return False
            ca, cb, inf_value = exp_a if record.witness == "a" else exp_b
            # the coefficients are -G, 0 or G: add the least (subtract the
            # greatest) value of each coordinate, its even grid end; the
            # driving coordinate ranges over the meet [lo, hi].  Only the
            # driving coordinate of the left gt and right lt rows has a -G,
            # and their ranges stop at y - 1 and x - 1, so c_hi is never None
            c_lo, c_hi = (lo, hi) if left else (a_lo, a_hi)
            attained = True
            if ca > 0:
                inf_value += c_lo - (c_lo & 1)
                attained = not c_lo & 1
            elif ca < 0:
                inf_value -= c_hi + (c_hi & 1)
                attained = not c_hi & 1
            c_lo, c_hi = (b_lo, b_hi) if left else (lo, hi)
            if cb > 0:
                inf_value += c_lo - (c_lo & 1)
                attained = attained and not c_lo & 1
            elif cb < 0:
                inf_value -= c_hi + (c_hi & 1)
                attained = attained and not c_hi & 1
            if inf_value != grid[j + 6] or attained != record.inf_attained:
                return False
            if attained:
                if inf_value <= ne:
                    return False
            elif inf_value < ne:
                return False
    if not _covers_chosen(boxes, top):
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
    _check_field("side", side, Side)
    _check_field("target", target, NbhdAc2)
    _check_field("translator", translator, Elem)
    an, ad, bn, bd = translator._q
    kn, kd = _sum(an, ad, -bn, bd)  # the translator's a - b
    chosen_tops: list[Elem] = []
    evidence: list[TopEvidence] = []
    for u in target.tops:
        if side is _LEFT:
            w = shrink_witness(translator, u)
        else:
            w = shrink_witness_dual(translator, u)
        if w not in chosen_tops:
            chosen_tops.append(w)
        uan, uad, ubn, ubd = u._q
        delta = _fraction(*_sum(kn, kd, *_sum(ubn, ubd, -uan, uad)))  # plus the top's b - a
        pre = preimage_up_segment(side, translator, _up(u))
        if pre is None:
            evidence.append(_top_evidence(u, None, delta, None))
        else:
            evidence.append(_top_evidence(u, pre.top, delta, w))
    return _cert("ac2", side, translator, target, _ac2(tuple(chosen_tops)), tuple(evidence))


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
    _check_field("cert", cert, ContinuityCert)
    if cert.topology != "ac2":
        raise MalformedCert("not an up-segment-complement certificate")
    if tuple(ev.target_top for ev in cert.evidence) != cert.target.tops:
        raise MalformedCert("evidence tops do not match the target")
    points = [cert.translator, *cert.chosen.tops]
    for ev in cert.evidence:
        points += [e for e in (ev.target_top, ev.preimage_top, ev.covering_top) if e is not None]
    offsets = [_ratio(ev.offset) for ev in cert.evidence]
    D = math.lcm(*(d for e in points for d in e._q[1::2]), *(d for _, d in offsets))

    def grid(e: Elem | None) -> tuple[int, int] | None:
        if e is None:
            return None
        an, ad, bn, bd = e._q
        return an * (D // ad), bn * (D // bd)

    ta, tb = grid(cert.translator)
    chosen = [grid(c) for c in cert.chosen.tops]
    left = cert.side is _LEFT
    for ev, (on, od) in zip(cert.evidence, offsets):
        ua, ub = grid(ev.target_top)
        if on * (D // od) != (ta - tb) + (ub - ua):
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
        cover = grid(ev.covering_top)
        if cover is None or cover not in chosen:
            return False
        ca, cb = cover
        if not (ca - cb == pa - pb and ca >= pa):
            return False
    return True


def validate_cert(cert: ContinuityCert) -> bool:
    """The verdict of ``validate_cert_ac1`` or ``validate_cert_ac2``, chosen
    by ``cert.topology``.  The records checked their fields when they were
    built; the validators judge the content, and raise ``MalformedCert`` for
    a case id of the wrong side, a duplicate case or branch, or tops that do
    not match the target, and ``TypeError`` for a ``cert`` that is not a
    certificate."""
    _check_field("cert", cert, ContinuityCert)
    return validate_cert_ac1(cert) if cert.topology == "ac1" else validate_cert_ac2(cert)


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
) -> Elem | None:
    """Hunt for s in the chosen neighbourhood whose image escapes the target.

    The search runs on the integer grid of the inputs' common denominator.  It
    tries a fixed list of structural probes near the boundary of the chosen
    set, each tested by integer comparisons against cut-offs computed once per
    call (per diagonal for segment neighbourhoods), which decide exactly what
    membership would.  The probes provably reach every escaping point
    (``_ac1_grid`` proves it for threshold neighbourhoods, ``_ac2_grid`` for
    segment ones), so when none escapes, no point of the chosen set does.
    ``samples`` is a budget, an upper bound on the probes tried: 2 cover
    them all for threshold neighbourhoods, one per target diagonal for
    segment ones, and a larger budget changes nothing.  Any candidate is
    re-verified with exact rational membership before being returned, so a
    returned point is always a true violation.  Returns None when no violation is
    found.

    ``seed`` plays no part in the search; it stays so that callers that
    pass one positionally keep working.  A negative seed still raises
    ``ValueError``: no seed input of the library accepts one (``GenConfig``
    and the CLI reject it too), and a caller's bad seed is better reported
    than silently ignored.  So does ``samples < 1``, which would report a
    miss without trying a point.  A ``side`` that is not a ``Side``, a
    ``translator`` that is not an ``Elem``, a ``chosen`` of neither
    neighbourhood kind, a ``target`` of another kind than ``chosen``, and a
    ``samples`` or ``seed`` that is not an int (or is a bool), raise
    ``TypeError``.
    """
    _check_field("side", side, Side)
    _check_int("samples", samples)
    _check_int("seed", seed)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    _check_field("translator", translator, Elem)
    if isinstance(chosen, NbhdAc1):
        _check_field("target", target, NbhdAc1)
        D, probes, escapes = _ac1_grid(side, translator, chosen, target)
    elif isinstance(chosen, NbhdAc2):
        _check_field("target", target, NbhdAc2)
        D, probes, escapes = _ac2_grid(side, translator, chosen, target)
    else:
        raise _not_a("chosen", chosen, (NbhdAc1, NbhdAc2))
    for xs, ys in probes[:samples]:
        if escapes(xs, ys):
            s = _confirm(side, translator, chosen, target, xs, ys, D)
            if s is not None:
                return s
    return None


def _confirm(
    side: Side, t: Elem, chosen: ZeroNbhd, target: ZeroNbhd, xs: int, ys: int, D: int
) -> Elem | None:
    """The grid point (xs, ys)/D if exact membership confirms it escapes."""
    s = Elem(Fraction(xs, D), Fraction(ys, D))
    img = mul(t, s) if side is _LEFT else mul(s, t)
    return s if chosen.member(s) and not target.member(img) else None


# The grid denominator D, the probes in the order they are tried, and the
# escape predicate on grid points (xs, ys).
Probing = tuple[int, Sequence[tuple[int, int]], Callable[[int, int], bool]]


def _ac1_grid(side: Side, t: Elem, chosen: NbhdAc1, target: NbhdAc1) -> Probing:
    """Scale a threshold instance to the grid of its common denominator D.

    Returns D, the probes, and the escape predicate: does the grid point
    (xs, ys) lie in the chosen set with its image in the closed target box?

    Two probes reach every escaping point, whatever the thresholds.  In the
    terms of the cut-off comment below, with nc and nt the chosen and target
    thresholds, they are (u, v) = (max(nc + 1, p), 0) and (p, nc + 1).  Let
    (u, v) escape.
      u >  nc, u >= p:  the first probe escapes as well.
      u >  nc, u <  p:  q <= nt and p > u > nc, so the first probe is (p, 0),
               and it escapes: p <= nt - q + p and 0 <= nt.
      u <= nc:  then v > nc.  Both branches force q <= nt and v <= nt, so
               nc < nt, and the second probe escapes: it is on the u >= p
               branch with p <= nt - q + p and nc + 1 <= nt, and
               v = nc + 1 > nc puts it in the chosen set.
    So when neither probe escapes, no grid point does.
    """
    an, ad, bn, bd = t._q
    cn, cd = chosen.n.as_integer_ratio()
    tn, td = target.n.as_integer_ratio()
    D = math.lcm(ad, bd, cd, td)
    ta, tb, nc, nt = an * (D // ad), bn * (D // bd), cn * (D // cd), tn * (D // td)
    left = side is _LEFT
    if left:
        probes = ((max(nc + 1, tb), 0), (tb, nc + 1))
    else:
        probes = ((0, max(nc + 1, ta)), (nc + 1, ta))
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


def _furthest(tops: Sequence[tuple[int, int]]) -> dict[int, int]:
    """Per diagonal a - b, the largest first coordinate among the tops on it."""
    far: dict[int, int] = {}
    for a, b in tops:
        if a > far.get(a - b, -1):
            far[a - b] = a
    return far


def _ac2_grid(side: Side, t: Elem, chosen: NbhdAc2, target: NbhdAc2) -> Probing:
    """Scale a segment instance to the grid of its common denominator D.

    Returns D, the probes, and the escape predicate: does the grid point
    (xs, ys) lie in the chosen set with its image in a target segment?

    There is one probe per pulled-back target diagonal, the least grid point
    of its escaping interval, so at most |target| probes.  Up-segment
    membership needs a top on the point's diagonal at least as far out.  On
    diagonal k = xs - ys the image (on k + ta - tb) has first coordinate
    ta + max(xs - tb, 0) on the left, max(xs, ta + k) on the right,
    non-decreasing in xs.  With c_far and t_far the furthest chosen and
    target tops there, the escaping points of the diagonal are therefore the
    interval c_far < xs <= cut, and only the diagonals that a target
    diagonal pulls back to have any.  The least grid point of the interval
    is c_far + 1, just past the furthest chosen top, when a chosen top lies
    on k (its first coordinate is at least max(k, 0)), and otherwise the
    diagonal's first point max(k, 0).  So when no probe escapes, no grid
    point does.
    """
    D = math.lcm(*(d for e in (t, *chosen.tops, *target.tops) for d in e._q[1::2]))

    def grid(e: Elem) -> tuple[int, int]:
        an, ad, bn, bd = e._q
        return an * (D // ad), bn * (D // bd)

    ta, tb = grid(t)
    ch = [grid(c) for c in chosen.tops]
    tg = [grid(u) for u in target.tops]
    left = side is _LEFT
    far_ch = _furthest(ch)
    probes: list[tuple[int, int]] = []
    reach: dict[int, tuple[int, int]] = {}
    # every image on a target segment's diagonal pulls back to one source
    # diagonal, since both product coordinates subtract the same min term
    for image_k, t_far in _furthest(tg).items():
        k = image_k - (ta - tb)
        if left:
            cut = t_far - ta + tb if ta <= t_far else -1
        else:
            cut = t_far if ta + k <= t_far else -1
        c_far = far_ch.get(k, -1)
        # the least point of the escaping interval (c_far is -1 off the tops)
        xs = max(c_far + 1, k, 0)
        probes.append((xs, xs - k))
        reach[k] = (c_far, cut)
    nowhere = (0, -1)

    def escapes(xs: int, ys: int) -> bool:
        c_far, cut = reach.get(xs - ys, nowhere)
        return c_far < xs <= cut

    return D, probes, escapes
