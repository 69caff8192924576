"""The Fraction certificate generator that the integer one in
``realbicyclic.certificates`` replaced, kept as the differential reference:
it computes every threshold, image row and infimum with Fraction arithmetic.
Both generators must build equal certificates with equal texts."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from realbicyclic.semigroup import Elem
from realbicyclic.order_geometry import (
    Side,
    preimage_up_segment,
    shrink_witness,
    shrink_witness_dual,
    up_set,
)
from realbicyclic.topology import NbhdAc1, NbhdAc2
from realbicyclic.certificates import (
    BranchEvidence,
    CaseEvidence,
    ContinuityCert,
    Interval,
    TopEvidence,
)

F0 = Fraction(0)
F1 = Fraction(1)
FULL = Interval(F0, False, None, True)


def continuity_cert_ac1(side: Side, translator: Elem, target: NbhdAc1) -> ContinuityCert:
    hyp = max(translator.a, translator.b) + 1
    n = target.n if target.n > hyp else hyp + 1
    m = 2 * n
    x, y = translator.a, translator.b
    return ContinuityCert(
        topology="ac1",
        side=side,
        translator=translator,
        target=target,
        chosen=NbhdAc1(m),
        evidence=_cases(side, x, y, n, m),
        effective=NbhdAc1(n),
    )


def _cases(
    side: Side, x: Fraction, y: Fraction, n: Fraction, m: Fraction
) -> Tuple[CaseEvidence, ...]:
    left = side is Side.LEFT
    if left:
        rows = {
            "lt": ((F1, F0, x - y), (F0, F1, F0)),
            "eq": ((F0, F0, x), (F0, F1, F0)),
            "gt": ((F0, F0, x), (-F1, F1, y)),
        }
        ids, near, far, tag, big_inf = ("big-a", "mid-a", "low-a"), "a", "b", "lt", x - y + m
        low_tags = ("lt", "eq", "gt") if y > 0 else ("lt", "eq")
    else:
        rows = {
            "lt": ((F1, -F1, x), (F0, F0, y)),
            "eq": ((F1, F0, F0), (F0, F0, y)),
            "gt": ((F1, F0, F0), (F0, F1, y - x)),
        }
        ids, near, far, tag, big_inf = ("big-b", "mid-b", "low-b"), "b", "a", "gt", m + y - x
        low_tags = ("lt", "eq", "gt") if x > 0 else ("eq", "gt")

    def case(case_id, near_range, far_range, tags, witness, inf):
        ranges = (near_range, far_range) if left else (far_range, near_range)
        branches = tuple(BranchEvidence(t, *rows[t], witness, inf, False) for t in tags)
        return CaseEvidence(case_id, *ranges, branches)

    beyond = Interval(m, True, None, True)
    return (
        case(ids[0], beyond, FULL, (tag,), near, big_inf),
        case(ids[1], Interval(n, False, m, False), beyond, (tag,), far, m),
        case(ids[2], Interval(F0, False, n, True), beyond, low_tags, far, m),
    )


def continuity_cert_ac2(side: Side, translator: Elem, target: NbhdAc2) -> ContinuityCert:
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
