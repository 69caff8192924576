"""Stable text serialization for continuity certificates.

Line oriented, fixed field order, every rational written ``num/den`` with the
denominator explicit, so emitting the same certificate twice is byte
identical and certificates survive storage and re-validation bit exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional

from .semigroup import Elem
from .order_geometry import Side
from .topology import NbhdAc1, NbhdAc2
from .certificates import (
    BranchEvidence,
    CaseEvidence,
    ContinuityCert,
    Interval,
    MalformedCert,
    TopEvidence,
)

_HEADER = "realbicyclic-cert 1"


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _parse_frac(text: str, where: str) -> Fraction:
    num, sep, den = text.partition("/")
    if not sep:
        raise MalformedCert(f"{where}: expected num/den rational, got {text!r}")
    try:
        return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedCert(f"{where}: bad rational {text!r}") from exc


def _parse_count(text: str, where: str) -> int:
    try:
        count = int(text)
    except ValueError as exc:
        raise MalformedCert(f"{where}: bad count {text!r}") from exc
    if count < 0:
        raise MalformedCert(f"{where}: negative count")
    return count


def _parse_threshold(text: str, where: str) -> NbhdAc1:
    n = _parse_frac(text, where)
    try:
        return NbhdAc1(n)
    except ValueError as exc:
        raise MalformedCert(f"{where}: {exc}") from exc


def _elem(e: Elem) -> str:
    return f"{_frac(e.a)} {_frac(e.b)}"


def _parse_elem(text: str, where: str) -> Elem:
    parts = text.split()
    if len(parts) != 2:
        raise MalformedCert(f"{where}: expected two rationals, got {text!r}")
    a = _parse_frac(parts[0], where)
    b = _parse_frac(parts[1], where)
    try:
        return Elem(a, b)
    except ValueError as exc:
        raise MalformedCert(f"{where}: {exc}") from exc


def _iv(iv: Interval) -> str:
    lo_br = "(" if iv.lo_strict else "["
    if iv.hi is None:
        return f"{lo_br}{_frac(iv.lo)} inf)"
    hi_br = ")" if iv.hi_strict else "]"
    return f"{lo_br}{_frac(iv.lo)} {_frac(iv.hi)}{hi_br}"


def _parse_iv(text: str, where: str) -> Interval:
    if len(text) < 2 or text[0] not in "([" or text[-1] not in ")]":
        raise MalformedCert(f"{where}: bad interval {text!r}")
    lo_strict = text[0] == "("
    hi_strict = text[-1] == ")"
    body = text[1:-1].split()
    if len(body) != 2:
        raise MalformedCert(f"{where}: bad interval {text!r}")
    lo = _parse_frac(body[0], where)
    if body[1] == "inf":
        if not hi_strict:
            raise MalformedCert(f"{where}: unbounded interval must be open above")
        return Interval(lo, lo_strict, None, True)
    return Interval(lo, lo_strict, _parse_frac(body[1], where), hi_strict)


def cert_to_text(cert: ContinuityCert) -> str:
    lines: List[str] = [_HEADER, f"kind {cert.topology}", f"side {cert.side.value}"]
    lines.append(f"translator {_elem(cert.translator)}")
    if cert.topology == "ac1":
        lines.append(f"target-n {_frac(cert.target.n)}")
        lines.append(f"effective-n {_frac(cert.effective.n)}")
        lines.append(f"chosen-n {_frac(cert.chosen.n)}")
        for case in cert.evidence:
            lines.append(f"case {case.case_id}")
            lines.append(f"a-range {_iv(case.a_range)}")
            lines.append(f"b-range {_iv(case.b_range)}")
            for br in case.branches:
                lines.append(f"branch {br.branch}")
                lines.append(f"image-a {' '.join(_frac(c) for c in br.image_a)}")
                lines.append(f"image-b {' '.join(_frac(c) for c in br.image_b)}")
                lines.append(f"witness {br.witness}")
                lines.append(f"inf {_frac(br.inf_value)}")
                lines.append(f"attained {'yes' if br.inf_attained else 'no'}")
            lines.append("end-case")
    elif cert.topology == "ac2":
        lines.append(f"target-tops {len(cert.target.tops)}")
        for top in cert.target.tops:
            lines.append(f"top {_elem(top)}")
        lines.append(f"chosen-tops {len(cert.chosen.tops)}")
        for top in cert.chosen.tops:
            lines.append(f"top {_elem(top)}")
        lines.append(f"evidence {len(cert.evidence)}")
        for ev in cert.evidence:
            lines.append(f"target-top {_elem(ev.target_top)}")
            if ev.preimage_top is None:
                lines.append("preimage empty")
            else:
                lines.append(f"preimage-top {_elem(ev.preimage_top)}")
            lines.append(f"offset {_frac(ev.offset)}")
            if ev.covering_top is None:
                lines.append("covering none")
            else:
                lines.append(f"covering-top {_elem(ev.covering_top)}")
            lines.append("end-evidence")
    else:
        raise MalformedCert(f"unknown certificate topology {cert.topology!r}")
    lines.append("end-cert")
    return "\n".join(lines) + "\n"


class _Cursor:
    def __init__(self, text: str) -> None:
        self.lines = [ln.rstrip() for ln in text.splitlines()]
        self.pos = 0

    def next(self) -> str:
        while self.pos < len(self.lines) and not self.lines[self.pos]:
            self.pos += 1
        if self.pos >= len(self.lines):
            raise MalformedCert("unexpected end of certificate")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def peek(self) -> Optional[str]:
        saved = self.pos
        try:
            line = self.next()
        except MalformedCert:
            return None
        self.pos = saved
        return line

    def take(self, key: str) -> str:
        line = self.next()
        if line == key:
            return ""
        if not line.startswith(key + " "):
            raise MalformedCert(f"line {self.pos}: expected {key!r}, got {line!r}")
        return line[len(key) + 1 :]


def cert_from_text(text: str) -> ContinuityCert:
    cur = _Cursor(text)
    if cur.next() != _HEADER:
        raise MalformedCert("missing certificate header")
    cert = _cert_body(cur)
    if cur.peek() is not None:
        raise MalformedCert("trailing content after end-cert")
    return cert


def _cert_body(cur: "_Cursor") -> ContinuityCert:
    kind = cur.take("kind")
    side_text = cur.take("side")
    try:
        side = Side(side_text)
    except ValueError as exc:
        raise MalformedCert(f"unknown side {side_text!r}") from exc
    translator = _parse_elem(cur.take("translator"), "translator")
    if kind == "ac1":
        target = _parse_threshold(cur.take("target-n"), "target-n")
        effective = _parse_threshold(cur.take("effective-n"), "effective-n")
        chosen = _parse_threshold(cur.take("chosen-n"), "chosen-n")
        cases: List[CaseEvidence] = []
        while True:
            line = cur.peek()
            if line == "end-cert":
                cur.next()
                break
            case_id = cur.take("case")
            a_range = _parse_iv(cur.take("a-range"), "a-range")
            b_range = _parse_iv(cur.take("b-range"), "b-range")
            branches: List[BranchEvidence] = []
            while True:
                line = cur.peek()
                if line == "end-case":
                    cur.next()
                    break
                tag = cur.take("branch")
                if tag not in ("lt", "eq", "gt"):
                    raise MalformedCert(f"unknown branch tag {tag!r}")
                image_a = tuple(
                    _parse_frac(p, "image-a") for p in cur.take("image-a").split()
                )
                image_b = tuple(
                    _parse_frac(p, "image-b") for p in cur.take("image-b").split()
                )
                if len(image_a) != 3 or len(image_b) != 3:
                    raise MalformedCert("image rows need three coefficients")
                witness = cur.take("witness")
                if witness not in ("a", "b"):
                    raise MalformedCert(f"unknown witness coordinate {witness!r}")
                inf_value = _parse_frac(cur.take("inf"), "inf")
                att_text = cur.take("attained")
                if att_text not in ("yes", "no"):
                    raise MalformedCert(f"bad attained flag {att_text!r}")
                branches.append(
                    BranchEvidence(
                        tag, image_a, image_b, witness, inf_value, att_text == "yes"
                    )
                )
            cases.append(CaseEvidence(case_id, a_range, b_range, tuple(branches)))
        return ContinuityCert(
            topology="ac1",
            side=side,
            translator=translator,
            target=target,
            chosen=chosen,
            evidence=tuple(cases),
            effective=effective,
        )
    if kind == "ac2":
        n_target = _parse_count(cur.take("target-tops"), "target-tops")
        target_tops = tuple(
            _parse_elem(cur.take("top"), "target top") for _ in range(n_target)
        )
        n_chosen = _parse_count(cur.take("chosen-tops"), "chosen-tops")
        chosen_tops = tuple(
            _parse_elem(cur.take("top"), "chosen top") for _ in range(n_chosen)
        )
        try:
            target = NbhdAc2(target_tops)
            chosen = NbhdAc2(chosen_tops)
        except ValueError as exc:
            raise MalformedCert(str(exc)) from exc
        n_ev = _parse_count(cur.take("evidence"), "evidence")
        records: List[TopEvidence] = []
        for _ in range(n_ev):
            t_top = _parse_elem(cur.take("target-top"), "evidence target top")
            line = cur.next()
            if line == "preimage empty":
                preimage_top = None
            elif line.startswith("preimage-top "):
                preimage_top = _parse_elem(line[len("preimage-top ") :], "preimage top")
            else:
                raise MalformedCert(f"bad preimage line {line!r}")
            offset = _parse_frac(cur.take("offset"), "offset")
            line = cur.next()
            if line == "covering none":
                covering = None
            elif line.startswith("covering-top "):
                covering = _parse_elem(line[len("covering-top ") :], "covering top")
            else:
                raise MalformedCert(f"bad covering line {line!r}")
            if cur.next() != "end-evidence":
                raise MalformedCert("missing end-evidence")
            records.append(TopEvidence(t_top, preimage_top, offset, covering))
        if cur.next() != "end-cert":
            raise MalformedCert("missing end-cert")
        return ContinuityCert(
            topology="ac2",
            side=side,
            translator=translator,
            target=target,
            chosen=chosen,
            evidence=tuple(records),
        )
    raise MalformedCert(f"unknown certificate kind {kind!r}")


def write_cert(cert: ContinuityCert, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(cert_to_text(cert))


def read_cert(path: str) -> ContinuityCert:
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise MalformedCert(f"not ASCII text: {exc}") from exc
    return cert_from_text(text)
