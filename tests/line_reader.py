"""The line reader that ``certio.cert_from_text`` replaced, kept as the
differential reference for the record reader: it reads the text line by line,
splits each line into its key and tokens, and matches every token on its own.
Both readers must accept the same texts and build equal certificates."""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from realbicyclic.semigroup import Elem, _elem as _trusted_elem
from realbicyclic.order_geometry import Side
from realbicyclic.topology import NbhdAc1, NbhdAc2
from realbicyclic.certificates import (
    BranchEvidence,
    CaseEvidence,
    ContinuityCert,
    Interval,
    MalformedCert,
    TopEvidence,
)

_HEADER = "realbicyclic-cert 1"
_RATIONAL = re.compile(r"(?:-?[1-9][0-9]*|0)/[1-9][0-9]*")
_COUNT = re.compile(r"0|[1-9][0-9]*")
_WORD = re.compile(r"[a-z]+(?:-[a-z]+)*")


class _Reader:
    """One pass over the lines of a certificate text.  Parsed rationals are
    kept per token for the length of one ``cert_from_text`` call."""

    def __init__(self, text: str) -> None:
        if not text.endswith("\n"):
            raise MalformedCert("certificate must end with a newline")
        self.lines = text[:-1].split("\n")
        self.pos = 0
        self.fracs: Dict[str, Fraction] = {}

    def line(self) -> str:
        if self.pos == len(self.lines):
            raise MalformedCert("unexpected end of certificate")
        self.pos += 1
        return self.lines[self.pos - 1]

    def field(self, key: str, line: Optional[str] = None) -> str:
        """The value of the line ``key value`` (the next line by default)."""
        if line is None:
            line = self.line()
        head, sep, value = line.partition(" ")
        if head != key or not sep:
            raise MalformedCert(f"line {self.pos}: expected {key!r}, got {line!r}")
        return value

    def frac(self, token: str, where: str) -> Fraction:
        f = self.fracs.get(token)
        if f is None:
            if _RATIONAL.fullmatch(token) is None:
                raise MalformedCert(f"{where}: expected a num/den rational, got {token!r}")
            num, den = token.split("/")
            d = int(den)
            f = Fraction(int(num), d)
            if f.denominator != d:
                raise MalformedCert(f"{where}: {token!r} is not in lowest terms")
            self.fracs[token] = f
        return f

    def fracs_of(self, key: str, size: int) -> List[Fraction]:
        tokens = self.field(key).split(" ")
        if len(tokens) != size:
            raise MalformedCert(f"{key}: expected {size} tokens, got {len(tokens)}")
        return [self.frac(tok, key) for tok in tokens]

    def count(self, key: str) -> int:
        text = self.field(key)
        if _COUNT.fullmatch(text) is None:
            raise MalformedCert(f"{key}: bad count {text!r}")
        return int(text)

    def threshold(self, key: str) -> NbhdAc1:
        (n,) = self.fracs_of(key, 1)
        try:
            return NbhdAc1(n)
        except ValueError as exc:
            raise MalformedCert(f"{key}: {exc}") from exc

    def elem(self, key: str, where: str, line: Optional[str] = None) -> Elem:
        tokens = self.field(key, line).split(" ")
        if len(tokens) != 2:
            raise MalformedCert(f"{where}: expected two rationals, got {len(tokens)}")
        a, b = self.frac(tokens[0], where), self.frac(tokens[1], where)
        if tokens[0][0] == "-" or tokens[1][0] == "-":
            raise MalformedCert(f"{where}: negative coordinate: ({a}, {b})")
        return _trusted_elem(a.numerator, a.denominator, b.numerator, b.denominator)

    def interval(self, key: str) -> Interval:
        text = self.field(key)
        lo, sep, hi = text[1:-1].partition(" ")
        if len(text) < 2 or text[0] not in "([" or text[-1] not in ")]" or not sep:
            raise MalformedCert(f"{key}: bad interval {text!r}")
        lo_strict, hi_strict = text[0] == "(", text[-1] == ")"
        if hi == "inf":
            if not hi_strict:
                raise MalformedCert(f"{key}: unbounded interval must be open above")
            return Interval(self.frac(lo, key), lo_strict, None, True)
        return Interval(self.frac(lo, key), lo_strict, self.frac(hi, key), hi_strict)

    def choice(self, key: str, allowed: Tuple[str, ...], what: str) -> str:
        value = self.field(key)
        if value not in allowed:
            raise MalformedCert(f"unknown {what} {value!r}")
        return value


def line_cert_from_text(text: str) -> ContinuityCert:
    r = _Reader(text)
    if r.line() != _HEADER:
        raise MalformedCert("missing certificate header")
    kind = r.field("kind")
    side = Side(r.choice("side", ("left", "right"), "side"))
    translator = r.elem("translator", "translator")
    if kind == "ac1":
        cert = _ac1_body(r, side, translator)
    elif kind == "ac2":
        cert = _ac2_body(r, side, translator)
    else:
        raise MalformedCert(f"unknown certificate kind {kind!r}")
    if r.pos != len(r.lines):
        raise MalformedCert("trailing content after end-cert")
    return cert


def _ac1_body(r: _Reader, side: Side, translator: Elem) -> ContinuityCert:
    target = r.threshold("target-n")
    effective = r.threshold("effective-n")
    chosen = r.threshold("chosen-n")
    cases: List[CaseEvidence] = []
    line = r.line()
    while line != "end-cert":
        case_id = r.field("case", line)
        if _WORD.fullmatch(case_id) is None:
            raise MalformedCert(f"bad case id {case_id!r}")
        a_range = r.interval("a-range")
        b_range = r.interval("b-range")
        branches: List[BranchEvidence] = []
        line = r.line()
        while line != "end-case":
            tag = r.field("branch", line)
            if tag not in ("lt", "eq", "gt"):
                raise MalformedCert(f"unknown branch tag {tag!r}")
            image_a = tuple(r.fracs_of("image-a", 3))
            image_b = tuple(r.fracs_of("image-b", 3))
            witness = r.choice("witness", ("a", "b"), "witness coordinate")
            (inf_value,) = r.fracs_of("inf", 1)
            attained = r.choice("attained", ("yes", "no"), "attained flag") == "yes"
            branches.append(BranchEvidence(tag, image_a, image_b, witness, inf_value, attained))
            line = r.line()
        cases.append(CaseEvidence(case_id, a_range, b_range, tuple(branches)))
        line = r.line()
    return ContinuityCert(
        topology="ac1",
        side=side,
        translator=translator,
        target=target,
        chosen=chosen,
        evidence=tuple(cases),
        effective=effective,
    )


def _ac2_body(r: _Reader, side: Side, translator: Elem) -> ContinuityCert:
    target_tops = tuple(r.elem("top", "target top") for _ in range(r.count("target-tops")))
    chosen_tops = tuple(r.elem("top", "chosen top") for _ in range(r.count("chosen-tops")))
    try:
        target = NbhdAc2(target_tops)
        chosen = NbhdAc2(chosen_tops)
    except ValueError as exc:
        raise MalformedCert(str(exc)) from exc
    records: List[TopEvidence] = []
    for _ in range(r.count("evidence")):
        t_top = r.elem("target-top", "evidence target top")
        line = r.line()
        preimage_top = (
            None if line == "preimage empty" else r.elem("preimage-top", "preimage top", line)
        )
        (offset,) = r.fracs_of("offset", 1)
        line = r.line()
        covering = None if line == "covering none" else r.elem("covering-top", "covering top", line)
        if r.line() != "end-evidence":
            raise MalformedCert("missing end-evidence")
        records.append(TopEvidence(t_top, preimage_top, offset, covering))
    if r.line() != "end-cert":
        raise MalformedCert("missing end-cert")
    return ContinuityCert(
        topology="ac2",
        side=side,
        translator=translator,
        target=target,
        chosen=chosen,
        evidence=tuple(records),
    )

