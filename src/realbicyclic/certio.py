"""Stable text serialization for continuity certificates.

Line oriented, fixed field order, every rational written ``num/den`` with the
denominator explicit.  The format is canonical in both directions:
``cert_to_text`` emits one text per certificate, byte identical every time,
and ``cert_from_text`` accepts exactly the texts it emits, so
``cert_to_text(cert_from_text(text)) == text`` whenever the parse succeeds.
Tokens are separated by single spaces and every line, the last included,
ends in one LF:

    rational := "-"? natural "/" positive    in lowest terms, never "-0/1"
    natural  := "0" | positive
    positive := [1-9] [0-9]*                 ASCII digits
    count    := natural
    elem     := rational " " rational        both non-negative
    interval := ("(" | "[") rational " " (rational (")" | "]") | "inf)")
    case-id  := [a-z]+ ("-" [a-z]+)*

Blank lines, tabs, carriage returns and leading, trailing or doubled spaces
are malformed, and so is a number with more digits than the interpreter
converts (``sys.get_int_max_str_digits()``, 4300 by default).  ``read_cert`` reads its file in text mode, so a file with
CRLF line ends reads as the LF text and validates; ``cert_from_text`` of a
string with CRLF line ends is malformed.

``cert_from_text`` reads the text as a sequence of records, each matched
whole, LF included, by one compiled pattern at its offset: the header block
(header, kind, side, translator), the three thresholds, a case head with both
ranges, a six-line branch record, a count line, a top line, and a five-line
evidence record, with ``end-case`` and ``end-cert`` between them.  What a
pattern cannot check is checked on the captured tokens: lowest terms,
non-negative coordinates, positive thresholds and non-empty top lists.  A
``MalformedCert`` names the line where the offending record starts and the
record that was expected there.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from .semigroup import Elem, _elem as _trusted_elem
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


def _elem(e: Elem) -> str:
    return "{}/{} {}/{}".format(*e._q)


def _iv(iv: Interval) -> str:
    lo_br = "(" if iv.lo_strict else "["
    if iv.hi is None:
        return f"{lo_br}{_frac(iv.lo)} inf)"
    hi_br = ")" if iv.hi_strict else "]"
    return f"{lo_br}{_frac(iv.lo)} {_frac(iv.hi)}{hi_br}"


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


# One rational token, captured; its sign is checked where it must be >= 0.
_Q = r"((?:-?[1-9][0-9]*|0)/[1-9][0-9]*)"
_IV = rf"([(\[]){_Q} (?:{_Q}([)\]])|inf\))"
_HEADER_BLOCK = re.compile(rf"{_HEADER}\nkind (ac1|ac2)\nside (left|right)\ntranslator {_Q} {_Q}\n")
_THRESHOLDS = re.compile(rf"target-n {_Q}\neffective-n {_Q}\nchosen-n {_Q}\n")
_CASE_HEAD = re.compile(rf"case ([a-z]+(?:-[a-z]+)*)\na-range {_IV}\nb-range {_IV}\n")
_BRANCH = re.compile(
    rf"branch (lt|eq|gt)\nimage-a {_Q} {_Q} {_Q}\nimage-b {_Q} {_Q} {_Q}\n"
    rf"witness (a|b)\ninf {_Q}\nattained (yes|no)\n"
)
_COUNT_LINE = re.compile(r"([a-z]+(?:-[a-z]+)*) (0|[1-9][0-9]*)\n")
_TOP = re.compile(rf"top {_Q} {_Q}\n")
_EVIDENCE = re.compile(
    rf"target-top {_Q} {_Q}\n(?:preimage empty|preimage-top {_Q} {_Q})\n"
    rf"offset {_Q}\n(?:covering none|covering-top {_Q} {_Q})\nend-evidence\n"
)


class _Reader(dict):
    """One pass over a certificate text, one pattern match per record.

    The reader is also the token cache of one ``cert_from_text`` call:
    ``r[token]`` is the token's rational, parsed and checked on its first
    lookup, so a token repeated in the text is parsed once."""

    __slots__ = ("text", "pos", "mark")

    def __init__(self, text: str) -> None:
        if not text.endswith("\n"):
            raise MalformedCert("certificate must end with a newline")
        self.text = text
        self.pos = self.mark = 0

    def error(self, problem: str, pos: Optional[int] = None) -> MalformedCert:
        """``problem`` at the line holding ``pos``, by default the first line
        of the record being read."""
        line = self.text.count("\n", 0, self.mark if pos is None else pos) + 1
        return MalformedCert(f"line {line}: {problem}")

    def record(self, pattern: re.Pattern[str], what: str) -> Tuple[Optional[str], ...]:
        """The groups of the record ``what``, which must come next."""
        self.mark = self.pos
        m = pattern.match(self.text, self.pos)
        if m is None:
            raise self.error(f"expected {what}")
        self.pos = m.end()
        return m.groups()

    def at(self, line: str) -> bool:
        """Read past ``line`` (with its LF) if it comes next."""
        if self.text.startswith(line, self.pos):
            self.pos += len(line)
            return True
        return False

    def too_long(self) -> MalformedCert:
        """The error for a number ``int()`` refused.  The patterns admit
        digits only, so the one refusal is the interpreter's limit on the
        digits of an integer string, which exists wherever ``int()`` can
        refuse; the limit is read, never set, for it is process-global."""
        return self.error(f"a number has more than {sys.get_int_max_str_digits()} digits")

    def __missing__(self, token: str) -> Fraction:
        num, _, den = token.partition("/")
        try:
            d = int(den)
            f = Fraction(int(num), d)
        except ValueError as exc:
            raise self.too_long() from exc
        if f.denominator != d:
            raise self.error(f"{token!r} is not in lowest terms")
        self[token] = f
        return f

    def elem(self, a: str, b: str) -> Elem:
        fa, fb = self[a], self[b]
        if a[0] == "-" or b[0] == "-":
            raise self.error(f"negative coordinate: ({fa}, {fb})")
        return _trusted_elem(fa.numerator, fa.denominator, fb.numerator, fb.denominator)

    def interval(self, lo_br: str, lo: str, hi: Optional[str], hi_br: Optional[str]) -> Interval:
        if hi is None:
            return Interval(self[lo], lo_br == "(", None, True)
        return Interval(self[lo], lo_br == "(", self[hi], hi_br == ")")

    def count(self, key: str) -> int:
        name, value = self.record(_COUNT_LINE, f"the count line {key!r}")
        if name != key:
            raise self.error(f"expected the count line {key!r}")
        try:
            return int(value)
        except ValueError as exc:
            raise self.too_long() from exc

    def segments(self, key: str) -> NbhdAc2:
        """The neighbourhood of the count line ``key`` and its top lines."""
        tops = [self.elem(*self.record(_TOP, "a top line")) for _ in range(self.count(key))]
        try:
            return NbhdAc2(tuple(tops))
        except ValueError as exc:  # no tops: reported at the count line
            raise self.error(f"{key}: {exc}") from exc


def cert_from_text(text: str) -> ContinuityCert:
    r = _Reader(text)
    kind, side, ta, tb = r.record(
        _HEADER_BLOCK, f"the header block ({_HEADER!r}, kind, side, translator)"
    )
    translator = r.elem(ta, tb)
    body = _ac1_body if kind == "ac1" else _ac2_body
    cert = body(r, Side(side), translator)
    if r.pos != len(text):
        raise r.error("trailing content after end-cert", r.pos)
    return cert


def _ac1_body(r: _Reader, side: Side, translator: Elem) -> ContinuityCert:
    keys = ("target-n", "effective-n", "chosen-n")
    tokens = r.record(_THRESHOLDS, f"the three thresholds ({', '.join(keys)})")
    thresholds = []
    for key, token in zip(keys, tokens):
        n = r[token]
        try:
            thresholds.append(NbhdAc1(n))
        except ValueError as exc:
            raise r.error(f"{key}: {exc}") from exc
    cases: List[CaseEvidence] = []
    while not r.at("end-cert\n"):
        head = r.record(_CASE_HEAD, "a case head (case, a-range, b-range) or end-cert")
        a_range, b_range = r.interval(*head[1:5]), r.interval(*head[5:9])
        branches: List[BranchEvidence] = []
        while not r.at("end-case\n"):
            tag, a0, a1, a2, b0, b1, b2, witness, inf, attained = r.record(
                _BRANCH,
                "a branch record (branch, image-a, image-b, witness, inf, attained) or end-case",
            )
            image_a, image_b = (r[a0], r[a1], r[a2]), (r[b0], r[b1], r[b2])
            branches.append(
                BranchEvidence(tag, image_a, image_b, witness, r[inf], attained == "yes")
            )
        cases.append(CaseEvidence(head[0], a_range, b_range, tuple(branches)))
    target, effective, chosen = thresholds
    return ContinuityCert("ac1", side, translator, target, chosen, tuple(cases), effective)


def _ac2_body(r: _Reader, side: Side, translator: Elem) -> ContinuityCert:
    target = r.segments("target-tops")
    chosen = r.segments("chosen-tops")
    records: List[TopEvidence] = []
    for _ in range(r.count("evidence")):
        ua, ub, pa, pb, offset, ca, cb = r.record(
            _EVIDENCE, "an evidence record (target-top, preimage, offset, covering, end-evidence)"
        )
        preimage = None if pa is None else r.elem(pa, pb)
        covering = None if ca is None else r.elem(ca, cb)
        records.append(TopEvidence(r.elem(ua, ub), preimage, r[offset], covering))
    if not r.at("end-cert\n"):
        raise r.error("expected end-cert", r.pos)
    return ContinuityCert("ac2", side, translator, target, chosen, tuple(records))


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
