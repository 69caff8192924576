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
converts (``sys.get_int_max_str_digits()``, 4300 by default).  ``read_cert``
reads its file in text mode, so a file with CRLF line ends reads as the LF
text and validates; ``cert_from_text`` of a string with CRLF line ends is
malformed.

Each record is one spec, which ``_record`` turns into both the writer's
template and the reader's pattern at import; the final ``end-cert`` is a
record too.  ``cert_to_text`` writes each record with one format call over
the integers of its values (``Elem._q`` and ``certificates._ratio``).
``cert_from_text`` matches each record whole, LF included, with its pattern
at its offset, in one method of the reader.  Any rational slot but an
element's captures its token ``num/den`` as one group, and the reader, a
cache for one text keyed by the token, turns each distinct token into a
Fraction once, through the ``semigroup._fraction`` memo; the token is in
lowest terms exactly when that Fraction keeps its denominator, and a
repeated token costs one dict lookup.  An element slot captures its two
coordinates as four groups, numerators and denominators.  A valid element
is read as four ints, checked in lowest terms by one gcd per coordinate and
handed to ``Elem`` without building a Fraction; a faulty one is read again
as two tokens through the cache, which names a token's fault.  What a
pattern cannot check is checked on those values: lowest terms, non-negative
coordinates, positive thresholds and non-empty top lists.  A
``MalformedCert`` names the line where the offending record starts and the
record that was expected there.  The records are then built by the trusted
constructors of ``certificates`` and ``topology`` (see ``semigroup``), which
repeat none of these checks.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from fractions import Fraction
from math import gcd

from .semigroup import Elem, TooLarge, _check_field, _elem as _trusted_elem, _fraction
from .order_geometry import Side
from .topology import NbhdAc1, NbhdAc2, _ac1, _ac2
from .certificates import (
    ContinuityCert,
    Interval,
    MalformedCert,
    _CASE_ID,
    _branch,
    _case,
    _cert,
    _interval,
    _ratio,
    _top_evidence,
)

_HEADER, _END_CASE, _END_CERT = "realbicyclic-cert 1", "end-case", "end-cert"
# A rational token: one captured group, the whole token, read through the
# reader's token cache.  An element: its two coordinate tokens as four
# captured groups, numerators and denominators, read as ints; a fault is
# named by reading the two tokens through the cache.
_Q = r"((?:-?[1-9][0-9]*|0)/[1-9][0-9]*)"
_COORD = r"(-?[1-9][0-9]*|0)/([1-9][0-9]*)"
_E = f"{_COORD} {_COORD}"
_IV = rf"([(\[]){_Q} (?:{_Q}([)\]])|inf\))"
_SLOT = re.compile(r"\{(\w+)\}")
_WRITTEN = {"q": "{}/{}", "e": "{}/{} {}/{}"}


def _template(spec: str) -> Callable[..., str]:
    """The writer's template of the record ``spec``: a rational ``{q}`` is
    written ``{}/{}`` and an element ``{e}`` ``{}/{} {}/{}`` from their
    integers, any other slot as given."""
    return _SLOT.sub(lambda m: _WRITTEN.get(m[1], "{}"), spec).format


def _record(spec: str, end: str = "", **words: str) -> tuple[Callable[..., str], re.Pattern[str]]:
    """The writer's template and the reader's pattern of the record ``spec``:
    its lines, literal words but for slots.  The pattern reads a rational
    ``{q}`` as ``_Q``, one group holding the token, an element ``{e}`` as
    ``_E``, four groups holding its integers, an interval ``{iv}`` (written
    from ``_iv``) as ``_IV``, and any other ``{word}`` as one group over its
    alternatives in ``words``, which may hold ``{q}`` and ``{e}`` slots.  It
    matches the whole record, LF included, or the line ``end`` instead."""

    def slot(m: re.Match[str]) -> str:
        return {"q": _Q, "e": _E, "iv": _IV}.get(m[1]) or "(" + _SLOT.sub(slot, words[m[1]]) + ")"

    body = _SLOT.sub(slot, spec) + "\n"
    return _template(spec), re.compile(f"{end}\n|{body}" if end else body)


# One spec per record; an end line read in a record's place leaves its groups None.
_HEADER_TEXT, _HEADER_BLOCK = _record(
    _HEADER + "\nkind {kind}\nside {side}\ntranslator {e}", kind="ac1|ac2", side="left|right"
)
_THRESHOLDS_TEXT, _THRESHOLDS = _record("target-n {q}\neffective-n {q}\nchosen-n {q}")
_CASE_TEXT, _CASE_HEAD = _record(
    "case {id}\na-range {iv}\nb-range {iv}", _END_CERT, id=_CASE_ID.pattern
)
_BRANCH_TEXT, _BRANCH = _record(
    "branch {tag}\nimage-a {q} {q} {q}\nimage-b {q} {q} {q}\nwitness {w}\ninf {q}\nattained {att}",
    _END_CASE, tag="lt|eq|gt", w="a|b", att="yes|no",
)
_COUNT_LINES = {
    key: _record(key + " {n}", n="0|[1-9][0-9]*")
    for key in ("target-tops", "chosen-tops", "evidence")
}
_TOP_TEXT, _TOP = _record("top {e}")
_PREIMAGE = ("preimage empty", "preimage-top {e}")
_COVERING = ("covering none", "covering-top {e}")
_EVIDENCE_SPEC = "target-top {e}\n{pre}\noffset {q}\n{cover}\nend-evidence"
_, _EVIDENCE = _record(_EVIDENCE_SPEC, pre="|".join(_PREIMAGE), cover="|".join(_COVERING))
_EVIDENCE_TEXT = {  # by whether its optional lines, preimage and covering top, are present
    (pre, cover): _template(_EVIDENCE_SPEC.format(q="{q}", e="{e}", pre=p, cover=c))
    for pre, p in enumerate(_PREIMAGE)
    for cover, c in enumerate(_COVERING)
}
_, _END = _record(_END_CERT)
_SIDES = {side.value: side for side in Side}


def _iv(iv: Interval) -> str:
    lo_br = "(" if iv.lo_strict else "["
    if iv.hi is None:
        return "{}{}/{} inf)".format(lo_br, *_ratio(iv.lo))
    hi_br = ")" if iv.hi_strict else "]"
    lo, hi = _ratio(iv.lo), _ratio(iv.hi)
    return "{}{}/{} {}/{}{}".format(lo_br, *lo, *hi, hi_br)


def cert_to_text(cert: ContinuityCert) -> str:
    """The canonical text of ``cert``.  The records checked their fields
    when they were built, so every certificate has a text; the validators
    judge its content.  Raises ``TooLarge`` for a number with more digits
    than the interpreter converts, and ``TypeError`` for a ``cert`` that is
    not a certificate."""
    _check_field("cert", cert, ContinuityCert)
    try:
        return "\n".join(_lines(cert)) + "\n"
    except ValueError:  # int to str past the digit limit
        raise TooLarge() from None


def _lines(cert: ContinuityCert) -> list[str]:
    lines = [_HEADER_TEXT(cert.topology, cert.side._value_, *cert.translator._q)]
    if cert.topology == "ac1":
        lines.append(
            _THRESHOLDS_TEXT(
                *_ratio(cert.target.n),
                *_ratio(cert.effective.n),
                *_ratio(cert.chosen.n),
            )
        )
        for case in cert.evidence:
            lines.append(_CASE_TEXT(case.case_id, _iv(case.a_range), _iv(case.b_range)))
            for br in case.branches:
                (a0, a1, a2), (b0, b1, b2) = br.image_a, br.image_b
                lines.append(
                    _BRANCH_TEXT(
                        br.branch,
                        *_ratio(a0),
                        *_ratio(a1),
                        *_ratio(a2),
                        *_ratio(b0),
                        *_ratio(b1),
                        *_ratio(b2),
                        br.witness,
                        *_ratio(br.inf_value),
                        "yes" if br.inf_attained else "no",
                    )
                )
            lines.append(_END_CASE)
    else:
        for key, nbhd in (("target-tops", cert.target), ("chosen-tops", cert.chosen)):
            lines.append(_COUNT_LINES[key][0](len(nbhd.tops)))
            lines += [_TOP_TEXT(*top._q) for top in nbhd.tops]
        lines.append(_COUNT_LINES["evidence"][0](len(cert.evidence)))
        for ev in cert.evidence:
            pre, cover = ev.preimage_top, ev.covering_top
            lines.append(
                _EVIDENCE_TEXT[pre is not None, cover is not None](
                    *ev.target_top._q,
                    *(() if pre is None else pre._q),
                    *_ratio(ev.offset),
                    *(() if cover is None else cover._q),
                )
            )
    lines.append(_END_CERT)
    return lines


class _Reader(dict):
    """One pass over a certificate text, one match per record, in ``record``.

    The reader is also the token cache of one ``cert_from_text`` call:
    ``r[token]`` is the rational of the token ``num/den``, parsed and checked
    on its first lookup, so a token repeated in the text is parsed once; it
    is the one check of a token's faults, an element's coordinates too."""

    __slots__ = ("text", "pos", "mark")

    def __init__(self, text: str) -> None:
        _check_field("text", text, str)
        if not text.endswith("\n"):
            raise MalformedCert("certificate must end with a newline")
        self.text = text
        self.pos = self.mark = 0

    def error(self, problem: str, pos: int | None = None) -> MalformedCert:
        """``problem`` at the line holding ``pos``, by default the first line
        of the record being read."""
        line = self.text.count("\n", 0, self.mark if pos is None else pos) + 1
        return MalformedCert(f"line {line}: {problem}")

    def record(self, pattern: re.Pattern[str], what: str) -> tuple[str | None, ...]:
        """The groups of the record ``what``, which must come next."""
        self.mark = self.pos
        m = pattern.match(self.text, self.pos)
        if m is None:
            raise self.error(f"expected {what}")
        self.pos = m.end()
        return m.groups()

    def too_long(self) -> MalformedCert:
        """The error for a number ``int()`` refused.  The patterns admit
        digits only, so the one refusal is the interpreter's limit on the
        digits of an integer string, which exists wherever ``int()`` can
        refuse; the limit is read, never set, for it is process-global."""
        return self.error(str(TooLarge()))

    def __missing__(self, token: str) -> Fraction:
        """The rational ``token`` through the ``semigroup._fraction`` memo,
        in lowest terms exactly when its denominator is the token's: one gcd
        at most, none when the memo holds it."""
        num, _, den = token.partition("/")
        try:
            d = int(den)
            f = _fraction(int(num), d)
        except ValueError as exc:
            raise self.too_long() from exc
        if f.denominator != d:
            raise self.error(f"{token!r} is not in lowest terms")
        self[token] = f
        return f

    def elem(self, an: str, ad: str, bn: str, bd: str) -> Elem:
        """The element of the four groups of an ``{e}`` slot: four ints, one
        gcd per coordinate and the signs.  On a fault, the token cache reports
        the first coordinate's before the second's, and both come before the
        signs."""
        try:
            q = int(an), int(ad), int(bn), int(bd)
            if gcd(q[0], q[1]) == 1 == gcd(q[2], q[3]) and q[0] >= 0 and q[2] >= 0:
                return _trusted_elem(*q)
        except ValueError:
            pass
        raise self.error(f"negative coordinate: ({self[an + '/' + ad]}, {self[bn + '/' + bd]})")

    def count(self, key: str) -> int:
        (value,) = self.record(_COUNT_LINES[key][1], f"the count line {key!r}")
        try:
            return int(value)
        except ValueError as exc:
            raise self.too_long() from exc

    def segments(self, key: str) -> NbhdAc2:
        """The neighbourhood of the count line ``key`` and its top lines."""
        tops = tuple([self.elem(*self.record(_TOP, "a top line")) for _ in range(self.count(key))])
        if not tops:  # reported at the count line, in the constructor's words
            try:
                NbhdAc2(tops)
            except ValueError as exc:
                raise self.error(f"{key}: {exc}") from exc
        return _ac2(tops)


def cert_from_text(text: str) -> ContinuityCert:
    """The certificate of the canonical ``text``.  Raises ``MalformedCert``
    for any other text and ``TypeError`` for a ``text`` that is not a str."""
    r = _Reader(text)
    kind, side, *translator = r.record(
        _HEADER_BLOCK, f"the header block ({_HEADER!r}, kind, side, translator)"
    )
    body = _ac1_body if kind == "ac1" else _ac2_body
    cert = body(r, _SIDES[side], r.elem(*translator))
    if r.pos != len(text):
        raise r.error("trailing content after end-cert", r.pos)
    return cert


def _ac1_body(r: _Reader, side: Side, translator: Elem) -> ContinuityCert:
    """The thresholds, then the case heads and their branch records."""
    keys = ("target-n", "effective-n", "chosen-n")
    thresholds = []
    for key, token in zip(keys, r.record(_THRESHOLDS, f"the three thresholds ({', '.join(keys)})")):
        n = r[token]
        if token[0] in "-0":  # not positive: reported in the constructor's words
            try:
                NbhdAc1(n)
            except ValueError as exc:
                raise r.error(f"{key}: {exc}") from exc
        thresholds.append(_ac1(n))
    cases = []
    while True:
        case_id, a_br, a_lo, a_hi, a_hbr, b_br, b_lo, b_hi, b_hbr = r.record(
            _CASE_HEAD, "a case head (case, a-range, b-range) or end-cert"
        )
        if case_id is None:  # end-cert
            break
        a_range = _interval(
            r[a_lo], a_br == "(", None if a_hi is None else r[a_hi], a_hi is None or a_hbr == ")"
        )
        b_range = _interval(
            r[b_lo], b_br == "(", None if b_hi is None else r[b_hi], b_hi is None or b_hbr == ")"
        )
        branches = []
        while True:
            tag, a0, a1, a2, b0, b1, b2, witness, inf, attained = r.record(
                _BRANCH,
                "a branch record (branch, image-a, image-b, witness, inf, attained) or end-case",
            )
            if tag is None:  # end-case
                break
            branches.append(
                _branch(
                    tag, (r[a0], r[a1], r[a2]), (r[b0], r[b1], r[b2]), witness, r[inf],
                    attained == "yes",
                )
            )
        cases.append(_case(case_id, a_range, b_range, tuple(branches)))
    target, effective, chosen = thresholds
    return _cert("ac1", side, translator, target, chosen, tuple(cases), effective)


def _ac2_body(r: _Reader, side: Side, translator: Elem) -> ContinuityCert:
    target = r.segments("target-tops")
    chosen = r.segments("chosen-tops")
    records = []
    for _ in range(r.count("evidence")):
        (
            ua, uad, ub, ubd, _, pa, pad, pb, pbd, off, _, ca, cad, cb, cbd,
        ) = r.record(
            _EVIDENCE, "an evidence record (target-top, preimage, offset, covering, end-evidence)"
        )
        preimage = None if pa is None else r.elem(pa, pad, pb, pbd)
        covering = None if ca is None else r.elem(ca, cad, cb, cbd)
        records.append(_top_evidence(r.elem(ua, uad, ub, ubd), preimage, r[off], covering))
    r.record(_END, _END_CERT)
    return _cert("ac2", side, translator, target, chosen, tuple(records))


def write_cert(cert: ContinuityCert, path: str) -> None:
    text = cert_to_text(cert)  # before opening: a failure leaves no file
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def read_cert(path: str) -> ContinuityCert:
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise MalformedCert(f"not ASCII text: {exc}") from exc
    return cert_from_text(text)
