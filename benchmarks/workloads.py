"""The three benchmark workloads and the correctness gate that checks them.

Each workload is a closed loop with one client: a fixed list of items, made
from the seed at set-up, is run in order as one round, and rounds repeat until
the run's time is up.  Every item returns its outputs; the gate then checks
them against routes that share no code with the library (a three-way
case-split product, the bicyclic word product, membership written out from
the definitions) and against the first round's outputs, so a seeded stream
that changes within a run counts as a failure.

* ``algebra`` mirrors acceptance criteria 1, 2, 3, 4, 5 and 8 by direct calls
  plus two suite runs.  Its time goes to ``semigroup`` and ``generate``.
* ``certs`` mirrors criteria 6 and 7: generate, emit, parse, validate and
  falsify one certificate per item; one item in eight is a tampered twin that
  must be rejected and falsified.  Its time goes to ``certificates`` and
  ``certio``.
* ``cli`` runs the README's commands and seeded ones through ``cli.main``
  in this process.  It is the only workload that reaches ``cli`` and
  ``exprparse``.

Library calls go through an ``api`` namespace: the bare functions for an
untraced round, span-recording wrappers for a traced one.
"""

from __future__ import annotations

import hashlib
import io
import random
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, List, NamedTuple, Optional, Tuple

F0 = Fraction(0)
Pair = Tuple[Fraction, Fraction]


class Item(NamedTuple):
    run: Callable  # run(ctx, arg) -> output
    check: Callable  # check(arg, output) -> bool, the independent gate
    canon: Callable  # canon(output) -> str, compared across rounds and digested
    arg: object
    weight: int  # checked cases the item stands for
    sampled: bool  # whether its latency enters item_p50_ms / item_p90_ms


def sub_seed(seed: int, salt: int) -> int:
    return (seed * 1000003 + salt * 97 + 11) % 2**63


# ---------------------------------------------------------------------------
# independent routes used by the gate
# ---------------------------------------------------------------------------


def pair(e) -> Pair:
    return (e.a, e.b)


def swap(p: Optional[Pair]) -> Optional[Pair]:
    return None if p is None else (p[1], p[0])


def bt_mul(p: Pair, q: Pair) -> Pair:
    """The product by its three-way case split on the middle coordinates."""
    a, b = p
    c, d = q
    if b < c:
        return (a + c - b, d)
    if b == c:
        return (a, d)
    return (a, b + d - c)


def word_mul(p: Pair, q: Pair) -> Pair:
    """Integer pairs (k, l) as generator words q^k p^l, multiplied literally:
    the word is concatenated and every ``p`` followed by ``q`` cancels."""
    stack: List[str] = []
    for g in "q" * int(p[0]) + "p" * int(p[1]) + "q" * int(q[0]) + "p" * int(q[1]):
        if g == "q" and stack and stack[-1] == "p":
            stack.pop()
        else:
            stack.append(g)
    return (Fraction(stack.count("q")), Fraction(stack.count("p")))


def below(p: Pair, q: Pair) -> bool:
    """Natural order: p lies below q on q's diagonal."""
    return p[0] >= q[0] and p[0] - p[1] == q[0] - q[1]


def in_threshold(n: Fraction, p: Optional[Pair]) -> bool:
    """Threshold zero neighbourhood; None is the adjoined zero."""
    return p is None or p[0] > n or p[1] > n


def in_segment_complement(tops: List[Pair], p: Optional[Pair]) -> bool:
    """Complement of the up-segments of ``tops``; None is the adjoined zero."""
    return p is None or not any(below(t, p) for t in tops)


def fmt(x) -> str:
    """Canonical text of an output value, independent of library reprs."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(fmt(y) for y in x) + ")"
    if hasattr(x, "a") and hasattr(x, "b"):
        return f"<{fmt(x.a)},{fmt(x.b)}>"
    return str(x)


def fmt_elem(p: Pair) -> str:
    """An element as the command line writes it: ``(3,3/2)``."""
    return "(" + ",".join(
        str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        for v in p
    ) + ")"


def suite_body(report) -> str:
    return "\n".join(
        ln for ln in report.render().splitlines() if not ln.startswith("elapsed")
    )


def digest(canons: List[str]) -> str:
    h = hashlib.sha256()
    for c in canons:
        h.update(c.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# library calls, bare or traced
# ---------------------------------------------------------------------------


def member(obj, e) -> bool:
    """Membership in a set object; None stands for the empty set."""
    return obj is not None and obj.member(e)


def make_api(lib, tracer=None) -> SimpleNamespace:
    if tracer is None:

        def w(name, fn, work=None):
            return fn

    else:
        w = tracer.wrap
    S, O, T = lib.semigroup, lib.order_geometry, lib.topology
    C, IO = lib.certificates, lib.certio
    return SimpleNamespace(
        tracer=tracer,
        Elem=w("semigroup.Elem", S.Elem),
        LineRef=w("semigroup.LineRef", S.LineRef),
        mul=w("semigroup.mul", S.mul),
        inv=w("semigroup.inv", S.inv),
        inv_ext=w("semigroup.inv_ext", S.inv_ext),
        natural_leq=w("semigroup.natural_leq", S.natural_leq),
        line_point=w("semigroup.line_point", S.line_point),
        draw=lambda stream: w("generate.gen_elem", stream.__next__),
        up_set=w("order_geometry.up_set", O.up_set),
        line_product=w("order_geometry.line_product", O.line_product),
        preimage_up_segment=w("order_geometry.preimage_up_segment", O.preimage_up_segment),
        shrink_witness=w("order_geometry.shrink_witness", O.shrink_witness),
        shrink_witness_dual=w("order_geometry.shrink_witness_dual", O.shrink_witness_dual),
        region_member=w("order_geometry.member", member),
        nbhd_member=w("topology.member", member),
        nbhd_invert=w("topology.nbhd_invert", T.nbhd_invert),
        run_suite=w("suites.run_suite", lib.suites.run_suite, lambda a, r: a[1].cases),
        cert_ac1=w("certificates.cert_ac1", C.continuity_cert_ac1),
        cert_ac2=w("certificates.cert_ac2", C.continuity_cert_ac2),
        validate_ac1=w("certificates.validate_ac1", C.validate_cert),
        validate_ac2=w("certificates.validate_ac2", C.validate_cert),
        # a falsify call that finds nothing has drawn its whole budget
        falsify=w("certificates.falsify", C.falsify, lambda a, r: a[4] if r is None else 0),
        cert_to_text=w("certio.cert_to_text", IO.cert_to_text),
        cert_from_text=w("certio.cert_from_text", IO.cert_from_text),
        parse_expr=w("exprparse.parse_expr", lib.exprparse.parse_expr),
        cli_main=w("cli.main", lib.cli.main),
    )


class Workload:
    name = ""

    items: List[Item]

    def begin_round(self, api) -> SimpleNamespace:
        return SimpleNamespace(**vars(api))

    def layer_counts(self, outputs) -> dict:
        return {}

    def close(self) -> None:
        pass


def _count(base: int, scale: float) -> int:
    return max(1, round(base * scale))


# ---------------------------------------------------------------------------
# algebra: criteria 1, 2, 3, 4, 5 and 8
# ---------------------------------------------------------------------------


class Algebra(Workload):
    """Per round: 300 axiom triples, 200 order pairs, 100 line products,
    20 shrink-witness pairs with 10 perturbations each, 200 neighbourhood
    samples, and one ``bicyclic`` and one ``products`` suite run."""

    name = "algebra"

    def __init__(self, lib, seed: int, scale: float = 1.0) -> None:
        S, G, T = lib.semigroup, lib.generate, lib.topology
        self.lib = lib
        rational = G.RationalMode
        self.cfg = {
            1: G.GenConfig(seed=sub_seed(seed, 1), scalar_mode=rational(30, 8)),
            3: G.GenConfig(seed=sub_seed(seed, 3), scalar_mode=rational(25, 8)),
            4: G.GenConfig(seed=sub_seed(seed, 4), scalar_mode=rational(20, 8)),
            5: G.GenConfig(seed=sub_seed(seed, 5), scalar_mode=rational(25, 8)),
            8: G.GenConfig(seed=sub_seed(seed, 8), scalar_mode=rational(20, 8)),
        }
        plus, minus = S.Sign.PLUS, S.Sign.MINUS
        self.line_kinds = ((plus, plus), (minus, minus), (plus, minus), (minus, plus))
        self.n1 = Fraction(9, 2)
        self.tops = ((Fraction(2), Fraction(3)), (Fraction(5), Fraction(1)), (Fraction(1, 2), Fraction(4)))
        self.nb1 = T.NbhdAc1(self.n1)
        self.nb2 = T.NbhdAc2(tuple(S.Elem(a, b) for a, b in self.tops))
        self.left = lib.order_geometry.Side.LEFT
        self.zero = S.ZERO
        bicyclic = G.GenConfig(
            seed=sub_seed(seed, 2), scalar_mode=G.IntegerMode(25), cases=_count(100, scale)
        )
        products = G.GenConfig(seed=sub_seed(seed, 6), cases=_count(50, scale))
        self.items = (
            [Item(self._axioms, self._check_axioms, fmt, i, 1, True) for i in range(_count(300, scale))]
            + [Item(self._order, self._check_order, fmt, i, 1, True) for i in range(_count(200, scale))]
            + [Item(self._lines, self._check_lines, fmt, i, 1, True) for i in range(_count(100, scale))]
            + [Item(self._witness, self._check_witness, fmt, i, 1, True) for i in range(_count(20, scale))]
            + [Item(self._nbhd, self._check_nbhd, fmt, i, 1, True) for i in range(_count(200, scale))]
            + [
                Item(self._suite, self._check_suite, suite_body, ("bicyclic", bicyclic), bicyclic.cases, False),
                Item(self._suite, self._check_suite, suite_body, ("products", products), products.cases, False),
            ]
        )

    def begin_round(self, api) -> SimpleNamespace:
        ctx = super().begin_round(api)
        gen_elem = self.lib.generate.gen_elem
        for k, cfg in self.cfg.items():
            setattr(ctx, f"draw{k}", api.draw(gen_elem(cfg)))
        ctx.inv_nb1 = api.nbhd_invert(self.nb1)
        ctx.inv_nb2 = api.nbhd_invert(self.nb2)
        return ctx

    # criterion 1: associativity and the inverse laws
    @staticmethod
    def _axioms(ctx, i):
        draw, mul = ctx.draw1, ctx.mul
        e1, e2, e3 = draw(), draw(), draw()
        i1 = ctx.inv(e1)
        left = mul(mul(e1, e2), e3)
        right = mul(e1, mul(e2, e3))
        x = mul(mul(e1, i1), e1)
        y = mul(mul(i1, e1), i1)
        return (e1, e2, e3, left, x, y, left == right and x == e1 and y == i1)

    @staticmethod
    def _check_axioms(i, out) -> bool:
        e1, e2, e3, left, x, y, verdict = out
        p1, p2, p3 = pair(e1), pair(e2), pair(e3)
        want = bt_mul(bt_mul(p1, p2), p3)
        ok = (
            verdict is True
            and pair(left) == want
            and bt_mul(p1, bt_mul(p2, p3)) == want
            and pair(x) == p1
            and pair(y) == swap(p1)
        )
        if ok and all(v.denominator == 1 for v in p1 + p2 + p3):
            ok = word_mul(word_mul(p1, p2), p3) == want
        return ok

    # criterion 3: the order characterisations agree
    @staticmethod
    def _order(ctx, i):
        draw, mul, inv = ctx.draw3, ctx.mul, ctx.inv
        t = draw()
        if i % 10 == 0:
            d = draw().a
            s = ctx.Elem(t.a + d, t.b + d)  # comparable by construction
        else:
            s = draw()
        by_left = s == mul(mul(s, inv(s)), t)
        by_right = s == mul(t, mul(inv(s), s))
        return (s, t, ctx.natural_leq(s, t), by_left, by_right)

    @staticmethod
    def _check_order(i, out) -> bool:
        s, t, r, by_left, by_right = out
        ps, pt = pair(s), pair(t)
        by_first = below(ps, pt)
        by_second = ps[1] >= pt[1] and ps[0] - ps[1] == pt[0] - pt[1]
        if i % 10 == 0 and not by_first:
            return False
        return r is by_first and by_second == by_first and by_left is r and by_right is r

    # criterion 4: a product of points of two lines lies in the lines' product
    def _lines(self, ctx, i):
        draw = ctx.draw4
        s1, s2 = self.line_kinds[i % 4]
        e = draw()
        l1, l2 = ctx.LineRef(s1, e.a), ctx.LineRef(s2, e.b)
        prod = ctx.line_product(l1, l2)
        x1, x2 = draw().a, draw().b
        p = ctx.mul(ctx.line_point(l1, x1), ctx.line_point(l2, x2))
        return (e, x1, x2, p, ctx.region_member(prod, p))

    @staticmethod
    def _check_lines(i, out) -> bool:
        e, x1, x2, p, inside = out
        a1, a2 = e.a, e.b
        plus1, plus2 = (i % 4) in (0, 2), (i % 4) in (0, 3)
        q1 = (x1, x1 + a1) if plus1 else (x1 + a1, x1)
        q2 = (x2, x2 + a2) if plus2 else (x2 + a2, x2)
        want = bt_mul(q1, q2)
        offset = want[1] - want[0]
        if plus1 and plus2:
            in_set = offset == a1 + a2
        elif not plus1 and not plus2:
            in_set = offset == -(a1 + a2)
        elif plus1:
            in_set = offset == a1 - a2
        else:
            in_set = below(want, (a1, a2))
        return pair(p) == want and in_set and inside is True

    # criterion 5: shrink witnesses, hereditarily, on both sides
    def _witness(self, ctx, i):
        draw, mul, leq, Elem = ctx.draw5, ctx.mul, ctx.natural_leq, ctx.Elem
        e0, e1 = draw(), draw()
        w = ctx.shrink_witness(e0, e1)
        wd = ctx.shrink_witness_dual(e0, e1)
        ok = leq(mul(e0, w), e1) and leq(mul(wd, e0), e1)
        ds = []
        for _ in range(10):
            d = draw().a
            ds.append(d)
            ok = leq(mul(e0, Elem(w.a + d, w.b + d)), e1) and ok
            ok = leq(mul(Elem(wd.a + d, wd.b + d), e0), e1) and ok
        pre = ctx.preimage_up_segment(self.left, e0, ctx.up_set(e1))
        return (e0, e1, w, wd, tuple(ds), ok, ctx.region_member(pre, w))

    @staticmethod
    def _check_witness(i, out) -> bool:
        e0, e1, w, wd, ds, ok, pre_w = out
        p0, p1, pw, pwd = pair(e0), pair(e1), pair(w), pair(wd)
        good = below(bt_mul(p0, pw), p1) and below(bt_mul(pwd, p0), p1)
        for d in ds:
            good = good and below(bt_mul(p0, (pw[0] + d, pw[1] + d)), p1)
            good = good and below(bt_mul((pwd[0] + d, pwd[1] + d), p0), p1)
        # w is in the preimage of e1's up-segment iff e0 * w lies above e1
        return good and ok is True and pre_w is below(p1, bt_mul(p0, pw))

    # criterion 8: zero neighbourhoods under inversion, zero included
    def _nbhd(self, ctx, i):
        e = self.zero if i % 100 == 0 else ctx.draw8()
        m, ie = ctx.nbhd_member, ctx.inv_ext(e)
        return (e, m(ctx.inv_nb1, e), m(self.nb1, ie), m(ctx.inv_nb2, e), m(self.nb2, ie))

    def _check_nbhd(self, i, out) -> bool:
        e, a1, b1, a2, b2 = out
        p = None if e is self.zero else pair(e)
        swapped = [swap(t) for t in self.tops]
        return (
            a1 is in_threshold(self.n1, p)
            and b1 is in_threshold(self.n1, swap(p))
            and a2 is in_segment_complement(swapped, p)
            and b2 is in_segment_complement(list(self.tops), swap(p))
            and a1 is b1
            and a2 is b2
        )

    # criteria 2 and 4 through the suites
    @staticmethod
    def _suite(ctx, arg):
        name, cfg = arg
        return ctx.run_suite(name, cfg)

    @staticmethod
    def _check_suite(arg, report) -> bool:
        name, cfg = arg
        lines = suite_body(report).splitlines()
        return (
            lines[:1] == [f"suite {name}"]
            and f"cases {cfg.cases}" in lines
            and "failures 0" in lines
            and lines[-1:] == ["status pass"]
        )


# ---------------------------------------------------------------------------
# certs: criteria 6 and 7
# ---------------------------------------------------------------------------

FALSIFY_BUDGET = 1000


class Certs(Workload):
    """Per round: 64 threshold (ac1) and 64 segment (ac2) instances, both
    sides, interleaved; 16 of the 128 are tampered twins.  The tampered share is
    kept far from one half so that the median item is always an honest one."""

    name = "certs"

    def __init__(self, lib, seed: int, scale: float = 1.0) -> None:
        S, G, T, O = lib.semigroup, lib.generate, lib.topology, lib.order_geometry
        self.lib = lib
        self.Elem, self.NbhdAc1, self.NbhdAc2 = S.Elem, T.NbhdAc1, T.NbhdAc2
        self.left, right = O.Side.LEFT, O.Side.RIGHT
        count = _count(64, scale)
        # ac1 as in criterion 6: the side is chosen so that the halved
        # inclusion fails, which makes the tampered twin falsifiable
        s1 = G.gen_elem(G.GenConfig(seed=sub_seed(seed, 21), scalar_mode=G.RationalMode(6, 8)))
        ac1 = []
        for _ in range(count):
            t = next(s1)
            if t.a == t.b:
                t = S.Elem(t.a, t.b + Fraction(1, 2))
            side = self.left if t.a < t.b else right
            ac1.append(("ac1", side, t, T.NbhdAc1(max(t.a, t.b) + 2 + next(s1).a)))
        # ac2 as in the ac2 suite: targets lie beyond the translator, so the
        # tampered twin (segments pushed to the boundary) is falsifiable
        s2 = G.gen_elem(G.GenConfig(seed=sub_seed(seed, 22), scalar_mode=G.RationalMode(8, 6)))
        ac2 = []
        for k in range(count):
            t = next(s2)
            side = self.left if k % 2 == 0 else right
            tops = []
            for _ in range(1 + k % 3):
                x = next(s2)
                if side is self.left:
                    tops.append(S.Elem(t.a + 1 + x.a, 1 + x.b))
                else:
                    tops.append(S.Elem(1 + x.a, t.b + 1 + x.b))
            ac2.append(("ac2", side, t, T.NbhdAc2(tuple(tops))))
        self.items = []
        for k in range(2 * count):
            kind, side, t, target = (ac1, ac2)[k % 2][k // 2]
            tampered = (k // 2) % 8 == 3
            arg = (kind, side, t, target, tampered, sub_seed(seed, 100 + k))
            self.items.append(Item(self._pipeline, self._check, self._canon, arg, 1, True))

    def _pipeline(self, ctx, arg):
        kind, side, t, target, tampered, fseed = arg
        if kind == "ac1":
            cert = ctx.cert_ac1(side, t, target)
            if tampered:
                cert = replace(cert, chosen=self.NbhdAc1(cert.effective.n))
            text = ctx.cert_to_text(cert)
            parsed = ctx.cert_from_text(text)
            valid = ctx.validate_ac1(parsed)
            goal = parsed.effective
        else:
            cert = ctx.cert_ac2(side, t, target)
            if tampered:
                cert = replace(
                    cert,
                    chosen=self.NbhdAc2(
                        tuple(
                            self.Elem(max(F0, c.a - c.b), max(F0, c.b - c.a))
                            for c in cert.chosen.tops
                        )
                    ),
                )
            text = ctx.cert_to_text(cert)
            parsed = ctx.cert_from_text(text)
            valid = ctx.validate_ac2(parsed)
            goal = parsed.target
        w = ctx.falsify(side, t, parsed.chosen, goal, FALSIFY_BUDGET, fseed)
        violation = None
        if w is not None:
            img = ctx.mul(t, w) if side is self.left else ctx.mul(w, t)
            violation = ctx.nbhd_member(parsed.chosen, w) and not ctx.nbhd_member(goal, img)
        return (text, parsed, valid, w, violation)

    def _check(self, arg, out) -> bool:
        kind, side, t, target, tampered, fseed = arg
        text, parsed, valid, w, violation = out
        io_ = self.lib.certio
        if io_.cert_to_text(io_.cert_from_text(text)) != text:
            return False
        if not tampered:
            return valid is True and w is None
        if valid is not False or w is None or violation is not True:
            return False
        pw, pt = pair(w), pair(t)
        img = bt_mul(pt, pw) if side is self.left else bt_mul(pw, pt)
        if kind == "ac1":
            return in_threshold(parsed.chosen.n, pw) and not in_threshold(parsed.effective.n, img)
        chosen = [pair(c) for c in parsed.chosen.tops]
        goal = [pair(c) for c in parsed.target.tops]
        return in_segment_complement(chosen, pw) and not in_segment_complement(goal, img)

    @staticmethod
    def _canon(out) -> str:
        text, parsed, valid, w, violation = out
        return f"{text}valid={valid} witness={fmt(w)} violation={violation}"

    def layer_counts(self, outputs) -> dict:
        texts = [out[0] for out in outputs if isinstance(out, tuple)]
        return {"certio.bytes_per_cert": sum(len(t.encode()) for t in texts) / max(1, len(texts))}


# ---------------------------------------------------------------------------
# cli: the README's commands and seeded ones through the command line
# ---------------------------------------------------------------------------


class Command(NamedTuple):
    argv: Tuple[str, ...]
    code: int
    stdout: Optional[Tuple[str, ...]]  # exact lines; None for a suite report
    exprs: Tuple[str, ...]  # the expressions the command parses


def fmt_line(sign: str, alpha: Fraction) -> str:
    """A diagonal line as the command line writes it: ``L+3``, ``L-1/2``."""
    if alpha == 0:
        sign = "+"  # the two lines of offset 0 coincide
    return f"L{sign}{fmt_elem((alpha,))[1:-1]}"


def line_product_text(s1: str, a1: Fraction, s2: str, a2: Fraction) -> str:
    """The product set of two lines, from the product's case split: like
    signs add offsets, ``+`` then ``-`` subtracts them, ``-`` then ``+`` is
    the down-ray below (a1, a2)."""
    if s1 == s2:
        return fmt_line(s1, a1 + a2)
    if s1 == "+":
        return fmt_line("+", a1 - a2) if a1 >= a2 else fmt_line("-", a2 - a1)
    return f"down{fmt_elem((a1, a2))}"


class Cli(Workload):
    """Per round: the README's eleven commands in README order (``certify
    --emit`` into a fresh work directory under ``benchmarks/out``, removed
    at the end; ``suite products`` with the run's seed and 100 cases), then
    100 seeded commands, 20 of each: ``eval`` of a product, of an inverse
    and of an order test, ``order`` and ``lines product``.  Every command
    goes through ``cli.main`` in this process with its output captured, so
    an item costs a fraction of a millisecond to a few milliseconds and its
    best time is steady; start-up of a fresh interpreter is timed in the
    traced run instead (``cli.cold_start_ms``)."""

    name = "cli"

    def __init__(self, lib, seed: int, scale: float = 1.0) -> None:
        self.lib = lib
        here = Path(__file__).resolve().parent
        (here / "out").mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="cli-", dir=here / "out"))
        cert = str(self.work / "c.cert")
        S, T, O, C = lib.semigroup, lib.topology, lib.order_geometry, lib.certificates
        ac2_text = lib.certio.cert_to_text(
            C.continuity_cert_ac2(O.Side.LEFT, S.Elem(1, 2), T.NbhdAc2((S.Elem(3, 1), S.Elem(2, 5))))
        )
        commands = [
            Command(("eval", "(1,3)*(2,5)"), 0, ("(1,6)",), ("(1,3)*(2,5)",)),
            Command(("eval", "((1,6))^-1"), 0, ("(6,1)",), ("((1,6))^-1",)),
            Command(("eval", "(3,5) <= (1,3)"), 0, ("true",), ("(3,5) <= (1,3)",)),
            Command(("order", "(3,5)", "(1,3)"), 0, ("true", "witness (5,5)"), ("(3,5)", "(1,3)")),
            Command(("lines", "product", "L+1", "L+2"), 0, ("L+3",), ()),
            Command(("lines", "product", "L-2", "L+3"), 0, ("down(2,3)",), ()),
            Command(
                ("certify", "ac1", "--side", "left", "--translator", "(1,2)", "--target", "4", "--emit", cert),
                0,
                (f"wrote certificate to {cert} (valid)",),
                ("(1,2)",),
            ),
            Command(("validate", cert), 0, ("valid",), ()),
            Command(
                ("falsify", "ac1", "--side", "left", "--translator", "(1,2)",
                 "--chosen", "4", "--target", "4", "--seed", "7", "--cases", "10000"),
                1,
                ("counterexample (5,0) -> (4,0)",),
                ("(1,2)",),
            ),
            Command(
                ("certify", "ac2", "--side", "left", "--translator", "(1,2)", "--target", "(3,1);(2,5)"),
                0,
                tuple(ac2_text.splitlines()),
                ("(1,2)", "(3,1)", "(2,5)"),
            ),
            Command(("suite", "products", "--seed", str(seed % 2**32), "--cases", "100"), 0, None, ()),
        ]
        rng = random.Random(sub_seed(seed, 31))

        def scalar(lo: int = 0) -> Fraction:
            return Fraction(rng.randrange(lo, 21), rng.randrange(1, 9))

        for k in range(_count(20, scale)):
            p, q = (scalar(), scalar()), (scalar(), scalar())
            if k % 2 == 0:  # half the order queries compare by construction
                d = scalar(1)
                p = (q[0] + d, q[1] + d)
            ep, eq = fmt_elem(p), fmt_elem(q)
            leq = below(p, q)
            s1, s2 = rng.choice("+-"), rng.choice("+-")
            a1, a2 = scalar(1), scalar(1)
            commands += [
                Command(("eval", f"{ep}*{eq}"), 0, (fmt_elem(bt_mul(p, q)),), (f"{ep}*{eq}",)),
                Command(("eval", f"({ep})^-1"), 0, (fmt_elem(swap(p)),), (f"({ep})^-1",)),
                Command(("eval", f"{ep} <= {eq}"), 0 if leq else 1, ("true" if leq else "false",), (f"{ep} <= {eq}",)),
                # the witness w = (p.b, p.b) satisfies q * w = p when p lies below q
                Command(("order", ep, eq), 0 if leq else 1,
                        ("true", f"witness {fmt_elem((p[1], p[1]))}") if leq else ("false",), (ep, eq)),
                Command(("lines", "product", fmt_line(s1, a1), fmt_line(s2, a2)), 0,
                        (line_product_text(s1, a1, s2, a2),), ()),
            ]
        self.items = [Item(self._invoke, self._check, self._canon, c, 1, True) for c in commands]

    def _invoke(self, ctx, cmd: Command):
        if ctx.tracer is not None:
            # parse_expr is called inside cli.main; the traced round also
            # calls it directly so that the parser has spans of its own
            for text in cmd.exprs:
                ctx.parse_expr(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = ctx.cli_main(list(cmd.argv))
        return (code, out.getvalue())

    @staticmethod
    def _check(cmd: Command, out) -> bool:
        code, stdout = out
        lines = stdout.splitlines()
        if code != cmd.code:
            return False
        if cmd.stdout is None:
            return "failures 0" in lines and "status pass" in lines
        return tuple(lines) == cmd.stdout

    def _canon(self, out) -> str:
        code, stdout = out
        body = "\n".join(ln for ln in stdout.splitlines() if not ln.startswith("elapsed"))
        return f"{code}\n{body}".replace(str(self.work), "WORK")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Algebra, Certs, Cli)}
