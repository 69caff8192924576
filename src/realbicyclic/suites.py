"""Seeded property suites with structured, replayable reports.

Each suite runs ``cfg.cases`` checks of one invariant family over the
deterministic sample stream, tallies which branch of the product's case split
its multiplications hit (every suite must hit all three), and collects exact
counterexamples.  Reports are line oriented and byte-stable for a fixed
configuration; the elapsed line is the only varying part.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace
from fractions import Fraction

from . import certificates as certs
from .generate import GenConfig, IntegerMode, gen_elem
from .order_geometry import (
    DownRay,
    _LEFT,
    _RIGHT,
    _down,
    _up,
    factor_in_line_product,
    line_product,
    preimage_up_segment,
    shrink_witness,
    shrink_witness_dual,
    translate_down_ray,
)
from .semigroup import (
    Elem,
    LineRef,
    Sign,
    _MINUS,
    _PLUS,
    classify_line,
    inv,
    is_idempotent,
    leq_witness,
    line_point,
    mul,
    mul_branch,
    natural_leq,
)
from .topology import NbhdAc1, NbhdAc2, NbhdOrder


class UnknownSuite(ValueError):
    pass


@dataclass
class Failure:
    check: str
    inputs: str
    expected: str
    got: str

    def line(self) -> str:
        return (
            f"failure check={self.check} inputs={self.inputs} "
            f"expected={self.expected} got={self.got}"
        )


@dataclass
class SuiteReport:
    suite: str
    seed: int
    cases: int
    mode: str
    branch_counts: dict[str, int]
    failures: list[Failure]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def body_lines(self) -> list[str]:
        lines = [
            f"suite {self.suite}",
            f"seed {self.seed}",
            f"cases {self.cases}",
            f"mode {self.mode}",
            "branches "
            + " ".join(f"{tag}={self.branch_counts[tag]}" for tag in ("lt", "eq", "gt")),
            f"failures {len(self.failures)}",
        ]
        lines.extend(f.line() for f in self.failures)
        lines.append(f"status {'pass' if self.passed else 'fail'}")
        return lines

    def render(self, machine: bool = False) -> str:
        if machine:
            doc = {
                "suite": self.suite,
                "seed": self.seed,
                "cases": self.cases,
                "mode": self.mode,
                "branches": self.branch_counts,
                "failures": [asdict(f) for f in self.failures],
                "status": "pass" if self.passed else "fail",
                "elapsed": round(self.elapsed, 6),
            }
            return json.dumps(doc, sort_keys=True)
        return "\n".join(self.body_lines() + [f"elapsed {self.elapsed:.3f}s"])


def _mode_str(cfg: GenConfig) -> str:
    mode = cfg.scalar_mode
    if isinstance(mode, IntegerMode):
        return f"integer {mode.max}"
    return f"rational {mode.max_num} {mode.max_den}"


class _Runner:
    def __init__(self, cfg: GenConfig) -> None:
        self.cfg = cfg
        self.draw: Callable[[], Elem] = gen_elem(cfg).__next__
        self.branch_counts = {"lt": 0, "eq": 0, "gt": 0}
        self.failures: list[Failure] = []

    def mul(self, e1: Elem, e2: Elem) -> Elem:
        """The product, tallied under the branch of its gap.  ``mul_branch``
        computes the gap apart from ``mul`` by design: a wrong product cannot
        move the tally (read off the product, an off-by-one on ``eq`` would be
        tallied ``gt``)."""
        self.branch_counts[mul_branch(e1, e2)] += 1
        return mul(e1, e2)

    def fail(self, check: str, inputs: str, expected: str, got: str) -> None:
        self.failures.append(Failure(check, inputs, expected, got))


def _min_formula_mul(e1: Elem, e2: Elem) -> Elem:
    """The product by its defining min formula; an independent route used to
    cross-check the case-split implementation."""
    m = e1.b if e1.b <= e2.a else e2.a
    return Elem(e1.a + e2.a - m, e1.b + e2.b - m)


def _exercise_branches(run: _Runner) -> None:
    """Feed one pair through each branch of the case split, checked against
    the min-formula route, so every suite certifies full branch coverage."""
    e = run.draw()
    f = run.draw()
    pairs = [
        (e, Elem(e.b + 1, f.b)),
        (e, Elem(e.b, f.a)),
        (Elem(e.a, e.b + 1), Elem(e.b + Fraction(1, 2), f.b)),
    ]
    for e1, e2 in pairs:
        got = run.mul(e1, e2)
        want = _min_formula_mul(e1, e2)
        if got != want:
            run.fail("mul-min-formula", f"{e1} {e2}", str(want), str(got))


def _suite_axioms(run: _Runner) -> None:
    for _ in range(run.cfg.cases):
        e1, e2, e3 = run.draw(), run.draw(), run.draw()
        left = run.mul(run.mul(e1, e2), e3)
        right = mul(e1, mul(e2, e3))
        if left != right:
            run.fail("associativity", f"{e1} {e2} {e3}", str(right), str(left))
        if mul(run.mul(e1, inv(e1)), e1) != e1:
            run.fail("inverse-restores", str(e1), str(e1), str(mul(mul(e1, inv(e1)), e1)))
        if mul(mul(inv(e1), e1), inv(e1)) != inv(e1):
            run.fail(
                "inverse-of-inverse",
                str(e1),
                str(inv(e1)),
                str(mul(mul(inv(e1), e1), inv(e1))),
            )
        f, g = Elem(e2.a, e2.a), Elem(e3.b, e3.b)
        mx = e2.a if e2.a >= e3.b else e3.b
        fg, gf = run.mul(f, g), mul(g, f)
        if fg != gf or fg != Elem(mx, mx):
            run.fail("idempotents-commute", f"{f} {g}", str(Elem(mx, mx)), f"{fg} {gf}")


def _suite_order(run: _Runner) -> None:
    for i in range(run.cfg.cases):
        t = run.draw()
        if i % 2 == 0:
            d = run.draw().a
            s = Elem(t.a + d, t.b + d)  # comparable by construction
        else:
            s = run.draw()
        by_first = s.a >= t.a and s.a - s.b == t.a - t.b
        by_second = s.b >= t.b and s.a - s.b == t.a - t.b
        by_left_idem = s == run.mul(run.mul(s, inv(s)), t)
        by_right_idem = s == run.mul(t, mul(inv(s), s))
        r = natural_leq(s, t)
        if not (r == by_first == by_second == by_left_idem == by_right_idem):
            run.fail(
                "order-characterisations",
                f"{s} {t}",
                str(r),
                f"first={by_first} second={by_second} "
                f"left={by_left_idem} right={by_right_idem}",
            )
        w = leq_witness(s, t)
        if r:
            if w is None or not is_idempotent(w) or mul(t, w) != s:
                run.fail("leq-witness", f"{s} {t}", f"idempotent w, {t}*w={s}", str(w))
            u = run.draw()
            if not natural_leq(mul(u, s), mul(u, t)) or not natural_leq(
                mul(s, u), mul(t, u)
            ):
                run.fail("order-compatibility", f"{s} {t} {u}", "both translates ordered", "no")
            if natural_leq(t, s) and s != t:
                run.fail("antisymmetry", f"{s} {t}", "s == t", "distinct")
            d2 = run.draw().b
            s2 = Elem(s.a + d2, s.b + d2)
            if not natural_leq(s2, t):
                run.fail("transitivity", f"{s2} {s} {t}", "true", "false")
        elif w is not None:
            run.fail("leq-witness-none", f"{s} {t}", "None", str(w))
        if not natural_leq(t, t):
            run.fail("reflexivity", str(t), "true", "false")


def _suite_lines(run: _Runner) -> None:
    for _ in range(run.cfg.cases):
        e = run.draw()
        line, x = classify_line(e)
        if line_point(line, x) != e:
            run.fail("line-roundtrip", str(e), str(e), str(line_point(line, x)))
        iline, ix = classify_line(inv(e))
        flipped = _MINUS if line.sign is _PLUS else _PLUS
        want_sign = line.sign if line.alpha == 0 else flipped
        if iline.alpha != line.alpha or ix != x or iline.sign is not want_sign:
            run.fail(
                "inversion-flips-line",
                str(e),
                f"{LineRef(want_sign, line.alpha)} x={x}",
                f"{iline} x={ix}",
            )
        eps = run.draw().a + 1
        nb = NbhdOrder(e, eps)
        inside = line_point(line, x + eps / 2)
        if not nb.member(inside) or classify_line(inside)[0] != line:
            run.fail("order-nbhd-inside", f"{e} eps={eps}", "member, same line", "no")
        outside = line_point(line, x + eps)
        if nb.member(outside):
            run.fail("order-nbhd-edge", f"{e} eps={eps}", "not member", "member")
        off = Elem(e.a + 1, e.b + 2)
        if nb.member(off):
            run.fail("order-nbhd-off-line", f"{e} {off}", "not member", "member")


_LINE_KINDS = (
    (Sign.PLUS, Sign.PLUS),
    (Sign.MINUS, Sign.MINUS),
    (Sign.PLUS, Sign.MINUS),
    (Sign.MINUS, Sign.PLUS),
)


def _suite_products(run: _Runner) -> None:
    for i in range(run.cfg.cases):
        s1, s2 = _LINE_KINDS[i % 4]
        e = run.draw()
        l1, l2 = LineRef(s1, e.a), LineRef(s2, e.b)
        prod = line_product(l1, l2)
        x1, x2 = run.draw().a, run.draw().b
        p = run.mul(line_point(l1, x1), line_point(l2, x2))
        if not prod.member(p):
            run.fail("product-membership", f"{l1} {l2} x1={x1} x2={x2}", f"in {prod}", str(p))
        t = run.draw().a
        if isinstance(prod, DownRay):
            target = Elem(prod.base.a + t, prod.base.b + t)
        else:
            target = line_point(prod.line, t)
        f1, f2 = factor_in_line_product(target, l1, l2)
        if classify_line(f1)[0] != l1 or classify_line(f2)[0] != l2:
            run.fail("factor-lines", f"{target} {l1} {l2}", f"{l1},{l2}",
                     f"{classify_line(f1)[0]},{classify_line(f2)[0]}")
        if run.mul(f1, f2) != target:
            run.fail("factor-product", f"{target} {l1} {l2}", str(target), str(mul(f1, f2)))


def _suite_translations(run: _Runner) -> None:
    for i in range(run.cfg.cases):
        side = _LEFT if i % 2 == 0 else _RIGHT
        t = run.draw()
        base = run.draw()
        punctured = i % 3 == 0
        ray = _down(base, punctured)
        img = translate_down_ray(side, t, ray)
        d = run.draw().a
        if punctured and d == 0:
            d += 1
        s = Elem(base.a + d, base.b + d)
        p = run.mul(t, s) if side is _LEFT else run.mul(s, t)
        if not img.member(p):
            run.fail("translate-forward", f"{side.value} {t} {ray} s={s}", f"in {img}", str(p))
        u = run.draw().b
        if img.punctured and u == 0:
            u += 1
        g = Elem(img.base.a + u, img.base.b + u)
        if side is _LEFT:
            lag = t.b - base.a if t.b > base.a else Fraction(0)
        else:
            lag = t.a - base.b if t.a > base.b else Fraction(0)
        s_pre = Elem(base.a + u + lag, base.b + u + lag)
        p_back = mul(t, s_pre) if side is _LEFT else mul(s_pre, t)
        if not ray.member(s_pre) or p_back != g:
            run.fail(
                "translate-backward",
                f"{side.value} {t} {ray} g={g}",
                f"preimage in {ray} hitting {g}",
                f"{s_pre} -> {p_back}",
            )
        seg = _up(run.draw())
        pre = preimage_up_segment(side, t, seg)
        probe = run.draw()
        img_probe = mul(t, probe) if side is _LEFT else mul(probe, t)
        in_pre = pre is not None and pre.member(probe)
        if in_pre != seg.member(img_probe):
            run.fail(
                "preimage-pointwise",
                f"{side.value} {t} {seg} s={probe}",
                str(seg.member(img_probe)),
                str(in_pre),
            )


def _suite_witnesses(run: _Runner) -> None:
    for _ in range(run.cfg.cases):
        e0, e1 = run.draw(), run.draw()
        w = shrink_witness(e0, e1)
        if not natural_leq(run.mul(e0, w), e1):
            run.fail("shrink-witness", f"{e0} {e1}", f"{e0}*{w} below {e1}", str(mul(e0, w)))
        d = run.draw().a
        s = Elem(w.a + d, w.b + d)
        if not natural_leq(mul(e0, s), e1):
            run.fail("shrink-hereditary", f"{e0} {e1} s={s}", "below", str(mul(e0, s)))
        wd = shrink_witness_dual(e0, e1)
        direct = Elem(2 * e0.b + e1.a, e0.b + e1.b + e0.a)
        if wd != direct:
            run.fail("shrink-dual-direct", f"{e0} {e1}", str(direct), str(wd))
        if not natural_leq(run.mul(wd, e0), e1):
            run.fail("shrink-dual", f"{e0} {e1}", f"{wd}*{e0} below {e1}", str(mul(wd, e0)))
        sd = Elem(wd.a + d, wd.b + d)
        if not natural_leq(mul(sd, e0), e1):
            run.fail("shrink-dual-hereditary", f"{e0} {e1} s={sd}", "below", str(mul(sd, e0)))


def _check_cert(run: _Runner, inputs: str, cert, goal, corrupt) -> None:
    """The four checks of a certificate family: ``cert`` validates, a budget
    of 300 finds no counterexample to its inclusion in ``goal``, and with
    ``corrupt`` chosen it is rejected and a budget of 2000 finds one."""
    kind, side, t = cert.topology, cert.side, cert.translator
    if not certs.validate_cert(cert):
        run.fail(f"{kind}-validate", inputs, "valid", "invalid")
    hit = certs.falsify(side, t, cert.chosen, goal, 300)
    if hit is not None:
        run.fail(f"{kind}-honest-unfalsifiable", inputs, "none", str(hit))
    witness = certs.falsify(side, t, corrupt, goal, 2000)
    if certs.validate_cert(replace(cert, chosen=corrupt)):
        got = f"valid despite counterexample {witness}"
        run.fail(f"{kind}-corrupt-rejected", inputs, "invalid", got)
    if witness is None:
        run.fail(f"{kind}-corrupt-falsified", inputs, "counterexample", "none")


def _suite_ac1(run: _Runner) -> None:
    for _ in range(run.cfg.cases):
        t = run.draw()
        if t.a == t.b:
            t = Elem(t.a, t.b + 1)
        side = _LEFT if t.a < t.b else _RIGHT
        n = max(t.a, t.b) + 2 + run.draw().a
        cert = certs.continuity_cert_ac1(side, t, NbhdAc1(n))
        _check_cert(run, f"{side.value} {t} n={n}", cert, cert.effective, NbhdAc1(cert.effective.n))


def _suite_ac2(run: _Runner) -> None:
    for i in range(run.cfg.cases):
        t = run.draw()
        side = _LEFT if i % 2 == 0 else _RIGHT
        tops = []
        for _ in range(1 + i % 3):
            extra = run.draw()
            if side is _LEFT:
                tops.append(Elem(t.a + 1 + extra.a, 1 + extra.b))
            else:
                tops.append(Elem(1 + extra.a, t.b + 1 + extra.b))
        target = NbhdAc2(tuple(tops))
        cert = certs.continuity_cert_ac2(side, t, target)
        boundary = tuple(Elem(max(0, c.a - c.b), max(0, c.b - c.a)) for c in cert.chosen.tops)
        _check_cert(run, f"{side.value} {t} target={target.tops}", cert, target, NbhdAc2(boundary))


def _bicyclic_word_mul(k: int, l: int, m: int, n: int) -> Elem:
    """Multiply q^k p^l by q^m p^n as literal generator words: concatenate
    them and delete the factor p^j q^j, which j nested uses of the relation
    pq = 1 reduce to the empty word, for j = 2^t down to 1.  Deleting one
    "pq" per pass would take min(l, m) passes over the word (quadratic on a
    wide integer grid); halving j takes log2 of its length.  No step
    computes min(l, m) or multiplies points, so the oracle is independent of
    both the product and the exponent formula, and a factor left over fails
    the normal-form check."""
    word = "q" * k + "p" * l + "q" * m + "p" * n
    j = 1 << len(word).bit_length()
    while j:
        word = word.replace("p" * j + "q" * j, "")
        j >>= 1
    qs = word.count("q")
    ps = len(word) - qs
    if word != "q" * qs + "p" * ps:
        raise AssertionError(f"word did not normalise: {word}")
    return Elem(qs, ps)


def _suite_bicyclic(run: _Runner) -> None:
    """The product of integer points against the word oracle and the
    exponent formula of the bicyclic monoid.  The points come from an
    ``IntegerMode`` stream (the run's own, or ``IntegerMode(20)`` beside a
    rational run), so every denominator is 1 and the exponents are the
    numerators."""
    mode = run.cfg.scalar_mode
    icfg = GenConfig(
        seed=run.cfg.seed,
        scalar_mode=mode if isinstance(mode, IntegerMode) else IntegerMode(20),
        cases=run.cfg.cases,
    )
    ints = gen_elem(icfg)
    for _ in range(run.cfg.cases):
        e1, e2 = next(ints), next(ints)
        got = run.mul(e1, e2)
        (k, _, l, _), (m, _, n, _) = e1._q, e2._q
        want = _bicyclic_word_mul(k, l, m, n)
        if got != want:
            run.fail("bicyclic-word", f"{e1} {e2}", str(want), str(got))
        lo = min(l, m)
        formula = Elem(k + m - lo, l + n - lo)
        if formula != want:
            run.fail("bicyclic-exponents", f"{e1} {e2}", str(want), str(formula))


_SUITES: dict[str, Callable[[_Runner], None]] = {
    "axioms": _suite_axioms,
    "order": _suite_order,
    "lines": _suite_lines,
    "products": _suite_products,
    "translations": _suite_translations,
    "witnesses": _suite_witnesses,
    "ac1": _suite_ac1,
    "ac2": _suite_ac2,
    "bicyclic": _suite_bicyclic,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, cfg: GenConfig) -> SuiteReport:
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; pick one of {', '.join(_SUITES)}")
    run = _Runner(cfg)
    start = time.perf_counter()
    _exercise_branches(run)
    _SUITES[name](run)
    elapsed = time.perf_counter() - start
    for tag, count in run.branch_counts.items():
        if count == 0:
            run.fail("branch-coverage", tag, "at least one case", "none")
    run.failures.sort(key=lambda f: (f.check, f.inputs, f.expected, f.got))
    return SuiteReport(
        suite=name,
        seed=cfg.seed,
        cases=cfg.cases,
        mode=_mode_str(cfg),
        branch_counts=dict(run.branch_counts),
        failures=run.failures,
        elapsed=elapsed,
    )
