"""Acceptance gate: every criterion at its stated scale and tolerance.

Each test prints its own pass/fail line (run with ``pytest -s`` to see them);
all comparisons are exact rational equality unless a criterion names a bound.
"""

import subprocess
import sys
import time
from fractions import Fraction as F

from realbicyclic import (
    Elem,
    GenConfig,
    IntegerMode,
    NbhdAc1,
    NbhdAc2,
    RationalMode,
    Side,
    ZERO,
    continuity_cert_ac1,
    continuity_cert_ac2,
    falsify,
    gen_elem,
    inv,
    inv_ext,
    mul,
    natural_leq,
    nbhd_invert,
    run_suite,
    shrink_witness,
    shrink_witness_dual,
    validate_cert_ac1,
    validate_cert_ac2,
)
import dataclasses


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_1_axiom_suite():
    """Associativity and inverse axioms on 1e5 seeded rational triples, <10 s."""
    stream = gen_elem(GenConfig(seed=1001, scalar_mode=RationalMode(30, 8)))
    start = time.perf_counter()
    ok = True
    for _ in range(10**5):
        e1, e2, e3 = next(stream), next(stream), next(stream)
        i1 = inv(e1)
        if mul(mul(e1, e2), e3) != mul(e1, mul(e2, e3)):
            ok = False
            break
        if mul(mul(e1, i1), e1) != e1 or mul(mul(i1, e1), i1) != i1:
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: axiom suite, 1e5 rational triples, exact",
        ok and elapsed < 10.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_2_bicyclic_specialisation():
    """Integer pairs reproduce the generator-word product exactly, 1e4 cases."""
    rep = run_suite(
        "bicyclic", GenConfig(seed=1002, scalar_mode=IntegerMode(25), cases=10**4)
    )
    report(
        "criterion 2: bicyclic integer specialisation, 1e4 pairs",
        rep.passed,
        "; ".join(f.line() for f in rep.failures[:2]),
    )


def test_criterion_3_order_oracle_equivalence():
    """Four order characterisations agree on 1e4 pairs, >=1e3 comparable."""
    stream = gen_elem(GenConfig(seed=1003, scalar_mode=RationalMode(25, 8)))
    comparable = 0
    ok = True
    for i in range(10**4):
        t = next(stream)
        if i % 10 == 0:
            d = next(stream).a
            s = Elem(t.a + d, t.b + d)
        else:
            s = next(stream)
        by_first = s.a >= t.a and s.a - s.b == t.a - t.b
        by_second = s.b >= t.b and s.a - s.b == t.a - t.b
        by_left = s == mul(mul(s, inv(s)), t)
        by_right = s == mul(t, mul(inv(s), s))
        r = natural_leq(s, t)
        if not (r == by_first == by_second == by_left == by_right):
            ok = False
            break
        if r:
            comparable += 1
    report(
        "criterion 3: order characterisations agree, 1e4 pairs",
        ok and comparable >= 10**3,
        f"{comparable} comparable",
    )


def test_criterion_4_line_products():
    """Two-sided membership/factorisation for all four line-product cases,
    1e3 checks each."""
    rep = run_suite("products", GenConfig(seed=1004, cases=4 * 10**3))
    report(
        "criterion 4: line products two-sided, 4x1e3 cases",
        rep.passed,
        "; ".join(f.line() for f in rep.failures[:2]),
    )


def test_criterion_5_shrink_witnesses():
    """Witness containment plus ten order-smaller perturbations, both sides,
    1e3 sampled pairs."""
    stream = gen_elem(GenConfig(seed=1005, scalar_mode=RationalMode(25, 8)))
    ok = True
    for _ in range(10**3):
        e0, e1 = next(stream), next(stream)
        w = shrink_witness(e0, e1)
        if not natural_leq(mul(e0, w), e1):
            ok = False
            break
        wd = shrink_witness_dual(e0, e1)
        if not natural_leq(mul(wd, e0), e1):
            ok = False
            break
        for _ in range(10):
            d = next(stream).a
            if not natural_leq(mul(e0, Elem(w.a + d, w.b + d)), e1):
                ok = False
                break
            if not natural_leq(mul(Elem(wd.a + d, wd.b + d), e0), e1):
                ok = False
                break
        if not ok:
            break
    report("criterion 5: shrink witnesses hereditary, 1e3 pairs x 10 perturbations", ok)


def _sample_ac1_instances(count):
    """Translators with distinct coordinates; the side is chosen so that the
    halved inclusion genuinely fails (left needs b > a, right needs a > b),
    which makes the corrupted certificate falsifiable at all."""
    stream = gen_elem(GenConfig(seed=1006, scalar_mode=RationalMode(6, 8)))
    out = []
    while len(out) < count:
        t = next(stream)
        if t.a == t.b:
            t = Elem(t.a, t.b + F(1, 2))
        side = Side.LEFT if t.a < t.b else Side.RIGHT
        n = max(t.a, t.b) + 2 + next(stream).a
        out.append((side, t, n))
    return out


def test_criterion_6_threshold_certificates():
    """100 sampled certificates validate; the falsifier, called once per
    certificate with a budget of 1e4, finds nothing against them (it reads no
    seed and tries its 2 probes, which reach every escaping point); corrupted
    twins are rejected and falsified; the worked (1,2)/4 instance is checked
    explicitly."""
    ok = True
    detail = ""
    for side, t, n in _sample_ac1_instances(100):
        cert = continuity_cert_ac1(side, t, NbhdAc1(n))
        if cert.effective.n != n or not validate_cert_ac1(cert):
            ok, detail = False, f"generated cert invalid for {side.value} {t} n={n}"
            break
        if falsify(side, t, cert.chosen, cert.effective, 10**4) is not None:
            ok, detail = False, f"honest cert falsified for {side.value} {t} n={n}"
            break
        corrupted = dataclasses.replace(cert, chosen=NbhdAc1(cert.effective.n))
        if validate_cert_ac1(corrupted):
            ok, detail = False, f"corrupted cert accepted for {side.value} {t} n={n}"
            break
        w = falsify(side, t, corrupted.chosen, cert.effective, 10**4, 1)
        if w is None:
            ok, detail = False, f"corrupted cert not falsified for {side.value} {t} n={n}"
            break
        img = mul(t, w) if side is Side.LEFT else mul(w, t)
        if not corrupted.chosen.member(w) or cert.effective.member(img):
            ok, detail = False, f"false witness {w} for {side.value} {t} n={n}"
            break
    if ok:
        cert = continuity_cert_ac1(Side.LEFT, Elem(1, 2), NbhdAc1(4))
        spot = (
            cert.chosen == NbhdAc1(8)
            and validate_cert_ac1(cert)
            and mul(Elem(1, 2), Elem(9, 0)) == Elem(8, 0)
            and NbhdAc1(4).member(Elem(8, 0))
            and not validate_cert_ac1(dataclasses.replace(cert, chosen=NbhdAc1(4)))
            and falsify(Side.LEFT, Elem(1, 2), NbhdAc1(4), NbhdAc1(4), 10**4, 0)
            is not None
        )
        if not spot:
            ok, detail = False, "worked (1,2), n=4 instance failed"
    report("criterion 6: threshold certificates, 100 instances x 2 falsifier probes", ok, detail)


def test_criterion_7_segment_certificates():
    """100 sampled segment certificates validate exactly and survive
    falsification, called once per certificate with a budget of 3000 (it
    reads no seed and tries one probe per target diagonal; the probes reach
    every escaping point); the worked (1,2) -> [(3,1)] instance gives chosen
    [(6,3)]."""
    stream = gen_elem(GenConfig(seed=1007, scalar_mode=RationalMode(8, 6)))
    ok = True
    detail = ""
    for i in range(100):
        t = next(stream)
        side = Side.LEFT if i % 2 == 0 else Side.RIGHT
        tops = tuple(next(stream) for _ in range(1 + i % 3))
        target = NbhdAc2(tops)
        cert = continuity_cert_ac2(side, t, target)
        if not validate_cert_ac2(cert):
            ok, detail = False, f"generated cert invalid for {side.value} {t} {tops}"
            break
        if falsify(side, t, cert.chosen, target, 3000) is not None:
            ok, detail = False, f"honest cert falsified for {side.value} {t} {tops}"
            break
    if ok:
        cert = continuity_cert_ac2(Side.LEFT, Elem(1, 2), NbhdAc2((Elem(3, 1),)))
        spot = (
            cert.chosen == NbhdAc2((Elem(6, 3),))
            and validate_cert_ac2(cert)
            and falsify(
                Side.LEFT, Elem(1, 2), cert.chosen, NbhdAc2((Elem(3, 1),)), 10**4, 0
            )
            is None
        )
        if not spot:
            ok, detail = False, "worked (1,2) -> [(3,1)] instance failed"
    report("criterion 7: segment certificates, 100 instances", ok, detail)


def test_criterion_8_inversion_identities():
    """Threshold neighbourhoods are inversion-fixed and segment neighbourhoods
    swap coordinates; both verified pointwise on 1e3 samples."""
    stream = gen_elem(GenConfig(seed=1008, scalar_mode=RationalMode(20, 8)))
    nb1 = NbhdAc1(F(9, 2))
    tops = (Elem(2, 3), Elem(5, 1), Elem("1/2", 4))
    nb2 = NbhdAc2(tops)
    ok = nbhd_invert(nb1) == nb1
    ok = ok and nbhd_invert(nb2) == NbhdAc2(tuple(Elem(e.b, e.a) for e in tops))
    if ok:
        for i in range(10**3):
            e = ZERO if i % 100 == 0 else next(stream)
            if nbhd_invert(nb1).member(e) != nb1.member(inv_ext(e)):
                ok = False
                break
            if nbhd_invert(nb2).member(e) != nb2.member(inv_ext(e)):
                ok = False
                break
    report("criterion 8: inversion identities, 1e3 pointwise samples each", ok)


def test_criterion_9_cli_reproducibility():
    """Two identical suite invocations emit byte-identical bodies (the elapsed
    line is the only varying part)."""
    cmd = [
        sys.executable,
        "-m",
        "realbicyclic",
        "suite",
        "products",
        "--seed",
        "42",
        "--cases",
        "1000",
    ]
    r1 = subprocess.run(cmd, capture_output=True, text=True)
    r2 = subprocess.run(cmd, capture_output=True, text=True)
    body1 = [ln for ln in r1.stdout.splitlines() if not ln.startswith("elapsed")]
    body2 = [ln for ln in r2.stdout.splitlines() if not ln.startswith("elapsed")]
    ok = r1.returncode == 0 and r2.returncode == 0 and body1 == body2 and body1
    report("criterion 9: CLI suite reproducibility", bool(ok))
