"""Suite harness: every suite passes, reports are replayable, generators are
deterministic, and an injected mutant validator is caught with a concrete
counterexample."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from realbicyclic import (
    GenConfig,
    IntegerMode,
    RationalMode,
    Elem,
    UnknownSuite,
    gen_elem,
    gen_scalar,
    run_suite,
)
from realbicyclic import certificates
from realbicyclic.suites import SUITE_NAMES


@pytest.mark.parametrize("name", [n for n in SUITE_NAMES if n not in ("ac1", "ac2")])
def test_suites_pass_rational(name):
    report = run_suite(name, GenConfig(seed=7, cases=250))
    assert report.passed, "\n".join(f.line() for f in report.failures)
    assert all(count > 0 for count in report.branch_counts.values())


@pytest.mark.parametrize("name", ["ac1", "ac2"])
def test_certificate_suites_pass(name):
    report = run_suite(name, GenConfig(seed=7, cases=10))
    assert report.passed, "\n".join(f.line() for f in report.failures)


def test_suites_pass_integer_mode():
    report = run_suite("axioms", GenConfig(seed=3, scalar_mode=IntegerMode(20), cases=200))
    assert report.passed
    report = run_suite("bicyclic", GenConfig(seed=3, scalar_mode=IntegerMode(12), cases=200))
    assert report.passed


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("nonsense", GenConfig(seed=0))


def test_gen_elem_deterministic():
    cfg = GenConfig(seed=1, scalar_mode=IntegerMode(10))
    first = [next(gen_elem(cfg)) for _ in range(1)]
    again = [next(gen_elem(cfg)) for _ in range(1)]
    assert first == again
    stream = gen_elem(cfg)
    run1 = [next(stream) for _ in range(50)]
    run2_stream = gen_elem(cfg)
    run2 = [next(run2_stream) for _ in range(50)]
    assert run1 == run2


def test_gen_elem_never_negative():
    stream = gen_elem(GenConfig(seed=9, scalar_mode=RationalMode(15, 6)))
    for _ in range(200):
        e = next(stream)
        assert e.a >= 0 and e.b >= 0


@pytest.mark.parametrize(
    "mode,seed,digest",
    [
        (RationalMode(30, 8), 3,
         "85e335f2fc38054b254371b4e8b361fcc3564e9e2f3b093c540cee87e240e676"),
        (RationalMode(), 11,
         "732edff8dcf266c69b9495014c3e92e773a974631817dd7c85cd57436da53586"),
        (IntegerMode(25), 29,
         "1f17864bae31f6e9dfa44436bb8065c13cb08080b45728f01a7bb2133dc84530"),
    ],
)
def test_gen_elem_golden_streams(mode, seed, digest):
    # sha256 of the first 3000 elements, one per line, as first generated with
    # plain Fraction(num, den) and the validating Elem constructor
    stream = itertools.islice(gen_elem(GenConfig(seed=seed, scalar_mode=mode)), 3000)
    text = "\n".join(str(e) for e in stream)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "mode",
    [IntegerMode(0), RationalMode(0, 1), RationalMode(7, 1), RationalMode(8, 8),
     IntegerMode(2**70), RationalMode(30, 8)],
)
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_gen_scalar_is_the_randrange_stream(mode, seed):
    # gen_scalar draws by rejection on getrandbits; the stream must be the
    # one random.Random(seed).randrange gives, at the edges of every range
    rng = random.Random(seed)
    if isinstance(mode, IntegerMode):
        want = [Fraction(rng.randrange(mode.max + 1)) for _ in range(2000)]
    else:
        want = [Fraction(rng.randrange(mode.max_num + 1), rng.randrange(1, mode.max_den + 1))
                for _ in range(2000)]
    cfg = GenConfig(seed=seed, scalar_mode=mode)
    got = list(itertools.islice(gen_scalar(cfg), 2000))
    assert got == want and all(type(f) is Fraction for f in got)
    elems = list(itertools.islice(gen_elem(cfg), 1000))
    assert elems == [Elem(a, b) for a, b in zip(want[::2], want[1::2])]


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(seed=-1)
    with pytest.raises(ValueError):
        GenConfig(seed=2**64)
    with pytest.raises(ValueError):
        GenConfig(seed=0, cases=-5)
    with pytest.raises(ValueError):
        GenConfig(seed=0, cases=0)


def test_report_body_reproducible():
    cfg = GenConfig(seed=42, cases=300)
    r1 = run_suite("products", cfg)
    r2 = run_suite("products", cfg)
    assert r1.body_lines() == r2.body_lines()
    assert r1.render(machine=False).splitlines()[:-1] == r2.render(
        machine=False
    ).splitlines()[:-1]


def test_report_machine_format():
    import json

    report = run_suite("order", GenConfig(seed=5, cases=100))
    doc = json.loads(report.render(machine=True))
    assert doc["suite"] == "order"
    assert doc["status"] == "pass"
    assert doc["seed"] == 5
    assert set(doc["branches"]) == {"lt", "eq", "gt"}


def test_mutant_validator_caught(monkeypatch):
    # a validator that accepts everything must be reported, with the
    # falsifier's concrete counterexample in the failure record
    monkeypatch.setattr(certificates, "validate_cert_ac1", lambda cert: True)
    report = run_suite("ac1", GenConfig(seed=11, cases=4))
    assert not report.passed
    rejects = [f for f in report.failures if f.check == "ac1-corrupt-rejected"]
    assert rejects
    assert any("counterexample (" in f.got for f in rejects)


def test_failing_report_machine_format(monkeypatch):
    # the machine JSON of a failing report, pinned key for key; only the
    # elapsed time varies, and the text is exactly the sorted-key dump
    import json

    monkeypatch.setattr(certificates, "validate_cert_ac1", lambda cert: True)
    text = run_suite("ac1", GenConfig(seed=11, cases=2)).render(machine=True)
    doc = json.loads(text)
    elapsed = doc.pop("elapsed")
    assert isinstance(elapsed, float) and elapsed >= 0
    assert doc == {
        "branches": {"eq": 1, "gt": 1, "lt": 1},
        "cases": 2,
        "failures": [
            {
                "check": "ac1-corrupt-rejected",
                "expected": "invalid",
                "got": "valid despite counterexample (88/3,0)",
                "inputs": "left (14/3,19) n=29",
            },
            {
                "check": "ac1-corrupt-rejected",
                "expected": "invalid",
                "got": "valid despite counterexample (57/8,0)",
                "inputs": "left (3/8,3) n=7",
            },
        ],
        "mode": "rational 20 8",
        "seed": 11,
        "status": "fail",
        "suite": "ac1",
    }
    assert text == json.dumps({**doc, "elapsed": elapsed}, sort_keys=True)


def test_mutant_validator_rejecting_everything_caught(monkeypatch):
    monkeypatch.setattr(certificates, "validate_cert_ac2", lambda cert: False)
    report = run_suite("ac2", GenConfig(seed=11, cases=4))
    assert not report.passed
    assert any(f.check == "ac2-validate" for f in report.failures)


def test_failures_print_exact_rationals(monkeypatch):
    monkeypatch.setattr(certificates, "validate_cert_ac1", lambda cert: True)
    report = run_suite("ac1", GenConfig(seed=11, cases=2))
    text = report.render()
    assert "/" in text or "(" in text  # counterexamples rendered exactly
