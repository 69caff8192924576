"""Suite harness: every suite passes, reports are replayable, generators are
deterministic, and an injected mutant validator is caught with a concrete
counterexample."""

import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

import bicyclic_reference
from realbicyclic import (
    GenConfig,
    IntegerMode,
    RationalMode,
    Elem,
    UnknownSuite,
    gen_elem,
    run_suite,
)
from realbicyclic import certificates, suites
from realbicyclic.order_geometry import factor_in_line_product, shrink_witness
from realbicyclic.semigroup import line_point, mul, mul_branch, natural_leq
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
     IntegerMode(2**70), RationalMode(30, 8),
     # both sides of the lowest-terms table's bound of 1024 entries, and far past it
     RationalMode(127, 8), RationalMode(128, 8), RationalMode(2**70, 10**6)],
)
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_gen_scalar_is_the_randrange_stream(mode, seed):
    # gen_elem draws by rejection on getrandbits; its coordinates, first then
    # second, point by point, must be the stream random.Random(seed).randrange
    # gives, at the edges of every range
    rng = random.Random(seed)
    if isinstance(mode, IntegerMode):
        want = [Fraction(rng.randrange(mode.max + 1)) for _ in range(2000)]
    else:
        want = [Fraction(rng.randrange(mode.max_num + 1), rng.randrange(1, mode.max_den + 1))
                for _ in range(2000)]
    cfg = GenConfig(seed=seed, scalar_mode=mode)
    got = [f for e in itertools.islice(gen_elem(cfg), 1000) for f in (e.a, e.b)]
    assert got == want and all(type(f) is Fraction for f in got)
    elems = list(itertools.islice(gen_elem(cfg), 1000))
    assert elems == [Elem(a, b) for a, b in zip(want[::2], want[1::2])]


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(seed=-1)
    with pytest.raises(ValueError, match="^max_num must be non-negative$"):
        RationalMode(-1, 8)
    with pytest.raises(ValueError, match="^max must be non-negative$"):
        IntegerMode(-1)
    with pytest.raises(ValueError):
        GenConfig(seed=2**64)
    with pytest.raises(ValueError):
        GenConfig(seed=0, cases=-5)
    with pytest.raises(ValueError):
        GenConfig(seed=0, cases=0)
    # a field of the wrong type is a TypeError naming the field, not a run
    # (seed=1.5, cases=True) or an AttributeError inside a suite
    for make, field in (
        (lambda: GenConfig(seed=1.5), "seed"),
        (lambda: GenConfig(seed=True), "seed"),
        (lambda: GenConfig(seed="7"), "seed"),
        (lambda: GenConfig(seed=2, cases=True), "cases"),
        (lambda: GenConfig(seed=2, cases=10.0), "cases"),
        (lambda: GenConfig(seed=2, scalar_mode=5), "scalar_mode"),
        (lambda: GenConfig(seed=2, scalar_mode=None), "scalar_mode"),
        (lambda: RationalMode(1.5, 2), "max_num"),
        (lambda: RationalMode(False, 2), "max_num"),
        (lambda: RationalMode(2, 2.5), "max_den"),
        (lambda: RationalMode(2, True), "max_den"),
        (lambda: IntegerMode(2.5), "max"),
        (lambda: IntegerMode(True), "max"),
    ):
        with pytest.raises(TypeError, match=f"^{field} must be"):
            make()
    for make, message in (
        (lambda: GenConfig(seed=1.5), "seed must be an int, not 1.5"),
        (
            lambda: GenConfig(seed=2, scalar_mode=5),
            "scalar_mode must be a RationalMode or an IntegerMode, not 5",
        ),
    ):
        with pytest.raises(TypeError) as info:
            make()
        assert str(info.value) == message
    # a config that is not a GenConfig is a TypeError at the first draw
    for call in (lambda: next(gen_elem("x")), lambda: run_suite("products", None)):
        with pytest.raises(TypeError, match="^cfg must be a GenConfig, not "):
            call()
    assert GenConfig(seed=3, scalar_mode=IntegerMode(4), cases=2).cases == 2


_SUITE_GOLDEN = {
    "axioms": (
        "ec04b8d2e885040a83b42dca46c87ca6dda436de5be92edbbc0cdf7f4d34b207",
        "410cb8a819d077b04e8e1b7cfa14515c3696b799fa8f01e941df6a4440ac47d0",
        "0cde9edf6a239701110b9950b180a1e12ea8fdb579d71cfd0c2dea0ed2b0a6b9",
        "edc7fbe4f39a2648d94d18950e25ddde3891735e3de8b9397de084b2398cfbe0",
    ),
    "order": (
        "75284b2e02c98a0572721fb44b9d093bb369baf0f3fe255bced2490f39d393a5",
        "93b21a7f0e8bdcde05ae25932fdd514f7906f7bbc961d388744854b52c7132a4",
        "c6275119c11152410158255435480e867ef526087cb201f3a6fb80d390f057ae",
        "ef1e8968546c2202f85a36bd080ca2f2f06f0095dc6b48eccdb5cf0fd421f6a4",
    ),
    "lines": (
        "3e14e8d365ab5133882451c9e9b8786713b66833307093afdb9f87cc178b9935",
        "7e33b9b080745fab36604580ff0ba1108c1cb0ef26cb83efa350746846fe7c75",
        "39142c2244cb915b3fbcf793caa2880978f678da7b320131614ae0bf9430837a",
        "5e4ae9a71dc4823d762c62927f48e9771f15e371ea9860d3e21f40f100691199",
    ),
    "products": (
        "b341f9d8d0ca42e63b0999224eb94690af8649a412e3d9696bdbf8622aafedba",
        "4eb7b2678c1365fc2e72dd8ccc462619407dc575cb0c9cd0a00852a3a24b0621",
        "50c99b22ee6235df0295dbae0508ae829869b160348c7a861dcbae831727824c",
        "9595059185d7660c2170dd0ebcc8cf1f654419c5bb63a0b218d62153a494d5d7",
    ),
    "translations": (
        "7ec6a302d036078b8c624f28bc5d96949e16a9aa44b8aabff1b92953ba8c26d7",
        "3e9a6ad39069f76e0d719c982887848d5b6b57dd8b50fceaf4c24bdc39978f7b",
        "fe1e073db3ff1333b63795789f89774406329377a8d385a8d72ec0f322ff434b",
        "84a206e05d9b25b57da38436159dadcf95e3580d8c61661f1ad115832314d39f",
    ),
    "witnesses": (
        "c2f16ccaeafca527ca23755499c1b53c96c7ece76023709780e1bac69c272f7d",
        "80c92f30b182abc7ce4aa57a3d639b5359477d3fefbc536ec385c758d872e556",
        "6e991c8b8c32245b97623bad9b565e6063e68fa2bd8409e09e34c2f43a4292a1",
        "6c03336f82bf84741d84246d4ba3f42148eabfc57bf9e0db1ca51c225617295b",
    ),
    "ac1": (
        "ea012f7421393db6f854f5dc9234fd48135ebb99f67fa5e56848efeee16e3538",
        "c0719220278b752738fcb61ecbeeec56ad7c4a7ba0d00cf7f1e3495ff2331e1b",
        "e8a1fb2e4d5b14f22be3bf1892e8ea39436d5fa418440433b2f56d681bf684b1",
        "fb0cee112e45ef345863205b72cc0e3ef900d66046f2adfd4f3b234d456e73c8",
    ),
    "ac2": (
        "2477897555e56a79e756e9d66fd354aaed2d81b93c672834f0756c97141c72d1",
        "ab62327307ddb51727dce00c433750bbf86ee13eaf1f4b5e872bf2af300bc45c",
        "df25b154ff50313ce5935bf9288ea138700edc2860dc5cd68bc2a64aacc0af89",
        "07481c7b4ec93160496af9318c9dbd6c369579b92b7a8fd2db64473b3cf10135",
    ),
    "bicyclic": (
        "d7d63bd1f56cb98f6ff8faab8c65933ee99ff9973fa152929b0dcaba3628f8a5",
        "71fc27a6323836cb982727cdbd611f9e2081896ae8478f8c7a07f5650b631c7a",
        "e794179ff7eb070810e9bb1f73ed07d598be4cb0b3d176f210acc23ff17b5e06",
        "40902a867c2805f55987253ba098e0bbff0912c5c55cb23596db68403821cb99",
    ),
}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_reports_golden(name):
    # sha256 of the report body (every line but elapsed), as recorded before
    # points were built in one step and the word oracle became a string
    # rewrite; the modes are the rational default and an integer grid
    modes = (RationalMode(), IntegerMode(25))
    configs = [GenConfig(seed=s, scalar_mode=m, cases=300) for m in modes for s in (5, 2**64 - 1)]
    got = tuple(
        hashlib.sha256("\n".join(run_suite(name, cfg).body_lines()).encode()).hexdigest()
        for cfg in configs
    )
    assert got == _SUITE_GOLDEN[name]


def test_bicyclic_word_oracle_matches_stack_reference():
    # every exponent tuple below 13, then wide ones, whose cancellations
    # need every halving step of the rewrite
    rng = random.Random(13)
    wide = [tuple(rng.randrange(600) for _ in range(4)) for _ in range(200)]
    for k, l, m, n in [*itertools.product(range(13), repeat=4), *wide]:
        got = suites._bicyclic_word_mul(k, l, m, n)
        assert got == bicyclic_reference.word_mul(k, l, m, n), (k, l, m, n)


@pytest.mark.parametrize("branch", ["lt", "eq", "gt"])
def test_bicyclic_suite_catches_a_wrong_product(monkeypatch, branch):
    # a product that is off by one on one branch is caught by the word oracle
    # on every case of that branch; the exponent formula never calls mul, so
    # it stays silent, and the forced branch pair reports the min formula
    def wrong_on_branch(e1, e2):
        p = mul(e1, e2)
        return Elem(p.a, p.b + 1) if mul_branch(e1, e2) == branch else p

    monkeypatch.setattr(suites, "mul", wrong_on_branch)
    report = run_suite("bicyclic", GenConfig(seed=7, scalar_mode=IntegerMode(12), cases=200))
    checks = Counter(f.check for f in report.failures)
    assert checks == {"bicyclic-word": report.branch_counts[branch] - 1, "mul-min-formula": 1}
    assert checks["bicyclic-word"] > 0


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


def _wrong_unless_lt(e1, e2):
    """The product, with its second coordinate one too big off the lt branch."""
    p = mul(e1, e2)
    return p if mul_branch(e1, e2) == "lt" else Elem(p.a, p.b + 1)


def _accepts_all(*args):
    """A neighbourhood or preimage that holds every point."""
    return SimpleNamespace(member=lambda e: True)


_BREAKS = [
    # suite, the module and name replaced, the replacement, the checks it fails
    ("axioms", suites, "mul", _wrong_unless_lt,
     {"associativity", "idempotents-commute", "inverse-of-inverse", "inverse-restores",
      "mul-min-formula"}),
    ("axioms", suites, "mul_branch", lambda e1, e2: "eq", {"branch-coverage"}),
    ("order", suites, "natural_leq", lambda s, t: not natural_leq(s, t),
     {"antisymmetry", "leq-witness", "leq-witness-none", "order-characterisations",
      "reflexivity"}),
    ("order", suites, "natural_leq", lambda s, t: natural_leq(s, t) and s.a - t.a <= 1,
     {"leq-witness-none", "order-characterisations", "transitivity"}),
    ("order", suites, "mul", _wrong_unless_lt,
     {"leq-witness", "mul-min-formula", "order-characterisations", "order-compatibility"}),
    ("lines", suites, "inv", lambda e: e, {"inversion-flips-line"}),
    ("lines", suites, "line_point", lambda line, x: line_point(line, x / 2),
     {"line-roundtrip", "order-nbhd-edge", "order-nbhd-inside"}),
    ("lines", suites, "NbhdOrder", _accepts_all, {"order-nbhd-edge", "order-nbhd-off-line"}),
    ("products", suites, "mul", _wrong_unless_lt,
     {"factor-product", "mul-min-formula", "product-membership"}),
    ("products", suites, "factor_in_line_product",
     lambda target, l1, l2: factor_in_line_product(target, l1, l2)[::-1],
     {"factor-lines", "factor-product"}),
    ("translations", suites, "mul", _wrong_unless_lt,
     {"mul-min-formula", "translate-backward", "translate-forward"}),
    ("translations", suites, "preimage_up_segment", _accepts_all, {"preimage-pointwise"}),
    ("witnesses", suites, "natural_leq", lambda s, t: False,
     {"shrink-dual", "shrink-dual-hereditary", "shrink-hereditary", "shrink-witness"}),
    ("witnesses", suites, "shrink_witness_dual", shrink_witness, {"shrink-dual-direct"}),
    ("bicyclic", suites, "_bicyclic_word_mul", lambda k, l, m, n: Elem(k + m, l + n),
     {"bicyclic-exponents", "bicyclic-word"}),
    ("ac1", certificates, "falsify", lambda *args: None, {"ac1-corrupt-falsified"}),
    ("ac1", certificates, "falsify", lambda *args: Elem(0, 0), {"ac1-honest-unfalsifiable"}),
    ("ac2", certificates, "falsify", lambda *args: None, {"ac2-corrupt-falsified"}),
    ("ac2", certificates, "falsify", lambda *args: Elem(0, 0), {"ac2-honest-unfalsifiable"}),
]


@pytest.mark.parametrize(
    "name, module, attr, wrong, checks",
    _BREAKS,
    ids=[f"{name}-{attr}-{i}" for i, (name, _, attr, _, _) in enumerate(_BREAKS)],
)
def test_suite_reports_a_broken_operation(monkeypatch, name, module, attr, wrong, checks):
    # every failure report of every suite: a wrong product, order, line
    # operation, neighbourhood, witness, word oracle, branch tally or
    # falsifier is reported by the checks it breaks, not raised
    monkeypatch.setattr(module, attr, wrong)
    cases = 4 if name in ("ac1", "ac2") else 40
    report = run_suite(name, GenConfig(seed=7, cases=cases))
    lines = report.body_lines()
    assert lines[-1] == "status fail"
    failures = [line.split()[1] for line in lines if line.startswith("failure ")]
    assert {check.removeprefix("check=") for check in failures} == checks
