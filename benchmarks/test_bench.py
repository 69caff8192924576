"""Self-test of the benchmark.

    python3 -m unittest discover -s benchmarks -p 'test_*.py'

The gate must report a failure when it is fed a wrong product or an accepted
tampered certificate, both directly and through a whole measured run; the
comparison must give the verdicts its rules define; every workload at a tiny
size must report every metric named in ``BENCHMARK.json`` with its unit; and
without the library source the benchmark must exit with a non-zero code and
print no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def first_output(wl, lib, predicate):
    """The first item (and its output) of one untraced round that matches."""
    outs = run.run_round(wl, workloads.make_api(lib), None, None)
    for item, out in zip(wl.items, outs):
        if predicate(item):
            return item, out
    raise AssertionError("no such item")


def patched(lib, module: str, **names):
    """A copy of the library namespace with some names of one module replaced."""
    copy = SimpleNamespace(**vars(lib))
    mod = SimpleNamespace(**vars(getattr(lib, module)))
    for name, value in names.items():
        setattr(mod, name, value)
    setattr(copy, module, mod)
    return copy


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.lib = run.load_library()

    def test_honest_outputs_pass(self):
        for wl in (workloads.Algebra(self.lib, 5, 0.05), workloads.Certs(self.lib, 5, 0.25)):
            outs = run.run_round(wl, workloads.make_api(self.lib), None, None)
            for item, out in zip(wl.items, outs):
                self.assertTrue(item.check(item.arg, out), (wl.name, item.arg))

    def test_wrong_product_is_caught(self):
        wl = workloads.Algebra(self.lib, 5, 0.05)
        item, out = first_output(wl, self.lib, lambda it: it.run == wl._axioms)
        e1, e2, e3, left, x, y, verdict = out
        wrong = self.lib.semigroup.Elem(left.a + 1, left.b)
        self.assertFalse(item.check(item.arg, (e1, e2, e3, wrong, x, y, verdict)))
        item, out = first_output(wl, self.lib, lambda it: it.run == wl._lines)
        e, x1, x2, p, inside = out
        self.assertFalse(item.check(item.arg, (e, x1, x2, self.lib.semigroup.Elem(p.b, p.a + 1), inside)))

    def test_accepted_tampered_certificate_is_caught(self):
        wl = workloads.Certs(self.lib, 5, 0.25)
        for kind in ("ac1", "ac2"):
            item, out = first_output(wl, self.lib, lambda it: it.arg[0] == kind and it.arg[4])
            text, parsed, valid, w, violation = out
            self.assertTrue(item.check(item.arg, out))
            self.assertFalse(item.check(item.arg, (text, parsed, True, w, violation)))
            self.assertFalse(item.check(item.arg, (text, parsed, False, None, None)))

    def test_measured_run_counts_gate_failures(self):
        S = self.lib.semigroup

        def wrong_mul(e1, e2):
            p = S.mul(e1, e2)
            return S.Elem(p.a, p.b + 1)

        bad_mul = patched(self.lib, "semigroup", mul=wrong_mul)
        wl = workloads.Algebra(self.lib, 5, 0.05)
        m = run.measure(bad_mul, wl, 0.01, False, 1, min_rounds=1)
        self.assertGreater(m.failed, 0)

        accept_all = patched(self.lib, "certificates", validate_cert=lambda cert: True)
        wl = workloads.Certs(self.lib, 5, 0.25)
        m = run.measure(accept_all, wl, 0.01, False, 1, min_rounds=1)
        self.assertEqual(m.failed, sum(1 for it in wl.items if it.arg[4]) * m.rounds_run)


class CompareTest(unittest.TestCase):
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.5, 99.5, 101.5, 98.5, 100.0]

    def verdict(self, change, better="higher", bound=0.2, parent=None):
        return compare.verdict(parent or self.parent, change, better, bound)["verdict"]

    def test_verdicts(self):
        self.assertEqual(self.verdict([v * 1.2 for v in self.parent]), "improved")
        self.assertEqual(self.verdict([v * 1.3 for v in self.parent], better="lower"), "worse")
        self.assertEqual(self.verdict([v * 0.9 for v in self.parent]), "no worse")
        self.assertEqual(self.verdict([v * 1.2 for v in self.parent[:9]]), "unresolved")
        wide = [60.0, 140.0] * 5
        self.assertEqual(self.verdict([100.0] * 10, parent=wide), "unresolved")

    def test_improvement_needs_nine_wins_in_ten(self):
        change = [v * 1.2 for v in self.parent[:8]] + [v * 0.99 for v in self.parent[8:]]
        self.assertNotEqual(self.verdict(change), "improved")


class ContractTest(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]), sorted(workloads.WORKLOADS))

    def test_tiny_runs_report_every_metric(self):
        for name in workloads.WORKLOADS:
            for traced, want in ((False, run.END_TO_END), (True, run.PER_LAYER)):
                with self.subTest(workload=name, traced=traced):
                    record = run.run_workload(
                        name, 3, 0.01, traced, scale=0.05, min_samples=1, min_rounds=1
                    )
                    self.assertTrue(record["correct"])
                    self.assertEqual(record["failed"], 0)
                    got = {k: v["unit"] for k, v in record["metrics"].items()}
                    self.assertEqual(got, want)
                    for k, v in record["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), k)

    def test_exits_non_zero_without_library_source(self):
        bare = HERE / "out" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (bare / "benchmarks").mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in HERE.glob("*.py"):
                shutil.copy(path, bare / "benchmarks")
            proc = subprocess.run(
                [sys.executable, "benchmarks/run.py", "--workload", "algebra", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
