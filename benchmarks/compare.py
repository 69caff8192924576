"""Compare a parent and a change, one row per (end-to-end metric, workload).

    python3 benchmarks/compare.py pairs PARENT_DIR CHANGE_DIR --workload certs \
        --seed 7 --pairs 10 --seconds 15 --out results/
    python3 benchmarks/compare.py table results/parent.jsonl results/change.jsonl \
        --seed 7 --claim items_per_s:certs

``pairs`` runs ``benchmarks/run.py`` of two checkouts in alternating order
(parent first in even pairs, change first in odd ones) and appends each run's
record to ``parent.jsonl`` or ``change.jsonl``.  ``table`` pairs the records
of the two files in order, per workload and seed, and gives each row a
verdict:

* improved: at least 10 pairs, the change wins at least 9 in 10 of all pairs
  (ties win nothing), and the medians differ in the better direction by more
  than the parent's interquartile range;
* worse: the change's median is worse than the parent's by more than the
  metric's bound in ``BENCHMARK.json``, or the change fails more items;
* unresolved: fewer than 10 pairs, or the parent's spread (interquartile
  range over median) is wider than the bound and not every change run reads
  better than every parent run;
* no worse: otherwise.

A claim (``--claim METRIC:WORKLOAD``) is met only when its row is improved on
records of the seed given with ``--seed``, which should be one not used while
the change was written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spread(values):
    if len(values) < 2:
        return 0.0, values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1, q1, q3


def verdict(parent, change, better: str, bound: float) -> dict:
    """Verdict on paired runs of one metric; ``parent[i]`` pairs ``change[i]``."""
    n = min(len(parent), len(change))
    parent, change = parent[:n], change[:n]
    sign = 1 if better == "higher" else -1
    pm, cm = statistics.median(parent), statistics.median(change)
    iqr, q1, q3 = spread(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    worse_by = sign * (pm - cm) / pm if pm else 0.0
    if n < MIN_PAIRS:
        result = "unresolved"
    elif wins >= WIN_SHARE * n and sign * (cm - pm) > iqr:
        result = "improved"
    elif worse_by > bound:
        result = "worse"
    elif iqr / abs(pm) > bound and not all(sign * (c - p) > 0 for c in change for p in parent):
        result = "unresolved"
    else:
        result = "no worse"
    return {
        "pairs": n,
        "parent_median": pm,
        "parent_q1": q1,
        "parent_q3": q3,
        "change_median": cm,
        "ratio": cm / pm if pm else float("nan"),
        "wins": wins,
        "verdict": result,
    }


def group(records, seed):
    out = {}
    for r in records:
        if r.get("trace"):
            continue
        if seed is not None and r["seed"] != seed:
            continue
        out.setdefault(r["workload"], []).append(r)
    return out


def table(args) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = group(load(args.parent), args.seed), group(load(args.change), args.seed)
    claims = set(args.claim or [])
    if claims and args.seed is None:
        print("error: a claim is checked on one seed; give --seed", file=sys.stderr)
        return 2
    bad = False
    seen = set()
    print(f"{'metric':<14}{'workload':<10}{'n':>3}  {'parent median [q1, q3]':<34}"
          f"{'change':>12}{'ratio':>8}{'wins':>6}  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        for spec in bench["end_to_end"]:
            name = spec["name"]
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            v = verdict(p, c, spec["better"], spec["bound"])
            p_failed = sum(r["failed"] for r in p_runs[: v["pairs"]])
            c_failed = sum(r["failed"] for r in c_runs[: v["pairs"]])
            if c_failed > p_failed:
                v["verdict"] = "worse (fails more items)"
            key = f"{name}:{workload}"
            seen.add(key)
            note = ""
            if key in claims:
                met = v["verdict"] == "improved"
                note = "  claim met" if met else "  CLAIM NOT MET"
                bad |= not met
            bad |= v["verdict"].startswith("worse")
            print(
                f"{name:<14}{workload:<10}{v['pairs']:>3}  "
                f"{v['parent_median']:>11.5g} [{v['parent_q1']:.5g}, {v['parent_q3']:.5g}]".ljust(51)
                + f"{v['change_median']:>12.5g}{v['ratio']:>8.3f}{v['wins']:>6}  {v['verdict']}"
                + f" (bound {spec['bound']}){note}"
            )
    for key in sorted(claims - seen):
        print(f"{key}: no paired records for this claim  CLAIM NOT MET")
        bad = True
    return 1 if bad else 0


def pairs(args) -> int:
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    sides = {"parent": Path(args.parent_dir).resolve(), "change": Path(args.change_dir).resolve()}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            cmd = [
                sys.executable, "benchmarks/run.py", "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
                "--record", str(out / f"{side}.jsonl"),
            ]
            proc = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"error: {side} run {i} exited with {proc.returncode}", file=sys.stderr)
                return 1
            print(f"pair {i} {side}: {proc.stdout.strip().splitlines()[-1]}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Compare benchmark results of a parent and a change.")
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("table", help="verdict per (metric, workload) from two record files")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--seed", type=int, help="use only records of this seed")
    p.add_argument("--claim", action="append", metavar="METRIC:WORKLOAD")
    p = sub.add_parser("pairs", help="run alternating pairs of two checkouts")
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    return table(args) if args.command == "table" else pairs(args)


if __name__ == "__main__":
    sys.exit(main())
