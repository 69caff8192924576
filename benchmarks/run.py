"""realbicyclic benchmark: one workload per run, every output checked.

    python3 benchmarks/run.py --workload algebra --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 1

A run imports the library from ``src/`` beside this directory, builds the
workload's inputs from the seed, then repeats rounds of checked items until
``--seconds`` have passed.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
The line before it, ``{"record": ...}``, carries everything else (machine
facts, seed, commit, sample counts, fail ratio, output digest); ``--record
FILE`` appends it to a JSON-lines file for ``compare.py``.  ``--workload all``
runs each workload in its own process and prints every metric in a table.

Timing.  Every round runs the same items, so each item is timed once per
round.  An item's time is its best over the run's rounds: interference from
other tenants of a shared machine only ever slows an item down, so the best
time is the one the item takes whenever the machine is quiet.  Throughput and
the latency percentiles are computed from those best times.  End-to-end
metrics come only from untraced rounds; a traced run alternates untraced and
traced rounds, and ``trace.overhead`` compares the two.  ``WORKLOADS.md``
says what each metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "realbicyclic"
MODULES = (
    "semigroup",
    "generate",
    "order_geometry",
    "topology",
    "suites",
    "certificates",
    "certio",
    "exprparse",
    "cli",
)

# setup_s is the median of all set-ups of a run: a few before the first round
# and the rest spread over the run, so that one slow moment of a shared
# machine cannot decide it
SETUPS_BEFORE = 3
SETUPS_DURING = 16
MIN_ROUNDS = 5  # measured rounds of each kind, beyond the warm-up round
MIN_LATENCY_SAMPLES = 100
SPAN_CAPACITY = 1 << 19  # about 25 MB of spans; traced rounds stop when full
COLD_STARTS = 10  # child processes timed for cli.cold_start_ms in a traced run
OVERTIME_S = 120  # a run ends this long after --seconds whatever its counts

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-call figures: metric -> (unit, span name, ns per unit, divide by work)
PER_CALL = {
    "semigroup.Elem.ns": ("ns", "semigroup.Elem", 1, False),
    "semigroup.mul.ns": ("ns", "semigroup.mul", 1, False),
    "semigroup.inv.ns": ("ns", "semigroup.inv", 1, False),
    "semigroup.natural_leq.ns": ("ns", "semigroup.natural_leq", 1, False),
    "generate.gen_elem.ns": ("ns", "generate.gen_elem", 1, False),
    "order_geometry.shrink_witness.ns": ("ns", "order_geometry.shrink_witness", 1, False),
    "order_geometry.line_product.ns": ("ns", "order_geometry.line_product", 1, False),
    "order_geometry.preimage_up_segment.ns": ("ns", "order_geometry.preimage_up_segment", 1, False),
    "topology.member.ns": ("ns", "topology.member", 1, False),
    "suites.run_suite.us_per_case": ("us", "suites.run_suite", 1e3, True),
    "certificates.cert_ac1.us": ("us", "certificates.cert_ac1", 1e3, False),
    "certificates.cert_ac2.us": ("us", "certificates.cert_ac2", 1e3, False),
    "certificates.validate_ac1.us": ("us", "certificates.validate_ac1", 1e3, False),
    "certificates.validate_ac2.us": ("us", "certificates.validate_ac2", 1e3, False),
    "certificates.falsify.ns_per_sample": ("ns", "certificates.falsify", 1, True),
    "certio.cert_to_text.us": ("us", "certio.cert_to_text", 1e3, False),
    "certio.cert_from_text.us": ("us", "certio.cert_from_text", 1e3, False),
    "cli.main.us": ("us", "cli.main", 1e3, False),
    "exprparse.parse_expr.us": ("us", "exprparse.parse_expr", 1e3, False),
}

PER_LAYER = {
    **{name: spec[0] for name, spec in PER_CALL.items()},
    "certificates.falsify.samples": "count",
    "certio.bytes_per_cert": "bytes",
    "cli.import_ms": "ms",
    "cli.cold_start_ms": "ms",
    **{
        f"{m}.{k}": u
        for m in MODULES
        for k, u in (("calls", "calls/item"), ("busy_s", "s"), ("self_share", "ratio"))
    },
    "trace.overhead": "ratio",
}


class SourceMissing(RuntimeError):
    pass


def load_library() -> SimpleNamespace:
    """Import every library module afresh from ``src/``."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    origin = Path(mods["semigroup"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SourceMissing(f"{PACKAGE} was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def set_up(name: str, seed: int, scale: float, times: list):
    """Import every module afresh and build the workload's inputs; appends
    (set-up seconds, import seconds) to ``times``."""
    import workloads

    gc.collect()
    t0 = perf_counter()
    lib = load_library()
    t1 = perf_counter()
    wl = workloads.WORKLOADS[name](lib, seed, scale)
    t2 = perf_counter()
    times.append((t2 - t0, t1 - t0))
    return lib, wl


def run_round(wl, api, tracer, lat):
    """One pass over the items; appends each item's latency in ns to ``lat``
    and returns the outputs (an exception object where an item raised)."""
    ctx = wl.begin_round(api)
    outs = []
    pc = perf_counter_ns
    for k, item in enumerate(wl.items):
        if tracer is not None:
            tracer.current_item = k
            span = tracer.open(tracer.intern("bench.item"))
        t0 = pc()
        try:
            out = item.run(ctx, item.arg)
        except Exception as exc:  # an item that raises is a failed item
            out = exc
        t1 = pc()
        if tracer is not None:
            tracer.close(span)
        if lat is not None:
            lat.append(t1 - t0)
        outs.append(out)
    return outs


def best_times(lat, n_items: int):
    """Each item's best latency in ns over the rounds in ``lat`` (round-major)."""
    return [min(lat[k::n_items]) for k in range(n_items)]


def quantile(sorted_values, q: float) -> float:
    """Linearly interpolated quantile of an already sorted sequence."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def check_round(wl, outs, first):
    """Gate one round's outputs.  Returns their canonical texts and the
    number of checked cases that failed: an item fails when it raised, when
    the gate rejects its output, or when its output differs from round 0's."""
    canons = []
    failed = 0
    for k, (item, out) in enumerate(zip(wl.items, outs)):
        ok = False
        canon = None
        if not isinstance(out, Exception):
            try:
                canon = item.canon(out)
                ok = item.check(item.arg, out)
            except Exception:  # a gate that cannot read an output rejects it
                ok = False
        if first is not None and canon != first[k]:
            ok = False
        canons.append(canon)
        failed += 0 if ok else item.weight
    return canons, failed


def measure(lib, wl, seconds: float, traced: bool, min_samples: int,
            min_rounds: int = MIN_ROUNDS, extra_setup=None):
    """Rounds until ``seconds`` have passed and the minimum counts are met.

    Round 0 warms caches and is not timed.  With ``traced`` the odd rounds go
    through span-recording wrappers.  ``extra_setup`` is called
    ``SETUPS_DURING`` times, spread over the run, between rounds.
    """
    import spans
    import workloads

    plain_api = workloads.make_api(lib)
    tracer = spans.Tracer(SPAN_CAPACITY) if traced else None
    traced_api = workloads.make_api(lib, tracer) if traced else None
    lat = {False: array("q"), True: array("q")}
    rounds = {False: 0, True: 0}
    first = None
    counts = {}
    attempted = failed = 0
    round_no = 0
    setups_done = 0
    spans_per_round = 0
    n_items = len(wl.items)
    n_sampled = sum(1 for item in wl.items if item.sampled)
    m_items = sum(item.weight for item in wl.items)
    gc.collect()
    start = perf_counter()
    while True:
        use_trace = traced and round_no % 2 == 1
        if use_trace and tracer.count + 2 * spans_per_round > tracer.capacity:
            break
        before = tracer.count if use_trace else 0
        measured = round_no > 0
        outs = run_round(
            wl,
            traced_api if use_trace else plain_api,
            tracer if use_trace else None,
            lat[use_trace] if measured else None,
        )
        if use_trace:
            spans_per_round = max(spans_per_round, tracer.count - before)
        rounds[use_trace] += measured
        canons, bad = check_round(wl, outs, first)
        attempted += m_items
        failed += bad
        if first is None:
            first = canons
            counts = wl.layer_counts(outs)
        round_no += 1
        elapsed = perf_counter() - start
        while (
            extra_setup
            and setups_done < SETUPS_DURING
            and elapsed >= seconds * (setups_done + 1) / (SETUPS_DURING + 1)
        ):
            extra_setup()
            setups_done += 1
        enough = (
            rounds[False] >= min_rounds
            and (not traced or rounds[True] >= min_rounds)
            and rounds[False] * n_sampled >= min_samples
        )
        if (elapsed >= seconds and enough) or elapsed >= seconds + OVERTIME_S:
            break
    while extra_setup and setups_done < SETUPS_DURING:
        extra_setup()
        setups_done += 1
    return SimpleNamespace(
        lat=lat,
        rounds=rounds,
        attempted=attempted,
        failed=failed,
        digest=workloads.digest(first),
        tracer=tracer,
        counts=counts,
        items_per_round=m_items,
        n_items=n_items,
        latency_samples=rounds[False] * n_sampled,
        rounds_run=round_no,
        elapsed=perf_counter() - start,
    )


def end_to_end(m, wl, setup_s: float) -> dict:
    best = best_times(m.lat[False], m.n_items)
    sampled = sorted(t for t, item in zip(best, wl.items) if item.sampled)
    values = {
        "setup_s": setup_s,
        "items_per_s": m.items_per_round / (sum(best) / 1e9),
        "item_p50_ms": quantile(sampled, 0.5) / 1e6,
        "item_p90_ms": quantile(sampled, 0.9) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB on Linux
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}


def cold_start_ms() -> float:
    """Best wall time of a fresh ``python -m realbicyclic eval`` child process
    over ``COLD_STARTS`` runs: interpreter start-up plus the import of every
    module plus one command."""
    env = {k: v for k, v in os.environ.items() if k != "REALBICYCLIC_SEED"}
    env["PYTHONPATH"] = str(SRC)
    best = float("inf")
    for _ in range(COLD_STARTS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", PACKAGE, "eval", "(1,3)*(2,5)"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        best = min(best, perf_counter() - t0)
        if proc.returncode != 0 or proc.stdout != "(1,6)\n":
            raise RuntimeError(f"cold start printed {proc.stdout!r} and exited {proc.returncode}")
    return best * 1e3


def per_layer(m, import_s: float):
    import spans

    stats = spans.SpanStats(m.tracer)
    traced_rounds = m.rounds[True]
    traced_wall_s = sum(m.lat[True]) / 1e9
    items = traced_rounds * m.n_items or 1
    values = {}
    for metric, (unit, name, per, by_work) in PER_CALL.items():
        ns = stats.median_ns_per_work(name) if by_work else stats.median_ns(name)
        values[metric] = ns / per
    values["certificates.falsify.samples"] = stats.total_work("certificates.falsify") / max(1, traced_rounds)
    values["certio.bytes_per_cert"] = m.counts.get("certio.bytes_per_cert", 0.0)
    values["cli.import_ms"] = import_s * 1e3
    values["cli.cold_start_ms"] = cold_start_ms()
    totals = stats.module_totals()
    for mod in MODULES:
        calls, busy = totals.get(mod, (0, 0.0))
        values[f"{mod}.calls"] = calls / items
        values[f"{mod}.busy_s"] = busy
        values[f"{mod}.self_share"] = busy / traced_wall_s if traced_wall_s else 0.0
    values["trace.overhead"] = sum(best_times(m.lat[False], m.n_items)) / sum(
        best_times(m.lat[True], m.n_items)
    )
    extra = {
        "span_self_share": {
            name: round(sum(times) / 1e9 / traced_wall_s, 6) for name, times in stats.self_ns.items()
        },
        "spans": m.tracer.count,
        "traced_rounds": traced_rounds,
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}, extra


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "cpu": cpu,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, scale: float = 1.0,
                 min_samples: int = MIN_LATENCY_SAMPLES, min_rounds: int = MIN_ROUNDS) -> dict:
    """One benchmark run in this process; returns the record."""
    times = []
    wl = None
    for _ in range(SETUPS_BEFORE):
        if wl is not None:
            wl.close()
        lib, wl = set_up(name, seed, scale, times)

    def extra_setup():
        set_up(name, seed, scale, times)[1].close()

    try:
        m = measure(lib, wl, seconds, traced, min_samples, min_rounds, extra_setup)
    finally:
        wl.close()
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "commit": git_commit(),
        "machine": machine(),
        "correct": m.failed == 0 and m.attempted > 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "fail_ratio": m.failed / m.attempted,
        "digest": m.digest,
        "rounds": m.rounds_run,
        "items_per_round": m.items_per_round,
        "measured_s": round(m.elapsed, 3),
        "item_latency_samples": m.latency_samples,
        "setup_times_s": [round(t, 6) for t, _ in times],
    }
    setup_s = statistics.median(t for t, _ in times)
    if traced:
        record["metrics"], record["trace_extra"] = per_layer(m, statistics.median(i for _, i in times))
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace-{name}-seed{seed}.csv.gz"
        m.tracer.write(path)
        record["trace_file"] = str(path.relative_to(ROOT))
    else:
        record["metrics"] = end_to_end(m, wl, setup_s)
    return record


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Each workload in its own process, then one table of every metric."""
    import workloads

    records = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        records.append(json.loads(lines[-2])["record"])
    names = list(records[0]["metrics"])
    width = max(len(n) for n in names) + 2
    print(f"{'metric':<{width}}{'unit':<12}" + "".join(f"{r['workload']:>14}" for r in records))
    for metric in names:
        unit = records[0]["metrics"][metric]["unit"]
        cells = "".join(f"{r['metrics'][metric]['value']:>14.6g}" for r in records)
        print(f"{metric:<{width}}{unit:<12}{cells}")
    for key, unit in (("fail_ratio", "ratio"), ("attempted", "count"), ("item_latency_samples", "count")):
        print(f"{key:<{width}}{unit:<12}" + "".join(f"{r[key]:>14.6g}" for r in records))
    print(f"{'digest':<{width}}{'':<12}" + "".join(f"{r['digest']:>18}" for r in records))
    return 0 if all(r["correct"] for r in records) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="realbicyclic benchmark")
    ap.add_argument("--workload", required=True, choices=("algebra", "certs", "cli", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="FILE", help="append the run's record to this JSON-lines file")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no library source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"record": record}, sort_keys=True))
    result = {key: record[key] for key in ("correct", "attempted", "failed")}
    result["metrics"] = record["metrics"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
