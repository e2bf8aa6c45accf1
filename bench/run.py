"""walras benchmark: certified solves on seeded workloads.

    python3 bench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

One process, one thread, one client in a closed loop: each op (an engine
run or oracle/structure query on one generated input, with its check)
starts when the previous one has returned. The inputs of a run are a
function of (workload, seed, --seconds) alone: --seconds sets the number
of batches through each workload's nominal batch time, so two commits
compared at the same seed run the same markets.

--trace 0 prints the end-to-end metrics. --trace 1 runs the same inputs
three times, the second time with every public walras function wrapped,
prints the per-layer metrics and saves the spans under .bench_out/.
Human-readable lines come first; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# walras comes from the checkout's src/ and nowhere else
sys.path.insert(0, str(SRC))
try:
    import walras
    import checks
    import tracer
    import workloads
except ImportError as exc:
    raise SystemExit(f"error: cannot import walras from {SRC}: {exc}")
if Path(walras.__file__).resolve().parent != SRC / "walras":
    raise SystemExit(f"error: imported walras from {walras.__file__}, not {SRC}")

SETUP_REPEATS = 3
MAX_REPORTED_FAILURES = 5

IMPORT_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
started = time.perf_counter()
import walras, walras.auctions, walras.ggs2, walras.structure
print(time.perf_counter() - started)
"""


def import_seconds() -> float:
    """Time of a cold import of walras, numpy included, in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def clear_caches() -> None:
    """Empty every functools cache in walras, so two passes start alike."""
    for name, module in list(sys.modules.items()):
        if name == "walras" or name.startswith("walras."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def run_ops(ops, tally, span=None):
    """Run ops in order; return latencies, per-op records and the ops that
    did not verify, as (index, label, verdict)."""
    latencies, records, failures = [], [], []
    for label, fn in ops:
        started = time.perf_counter()
        try:
            if span is None:
                verdict, record = fn(tally)
            else:
                with span("bench.op"):
                    verdict, record = fn(tally)
        except Exception as exc:    # an op that raises is a failed op, not a crash
            verdict = checks.FAILED
            record = ("error", label, type(exc).__name__, str(exc))
            if len(failures) < MAX_REPORTED_FAILURES:
                traceback.print_exc(file=sys.stderr)
        latencies.append(time.perf_counter() - started)
        records.append(repr(record).encode())
        if verdict != checks.OK:
            failures.append((len(records) - 1, label, verdict))
    return latencies, records, failures


def tail(latencies):
    """The latency with at least ten ops, and at least a tenth of the ops,
    above it; returns (latency, percentile, ops above).

    Ten ops above is the highest percentile a run can resolve. The tenth
    caps it at p90 on long runs, whose largest ops are a handful of rare
    big inputs (corpus's biggest grid scans) whose number changes with the
    seed. With ten ops or fewer the slowest op is reported, none above it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    above = max(10, n // 10)
    return ordered[n - above - 1], 100.0 * (n - above) / n, above


def report_failures(failures, attempted) -> tuple[int, int, str]:
    """Print the first failures; return (failed, wrong, summary line)."""
    for index, label, verdict in failures[:MAX_REPORTED_FAILURES]:
        print(f"op {index} ({label}): {verdict}", file=sys.stderr)
    wrong = sum(v == checks.WRONG for _, _, v in failures)
    line = (f"fail_ratio {len(failures)}/{attempted}: {wrong} refuted by the checks, "
            f"{len(failures) - wrong} reported as failed by the program or raised")
    return len(failures), wrong, line


def timed_run(w, seed, batches):
    imports, gens = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        cases = None                # each repetition starts without the last one's inputs
        gc.collect()
        started = time.perf_counter()
        cases = w.generate(seed, batches)
        gens.append(time.perf_counter() - started)
    setup_s = statistics.median(i + g for i, g in zip(imports, gens))
    input_digest = workloads.digest(c.key() for c in cases)
    ops = w.op_list(cases)

    tally = workloads.Tally()
    started = time.perf_counter()
    latencies, records, failures = run_ops(ops, tally)
    wall = time.perf_counter() - started
    n = len(ops)
    failed, wrong, fail_line = report_failures(failures, n)

    tail_s, tail_pct, beyond = tail(latencies)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": n / wall,
        "op_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = [
        f"cases {len(cases)}, ops {n}, measured {wall:.2f} s",
        "setup: import + generation "
        + ", ".join(f"{i:.4f} + {g:.4f}" for i, g in zip(imports, gens)) + " s",
        fail_line,
        # printed, not a metric of BENCHMARK.json: corpus's median op is a
        # sub-millisecond tuple whose latency varies between runs by more
        # than the largest bound allowed
        f"op_p50_s {statistics.median(latencies)} s",
        f"op_tail_s is p{tail_pct:.4g} of {n} ops, {beyond} ops above it",
        f"auction steps {tally.steps}, sum of max final price {tally.pinf}",
        f"input_digest {input_digest}",
        f"result_digest {workloads.digest(records)}",
    ]
    if w.name == "corpus":
        info.append(f"soundness pairs with positive excess {tally.positive}")
    return metrics, n, failed, wrong == 0, info


def layer_metrics(summary, names):
    """Per-layer and per-function calls and self time from the span summary."""
    out = {}
    for layer in names:
        calls = secs = 0
        for name, (c, s) in summary.items():
            if name.split(".", 1)[0] == layer:
                calls += c
                secs += s
                out[f"{name}.calls"] = c
                out[f"{name}.self_s"] = s
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = secs
    return out


def plain_pass(w, seed, batches):
    """Generate and run the inputs untraced from empty caches."""
    clear_caches()
    gc.collect()
    started = time.perf_counter()
    cases = w.generate(seed, batches)
    ops = w.op_list(cases)
    _, records, _ = run_ops(ops, workloads.Tally())
    return time.perf_counter() - started, records


def traced_run(w, seed, batches, manifest):
    # untraced passes before and after the traced one: the first fills
    # memory the process keeps, so only the second is a fair comparison
    warm_wall, plain_records = plain_pass(w, seed, batches)
    clear_caches()
    gc.collect()

    market = getattr(walras.demand, "_market", None)
    cache_info = getattr(market, "cache_info", None)
    before = cache_info() if cache_info else None

    rec = tracer.Recorder()
    tracing = tracer.Tracing(rec, manifest["trace_exclude"])
    tally = workloads.Tally()
    try:
        started = time.perf_counter()
        with rec.span("bench.setup"):
            cases = w.generate(seed, batches)
            ops = w.op_list(cases)
        _, records, failures = run_ops(ops, tally, rec.span)
        wall = time.perf_counter() - started
    finally:
        tracing.restore()
    after = cache_info() if cache_info else None
    failed, wrong, fail_line = report_failures(failures, len(ops))
    plain_wall, again = plain_pass(w, seed, batches)
    spans_path = ROOT / ".bench_out" / f"spans-{w.name}-{seed}.npz"
    rec.save(spans_path)

    summary = tracer.summarize(rec)
    metrics = layer_metrics(summary, tracer.LAYERS + ("bench",))
    if before is not None:
        hits = after.hits - before.hits
        lookups = hits + after.misses - before.misses
    else:
        hits = lookups = 0
    metrics.update({
        "demand.market_hits": hits,
        "demand.market_lookups": lookups,
        "demand.market_hit_ratio": hits / lookups if lookups else 0.0,
        "auctions.steps": tally.steps,
        "auctions.steps_per_pinf": tally.steps / tally.pinf if tally.pinf else 0.0,
        "trace.wall_s": wall,
        "trace.overhead_s": wall - plain_wall,
    })
    layered = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    same = records == plain_records == again
    info = [
        fail_line,
        f"cases {len(cases)}, ops {len(ops)}, spans {len(rec.start)} saved to "
        f"{spans_path.relative_to(ROOT)}",
        f"traced wall {wall:.3f} s; untraced wall {warm_wall:.3f} s before, "
        f"{plain_wall:.3f} s after",
        f"layer self time {layered:.3f} s + bench self time "
        f"{metrics['bench.self_s']:.3f} s = {layered + metrics['bench.self_s']:.3f} s "
        f"of traced wall",
        f"_market cache: {hits} hits of {lookups} lookups"
        if before is not None else "_market cache: absent",
        f"result_digest {workloads.digest(records)} "
        f"({'identical to' if same else 'DIFFERS from'} the untraced passes)",
    ]
    return metrics, len(ops), failed, wrong == 0 and same, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((BENCH / "manifest.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    seed = w.default_seed if args.seed is None else args.seed
    # the traced run makes three passes, so each covers a third of the time
    batches = w.batches(args.seconds / 3 if args.trace else args.seconds)
    print(f"workload {w.name}, seed {seed}, {batches} batches, trace {args.trace}")

    if args.trace:
        metrics, attempted, failed, correct, info = traced_run(w, seed, batches, manifest)
        wanted = spec["per_layer"]
    else:
        metrics, attempted, failed, correct, info = timed_run(w, seed, batches)
        wanted = spec["end_to_end"]
    for line in info:
        print(line)
    out = {}
    for m in wanted:
        value = metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value} {m['unit']}")
    # correct: no result the program reported as a success was refuted, and
    # tracing changed no result; failed also counts the program's own
    # reported failures and raised exceptions
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
