"""One fresh, single-threaded Python process of the benchmark.

It imports ekrkit, builds the workload's inputs, prints a `ready` line (the
parent times interpreter start to that line as setup), and unless started
with --setup-only runs the workload's operations round-robin until the time
is up.  Each operation is timed on its own and checked outside the timing;
wall_s is the sum over operations of their median time, i.e. the median
time of one pass over the workload.  After each operation a fixed reference
computation runs for REF_SHARE of the operation's time; wall_ref is the mean
time of one pass in units of the reference (see summary).

With --trace the first half of the time runs untraced and the second half
with every public ekrkit function wrapped (see spans.py); the per-layer
metrics come from the spans of the traced half, and the difference of the
two halves is the tracing overhead.

Run through run.py, not directly.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import layers
import spans
import workloads

OUT_DIR = ".bench_out"
MAX_FAILURE_MESSAGES = 20
REF_SHARE = 0.02  # reference time after an op, as a share of the op's time


def reference() -> int:
    """Fixed integer work that calls nothing in ekrkit: a 64-bit xorshift walk.

    It allocates no container, so garbage collection settings do not move it.
    """
    x, acc, mask = 0x9E3779B97F4A7C15, 0, (1 << 64) - 1
    for _ in range(10_000):
        x ^= (x << 13) & mask
        x ^= x >> 7
        x ^= (x << 17) & mask
        acc += x & 255
    return acc


def run_reference(refs: list, seconds: float) -> float:
    """Run the reference at least once and until `seconds` pass; log each time
    in `refs` and return the mean time of this block."""
    end = time.perf_counter() + seconds
    block = []
    while True:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        block.append(t1 - t0)
        if t1 >= end:
            refs += block
            return statistics.fmean(block)


def run_ops(ops, seconds: float, tracer=None) -> dict:
    """Run the ops round-robin until `seconds` pass (every op at least once).

    Each execution's time is also divided by the mean of the reference blocks
    run just before and just after it (`in_ref`).
    """
    phase = {"times": {op.label: [] for op in ops}, "in_ref": {op.label: [] for op in ops},
             "records": {}, "attempted": 0, "failed": 0, "failures": [], "roots": [],
             "refs": []}
    times = phase["times"]
    ref_before = run_reference(phase["refs"], 0.0)
    deadline = time.perf_counter() + seconds
    while True:
        for op in ops:
            done = times[op.label]
            if done and all(times.values()) and (
                    time.perf_counter() + statistics.median(done) > deadline):
                return phase
            span = tracer.open("op:" + op.label) if tracer is not None else None
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:
                out, problems = None, [traceback.format_exc(limit=3)]
            else:
                problems = None
            done.append(time.perf_counter() - t0)
            if span is not None:
                tracer.close(span)
                phase["roots"].append((op.label, span))
            ref_after = run_reference(phase["refs"], REF_SHARE * done[-1])
            phase["in_ref"][op.label].append(done[-1] * 2 / (ref_before + ref_after))
            ref_before = ref_after
            if problems is None:
                problems = _check(op, out, phase["records"])
            phase["attempted"] += 1
            if problems:
                phase["failed"] += 1
                room = MAX_FAILURE_MESSAGES - len(phase["failures"])
                phase["failures"] += [f"{op.label}: {p}" for p in problems][:room]


def _check(op, out, records: dict) -> list:
    """Problems with one output; exact figures must repeat across executions."""
    try:
        problems = op.check(out)
        record = op.record(out)
    except Exception:
        return ["check raised: " + traceback.format_exc(limit=3)]
    if op.label in records and records[op.label] != record:
        problems.append(f"exact figures changed between repeats: "
                        f"{records[op.label]} then {record}")
    records[op.label] = record
    return problems


def summary(phase: dict) -> dict:
    """wall_s: median pass time in seconds; wall_ref: mean pass time in reference units.

    The host runs the same code up to twice as slow for milliseconds to
    minutes at a time, and the share of slow time differs from run to run,
    so wall_s spreads with it.  The reference, timed in the same process
    just before and after each execution, is slowed alike, so an execution's
    time in reference units keeps what is ekrkit's own cost.  Means, not
    medians, because a mean scales with the slow share and a median jumps.
    """
    times = phase["times"]
    medians = {label: statistics.median(ts) for label, ts in times.items()}
    ref_s = statistics.fmean(phase["refs"])
    counts = [len(ts) for ts in times.values()]
    return {"wall_s": sum(medians.values()),
            "wall_ref": sum(statistics.fmean(r) for r in phase["in_ref"].values()),
            "ref_s": ref_s, "ref_samples": len(phase["refs"]), "op_median_s": medians,
            "samples_per_op": [min(counts), max(counts)]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        setup_span = tracer.open("setup")
    ops = workloads.build(args.workload, args.seed, OUT_DIR)
    if tracer is not None:
        tracer.close(setup_span)
        tracer.uninstall()
    print(json.dumps({"ready": True}), flush=True)
    if args.setup_only:
        return 0

    result = {"ops": len(ops)}
    if tracer is not None:
        untraced = run_ops(ops, args.seconds / 2)
        tracer.install()
        traced = run_ops(ops, args.seconds / 2, tracer)
        tracer.uninstall()
        phases = [untraced, traced]
        result["untraced"], result["traced"] = un, tr = summary(untraced), summary(traced)
        # the untraced pass at the traced half's host speed, so that a change
        # of speed between the halves does not count as tracing overhead
        result["per_layer"] = layers.metrics(tracer, setup_span, traced,
                                             un["wall_s"] * tr["ref_s"] / un["ref_s"])
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}"))
    else:
        phases = [run_ops(ops, args.seconds)]
        result.update(summary(phases[0]))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["records"] = phases[-1]["records"]
    result["attempted"] = sum(ph["attempted"] for ph in phases)
    result["failed"] = sum(ph["failed"] for ph in phases)
    result["failures"] = [f for ph in phases for f in ph["failures"]][:MAX_FAILURE_MESSAGES]
    for name in os.listdir(OUT_DIR):
        if name.startswith(f"grid-{os.getpid()}."):
            os.remove(os.path.join(OUT_DIR, name))
    print(json.dumps({"result": result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
