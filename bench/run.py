"""Benchmark of ekrkit: three workloads against its public API.

    python3 bench/run.py --workload verdict|sweep|grid --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement happens in a fresh
single-threaded Python process (worker.py) that imports ekrkit from `src/`.

--trace 0  starts one process that sets up and runs the workload for S
           seconds, with 4 processes that only set up before it and 4 after
           it (plus one uncounted warm-up); reports setup_s (median of the
           9), wall_ref (one pass in units of a reference computation timed
           in the same process) and peak_rss_mb, and prints wall_s (the
           median seconds of one pass) beside them.
--trace 1  one process that runs S/2 seconds untraced and S/2 traced, and
           reports the per-layer metrics (see layers.py).

Human-readable lines and a details object come first on stdout; the last
line is the JSON result.  The details also go to .bench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".bench_out"
SETUP_SAMPLES = 9
CHILD_GRACE_S = 150  # beyond --seconds, before a worker is killed

END_TO_END = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}


def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


def environment() -> dict:
    model = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
                  if ln.startswith("model name")), platform.processor())
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model, "loadavg_start": _read("/proc/loadavg").strip()}


class WorkerError(RuntimeError):
    pass


def run_worker(args, setup_only: bool) -> tuple[float, dict]:
    """Start a worker; return (seconds from spawn to `ready`, its result or {})."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(["src", HERE] + [p for p in [env.get("PYTHONPATH")] if p])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(args.seconds + CHILD_GRACE_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or json.loads(ready or "{}").get("ready") is not True:
        raise WorkerError(f"worker exited with code {proc.returncode} ({' '.join(cmd[1:])})")
    result = {}
    for line in rest.splitlines():
        if line.startswith("{"):
            result = json.loads(line).get("result", result)
    if not setup_only and not result:
        raise WorkerError("worker printed no result")
    return setup_s, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=("verdict", "sweep", "grid"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join("src", "ekrkit", "__init__.py")):
        print("error: run from the root of an ekrkit checkout (src/ekrkit is missing)",
              file=sys.stderr)
        return 2

    env = environment()
    # set-up samples sit on both sides of the measuring process, so that they
    # span the run rather than a few seconds of it
    extra = 0 if args.trace else SETUP_SAMPLES // 2
    try:
        if not args.trace:
            run_worker(args, setup_only=True)  # warm-up: bytecode and file cache
        setups = [run_worker(args, setup_only=True)[0] for _ in range(extra)]
        setup_s, res = run_worker(args, setup_only=False)
        setups.append(setup_s)
        setups += [run_worker(args, setup_only=True)[0] for _ in range(extra)]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = _read("/proc/loadavg").strip()

    if args.trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(res["per_layer"].items())}
    else:
        values = {"setup_s": statistics.median(setups), "wall_ref": res["wall_ref"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    attempted, failed = res["attempted"], res["failed"]
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "runs": {"setup_samples": len(setups), "setup_s_samples": setups,
                 "ops": res["ops"],
                 "samples_per_op": (res.get("traced") or res)["samples_per_op"]},
        "fail_ratio": failed / attempted, "failures": res["failures"],
        **{k: (res.get("traced") or res)[k]
           for k in ("wall_s", "wall_ref", "ref_s", "ref_samples", "op_median_s")},
        "records": res["records"],
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"details": details, "metrics": metrics}, fh, indent=1)

    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'wall_s':28s} {res['wall_s']:.6g} s (not bounded: it follows the host's speed)")
        print(f"{'ref_s':28s} {res['ref_s']:.6g} s (mean of {res['ref_samples']} reference runs)")
    print(f"{'fail_ratio':28s} {failed / attempted:.6g} ({failed} of {attempted} attempted)")
    for line in res["failures"]:
        print("FAILED " + line.rstrip(), file=sys.stderr)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    for suffix, unit in (("rows_per_s", "1/s"), ("us_per_node", "us"), ("_s", "s"),
                         ("ratio", "ratio"), ("bytes_out", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
