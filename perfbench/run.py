"""su2ipt benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload search-small --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is the source under src/, put on
PYTHONPATH of a worker process (perfbench/worker.py); nothing is installed.
With --trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer ones. The line before it is a JSON record of the
environment, op counts and (traced) self-time shares. See perfbench/README.md.

Every worker runs with one BLAS thread (OPENBLAS_NUM_THREADS and friends set
to 1): the objective matrices are small enough that two threads slowed the
valence-6 search 17-fold and made the timings depend on the other load on
the machine. The environment record states the pinned value.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("search-small", "search-large", "certify", "exact")
# An untraced run splits --seconds over this many worker processes, one
# after the other, and pools their ops: timings vary by several percent
# from process to process, and each process is also one set-up sample.
WORKERS = 3
# a run, all its workers included, must end within 180 s
DEADLINE_S = 170.0
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(Exception):
    pass


def _worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def _run_worker(args, part, seconds, deadline):
    """Run one worker process; returns (its JSON document, set-up seconds)."""
    argv = [sys.executable, WORKER, "--workload", args.workload,
            "--seed", str(args.seed), "--part", str(part),
            "--seconds", str(seconds), "--trace", str(args.trace)]
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, env=_worker_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker did not finish before the deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise WorkerError(f"worker exited with code {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc, doc["ready_at"] - started


def _rank(sorted_values, q):
    """Nearest-rank quantile: the smallest value with a share q at or below it."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "su2ipt", "__init__.py")):
        print("error: run from the repository root; src/su2ipt is missing",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    parts = 1 if args.trace else WORKERS
    try:
        runs = [_run_worker(args, part, args.seconds / parts, deadline)
                for part in range(parts)]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    docs = [doc for doc, _setup in runs]
    attempted = sum(doc["attempted"] for doc in docs)
    failed = sum(doc["failed"] for doc in docs)
    kinds = {}
    for doc in docs:
        for kind in doc["op_kinds"]:
            kinds[kind] = kinds.get(kind, 0) + 1
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": docs[0]["environment"],
        "rounds": [doc["rounds"] for doc in docs],
        "op_kinds": kinds,
        "failures": [f for doc in docs for f in doc["failures"]][:20],
    }
    if args.trace:
        metrics = docs[0]["per_layer"]
        info.update(self_share=docs[0]["self_share"],
                    trace_file=docs[0]["trace_file"])
    else:
        lat = sorted(x for doc in docs for x in doc["latencies"])
        setup = [setup_s for _doc, setup_s in runs]
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "ops_per_s": _metric(len(lat) / sum(lat), "1/s"),
            "op_p50_ms": _metric(1e3 * _rank(lat, 0.5), "ms"),
            "op_p90_ms": _metric(1e3 * _rank(lat, 0.9), "ms"),
            "peak_rss_mb": _metric(max(doc["peak_rss_mb"] for doc in docs), "MB"),
            "ok_frac": _metric((attempted - failed) / attempted, "ratio"),
        }
        info.update(
            setup_samples_s=setup,
            ops=len(lat),
            ops_beyond_p90=len(lat) - math.ceil(0.9 * len(lat)),
            kernel_computed=docs[0]["kernel"],
        )
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
