"""One workload in one process: set-up, timed phase, output checks.

run.py starts this with PYTHONPATH pointing at the checkout's src/ and the
BLAS thread count pinned. The last line of stdout is a JSON object; its
ready_at is time.monotonic() when set-up ended, which run.py compares with
the time it started the process (CLOCK_MONOTONIC is system-wide on Linux).

Timed phase: whole rounds run back to back until --seconds have passed;
--part keeps the inputs of run.py's several workers apart. Outputs are kept
and checked after the timer stops, so checks cost no op time. With
--trace 1 every op runs once traced and once untraced; the ratio of the two
op-time totals is the tracing overhead.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import time

import workloads


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _git_sha():
    head = _read(".git/HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(os.path.join(".git", ref))
    if sha is None:
        for line in (_read(".git/packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha


def _blas_threads():
    """Thread count numpy's bundled OpenBLAS reports, or None."""
    import ctypes

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..",
                                  "numpy.libs", "libscipy_openblas*"))
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(index + "/level"), _read(index + "/type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index + "/size")
    digest = hashlib.sha256()
    for path in sorted(glob.glob("src/su2ipt/*.py")):
        with open(path, "rb") as fh:
            digest.update(path.encode() + b"\0" + fh.read())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_pinned_by": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
    }


def _timed(call):
    """(output, exception, seconds) of one call."""
    t0 = time.perf_counter()
    try:
        return call(), None, time.perf_counter() - t0
    except Exception as exc:  # an op that raises counts as failed
        return None, exc, time.perf_counter() - t0


def _run_rounds(stream, seed, part, seconds, run):
    """Whole rounds until `seconds` pass; run(index, op) gives one record's
    (output, exception, latency)."""
    records = []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        for op in workloads.round_ops(stream, seed, part, r):
            records.append((op, *run(len(records), op)))
        r += 1
    return records, r


def _traced_pair(tracer, untraced):
    """Run each op traced and untraced back to back, in alternating order,
    so that drift in machine speed cancels out of the overhead."""
    def run(index, op):
        if index % 2:
            untraced.append(_timed(op.call)[2])
        record = _timed(lambda: tracer.run_op(index, op.call))
        if not index % 2:
            untraced.append(_timed(op.call)[2])
        return record
    return run


def _failures(records):
    failures = []
    for i, (op, out, err, _lat) in enumerate(records):
        if err is None:
            try:
                op.check(out)
                continue
            except Exception as exc:  # a check that cannot run is a failure
                err = exc
        failures.append(f"op {i} ({op.kind}): {type(err).__name__}: {err}")
    return failures


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    stream = workloads.WORKLOADS[args.workload]()
    stream.warm_up()
    doc = {"ready_at": time.monotonic()}
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        untraced = []
        records, rounds = _run_rounds(stream, args.seed, args.part, args.seconds,
                                      _traced_pair(tracer, untraced))
        traced_s = sum(lat for *_rest, lat in records)
        doc["per_layer"] = tracer.metrics(len(records), traced_s / sum(untraced) - 1.0)
        doc["self_share"] = tracer.self_shares()
        out_dir = os.path.join("perfbench", "out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(trace_path, [op.kind for op, *_rest in records])
        doc["trace_file"] = trace_path
    else:
        records, rounds = _run_rounds(stream, args.seed, args.part, args.seconds,
                                      lambda _index, op: _timed(op.call))
        doc["latencies"] = [lat for *_rest, lat in records]
        doc["kernel"] = {",".join(map(str, legs)): workloads.objective_figures(legs)
                         for legs in getattr(stream, "kernel_legs", ())}
    failures = _failures(records)
    doc.update({
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:20],
        "rounds": rounds,
        "op_kinds": [op.kind for op, *_rest in records],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    })
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
