"""Per-layer tracing by wrapping su2ipt's functions from outside src/.

While Tracer.run_op runs an op, each traced function is replaced by a
wrapper that records a span (name, op id, parent, start, end) and adds the
span's duration to its parent's child time, so self time is duration minus
child time. Objective calls and chain isometries run tens of thousands of
times per op; they add to the per-name totals but keep no span record.
Spans stay in memory and are written out once, at the end of the run.

The lru_caches of cg_exact, cg_matrix and _basis_states are not wrapped;
their hit ratios come from cache_info() deltas taken around each op.
"""

import functools
import json
import time

from scipy import optimize

from su2ipt import bridge, certify, cli, master, repart, su2, tensors
from workloads import gemv_cost

# (owner, attribute, span name, keep span records)
TRACED = (
    (su2, "chain_isometry", "su2.chain_isometry", False),
    (tensors, "schur_spectrum", "tensors.schur_spectrum", True),
    (tensors, "invariance_defect", "tensors.invariance_defect", True),
    (tensors, "isometry_defect", "tensors.isometry_defect", True),
    (tensors, "invariant_basis", "tensors.invariant_basis", True),
    (bridge, "decompose", "bridge.decompose", True),
    (bridge, "build_bridge_state", "bridge.build_bridge_state", True),
    (master, "residual", "master.residual", True),
    (master, "build_master_system", "master.build_master_system", True),
    (repart.RepartitionMatrix, "apply", "repart.apply", True),
    (repart.RepartitionMatrix, "is_involution", "repart.is_involution", True),
    (repart, "numeric_repart_matrix", "repart.numeric_repart_matrix", True),
    (certify, "phase_walk_feasibility", "certify.phase_walk_feasibility", True),
    (certify, "certify_perfect", "certify.certify_perfect", True),
    (certify, "search_min_defect", "certify.search_min_defect", True),
    (cli, "run", "cli.run", True),
    (certify._DefectObjective, "__init__", "certify.objective.build", True),
    (certify._DefectObjective, "__call__", "certify.objective", False),
    (optimize, "minimize", "certify.optimizer", True),
)
# names reported as <name>.calls and <name>.self_s, both per op
LAYERS = (
    "su2.chain_isometry", "tensors.schur_spectrum", "tensors.invariance_defect",
    "tensors.isometry_defect", "tensors.invariant_basis", "bridge.decompose",
    "bridge.build_bridge_state", "master.residual", "master.build_master_system",
    "repart.apply", "repart.is_involution", "repart.numeric_repart_matrix",
    "certify.phase_walk_feasibility", "certify.certify_perfect",
    "certify.search_min_defect", "cli.run",
)
CACHES = (
    ("su2.cg_exact", su2.cg_exact),
    ("su2.cg_matrix", su2.cg_matrix),
    ("bridge.basis_states", bridge._basis_states),
)


class Tracer:
    def __init__(self):
        self.op_id = None
        self.stack = []  # [child seconds, name] per open span
        self.stats = {name: [0, 0.0, 0.0] for _o, _a, name, _r in TRACED}
        self.spans = []  # (op id, name, parent name, start, end)
        self.kernel = {}  # id(objective) -> (flops, bytes) per call
        self.flops = self.bytes = 0
        self.nfev = self.converged = 0
        self.cache = {name: [0, 0] for name, _f in CACHES}
        self._patches = [
            (owner, attr, owner.__dict__[attr],
             self._wrap(owner.__dict__[attr], name, keep))
            for owner, attr, name, keep in TRACED
        ]

    def _wrap(self, fn, name, keep):
        stats = self.stats[name]
        after = {"certify.objective.build": self._built,
                 "certify.objective": self._called,
                 "certify.optimizer": self._optimized}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, name]
            parent = self.stack[-1] if self.stack else None
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if keep:
                    self.spans.append((self.op_id, name,
                                       parent[1] if parent else None, start, end))
            if after is not None:
                after(args, result)
            return result
        return traced

    def _built(self, args, _result):
        self.kernel[id(args[0])] = gemv_cost(*args[0].qmat.shape)

    def _called(self, args, _result):
        flops, nbytes = self.kernel[id(args[0])]
        self.flops += flops
        self.bytes += nbytes

    def _optimized(self, _args, result):
        self.nfev += int(result.nfev)
        self.converged += bool(result.success)

    def run_op(self, op_id, call):
        """Run one op with the traced functions wrapped; returns its output."""
        before = [f.cache_info() for _n, f in CACHES]
        self.op_id = op_id
        for owner, attr, _original, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        try:
            return call()
        finally:
            for owner, attr, original, _wrapped in self._patches:
                setattr(owner, attr, original)
            for (name, f), b in zip(CACHES, before):
                a = f.cache_info()
                self.cache[name][0] += a.hits - b.hits
                self.cache[name][1] += a.misses - b.misses

    def metrics(self, ops, overhead):
        """Per-layer metrics over `ops` traced ops; calls and self_s are per op."""
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for name in LAYERS:
            calls, _total, self_s = self.stats[name]
            put(f"{name}.calls", calls / ops, "count/op")
            put(f"{name}.self_s", self_s / ops, "s/op")
        calls, total, self_s = self.stats["certify.objective"]
        builds, build_total, _ = self.stats["certify.objective.build"]
        put("certify.objective.calls", calls / ops, "count/op")
        put("certify.objective.self_s", self_s / ops, "s/op")
        put("certify.objective.call_us", 1e6 * total / calls if calls else 0.0, "us")
        put("certify.objective.build_s", build_total / builds if builds else 0.0, "s")
        put("certify.objective.bytes_per_call", self.bytes / calls if calls else 0.0, "B")
        put("certify.objective.flops_per_call", self.flops / calls if calls else 0.0, "flop")
        put("certify.objective.flops_per_byte",
            self.flops / self.bytes if self.bytes else 0.0, "flop/B")
        restarts, _total, self_s = self.stats["certify.optimizer"]
        put("certify.optimizer.restarts", restarts / ops, "count/op")
        put("certify.optimizer.nfev", self.nfev / restarts if restarts else 0.0, "count")
        put("certify.optimizer.self_s", self_s / ops, "s/op")
        put("certify.optimizer.converged_ratio",
            self.converged / restarts if restarts else 0.0, "ratio")
        for name, (hits, misses) in self.cache.items():
            # no lookups means nothing missed
            put(f"{name}.hit_ratio", hits / (hits + misses) if hits + misses else 1.0,
                "ratio")
        put("trace.overhead_frac", overhead, "ratio")
        return out

    def self_shares(self):
        """Share of all traced self time per span name, largest first."""
        total = sum(s[2] for s in self.stats.values()) or 1.0
        shares = {name: s[2] / total for name, s in self.stats.items() if s[0]}
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))

    def dump(self, path, op_kinds):
        with open(path, "w") as fh:
            json.dump({
                "ops": op_kinds,
                "stats": {n: {"calls": c, "total_s": t, "self_s": s}
                          for n, (c, t, s) in self.stats.items()},
                "spans": self.spans,
            }, fh)
