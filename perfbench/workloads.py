"""The four benchmark workloads: seeded op rounds, warm-up calls, output checks.

A workload is a sequence of rounds. Round r of worker process `part` draws
its inputs from numpy's generator seeded with (seed, part, r), so a seed
fixes every input. Each round holds the same op kinds in the same numbers
(only values and order vary), so the op mix of a run does not depend on
how many rounds fit in it. The counts are chosen so that the median and
the 90th percentile of op latency each fall inside one cluster of
equal-cost ops, not on the edge between two clusters.

An op is one call of su2ipt's public API. Its check runs after the timed
phase and raises CheckFailed when the output is wrong.
"""

import contextlib
import io
import json
import math
import os
from typing import Callable, NamedTuple

import numpy as np

from su2ipt import bridge, certify, cli, su2, tensors

# Criterion 7's recorded floors for the best max-bipartition defect at qubit
# valences 4 and 6. A search must stay at or above 0.9 of them.
DELTA4 = 0.50
DELTA6 = 0.5145
FLOORS = {(1,) * 4: DELTA4, (1,) * 6: DELTA6}

# A search reports the summed defect of its best point; re-evaluating the
# returned coefficients with the dense Gram must reproduce it to this.
SEARCH_AGREEMENT = 1e-8
# lambda * d_A must equal |t|^2 on every bipartition row to this.
TRACE_LAW_TOL = 1e-10
# Float fields of CLI output against the stored expected output.
FLOAT_ABS_TOL = 1e-9
FLOAT_REL_TOL = 1e-9

EXPECTED_EXACT = os.path.join(os.path.dirname(__file__), "expected_exact.json")


class CheckFailed(Exception):
    """An op returned a wrong output."""


class Op(NamedTuple):
    kind: str
    call: Callable  # no arguments; the timed public call
    check: Callable  # takes the call's output, raises CheckFailed


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _unit(data):
    data = np.asarray(data, dtype=complex)
    return data / np.linalg.norm(data)


def _phase(rng):
    return np.exp(2j * math.pi * rng.uniform())


# -- search-small / search-large ---------------------------------------------

def _search_tensor(legs, result):
    if isinstance(result.best_coefficients, bridge.CoefficientVector):
        return bridge.assemble(result.best_coefficients)
    basis = tensors.invariant_basis(legs)
    data = sum(c * e.data for c, e in zip(result.best_coefficients, basis))
    return tensors.LabeledTensor(legs, data)


def _check_search(legs, restarts, seed, result):
    _require(result.restarts == restarts and result.seed == seed,
             "search echoed the wrong restarts or seed")
    t = _search_tensor(legs, result)
    defects = [tensors.isometry_defect(t, p)[1]
               for p in tensors.bipartitions(len(legs))]
    gap = abs(sum(defects) - result.best_defect)
    _require(gap <= SEARCH_AGREEMENT * max(1.0, result.best_defect),
             f"reported defect {result.best_defect} differs from the"
             f" returned point's {sum(defects)}")
    floor = FLOORS.get(legs)
    if floor is not None:
        _require(max(defects) >= 0.9 * floor,
                 f"max-bipartition defect {max(defects)} below 0.9 * {floor}")
    elif all(leg == 1 for leg in legs):
        # no qubit tensor beyond valence 2 is perfect; nogo uses this cut
        _require(result.best_defect >= 1e-8, "search claims a perfect point")


class _SearchStream:
    """Seeded search_min_defect calls in a fixed mix of (legs, restarts)."""

    def __init__(self, mix):
        self.mix = mix
        self.kernel_legs = list(dict.fromkeys(legs for legs, _r, _n in mix))

    def round(self, rng):
        ops = []
        for legs, restarts, count in self.mix:
            for _ in range(count):
                seed = int(rng.integers(2**31))
                # lambdas look su2ipt's functions up at call time, so the
                # tracer's wrappers apply
                ops.append(Op(
                    f"search {','.join(map(str, legs))} r{restarts}",
                    lambda legs=legs, r=restarts, seed=seed:
                        certify.search_min_defect(legs, restarts=r, seed=seed),
                    lambda result, legs=legs, r=restarts, seed=seed:
                        _check_search(legs, r, seed, result),
                ))
        return ops

    def warm_up(self):
        for legs in self.kernel_legs:
            certify.search_min_defect(legs, restarts=1, seed=0)


class _SearchLargeStream(_SearchStream):
    def warm_up(self):
        # One valence-8 call takes seconds, so the warm-up imports
        # scipy.optimize through a valence-4 call and fills the valence-8
        # bridge-basis cache that the search's final decompose reads.
        certify.search_min_defect((1,) * 4, restarts=1, seed=0)
        rng = np.random.default_rng(0)
        bridge.decompose(tensors.random_invariant((1,) * 8, rng), 4)


# (legs, restarts, calls per round). Criterion 7's 1:10 restart ratio
# between valence 4 and 6, plus mixed legs (1/2,1/2,1) and (1,1,1,1); the
# objective fits in L2 for all of them. On a shared machine a share of ops
# runs fast, and that share changes from run to run; quantiles high inside
# a cluster stay in its slow part, so the counts put the median at 7/8 of
# the one-restart valence-6 ops and the 90th percentile at 7/10 of the
# two-restart ones.
SEARCH_SMALL = (
    ((1,) * 4, 1, 2), ((1,) * 6, 1, 8), ((1,) * 6, 2, 6),
    ((1, 1, 2), 1, 1), ((2,) * 4, 1, 1),
)
# The path of `nogo --valence 8`: a 102 MB dense objective per call.
SEARCH_LARGE = (((1,) * 8, 1, 1),)


def gemv_cost(k2, s):
    """Computed (flops, bytes) of one dense objective call.

    A call is the complex GEMV w @ qmat with qmat of shape (k^2, S): 8 k^2 S
    flops, and qmat, w and the result read or written once. Cache misses
    are not counted.
    """
    return 8 * k2 * s, 16 * (k2 * s + k2 + s)


def objective_figures(legs):
    """Computed size of the dense search objective for the given legs."""
    k = len(tensors.invariant_basis(legs))
    parts = tensors.bipartitions(len(legs))
    amax = max(math.prod(legs[i - 1] + 1 for i in p.a) for p in parts)
    s = len(parts) * amax * amax
    flops, nbytes = gemv_cost(k * k, s)
    return {"k": k, "bipartitions": len(parts), "amax": amax,
            "qmat_bytes": 16 * k * k * s, "bytes_per_call": nbytes,
            "flops_per_call": flops, "flops_per_byte": flops / nbytes}


# -- certify -----------------------------------------------------------------

# (kind, legs, count per round); counts put the median about 7/8 of the way
# up the valence-6 qubit ops and the 90th percentile as far up the
# valence-8 ones (see SEARCH_SMALL for why high inside a cluster).
INVARIANT = (
    ("qubit x6", (1,) * 6, 4),
    ("qubit x8", (1,) * 8, 8),
    ("qubit x10", (1,) * 10, 1),
    ("spins 1/2,1/2,1,1", (1, 1, 2, 2), 1),
    ("spin 1 x6", (2,) * 6, 1),
    ("spin 1 x5", (2,) * 5, 1),
)
DENSE = (("dense qubit x6", (1,) * 6), ("dense qubit x8", (1,) * 8),
         ("dense spin 1 x4", (2,) * 4))


def _bipartition_count(n):
    count = sum(math.comb(n, k) for k in range(1, n // 2 + 1))
    return count - (math.comb(n, n // 2) // 2 if n % 2 == 0 else 0)


def _check_certify(t, expected, report):
    _require(report.verdict == expected,
             f"verdict {report.verdict}, expected {expected}")
    _require(len(report.per_bipartition) == _bipartition_count(len(t.legs)),
             "wrong number of bipartition rows")
    norm2 = float(np.vdot(t.data, t.data).real)
    for p, lam, _defect, _spec in report.per_bipartition:
        d_a = math.prod(t.legs[i - 1] + 1 for i in p.a)
        _require(abs(lam * d_a - norm2) <= TRACE_LAW_TOL,
                 f"trace law fails on A={p.a}: {lam} * {d_a} != {norm2}")


def _certify_op(kind, t, expected):
    return Op(kind, lambda: certify.certify_perfect(t),
              lambda report: _check_certify(t, expected, report))


class _CertifyStream:
    """Seeded certify inputs; invariant bases are built once at set-up."""

    def __init__(self):
        self.bases = {
            legs: np.array([e.data.ravel() for e in tensors.invariant_basis(legs)])
            for _kind, legs, _count in INVARIANT
        }
        self.eps = su2.epsilon_matrix(1).astype(complex)
        self.vertex = su2.vertex(1, 1, 2).data

    def round(self, rng):
        ops = []
        for kind, legs, count in INVARIANT:
            basis = self.bases[legs]
            for _ in range(count):
                z = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
                t = tensors.LabeledTensor(legs, _unit(z @ basis))
                ops.append(_certify_op(kind, t, "not_perfect"))
        for kind, legs in DENSE:
            shape = [leg + 1 for leg in legs]
            data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            ops.append(_certify_op(kind, tensors.LabeledTensor(legs, _unit(data)),
                                   "not_invariant"))
        ops.append(_certify_op(
            "control epsilon", tensors.LabeledTensor((1, 1), _unit(self.eps) * _phase(rng)),
            "perfect"))
        ops.append(_certify_op(
            "control vertex", tensors.LabeledTensor((1, 1, 2), _unit(self.vertex) * _phase(rng)),
            "perfect"))
        return ops

    def warm_up(self):
        # one call per op kind; the valence-10 kind (1.5 s a call) is warmed
        # by its basis build only
        done = {"qubit x10"}
        for op in self.round(np.random.default_rng(0)):
            if op.kind not in done:
                done.add(op.kind)
                op.call()


# -- exact -------------------------------------------------------------------

def _theta(path, path2=None):
    argv = ["theta", "--path", path]
    return argv + (["--path2", path2] if path2 else [])


def _repart(valence, word, convention="binor"):
    return ["repart", "--valence", str(valence), "--word", word,
            "--convention", convention]


THETA_POOL = [
    _theta("1/2,0,1/2"), _theta("1/2,1,1/2"), _theta("1/2,1,3/2,1"),
    _theta("1/2,1,1/2,0"), _theta("1/2,1,3/2,2,3/2"), _theta("1/2,0,1/2,0,1/2"),
    _theta("1/2,1,1/2", "1/2,0,1/2"), _theta("1/2,1,3/2,1", "1/2,1,1/2,1"),
]
REPART6_POOL = [_repart(6, w) for w in (
    "P*", "P12", "P23", "P45", "P56", "P45 P* P45", "P12 P*", "P* P56",
    "P23 P* P23", "P12 P45",
)]
REPART6_SWAP_POOL = [_repart(6, w, "swap") for w in ("P12", "P23", "P45", "P*")]
LAYOUT_PASS_POOL = [["layout", "--path", p] for p in (
    "1/2,1/2,1", "1,1,1,1", "1/2,1/2,1/2,1/2", "1/2,1,3/2",
)]
# the README's failing layout, the one layout in the pool that exits 1
LAYOUT_FAIL = ["layout", "--path", "1/2,1/2,1/2,1/2,2"]
FIXED = (
    [["basis", "--valence", str(v)] for v in (2, 4, 6, 8, 10)]
    + [["master", "--valence", str(v)] for v in (2, 4, 6, 8, 10)]
    + [_repart(8, "P*"), _repart(10, "P*")]
    + [["nogo", "--valence", str(v)] for v in (2, 4, 6)]
    + [["walk"], LAYOUT_FAIL]
)
EXACT_POOL = THETA_POOL + REPART6_POOL + REPART6_SWAP_POOL + LAYOUT_PASS_POOL + FIXED


def run_cli(argv):
    """cli.run with --json --no-meta; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(list(argv) + ["--json", "--no-meta"])
    return code, buf.getvalue()


def expected_code(argv):
    """nogo 4/6 (infeasible), walk (disjoint windows) and LAYOUT_FAIL exit 1."""
    if argv == LAYOUT_FAIL or argv == ["walk"]:
        return 1
    if argv[0] == "nogo" and argv[2] in ("4", "6"):
        return 1
    return 0


def _same(got, want, where="$"):
    """Compare parsed JSON: strings, ints and bools exactly, floats to tolerance."""
    if isinstance(want, float) or isinstance(got, float):
        _require(isinstance(got, (int, float)) and isinstance(want, (int, float))
                 and not isinstance(got, bool),
                 f"{where}: {got!r} is not a number like {want!r}")
        _require(got == want or abs(got - want) <= FLOAT_ABS_TOL + FLOAT_REL_TOL * abs(want),
                 f"{where}: {got!r} differs from {want!r}")
    elif isinstance(want, dict):
        _require(isinstance(got, dict) and set(got) == set(want),
                 f"{where}: keys differ")
        for key in want:
            _same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        _require(isinstance(got, list) and len(got) == len(want),
                 f"{where}: lengths differ")
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{i}]")
    else:
        _require(type(got) is type(want) and got == want,
                 f"{where}: {got!r} differs from {want!r}")


def _check_cli(argv, expected_doc, output):
    code, text = output
    _require(code == expected_code(argv),
             f"{' '.join(argv)}: exit {code}, expected {expected_code(argv)}")
    _same(json.loads(text), expected_doc)


class _ExactStream:
    """Seeded CLI argv rounds checked against the stored expected output."""

    def __init__(self):
        with open(EXPECTED_EXACT) as fh:
            stored = json.load(fh)
        self.expected = {tuple(e["argv"]): e["doc"] for e in stored}
        missing = [a for a in EXACT_POOL if tuple(a) not in self.expected]
        if missing:
            raise RuntimeError(f"no stored output for {missing[0]}")

    def _op(self, argv):
        expected = self.expected[tuple(argv)]
        return Op(argv[0] + (" " + argv[2] if argv[0] in ("nogo", "repart") else ""),
                  lambda: run_cli(argv),
                  lambda output: _check_cli(argv, expected, output))

    def round(self, rng):
        def pick(pool, n):
            return [pool[i] for i in rng.choice(len(pool), size=n, replace=False)]
        # nogo 6 runs twice, so that the 90th percentile sits 4/5 of the way
        # up the walk / repart-10 cluster rather than low in it (see
        # SEARCH_SMALL)
        argvs = (pick(THETA_POOL, 2) + pick(REPART6_POOL, 2)
                 + pick(REPART6_SWAP_POOL, 1) + pick(LAYOUT_PASS_POOL, 1) + FIXED
                 + [["nogo", "--valence", "6"]])
        return [self._op(a) for a in argvs]

    def warm_up(self):
        # one call per subcommand, plus the valence-8/10 repartitions whose
        # bridge-basis states are cached (nogo 4 fills valence 4's); walk
        # caches nothing and is skipped
        for argv in (THETA_POOL[0], ["basis", "--valence", "4"],
                     ["master", "--valence", "4"], REPART6_POOL[0],
                     REPART6_SWAP_POOL[0], _repart(8, "P*"), _repart(10, "P*"),
                     ["nogo", "--valence", "4"], LAYOUT_FAIL):
            run_cli(argv)


# -- registry ----------------------------------------------------------------

# Each factory builds a stream (part of set-up, like its warm_up call).
WORKLOADS = {
    "search-small": lambda: _SearchStream(SEARCH_SMALL),
    "search-large": lambda: _SearchLargeStream(SEARCH_LARGE),
    "certify": _CertifyStream,
    "exact": _ExactStream,
}


def round_ops(stream, seed, part, r):
    """Ops of round r of worker `part`, inputs and order drawn from the seed."""
    rng = np.random.default_rng([seed, part, r])
    ops = stream.round(rng)
    return [ops[i] for i in rng.permutation(len(ops))]
