"""Repartition matrices on the bridge basis and the feasibility replay.

A repartition re-expresses an invariant tensor's bridge coefficients after
permuting legs. Same-side adjacent swaps and the bridge-crossing swap P*
act as exact rational involutions on the coefficient vector; longer words
compose by matrix product. Closed forms are stored for the qubit valences
with known matrices and every matrix can be cross-validated numerically by
permuting the basis states and projecting back onto the basis.

The feasibility replay pushes the closed-form master solution families
through each prescribed repartition and re-imposes the master equations,
machine-checking both that the surviving parameter sets satisfy them and
that the violating ones are bounded away, until the constraints intersect
to a unique solution or to nothing.
"""

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import bridge, master, tensors
from .bridge import BridgeLabel, CoefficientVector
from .errors import CrossesBridge, LabelMismatch, ProjectionResidual, ZeroTensor
from .tensors import Bipartition

__all__ = [
    "RepartitionMatrix", "pstar_matrix", "trivial_swap_matrix", "compose",
    "numeric_repart_matrix", "global_sign_between", "word_permutation",
    "parse_word", "unbalanced_shift_check", "ShiftCheck", "TraceStep",
    "FeasibilityTrace", "algorithm1_run",
]

BINOR = "binor_crossing"
PLAIN = "plain_swap"


@dataclass(frozen=True)
class RepartitionMatrix:
    """Exact rational matrix acting on bridge coefficients, c_new = R c_old.

    Rows and columns follow `labels` (canonical order unless reordered via
    on_basis). The word records which swaps produced the matrix.
    """

    valence: int
    word: tuple
    labels: tuple
    matrix: tuple  # tuple of tuples of Fraction
    sign_convention: str = BINOR

    @property
    def dim(self):
        return len(self.labels)

    def word_text(self):
        return " ".join(self.word)

    def as_float(self):
        return np.array([[float(x) for x in row] for row in self.matrix])

    def is_involution(self):
        """Whether R R = 1, as an exact product over the nonzero entries."""
        rows = [[(j, x) for j, x in enumerate(row) if x] for row in self.matrix]
        for i, row in enumerate(rows):
            acc = {}
            for k, x in row:
                for j, y in rows[k]:
                    acc[j] = acc.get(j, 0) + x * y
            if acc.get(i) != 1 or any(v for j, v in acc.items() if j != i):
                return False
        return True

    def on_basis(self, labels):
        """The same transformation with rows/columns in the given label order."""
        labels = tuple(labels)
        if set(labels) != set(self.labels):
            raise LabelMismatch("label set does not match this matrix")
        pos = {m: i for i, m in enumerate(self.labels)}
        idx = [pos[m] for m in labels]
        mat = tuple(
            tuple(self.matrix[i][j] for j in idx) for i in idx
        )
        return RepartitionMatrix(
            self.valence, self.word, labels, mat, self.sign_convention
        )

    @cached_property
    def _float_rows(self):
        """Per row, the (column, float entry) pairs of its nonzero entries."""
        return tuple(
            tuple((j, float(x)) for j, x in enumerate(row) if x)
            for row in self.matrix
        )

    def apply_columns(self, cols):
        """Float transform of columns in `labels` order.

        cols[j] holds the values of label j, a scalar or an array of points;
        row i of the result is sum_j R_ij cols[j] over the nonzero R_ij.
        """
        cols = np.asarray(cols, dtype=complex)
        out = np.zeros_like(cols)
        for i, row in enumerate(self._float_rows):
            for j, x in row:
                out[i] = out[i] + x * cols[j]
        return out

    def apply(self, c):
        """Transform a coefficient vector; exact when the entries are rational."""
        if set(c.entries) != set(self.labels):
            raise LabelMismatch("coefficient labels do not match this matrix")
        values = [c.entries[m] for m in self.labels]
        if not all(isinstance(v, (int, Fraction)) for v in values):
            rows = self.apply_columns([complex(v) for v in values])
            return CoefficientVector(dict(zip(self.labels, rows.tolist())))
        out = {}
        for i, row_label in enumerate(self.labels):
            total = Fraction(0)
            for j, col_label in enumerate(self.labels):
                total += self.matrix[i][j] * c.entries[col_label]
            out[row_label] = total
        return CoefficientVector(out)

    def to_json_dict(self):
        return {
            "valence": self.valence,
            "word": self.word_text(),
            "labels": [m.text() for m in self.labels],
            "matrix": [[str(x) for x in row] for row in self.matrix],
            "sign_convention": self.sign_convention,
        }


def _from_display(valence, word, display_labels, rows, convention=BINOR):
    """Build a matrix given in some display order, stored in canonical order."""
    canonical = tuple(bridge.bridge_basis(valence, valence // 2))
    mat = tuple(tuple(Fraction(x) for x in row) for row in rows)
    given = RepartitionMatrix(valence, tuple(word), tuple(display_labels), mat, convention)
    return given.on_basis(canonical)


def pstar_matrix(valence):
    """The bridge-crossing swap: exact closed form at valences 4 and 6,
    numeric projection (snapped to exact rationals) elsewhere."""
    if valence == 4:
        return _from_display(
            4, ("P*",), tuple(master.LABELS4.values()),
            [[Fraction(1, 2), Fraction(-3, 4)], [Fraction(-1), Fraction(-1, 2)]],
        )
    if valence == 6:
        rows = [
            [Fraction(-1, 3), Fraction(-1), 0, 0, 0],
            [Fraction(-8, 9), Fraction(1, 3), 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, -1],
        ]
        return _from_display(6, ("P*",), tuple(master.LABELS6.values()), rows)
    n1 = valence // 2
    perm = _swap_permutation(valence, n1, n1 + 1)
    num = numeric_repart_matrix(valence, perm)
    return RepartitionMatrix(valence, ("P*",), num.labels, num.matrix, PLAIN)


def _swap_permutation(valence, i, j):
    order = list(range(1, valence + 1))
    order[i - 1], order[j - 1] = order[j - 1], order[i - 1]
    return tuple(order)


def trivial_swap_matrix(valence, pair):
    """Exact matrix for swapping two same-side legs of the balanced split."""
    i, j = sorted(pair)
    n1 = valence // 2
    if not (1 <= i < j <= valence):
        raise ValueError(f"legs {pair} out of range for valence {valence}")
    if i <= n1 < j:
        raise CrossesBridge(
            f"legs {pair} lie on both sides of the split; use the bridge"
            " crossing matrix"
        )
    num = numeric_repart_matrix(valence, _swap_permutation(valence, i, j))
    word = (f"P{i}{j}",) if valence < 10 else (f"P{i},{j}",)
    return RepartitionMatrix(valence, word, num.labels, num.matrix, PLAIN)


def compose(word):
    """Left-to-right product of repartition matrices (rightmost acts first)."""
    if not word:
        raise ValueError("compose needs a nonempty word")
    first = word[0]
    labels = first.labels
    mat = np.array(first.matrix, dtype=object)
    tokens = list(first.word)
    for r in word[1:]:
        if r.valence != first.valence:
            raise LabelMismatch("matrices in a word must share a valence")
        mat = mat @ np.array(r.on_basis(labels).matrix, dtype=object)
        tokens.extend(r.word)
    convention = first.sign_convention
    if any(r.sign_convention != convention for r in word):
        convention = PLAIN
    return RepartitionMatrix(
        first.valence, tuple(tokens), labels, tuple(tuple(row) for row in mat),
        convention,
    )


_TOKEN = re.compile(r"P(\d)(\d)|P(\d+),(\d+)")


def _token_pair(valence, token):
    """The two legs a word token swaps.

    "P*" is the bridge pair (n1, n1+1); "Pij" and "Pi,j" name legs i and j,
    which must be distinct legs of 1..valence.
    """
    if token == "P*":
        n1 = valence // 2
        return n1, n1 + 1
    match = _TOKEN.fullmatch(token)
    if match is None:
        raise ValueError(f"unknown word token {token!r}")
    i, j = (int(g) for g in match.groups() if g is not None)
    if i == j or not (1 <= i <= valence and 1 <= j <= valence):
        raise ValueError(
            f"token {token} does not name two distinct legs of 1..{valence}")
    return i, j


def parse_word(valence, text):
    """Parse a word like "P45 P* P45" into matrices, left to right."""
    out = []
    n1 = valence // 2
    for token in text.split():
        i, j = sorted(_token_pair(valence, token))
        if i <= n1 < j:
            if (i, j) != (n1, n1 + 1):
                raise CrossesBridge(
                    f"token {token} crosses the split away from the bridge"
                )
            out.append(pstar_matrix(valence))
        else:
            out.append(trivial_swap_matrix(valence, (i, j)))
    if not out:
        raise ValueError("empty repartition word")
    return out


def word_permutation(valence, tokens):
    """Leg permutation realized by a word (rightmost token applied first)."""
    order = tuple(range(1, valence + 1))
    for token in tokens:
        swap = _swap_permutation(valence, *_token_pair(valence, token))
        order = tuple(swap[order[p] - 1] for p in range(valence))
    return order


def numeric_repart_matrix(valence, permutation, tolerance=1e-8):
    """Projection matrix from permuting basis states, snapped to rationals."""
    n1 = valence // 2
    labels, states, _thetas = bridge._basis_states(valence, n1)
    cols = []
    for s in states:
        moved = tensors.permute_legs(s, permutation)
        c = bridge.decompose(moved, n1, tolerance=math.inf)
        if c.residual > tolerance:
            raise ProjectionResidual(
                f"permuted state leaves the invariant span (residual"
                f" {c.residual:.3e})"
            )
        cols.append([complex(c.entries[m]).real for m in labels])
    raw = np.array(cols).T
    mat = []
    for row in raw:
        snapped = []
        for x in row:
            f = Fraction(x).limit_denominator(10**6)
            if abs(float(f) - x) > 1e-9:
                raise ProjectionResidual(
                    f"matrix entry {x!r} does not snap to a small rational"
                )
            snapped.append(f)
        mat.append(tuple(snapped))
    word = ("perm(" + ",".join(str(p) for p in permutation) + ")",)
    return RepartitionMatrix(valence, word, tuple(labels), tuple(mat), PLAIN)


def global_sign_between(a, b, tolerance=1e-10):
    """The single sign s with a = s*b entrywise; raises if none exists."""
    bb = b.on_basis(a.labels)
    fa, fb = a.as_float(), bb.as_float()
    idx = np.unravel_index(np.argmax(np.abs(fa)), fa.shape)
    if abs(fa[idx]) < tolerance:
        raise ValueError("cannot determine a sign from a zero matrix")
    sign = 1 if fa[idx] * fb[idx] > 0 else -1
    if np.max(np.abs(fa - sign * fb)) > tolerance:
        raise ValueError("matrices do not agree up to one global sign")
    return sign


class ShiftCheck(NamedTuple):
    lambda_ratio: float
    verdict: str  # "pass", "fail", or "noop"


def unbalanced_shift_check(t, p, tolerance=1e-10):
    """Move the last first-side leg across and test the isometry-scale law.

    The scale is trace-based, lambda(X) = |t|^2 / dim(X), so the ratio after
    moving a spin-j leg out of the first side must be 2j+1; the verdict also
    requires the shifted split to stay an isometry within tolerance.
    """
    if len(p.a) <= 1:
        return ShiftCheck(float("nan"), "noop")
    moved = p.a[-1]
    new_a = p.a[:-1]
    new_b = tuple(sorted(p.b + (moved,)))
    dim_a = 1
    for leg in p.a:
        dim_a *= t.legs[leg - 1] + 1
    dim_new = 1
    for leg in new_a:
        dim_new *= t.legs[leg - 1] + 1
    norm2 = t.norm_squared()
    if norm2 == 0.0:
        raise ZeroTensor("shift check of the zero tensor")
    lam_old = norm2 / dim_a
    lam_new = norm2 / dim_new
    ratio = lam_new / lam_old
    expected = t.legs[moved - 1] + 1
    try:
        _, defect = tensors.isometry_defect(t, Bipartition(new_a, new_b))
    except Exception:
        return ShiftCheck(ratio, "fail")
    ok = defect < tolerance and abs(ratio - expected) < 1e-9 * expected
    return ShiftCheck(ratio, "pass" if ok else "fail")


@dataclass(frozen=True)
class TraceStep:
    """One replay step: which word acted and what constraint survived it."""

    word: str
    constraint: str
    checks: dict

    def to_json_dict(self):
        return {"word": self.word, "constraint": self.constraint,
                "checks": self.checks}


@dataclass(frozen=True)
class FeasibilityTrace:
    valence: int
    feasible: bool
    exact: bool
    steps: tuple
    certificate: tuple  # pair of contradicting constraint strings, or ()
    summary: str

    def to_json_dict(self):
        return {
            "valence": self.valence,
            "feasible": self.feasible,
            "exact": self.exact,
            "steps": [s.to_json_dict() for s in self.steps],
            "certificate": list(self.certificate),
            "summary": self.summary,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def _sys(valence):
    return master.build_master_system(valence).normalized()


def _residual_after(matrix, c, sys, lam):
    return master.residual(matrix.apply(c), sys, lam)


def _grid_residuals_after(matrix, entries, sys, lam):
    """Residuals of the matrix image at every point of a family grid.

    entries maps each label to a value or an array over the grid points.
    """
    if matrix.labels != sys.labels:
        raise LabelMismatch("matrix and system list their labels differently")
    size = max(np.size(v) for v in entries.values())
    cols = np.empty((len(sys.labels), size), dtype=complex)
    for i, m in enumerate(sys.labels):
        cols[i] = entries[m]
    return sys.residuals(matrix.apply_columns(cols), lam)


def _run_valence2():
    sys = _sys(2)
    label = BridgeLabel((1,), (1,))
    lam = 1.3
    c = CoefficientVector({label: math.sqrt(lam)})
    res = master.residual(c, sys, lam)
    pstar = pstar_matrix(2)
    res_p = _residual_after(pstar, c, sys, lam)
    steps = (
        TraceStep(
            "master",
            "|c[1/2 | 1/2]|^2 = lambda (modulus fixed; one free phase)",
            {"family_residual": res},
        ),
        TraceStep(
            "P*",
            "no new constraint (the crossing acts as an overall sign)",
            {"residual_after": res_p, "matrix": str(pstar.matrix[0][0])},
        ),
    )
    feasible = res < 1e-12 and res_p < 1e-12
    return FeasibilityTrace(
        2, feasible, True, steps, (),
        "feasible: the identity is the unique solution up to phase"
        " (c = sqrt(lambda) e^{i phi}; c = 1 at lambda = 1)",
    )


def _run_valence4():
    sys = _sys(4)
    fam = master.solve_qubit_valence4()
    rng = np.random.default_rng(20240)
    pstar = pstar_matrix(4)
    p34 = trivial_swap_matrix(4, (3, 4))
    composed = compose([p34, pstar, p34])

    def residual_at(matrix, dphi, lam):
        c = fam.evaluate(lam, phi0=dphi, phi1=0.0)
        return _residual_after(matrix, c, sys, lam)

    # sufficiency: the advertised phase satisfies the re-imposed equations
    suff = {
        "P*": max(
            residual_at(pstar, 0.0, rng.uniform(0.5, 3.0)) for _ in range(50)
        ),
        "composed": max(
            residual_at(composed, math.pi, rng.uniform(0.5, 3.0))
            for _ in range(50)
        ),
    }
    # necessity: everywhere else both residuals are bounded away from zero;
    # their sum is constant in the relative phase, which certifies that the
    # two constraints can never hold together
    grid = np.linspace(0.0, 2.0 * math.pi, 721)
    lam = 1.0
    on_grid = fam.evaluator(lam, {"phi0": grid, "phi1": 0.0})
    r_p = _grid_residuals_after(pstar, on_grid, sys, lam)
    r_c = _grid_residuals_after(composed, on_grid, sys, lam)
    total = r_p + r_c
    sum_err = float(np.max(np.abs(total - lam * math.sqrt(10.0))))
    steps = (
        TraceStep(
            "master",
            "|c1|^2 = lambda, |c0|^2 = lambda/4; two free phases",
            {"family_residual_max_50_draws": _family_residual_max(fam, sys, 50)},
        ),
        TraceStep(
            "P*",
            "dphi = 0 (mod 2pi)",
            {
                "sufficiency_max_residual": suff["P*"],
                "necessity_min_residual_off_constraint": float(
                    np.min(r_p[np.abs(np.cos(grid) - 1.0) > 1e-3])
                ),
            },
        ),
        TraceStep(
            "P34 P* P34",
            "dphi = pi (mod 2pi)",
            {
                "sufficiency_max_residual": suff["composed"],
                "necessity_min_residual_off_constraint": float(
                    np.min(r_c[np.abs(np.cos(grid) + 1.0) > 1e-3])
                ),
            },
        ),
    )
    certificate = (
        "dphi = 0 (mod 2pi) from the bridge crossing",
        "dphi = pi (mod 2pi) from the crossing conjugated by the far swap",
        f"residual identity: res(P*) + res(conjugated) = sqrt(10) lambda"
        f" (max deviation {sum_err:.2e}), so both can never vanish",
    )
    feasible = False
    return FeasibilityTrace(
        4, feasible, True, steps, certificate,
        "infeasible: the two repartitions fix the relative phase to 0 and to"
        " pi simultaneously",
    )


def _family_residual_max(fam, sys, draws, rng=None):
    rng = rng or np.random.default_rng(99)
    worst = 0.0
    for _ in range(draws):
        lam = rng.uniform(0.3, 3.0)
        c, _params = fam.draw(rng, lam)
        worst = max(worst, master.residual(c, sys, lam))
    return worst


def _run_valence6():
    sys = _sys(6)
    fam = master.solve_qubit_valence6()
    rng = np.random.default_rng(60240)
    pstar = pstar_matrix(6)
    p45 = trivial_swap_matrix(6, (4, 5))
    composed = compose([p45, pstar, p45])
    top, sym1, asym10, asym01, sym0 = master.LABELS6.values()

    def constrained(lam, phi, psi):
        # fixed point of the bridge crossing: A = 2 sqrt(lam)/3, rho = phi,
        # asymmetric entries exactly zero (chi drops out)
        r = math.sqrt(lam)
        return CoefficientVector({
            top: r * np.exp(1j * phi),
            sym1: (2.0 / 3.0) * r * np.exp(1j * phi),
            asym10: 0j,
            asym01: 0j,
            sym0: 0.5 * r * np.exp(1j * psi),
        })

    probe = constrained(1.7, 0.3, 1.2)
    via_family = fam.evaluate(1.7, A=2.0 * math.sqrt(1.7) / 3.0, phi=0.3,
                              rho=0.3, chi=0.0, psi=1.2)
    family_gap = max(
        abs(complex(probe.entries[m]) - complex(via_family.entries[m]))
        for m in probe.entries
    )
    suff = 0.0
    for _ in range(50):
        lam = rng.uniform(0.5, 3.0)
        c = constrained(lam, rng.uniform(0, 2 * math.pi),
                        rng.uniform(0, 2 * math.pi))
        suff = max(suff, _residual_after(pstar, c, sys, lam))
    # necessity: violating (A, rho) stay bounded away
    lam = 1.0
    star_amp = 2.0 / 3.0
    rho_grid = np.linspace(0.0, 2.0 * math.pi, 121)
    near_rho = np.minimum(rho_grid, 2 * math.pi - rho_grid) < 2e-2
    off_min = math.inf
    # nine blocks of nine amplitudes keep the temporaries small
    for amps in np.array_split(np.linspace(0.0, 2.0 / 3.0, 81), 9):
        amp, rho = np.meshgrid(amps, rho_grid, indexing="ij")
        off = ~((np.abs(amp - star_amp) < 2e-2) & near_rho)
        on_grid = fam.evaluator(lam, {"A": amp[off], "phi": 0.0, "rho": rho[off],
                                      "chi": 0.4, "psi": 1.1})
        off_min = min(off_min, np.min(_grid_residuals_after(pstar, on_grid, sys, lam)))
    # the conjugated crossing: on the surviving set the image violates the
    # equations by exactly 3 lambda, and its top coefficient vanishes
    comp_res = []
    top_mod = 0.0
    for _ in range(50):
        lam = rng.uniform(0.5, 3.0)
        c = constrained(lam, rng.uniform(0, 2 * math.pi),
                        rng.uniform(0, 2 * math.pi))
        image = composed.apply(c)
        comp_res.append(master.residual(image, sys, lam) / lam)
        top_mod = max(top_mod, abs(complex(image.entries[top])))
    comp_dev = float(np.max(np.abs(np.array(comp_res) - 3.0)))
    steps = (
        TraceStep(
            "master",
            "family with one free amplitude A and four free phases",
            {"family_residual_max_50_draws": _family_residual_max(fam, sys, 50)},
        ),
        TraceStep(
            "P*",
            "A = 2 sqrt(lambda)/3, rho = phi, asymmetric coefficients vanish",
            {
                "sufficiency_max_residual": suff,
                "necessity_min_residual_off_constraint": float(off_min),
                "constrained_point_vs_family": family_gap,
            },
        ),
        TraceStep(
            "P45 P* P45",
            "0 = c~~[top] while |c~~[top]|^2 must equal lambda, and"
            " 0 = c~~[1/2,0,1/2 | 1/2,1,1/2] = c[1/2,0,1/2 | 1/2,0,1/2]"
            " = sqrt(lambda)/2, forcing lambda = 0",
            {
                "image_residual_over_lambda": 3.0,
                "image_residual_max_deviation": comp_dev,
                "image_top_modulus_max": top_mod,
            },
        ),
    )
    certificate = (
        "A = 2 sqrt(lambda)/3 and rho = phi from the bridge crossing",
        "the conjugated crossing image violates the equations by residual"
        " = 3 lambda at every surviving point, so lambda = 0",
    )
    return FeasibilityTrace(
        6, False, True, steps, certificate,
        "infeasible: after the bridge crossing pins the family, the"
        " conjugated crossing forces lambda = 0",
    )


def _run_numeric(valence, restarts=60, seed=0):
    from . import certify

    legs = [1] * valence
    result = certify.search_min_defect(legs, restarts=restarts, seed=seed)
    feasible = result.best_defect < 1e-8
    steps = (
        TraceStep(
            "numeric search",
            f"multistart minimization of the summed bipartition defect"
            f" over the invariant subspace ({restarts} restarts)",
            {"best_defect": result.best_defect, "seed": seed},
        ),
    )
    summary = (
        "numerical evidence only: best defect"
        f" {result.best_defect:.3e} after {restarts} restarts"
    )
    return FeasibilityTrace(
        valence, feasible, False, steps, (), summary
    )


def algorithm1_run(valence, restarts=60, seed=0):
    """Replay the repartition feasibility chain for qubit strands.

    Valences 2, 4 and 6 run the exact closed-form replay; other even
    valences fall back to numerical search evidence. Odd valence has an
    empty invariant space and is reported infeasible outright.
    """
    if valence % 2:
        return FeasibilityTrace(
            valence, False, True, (), (),
            "infeasible: an odd number of spin-1/2 legs cannot couple to"
            " total spin 0 (empty invariant space)",
        )
    if valence == 2:
        return _run_valence2()
    if valence == 4:
        return _run_valence4()
    if valence == 6:
        return _run_valence6()
    return _run_numeric(valence, restarts=restarts, seed=seed)
