"""Perfectness certification, layout feasibility, and defect search.

certify_perfect checks one tensor against every admissible bipartition and
reports the isometry scale, defect and Schur block spectrum for each. The
layout checks test necessary conditions on the leg spins alone, the phase
walk analysis rules out balanced 4-valent qubit solutions by intersecting
relative-phase windows, and search_min_defect numerically minimizes the
summed defect over the invariant subspace to corroborate infeasibility.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bridge, su2, tensors
from .errors import (
    EmptyInvariantSpace,
    EvenValence,
    OddValence,
    ZeroTensor,
)
from .tensors import LabeledTensor

__all__ = [
    "CertReport", "certify_perfect", "layout_check_even", "layout_check_odd",
    "scott_bound", "PhaseWalkReport", "phase_walk_feasibility",
    "SearchResult", "search_min_defect", "LadderReport", "schur_ladder_report",
]


@dataclass(frozen=True, slots=True)
class CertReport:
    """Certification outcome: per-bipartition data plus one verdict.

    Stored compactly, every number computed by certify_perfect: `parts` is
    the shared tuple from tensors.bipartitions; `values` is one float64
    array of (lambda_est, defect) for each row in turn; `moduli` is None
    when the verdict is "not_invariant" and otherwise holds every row's
    block moduli, rounded to 9 decimals, J blocks ascending (A-side
    multiplicity each), each block in descending order. A rounded modulus is
    k / 1e9 for an integer k, so `moduli` stores k as uint32 when every
    k / 1e9 reproduces its modulus exactly and k < 2**32 (moduli below
    4.29, as for any unit tensor), and the float64 moduli otherwise.
    `per_bipartition` re-packs them into (Bipartition, lambda_est, defect,
    SchurSpectrum or None) rows.
    """

    legs: tuple
    parts: tuple
    values: np.ndarray
    moduli: object
    invariance: float
    verdict: str  # "perfect", "not_perfect", or "not_invariant"
    tolerance: float
    norm_squared: float
    mode: str = "leg_count"

    @property
    def per_bipartition(self):
        values = self.values.tolist()
        moduli = self.moduli
        if moduli is not None:
            moduli = (moduli / 1e9 if moduli.dtype == np.uint32 else moduli).tolist()
        pos = 0
        rows = []
        for i, p in enumerate(self.parts):
            spec = None
            if moduli is not None:
                blocks = {}
                tops = tensors._top_columns(tuple(self.legs[k - 1] for k in p.a))
                for tj, top in tops.items():
                    blocks[tj] = moduli[pos:pos + top.shape[1]]
                    pos += top.shape[1]
                spec = tensors.SchurSpectrum(tensors._spectrum_entries(blocks))
            rows.append((p, values[2 * i], values[2 * i + 1], spec))
        return tuple(rows)

    def worst_defect(self):
        return max(self.values[1::2].tolist(), default=0.0)

    def to_json_dict(self):
        rows = []
        for p, lam, defect, spec in self.per_bipartition:
            rows.append({
                "a": list(p.a),
                "b": list(p.b),
                "lambda_est": lam,
                "defect": defect,
                "spectrum": None if spec is None else [
                    {"J": su2.format_spin(tj), "modulus": mod, "multiplicity": mult}
                    for tj, mod, mult in spec.entries
                ],
            })
        return {
            "verdict": self.verdict,
            "invariance": self.invariance,
            "tolerance": self.tolerance,
            "norm_squared": self.norm_squared,
            "mode": self.mode,
            "bipartitions": rows,
        }


def certify_perfect(t, tolerance=1e-10, dimension_count=False):
    """Certify a tensor by checking every admissible bipartition.

    The default gate follows the particle-count definition (|A| <= |B| by
    leg count); dimension_count instead admits every split whose first-side
    dimension does not exceed the second's. Verdict is "not_invariant" when
    the tensor leaves the invariant subspace, otherwise "perfect" exactly
    when all defects stay below tolerance.

    For an invariant tensor every row comes from the Schur block moduli
    sigma_J (tensors._block_moduli): the Gram's eigenvalues are sigma_J^2,
    each repeated d_J = 2J+1 times, so

        lambda = sum_J d_J sum_i sigma_Ji^2 / d_A,
        defect = sqrt(sum_J d_J sum_i (sigma_Ji^2 - lambda)^2)
                 / sqrt(sum_J d_J sum_i sigma_Ji^4).

    A non-invariant tensor gets the dense tensors.isometry_defect per row
    and no spectrum.
    """
    if t.norm_squared() == 0.0:
        raise ZeroTensor("cannot certify the zero tensor")
    invariance = tensors.invariance_defect(t)
    invariant = invariance <= tolerance
    if dimension_count:
        parts = tensors.bipartitions(t.valence, dims=tuple(su2.dim(leg) for leg in t.legs))
        mode = "dimension_count"
    else:
        parts = tensors.bipartitions(t.valence)
        mode = "leg_count"
    pairs = []  # lambda_est, defect for each row in turn
    moduli = []
    for p in parts:
        if not invariant:
            pairs.extend(tensors.isometry_defect(t, p))
            continue
        blocks = tensors._block_moduli(t, p)
        sq = np.concatenate(list(blocks.values())) ** 2
        weights = np.repeat([su2.dim(tj) for tj in blocks],
                            [len(sigma) for sigma in blocks.values()])
        lam = weights @ sq / weights.sum()
        dev = sq - lam
        pairs += [lam, math.sqrt(weights @ (dev * dev)) / math.sqrt(weights @ (sq * sq))]
        for sigma in blocks.values():
            moduli.extend(tensors._rounded_moduli(sigma))
    if not invariant:
        verdict = "not_invariant"
        moduli = None
    else:
        verdict = "perfect" if max(pairs[1::2]) < tolerance else "not_perfect"
        moduli = np.array(moduli)
        # half the bytes for the common case; callers may keep many reports
        codes = np.rint(moduli * 1e9)
        if codes.max() < 2**32 and np.array_equal(codes / 1e9, moduli):
            moduli = codes.astype(np.uint32)
    return CertReport(
        t.legs, parts, np.array(pairs, dtype=float), moduli,
        invariance, verdict, tolerance, t.norm_squared(), mode,
    )


def layout_check_even(legs):
    """Necessary condition for even valence: every leg carries the same spin."""
    legs = tuple(legs)
    if len(legs) % 2:
        raise OddValence("even-valence layout check needs an even leg count")
    return "pass" if len(set(legs)) <= 1 else "fail"


def layout_check_odd(legs):
    """Necessary condition for odd valence: the floor(n/2) largest spins must
    not outweigh the remaining ones."""
    legs = tuple(legs)
    if len(legs) % 2 == 0:
        raise EvenValence("odd-valence layout check needs an odd leg count")
    ordered = sorted(legs, reverse=True)
    half = len(legs) // 2
    return "pass" if sum(ordered[:half]) <= sum(ordered[half:]) else "fail"


def scott_bound(local_dim, valence):
    """Upper bound on perfect-tensor valence for a given local dimension."""
    if local_dim < 2:
        raise ValueError("local dimension must be at least 2")
    return "pass" if valence <= 2 * (local_dim**2 - 1) else "fail"


class PhaseWalkReport(NamedTuple):
    x: float
    interval_a: tuple
    interval_b: tuple
    disjoint: bool
    grid_min_residual: float
    walk1_min: float
    walk2_min: float
    min_at_dphi: float
    grid_points: int

    def to_json_dict(self):
        d = self._asdict()
        d["interval_a"] = list(self.interval_a)
        d["interval_b"] = list(self.interval_b)
        return d


def _walk_bin_minima(signs, grid, bins):
    """Min residual of one walk equation in each relative-phase bin.

    The walk is s0*3/2 e^{i th_s} + s1*3/2 e^{i(th_a+th_s-xi)} + s2*3/2
    e^{i xi} + 1/2 e^{i th_a} = 4 and the relative phase is th_s - xi. Its
    residual is |U + V e^{i th_a}| with U = s0*3/2 e^{i th_s} + s2*3/2
    e^{i xi} - 4 and V = s1*3/2 e^{i(th_s-xi)} + 1/2, so for each (th_s, xi)
    the minimum over the th_a grid lies at one of the two grid points
    around arg(-U/V) (see phase_walk_feasibility).
    """
    s0, s1, s2 = signs
    angles = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    step = 2.0 * math.pi / grid
    turns = np.exp(1j * angles)
    term_xi = s2 * 1.5 * turns
    term_a = 0.5 * turns
    best = np.full(bins, np.inf)
    for th_s in angles:
        term_s = s0 * 1.5 * np.exp(1j * th_s)
        u = term_s + term_xi - 4.0
        v = s1 * 1.5 * np.exp(1j * (th_s - angles)) + 0.5
        below = np.floor(np.mod(np.angle(-u / v), 2.0 * math.pi) / step).astype(int)
        res_by_xi = np.full(grid, np.inf)
        for k in (below % grid, (below + 1) % grid):
            # the walk written term by term, as the full scan sums it
            th_a = angles[k]
            total = (
                term_s
                + s1 * 1.5 * np.exp(1j * (th_a + th_s - angles))
                + term_xi
                + term_a[k]
                - 4.0
            )
            res_by_xi = np.minimum(res_by_xi, np.abs(total))
        dphi = np.mod(th_s - angles, 2.0 * math.pi)
        idx = np.minimum((dphi / (2.0 * math.pi) * bins).astype(int), bins - 1)
        np.minimum.at(best, idx, res_by_xi)
    return best


def phase_walk_feasibility(grid=200, bins=720):
    """Intersect the relative-phase windows of the two balanced-split walks.

    Closed form: each walk forces the relative phase into a window of half
    width 2x around 0 or around pi, with x = arccos(7/9); the windows are
    disjoint exactly because cos(pi/4) < 7/9. The independent grid scan
    minimizes each walk's residual per relative-phase bin and reports the
    smallest joint residual, which must stay strictly positive.

    The scan is O(grid^2), not O(grid^3). At fixed th_s and xi a walk's
    residual is |U + V e^{i th_a}|, whose square is |U|^2 + |V|^2 +
    2|U||V| cos(th_a - th*) with th* = arg(-U/V) (|V| >= 1, so th* exists
    whenever U != 0). It falls monotonically as th_a approaches th* along
    the circle, so the minimum over the th_a grid is at one of the two grid
    points on either side of th*, and only those two are evaluated.
    """
    x = math.acos(7.0 / 9.0)
    interval_a = (-2.0 * x, 2.0 * x)
    interval_b = (math.pi - 2.0 * x, math.pi + 2.0 * x)
    disjoint = 2.0 * x < math.pi - 2.0 * x
    best1 = _walk_bin_minima((-1.0, -1.0, -1.0), grid, bins)
    best2 = _walk_bin_minima((-1.0, 1.0, 1.0), grid, bins)
    joint = np.sqrt(best1**2 + best2**2)
    k = int(np.argmin(joint))
    return PhaseWalkReport(
        x=x,
        interval_a=interval_a,
        interval_b=interval_b,
        disjoint=disjoint,
        grid_min_residual=float(joint[k]),
        walk1_min=float(best1.min()),
        walk2_min=float(best2.min()),
        min_at_dphi=float((k + 0.5) * 2.0 * math.pi / bins),
        grid_points=grid,
    )


class SearchResult(NamedTuple):
    best_coefficients: object
    best_defect: float
    restarts: int
    seed: int

    def to_json_dict(self):
        coeffs = self.best_coefficients
        if hasattr(coeffs, "to_json_dict"):
            coeffs = coeffs.to_json_dict()
        else:
            coeffs = [[z.real, z.imag] for z in coeffs]
        return {
            "best_coefficients": coeffs,
            "best_defect": self.best_defect,
            "restarts": self.restarts,
            "seed": self.seed,
        }


class _DefectObjective:
    """Summed bipartition defect evaluated on Schur blocks.

    For an invariant-basis expansion t(z) = sum_k z_k e_k, Schur's lemma
    makes each bipartition Gram G_p(z) equal, in the A-side coupled basis,
    to the direct sum over total spins J of X_J(z) (x) 1_{2J+1}, where
    X_J = top_J^T G_p top_J and top_J holds the M = J vector of every
    A-side coupling path closing at J. Each X_J(z) = sum_{kl} conj(z_k) z_l
    Q_pJkl is quadratic in z, so one call is a single matrix-vector product
    onto all block entries followed by per-bipartition sums weighted by
    d_J = 2J+1:

        defect_p = sqrt(sum_J d_J ||X_J - lambda 1||_F^2)
                   / sqrt(sum_J d_J ||X_J||_F^2),
        lambda = sum_J d_J tr X_J / d_A.
    """

    def __init__(self, legs):
        basis = tensors.invariant_basis(legs)
        if not basis:
            raise EmptyInvariantSpace(
                f"no invariant tensors for legs {tuple(legs)}"
            )
        self.legs = tuple(legs)
        self.basis = basis
        self.k = len(basis)
        parts = tensors.bipartitions(len(legs))
        self.parts = parts
        # one column per block entry (p, J, a, b); per entry: d_J, the
        # bipartition index p, and whether a == b
        blocks, weights, part_of, diag, dims = [], [], [], [], []
        for pi, p in enumerate(parts):
            sides = np.stack([tensors._side_matrix(e, p.a, p.b) for e in basis])
            dims.append(sides.shape[1])
            tops = tensors._top_columns(tuple(self.legs[i - 1] for i in p.a))
            for tj, top in tops.items():
                mult = top.shape[1]
                r = np.einsum("am,kab->kmb", top, sides)
                q = np.einsum("kac,lbc->klab", r.conj(), r)
                blocks.append(q.reshape(self.k * self.k, mult * mult))
                weights.append(np.full(mult * mult, float(su2.dim(tj))))
                part_of.append(np.full(mult * mult, pi))
                diag.append(np.eye(mult).ravel())
        self.qmat = np.ascontiguousarray(np.concatenate(blocks, axis=1))
        self.weights = np.concatenate(weights)
        self.part_of = np.concatenate(part_of)
        self.diag = np.concatenate(diag)
        # lambda_p = sum of d_J X_aa / d_A over the diagonal entries of p
        self.lam_weights = self.weights * self.diag / np.array(dims)[self.part_of]

    def defects(self, z):
        w = np.outer(np.conj(z), z).ravel()
        x = w @ self.qmat
        n = len(self.parts)
        lam = np.bincount(self.part_of, self.lam_weights * x.real, n)
        dev = x - lam[self.part_of] * self.diag
        num = np.bincount(self.part_of, self.weights * (dev.real**2 + dev.imag**2), n)
        den = np.bincount(self.part_of, self.weights * (x.real**2 + x.imag**2), n)
        return np.sqrt(num) / np.maximum(np.sqrt(den), 1e-300)

    def __call__(self, v):
        z = v[: self.k] + 1j * v[self.k :]
        nz = np.linalg.norm(z)
        if nz < 1e-12:
            return 1e6
        return float(self.defects(z / nz).sum())


def search_min_defect(legs, restarts=100, seed=0):
    """Multistart minimization of the summed bipartition defect.

    Starting points are drawn from a seeded uniform sphere distribution, so
    results are reproducible and monotone in the restart count for a fixed
    seed. Returns the best coefficients (bridge coefficients when every leg
    is spin 1/2 and the valence is even, otherwise raw invariant-basis
    amplitudes), the best summed defect, and the search parameters.
    """
    from scipy import optimize

    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    obj = _DefectObjective(legs)
    rng = np.random.default_rng(seed)
    dim = 2 * obj.k
    best_v = None
    best_f = math.inf
    for _ in range(restarts):
        v0 = rng.normal(size=dim)
        v0 /= np.linalg.norm(v0)
        res = optimize.minimize(
            obj, v0, method="Nelder-Mead",
            options={"maxiter": 600, "fatol": 1e-14, "xatol": 1e-10},
        )
        if res.fun < best_f:
            best_f = float(res.fun)
            best_v = res.x
    z = best_v[: obj.k] + 1j * best_v[obj.k :]
    z /= np.linalg.norm(z)
    data = sum(c * e.data for c, e in zip(z, obj.basis))
    t = LabeledTensor(obj.legs, data)
    if all(leg == 1 for leg in obj.legs) and len(obj.legs) % 2 == 0:
        coeffs = bridge.decompose(t, len(obj.legs) // 2)
    else:
        coeffs = tuple(complex(c) for c in z)
    return SearchResult(coeffs, best_f, restarts, seed)


class LadderReport(NamedTuple):
    spectrum: object
    j_min: int  # twice the smallest reachable total spin on the A side
    j_max: int  # twice the largest
    expected_multiplicities: tuple  # of (twice_J, count)

    def to_json_dict(self):
        return {
            "spectrum": [
                {"J": su2.format_spin(tj), "modulus": mod, "multiplicity": mult}
                for tj, mod, mult in self.spectrum.entries
            ],
            "j_min": su2.format_spin(self.j_min),
            "j_max": su2.format_spin(self.j_max),
            "expected_multiplicities": [
                {"J": su2.format_spin(tj), "count": c}
                for tj, c in self.expected_multiplicities
            ],
        }


def schur_ladder_report(t, p):
    """Schur spectrum annotated with the reachable total-spin range.

    Multiplicities count the A-side coupling paths landing on each J, read
    from the cached coupled columns of tensors._top_columns.
    """
    spec = tensors.schur_spectrum(t, p)
    top = tensors._top_columns(tuple(t.legs[i - 1] for i in p.a))
    # an empty A side couples only to J = 0, once
    expected = tuple((tj, cols.shape[1]) for tj, cols in top.items()) or ((0, 1),)
    return LadderReport(spec, expected[0][0], expected[-1][0], expected)
