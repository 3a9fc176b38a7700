"""Dense labeled tensors: contraction, bipartitions, Gram and defect analysis.

A LabeledTensor is an immutable dense complex array whose axes carry spin
labels (twice-spin integers). Leg indices in the public API are 1-based.
"""

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, groupby
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import su2
from .errors import (
    BadBipartition, NotInvariant, SpinMismatch, ZeroTensor,
)

__all__ = [
    "LabeledTensor", "Bipartition", "SchurSpectrum", "contract",
    "permute_legs", "bipartitions", "gram", "isometry_defect",
    "invariance_defect", "schur_spectrum", "invariant_basis",
    "random_invariant", "to_json_dict", "from_json_dict", "dumps_tensor",
    "loads_tensor",
]


@dataclass(frozen=True)
class LabeledTensor:
    """Dense complex tensor with one spin label per leg."""

    legs: tuple
    data: np.ndarray

    def __post_init__(self):
        legs = tuple(int(t) for t in self.legs)
        shape = tuple(su2.dim(t) for t in legs)
        data = np.asarray(self.data, dtype=complex)
        if data.shape != shape:
            # a flat vector of the right size is read with leg 1 slowest;
            # any other shape is an error, never a silent reshape
            if data.ndim != 1 or data.size != math.prod(shape):
                raise ValueError(f"data of shape {data.shape} does not fit"
                                 f" legs of shape {shape}")
            data = data.reshape(shape)
        if not np.all(np.isfinite(data)):
            raise ValueError("tensor entries must be finite")
        data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "data", data)

    @property
    def valence(self):
        return len(self.legs)

    def norm_squared(self):
        return float(np.vdot(self.data, self.data).real)

    def norm(self):
        return float(np.linalg.norm(self.data))

    def scaled(self, factor):
        return LabeledTensor(self.legs, self.data * factor)

    def overlap(self, other):
        """Hermitian inner product <self|other> over all legs."""
        if self.legs != other.legs:
            raise SpinMismatch(f"legs {self.legs} vs {other.legs}")
        return complex(np.vdot(self.data, other.data))


class Bipartition(NamedTuple):
    """Ordered disjoint leg index tuples (a, b) covering 1..n."""

    a: tuple
    b: tuple


class SchurSpectrum(NamedTuple):
    """Per-total-spin block moduli: entries of (twice_J, modulus, multiplicity).

    Moduli are rounded to 9 decimals; within each J (ascending) they are
    listed in descending order, equal rounded values merged into one entry.
    """

    entries: tuple


def contract(t1, t2, pairs):
    """Contract t1 with t2 over the given 1-based leg index pairs.

    Remaining legs are ordered t1-then-t2 in their original order.
    """
    ax1, ax2 = [], []
    for i, j in pairs:
        if not (1 <= i <= t1.valence and 1 <= j <= t2.valence):
            raise IndexError(f"contraction pair ({i}, {j}) out of range")
        if t1.legs[i - 1] != t2.legs[j - 1]:
            raise SpinMismatch(
                f"leg {i} (spin {su2.format_spin(t1.legs[i - 1])}) vs "
                f"leg {j} (spin {su2.format_spin(t2.legs[j - 1])})")
        ax1.append(i - 1)
        ax2.append(j - 1)
    data = np.tensordot(t1.data, t2.data, axes=(ax1, ax2))
    legs = tuple(t for k, t in enumerate(t1.legs) if k not in ax1)
    legs += tuple(t for k, t in enumerate(t2.legs) if k not in ax2)
    return LabeledTensor(legs, data)


def permute_legs(t, new_order):
    """Rearrange legs so position p of the result holds leg new_order[p]."""
    if sorted(new_order) != list(range(1, t.valence + 1)):
        raise ValueError(f"{new_order} is not a permutation of 1..{t.valence}")
    axes = [i - 1 for i in new_order]
    return LabeledTensor(tuple(t.legs[i] for i in axes), np.transpose(t.data, axes))


@lru_cache(maxsize=None)
def bipartitions(n, balance="all_half_or_less", dims=None):
    """Canonical A-side enumerations with the A side no larger than the B side.

    Size is the leg count by default; given the leg dimensions `dims` (a
    tuple), it is the side dimension instead. "balanced_only" keeps A-sets of
    exactly floor(n/2) legs. A-sets are lexicographic by size; when both
    sides are the same size only the representative with leg 1 on the A side
    is kept. The result is a cached tuple shared by every caller.
    """
    if n < 2:
        raise ValueError("need at least two legs")
    if balance not in ("all_half_or_less", "balanced_only"):
        raise ValueError(f"unknown balance mode {balance!r}")

    def size(side):
        return len(side) if dims is None else math.prod(dims[i - 1] for i in side)

    sizes = [n // 2] if balance == "balanced_only" else range(1, n)
    out = []
    legs = range(1, n + 1)
    for k in sizes:
        for a in combinations(legs, k):
            b = tuple(i for i in legs if i not in a)
            if size(a) > size(b) or (size(a) == size(b) and 1 not in a):
                continue
            out.append(Bipartition(a, b))
    return tuple(out)


def _validate_bipartition(t, p):
    """Require p to partition t's legs with A no larger than B.

    A counts as larger only when it exceeds B both by leg count and by
    dimension, so every split admitted by either gate of bipartitions passes.
    """
    union = sorted(p.a + p.b)
    if union != list(range(1, t.valence + 1)):
        raise BadBipartition(f"sides {p.a} | {p.b} do not partition 1..{t.valence}")

    if len(p.a) > len(p.b):
        dim_a, dim_b = (math.prod(su2.dim(t.legs[i - 1]) for i in side)
                        for side in (p.a, p.b))
        if dim_a > dim_b:
            raise BadBipartition(f"|A| = {len(p.a)} exceeds |B| = {len(p.b)}")


def _side_matrix(t, row_legs, col_legs):
    """Reshape t into a (rows, cols) matrix with the given 1-based leg groups."""
    axes = [i - 1 for i in row_legs] + [i - 1 for i in col_legs]
    rows = int(np.prod([su2.dim(t.legs[i - 1]) for i in row_legs], initial=1))
    return np.transpose(t.data, axes).reshape(rows, -1)


def gram(t, p):
    """Gram matrix G of t read as a map from the A side to the B side."""
    _validate_bipartition(t, p)
    m = _side_matrix(t, p.a, p.b)
    return m.conj() @ m.T


def isometry_defect(t, p):
    """(lambda_est, defect): trace-based scale and Frobenius defect of the Gram.

    defect = ||G - lambda_est * 1||_F / ||G||_F, zero exactly when the A-to-B
    map is a partial isometry.
    """
    if t.norm_squared() == 0.0:
        raise ZeroTensor("isometry defect of the zero tensor")
    g = gram(t, p)
    dim_a = g.shape[0]
    lam = float(np.trace(g).real) / dim_a
    defect = float(np.linalg.norm(g - lam * np.eye(dim_a)) / np.linalg.norm(g))
    return lam, defect


def invariance_defect(t):
    """Normalized norm of the total su(2) action on t, maximized over x, y, z.

    Zero exactly for invariant tensors (the infinitesimal invariance test).
    """
    nrm = t.norm()
    if nrm == 0.0:
        raise ZeroTensor("invariance defect of the zero tensor")
    worst = 0.0
    for which in range(3):
        total = np.zeros_like(t.data)
        for axis, leg in enumerate(t.legs):
            g = su2.generators(leg)[which]
            moved = np.tensordot(g, t.data, axes=([1], [axis]))
            total += np.moveaxis(moved, 0, axis)
        worst = max(worst, float(np.linalg.norm(total)) / nrm)
    return worst


@lru_cache(maxsize=None)
def _top_columns(leg_spins):
    """Highest-weight coupled vectors grouped by total spin.

    Returns a read-only {twice_J: read-only array of shape (prod dims, mult)}:
    column i is the M = J vector of the i-th coupling path closing at J, in
    path order.
    """
    cols = {}
    for path in su2.coupling_paths(leg_spins):
        cols.setdefault(path[-1], []).append(su2.chain_isometry(leg_spins, path)[:, 0])
    out = {}
    for tj, vs in sorted(cols.items()):
        top = np.stack(vs, axis=1)
        top.setflags(write=False)
        out[tj] = top
    return MappingProxyType(out)


def _block_moduli(t, p):
    """{twice_J: sigma_J} for an invariant t read as an A-to-B map.

    sigma_J holds the singular values of the B-by-A matrix of t applied to
    top_J (the M = J vector of every A-side coupling path), zero-padded to
    the A-side multiplicity of J. By Schur's lemma the Gram of p is
    (+)_J (mu_J^dag mu_J) (x) 1_{2J+1} in the A-side coupled basis, and
    sigma_J are the singular values |mu_J|, so neither the B-side basis nor
    the other M columns are needed. t is assumed invariant and p valid.
    """
    n = _side_matrix(t, p.b, p.a)
    out = {}
    for tj, top in _top_columns(tuple(t.legs[i - 1] for i in p.a)).items():
        sigma = np.linalg.svd(n @ top, compute_uv=False)
        out[tj] = np.concatenate([sigma, np.zeros(top.shape[1] - len(sigma))])
    return out


def _rounded_moduli(sigma):
    """Moduli rounded to 9 decimals, in descending order (Python floats)."""
    return sorted((round(v, 9) for v in sigma.tolist()), reverse=True)


def _spectrum_entries(blocks):
    """SchurSpectrum entries from {twice_J: rounded moduli, descending}."""
    return tuple((tj, key, sum(1 for _ in run))
                 for tj, vals in blocks.items() for key, run in groupby(vals))


def schur_spectrum(t, p, tolerance=1e-10):
    """Block moduli |mu_J| of an invariant tensor read as an A-to-B map.

    Each total spin J in the A-side decomposition contributes entries
    (J, modulus, multiplicity); zero singular values pad each J block up to
    its A-side multiplicity. The moduli come from _block_moduli, so one call
    costs one invariance check plus one small SVD per J.
    """
    _validate_bipartition(t, p)
    if invariance_defect(t) > tolerance:
        raise NotInvariant("schur spectrum requires an invariant tensor")
    blocks = _block_moduli(t, p)
    return SchurSpectrum(_spectrum_entries(
        {tj: _rounded_moduli(sigma) for tj, sigma in blocks.items()}))


def invariant_basis(leg_spins):
    """Orthonormal basis of the SU(2)-invariant subspace for the given legs.

    One basis state per coupling path that closes at total spin 0; empty when
    no path does.
    """
    legs = tuple(leg_spins)
    out = []
    for path in su2.coupling_paths(legs):
        if path[-1] != 0:
            continue
        w = su2.chain_isometry(legs, path)
        out.append(LabeledTensor(legs, w[:, 0]))
    return out


def random_invariant(leg_spins, rng):
    """Random unit-norm invariant tensor for the given legs."""
    basis = invariant_basis(leg_spins)
    if not basis:
        raise ValueError("invariant subspace is empty")
    z = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    z /= np.linalg.norm(z)
    data = sum(c * e.data for c, e in zip(z, basis))
    return LabeledTensor(leg_spins, data)


def to_json_dict(t):
    """Tensor as {"legs": [...], "data": [[re, im], ...]}, leg 1 slowest."""
    flat = t.data.reshape(-1)
    return {
        "legs": [su2.format_spin(leg) for leg in t.legs],
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }


def from_json_dict(doc):
    """Inverse of to_json_dict; round-trips bit-exactly.

    Raises ValueError when "legs" or "data" is missing or malformed.
    """
    if not isinstance(doc, dict):
        raise ValueError("tensor JSON must be an object with \"legs\" and \"data\"")
    for key in ("legs", "data"):
        if not isinstance(doc.get(key), list):
            raise ValueError(f"tensor JSON needs a \"{key}\" list")
    if not all(isinstance(s, str) for s in doc["legs"]):
        raise ValueError("tensor JSON \"legs\" must be spin strings like \"1/2\"")
    legs = tuple(su2.parse_spin(s) for s in doc["legs"])
    size = math.prod(su2.dim(t) for t in legs)
    raw = doc["data"]
    if len(raw) != size:
        raise ValueError(f"expected {size} entries, got {len(raw)}")
    try:
        flat = np.array([complex(re, im) for re, im in raw], dtype=complex)
    except (TypeError, ValueError):
        raise ValueError("tensor JSON \"data\" entries must be [re, im]"
                         " number pairs") from None
    return LabeledTensor(legs, flat)


def dumps_tensor(t):
    return json.dumps(to_json_dict(t))


def loads_tensor(text):
    return from_json_dict(json.loads(text))
