"""Bridge states: construction, theta networks, calibration, decomposition.

A bridge state is the invariant tensor built from two sequential coupling
paths that meet at a shared "bridge" spin: the first path couples legs
1..n1 in order, the second couples legs n..n1+1 from the outside in. The
squared norm of a bridge state is an exact rational theta-network value,
and the states for one split form an orthogonal basis of the invariant
subspace.

The normalisation is one closed form. Both chains are isometries, so the
unscaled state has squared norm 2b+1 at bridge spin b; scaling it by
sqrt(theta / (2b+1)) makes its squared norm the theta value of its double
path. calibrate() checks that against exact and numeric oracles.

All closed-form evaluation here is for spin-1/2 strands; enumeration of
labels works for any strand spin.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import su2
from .errors import (
    CalibrationFailure, InadmissibleLabel, InvalidStep, NotInvariant,
)
from .tensors import LabeledTensor

__all__ = [
    "BridgeLabel", "CoefficientVector", "loop_factor", "theta",
    "theta_single", "bridge_basis", "build_bridge_state", "calibrate",
    "identity_decomposition", "identity_state", "decompose", "assemble",
    "mirror_sign",
]


def _path_admissible(path, strand):
    if not path or path[0] != strand:
        return False
    return all(su2.admissible_triple(a, strand, b) for a, b in zip(path, path[1:]))


@dataclass(frozen=True)
class BridgeLabel:
    """A pair of coupling paths meeting at a shared bridge spin.

    j_path couples legs 1..n1 in order; k_path couples legs n..n1+1 from the
    outermost leg inward, so both paths end at the bridge spin.
    """

    j_path: tuple
    k_path: tuple
    strand: int = 1

    def __post_init__(self):
        object.__setattr__(self, "j_path", tuple(int(t) for t in self.j_path))
        object.__setattr__(self, "k_path", tuple(int(t) for t in self.k_path))
        if not _path_admissible(self.j_path, self.strand):
            raise InadmissibleLabel(f"inadmissible j path {self.j_path}")
        if not _path_admissible(self.k_path, self.strand):
            raise InadmissibleLabel(f"inadmissible k path {self.k_path}")
        if self.j_path[-1] != self.k_path[-1]:
            raise InadmissibleLabel(
                f"bridge spins differ: {self.j_path} vs {self.k_path}")

    @property
    def bridge(self):
        return self.j_path[-1]

    @property
    def n1(self):
        return len(self.j_path)

    @property
    def n2(self):
        return len(self.k_path)

    @property
    def valence(self):
        return self.n1 + self.n2

    def double_path(self):
        """The j path continued back down the k path, sharing the bridge."""
        return self.j_path + tuple(reversed(self.k_path))[1:]

    def text(self):
        """Render as "j_1,...,bridge | bridge,...,k_1"."""
        left = ",".join(su2.format_spin(t) for t in self.j_path)
        right = ",".join(su2.format_spin(t) for t in reversed(self.k_path))
        return f"{left} | {right}"

    @classmethod
    def parse(cls, text):
        left, _, right = text.partition("|")
        if not right:
            raise InadmissibleLabel(f"missing '|' in label {text!r}")
        j_path = tuple(su2.parse_spin(s) for s in left.split(","))
        k_path = tuple(su2.parse_spin(s) for s in reversed(right.split(",")))
        return cls(j_path, k_path, strand=j_path[0])

    def __repr__(self):
        return f"BridgeLabel({self.text()!r})"


def _sort_key(label):
    return (
        -label.bridge,
        tuple(-t for t in label.k_path),
        tuple(-t for t in label.j_path),
    )


@dataclass
class CoefficientVector:
    """Bridge-basis coefficients c_label; optionally carries a fit residual."""

    entries: dict
    residual: float = None

    def labels(self):
        return sorted(self.entries, key=_sort_key)

    def as_array(self, labels=None):
        labels = list(labels) if labels is not None else self.labels()
        return np.array([complex(self.entries[m]) for m in labels])

    def to_json_dict(self):
        out = {}
        for m in self.labels():
            v = self.entries[m]
            if isinstance(v, Fraction):
                out[m.text()] = str(v)
            else:
                z = complex(v)
                out[m.text()] = [z.real, z.imag]
        return out


def loop_factor(twice_j, direction):
    """Loop-resolution factor for one strand step at spin j.

    Up steps (to j+1/2) contribute (2j+2)/(2j+1); down steps contribute 1.
    """
    if direction == "up":
        return Fraction(twice_j + 2, twice_j + 1)
    if direction == "down":
        if twice_j < 1:
            raise InvalidStep("cannot step down from spin 0")
        return Fraction(1)
    raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")


def theta_single(path):
    """Exact theta value of one closed two-strand ladder over the given path."""
    path = tuple(path)
    if path[0] != 1:
        raise ValueError("theta closed form requires strand spin 1/2")
    value = Fraction(path[0] + 1)
    for prev, nxt in zip(path, path[1:]):
        if nxt == prev + 1:
            value *= loop_factor(prev, "up")
        elif nxt == prev - 1:
            value *= loop_factor(prev, "down")
        else:
            raise ValueError(f"step {prev} -> {nxt} is not a spin-1/2 step")
    return value


def theta(j_path, k_path):
    """Theta network of two coupling paths; zero unless the paths coincide.

    Both paths are validated first, so an invalid step raises ValueError
    even when the paths differ.
    """
    j_path, k_path = tuple(j_path), tuple(k_path)
    value = theta_single(j_path)
    theta_single(k_path)
    return value if j_path == k_path else Fraction(0)


def theta_label(label):
    """Squared norm of a bridge state: theta of its double path."""
    return theta_single(label.double_path())


def bridge_basis(valence, n1, strand=1):
    """All bridge labels for the split (1..n1 | n1+1..valence).

    Canonical order: bridge spin descending, then k path descending, then
    j path descending (elementwise).
    """
    if not 1 <= n1 < valence:
        raise ValueError(f"need 1 <= n1 < valence, got n1={n1}, valence={valence}")
    n2 = valence - n1
    j_paths = {}
    for p in su2.coupling_paths([strand] * n1):
        j_paths.setdefault(p[-1], []).append(p)
    labels = []
    for k in su2.coupling_paths([strand] * n2):
        for j in j_paths.get(k[-1], ()):
            labels.append(BridgeLabel(j, k, strand))
    return sorted(labels, key=_sort_key)


def mirror_sign(label):
    """Relative sign between a label and its side-reflected partner.

    Labels whose two paths differ get a sign fixed by the parity of half the
    path-weight difference; paths of equal length always make that an
    integer. The choice orients asymmetric basis states so that same-side
    swap matrices take their standard rational form. Unequal path lengths
    leave the exponent fractional, and the sign is defined as +1 there.
    """
    diff = sum(label.j_path) - sum(label.k_path)
    if diff % 2:
        return 1
    return -1 if (diff // 2) % 2 else 1


def build_bridge_state(label):
    """Assemble the numeric bridge state for a spin-1/2 label.

    Legs 1..n1 are coupled along j_path, legs n..n1+1 along k_path starting
    from leg n; the chains are joined over the bridge spin and every leg on
    the first side is closed with epsilon. The result is scaled by
    mirror_sign(label) * sqrt(theta_label(label) / (2b+1)), so its squared
    norm equals the theta value of the label's double path.
    """
    if label.strand != 1:
        raise InadmissibleLabel("numeric bridge states require strand spin 1/2")
    n1, n2 = label.n1, label.n2
    n = n1 + n2
    wj = su2.chain_isometry([1] * n1, label.j_path)
    wk = su2.chain_isometry([1] * n2, label.k_path)
    scale = mirror_sign(label) * math.sqrt(theta_label(label) / (label.bridge + 1))
    m = scale * (wk @ wj.conj().T)

    eps = su2.epsilon_matrix(1)
    pull = eps
    for _ in range(n1 - 1):
        pull = np.kron(pull, eps)
    state = pull @ m.T
    arr = state.reshape([2] * n)
    # axes currently: legs 1..n1 then legs n, n-1, ..., n1+1
    perm = list(range(n1)) + [n1 + (n - i) for i in range(n1 + 1, n + 1)]
    arr = np.transpose(arr, perm)
    return LabeledTensor((1,) * n, arr)


@lru_cache(maxsize=None)
def _basis_states(valence, n1):
    """Labels, numeric states and float theta norms of a split's basis."""
    labels = bridge_basis(valence, n1, 1)
    return (labels, tuple(build_bridge_state(m) for m in labels),
            tuple(float(theta_label(m)) for m in labels))


def calibrate(max_valence=8, tolerance=1e-10):
    """Check the bridge-state normalisation against exact and numeric oracles.

    Exact check: for every qubit label up to max_valence, theta of the double
    path times 2b+1 equals the product of the two single-path thetas, the
    identity that makes the closed-form scale consistent across splits.
    Numeric check: each basis Gram matrix equals diag(theta_double) within
    tolerance. Raises CalibrationFailure on any mismatch.
    """
    for valence in range(2, max_valence + 1):
        for n1 in range(1, valence):
            labels = bridge_basis(valence, n1, 1)
            if not labels:
                continue
            for m in labels:
                lhs = theta_label(m) * (m.bridge + 1)
                rhs = theta_single(m.j_path) * theta_single(m.k_path)
                if lhs != rhs:
                    raise CalibrationFailure(
                        f"theta(double) * (2b+1) = {lhs} != {rhs} for {m.text()}")
            states = [build_bridge_state(m) for m in labels]
            g = np.array([[x.overlap(y) for y in states] for x in states])
            want = np.diag([float(theta_label(m)) for m in labels])
            err = np.abs(g - want).max()
            if err > tolerance:
                raise CalibrationFailure(
                    f"Gram mismatch {err:.3e} at valence {valence}, n1 {n1}")


def identity_state(valence):
    """The identity map as a state: leg i joined to leg n+1-i by epsilon.

    The nested pairing matches the chain layout of the bridge basis, where
    the second side couples legs from the outside in; it is the state whose
    bridge decomposition is the exact identity decomposition.
    """
    if valence % 2:
        raise ValueError("identity state needs even valence")
    half = valence // 2
    eps = su2.epsilon_matrix(1)
    mat = eps
    for _ in range(half - 1):
        mat = np.kron(mat, eps)
    arr = mat.reshape([2] * valence)
    # axes are (x_1..x_h, y_1..y_h) with pairs (x_i, y_i); send y_i to leg n+1-i
    axes = list(range(half)) + list(range(valence - 1, half - 1, -1))
    return LabeledTensor((1,) * valence, np.transpose(arr, axes))


def identity_decomposition(valence, strand=1):
    """Exact bridge coefficients of the identity on the balanced split.

    The coefficient of the label (j, j) is theta(j)/theta(double path);
    labels with different paths on the two sides do not contribute.
    """
    if strand != 1:
        raise ValueError("identity decomposition requires strand spin 1/2")
    if valence % 2:
        raise ValueError("identity decomposition needs even valence")
    entries = {}
    for m in bridge_basis(valence, valence // 2, strand):
        if m.j_path == m.k_path:
            entries[m] = theta_single(m.j_path) / theta_label(m)
    return CoefficientVector(entries)


def decompose(t, n1, tolerance=1e-10):
    """Project an invariant qubit tensor onto the bridge basis for a split.

    Coefficients are overlaps divided by exact theta norms; the relative
    reconstruction residual is stored on the result and must stay below
    tolerance, otherwise the tensor is not in the invariant span.
    """
    if any(leg != 1 for leg in t.legs):
        raise ValueError("decompose requires all legs spin 1/2")
    labels, states, thetas = _basis_states(t.valence, n1)
    entries = {}
    recon = np.zeros_like(t.data)
    for m, s, th in zip(labels, states, thetas):
        c = s.overlap(t) / th
        entries[m] = c
        recon = recon + c * s.data
    nrm = t.norm()
    if nrm == 0.0:
        residual = 0.0
    else:
        residual = float(np.linalg.norm(recon - t.data)) / nrm
    if residual > tolerance:
        raise NotInvariant(
            f"reconstruction residual {residual:.3e} exceeds {tolerance:.1e}")
    return CoefficientVector(entries, residual=residual)


def assemble(c):
    """Realize a coefficient vector as the tensor sum of its basis states."""
    labels = c.labels()
    if not labels:
        raise ValueError("cannot assemble an empty coefficient vector")
    valence = labels[0].valence
    data = None
    for m in labels:
        term = complex(c.entries[m]) * build_bridge_state(m).data
        data = term if data is None else data + term
    return LabeledTensor((1,) * valence, data)
