"""Quadratic coefficient equations for invariant tensors that are perfect
on one bipartition, and the closed-form qubit solution families.

For a split (1..n1 | rest) an invariant tensor I = sum c_{j,k} bridge(j,k)
is a partial isometry onto the first side exactly when, for every pair of
first-side paths j, j' sharing an end spin b,

    sum_k c_{j,k} conj(c_{j',k}) theta(k) = lambda delta_{j,j'} (2b+1)^2 / theta(j)

with theta the single-path closed form. The weights are exact rationals;
lambda is the isometry scale. Systems can be displayed raw or with each
diagonal equation scaled so its right side is exactly lambda.
"""

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import bridge, su2
from .bridge import BridgeLabel, CoefficientVector
from .errors import LabelMismatch

__all__ = [
    "MasterEquation", "MasterSystem", "SolutionFamily", "build_master_system",
    "residual", "max_coeff_check", "solve_qubit_valence4",
    "solve_qubit_valence6", "max_label", "LABELS4", "LABELS6",
]


@dataclass(frozen=True)
class MasterEquation:
    """One equation: sum over k of weight_k * c_(j,k) * conj(c_(j',k)) = rhs * lambda."""

    j_path: tuple
    jp_path: tuple
    terms: tuple  # ((k_path, Fraction weight), ...)
    rhs: Fraction

    @property
    def diagonal(self):
        return self.j_path == self.jp_path

    def scaled(self, factor):
        factor = Fraction(factor)
        return MasterEquation(
            self.j_path,
            self.jp_path,
            tuple((k, w * factor) for k, w in self.terms),
            self.rhs * factor,
        )

    def text(self):
        def c(j, k):
            return f"c[{BridgeLabel(j, k).text()}]"

        parts = []
        for k_path, weight in self.terms:
            factor = "" if weight == 1 else f"{weight} "
            if self.diagonal:
                parts.append(f"{factor}|{c(self.j_path, k_path)}|^2")
            else:
                parts.append(
                    f"{factor}{c(self.j_path, k_path)} conj({c(self.jp_path, k_path)})"
                )
        lhs = " + ".join(parts) if parts else "0"
        if self.rhs == 0:
            return f"{lhs} = 0"
        factor = "" if self.rhs == 1 else f"{self.rhs} "
        return f"{lhs} = {factor}lambda"


def _path_text(path):
    return ",".join(su2.format_spin(t) for t in path)


@dataclass(frozen=True)
class MasterSystem:
    """All coefficient equations for one valence and split."""

    valence: int
    n1: int
    labels: tuple
    equations: tuple

    def normalized(self):
        """Scale each diagonal equation so its right side is exactly lambda."""
        out = []
        for eq in self.equations:
            if eq.diagonal and eq.rhs not in (0, 1):
                out.append(eq.scaled(1 / eq.rhs))
            else:
                out.append(eq)
        return MasterSystem(self.valence, self.n1, self.labels, tuple(out))

    @cached_property
    def compiled(self):
        """Per equation: ((i, i', weight), ...) over label indices, and rhs.

        Term (i, i', w) contributes w c_i conj(c_i'); weights and the right
        side are floats.
        """
        pos = {m: i for i, m in enumerate(self.labels)}
        return tuple(
            (
                tuple(
                    (pos[BridgeLabel(eq.j_path, k)], pos[BridgeLabel(eq.jp_path, k)],
                     float(w))
                    for k, w in eq.terms
                ),
                float(eq.rhs),
            )
            for eq in self.equations
        )

    def residuals(self, cols, lam):
        """Root-sum-square residual at many points at once.

        cols[i] holds the values of label i (a scalar or an array of points);
        lam is a scalar or an array over the same points. Real and imaginary
        parts are kept apart so that every product rounds as in scalar
        complex arithmetic; numpy's complex array loops may fuse
        multiply-adds, which moves the last digit of the replay's figures.
        """
        cols = np.asarray(cols, dtype=complex)
        re, im = cols.real, cols.imag
        total = 0.0
        for terms, rhs in self.compiled:
            # w c_a conj(c_b), summed term by term in equation order
            acc_re = acc_im = 0.0
            for a, b, w in terms:
                wa_re, wa_im = w * re[a], w * im[a]
                acc_re = acc_re + (wa_re * re[b] + wa_im * im[b])
                acc_im = acc_im + (wa_im * re[b] - wa_re * im[b])
            total = total + np.hypot(acc_re - rhs * lam, acc_im) ** 2
        return np.sqrt(total)

    def to_json_dict(self):
        return {
            "valence": self.valence,
            "n1": self.n1,
            "labels": [m.text() for m in self.labels],
            "equations": [
                {
                    "j": _path_text(eq.j_path),
                    "j_prime": _path_text(eq.jp_path),
                    "weights": {_path_text(k): str(w) for k, w in eq.terms},
                    "rhs": str(eq.rhs),
                    "text": eq.text(),
                }
                for eq in self.equations
            ],
        }


def build_master_system(valence, n1=None):
    """Assemble the exact equation system for a qubit split (default balanced)."""
    if valence % 2:
        raise ValueError("master systems are defined for even valence")
    if n1 is None:
        n1 = valence // 2
    labels = bridge.bridge_basis(valence, n1)
    j_paths = sorted({m.j_path for m in labels}, key=lambda p: tuple(-t for t in p))
    k_by_end = {}
    for m in labels:
        k_by_end.setdefault(m.k_path[-1], set()).add(m.k_path)
    equations = []
    for a, j in enumerate(j_paths):
        for jp in j_paths[a:]:
            if j[-1] != jp[-1]:
                continue
            b = j[-1]
            ks = sorted(k_by_end.get(b, ()), key=lambda p: tuple(-t for t in p))
            terms = tuple((k, bridge.theta_single(k)) for k in ks)
            if j == jp:
                rhs = Fraction((b + 1) ** 2) / bridge.theta_single(j)
                equations.append(MasterEquation(j, jp, terms, rhs))
            else:
                # cross equations carry the lower path on the unconjugated side
                equations.append(MasterEquation(jp, j, terms, Fraction(0)))
    return MasterSystem(valence, n1, tuple(labels), tuple(equations))


def residual(c, sys, lam):
    """Root-sum-square residual of a coefficient vector in a system."""
    have = set(c.entries)
    need = set(sys.labels)
    if have != need:
        raise LabelMismatch(
            f"coefficient labels do not match the system "
            f"(missing {len(need - have)}, extra {len(have - need)})"
        )
    return float(sys.residuals([complex(c.entries[m]) for m in sys.labels], lam))


# The named labels of the balanced qubit splits at valences 4 and 6, in the
# order the closed-form repartition matrices are written in.
LABELS4 = {
    "low": BridgeLabel((1, 0), (1, 0)),
    "top": BridgeLabel((1, 2), (1, 2)),
}
LABELS6 = {
    "top": BridgeLabel((1, 2, 3), (1, 2, 3)),
    "sym1": BridgeLabel((1, 2, 1), (1, 2, 1)),
    "asym10": BridgeLabel((1, 2, 1), (1, 0, 1)),
    "asym01": BridgeLabel((1, 0, 1), (1, 2, 1)),
    "sym0": BridgeLabel((1, 0, 1), (1, 0, 1)),
}


def max_label(valence):
    """The balanced label whose both paths climb monotonically."""
    n1 = valence // 2
    path = tuple(range(1, n1 + 1))
    return BridgeLabel(path, path)


def max_coeff_check(c, lam, tolerance=1e-10):
    """Whether the maximal-path coefficient has squared modulus lambda."""
    top = max_label(2 * max(len(m.j_path) for m in c.entries))
    value = c.entries.get(top, 0)
    return abs(abs(complex(value)) ** 2 - lam) < tolerance


@dataclass(frozen=True)
class SolutionFamily:
    """Closed-form solution set of a master system.

    Bound entries are realized by an evaluator mapping (lambda, parameter
    dict) to coefficient values; parameters may be arrays of points, which
    give arrays of values. The string forms are for display only.
    """

    valence: int
    free_amplitudes: tuple
    free_phases: tuple
    bound_forms: dict
    domain: str
    constraints: tuple
    evaluator: object = field(repr=False)

    def amplitude_range(self, name, lam):
        if self.valence == 6 and name == "A":
            return (0.0, 2.0 * math.sqrt(lam) / 3.0)
        raise KeyError(name)

    def evaluate(self, lam=1.0, **params):
        entries = self.evaluator(lam, params)
        return CoefficientVector(entries)

    def draw(self, rng, lam=1.0):
        params = {}
        for name in self.free_phases:
            params[name] = rng.uniform(0.0, 2.0 * math.pi)
        for name in self.free_amplitudes:
            lo, hi = self.amplitude_range(name, lam)
            params[name] = rng.uniform(lo, hi)
        return self.evaluate(lam, **params), params

    def to_json_dict(self):
        return {
            "valence": self.valence,
            "free_amplitudes": list(self.free_amplitudes),
            "free_phases": list(self.free_phases),
            "entries": {m.text(): form for m, form in self.bound_forms.items()},
            "domain": self.domain,
            "constraints": list(self.constraints),
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def solve_qubit_valence4(gauge_fixed=False):
    """Two-phase family: |c_1| = sqrt(lambda), |c_0| = sqrt(lambda)/2.

    With gauge_fixed the maximal coefficient is real positive and the one
    free phase is the relative phase dphi.
    """
    top, low = LABELS4["top"], LABELS4["low"]
    if gauge_fixed:
        forms = {
            top: "sqrt(lam)",
            low: "sqrt(lam)/2 * exp(i dphi)",
        }

        def evaluator(lam, p):
            r = math.sqrt(lam)
            return {
                top: complex(r),
                low: 0.5 * r * np.exp(1j * p["dphi"]),
            }

        return SolutionFamily(
            4, (), ("dphi",), forms, "lam > 0", (), evaluator
        )
    forms = {
        top: "sqrt(lam) * exp(i phi1)",
        low: "sqrt(lam)/2 * exp(i phi0)",
    }

    def evaluator(lam, p):
        r = math.sqrt(lam)
        return {
            top: r * np.exp(1j * p["phi1"]),
            low: 0.5 * r * np.exp(1j * p["phi0"]),
        }

    return SolutionFamily(4, (), ("phi0", "phi1"), forms, "lam > 0", (), evaluator)


def solve_qubit_valence6(gauge_fixed=False):
    """One-amplitude, four-phase family for the balanced valence-6 split.

    Entries follow the unique solution of the four equations with
    c[(1/2,1,1/2)|(1/2,1,1/2)] = A e^{i rho} left free; the amplitude domain
    is A^2 <= 4 lambda / 9 so the bound moduli stay real.
    """
    phases = ("phi", "rho", "chi", "psi")
    if gauge_fixed:
        phases = ("rho", "chi", "psi")
    forms = {
        LABELS6["top"]: "sqrt(lam)" if gauge_fixed else "sqrt(lam) * exp(i phi)",
        LABELS6["sym1"]: "A * exp(i rho)",
        LABELS6["asym10"]: "sqrt(lam/3 - 3/4 A^2) * exp(i chi)",
        LABELS6["sym0"]: "3/4 A * exp(i psi)",
        LABELS6["asym01"]: "sqrt(lam/3 - 3/4 A^2) * exp(i (rho + psi - chi + pi))",
    }

    def evaluator(lam, p):
        amp = p["A"]
        rest = lam / 3.0 - 0.75 * amp * amp
        if np.any(rest < -1e-12 * max(lam, 1.0)):
            raise ValueError("amplitude outside the family domain A^2 <= 4 lam/9")
        root = np.sqrt(np.maximum(rest, 0.0))
        phi = 0.0 if gauge_fixed else p["phi"]
        return {
            LABELS6["top"]: math.sqrt(lam) * np.exp(1j * phi),
            LABELS6["sym1"]: amp * np.exp(1j * p["rho"]),
            LABELS6["asym10"]: root * np.exp(1j * p["chi"]),
            LABELS6["sym0"]: 0.75 * amp * np.exp(1j * p["psi"]),
            LABELS6["asym01"]: root
            * np.exp(1j * (p["rho"] + p["psi"] - p["chi"] + math.pi)),
        }

    return SolutionFamily(
        6,
        ("A",),
        phases,
        forms,
        "0 <= A <= 2 sqrt(lam) / 3",
        ("A^2 <= 4 lam / 9",),
        evaluator,
    )
