"""Exact SU(2) spin arithmetic and coupling data.

Spins are represented everywhere as non-negative integers holding twice the
spin value ("twice-spin"), so j = 1/2 is the integer 1 and j = 3/2 is 3.
This keeps admissibility logic exact. Dense arrays index magnetic numbers m
in descending order: index 0 holds m = +j, index 2j holds m = -j.

Clebsch-Gordan coefficients follow the Condon-Shortley convention and are
computed by the Racah closed-form sum in exact rational arithmetic under a
single square root; they become floats only when assembled into tensors.
"""

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InadmissibleTriple, SpinFormatError

__all__ = [
    "parse_spin", "format_spin", "dim", "admissible_triple", "SqrtRational",
    "cg_exact", "cg_coefficient", "cg_matrix", "epsilon_matrix", "vertex",
    "generators", "GeneratorSet", "coupling_paths", "chain_isometry",
]


def parse_spin(text):
    """Parse a spin string like "1/2", "1", "3/2" into a twice-spin integer.

    Only exact half-integers are accepted: an optional "/2" denominator or a
    bare non-negative integer. Decimals are rejected.
    """
    s = text.strip()
    if not s:
        raise SpinFormatError("empty spin token")
    if "/" in s:
        num, _, den = s.partition("/")
        if den.strip() != "2" or not num.strip().lstrip("-").isdigit():
            raise SpinFormatError(f"bad spin token {text!r}: expected p/2 or integer")
        twice = int(num)
    else:
        if not s.lstrip("-").isdigit():
            raise SpinFormatError(f"bad spin token {text!r}: expected p/2 or integer")
        twice = 2 * int(s)
    if twice < 0:
        raise SpinFormatError(f"bad spin token {text!r}: spin must be non-negative")
    return twice


def format_spin(twice):
    """Format a twice-spin integer as "p/2" or a bare integer."""
    if twice % 2 == 0:
        return str(twice // 2)
    return f"{twice}/2"


def dim(twice):
    """Dimension 2j+1 of the spin-j irrep."""
    return twice + 1


def admissible_triple(ta, tb, tc):
    """Triangle rule: |a-b| <= c <= a+b with integer total spin."""
    return abs(ta - tb) <= tc <= ta + tb and (ta + tb + tc) % 2 == 0


class SqrtRational:
    """Exact real of the form sign * sqrt(p/q), stored as the signed square.

    Closed under multiplication; comparable for exact equality; converts to
    float on demand. The zero value has signed square 0.
    """

    __slots__ = ("signed_square",)

    def __init__(self, signed_square):
        self.signed_square = Fraction(signed_square)

    @classmethod
    def from_value(cls, rational):
        """Lift an exact rational r to the SqrtRational r = sign*sqrt(r^2)."""
        r = Fraction(rational)
        return cls(r * abs(r))

    @property
    def sign(self):
        sq = self.signed_square
        return (sq > 0) - (sq < 0)

    @property
    def radicand(self):
        return abs(self.signed_square)

    def __mul__(self, other):
        if isinstance(other, SqrtRational):
            return SqrtRational(self.signed_square * other.signed_square)
        return NotImplemented

    def __neg__(self):
        return SqrtRational(-self.signed_square)

    def __eq__(self, other):
        if isinstance(other, SqrtRational):
            return self.signed_square == other.signed_square
        return NotImplemented

    def __hash__(self):
        return hash(("SqrtRational", self.signed_square))

    def __bool__(self):
        return self.signed_square != 0

    def __float__(self):
        sq = self.signed_square
        if sq == 0:
            return 0.0
        mag = math.sqrt(sq.numerator if sq > 0 else -sq.numerator) / math.sqrt(sq.denominator)
        return mag if sq > 0 else -mag

    def __repr__(self):
        sq = self.signed_square
        if sq == 0:
            return "0"
        body = f"sqrt({abs(sq)})"
        return body if sq > 0 else "-" + body


def _fact(twice):
    """Factorial of an integer given as an even twice-value."""
    if twice < 0 or twice % 2:
        raise ValueError(f"factorial argument {twice}/2 is not a non-negative integer")
    return math.factorial(twice // 2)


@lru_cache(maxsize=None)
def cg_exact(tj1, tm1, tj2, tm2, tj, tm):
    """Exact Clebsch-Gordan coefficient <j1 m1 j2 m2 | j m> as a SqrtRational.

    Arguments are twice-values. Returns 0 when m != m1+m2 or the triple is
    inadmissible. Raises ValueError for malformed (j, m) pairs.
    """
    for j, m in ((tj1, tm1), (tj2, tm2), (tj, tm)):
        if abs(m) > j or (j - m) % 2:
            raise ValueError(f"bad (j, m) pair ({format_spin(j)}, {m}/2)")
    if tm1 + tm2 != tm or not admissible_triple(tj1, tj2, tj):
        return SqrtRational(0)

    pref = Fraction(
        (tj + 1)
        * _fact(tj1 + tj2 - tj) * _fact(tj1 - tj2 + tj) * _fact(-tj1 + tj2 + tj),
        _fact(tj1 + tj2 + tj + 2),
    )
    pref *= (
        _fact(tj1 + tm1) * _fact(tj1 - tm1)
        * _fact(tj2 + tm2) * _fact(tj2 - tm2)
        * _fact(tj + tm) * _fact(tj - tm)
    )

    z_min = max(0, -(tj - tj2 + tm1) // 2, -(tj - tj1 - tm2) // 2)
    z_max = min((tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = Fraction(0)
    for z in range(z_min, z_max + 1):
        denom = (
            math.factorial(z)
            * _fact(tj1 + tj2 - tj - 2 * z)
            * _fact(tj1 - tm1 - 2 * z)
            * _fact(tj2 + tm2 - 2 * z)
            * _fact(tj - tj2 + tm1 + 2 * z)
            * _fact(tj - tj1 - tm2 + 2 * z)
        )
        total += Fraction((-1) ** z, denom)
    sign = (total > 0) - (total < 0)
    return SqrtRational(sign * total * total * pref)


def cg_coefficient(tj1, tm1, tj2, tm2, tj, tm):
    """Clebsch-Gordan coefficient as a float (see cg_exact)."""
    return float(cg_exact(tj1, tm1, tj2, tm2, tj, tm))


@lru_cache(maxsize=None)
def cg_matrix(tj1, tj2, tj):
    """Coupling isometry from dim(j1)*dim(j2) to dim(j) as a dense array.

    Row index is the pair (m1 index, m2 index) in row-major order, column
    index runs over m of the coupled spin, all m descending. Columns are
    orthonormal when the triple is admissible.
    """
    d1, d2, d = dim(tj1), dim(tj2), dim(tj)
    out = np.zeros((d1 * d2, d))
    for a in range(d1):
        tm1 = tj1 - 2 * a
        for b in range(d2):
            tm2 = tj2 - 2 * b
            tm = tm1 + tm2
            if abs(tm) > tj:
                continue
            c = tj - tm
            out[a * d2 + b, c // 2] = cg_coefficient(tj1, tm1, tj2, tm2, tj, tm)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def epsilon_matrix(twice):
    """Index-lowering tensor eps[m, m'] = (-1)^(j-m) delta_{m', -m} for spin j.

    For spin 1/2 this is the antisymmetric epsilon with eps[0, 1] = +1.
    """
    d = dim(twice)
    out = np.zeros((d, d))
    for a in range(d):
        out[a, twice - a] = (-1.0) ** a
    out.setflags(write=False)
    return out


class GeneratorSet(NamedTuple):
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray


@lru_cache(maxsize=None)
def generators(twice):
    """Angular momentum matrices (jx, jy, jz) for spin j, m descending."""
    d = dim(twice)
    jz = np.diag([(twice - 2 * a) / 2.0 for a in range(d)]).astype(complex)
    jp = np.zeros((d, d), dtype=complex)
    for a in range(1, d):
        # raising from m = j - a to m + 1, amplitude sqrt((j-m)(j+m+1))
        jp[a - 1, a] = math.sqrt(a * (twice - a + 1))
    jm = jp.conj().T
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2.0j
    for mat in (jx, jy, jz):
        mat.setflags(write=False)
    return GeneratorSet(jx, jy, jz)


def coupling_paths(leg_spins):
    """All sequential coupling paths (t_1, ..., t_n) for the given legs.

    t_1 equals the first leg spin and each step obeys the triangle rule with
    the next leg. Returned in lexicographically ascending twice-spin order.
    """
    legs = list(leg_spins)
    if not legs:
        return []
    paths = [(legs[0],)]
    for leg in legs[1:]:
        grown = []
        for p in paths:
            prev = p[-1]
            for nxt in range(abs(prev - leg), prev + leg + 1, 2):
                grown.append(p + (nxt,))
        paths = grown
    return sorted(paths)


def chain_isometry(leg_spins, path):
    """Sequential coupling isometry onto the final spin of the path.

    Returns a dense (prod of leg dims, dim(path[-1])) array whose columns are
    the orthonormal coupled basis vectors |path, M> with M descending. Leg
    order in the row multi-index matches leg_spins, first leg slowest.
    """
    legs = list(leg_spins)
    if not legs or path[0] != legs[0]:
        raise ValueError("path must start at the first leg spin")
    if len(path) != len(legs):
        raise ValueError("path length must match the leg count")
    w = np.eye(dim(legs[0]))
    rows = dim(legs[0])
    for leg, prev, nxt in zip(legs[1:], path, path[1:]):
        if not admissible_triple(prev, leg, nxt):
            raise InadmissibleTriple(
                f"step {format_spin(prev)} -> {format_spin(nxt)} with leg {format_spin(leg)}")
        c3 = cg_matrix(prev, leg, nxt).reshape(dim(prev), dim(leg), dim(nxt))
        w = np.einsum("pa,abM->pbM", w, c3).reshape(rows * dim(leg), dim(nxt))
        rows *= dim(leg)
    return w


def vertex(tj, tk, tl):
    """Invariant 3-leg tensor on spins (j, k, l) with unit coupling scale.

    Built by coupling legs 1 and 2 to spin l and closing leg 3 with the
    index-lowering epsilon; the squared norm is 2l+1 for every strand.
    """
    from .tensors import LabeledTensor
    if not admissible_triple(tj, tk, tl):
        raise InadmissibleTriple(
            f"({format_spin(tj)}, {format_spin(tk)}, {format_spin(tl)})")
    core = cg_matrix(tj, tk, tl) @ epsilon_matrix(tl)
    data = core.reshape(dim(tj), dim(tk), dim(tl)).astype(complex)
    return LabeledTensor((tj, tk, tl), data)
