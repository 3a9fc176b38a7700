import math
from fractions import Fraction

import numpy as np
import pytest

from su2ipt import bridge, master
from su2ipt.errors import LabelMismatch


def by_paths(sys):
    return {(eq.j_path, eq.jp_path): eq for eq in sys.equations}


def test_valence4_system_exact():
    sys = master.build_master_system(4)
    assert len(sys.labels) == 2
    assert len(sys.equations) == 2
    eqs = by_paths(sys)
    top = eqs[((1, 2), (1, 2))]
    low = eqs[((1, 0), (1, 0))]
    assert top.terms == (((1, 2), Fraction(3)),)
    assert top.rhs == Fraction(3)
    assert low.terms == (((1, 0), Fraction(2)),)
    assert low.rhs == Fraction(1, 2)
    # normalized form reads off the moduli: |c1|^2 = lam, |c0|^2 = lam/4
    norm = by_paths(sys.normalized())
    assert norm[((1, 2), (1, 2))].terms[0][1] == 1
    assert norm[((1, 2), (1, 2))].rhs == 1
    assert norm[((1, 0), (1, 0))].terms[0][1] == 4
    assert norm[((1, 0), (1, 0))].rhs == 1


def test_valence6_system_has_four_equations():
    sys = master.build_master_system(6)
    assert len(sys.labels) == 5
    assert len(sys.equations) == 4
    eqs = by_paths(sys)
    top = eqs[((1, 2, 3), (1, 2, 3))]
    assert top.terms == (((1, 2, 3), Fraction(4)),)
    assert top.rhs == Fraction(4)
    sym1 = eqs[((1, 2, 1), (1, 2, 1))]
    assert dict(sym1.terms) == {(1, 2, 1): Fraction(3), (1, 0, 1): Fraction(4)}
    assert sym1.rhs == Fraction(4, 3)
    sym0 = eqs[((1, 0, 1), (1, 0, 1))]
    assert dict(sym0.terms) == {(1, 2, 1): Fraction(3), (1, 0, 1): Fraction(4)}
    assert sym0.rhs == Fraction(1)
    cross = eqs[((1, 0, 1), (1, 2, 1))]
    assert dict(cross.terms) == {(1, 2, 1): Fraction(3), (1, 0, 1): Fraction(4)}
    assert cross.rhs == 0
    assert not cross.diagonal


def test_cross_equation_text():
    sys = master.build_master_system(6)
    cross = [eq for eq in sys.equations if not eq.diagonal][0]
    assert cross.text() == (
        "3 c[1/2,0,1/2 | 1/2,1,1/2] conj(c[1/2,1,1/2 | 1/2,1,1/2])"
        " + 4 c[1/2,0,1/2 | 1/2,0,1/2] conj(c[1/2,1,1/2 | 1/2,0,1/2]) = 0"
    )


def test_diagonal_equation_text():
    sys = master.build_master_system(4).normalized()
    texts = [eq.text() for eq in sys.equations]
    assert "|c[1/2,1 | 1,1/2]|^2 = lambda" in texts
    assert "4 |c[1/2,0 | 0,1/2]|^2 = lambda" in texts


def test_identity_solves_both_systems():
    for valence in (4, 6):
        sys = master.build_master_system(valence)
        c = bridge.CoefficientVector(
            {m: complex(bridge.identity_decomposition(valence).entries.get(m, 0))
             for m in sys.labels})
        assert master.residual(c, sys, 1.0) < 1e-14


def test_residual_label_mismatch():
    sys = master.build_master_system(4)
    c = bridge.CoefficientVector({sys.labels[0]: 1.0})
    with pytest.raises(LabelMismatch):
        master.residual(c, sys, 1.0)


def test_valence4_family_residuals():
    rng = np.random.default_rng(42)
    sys = master.build_master_system(4)
    for gauge in (False, True):
        fam = master.solve_qubit_valence4(gauge_fixed=gauge)
        for _ in range(250):
            lam = rng.uniform(0.2, 5.0)
            c, params = fam.draw(rng, lam=lam)
            assert master.residual(c, sys, lam) < 1e-12
            assert master.max_coeff_check(c, lam)


def test_valence6_family_residuals():
    rng = np.random.default_rng(43)
    sys = master.build_master_system(6)
    fam = master.solve_qubit_valence6()
    for _ in range(250):
        lam = rng.uniform(0.2, 5.0)
        c, params = fam.draw(rng, lam=lam)
        assert master.residual(c, sys, lam) < 1e-12
        assert master.max_coeff_check(c, lam)


def test_valence6_amplitude_domain():
    fam = master.solve_qubit_valence6()
    lo, hi = fam.amplitude_range("A", 1.0)
    assert lo == 0.0
    assert hi == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError):
        fam.evaluate(1.0, A=0.9, phi=0.0, rho=0.0, chi=0.0, psi=0.0)
    with pytest.raises(KeyError):
        fam.amplitude_range("B", 1.0)


def test_valence6_family_hits_identity_at_saturated_amplitude():
    fam = master.solve_qubit_valence6()
    c = fam.evaluate(1.0, A=2.0 / 3.0, phi=0.0, rho=0.0, chi=0.0, psi=0.0)
    ident = bridge.identity_decomposition(6)
    for m, v in c.entries.items():
        want = complex(ident.entries.get(m, 0))
        assert abs(v - want) < 1e-12


def test_max_coeff_check_detects_violation():
    fam = master.solve_qubit_valence4(gauge_fixed=True)
    c = fam.evaluate(1.0, dphi=0.0)
    assert master.max_coeff_check(c, 1.0)
    scaled = bridge.CoefficientVector({m: 0.5 * v for m, v in c.entries.items()})
    assert not master.max_coeff_check(scaled, 1.0)


def test_max_label():
    assert master.max_label(4).j_path == (1, 2)
    assert master.max_label(6).j_path == (1, 2, 3)


def test_system_json_structure():
    doc = master.build_master_system(6).to_json_dict()
    assert doc["valence"] == 6 and doc["n1"] == 3
    assert len(doc["labels"]) == 5
    assert len(doc["equations"]) == 4
    cross = [e for e in doc["equations"] if e["rhs"] == "0"]
    assert len(cross) == 1
    assert cross[0]["weights"] == {"1/2,1,1/2": "3", "1/2,0,1/2": "4"}


def test_family_json_lists_parameters():
    fam = master.solve_qubit_valence6()
    doc = fam.to_json_dict()
    assert doc["free_amplitudes"] == ["A"]
    assert set(doc["free_phases"]) == {"phi", "rho", "chi", "psi"}
    assert doc["domain"] == "0 <= A <= 2 sqrt(lam) / 3"


def test_odd_valence_rejected():
    with pytest.raises(ValueError):
        master.build_master_system(5)


def _reference_residual(c, sys, lam):
    """Per-point residual written term by term over the exact equations."""
    total = 0.0
    for eq in sys.equations:
        value = 0j
        for k, w in eq.terms:
            a = complex(c[bridge.BridgeLabel(eq.j_path, k)])
            b = complex(c[bridge.BridgeLabel(eq.jp_path, k)])
            value += float(w) * a * b.conjugate()
        total += abs(value - float(eq.rhs) * lam) ** 2
    return math.sqrt(total)


def _family_draw(valence, rng, lam):
    if valence == 2:
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        return {bridge.BridgeLabel((1,), (1,)): math.sqrt(lam) * phase}
    fam = {4: master.solve_qubit_valence4, 6: master.solve_qubit_valence6}[valence]()
    return fam.draw(rng, lam)[0].entries


@pytest.mark.parametrize("valence", [2, 4, 6])
def test_batched_residuals_match_per_point_reference(valence):
    rng = np.random.default_rng(valence)
    sys = master.build_master_system(valence).normalized()
    points, lams, want = [], [], []
    for i in range(200):
        lam = rng.uniform(0.3, 3.0)
        c = _family_draw(valence, rng, lam)
        if i % 2:
            # half the draws leave the family, so residuals are of order one
            c = {m: v + complex(*rng.normal(size=2)) for m, v in c.items()}
        points.append([complex(c[m]) for m in sys.labels])
        lams.append(lam)
        want.append(_reference_residual(c, sys, lam))
    got = sys.residuals(np.array(points).T, np.array(lams))
    assert got.shape == (200,)
    assert np.max(np.abs(got - np.array(want))) < 1e-14
    assert max(want[1::2]) > 0.1
    for i in (0, 1):
        c = bridge.CoefficientVector(dict(zip(sys.labels, points[i])))
        assert abs(master.residual(c, sys, lams[i]) - want[i]) < 1e-14

