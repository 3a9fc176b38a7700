import math
from fractions import Fraction

import numpy as np
import pytest

from su2ipt import bridge, su2, tensors
from su2ipt.errors import (
    InadmissibleLabel, InvalidStep, NotInvariant,
)


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def test_loop_factor_values():
    assert bridge.loop_factor(1, "up") == Fraction(3, 2)
    assert bridge.loop_factor(0, "up") == Fraction(2)
    for t in (1, 2, 5):
        assert bridge.loop_factor(t, "down") == 1
    with pytest.raises(InvalidStep):
        bridge.loop_factor(0, "down")
    with pytest.raises(ValueError):
        bridge.loop_factor(1, "sideways")


def test_theta_single_golden_values():
    assert bridge.theta_single((1, 0)) == 2
    assert bridge.theta_single((1, 2)) == 3
    assert bridge.theta_single((1, 0, 1)) == 4
    assert bridge.theta_single((1, 2, 1)) == 3
    assert bridge.theta_single((1, 2, 3)) == 4
    # top path closes at 2 j_n + 1
    assert bridge.theta_single((1, 2, 3, 4)) == 5


def test_theta_is_diagonal():
    assert bridge.theta((1, 0, 1), (1, 2, 1)) == 0
    assert bridge.theta((1, 2, 1), (1, 2, 1)) == 3


def test_theta_label_uses_double_path():
    m = bridge.BridgeLabel((1, 2), (1, 2))
    assert m.double_path() == (1, 2, 1)
    assert bridge.theta_label(m) == 3
    m = bridge.BridgeLabel((1, 2, 1), (1, 0, 1))
    assert m.double_path() == (1, 2, 1, 0, 1)
    assert bridge.theta_label(m) == 6


def test_label_text_and_parse_roundtrip():
    m = bridge.BridgeLabel((1, 2, 1), (1, 0, 1))
    assert m.text() == "1/2,1,1/2 | 1/2,0,1/2"
    assert bridge.BridgeLabel.parse(m.text()) == m
    for m in bridge.bridge_basis(6, 2):
        assert bridge.BridgeLabel.parse(m.text()) == m


def test_label_rejects_mismatched_bridge():
    with pytest.raises(InadmissibleLabel):
        bridge.BridgeLabel((1, 0), (1, 2))
    with pytest.raises(InadmissibleLabel):
        bridge.BridgeLabel((1, 3), (1, 3))


def test_bridge_basis_counts_and_order():
    four = bridge.bridge_basis(4, 2)
    assert [m.bridge for m in four] == [2, 0]
    six = bridge.bridge_basis(6, 3)
    assert len(six) == 5
    assert six[0].j_path == (1, 2, 3) and six[0].k_path == (1, 2, 3)
    assert six[-1].j_path == (1, 0, 1) and six[-1].k_path == (1, 0, 1)
    # five spin-1 legs: six invariants (Riordan count), one per label pair
    assert len(bridge.bridge_basis(5, 2, strand=2)) == 6


def test_bridge_basis_matches_catalan_dimension():
    for n in range(1, 5):
        labels = bridge.bridge_basis(2 * n, n)
        assert len(labels) == catalan(n)
    # off-balanced splits span the same invariant space
    assert len(bridge.bridge_basis(6, 2)) == 5
    assert len(bridge.bridge_basis(6, 1)) == 5


def test_valence2_state_is_epsilon():
    m = bridge.BridgeLabel((1,), (1,))
    t = bridge.build_bridge_state(m)
    eps = su2.epsilon_matrix(1)
    ratio = t.data[0, 1] / eps[0, 1]
    assert abs(ratio) > 0
    assert np.allclose(t.data, ratio * eps, atol=1e-14)


def test_bridge_state_norms_match_theta():
    for valence in (2, 4, 6):
        for n1 in range(1, valence):
            for m in bridge.bridge_basis(valence, n1):
                t = bridge.build_bridge_state(m)
                assert t.norm_squared() == pytest.approx(
                    float(bridge.theta_label(m)), abs=1e-10)


def test_bridge_states_are_invariant():
    for m in bridge.bridge_basis(6, 3):
        t = bridge.build_bridge_state(m)
        assert tensors.invariance_defect(t) < 1e-12


def test_bridge_state_gram_is_diagonal():
    labels = bridge.bridge_basis(6, 3)
    states = [bridge.build_bridge_state(m) for m in labels]
    for i, x in enumerate(states):
        for j, y in enumerate(states):
            got = x.overlap(y)
            want = float(bridge.theta_label(labels[i])) if i == j else 0.0
            assert abs(got - want) < 1e-12


def test_calibrate_passes_and_scale_is_closed_form():
    assert bridge.calibrate(6) is None
    for valence in range(2, 9):
        for n1 in range(1, valence):
            for m in bridge.bridge_basis(valence, n1):
                assert bridge.theta_label(m) * (m.bridge + 1) == (
                    bridge.theta_single(m.j_path) * bridge.theta_single(m.k_path))
                t = bridge.build_bridge_state(m)
                assert t.norm_squared() == pytest.approx(
                    float(bridge.theta_label(m)), abs=1e-12)


def test_identity_state_is_nested_pairing():
    t = bridge.identity_state(4)
    eps = su2.epsilon_matrix(1)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    assert t.data[a, b, c, d] == pytest.approx(eps[a, d] * eps[b, c])
    assert tensors.invariance_defect(t) < 1e-13
    assert t.norm_squared() == pytest.approx(4.0)


def test_identity_decomposition_exact_values():
    # valence 2: the lone bridge state is the pair state itself
    c2 = bridge.identity_decomposition(2)
    assert {m.text(): v for m, v in c2.entries.items()} == {"1/2 | 1/2": Fraction(1)}
    c4 = bridge.identity_decomposition(4)
    got = {m.bridge: v for m, v in c4.entries.items()}
    assert got == {0: Fraction(1, 2), 2: Fraction(1)}
    c6 = bridge.identity_decomposition(6)
    got = {m.j_path: v for m, v in c6.entries.items()}
    assert got == {
        (1, 2, 3): Fraction(1),
        (1, 2, 1): Fraction(2, 3),
        (1, 0, 1): Fraction(1, 2),
    }


def test_identity_decomposition_matches_numeric_decompose():
    for valence in (2, 4, 6):
        t = bridge.identity_state(valence)
        num = bridge.decompose(t, valence // 2)
        assert num.residual < 1e-12
        exact = bridge.identity_decomposition(valence)
        for m in bridge.bridge_basis(valence, valence // 2):
            want = complex(exact.entries.get(m, 0))
            assert abs(num.entries[m] - want) < 1e-12


def test_identity_assembles_back():
    t = bridge.identity_state(6)
    rebuilt = bridge.assemble(bridge.identity_decomposition(6))
    assert np.allclose(rebuilt.data, t.data, atol=1e-12)


def test_decompose_bridge_state_is_unit_vector():
    labels = bridge.bridge_basis(6, 3)
    target = labels[2]
    c = bridge.decompose(bridge.build_bridge_state(target), 3)
    for m in labels:
        want = 1.0 if m == target else 0.0
        assert abs(c.entries[m] - want) < 1e-12


def test_decompose_rejects_noninvariant():
    rng = np.random.default_rng(1)
    t = tensors.LabeledTensor((1, 1, 1, 1), rng.normal(size=16))
    with pytest.raises(NotInvariant):
        bridge.decompose(t, 2)


def test_assemble_decompose_roundtrip():
    rng = np.random.default_rng(8)
    for valence, n1 in [(4, 2), (6, 3), (6, 2), (8, 4)]:
        labels = bridge.bridge_basis(valence, n1)
        z = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
        c = bridge.CoefficientVector(dict(zip(labels, z)))
        t = bridge.assemble(c)
        back = bridge.decompose(t, n1)
        for m in labels:
            assert abs(back.entries[m] - c.entries[m]) < 1e-10


def test_assemble_accepts_exact_coefficients():
    c = bridge.identity_decomposition(4)
    t = bridge.assemble(c)
    assert np.allclose(t.data.imag, 0.0, atol=1e-15)


def test_mirror_sign_convention():
    # symmetric labels carry no sign
    for m in bridge.bridge_basis(6, 3):
        if m.j_path == m.k_path:
            assert bridge.mirror_sign(m) == 1
    flip = bridge.BridgeLabel((1, 2, 1), (1, 0, 1))
    assert bridge.mirror_sign(flip) == -1
    assert bridge.mirror_sign(bridge.BridgeLabel((1, 0, 1), (1, 2, 1))) == -1
    # unequal path lengths leave the exponent fractional: sign +1
    lop = bridge.BridgeLabel((1, 2), (1, 0, 1, 2))
    assert bridge.mirror_sign(lop) == 1


def test_coefficient_vector_json():
    c = bridge.identity_decomposition(4)
    doc = c.to_json_dict()
    assert doc == {"1/2,1 | 1,1/2": "1", "1/2,0 | 0,1/2": "1/2"}
    z = bridge.CoefficientVector({bridge.BridgeLabel((1,), (1,)): 0.5 + 0.25j})
    assert z.to_json_dict() == {"1/2 | 1/2": [0.5, 0.25]}


def test_theta_single_rejects_non_qubit_strands():
    with pytest.raises(ValueError):
        bridge.theta_single((2, 3))
    with pytest.raises(ValueError):
        bridge.theta_single((1, 4))
