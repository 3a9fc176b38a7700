import json
import math
from fractions import Fraction

import numpy as np
import pytest

from su2ipt import bridge, master, repart, tensors
from su2ipt.errors import CrossesBridge, LabelMismatch, ZeroTensor


def F(s):
    return Fraction(s)


def display4():
    return [bridge.BridgeLabel((1, 0), (1, 0)), bridge.BridgeLabel((1, 2), (1, 2))]


def display6():
    return [
        bridge.BridgeLabel((1, 2, 3), (1, 2, 3)),
        bridge.BridgeLabel((1, 2, 1), (1, 2, 1)),
        bridge.BridgeLabel((1, 2, 1), (1, 0, 1)),
        bridge.BridgeLabel((1, 0, 1), (1, 2, 1)),
        bridge.BridgeLabel((1, 0, 1), (1, 0, 1)),
    ]


def rows(r, labels):
    return [list(row) for row in r.on_basis(labels).matrix]


def test_pstar_valence2():
    # valence 2 has no closed form on file; the numeric projection snaps to -1
    r = repart.pstar_matrix(2)
    assert r.matrix == ((Fraction(-1),),)
    assert r.is_involution()
    assert r.sign_convention == repart.PLAIN


def test_pstar_valence4_closed_form():
    r = repart.pstar_matrix(4)
    assert rows(r, display4()) == [
        [F("1/2"), F("-3/4")],
        [F(-1), F("-1/2")],
    ]
    assert r.is_involution()
    assert r.sign_convention == repart.BINOR


def test_far_swap_valence4():
    r = repart.trivial_swap_matrix(4, (3, 4))
    assert rows(r, display4()) == [[F(-1), F(0)], [F(0), F(1)]]
    assert r.is_involution()
    assert r.sign_convention == repart.PLAIN


def test_composed_valence4():
    r = repart.compose(repart.parse_word(4, "P34 P* P34"))
    assert rows(r, display4()) == [
        [F("1/2"), F("3/4")],
        [F(1), F("-1/2")],
    ]
    assert r.is_involution()
    assert r.word_text() == "P34 P* P34"
    # mixing conventions degrades the word to the plain convention
    assert r.sign_convention == repart.PLAIN


def test_pstar_valence6_closed_form():
    r = repart.pstar_matrix(6)
    assert rows(r, display6()) == [
        [F("-1/3"), F(-1), F(0), F(0), F(0)],
        [F("-8/9"), F("1/3"), F(0), F(0), F(0)],
        [F(0), F(0), F(1), F(0), F(0)],
        [F(0), F(0), F(0), F(1), F(0)],
        [F(0), F(0), F(0), F(0), F(-1)],
    ]
    assert r.is_involution()


def test_adjacent_swap_valence6():
    r = repart.trivial_swap_matrix(6, (4, 5))
    assert rows(r, display6()) == [
        [F(1), F(0), F(0), F(0), F(0)],
        [F(0), F("-1/2"), F(-1), F(0), F(0)],
        [F(0), F("-3/4"), F("1/2"), F(0), F(0)],
        [F(0), F(0), F(0), F("-1/2"), F(-1)],
        [F(0), F(0), F(0), F("-3/4"), F("1/2")],
    ]
    assert r.is_involution()


def test_composed_valence6_true_product():
    r = repart.compose(repart.parse_word(6, "P45 P* P45"))
    assert rows(r, display6()) == [
        [F("-1/3"), F("1/2"), F(1), F(0), F(0)],
        [F("4/9"), F("5/6"), F("-1/3"), F(0), F(0)],
        [F("2/3"), F("-1/4"), F("1/2"), F(0), F(0)],
        [F(0), F(0), F(0), F("-1/2"), F(1)],
        [F(0), F(0), F(0), F("3/4"), F("1/2")],
    ]
    assert r.is_involution()


def test_same_side_swap_valence6():
    r = repart.trivial_swap_matrix(6, (1, 2))
    assert r.is_involution()
    assert r.sign_convention == repart.PLAIN


def test_swap_rejects_bridge_crossing_pairs():
    with pytest.raises(CrossesBridge):
        repart.trivial_swap_matrix(4, (2, 3))
    with pytest.raises(CrossesBridge):
        repart.trivial_swap_matrix(6, (1, 5))


def test_parse_word_maps_bridge_pair_to_pstar():
    word = repart.parse_word(4, "P23")
    assert len(word) == 1 and word[0].word == ("P*",)
    with pytest.raises(CrossesBridge):
        repart.parse_word(6, "P25")
    with pytest.raises(ValueError):
        repart.parse_word(4, "Q12")
    with pytest.raises(ValueError):
        repart.parse_word(4, "")
    for token in ("P1", "P79", "Q12", "P11"):
        with pytest.raises(ValueError):
            repart.parse_word(6, token)


def test_word_permutation():
    assert repart.word_permutation(6, ["P45", "P*", "P45"]) == (1, 2, 5, 4, 3, 6)
    assert repart.word_permutation(4, ["P34", "P*", "P34"]) == (1, 4, 3, 2)
    assert repart.word_permutation(4, ["P*"]) == (1, 3, 2, 4)
    assert repart.word_permutation(10, ["P1,10"]) == (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)
    for token in ("P1", "P79", "Q12", "P11"):
        with pytest.raises(ValueError):
            repart.word_permutation(6, [token])


def test_numeric_matches_closed_form_with_global_sign():
    # the last two words are not palindromes, so they fix the word order
    for valence, word in [(4, "P34 P* P34"), (6, "P45 P* P45"), (4, "P* P12"),
                          (6, "P* P56 P23")]:
        closed = repart.compose(repart.parse_word(valence, word))
        perm = repart.word_permutation(valence, word.split())
        num = repart.numeric_repart_matrix(valence, perm)
        assert repart.global_sign_between(closed, num) == 1


def test_numeric_matches_pstar_with_global_sign():
    for valence in (4, 6):
        n1 = valence // 2
        perm = repart._swap_permutation(valence, n1, n1 + 1)
        num = repart.numeric_repart_matrix(valence, perm)
        assert repart.global_sign_between(repart.pstar_matrix(valence), num) == 1


def test_apply_realizes_the_leg_permutation():
    rng = np.random.default_rng(14)
    for valence, word in [(4, "P34"), (4, "P*"), (6, "P45"), (6, "P*"),
                          (6, "P45 P* P45"), (4, "P* P12"), (6, "P* P56 P23")]:
        labels = bridge.bridge_basis(valence, valence // 2)
        z = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
        c = bridge.CoefficientVector(dict(zip(labels, z)))
        r = repart.compose(repart.parse_word(valence, word))
        moved = bridge.assemble(r.apply(c))
        perm = repart.word_permutation(valence, word.split())
        expect = tensors.permute_legs(bridge.assemble(c), perm)
        assert np.allclose(moved.data, expect.data, atol=1e-10)


def test_apply_keeps_exact_entries_exact():
    r = repart.pstar_matrix(4)
    c = bridge.CoefficientVector({m: Fraction(1) for m in r.labels})
    out = r.apply(c)
    assert all(isinstance(v, Fraction) for v in out.entries.values())


def test_on_basis_rejects_foreign_labels():
    r = repart.pstar_matrix(4)
    with pytest.raises(LabelMismatch):
        r.on_basis(bridge.bridge_basis(6, 3))


def test_compose_rejects_mixed_valence():
    with pytest.raises(LabelMismatch):
        repart.compose([repart.pstar_matrix(4), repart.pstar_matrix(6)])


def test_shift_check_on_identity():
    t = bridge.identity_state(4)
    chk = repart.unbalanced_shift_check(t, tensors.Bipartition((1, 2), (3, 4)))
    assert chk.verdict == "pass"
    assert chk.lambda_ratio == pytest.approx(2.0)


def test_shift_check_noop_and_fail():
    t = bridge.identity_state(4)
    noop = repart.unbalanced_shift_check(t, tensors.Bipartition((1,), (2, 3, 4)))
    assert noop.verdict == "noop"
    rng = np.random.default_rng(2)
    bad = tensors.random_invariant((1,) * 6, rng)
    chk = repart.unbalanced_shift_check(bad, tensors.Bipartition((1, 2, 3), (4, 5, 6)))
    assert chk.verdict == "fail"


def test_shift_check_rejects_the_zero_tensor():
    zero = tensors.LabeledTensor((1, 1, 1, 1), np.zeros((2, 2, 2, 2)))
    with pytest.raises(ZeroTensor):
        repart.unbalanced_shift_check(zero, tensors.Bipartition((1, 2), (3, 4)))


def test_algorithm1_valence2_feasible():
    trace = repart.algorithm1_run(2)
    assert trace.feasible and trace.exact
    assert "unique solution up to phase" in trace.summary
    assert trace.steps[0].checks["family_residual"] < 1e-12


def test_algorithm1_valence4_infeasible():
    trace = repart.algorithm1_run(4)
    assert not trace.feasible and trace.exact
    words = [s.word for s in trace.steps]
    assert words == ["master", "P*", "P34 P* P34"]
    assert trace.steps[1].constraint == "dphi = 0 (mod 2pi)"
    assert trace.steps[2].constraint == "dphi = pi (mod 2pi)"
    assert trace.steps[1].checks["sufficiency_max_residual"] < 1e-12
    assert trace.steps[1].checks["necessity_min_residual_off_constraint"] > 1e-4
    assert trace.steps[2].checks["sufficiency_max_residual"] < 1e-12
    assert any("sqrt(10) lambda" in line for line in trace.certificate)


def test_algorithm1_valence6_infeasible():
    trace = repart.algorithm1_run(6)
    assert not trace.feasible and trace.exact
    words = [s.word for s in trace.steps]
    assert words == ["master", "P*", "P45 P* P45"]
    assert "A = 2 sqrt(lambda)/3" in trace.steps[1].constraint
    assert trace.steps[1].checks["sufficiency_max_residual"] < 1e-12
    assert trace.steps[1].checks["necessity_min_residual_off_constraint"] > 1e-4
    last = trace.steps[2]
    assert "forcing lambda = 0" in last.constraint
    assert last.checks["image_residual_over_lambda"] == 3.0
    assert last.checks["image_residual_max_deviation"] < 1e-12
    assert last.checks["image_top_modulus_max"] < 1e-12
    assert "lambda = 0" in trace.certificate[-1]


def test_algorithm1_odd_valence():
    trace = repart.algorithm1_run(5)
    assert not trace.feasible and trace.exact
    assert trace.steps == ()
    assert "empty invariant space" in trace.summary


def test_algorithm1_numeric_fallback():
    trace = repart.algorithm1_run(8, restarts=3, seed=5)
    assert not trace.exact
    assert not trace.feasible
    assert "numerical evidence only" in trace.summary
    assert trace.steps[0].checks["best_defect"] > 0.1


def test_trace_json_roundtrip():
    trace = repart.algorithm1_run(4)
    doc = json.loads(trace.to_json())
    assert doc["valence"] == 4
    assert doc["feasible"] is False
    assert len(doc["steps"]) == 3


def test_repartition_json():
    doc = repart.pstar_matrix(4).to_json_dict()
    assert doc["word"] == "P*"
    assert doc["sign_convention"] == repart.BINOR
    assert doc["matrix"][0][0] in ("-1/2", "1/2")


def test_master_residual_preserved_by_sign_flip():
    # flipping the asymmetric-label signs is a basis gauge: the valence-6
    # feasibility verdicts cannot depend on it, because the closed forms and
    # the numeric projections stay consistent (global sign +1)
    sys = master.build_master_system(6)
    fam = master.solve_qubit_valence6()
    rng = np.random.default_rng(77)
    c, _ = fam.draw(rng, lam=1.0)
    flipped = bridge.CoefficientVector({
        m: (-v if m.j_path != m.k_path else v) for m, v in c.entries.items()
    })
    assert master.residual(flipped, sys, 1.0) < 1e-12


def _single_token_words(valence):
    n1 = valence // 2
    pairs = [(i, j) for i in range(1, valence + 1) for j in range(i + 1, valence + 1)
             if j <= n1 or i > n1]
    return ["P*"] + [f"P{i}{j}" if valence < 10 else f"P{i},{j}" for i, j in pairs]


def _dense_involution(r):
    # exact dense product on integers: (L R)(L R) = L^2 1 with L the common
    # denominator of the entries
    den = math.lcm(*(x.denominator for row in r.matrix for x in row))
    m = np.array([[int(x * den) for x in row] for row in r.matrix], dtype=object)
    return bool((m @ m == den * den * np.eye(r.dim, dtype=int)).all())


@pytest.mark.parametrize("valence", [4, 6, 8, 10])
def test_sparse_involution_matches_dense_product(valence):
    for token in _single_token_words(valence):
        (r,) = repart.parse_word(valence, token)
        assert r.is_involution() is _dense_involution(r) is True, token
    # P12 and P* swap disjoint leg pairs and commute, so "P12 P*" is an
    # involution; "P23 P*" shares leg 3 and is not
    for word, want in (("P12 P*", True), ("P23 P*", False), ("P12 P23", False)):
        r = repart.compose(repart.parse_word(6, word))
        assert r.is_involution() is _dense_involution(r) is want, word
    # a unit diagonal with a surviving off-diagonal entry is not an involution
    labels = tuple(bridge.bridge_basis(4, 2))
    shear = repart.RepartitionMatrix(4, ("X",), labels, ((F(1), F(1)), (F(0), F(1))))
    assert shear.is_involution() is _dense_involution(shear) is False


def _decompose_reference(valence, permutation):
    n1 = valence // 2
    labels, states, _thetas = bridge._basis_states(valence, n1)
    cols = []
    for s in states:
        c = bridge.decompose(tensors.permute_legs(s, permutation), n1,
                             tolerance=math.inf)
        cols.append([complex(c.entries[m]).real for m in labels])
    return [[Fraction(x).limit_denominator(10**6) for x in row]
            for row in np.array(cols).T]


@pytest.mark.parametrize("valence", [4, 6, 8, 10])
def test_numeric_matrix_matches_per_state_decompose(valence):
    n1 = valence // 2
    for pair in ((n1, n1 + 1), (1, 2)):
        perm = repart._swap_permutation(valence, *pair)
        got = repart.numeric_repart_matrix(valence, perm)
        assert [list(row) for row in got.matrix] == _decompose_reference(valence, perm)
        assert all(isinstance(x, Fraction) for row in got.matrix for x in row)


def test_apply_columns_matches_dense_product():
    rng = np.random.default_rng(5)
    r = repart.compose(repart.parse_word(6, "P45 P* P45"))
    cols = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
    batch = r.apply_columns(cols)
    np.testing.assert_allclose(batch, r.as_float() @ cols, rtol=0, atol=1e-15)
    # apply's float branch is the one-point form of the same kernel
    for p in range(7):
        c = bridge.CoefficientVector(dict(zip(r.labels, cols[:, p])))
        image = r.apply(c)
        assert [image.entries[m] for m in r.labels] == list(batch[:, p])
