"""Acceptance suite: ten numbered end-to-end checks, one pass/fail line each.

Each test covers one acceptance criterion at its stated tolerance and, where
one is stated, its time limit. Run `pytest tests/test_acceptance.py -v` for
the per-criterion pass/fail lines (add -s to see the summary prints). The
valence-6 search in criterion 7 runs ten thousand restarts and dominates the
runtime of the whole suite.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from su2ipt import bridge, certify, cli, master, repart, su2, tensors

# Regression floors for the smallest max-bipartition defect seen across the
# master-equation families and multistart searches; fixed once from offline
# oracle runs (grid scans, direct defect minimization, summed-defect search)
# and never tuned to the tests. The infeasibility replays guarantee only
# that the defect stays positive, so the checks accept anything within 10
# percent of the recorded floor.
DELTA4 = 0.50
DELTA6 = 0.5145


def _report(num, text):
    print(f"criterion {num:2d}: PASS - {text}")


def _max_bipartition_defect(t):
    return max(
        tensors.isometry_defect(t, p)[1]
        for p in tensors.bipartitions(len(t.legs))
    )


def test_criterion_01_theta_golden_values():
    t0 = time.perf_counter()
    values = [
        bridge.theta_single(p) for p in [(1, 0), (1, 2), (1, 0, 1), (1, 2, 1)]
    ]
    elapsed = time.perf_counter() - t0
    assert values == [Fraction(2), Fraction(3), Fraction(4), Fraction(3)]
    assert all(isinstance(v, Fraction) for v in values)
    assert elapsed < 1.0
    _report(1, f"theta = 2, 3, 4, 3 exactly in {elapsed:.3f}s")


def test_criterion_02_bridge_calibration_to_valence_8():
    t0 = time.perf_counter()
    bridge.calibrate(8)  # raises CalibrationFailure on any mismatch
    checked = 0
    for valence in (2, 4, 6, 8):
        for n1 in range(1, valence):
            labels = bridge.bridge_basis(valence, n1)
            if not labels:
                continue
            states = [bridge.build_bridge_state(m) for m in labels]
            g = np.array([[x.overlap(y) for y in states] for x in states])
            want = np.diag([float(bridge.theta_label(m)) for m in labels])
            assert np.max(np.abs(g - want)) < 1e-10
            checked += len(labels)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(2, f"{checked} labels: Gram = diag(theta) within 1e-10 in {elapsed:.2f}s")


def test_criterion_03_identity_decomposition():
    dec4 = bridge.identity_decomposition(4)
    by_bridge = {m.bridge: v for m, v in dec4.entries.items()}
    assert by_bridge == {0: Fraction(1, 2), 2: Fraction(1)}

    dec6 = bridge.identity_decomposition(6)
    assert all(m.j_path == m.k_path for m in dec6.entries)
    by_path = {m.j_path: v for m, v in dec6.entries.items()}
    assert by_path == {
        (1, 2, 3): Fraction(1),
        (1, 2, 1): Fraction(2, 3),
        (1, 0, 1): Fraction(1, 2),
    }

    for valence in (4, 6):
        assembled = bridge.assemble(bridge.identity_decomposition(valence))
        diff = assembled.data - bridge.identity_state(valence).data
        assert np.max(np.abs(diff)) < 1e-10
    _report(3, "identity = (1/2, 1) at valence 4 and (1, 2/3, 1/2) at valence 6")


def test_criterion_04_master_systems_and_families():
    sys4 = master.build_master_system(4).normalized()
    texts4 = [eq.text() for eq in sys4.equations]
    assert "|c[1/2,1 | 1,1/2]|^2 = lambda" in texts4
    # |c0|^2 = lambda / 4, written with the weight on the left
    assert "4 |c[1/2,0 | 0,1/2]|^2 = lambda" in texts4

    sys6 = master.build_master_system(6).normalized()
    assert len(sys6.equations) == 4
    cross = [eq for eq in sys6.equations if not eq.diagonal]
    assert len(cross) == 1
    assert cross[0].text() == (
        "3 c[1/2,0,1/2 | 1/2,1,1/2] conj(c[1/2,1,1/2 | 1/2,1,1/2])"
        " + 4 c[1/2,0,1/2 | 1/2,0,1/2] conj(c[1/2,1,1/2 | 1/2,0,1/2]) = 0"
    )

    rng = np.random.default_rng(4)
    worst = 0.0
    for fam, sys_ in ((master.solve_qubit_valence4(), sys4),
                      (master.solve_qubit_valence6(), sys6)):
        for _ in range(1000):
            lam = rng.uniform(0.2, 5.0)
            c, _ = fam.draw(rng, lam=lam)
            worst = max(worst, master.residual(c, sys_, lam))
    assert worst < 1e-12
    _report(4, f"exact systems; family residual {worst:.2e} over 1000 draws each")


def test_criterion_05_repartition_matrices():
    display4 = [bridge.BridgeLabel((1, 0), (1, 0)),
                bridge.BridgeLabel((1, 2), (1, 2))]
    display6 = [
        bridge.BridgeLabel((1, 2, 3), (1, 2, 3)),
        bridge.BridgeLabel((1, 2, 1), (1, 2, 1)),
        bridge.BridgeLabel((1, 2, 1), (1, 0, 1)),
        bridge.BridgeLabel((1, 0, 1), (1, 2, 1)),
        bridge.BridgeLabel((1, 0, 1), (1, 0, 1)),
    ]

    def rows(r, labels):
        return [list(row) for row in r.on_basis(labels).matrix]

    F = Fraction
    pstar4 = repart.pstar_matrix(4)
    assert rows(pstar4, display4) == [
        [F(1, 2), F(-3, 4)],
        [F(-1), F(-1, 2)],
    ]
    pstar6 = repart.pstar_matrix(6)
    assert rows(pstar6, display6) == [
        [F(-1, 3), F(-1), F(0), F(0), F(0)],
        [F(-8, 9), F(1, 3), F(0), F(0), F(0)],
        [F(0), F(0), F(1), F(0), F(0)],
        [F(0), F(0), F(0), F(1), F(0)],
        [F(0), F(0), F(0), F(0), F(-1)],
    ]
    composed4 = repart.compose(repart.parse_word(4, "P34 P* P34"))
    assert rows(composed4, display4) == [
        [F(1, 2), F(3, 4)],
        [F(1), F(-1, 2)],
    ]
    composed6 = repart.compose(repart.parse_word(6, "P45 P* P45"))
    assert rows(composed6, display6) == [
        [F(-1, 3), F(1, 2), F(1), F(0), F(0)],
        [F(4, 9), F(5, 6), F(-1, 3), F(0), F(0)],
        [F(2, 3), F(-1, 4), F(1, 2), F(0), F(0)],
        [F(0), F(0), F(0), F(-1, 2), F(1)],
        [F(0), F(0), F(0), F(3, 4), F(1, 2)],
    ]

    involutions = [
        pstar4, pstar6, composed4, composed6,
        repart.trivial_swap_matrix(4, (3, 4)),
        repart.trivial_swap_matrix(6, (4, 5)),
    ]
    assert all(r.is_involution() for r in involutions)

    # numeric projection agrees with each closed form up to one global sign
    signs = []
    for closed, valence, word in [
        (pstar4, 4, ["P*"]), (pstar6, 6, ["P*"]),
        (composed4, 4, "P34 P* P34".split()),
        (composed6, 6, "P45 P* P45".split()),
    ]:
        perm = repart.word_permutation(valence, word)
        num = repart.numeric_repart_matrix(valence, perm)
        signs.append(repart.global_sign_between(closed, num))  # 1e-10 gate
    assert all(s in (1, -1) for s in signs)
    _report(5, f"closed forms exact, involutions exact, global signs {signs}")


def test_criterion_06_nogo_replays(capsys):
    t0 = time.perf_counter()
    code = cli.run(["nogo", "--valence", "4"])
    dt4 = time.perf_counter() - t0
    out4 = capsys.readouterr().out
    assert code == 1
    assert "dphi = 0 (mod 2pi)" in out4
    assert "dphi = pi (mod 2pi)" in out4
    assert dt4 < 5.0

    t0 = time.perf_counter()
    code = cli.run(["nogo", "--valence", "6"])
    dt6 = time.perf_counter() - t0
    out6 = capsys.readouterr().out
    assert code == 1
    assert "A = 2 sqrt(lambda)/3" in out6
    assert "rho = phi" in out6
    assert "forcing lambda = 0" in out6
    assert dt6 < 5.0

    t0 = time.perf_counter()
    code = cli.run(["nogo", "--valence", "2"])
    dt2 = time.perf_counter() - t0
    out2 = capsys.readouterr().out
    assert code == 0
    assert "unique solution up to phase" in out2
    assert dt2 < 5.0
    _report(6, f"contradictions replayed in {dt4:.2f}s / {dt6:.2f}s / {dt2:.2f}s")


@pytest.mark.slow
def test_criterion_07_certifier_controls():
    # (a) positive controls certify perfect below 1e-10
    eps = tensors.LabeledTensor(
        (1, 1), su2.epsilon_matrix(1).astype(complex) / np.sqrt(2)
    )
    for t in (eps, su2.vertex(1, 1, 2)):
        report = certify.certify_perfect(t)
        assert report.verdict == "perfect"
        assert report.worst_defect() < 1e-10

    # (b) valence-4 negative control: family sample and a one-thousand
    # restart search never drop below the recorded floor (within 10%)
    rng = np.random.default_rng(7)
    fam4 = master.solve_qubit_valence4()
    fam4_min = min(
        _max_bipartition_defect(bridge.assemble(fam4.draw(rng)[0]))
        for _ in range(200)
    )
    assert fam4_min >= 0.9 * DELTA4
    res4 = certify.search_min_defect((1, 1, 1, 1), restarts=10**3, seed=2024)
    best4 = _max_bipartition_defect(bridge.assemble(res4.best_coefficients))
    assert best4 >= 0.9 * DELTA4

    # (c) same at valence 6 with ten thousand restarts
    fam6 = master.solve_qubit_valence6()
    fam6_min = min(
        _max_bipartition_defect(bridge.assemble(fam6.draw(rng)[0]))
        for _ in range(200)
    )
    assert fam6_min >= 0.9 * DELTA6
    res6 = certify.search_min_defect((1,) * 6, restarts=10**4, seed=2024)
    best6 = _max_bipartition_defect(bridge.assemble(res6.best_coefficients))
    assert best6 >= 0.9 * DELTA6
    _report(7, "defect floors held: "
               f"v4 family {fam4_min:.3f}, search {best4:.3f} >= {0.9 * DELTA4:.3f};"
               f" v6 family {fam6_min:.3f}, search {best6:.3f} >= {0.9 * DELTA6:.5f}")


def test_criterion_08_layout_and_bound_gates():
    # spins (1/2, 1/2, 1/2, 1/2, 2): the heaviest leg outweighs the rest
    assert certify.layout_check_odd((1, 1, 1, 1, 4)) == "fail"
    for legs in ((1, 1, 1, 3), (1, 1, 2, 2), (2, 2, 4, 4)):
        assert certify.layout_check_even(legs) == "fail"
    assert certify.layout_check_even((1, 1, 1, 1)) == "pass"
    assert certify.scott_bound(2, 8) == "fail"
    assert certify.scott_bound(2, 6) == "pass"
    _report(8, "odd balance, even equality, and dimension bound gates agree")


def test_criterion_09_phase_walk():
    t0 = time.perf_counter()
    report = certify.phase_walk_feasibility()
    elapsed = time.perf_counter() - t0
    assert abs(report.x - math.acos(7.0 / 9.0)) < 1e-12
    assert math.cos(math.pi / 4.0) < 7.0 / 9.0  # why the windows are disjoint
    assert report.disjoint is True
    assert report.interval_a[1] < report.interval_b[0]
    assert report.grid_min_residual > 0.0
    assert elapsed < 60.0
    _report(9, f"disjoint windows, grid min {report.grid_min_residual:.3f}"
               f" in {elapsed:.2f}s")


def test_criterion_10_property_suites():
    # every constructed bridge state is invariant
    checked = 0
    splits = [(v, n1) for v in (2, 4, 6) for n1 in range(1, v)] + [(8, 4)]
    for valence, n1 in splits:
        for m in bridge.bridge_basis(valence, n1):
            defect = tensors.invariance_defect(bridge.build_bridge_state(m))
            assert defect < 1e-12
            checked += 1

    # trace law lambda * dim_A = |t|^2 on every bipartition
    rng = np.random.default_rng(10)
    pool = [(1, 1, 1, 1), (1,) * 6, (2, 1, 1), (2, 2, 2), (1, 1, 2, 2), (2, 2)]
    for i in range(100):
        legs = pool[i % len(pool)]
        t = tensors.random_invariant(legs, rng)
        n2 = t.norm_squared()
        for p in tensors.bipartitions(len(legs)):
            lam, _ = tensors.isometry_defect(t, p)
            dim_a = math.prod(su2.dim(legs[k - 1]) for k in p.a)
            assert abs(lam * dim_a - n2) < 1e-10 * max(1.0, n2)

    # bridge-label count at the balanced qubit split equals the number of
    # nonnegative walks 0 -> 0 in 2n unit steps, counted independently
    def ballot_count(n):
        heights = {0: 1}
        for _ in range(2 * n):
            nxt = {}
            for h, cnt in heights.items():
                for h2 in (h - 1, h + 1):
                    if h2 >= 0:
                        nxt[h2] = nxt.get(h2, 0) + cnt
            heights = nxt
        return heights.get(0, 0)

    for n in range(1, 5):
        assert len(bridge.bridge_basis(2 * n, n)) == ballot_count(n)
    _report(10, f"{checked} bridge states invariant; trace law on 100 tensors;"
                " ballot counts match to n = 4")
