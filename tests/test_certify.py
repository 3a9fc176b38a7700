import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from su2ipt import bridge, certify, su2, tensors
from su2ipt.errors import (
    EmptyInvariantSpace, EvenValence, NotInvariant, OddValence, ZeroTensor,
)


def test_certify_pair_state_perfect():
    t = tensors.LabeledTensor((1, 1), su2.epsilon_matrix(1) / math.sqrt(2.0))
    report = certify.certify_perfect(t)
    assert report.verdict == "perfect"
    assert report.worst_defect() < 1e-10
    assert report.invariance < 1e-12
    assert report.mode == "leg_count"


def test_certify_vertex_perfect():
    v = su2.vertex(1, 1, 2)
    report = certify.certify_perfect(v)
    assert report.verdict == "perfect"
    # lambda law: lam * dim_A = norm^2 for each single-leg split
    for p, lam, defect, spec in report.per_bipartition:
        dim_a = 1
        for leg in p.a:
            dim_a *= su2.dim(v.legs[leg - 1])
        assert lam * dim_a == pytest.approx(report.norm_squared, rel=1e-10)


def test_certify_identity_state_not_perfect():
    t = bridge.identity_state(4)
    report = certify.certify_perfect(t)
    assert report.verdict == "not_perfect"
    assert report.worst_defect() > 0.5
    # the balanced nested cut itself is clean
    defects = {p.a: defect for p, _, defect, _ in report.per_bipartition}
    assert defects[(1, 2)] < 1e-12


def test_certify_random_invariant_not_perfect():
    rng = np.random.default_rng(21)
    t = tensors.random_invariant((1,) * 6, rng)
    report = certify.certify_perfect(t)
    assert report.verdict == "not_perfect"


def test_certify_noninvariant_tensor():
    rng = np.random.default_rng(22)
    t = tensors.LabeledTensor((1, 1, 1, 1), rng.normal(size=16))
    report = certify.certify_perfect(t)
    assert report.verdict == "not_invariant"
    assert all(spec is None for _, _, _, spec in report.per_bipartition)


def test_certify_zero_tensor():
    with pytest.raises(ZeroTensor):
        certify.certify_perfect(tensors.LabeledTensor((1, 1), np.zeros(4)))


def test_certify_dimension_count_mode():
    v = su2.vertex(1, 1, 2)
    report = certify.certify_perfect(v, dimension_count=True)
    assert report.mode == "dimension_count"
    # dim gate: {3} (dim 3) vs {1,2} (dim 4) is admitted, {1,2} vs {3} is not
    sides = [p.a for p, _, _, _ in report.per_bipartition]
    assert (3,) in sides


def test_certify_dimension_count_admits_wider_leg_side():
    # A = {1,2,3} has more legs than B = {4,5} but the smaller dimension (8 vs 10)
    t = tensors.random_invariant((1, 1, 1, 1, 4), np.random.default_rng(5))
    report = certify.certify_perfect(t, dimension_count=True)
    sides = [p.a for p, _, _, _ in report.per_bipartition]
    assert (1, 2, 3) in sides
    assert report.verdict == "not_perfect"


def test_certify_report_json():
    t = tensors.LabeledTensor((1, 1), su2.epsilon_matrix(1))
    doc = certify.certify_perfect(t).to_json_dict()
    assert doc["verdict"] == "perfect"
    assert doc["norm_squared"] == pytest.approx(2.0)
    assert isinstance(doc["bipartitions"], list)


# (legs, dimension_count) for the block-kernel checks
KERNEL_CASES = [
    ((1,) * 4, False), ((1,) * 6, False), ((1,) * 8, False), ((1, 1, 2), False),
    ((1, 1, 2, 2), False), ((2,) * 4, False), ((2,) * 5, False),
    ((1, 1, 1, 1, 4), True),
]


@pytest.mark.parametrize("legs,dimension_count", KERNEL_CASES)
def test_certify_rows_match_dense_reference(legs, dimension_count):
    t = tensors.random_invariant(legs, np.random.default_rng(41))
    report = certify.certify_perfect(t, dimension_count=dimension_count)
    assert report.verdict != "not_invariant"
    for p, lam, defect, spec in report.per_bipartition:
        dense_lam, dense_defect = tensors.isometry_defect(t, p)
        assert abs(lam - dense_lam) <= 1e-14
        assert abs(defect - dense_defect) <= 1e-14
        assert spec == tensors.schur_spectrum(t, p)
        # J ascending; within one J, distinct rounded moduli descending
        keys = [(tj, -mod) for tj, mod, _ in spec.entries]
        assert keys == sorted(set(keys))


@pytest.mark.parametrize("legs,dimension_count", KERNEL_CASES)
def test_block_moduli_are_the_gram_spectrum(legs, dimension_count):
    # each sigma_J^2 is a Gram eigenvalue of multiplicity d_J = 2J+1
    t = tensors.random_invariant(legs, np.random.default_rng(42))
    dims = tuple(su2.dim(leg) for leg in legs) if dimension_count else None
    for p in tensors.bipartitions(len(legs), dims=dims):
        blocks = tensors._block_moduli(t, p)
        got = np.sort(np.concatenate(
            [np.repeat(sigma**2, su2.dim(tj)) for tj, sigma in blocks.items()]))
        want = np.linalg.eigvalsh(tensors.gram(t, p))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_certify_on_warm_caches_builds_no_isometry(monkeypatch):
    t = tensors.random_invariant((1,) * 8, np.random.default_rng(43))
    certify.certify_perfect(t)
    calls = {"chain_isometry": 0, "invariance_defect": 0}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(su2, "chain_isometry")
    counted(tensors, "invariance_defect")
    certify.certify_perfect(t)
    assert calls == {"chain_isometry": 0, "invariance_defect": 1}


@pytest.mark.parametrize("n,limit_kb", [(8, 12), (10, 64)])
def test_certify_report_is_compact(n, limit_kb):
    t = tensors.random_invariant((1,) * n, np.random.default_rng(44))
    certify.certify_perfect(t)  # warm the caches
    gc.collect()
    tracemalloc.start()
    try:
        report = certify.certify_perfect(t)
        gc.collect()
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.verdict == "not_perfect"
    assert held < limit_kb * 1024


@pytest.mark.parametrize("scale,stored", [(1.0, np.uint32), (10.0, np.float64)])
def test_certify_report_moduli_repack_exactly(scale, stored):
    # unit tensors store the 9-decimal moduli as integers k (k / 1e9);
    # moduli above 4.29 stay float64; both re-pack to schur_spectrum's entries
    for legs in ((1,) * 6, (2,) * 5):
        t = tensors.random_invariant(legs, np.random.default_rng(46)).scaled(scale)
        report = certify.certify_perfect(t)
        assert report.moduli.dtype == stored
        for p, _, _, spec in report.per_bipartition:
            assert spec == tensors.schur_spectrum(t, p)


def test_certify_report_keeps_no_tensor_and_defers_no_work(monkeypatch):
    t = tensors.random_invariant((1,) * 6, np.random.default_rng(45))
    ref = weakref.ref(t)
    report = certify.certify_perfect(t)
    want = [(p, tensors.schur_spectrum(t, p)) for p in tensors.bipartitions(6)]
    del t
    gc.collect()
    assert ref() is None

    def refuse(*args, **kwargs):
        raise AssertionError("numerical work after certify_perfect returned")
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(tensors, "_block_moduli", refuse)
    assert [(p, spec) for p, _, _, spec in report.per_bipartition] == want
    assert len(report.to_json_dict()["bipartitions"]) == len(want)


def test_layout_checks():
    assert certify.layout_check_even((1, 1, 1, 1)) == "pass"
    assert certify.layout_check_even((1, 1, 1, 3)) == "fail"
    assert certify.layout_check_odd((1, 1, 1, 1, 4)) == "fail"
    assert certify.layout_check_odd((1, 1, 1)) == "pass"
    assert certify.layout_check_odd((2, 2, 2, 1, 1)) == "pass"  # 2 <= 2 boundary
    assert certify.layout_check_odd((4, 2, 1, 1, 1)) == "fail"
    with pytest.raises(OddValence):
        certify.layout_check_even((1, 1, 1))
    with pytest.raises(EvenValence):
        certify.layout_check_odd((1, 1))


def test_scott_bound():
    assert certify.scott_bound(2, 6) == "pass"
    assert certify.scott_bound(2, 8) == "fail"
    assert certify.scott_bound(3, 16) == "pass"
    assert certify.scott_bound(3, 17) == "fail"
    with pytest.raises(ValueError):
        certify.scott_bound(1, 2)


def test_phase_walk_windows():
    report = certify.phase_walk_feasibility(grid=72, bins=180)
    assert report.x == pytest.approx(math.acos(7.0 / 9.0))
    assert report.disjoint
    lo_a, hi_a = report.interval_a
    lo_b, hi_b = report.interval_b
    assert hi_a == pytest.approx(2.0 * report.x)
    assert lo_b == pytest.approx(math.pi - 2.0 * report.x)
    # windows are disjoint exactly because 2x < pi - 2x
    assert hi_a < lo_b
    # each walk alone is solvable; the joint system is not
    assert report.walk1_min < 1e-8
    assert report.walk2_min < 1e-8
    assert report.grid_min_residual > 0.3


def test_phase_walk_json():
    report = certify.phase_walk_feasibility(grid=24, bins=48)
    doc = report.to_json_dict()
    assert doc["disjoint"] is True
    assert isinstance(doc["interval_a"], list)


def test_search_three_leg_perfect_exists():
    result = certify.search_min_defect([1, 1, 2], restarts=8, seed=3)
    assert result.best_defect < 1e-10


def test_search_valence4_bounded_away():
    result = certify.search_min_defect([1, 1, 1, 1], restarts=40, seed=2024)
    assert result.best_defect > 0.5
    # coefficients come back on the bridge basis for even qubit legs
    assert hasattr(result.best_coefficients, "entries")


def test_search_reproducible_and_monotone():
    a = certify.search_min_defect([1, 1, 1, 1], restarts=10, seed=7)
    b = certify.search_min_defect([1, 1, 1, 1], restarts=10, seed=7)
    assert a.best_defect == b.best_defect
    more = certify.search_min_defect([1, 1, 1, 1], restarts=25, seed=7)
    assert more.best_defect <= a.best_defect + 1e-15


@pytest.mark.parametrize("legs", [
    (1,) * 4, (1,) * 6, (1,) * 8, (1, 1, 2), (1, 1, 2, 2), (2,) * 4,
])
def test_objective_matches_dense_isometry_defect(legs):
    obj = certify._DefectObjective(legs)
    rng = np.random.default_rng(11)
    for _ in range(3):
        z = rng.normal(size=obj.k) + 1j * rng.normal(size=obj.k)
        z /= np.linalg.norm(z)
        t = tensors.LabeledTensor(legs, sum(c * e.data for c, e in zip(z, obj.basis)))
        dense = [tensors.isometry_defect(t, p)[1] for p in obj.parts]
        np.testing.assert_allclose(obj.defects(z), dense, rtol=0, atol=1e-12)


def test_objective_vanishes_at_perfect_point():
    # the three-leg invariant space is one-dimensional and its state is perfect
    obj = certify._DefectObjective((1, 1, 2))
    assert obj(np.array([1.0, 0.0])) < 1e-14


def test_objective_operand_is_schur_blocks():
    # 196 = 14^2 basis pairs; 834 = sum over bipartitions and total spins of mult_J^2
    assert certify._DefectObjective((1,) * 8).qmat.shape == (196, 834)


def test_search_empty_space():
    with pytest.raises(EmptyInvariantSpace):
        certify.search_min_defect([1, 1, 1], restarts=2, seed=0)


def test_search_json():
    result = certify.search_min_defect([1, 1, 1, 1], restarts=3, seed=1)
    doc = result.to_json_dict()
    assert doc["restarts"] == 3 and doc["seed"] == 1
    assert doc["best_defect"] > 0


def test_ladder_report_ranges():
    rng = np.random.default_rng(31)
    t = tensors.random_invariant((1, 1, 1, 1), rng)
    rep = certify.schur_ladder_report(t, tensors.Bipartition((1, 2), (3, 4)))
    assert rep.j_min == 0 and rep.j_max == 2
    assert rep.expected_multiplicities == ((0, 1), (2, 1))

    t6 = tensors.random_invariant((1,) * 6, rng)
    rep6 = certify.schur_ladder_report(t6, tensors.Bipartition((1, 2, 3), (4, 5, 6)))
    assert rep6.j_min == 1 and rep6.j_max == 3
    assert rep6.expected_multiplicities == ((1, 2), (3, 1))

    mixed = tensors.random_invariant((1, 2, 2, 1), rng)
    repm = certify.schur_ladder_report(mixed, tensors.Bipartition((1, 2), (3, 4)))
    assert repm.j_min == 1 and repm.j_max == 3


def test_ladder_multiplicities_match_spectrum():
    rng = np.random.default_rng(33)
    t = tensors.random_invariant((1,) * 6, rng)
    rep = certify.schur_ladder_report(t, tensors.Bipartition((1, 2, 3), (4, 5, 6)))
    got = {}
    for tj, _, m in rep.spectrum.entries:
        got[tj] = got.get(tj, 0) + m
    assert got == dict(rep.expected_multiplicities)


def test_ladder_rejects_noninvariant():
    rng = np.random.default_rng(34)
    t = tensors.LabeledTensor((1, 1, 1, 1), rng.normal(size=16))
    with pytest.raises(NotInvariant):
        certify.schur_ladder_report(t, tensors.Bipartition((1, 2), (3, 4)))


def test_ladder_json():
    rng = np.random.default_rng(35)
    t = tensors.random_invariant((1, 1, 1, 1), rng)
    rep = certify.schur_ladder_report(t, tensors.Bipartition((1, 2), (3, 4)))
    doc = rep.to_json_dict()
    assert doc["j_min"] == "0" and doc["j_max"] == "1"


def _walk_bin_minima_full_scan(signs, grid, bins):
    """O(grid^3) reference: every (th_s, th_a, xi) point of the grid."""
    s0, s1, s2 = signs
    angles = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    th_s = angles[:, None, None]
    th_a = angles[None, :, None]
    xi = angles[None, None, :]
    total = (s0 * 1.5 * np.exp(1j * th_s)
             + s1 * 1.5 * np.exp(1j * (th_a + th_s - xi))
             + s2 * 1.5 * np.exp(1j * xi) + 0.5 * np.exp(1j * th_a) - 4.0)
    res = np.abs(total).min(axis=1)
    dphi = np.mod(th_s[:, :, 0] - angles[None, :], 2.0 * math.pi)
    idx = np.minimum((dphi / (2.0 * math.pi) * bins).astype(int), bins - 1)
    best = np.full(bins, np.inf)
    np.minimum.at(best, idx.ravel(), res.ravel())
    return best


@pytest.mark.parametrize("grid, bins", [(24, 48), (72, 180)])
def test_walk_bin_minima_match_full_scan(grid, bins):
    joint = []
    for signs in ((-1.0, -1.0, -1.0), (-1.0, 1.0, 1.0)):
        got = certify._walk_bin_minima(signs, grid, bins)
        want = _walk_bin_minima_full_scan(signs, grid, bins)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        assert np.max(np.abs(got[finite] - want[finite])) < 1e-12
        joint.append((got, want))
    (g1, w1), (g2, w2) = joint
    assert np.argmin(np.sqrt(g1**2 + g2**2)) == np.argmin(np.sqrt(w1**2 + w2**2))
