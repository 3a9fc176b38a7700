import math

import numpy as np
import pytest

from su2ipt import bridge, su2, tensors
from su2ipt.errors import BadBipartition, NotInvariant, SpinMismatch, ZeroTensor


def test_labeled_tensor_shape_and_norm():
    t = tensors.LabeledTensor((1, 1), np.eye(2))
    assert t.valence == 2
    assert t.norm_squared() == pytest.approx(2.0)
    assert t.norm() == pytest.approx(math.sqrt(2.0))


def test_labeled_tensor_rejects_nonfinite():
    with pytest.raises(ValueError):
        tensors.LabeledTensor((1,), [1.0, float("nan")])


def test_labeled_tensor_accepts_exact_shape_or_flat_vector_only():
    legs = (1, 1, 2)
    data = np.arange(12.0)
    flat = tensors.LabeledTensor(legs, data)
    exact = tensors.LabeledTensor(legs, data.reshape(2, 2, 3))
    assert flat.data.shape == exact.data.shape == (2, 2, 3)
    assert np.array_equal(flat.data, exact.data)
    for bad in (data.reshape(3, 2, 2), data.reshape(4, 3), np.arange(8.0)):
        with pytest.raises(ValueError):
            tensors.LabeledTensor(legs, bad)


def test_overlap_requires_matching_legs():
    t = tensors.LabeledTensor((1,), [1.0, 0.0])
    u = tensors.LabeledTensor((2,), [1.0, 0.0, 0.0])
    with pytest.raises(SpinMismatch):
        t.overlap(u)


def test_permute_legs_roundtrip():
    rng = np.random.default_rng(0)
    t = tensors.LabeledTensor((1, 2, 3), rng.normal(size=(2, 3, 4)))
    u = tensors.permute_legs(t, (3, 1, 2))
    assert u.legs == (3, 1, 2)
    back = tensors.permute_legs(u, (2, 3, 1))
    assert np.array_equal(back.data, t.data)


def test_bipartition_counts():
    assert len(tensors.bipartitions(2)) == 1
    assert len(tensors.bipartitions(4)) == 4 + 3
    assert len(tensors.bipartitions(6)) == 6 + 15 + 10
    assert len(tensors.bipartitions(4, balance="balanced_only")) == 3
    assert len(tensors.bipartitions(6, balance="balanced_only")) == 10


def test_bipartitions_are_a_cached_tuple():
    parts = tensors.bipartitions(6)
    assert isinstance(parts, tuple)
    assert tensors.bipartitions(6) is parts
    dims = (2, 2, 2, 2, 5)
    assert tensors.bipartitions(5, dims=dims) is tensors.bipartitions(5, dims=dims)


def test_bipartition_canonical_side():
    for p in tensors.bipartitions(6):
        assert len(p.a) <= len(p.b)
        if len(p.a) == len(p.b):
            assert 1 in p.a
        assert sorted(p.a + p.b) == list(range(1, 7))


def test_gram_rejects_oversized_a_side():
    t = tensors.LabeledTensor((1, 1, 1, 1), np.zeros(16))
    with pytest.raises(BadBipartition):
        tensors.gram(t, tensors.Bipartition((1, 2, 3), (4,)))
    with pytest.raises(BadBipartition):
        tensors.gram(t, tensors.Bipartition((1, 2), (2, 3)))


def test_isometry_defect_on_scaled_pair_state():
    eps = su2.epsilon_matrix(1) / math.sqrt(2.0)
    t = tensors.LabeledTensor((1, 1), eps)
    lam, defect = tensors.isometry_defect(t, tensors.Bipartition((1,), (2,)))
    assert lam == pytest.approx(0.5)
    assert defect < 1e-14


def test_isometry_defect_zero_tensor():
    t = tensors.LabeledTensor((1, 1), np.zeros(4))
    with pytest.raises(ZeroTensor):
        tensors.isometry_defect(t, tensors.Bipartition((1,), (2,)))


def test_trace_law_for_invariant_tensors():
    # single-leg Gram of an invariant tensor is lam * identity with
    # lam * dim_A = ||t||^2
    rng = np.random.default_rng(7)
    for legs in [(1, 1, 1, 1), (1, 1, 1, 1, 1, 1), (2, 2, 2), (2, 1, 1)]:
        t = tensors.random_invariant(legs, rng)
        for leg in range(1, len(legs) + 1):
            rest = tuple(i for i in range(1, len(legs) + 1) if i != leg)
            g = tensors.gram(t, tensors.Bipartition((leg,), rest))
            lam = t.norm_squared() / g.shape[0]
            assert np.allclose(g, lam * np.eye(g.shape[0]), atol=1e-12)


def test_invariance_defect_detects_generic_tensor():
    rng = np.random.default_rng(3)
    t = tensors.LabeledTensor((1, 1, 1, 1), rng.normal(size=16))
    assert tensors.invariance_defect(t) > 0.1
    inv = tensors.random_invariant((1, 1, 1, 1), rng)
    assert tensors.invariance_defect(inv) < 1e-13


def test_invariant_basis_dimensions():
    assert len(tensors.invariant_basis((1, 1))) == 1
    assert len(tensors.invariant_basis((1, 1, 1))) == 0
    assert len(tensors.invariant_basis((1, 1, 1, 1))) == 2
    assert len(tensors.invariant_basis((1,) * 6)) == 5
    assert len(tensors.invariant_basis((2, 2))) == 1
    assert len(tensors.invariant_basis((2, 1, 1))) == 1


def test_invariant_basis_orthonormal():
    basis = tensors.invariant_basis((1,) * 6)
    for i, e in enumerate(basis):
        for j, f in enumerate(basis):
            want = 1.0 if i == j else 0.0
            assert abs(e.overlap(f) - want) < 1e-12


def test_random_invariant_empty_space():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        tensors.random_invariant((1, 1, 1), rng)


def test_schur_spectrum_structure():
    # identity pairing on 4 qubit legs across the balanced cut (1,2)|(3,4)
    t = bridge.identity_state(4)
    spec = tensors.schur_spectrum(t, tensors.Bipartition((1, 2), (3, 4)))
    total_mult = sum(m for _, _, m in spec.entries)
    assert total_mult == 2  # one singular value per A-side coupling path
    # sum over blocks of mult * dim(J) * modulus^2 recovers the norm
    recovered = sum(m * su2.dim(tj) * mod**2 for tj, mod, m in spec.entries)
    assert recovered == pytest.approx(t.norm_squared(), rel=1e-12)


def test_schur_spectrum_multiplicities_match_cg_series():
    rng = np.random.default_rng(11)
    for legs in [(1, 1, 1, 1), (2, 1, 1), (1, 1, 2, 2), (2, 2, 2)]:
        t = tensors.random_invariant(legs, rng)
        for p in tensors.bipartitions(len(legs)):
            a_spins = [legs[i - 1] for i in p.a]
            series = {}
            for path in su2.coupling_paths(a_spins):
                series[path[-1]] = series.get(path[-1], 0) + 1
            spec = tensors.schur_spectrum(t, p)
            got = {}
            for tj, _, m in spec.entries:
                got[tj] = got.get(tj, 0) + m
            assert got == series


def test_schur_spectrum_rejects_noninvariant():
    rng = np.random.default_rng(5)
    t = tensors.LabeledTensor((1, 1, 1, 1), rng.normal(size=16))
    with pytest.raises(NotInvariant):
        tensors.schur_spectrum(t, tensors.Bipartition((1, 2), (3, 4)))


def test_json_roundtrip():
    rng = np.random.default_rng(9)
    t = tensors.LabeledTensor((1, 2), rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)))
    u = tensors.loads_tensor(tensors.dumps_tensor(t))
    assert u.legs == t.legs
    assert np.array_equal(u.data, t.data)


@pytest.mark.parametrize("doc", [
    {"data": []},
    {"legs": ["1/2"]},
    [],
    {"legs": "1/2", "data": [[1, 0], [0, 0]]},
    {"legs": [1], "data": [[1, 0], [0, 0]]},
    {"legs": ["1/2"], "data": 5},
    {"legs": ["1/2"], "data": [[1, 0], [0]]},
    {"legs": ["1/2"], "data": [["a", 0], [0, 0]]},
    {"legs": ["1/2"], "data": [[1, 0]]},
])
def test_from_json_dict_rejects_missing_or_malformed_fields(doc):
    with pytest.raises(ValueError):
        tensors.from_json_dict(doc)


def test_contract_pair_traces_out_legs():
    eps = su2.epsilon_matrix(1)
    t = tensors.LabeledTensor((1, 1), eps)
    out = tensors.contract(t, t, [(2, 1)])
    assert out.legs == (1, 1)
    # eps @ eps = -identity
    assert np.allclose(out.data, -np.eye(2), atol=1e-14)
