import itertools

import numpy as np
import pytest
from registers import tensor

from ququart_qkd.linalg import DIM
from ququart_qkd.observables import (
    KEY_LABELS,
    OBSERVABLE_NAMES,
    KeyOutcome,
    Observable,
    check_observable,
    key_basis,
    key_bit_errors,
    outcome_from_index,
    sift,
)

SQRT8 = 2.0 * np.sqrt(2.0)


@pytest.mark.parametrize("name", OBSERVABLE_NAMES)
def test_checks_are_hermitian_involutions(name):
    m = check_observable(name).matrix
    np.testing.assert_allclose(m, m.conj().T, atol=1e-15)
    np.testing.assert_allclose(m @ m, np.eye(DIM), atol=1e-15)


def test_eigenvalues_and_eigenspace_ranks():
    # every check splits the single-particle space into +/- eigenspaces;
    # oz is the lone unbalanced one (3 up, 1 down)
    expected_plus_rank = {name: 2 for name in OBSERVABLE_NAMES}
    expected_plus_rank["oz"] = 3
    expected_plus_rank["id"] = 4
    for name in OBSERVABLE_NAMES:
        m = check_observable(name).matrix
        vals = np.linalg.eigvalsh(m)
        plus = int(np.sum(vals > 0.5))
        minus = int(np.sum(vals < -0.5))
        assert plus + minus == DIM
        assert plus == expected_plus_rank[name]


def test_diagonal_check_entries():
    np.testing.assert_array_equal(
        np.diag(check_observable("sz").matrix).real, [-1, 1, -1, 1]
    )
    np.testing.assert_array_equal(
        np.diag(check_observable("uz").matrix).real, [-1, -1, 1, 1]
    )
    np.testing.assert_array_equal(
        np.diag(check_observable("oz").matrix).real, [1, -1, 1, 1]
    )


def test_permutation_check_entries():
    def pair_swap(i, j, k, l):
        m = np.zeros((DIM, DIM), dtype=complex)
        m[i, j] = m[j, i] = 1.0
        m[k, l] = m[l, k] = 1.0
        return m

    np.testing.assert_array_equal(check_observable("sx").matrix, pair_swap(3, 0, 1, 2))
    np.testing.assert_array_equal(check_observable("ux").matrix, pair_swap(2, 0, 3, 1))
    np.testing.assert_array_equal(check_observable("ex").matrix, pair_swap(2, 3, 0, 1))


def test_projectors_resolve_identity():
    for name in ("sx", "ux", "sz", "uz", "ex", "oz"):
        obs = check_observable(name)
        np.testing.assert_allclose(
            obs.plus_projector + obs.minus_projector, np.eye(DIM), atol=1e-15
        )
        np.testing.assert_allclose(
            obs.plus_projector - obs.minus_projector, obs.matrix, atol=1e-15
        )


def test_unknown_observable_rejected():
    with pytest.raises(ValueError):
        check_observable("sy")


def test_observable_rejects_bad_matrices():
    shift = np.roll(np.eye(DIM), 1, axis=0)  # a permutation, but not symmetric
    for matrix in (np.eye(2), shift, 2 * np.eye(DIM), np.full((DIM, DIM), np.nan)):
        with pytest.raises(ValueError):
            Observable("bad", matrix)


def test_key_basis_is_orthonormal():
    kb = key_basis()
    mat = np.column_stack(kb.vectors)
    np.testing.assert_allclose(mat.conj().T @ mat, np.eye(DIM), atol=1e-15)


def test_key_basis_vectors():
    kb = key_basis()
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(kb.vectors[0], [r, 0, 0, r], atol=1e-15)
    np.testing.assert_allclose(kb.vectors[1], [r, 0, 0, -r], atol=1e-15)
    np.testing.assert_allclose(kb.vectors[2], [0, r, r, 0], atol=1e-15)
    np.testing.assert_allclose(kb.vectors[3], [0, r, -r, 0], atol=1e-15)


@pytest.mark.parametrize("name", OBSERVABLE_NAMES)
def test_check_observables_are_real_signed_permutations(name):
    m = check_observable(name).matrix
    assert m.dtype == np.float64
    assert set(np.unique(m)) <= {-1.0, 0.0, 1.0}
    np.testing.assert_array_equal(np.count_nonzero(m, axis=0), np.ones(DIM))
    np.testing.assert_array_equal(np.count_nonzero(m, axis=1), np.ones(DIM))
    with pytest.raises(ValueError):
        m[0, 0] = 2.0


def test_key_basis_is_built_once_and_read_only():
    kb = key_basis()
    assert key_basis() is kb
    for array in kb.vectors + kb.projectors:
        with pytest.raises(ValueError):
            array[0] = 2.0


def test_key_projectors_match_vectors():
    kb = key_basis()
    for v, p in zip(kb.vectors, kb.projectors):
        np.testing.assert_allclose(p, np.outer(v, v.conj()), atol=1e-15)


def test_outcome_round_trip_and_bit_coding():
    for idx in range(4):
        out = outcome_from_index(idx)
        assert out.index == idx
        assert out.label == KEY_LABELS[idx]
        assert (out.parity_bit, out.phase_bit) == (idx // 2, idx % 2)
    assert outcome_from_index(0).label == "phi+"
    assert outcome_from_index(3).label == "psi-"


def test_outcome_label_bit_consistency_enforced():
    with pytest.raises(AssertionError):
        KeyOutcome("phi+", 1, 1)
    with pytest.raises(ValueError):
        outcome_from_index(4)


def commutator_norm(a, b):
    """Frobenius norm of [a, b]: zero when the two joint check operators
    are simultaneously measurable.  The three-party check set has pairs
    where it is nonzero, which is harmless because a verification round
    only ever measures one matched operator triple."""
    return float(np.linalg.norm(a @ b - b @ a))


def test_two_party_check_set_commutes():
    names = ("sx", "ux", "sz", "uz")
    joints = [
        tensor(check_observable(n).matrix, check_observable(n).matrix) for n in names
    ]
    for i in range(len(joints)):
        for j in range(i + 1, len(joints)):
            assert commutator_norm(joints[i], joints[j]) < 1e-14


def _triple(a, b, c):
    return tensor(
        tensor(check_observable(a).matrix, check_observable(b).matrix),
        check_observable(c).matrix,
    )


def test_three_party_commutator_norms():
    sx3 = _triple("sx", "sx", "sx")
    oz3 = _triple("oz", "oz", "oz")
    exa = _triple("ex", "ex", "id")
    exb = _triple("id", "ex", "ex")
    # the oz triple genuinely fails to commute with the other three
    assert commutator_norm(sx3, oz3) == pytest.approx(4 * SQRT8, abs=1e-12)
    assert commutator_norm(oz3, exa) == pytest.approx(4 * SQRT8, abs=1e-12)
    assert commutator_norm(oz3, exb) == pytest.approx(4 * SQRT8, abs=1e-12)
    assert commutator_norm(sx3, exa) < 1e-14
    assert commutator_norm(sx3, exb) < 1e-14
    assert commutator_norm(exa, exb) < 1e-14


def test_single_particle_commutators():
    sx = check_observable("sx").matrix
    oz = check_observable("oz").matrix
    ex = check_observable("ex").matrix
    ident = check_observable("id").matrix
    assert commutator_norm(sx, oz) == pytest.approx(SQRT8, abs=1e-12)
    assert commutator_norm(ex, oz) == pytest.approx(SQRT8, abs=1e-12)
    assert commutator_norm(sx, ident) < 1e-15


def reference_sift_errors(indices):
    """Per-bit sifting on (parity, phase) bits: the receiver's double flip
    for two parties, the XOR law against the third outcome for three."""
    parity = [i // 2 for i in indices]
    phase = [i % 2 for i in indices]
    if len(indices) == 2:
        reference = (parity[0], phase[0])
        estimate = (parity[1] ^ 1, phase[1] ^ 1)
    else:
        reference = (parity[2], phase[2])
        estimate = (parity[0] ^ parity[1], phase[0] ^ phase[1])
    errors = (reference[0] != estimate[0]) + (reference[1] != estimate[1])
    return reference, estimate, errors


@pytest.mark.parametrize("parties", [2, 3])
def test_sift_matches_bit_formulas_on_every_index_tuple(parties):
    for indices in itertools.product(range(4), repeat=parties):
        reference, estimate, errors = reference_sift_errors(indices)
        got_reference, got_estimate = sift(indices)
        assert (got_reference // 2, got_reference % 2) == reference
        assert (got_estimate // 2, got_estimate % 2) == estimate
        assert key_bit_errors(indices) == errors
    # on int columns, one per party, every round at once gives the same
    table = list(itertools.product(range(4), repeat=parties))
    columns = [np.array(column, dtype=np.intp) for column in zip(*table)]
    got_reference, got_estimate = sift(columns)
    assert list(zip(got_reference.tolist(), got_estimate.tolist())) == [sift(t) for t in table]
    assert key_bit_errors(columns).tolist() == [reference_sift_errors(t)[2] for t in table]
